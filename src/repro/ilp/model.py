"""Linear program modeling layer.

Callers (the index advisor, tests, benchmarks) build programs with named
variables and constraints; the model compiles itself into dense numpy
arrays for the simplex engine. All variables are non-negative with an
optional upper bound; binary variables are ``0 <= x <= 1`` integers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.errors import SolverError


class Sense(enum.Enum):
    LE = "<="
    GE = ">="
    EQ = "="


@dataclass(frozen=True)
class Variable:
    """One decision variable."""

    name: str
    index: int
    is_integer: bool = False
    upper_bound: float | None = None


@dataclass
class Constraint:
    """``sum(coeff * var) sense rhs``."""

    name: str
    coefficients: dict[int, float]
    sense: Sense
    rhs: float


@dataclass
class CompiledProgram:
    """Dense standard-ish form: maximize c @ x, A_ub x <= b_ub, A_eq x = b_eq,
    0 <= x <= ub."""

    objective: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    upper_bounds: np.ndarray
    integer_mask: np.ndarray


class LinearProgram:
    """A maximization program over non-negative variables."""

    def __init__(self, name: str = "lp") -> None:
        self.name = name
        self._variables: list[Variable] = []
        self._by_name: dict[str, Variable] = {}
        self._constraints: list[Constraint] = []
        self._objective: dict[int, float] = {}

    # ------------------------------------------------------------------
    # Building

    def add_variable(
        self,
        name: str,
        is_integer: bool = False,
        upper_bound: float | None = None,
        objective: float = 0.0,
    ) -> Variable:
        if name in self._by_name:
            raise SolverError(f"duplicate variable name {name!r}")
        var = Variable(
            name=name,
            index=len(self._variables),
            is_integer=is_integer,
            upper_bound=upper_bound,
        )
        self._variables.append(var)
        self._by_name[name] = var
        if objective:
            self._objective[var.index] = objective
        return var

    def add_binary(self, name: str, objective: float = 0.0) -> Variable:
        return self.add_variable(
            name, is_integer=True, upper_bound=1.0, objective=objective
        )

    def set_objective(self, coefficients: dict[Variable, float]) -> None:
        self._objective = {var.index: c for var, c in coefficients.items()}

    def add_constraint(
        self,
        coefficients: dict[Variable, float],
        sense: Sense,
        rhs: float,
        name: str | None = None,
    ) -> Constraint:
        constraint = Constraint(
            name=name or f"c{len(self._constraints)}",
            coefficients={var.index: c for var, c in coefficients.items() if c != 0.0},
            sense=sense,
            rhs=rhs,
        )
        self._constraints.append(constraint)
        return constraint

    def add_exclusive(
        self, variables: list[Variable], name: str | None = None
    ) -> Constraint:
        """At most one of ``variables`` may be active: ``sum(vars) <= 1``.

        The advisor's per-(query, table) atomic-configuration rows — a
        query uses at most one access path per table — all have this
        shape.
        """
        return self.add_constraint(
            {var: 1.0 for var in variables}, Sense.LE, 1.0, name=name
        )

    # ------------------------------------------------------------------
    # Introspection

    @property
    def variables(self) -> list[Variable]:
        return list(self._variables)

    @property
    def constraints(self) -> list[Constraint]:
        return list(self._constraints)

    def variable(self, name: str) -> Variable:
        try:
            return self._by_name[name]
        except KeyError:
            raise SolverError(f"no variable named {name!r}") from None

    @property
    def num_variables(self) -> int:
        return len(self._variables)

    @property
    def nnz(self) -> int:
        """Structural non-zeros across all constraint rows."""
        return sum(len(c.coefficients) for c in self._constraints)

    def objective_value(self, solution: np.ndarray) -> float:
        return float(
            sum(coeff * solution[idx] for idx, coeff in self._objective.items())
        )

    # ------------------------------------------------------------------
    # Compilation

    def compile(self) -> CompiledProgram:
        n = len(self._variables)
        if n == 0:
            raise SolverError("program has no variables")
        objective = np.zeros(n)
        for idx, coeff in self._objective.items():
            objective[idx] = coeff

        ub_rows: list[np.ndarray] = []
        ub_rhs: list[float] = []
        eq_rows: list[np.ndarray] = []
        eq_rhs: list[float] = []
        for constraint in self._constraints:
            row = np.zeros(n)
            for idx, coeff in constraint.coefficients.items():
                row[idx] = coeff
            if constraint.sense is Sense.LE:
                ub_rows.append(row)
                ub_rhs.append(constraint.rhs)
            elif constraint.sense is Sense.GE:
                ub_rows.append(-row)
                ub_rhs.append(-constraint.rhs)
            else:
                eq_rows.append(row)
                eq_rhs.append(constraint.rhs)

        upper_bounds = np.full(n, np.inf)
        for var in self._variables:
            if var.upper_bound is not None:
                upper_bounds[var.index] = var.upper_bound

        integer_mask = np.array([v.is_integer for v in self._variables], dtype=bool)
        return CompiledProgram(
            objective=objective,
            a_ub=np.array(ub_rows) if ub_rows else np.zeros((0, n)),
            b_ub=np.array(ub_rhs) if ub_rhs else np.zeros(0),
            a_eq=np.array(eq_rows) if eq_rows else np.zeros((0, n)),
            b_eq=np.array(eq_rhs) if eq_rhs else np.zeros(0),
            upper_bounds=upper_bounds,
            integer_mask=integer_mask,
        )
