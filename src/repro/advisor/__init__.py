"""Automatic index suggestion (the paper's Section 3.4).

Pipeline: analyze the workload for candidate (multicolumn) indexes,
price each query/configuration with INUM, formulate index selection as
an integer linear program — at most one access path per table per query,
a storage budget over Equation-1 index sizes — and solve it exactly with
the branch-and-bound solver from :mod:`repro.ilp`.
"""

from repro.advisor.candidates import CandidateIndex, generate_candidates
from repro.advisor.ilp_advisor import AdvisorResult, IlpIndexAdvisor, QueryBenefit

__all__ = [
    "AdvisorResult",
    "CandidateIndex",
    "IlpIndexAdvisor",
    "QueryBenefit",
    "generate_candidates",
]
