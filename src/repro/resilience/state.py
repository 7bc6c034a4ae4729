"""Checksummed state files with last-good-checkpoint recovery.

The online tuner's ``--state`` snapshots are what let a killed daemon
resume exactly where it stopped — which makes a *corrupt* snapshot
worse than none at all. This module wraps any JSON-able state dict in
a checksummed envelope and keeps the previous checkpoint as a rotated
``.bak``, so the load path has a degradation ladder:

1. the primary file, if it parses and its SHA-256 matches;
2. the rotated ``.bak`` (the previous successful checkpoint) —
   resuming from it just replays a slightly longer stream suffix,
   which is idempotent for the tuner;
3. :class:`~repro.errors.StateCorruptError` when neither survives —
   the CLI then starts cold with a warning instead of crashing.

Writes are atomic (temp file + ``os.replace``) and rotate the current
primary to ``.bak`` first, so a kill at any instant leaves at least one
loadable checkpoint behind; a temp write that fails (``ENOSPC``,
``EIO``) removes its temp file before the error propagates. Files
written by older versions (a bare state dict with no envelope) still
load — they simply have no checksum to verify.

The canonical text of the state (sorted keys, compact separators) is
both the checksum input and the envelope's ``state`` body, so a write
serialises the state once. The loader parses the file and
re-canonicalises the state to verify it, which is why envelopes in the
earlier spaced layout keep loading here and these files load in
earlier versions.

The ``state.write`` fault point fires *before* the atomic dance and
emulates the failure the envelope exists to catch: a torn write that
leaves a truncated primary behind. Injecting it therefore exercises
checksum detection and ``.bak`` recovery end to end.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os

from repro.errors import FaultInjected, StateCorruptError
from repro.resilience import faults

STATE_FORMAT = "repro-state-v1"


def canonical_json(value: object) -> str:
    """The canonical text of ``value``: sorted keys, compact separators."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _checksum(canonical: str) -> str:
    return hashlib.sha256(canonical.encode()).hexdigest()


def backup_path(path: str) -> str:
    """Where the previous checkpoint of ``path`` is rotated to."""
    return path + ".bak"


def dump_state(
    path: str,
    state: dict,
    fault_point: str | None = "state.write",
) -> None:
    """Atomically write ``state`` to ``path`` inside a checksummed envelope.

    The previous primary (if any) is rotated to :func:`backup_path`
    first. Raises :class:`~repro.errors.FaultInjected` when the
    ``fault_point`` fault fires — after deliberately leaving a
    truncated primary behind, the way a mid-write crash would.
    ``fault_point`` is ``state.write`` for tuner checkpoints and
    ``journal.write`` when the apply executor persists its intent
    journal, so the two write streams have independent schedules; pass
    ``None`` when the caller already checked its own fault point (the
    state store guards its writes with ``store.write`` before it gets
    here).
    """
    dump_canonical(path, canonical_json(state), fault_point)


def dump_canonical(
    path: str,
    canonical: str,
    fault_point: str | None = "state.write",
) -> str:
    """:func:`dump_state` for a state already in canonical text.

    ``canonical`` must be :func:`canonical_json` of the state dict;
    returns the file text written, so a caller that keeps it can tell
    its own last write from anyone else's bytes.
    """
    text = (
        f'{{"format": "{STATE_FORMAT}", "sha256": "{_checksum(canonical)}", '
        f'"state": {canonical}}}'
    )
    try:
        if fault_point is not None:
            faults.check(fault_point, path)
    except FaultInjected:
        # Emulate the torn write this envelope exists to survive: the
        # primary is clobbered with a prefix, the .bak stays good.
        with open(path, "w") as handle:
            handle.write(text[: max(1, len(text) // 3)])
        raise
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as handle:
            handle.write(text)
        if os.path.exists(path):
            os.replace(path, backup_path(path))
        os.replace(tmp, path)
    except BaseException:
        # A failed write must not leave a stray temp file beside the
        # primary/.bak pair (host-loss resume accepts nothing else).
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    return text


def _read_verified(path: str) -> dict:
    """One candidate file -> verified state dict, or StateCorruptError."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise StateCorruptError(f"cannot read state file {path}: {exc}") from exc
    except ValueError as exc:
        raise StateCorruptError(
            f"state file {path} is not valid JSON ({exc})"
        ) from exc
    if not isinstance(data, dict):
        raise StateCorruptError(f"state file {path} does not hold an object")
    if data.get("format") != STATE_FORMAT:
        # Legacy bare state dict (pre-envelope): accept, unverified.
        return data
    state = data.get("state")
    if not isinstance(state, dict):
        raise StateCorruptError(f"state file {path} envelope has no state")
    if _checksum(canonical_json(state)) != data.get("sha256"):
        raise StateCorruptError(
            f"state file {path} fails its checksum (torn write?)"
        )
    return state


def load_state(path: str) -> tuple[dict, str]:
    """Load ``path``, falling back to its ``.bak``; returns (state, source).

    ``source`` is ``"primary"`` or ``"backup"``. Raises
    :class:`~repro.errors.StateCorruptError` when no candidate file
    yields a verifiable state (including when neither exists).
    """
    errors: list[str] = []
    for candidate, source in ((path, "primary"), (backup_path(path), "backup")):
        if not os.path.exists(candidate):
            errors.append(f"{candidate}: missing")
            continue
        try:
            return _read_verified(candidate), source
        except StateCorruptError as exc:
            errors.append(str(exc))
    raise StateCorruptError(
        f"no recoverable state for {path}: " + "; ".join(errors)
    )


def has_state(path: str | None) -> bool:
    """True when a primary or backup checkpoint exists for ``path``."""
    return bool(path) and (
        os.path.exists(path) or os.path.exists(backup_path(path))
    )
