"""CLI exit codes, in one place, with their documentation.

Supervisors (systemd units, CI chaos legs, operator runbooks) branch on
these numbers, so they are part of the public contract: every code
lives here with a one-line meaning, the CLI imports them instead of
scattering literals, and a doc-drift test pins the README's exit-code
table to :data:`EXIT_CODE_DOCS` — a new code cannot land undocumented.

Codes 1 and 2 are deliberately not claimed: 1 is any other error (a
user mistake reported as one ``error:`` line, or Python's own exit for
an unhandled exception) and argparse exits 2 on usage errors.
"""

from __future__ import annotations

#: Clean exit.
EXIT_OK = 0

#: The tune stream died mid-read (``stream.read`` fault, broken pipe);
#: a final checkpoint was flushed so ``--state`` resumes exactly there.
EXIT_STREAM_LOST = 3

#: An apply journal blocks the request (a different in-flight delta);
#: an operator must resume or roll back the journaled run first.
EXIT_APPLY_CONFLICT = 4

#: A confirmed regression rolled a replica back and froze the fleet;
#: re-tuning stays paused until acknowledged with ``fleet --serve
#: --thaw``.
EXIT_ROLLOUT_FROZEN = 5

#: This daemon's state-store lease was superseded (a newer daemon took
#: over after failover); it exited rather than corrupt the new owner's
#: journal. Do not restart it against the same store without expecting
#: to fence out the other side.
EXIT_STALE_LEASE = 6

#: code -> one-line meaning; the README table is pinned to this dict.
EXIT_CODE_DOCS: dict[int, str] = {
    EXIT_OK: "success",
    EXIT_STREAM_LOST: "tune stream lost mid-read; final checkpoint flushed",
    EXIT_APPLY_CONFLICT: "apply journal conflict; operator must resolve",
    EXIT_ROLLOUT_FROZEN: "regression rollback froze the fleet; thaw to resume",
    EXIT_STALE_LEASE: "state-store lease superseded; a newer daemon owns it",
}
