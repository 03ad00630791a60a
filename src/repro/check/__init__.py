"""repro.check — trace invariant checking and deterministic replay.

Three layers of run validation:

- :mod:`repro.check.invariants` replays a finished execution trace
  against the machine description and asserts physical/causal legality
  (worker and DMA exclusivity, coherence, dependencies, conservation);
- :mod:`repro.check.replay` records every scheduling decision and
  re-executes the log, asserting the replayed trace is bit-identical;
- :mod:`repro.check.differential` (imported explicitly — it pulls in the
  whole composer stack) compares composed applications against their
  hand-written direct references under every scheduling policy;
- :mod:`repro.check.cluster` (imported explicitly — it pulls in the
  cluster/serving stack) validates distributed invariants of a
  :class:`~repro.cluster.router.Cluster` run (exactly-once completion,
  no execution on crashed nodes, non-overlapping retries) and runs the
  single-machine checker over every node's engine trace.

Enable shutdown-time checking per session (``Runtime(check=True)`` /
``Session(check=True)``), process-wide
(:func:`repro.check.config.set_default_check` or ``REPRO_CHECK=1``), or
offline over a saved trace: ``python -m repro.check trace.json``.
"""

from repro._lazy import lazy_exports

#: public names, each resolved on first use: ``repro.check.config`` and
#: ``repro.check.replay`` load without the invariant checker
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.check.config": ("default_check", "set_default_check"),
        "repro.errors": ("InvariantViolation", "ReplayDivergence"),
        "repro.check.invariants": (
            "TraceChecker",
            "assert_trace_legal",
            "check_trace",
        ),
        "repro.check.replay": (
            "DecisionLog",
            "DecisionRecord",
            "DecisionRecorder",
            "ReplayScheduler",
            "assert_traces_identical",
            "record_and_replay",
        ),
    },
)

__all__ = [
    "DecisionLog",
    "DecisionRecord",
    "DecisionRecorder",
    "InvariantViolation",
    "ReplayDivergence",
    "ReplayScheduler",
    "TraceChecker",
    "assert_trace_legal",
    "assert_traces_identical",
    "check_trace",
    "default_check",
    "record_and_replay",
    "set_default_check",
]
