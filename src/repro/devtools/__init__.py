"""Developer tooling for the reproduction.

``repro.devtools`` hosts tooling that keeps the simulator trustworthy
rather than code that runs inside simulations:

* :mod:`repro.devtools.analysis` — the static-analysis engine behind
  ``repro check``: per-file determinism and unit-safety rules (the
  ``lint`` analyzer; ``repro lint`` is an alias), the trace-event
  schema and the import-layer DAG, over one parsed project;
* :mod:`repro.devtools.determinism` — trace fingerprinting used by the
  determinism regression gate in the test suite.

The runtime counterpart (invariant checking while a simulation runs)
lives in :mod:`repro.sim.invariants` so the simulator package stays
self-contained.
"""

from .determinism import stats_digest, trace_digest

__all__ = ["stats_digest", "trace_digest"]
