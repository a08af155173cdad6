"""Reproduction of "PCC Proteus: Scavenger Transport And Beyond" (SIGCOMM 2020).

Public API layout (stability policy in ``docs/API.md``):

* :mod:`repro.core` — PCC Proteus itself: utility framework
  (Proteus-P/S/H), noise tolerance, gradient rate control.
* :mod:`repro.protocols` — baseline congestion controllers (CUBIC, BBR,
  BBR-S, COPA, PCC Vivace, LEDBAT, fixed-rate) and the ``make_sender``
  factory.
* :mod:`repro.sim` — the packet-level discrete-event network simulator.
* :mod:`repro.apps` — DASH/BOLA video streaming and web-page workloads.
* :mod:`repro.analysis` — fairness, paper statistics, equilibrium theory.
* :mod:`repro.harness` — scenario definitions and experiment runners.
* :mod:`repro.obs` — observability: tracepoints, sinks, metrics.
* :mod:`repro.devtools` — the ``repro check`` static analyzers and
  trace fingerprints for the determinism gate.

Everything in ``__all__`` is the *stable public surface*: importable
directly from ``repro`` and covered by the one-release deprecation
policy.  Names resolve lazily (PEP 562), so ``import repro`` stays
cheap — no experiment, plotting, or analysis module loads until first
use (guarded by the import-surface test).
"""

from __future__ import annotations

__version__ = "2.1.0"

# Lazy surface: public name -> (module, attribute).  A None attribute
# re-exports the submodule itself.
_LAZY: dict[str, tuple[str, str | None]] = {
    # Submodules.
    "analysis": ("repro.analysis", None),
    "apps": ("repro.apps", None),
    "core": ("repro.core", None),
    "devtools": ("repro.devtools", None),
    "harness": ("repro.harness", None),
    "obs": ("repro.obs", None),
    "protocols": ("repro.protocols", None),
    "sim": ("repro.sim", None),
    # Experiment entry points (keyword-only after the scenario args).
    "run_flows": ("repro.harness.runner", "run_flows"),
    "run_homogeneous": ("repro.harness.runner", "run_homogeneous"),
    "run_pair": ("repro.harness.runner", "run_pair"),
    "run_single": ("repro.harness.runner", "run_single"),
    "run_streaming": ("repro.harness.runner", "run_streaming"),
    # Scenario vocabulary.
    "EMULAB_DEFAULT": ("repro.harness.scenarios", "EMULAB_DEFAULT"),
    "FlowSpec": ("repro.harness.runner", "FlowSpec"),
    "LinkConfig": ("repro.harness.scenarios", "LinkConfig"),
    "TIMELINES": ("repro.harness.scenarios", "TIMELINES"),
    "Timeline": ("repro.harness.scenarios", "Timeline"),
    # Results.
    "PairResult": ("repro.harness.runner", "PairResult"),
    "Result": ("repro.harness.results", "Result"),
    "RunResult": ("repro.harness.runner", "RunResult"),
    "StreamingResult": ("repro.harness.runner", "StreamingResult"),
    # Protocols / core.
    "ProteusSender": ("repro.protocols", "ProteusSender"),
    "make_sender": ("repro.protocols", "make_sender"),
    "make_utility": ("repro.core", "make_utility"),
    # Observability.
    "MetricsRegistry": ("repro.obs", "MetricsRegistry"),
    "Tracer": ("repro.obs", "Tracer"),
    "install_tracer": ("repro.obs", "install_tracer"),
    "tracing": ("repro.obs", "tracing"),
}

__all__ = sorted([*_LAZY, "__version__"])


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    module = importlib.import_module(module_name)
    value = module if attr is None else getattr(module, attr)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
