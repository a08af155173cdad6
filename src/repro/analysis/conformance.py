"""Conformance of traced monitor-interval utilities to the paper's equations.

Every scored monitor interval of a utility-based sender leaves one
``mi.end`` trace row that carries the interval's inputs (planned rate,
loss rate, filtered RTT gradient and RTT deviation) next to the utility
the controller acted on.  :func:`check_mi_utilities` recomputes that
utility from the row's own fields and reports every row where the two
disagree:

* Proteus-P (Eq. 1): ``x^t - b*x*max(dRTT/dt, 0) - c*x*L`` — a falling
  RTT earns nothing;
* Proteus-S (Eq. 2): Proteus-P minus ``d*x*sigma(RTT)``;
* Proteus-H (Eq. 3): Proteus-P while ``x * 1e6`` is below the switching
  threshold in force for the flow (its latest ``threshold.change`` row),
  Proteus-S at or above it;
* PCC Vivace: Eq. 1 without the clamp, so a falling RTT is rewarded.

``x`` is the planned rate in Mbps.  The constants are the paper's
(t = 0.9, b = 900, c = 11.35, d = 1500 with sigma in seconds), written
out here instead of read from :mod:`repro.core.utility`, so a change to
the library's defaults or formulas shows up as mismatches rather than
being mirrored.  Rows of a protocol without a formula here, and
Proteus-H rows of a flow with no threshold row before them, are
counted as unchecked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

EXPONENT_T = 0.9
LATENCY_B = 900.0
LOSS_C = 11.35
DEVIATION_D = 1500.0
# Absorbs only a different order of the same float operations; a wrong
# term or a dropped clamp moves a utility by far more.
_TOLERANCE = 1e-9


def _vivace(x: float, gradient: float, loss: float, deviation: float) -> float:
    return x**EXPONENT_T - LATENCY_B * x * gradient - LOSS_C * x * loss


def _proteus_p(x: float, gradient: float, loss: float, deviation: float) -> float:
    return _vivace(x, max(gradient, 0.0), loss, deviation)


def _proteus_s(x: float, gradient: float, loss: float, deviation: float) -> float:
    return _proteus_p(x, gradient, loss, deviation) - DEVIATION_D * x * deviation


_UTILITIES: dict[str, Callable[[float, float, float, float], float]] = {
    "proteus-p": _proteus_p,
    "proteus-s": _proteus_s,
    "vivace": _vivace,
}


@dataclass(frozen=True)
class Mismatch:
    """One ``mi.end`` row whose utility is not what its fields give."""

    flow: int
    protocol: str
    mi_id: int
    time_s: float
    traced: float
    expected: float


@dataclass
class Conformance:
    """What :func:`check_mi_utilities` found."""

    checked: int = 0  # mi.end rows recomputed
    unchecked: int = 0  # mi.end rows without a formula (or threshold) here
    mismatches: list[Mismatch] = field(default_factory=list)


def check_mi_utilities(rows: Iterable[tuple], protocols: Mapping[int, str]) -> Conformance:
    """Recompute the utility of every ``mi.end`` row in ``rows``.

    ``rows`` are trace rows ``(shape, time_s, flow, link, *values)``
    (``CollectingTracer.rows``); ``protocols`` maps each flow id to its
    protocol name.  A ``mi.end`` row of a flow missing from
    ``protocols`` raises ``KeyError``.
    """
    report = Conformance()
    thresholds: dict[int, float] = {}  # flow -> threshold in force
    for row in rows:
        shape = row[0]
        if shape.kind == "threshold.change":
            thresholds[row[2]] = row[4]
            continue
        if shape.kind != "mi.end":
            continue
        fields = dict(zip(shape.keys, row[1:]))
        protocol = protocols[fields["flow"]].lower()
        utility = _UTILITIES.get(protocol)
        if protocol == "proteus-h" and fields["flow"] in thresholds:
            # HybridUtility's comparison, on the planned rate in Mbps.
            below = fields["rate_bps"] / 1e6 * 1e6 < thresholds[fields["flow"]]
            utility = _proteus_p if below else _proteus_s
        if utility is None:
            report.unchecked += 1
            continue
        report.checked += 1
        expected = utility(
            fields["rate_bps"] / 1e6,
            fields["rtt_gradient"],
            fields["loss_rate"],
            fields["rtt_deviation_s"],
        )
        if not math.isclose(fields["utility"], expected, rel_tol=_TOLERANCE, abs_tol=_TOLERANCE):
            report.mismatches.append(
                Mismatch(
                    fields["flow"], protocol, fields["mi_id"], fields["t"],
                    fields["utility"], expected,
                )
            )
    return report
