"""Seeded randomness helpers.

Every stochastic component in the simulator draws from an :class:`Rng`
handed to it explicitly, so experiments are reproducible from a single
seed.  :meth:`Rng.spawn` (and the module-level :func:`spawn`) derive
independent child streams for components so adding a new consumer does
not perturb existing ones.

This module is the only place in the source tree allowed to touch the
stdlib ``random`` module directly; the ``no-bare-random`` lint rule
(see :mod:`repro.devtools.analysis.rules`) enforces that everything
else receives an injected :class:`Rng`.
"""

from __future__ import annotations

import random


class Rng(random.Random):
    """A seeded random stream with labelled child derivation.

    Subclasses :class:`random.Random`, so every stdlib drawing method
    (``random``, ``gauss``, ``expovariate``, ``sample``, ...) is
    available, and an ``Rng`` is accepted anywhere a plain
    ``random.Random`` is.
    """

    def spawn(self, label: str) -> "Rng":
        """Derive an independent child stream keyed by ``label``.

        The child depends on this stream's current state and the label,
        not on how many other children were spawned afterwards (the
        parent is not mutated), so component streams are stable under
        refactoring.
        """
        state_words = self.getstate()[1][:4]
        return Rng(f"{state_words}:{label}")


def make_rng(seed: int | None) -> Rng:
    """Create a new RNG. ``None`` seeds from the OS (non-reproducible)."""
    return Rng(seed)


def spawn(parent: random.Random, label: str) -> Rng:
    """Derive an independent child RNG from ``parent`` keyed by ``label``.

    Functional form of :meth:`Rng.spawn` that also accepts a plain
    ``random.Random`` parent (e.g. one created by test code).
    """
    state_words = parent.getstate()[1][:4]
    return Rng(f"{state_words}:{label}")
