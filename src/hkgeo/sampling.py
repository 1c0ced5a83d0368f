"""Deterministic box sampling with singular-locus guards.

All randomness in the package flows through :func:`sample_points`, which
draws from numpy's 64-bit PCG64 generator seeded explicitly.  Identical
specs therefore reproduce identical point sets across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.random  # noqa: F401  numpy 2 loads it on first use: load it with the package

from ._record import Frozen

__all__ = ["Exclusion", "SampleSpec", "SamplingExhaustedError", "sample_points"]


class SamplingExhaustedError(RuntimeError):
    """Rejection sampling burned its candidate budget without filling the quota."""


class Exclusion(Frozen):
    """Named guard predicate; where it is True, a point is rejected.

    ``predicate`` takes coordinate columns as fields do (``d`` arrays
    ``(B,)`` for a batch, ``d`` scalars for one point) and returns a mask
    broadcasting to ``(B,)``: write it elementwise (``np.sqrt``, ``|``, ``&``).
    """

    __slots__ = ("name", "predicate")

    def __init__(self, name, predicate):
        self._set(name, predicate)

    def __call__(self, columns):
        return self.predicate(columns)


@dataclass(frozen=True)
class SampleSpec:
    """Axis-aligned sampling box with exclusions.

    Attributes
    ----------
    box : (lo, hi) pairs, one per coordinate, kept as a tuple of float pairs
    count : int
        Number of points to draw; must be >= 1.
    seed : int
        Seed for ``numpy.random.default_rng``.
    exclusions : tuple of Exclusion

    The one dataclass of the package: the benchmark's tracer rebuilds a spec
    with ``dataclasses.replace``.
    """

    box: tuple
    count: int
    seed: int = 0
    exclusions: tuple = ()

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        for k, (lo, hi) in enumerate(self.box):
            if not lo < hi:
                raise ValueError(f"empty interval {lo!r} >= {hi!r} in coordinate {k}")
        # float pairs, not an array, so that specs compare and hash
        object.__setattr__(self, "box", tuple((float(lo), float(hi)) for lo, hi in self.box))

    @property
    def dim(self):
        return len(self.box)


def sample_points(spec: SampleSpec) -> np.ndarray:
    """Draw ``spec.count`` points uniformly from the box, honouring exclusions.

    Returns one ``(count, d)`` array.  Candidates come coordinate by
    coordinate from one stream, so the accepted sequence is a pure function
    of the seed; a block of as many candidates as points are missing is that
    stream, used to its end, and each exclusion judges the whole block with
    one mask; the candidates it keeps are accepted in stream order.  If the
    exclusion predicates reject more than ``10 * count`` candidates a
    :class:`SamplingExhaustedError` is raised; that usually means the box
    and the guards disagree.
    """
    rng = np.random.default_rng(spec.seed)
    lo, hi = np.asarray(spec.box, dtype=float).T
    kept: list[np.ndarray] = []
    missing = spec.count
    rejected = 0
    budget = 10 * spec.count
    while missing:
        block = rng.uniform(lo, hi, size=(missing, spec.dim))
        bad = np.zeros(missing, dtype=bool)
        for excl in spec.exclusions:
            bad |= np.broadcast_to(excl(list(block.T)), bad.shape)
        # a block holds no more candidates than points are missing, so the stream
        # crossed the budget inside it exactly when the block's total does
        rejected += int(np.count_nonzero(bad))
        if rejected > budget:
            raise SamplingExhaustedError(
                f"rejected {budget + 1} candidates for {spec.count} requested "
                f"points; exclusions {[e.name for e in spec.exclusions]} are "
                "too tight for the box"
            )
        kept.append(block[~bad])
        missing -= len(kept[-1])
    return np.concatenate(kept)
