"""Seeded random-variate helpers.

All stochastic choices in the simulator and workload generators flow
through :class:`SimRng` so that a single integer seed reproduces an entire
experiment bit-for-bit.  Child generators are derived with
``numpy.random.SeedSequence.spawn`` so that adding a new consumer does not
perturb the draws of existing ones.
"""

from __future__ import annotations

import zlib
from typing import Sequence, TypeVar

import numpy as np

T = TypeVar("T")

#: Uniforms a prefetching :class:`WeightedSampler` draws per vectorized refill.
PREFETCH_BLOCK = 256


def zipf_weights(n: int, skew: float) -> np.ndarray:
    """Normalized Zipf weights over ranks ``1..n``.

    ``skew == 0`` degenerates to the uniform distribution; larger skews
    concentrate mass on low ranks.  This matches how the paper's synthetic
    generator models *key distribution skew* and *endorser distribution
    skew* (Table 2).
    """
    if n <= 0:
        raise ValueError(f"need at least one rank, got {n}")
    if skew < 0:
        raise ValueError(f"negative skew {skew!r}")
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks**-skew
    return weights / weights.sum()


class WeightedSampler:
    """Repeated weighted index draws from one generator, CDF precomputed.

    Draw-stream compatible with ``generator.choice(n, p=weights)``: numpy's
    weighted scalar ``choice`` consumes exactly one ``generator.random()``
    and resolves it with a right-biased ``searchsorted`` over the
    normalized cumulative weights — this class precomputes that CDF once
    instead of rebuilding it on every call, which profiling shows dominates
    per-transaction endorser selection.  Equivalence is pinned by
    ``tests/test_sim_rng.py`` and, end to end, by the golden-file tests.

    ``prefetch`` amortizes the per-call numpy dispatch further: draws are
    served from a buffer filled ``prefetch`` uniforms at a time via one
    vectorized ``generator.random(n)`` call.  The PCG64 bit stream fills
    arrays element by element with the same ``next_double`` path scalar
    ``random()`` uses, so the draw *values* are bit-identical — but the
    generator advances ahead of consumption, so prefetching is only safe
    when this sampler is the stream's **exclusive** consumer.  That holds
    for the endorser pool's dedicated ``endorser-selection`` stream and for
    the synthetic request generator's per-name streams, which prefetch on
    every kernel tier.  ``SimRng.zipf_index`` cannot know who else draws
    from its stream, so its samplers never prefetch.
    """

    __slots__ = ("_generator", "_cdf", "_prefetch", "_buffer", "_cursor")

    def __init__(
        self,
        generator: np.random.Generator,
        weights: np.ndarray,
        prefetch: int = 0,
    ) -> None:
        cdf = np.asarray(weights, dtype=np.float64).cumsum()
        if cdf.size == 0:
            raise ValueError("need at least one weight")
        if prefetch < 0:
            raise ValueError(f"negative prefetch {prefetch!r}")
        cdf /= cdf[-1]
        self._generator = generator
        self._cdf = cdf
        self._prefetch = prefetch
        self._buffer: list[int] = []
        self._cursor = 0

    def draw(self) -> int:
        """One weighted index in ``0..len(weights)-1``."""
        if self._prefetch:
            if self._cursor >= len(self._buffer):
                self._buffer = self.draw_array(self._prefetch).tolist()
                self._cursor = 0
            index = self._buffer[self._cursor]
            self._cursor += 1
            return index
        return int(self._cdf.searchsorted(self._generator.random(), side="right"))

    def draw_array(self, n: int) -> np.ndarray:
        """``n`` weighted indices, bit-identical to ``n`` scalar draws.

        One vectorized ``generator.random(n)`` consumes exactly the same
        doubles, in the same order, as ``n`` scalar ``random()`` calls,
        and the shared right-biased ``searchsorted`` resolves each the
        same way — pinned against ``Generator.choice`` by
        ``tests/test_sim_rng.py``.
        """
        if n < 0:
            raise ValueError(f"negative draw count {n!r}")
        return self._cdf.searchsorted(self._generator.random(n), side="right")


class SimRng:
    """A seeded random source with named, stable substreams."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._root = np.random.SeedSequence(seed)
        self._streams: dict[str, np.random.Generator] = {}
        self._samplers: dict[tuple[str, int, float], WeightedSampler] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for ``name``.

        Streams are keyed by name, not creation order, so consumers stay
        decoupled: drawing more from one stream never shifts another.
        """
        if name not in self._streams:
            # zlib.crc32 is stable across processes, unlike str.__hash__.
            child = np.random.SeedSequence(
                entropy=self._root.entropy, spawn_key=(zlib.crc32(name.encode()),)
            )
            self._streams[name] = np.random.default_rng(child)
        return self._streams[name]

    def choice(self, name: str, items: Sequence[T], weights: np.ndarray | None = None) -> T:
        """Draw one item from ``items`` on stream ``name``."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        gen = self.stream(name)
        index = int(gen.choice(len(items), p=weights))
        return items[index]

    def zipf_index(self, name: str, n: int, skew: float) -> int:
        """Draw an index in ``0..n-1`` with Zipf(skew) weights.

        The Zipf CDF for each ``(name, n, skew)`` triple is built once and
        reused (see :class:`WeightedSampler`); the draws are identical to
        the original per-call ``choice(n, p=zipf_weights(n, skew))``.
        """
        key = (name, n, skew)
        sampler = self._samplers.get(key)
        if sampler is None:
            sampler = WeightedSampler(self.stream(name), zipf_weights(n, skew))
            self._samplers[key] = sampler
        return sampler.draw()

    def uniform(self, name: str, low: float, high: float) -> float:
        """Uniform float on ``[low, high)`` from stream ``name``."""
        return float(self.stream(name).uniform(low, high))

    def exponential(self, name: str, mean: float) -> float:
        """Exponential variate with the given mean."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean!r}")
        return float(self.stream(name).exponential(mean))

    def shuffled(self, name: str, items: Sequence[T]) -> list[T]:
        """A shuffled copy of ``items``."""
        out = list(items)
        self.stream(name).shuffle(out)  # type: ignore[arg-type]
        return out
