"""Buffered per-lane uniform streams for the lane-parallel MCMC engine.

The lock-step Gibbs engine (:mod:`repro.bayes.mcmc.lane_engine`) runs
many chains — or many campaign replications — as *lanes* that advance
through the sweep together, drawing every lane's variates in single
vectorized calls. For that to be reproducible per lane, each lane must
consume its own generator's uniform stream in exactly the order the
scalar sampler would: this module provides that stream.

Each lane wraps one :class:`numpy.random.Generator`. Uniforms are
pre-drawn in chunks with ``generator.random(chunk)``; because the bit
generator produces a single forward stream, chunked draws concatenate
to exactly the sequence of repeated scalar ``random()`` calls, so the
values a lane consumes are independent of the chunk size. The
uniform→variate layer (:func:`repro.stats.poisson.poisson_from_uniform`
and friends) then maps the streams to Poisson/gamma variates with pure
elementwise transforms, which is what makes the batched sampler
bit-identical per lane to a one-lane run.

:func:`segment_sums` is the canonical segment reduction shared by the
lane engine and the scalar reference samplers. ``np.add.reduceat``
reduces each segment by the same instruction sequence wherever the
segment sits in the input, so both sides summing the *same* latent
draws get the *same* float — which a naive mix of ``ndarray.sum`` and
Python accumulation would not guarantee (pairwise vs linear order).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.stats.special import as_float

__all__ = ["DEFAULT_CHUNK", "UniformLaneStream", "segment_sums"]

#: Uniforms buffered per lane between generator refills. Large enough
#: to amortise the per-lane ``Generator.random`` call over hundreds of
#: sweeps, small enough to stay cache-resident.
DEFAULT_CHUNK = 4096


def segment_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sum of each segment ``values[offsets[i]:offsets[i+1]]``.

    One ``np.add.reduceat`` call; segment ``i`` of the result depends
    only on that segment's elements, so summing a lane's draws inside
    the concatenated lane-major array gives bit-identical floats to
    reducing the lane's draws alone — the property the lane-vs-scalar
    identity contract relies on. Offsets must be strictly increasing
    (no empty segments) and start at 0.

    Dtypes follow the input (float32 stays float32; ints promote to
    float64).
    """
    values = as_float(values)
    offsets = np.asarray(offsets, dtype=np.intp)
    if offsets.size == 0:
        return np.empty(0)
    return np.add.reduceat(values, offsets)


class UniformLaneStream:
    """Lock-step buffered view over one uniform stream per lane.

    Parameters
    ----------
    generators:
        One :class:`numpy.random.Generator` per lane; each lane
        consumes only its own generator, in a fixed order.
    chunk:
        Uniforms buffered per refill.

    The stream contract: for every lane ``i`` the concatenation of all
    values handed out for lane ``i`` equals ``generators[i].random()``
    called that many times — regardless of how the takes interleave
    block and ragged shapes, and regardless of ``chunk``.
    """

    def __init__(
        self,
        generators: Sequence[np.random.Generator],
        chunk: int = DEFAULT_CHUNK,
    ) -> None:
        if len(generators) < 1:
            raise ValueError("need at least one lane")
        if chunk < 2:
            raise ValueError(f"chunk must be at least 2, got {chunk}")
        self._generators = list(generators)
        self.lanes = len(self._generators)
        self.chunk = int(chunk)
        self._buffer = np.empty((self.lanes, self.chunk))
        for row, generator in enumerate(self._generators):
            self._buffer[row] = generator.random(self.chunk)
        self._pos = np.zeros(self.lanes, dtype=np.intp)
        self._lane_index = np.arange(self.lanes)

    # ------------------------------------------------------------------
    def _refill(self, lane: int) -> None:
        """Slide lane's unconsumed tail to the front and draw the rest."""
        pos = int(self._pos[lane])
        if pos == 0:
            return
        remaining = self.chunk - pos
        row = self._buffer[lane]
        row[:remaining] = row[pos:]
        row[remaining:] = self._generators[lane].random(pos)
        self._pos[lane] = 0

    def _ensure(self, counts: np.ndarray) -> None:
        """Guarantee every lane holds ``counts[i]`` buffered uniforms."""
        short = np.flatnonzero(self._pos + counts > self.chunk)
        for lane in short:
            self._refill(int(lane))

    # ------------------------------------------------------------------
    def take_block(self, count: int) -> np.ndarray:
        """``(lanes, count)`` uniforms — every lane advances ``count``.

        This is the hot path of a lock-step sweep: when all lanes are
        aligned (uniform consumption so far) it is a single buffer
        slice.
        """
        if count < 0 or count > self.chunk:
            raise ValueError(
                f"block of {count} uniforms outside [0, chunk={self.chunk}]"
            )
        if count == 0:
            return np.empty((self.lanes, 0))
        first = self._pos[0]
        if first + count <= self.chunk and np.all(self._pos == first):
            out = self._buffer[:, first : first + count].copy()
            self._pos += count
            return out
        self._ensure(np.full(self.lanes, count, dtype=np.intp))
        gather = self._pos[:, None] + np.arange(count)
        out = self._buffer[self._lane_index[:, None], gather]
        self._pos += count
        return out

    def take_ragged(self, counts: np.ndarray) -> np.ndarray:
        """Flat lane-major uniforms: ``counts[i]`` values for lane ``i``.

        Lane ``i``'s values occupy ``out[offsets[i]:offsets[i+1]]`` with
        ``offsets = concatenate([[0], cumsum(counts)])``. Lanes with
        count 0 simply contribute nothing and do not advance.
        """
        counts = np.asarray(counts, dtype=np.intp)
        if counts.shape != (self.lanes,):
            raise ValueError(
                f"counts must have shape ({self.lanes},), got {counts.shape}"
            )
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        total = int(counts.sum())
        if total == 0:
            return np.empty(0)
        if np.any(counts > self.chunk):
            return self._take_ragged_oversized(counts, total)
        self._ensure(counts)
        slots = np.repeat(self._lane_index, counts)
        intra = np.arange(total) - np.repeat(
            np.concatenate(([0], np.cumsum(counts)[:-1])), counts
        )
        out = self._buffer[slots, self._pos[slots] + intra]
        self._pos += counts
        return out

    def _take_ragged_oversized(self, counts: np.ndarray, total: int) -> np.ndarray:
        """Fallback when some lane wants more than one chunk at once.

        Consumes the buffered tail first, then draws the remainder
        straight from the generator — the concatenation is still the
        generator's forward stream, so the contract holds.
        """
        out = np.empty(total)
        start = 0
        for lane, need in enumerate(counts):
            need = int(need)
            if need == 0:
                continue
            pos = int(self._pos[lane])
            buffered = min(need, self.chunk - pos)
            out[start : start + buffered] = self._buffer[lane, pos : pos + buffered]
            if need > buffered:
                out[start + buffered : start + need] = self._generators[
                    lane
                ].random(need - buffered)
                # Buffer fully consumed; next take refills from scratch.
                self._pos[lane] = self.chunk
                self._refill_empty(lane)
            else:
                self._pos[lane] = pos + buffered
            start += need
        return out

    def _refill_empty(self, lane: int) -> None:
        """Redraw a fully drained lane buffer."""
        self._buffer[lane] = self._generators[lane].random(self.chunk)
        self._pos[lane] = 0
