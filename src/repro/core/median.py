"""The Median rule of [DGMSS11] (paper Section 1.1).

Doerr, Goldberg, Minder, Sauerwald and Scheideler's protocol assumes the
opinion space is *totally ordered*: each vertex takes the median of its
own opinion and the opinions of two uniformly random neighbours.  For
``k = 2`` it coincides with 2-Choices, which is exactly how 2-Choices was
first (implicitly) analysed; the tests verify the coincidence.

The median rule achieves O(log n) consensus but only *median* validity —
the winning opinion can be one nobody would call a plurality winner, which
is why the paper's dynamics remain interesting for k > 2.  It is included
as a baseline comparator.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import (
    Dynamics,
    batch_multinomial_counts,
    iter_row_chunks,
    jump_from_joint,
    sample_opinions_from_counts,
)
from repro.graphs.base import Graph

__all__ = ["MedianRule"]


def _median_of_three(
    own: np.ndarray, first: np.ndarray, second: np.ndarray
) -> np.ndarray:
    """Vectorised middle value of three integer arrays."""
    total = own + first + second
    low = np.minimum(np.minimum(own, first), second)
    high = np.maximum(np.maximum(own, first), second)
    return total - low - high


def _group_law(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row fractions ``(R, k)`` and the ``(R, k, k)`` group-law tensor.

    ``law[r, m]`` is :meth:`MedianRule.single_vertex_law` of row ``r``
    for a vertex holding ``m``, vectorised over rows *and* conditioning
    opinions.
    """
    k = rows.shape[1]
    alpha = rows / rows.sum(axis=1)[:, None]
    cdf = np.cumsum(alpha, axis=1)
    both = cdf * cdf
    one = 2.0 * cdf * (1.0 - cdf)
    # own_le[m, x] is "own opinion m counted as <= x", exactly the
    # ``below`` mask of single_vertex_law for every conditioning m.
    own_le = np.arange(k)[None, :] >= np.arange(k)[:, None]
    med_cdf = both[:, None, :] + one[:, None, :] * own_le[None, :, :]
    law = np.diff(med_cdf, axis=-1, prepend=0.0)
    np.clip(law, 0.0, None, out=law)
    return alpha, law


class MedianRule(Dynamics):
    """Median of {own opinion, two random neighbours} per round."""

    name = "median"
    samples_per_round = 2

    def population_step(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        alive = np.flatnonzero(counts)
        if alive.size == 1:
            return counts.copy()
        n = int(counts.sum())
        # Vertices are exchangeable within an opinion group; lay them out
        # in blocks carrying their *actual labels* (order matters for the
        # median), then sample both neighbours' labels i.i.d. from alpha.
        own = np.repeat(alive, counts[alive])
        pool = sample_opinions_from_counts(counts[alive], (n, 2), rng)
        first = alive[pool[:, 0]]
        second = alive[pool[:, 1]]
        new = _median_of_three(own, first, second)
        return np.bincount(new, minlength=counts.size).astype(np.int64)

    def population_step_batch(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """All R replicas via batched per-group closed-form laws.

        The per-vertex median-of-three law (:meth:`single_vertex_law`)
        depends only on the vertex's current opinion, so the ``c_{r,m}``
        vertices of row ``r`` holding opinion ``m`` transition as one
        ``Multinomial(c_{r,m}, law(alpha_r, m))``.  The whole round is
        therefore an ``(R, k, k)`` law tensor — ``single_vertex_law``
        vectorised over rows *and* conditioning opinions — flattened
        into a single batched multinomial over the ``R * k`` groups: one
        numpy call per round, O(R k^2) work independent of ``n``, versus
        the O(R n) per-row neighbour sampling of the sequential step.
        Rows are chunked so the tensor stays within
        ``batch_element_budget`` scratch elements.
        """
        counts = np.asarray(counts, dtype=np.int64)
        num_rows, k = counts.shape
        new_counts = np.empty_like(counts)
        for start, stop in iter_row_chunks(
            num_rows, k * k, self.batch_element_budget
        ):
            new_counts[start:stop] = self._step_rows(
                counts[start:stop], rng
            )
        return new_counts

    def _step_rows(
        self, rows: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """One vectorised round for a chunk of replica rows."""
        num_rows, k = rows.shape
        _, law = _group_law(rows)
        draws = batch_multinomial_counts(
            rows.reshape(-1), law.reshape(-1, k), rng, self.name
        )
        return draws.reshape(num_rows, k, k).sum(axis=1)

    def agent_step(
        self,
        opinions: np.ndarray,
        graph: Graph,
        rng: np.random.Generator,
    ) -> np.ndarray:
        samples = graph.sample_neighbors(rng, 2)
        first = opinions[samples[:, 0]]
        second = opinions[samples[:, 1]]
        return _median_of_three(opinions, first, second)

    def single_vertex_law(
        self, alpha: np.ndarray, current_opinion: int
    ) -> np.ndarray:
        """Exact law of median(m, X, Y) with X, Y iid ~ alpha.

        median <= x  iff  at least two of {m, X, Y} are <= x.  With
        ``F(x) = P[X <= x]`` this gives a closed-form CDF per threshold,
        differenced into a pmf.
        """
        alpha = np.asarray(alpha, dtype=np.float64)
        cdf = np.cumsum(alpha)
        m = current_opinion
        below = np.arange(alpha.size) >= m  # own opinion counted as <= x
        # P[median <= x]: own contributes 1 if m <= x.
        both = cdf * cdf
        one = 2.0 * cdf * (1.0 - cdf)
        med_cdf = np.where(below, both + one, both)
        pmf = np.diff(np.concatenate([[0.0], med_cdf]))
        # Clip tiny negatives from floating-point cancellation.
        return np.clip(pmf, 0.0, None)

    def async_jump_batch(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Jump law of one asynchronous tick across all R rows.

        A tick moves ``m -> j`` with probability ``alpha_m law(m)_j``,
        the off-diagonal of the same ``(R, k, k)`` group-law tensor
        :meth:`population_step_batch` draws from, scaled by the group
        fractions (O(R k^2), chunked under ``batch_element_budget``).
        """
        counts = np.asarray(counts, dtype=np.int64)
        num_rows, k = counts.shape
        p_change = np.empty(num_rows)
        old = np.empty(num_rows, dtype=np.int64)
        new = np.empty(num_rows, dtype=np.int64)
        for start, stop in iter_row_chunks(
            num_rows, k * k, self.batch_element_budget
        ):
            alpha, law = _group_law(counts[start:stop])
            law *= alpha[:, :, None]
            p_change[start:stop], old[start:stop], new[start:stop] = (
                jump_from_joint(law, rng)
            )
        return p_change, old, new

    def expected_alpha_next(self, alpha: np.ndarray) -> np.ndarray:
        """Exact mean by mixing :meth:`single_vertex_law` over groups."""
        alpha = np.asarray(alpha, dtype=np.float64)
        expected = np.zeros_like(alpha)
        for m in np.flatnonzero(alpha > 0):
            expected += alpha[m] * self.single_vertex_law(alpha, int(m))
        return expected
