"""The Voter model — the simplest pull baseline.

Each vertex adopts the opinion of one uniformly random neighbour.  On the
complete graph the expected fractions are a martingale
(``E[alpha_t] = alpha_{t-1}``), so consensus is driven purely by drift of
the variance and takes ``Theta(n)`` rounds — far slower than 3-Majority
and 2-Choices.  The baseline experiments use it to show *why* the paper's
dynamics matter: three samples beat one by an exponential margin in n.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import (
    Dynamics,
    batch_multinomial_counts,
    iter_row_chunks,
    jump_from_product,
    multinomial_counts,
    sample_and_gather_neighbor_opinions_batch,
)
from repro.graphs.base import Graph

__all__ = ["Voter"]


class Voter(Dynamics):
    """Synchronous Voter model (adopt one random neighbour's opinion)."""

    name = "voter"
    samples_per_round = 1

    def population_step(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        alive = np.flatnonzero(counts)
        if alive.size == 1:
            return counts.copy()
        n = int(counts.sum())
        alpha = counts[alive] / n
        new_counts = np.zeros_like(counts)
        new_counts[alive] = multinomial_counts(n, alpha, rng, self.name)
        return new_counts

    def population_step_batch(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """All R replicas in one multinomial call (law = alpha itself)."""
        counts = np.asarray(counts, dtype=np.int64)
        totals = counts.sum(axis=1)
        alpha = counts / totals[:, None]
        return batch_multinomial_counts(totals, alpha, rng, self.name)

    def agent_step(
        self,
        opinions: np.ndarray,
        graph: Graph,
        rng: np.random.Generator,
    ) -> np.ndarray:
        return opinions[graph.sample_neighbors(rng, 1)[:, 0]]

    def agent_step_batch(
        self,
        opinions: np.ndarray,
        graph: Graph,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """All R replicas via one batched sample-and-gather per chunk.

        Replica rows are chunked so the dominant ``(rows, n)`` index
        scratch stays under ``batch_element_budget`` elements; chunking
        changes memory, call granularity and raw-stream consumption —
        realisations differ across budgets, the sampled law never does
        (KS-tested).
        """
        opinions = np.ascontiguousarray(opinions)
        num_rows, n = opinions.shape
        out = np.empty_like(opinions)
        for start, stop in iter_row_chunks(
            num_rows, n, self.batch_element_budget
        ):
            sample_and_gather_neighbor_opinions_batch(
                opinions[start:stop],
                graph,
                1,
                rng,
                out=out[None, start:stop],
            )
        return out

    def single_vertex_law(
        self, alpha: np.ndarray, current_opinion: int
    ) -> np.ndarray:
        return np.asarray(alpha, dtype=np.float64).copy()

    def async_jump_batch(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Jump law of one asynchronous tick across all R rows, O(R k).

        The updating vertex and the neighbour it copies are two i.i.d.
        uniformly random vertices, so a tick moves ``m -> j`` with
        probability ``alpha_m alpha_j`` for ``j != m``.
        """
        counts = np.asarray(counts, dtype=np.int64)
        alpha = counts / counts.sum(axis=1)[:, None]
        return jump_from_product(alpha, alpha.copy(), 1.0, rng)

    def expected_alpha_next(self, alpha: np.ndarray) -> np.ndarray:
        """The voter fractions are a martingale: ``E[alpha_t] = alpha``."""
        return np.asarray(alpha, dtype=np.float64).copy()
