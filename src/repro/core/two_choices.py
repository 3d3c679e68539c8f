"""The 2-Choices dynamics (paper Definition 3.1).

Each vertex ``v`` picks two uniformly random neighbours ``w1, w2`` (with
replacement, self-loops included).  If ``opn(w1) == opn(w2)`` the vertex
adopts that common opinion; otherwise it keeps its own opinion for the
round.  Unlike 3-Majority, the per-vertex law *does* depend on the
vertex's current opinion (paper eq. (6)):

    P[opn_t(v) = i]  =  1 - gamma + alpha_i^2     if opn_{t-1}(v) = i
                     =  alpha_i^2                  otherwise.

On the complete graph with self-loops, conditioned on round ``t-1`` the
vertices update independently, and eq. (6) is equivalent to a two-stage
draw: a vertex *switches* with probability ``gamma`` and, given a switch,
lands on opinion ``j`` with probability ``alpha_j^2 / gamma`` (landing on
its own opinion counts as staying).  The landing law is the same for
every source group, so a round is one binomial (switchers per group)
plus one multinomial (their destinations): O(k) per round, for one
replica or R of them.

Main theorem being reproduced: consensus time ``~Theta(k)`` for all
``2 <= k <= n`` (Theorem 1.1).
"""

from __future__ import annotations

import numpy as np

from repro.core.base import (
    Dynamics,
    batch_multinomial_counts,
    iter_row_chunks,
    jump_from_product,
    sample_and_gather_neighbor_opinions_batch,
)
from repro.graphs.base import Graph

__all__ = ["TwoChoices", "two_choices_law"]


def two_choices_law(alpha: np.ndarray, current_opinion: int) -> np.ndarray:
    """Next-opinion distribution for one vertex, paper eq. (6)."""
    alpha = np.asarray(alpha, dtype=np.float64)
    gamma = float(np.dot(alpha, alpha))
    law = alpha * alpha
    law[current_opinion] = 1.0 - gamma + alpha[current_opinion] ** 2
    return law


def _switch_step(
    counts: np.ndarray, rng: np.random.Generator, dynamics: str
) -> np.ndarray:
    """One round of 2-Choices by the switcher decomposition.

    ``counts`` is one count vector ``(k,)`` or a matrix ``(R, k)`` of
    them; every axis but the last is a replica axis.  A vertex switches
    with probability ``gamma`` and lands on ``j`` with probability
    ``alpha_j^2 / gamma``.  Check against eq. (6): for ``j != m`` this
    gives ``gamma * alpha_j^2 / gamma = alpha_j^2``, and for ``j = m``
    it gives ``(1 - gamma) + alpha_m^2``.  A consensus row is a fixed
    point (``gamma = 1``, everyone lands on the winner).
    """
    counts = np.asarray(counts, dtype=np.int64)
    alpha = counts / counts.sum(axis=-1, keepdims=True)
    square = alpha * alpha
    gamma = square.sum(axis=-1, keepdims=True)
    switchers = rng.binomial(counts, gamma)
    landed = batch_multinomial_counts(
        switchers.sum(axis=-1), square / gamma, rng, dynamics
    )
    return counts - switchers + landed


class TwoChoices(Dynamics):
    """Synchronous 2-Choices on a complete graph or arbitrary graph."""

    name = "2-choices"
    samples_per_round = 2

    def population_step(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """One round in O(k) (:func:`_switch_step`)."""
        return _switch_step(counts, rng, self.name)

    def population_step_batch(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """All R replicas in one binomial and one multinomial call
        (:func:`_switch_step`)."""
        return _switch_step(counts, rng, self.name)

    def agent_step(
        self,
        opinions: np.ndarray,
        graph: Graph,
        rng: np.random.Generator,
    ) -> np.ndarray:
        samples = graph.sample_neighbors(rng, 2)
        w1 = opinions[samples[:, 0]]
        w2 = opinions[samples[:, 1]]
        return np.where(w1 == w2, w1, opinions)

    def agent_step_batch(
        self,
        opinions: np.ndarray,
        graph: Graph,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """All R replicas: batched pair sample, keep own on disagreement.

        Rows are chunked under ``batch_element_budget`` like the other
        batched agent steps (the ``(2, rows, n)`` index scratch is the
        dominant term); chunking never changes the sampled law, only
        how the raw stream is consumed.
        """
        opinions = np.ascontiguousarray(opinions)
        num_rows, n = opinions.shape
        out = np.empty_like(opinions)
        for start, stop in iter_row_chunks(
            num_rows, 2 * n, self.batch_element_budget
        ):
            block = opinions[start:stop]
            w = sample_and_gather_neighbor_opinions_batch(
                block, graph, 2, rng
            )
            out[start:stop] = np.where(w[0] == w[1], w[0], block)
        return out

    def single_vertex_law(
        self, alpha: np.ndarray, current_opinion: int
    ) -> np.ndarray:
        return two_choices_law(alpha, current_opinion)

    def async_jump_batch(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Jump law of one asynchronous tick across all R rows, O(R k).

        A vertex holding ``m`` moves to ``j != m`` exactly when both of
        its samples show ``j`` (eq. (6)), so a tick moves ``m -> j``
        with probability ``alpha_m alpha_j^2``
        (:func:`~repro.core.base.jump_from_product` with ``q =
        alpha^2``).
        """
        counts = np.asarray(counts, dtype=np.int64)
        alpha = counts / counts.sum(axis=1)[:, None]
        square = alpha * alpha
        gamma = square.sum(axis=1)[:, None]
        return jump_from_product(alpha, square, gamma, rng)

    def expected_alpha_next(self, alpha: np.ndarray) -> np.ndarray:
        """Lemma 4.1(i): identical closed form to 3-Majority.

        ``E[alpha_t(i)] = alpha_i (1 - gamma + alpha_i^2) / alpha_i``...
        expanding eq. (6) over the two conditioning cases gives
        ``alpha_i (1 - gamma + alpha_i^2) + (1 - alpha_i) alpha_i^2
        = alpha_i (1 + alpha_i - gamma)``.
        """
        alpha = np.asarray(alpha, dtype=np.float64)
        gamma = float(np.dot(alpha, alpha))
        return alpha * (1.0 + alpha - gamma)
