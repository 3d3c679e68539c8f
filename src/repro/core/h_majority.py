"""The h-Majority dynamics (paper Section 2.5 extension).

Each vertex samples ``h`` uniformly random neighbours with replacement and
adopts the most frequent opinion in the sample, with ties broken uniformly
at random among the tied opinions.  ``h = 1`` reduces to the Voter model;
``h = 3`` agrees in distribution with :class:`~repro.core.three_majority.
ThreeMajority` (a property the tests verify).

On the complete graph the next-opinion law is common to all vertices and
has an exact polynomial-size form (:func:`hmajority_law`), so a
population round is one multinomial draw from it — like 3-Majority's
eq. (5), independent of ``n``.  The per-vertex graph step still samples
``h`` neighbours and takes the plurality (:func:`majority_winners`).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from repro.backends import active_backend, backend_kernel, quarantine_kernel
from repro.core.base import (
    Dynamics,
    batch_multinomial_counts,
    jump_from_product,
    multinomial_counts,
)
from repro.graphs.base import Graph

__all__ = ["HMajority", "hmajority_law", "majority_winners"]


def majority_winners(
    samples: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Row-wise plurality winner with uniform random tie-breaking.

    ``samples`` is an ``(n, h)`` array of opinion labels.  For each row,
    returns the most frequent label; when several labels tie for the
    maximum count, each tied label wins with equal probability.

    Implementation: for each position ``a``, count how many positions in
    the same row carry the same label (O(h^2) vectorised over rows), then
    pick a uniformly random position among those achieving the row
    maximum.  Positions holding a tied label are equinumerous (each tied
    label occupies exactly ``max_count`` positions), so uniform-over-
    positions equals uniform-over-tied-labels.

    The h^2 counting passes are memory-bandwidth-bound on large inputs,
    so occurrence counts use the narrowest safe dtype (they fit ``h``;
    int8 up to h = 127).  The tie-break sum stays float64: in float32,
    a jitter within 2^-22 of 1 rounds ``count + jitter`` up to the next
    integer, letting a minority position tie the true maximum — float64
    pushes that phantom-tie probability back to ~2^-52 per position.

    When the active backend provides a ``majority_winners`` kernel the
    whole pass runs compiled (streaming counts in wide scalars, same
    uniform tie-break law, different raw RNG stream — distribution-
    equal, not bitwise).
    """
    samples = np.asarray(samples)
    n, h = samples.shape
    kernel = backend_kernel("majority_winners")
    if kernel is not None:
        try:
            return kernel(samples, rng)
        except Exception as exc:
            # Degrade to the reference pass below rather than abort the
            # run; the kernel is quarantined (and warned about) once.
            quarantine_kernel(active_backend(), "majority_winners", exc)
    # Dtype-widening guard: occurrence counts reach h, so int8 scratch
    # is only safe while h fits int8.  At h > 127 the counts would wrap
    # negative and argmax would silently crown a minority label, so the
    # scratch MUST widen with h (regression-tested at h = 130).
    if h <= np.iinfo(np.int8).max:
        count_dtype: type = np.int8
    elif h <= np.iinfo(np.int16).max:
        count_dtype = np.int16
    else:
        count_dtype = np.int32
    occurrence = np.zeros((n, h), dtype=count_dtype)
    for a in range(h):
        for b in range(h):
            occurrence[:, a] += samples[:, a] == samples[:, b]
    # Uniform tie-break: jitter each position by U(0,1) and take argmax.
    # Ties between positions of the *same* label are harmless.
    jitter = rng.random((n, h))
    winner_pos = np.argmax(occurrence + jitter, axis=1)
    return samples[np.arange(n), winner_pos]


def _read_only(array: np.ndarray) -> np.ndarray:
    # Cached tables are shared by every caller.
    array.setflags(write=False)
    return array


@lru_cache(maxsize=None)
def _gauss_legendre(num_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss–Legendre nodes and weights on ``[0, 1]``."""
    nodes, weights = np.polynomial.legendre.leggauss(num_nodes)
    return _read_only((nodes + 1.0) / 2.0), _read_only(weights / 2.0)


@lru_cache(maxsize=None)
def _binomials(size: int) -> np.ndarray:
    """``table[c, s] = C(c, s)`` for ``0 <= s <= c < size`` (else 0)."""
    table = np.zeros((size, size))
    table[:, 0] = 1.0
    for c in range(1, size):
        table[c, 1:] = table[c - 1, 1:] + table[c - 1, :-1]
    return _read_only(table)


def _egf_product(
    a: np.ndarray, b: np.ndarray, degree: int, binom: np.ndarray
) -> np.ndarray:
    """Product of two EGF-normalised polynomials, truncated at ``degree``.

    Coefficients live on the last axis (leading axes broadcast) and are
    stored as ``c! [y^c]``, so the product is the binomial convolution
    ``out[c] = sum_s C(c, s) a[s] b[c - s]``.  Everything is
    nonnegative, so there is no cancellation.  The loop runs over the
    shorter factor's coefficients, one array slice at a time.
    """
    if a.shape[-1] > b.shape[-1]:
        a, b = b, a
    width = min(a.shape[-1] + b.shape[-1] - 1, degree + 1)
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (width,)
    out = np.zeros(shape)
    for s in range(min(a.shape[-1], width)):
        span = min(b.shape[-1], width - s)
        out[..., s:s + span] += (
            a[..., s:s + 1] * b[..., :span] * binom[s:s + span, s]
        )
    return out


def _capped_rival_mass(
    powers: np.ndarray, m: int, degree: int, binom: np.ndarray
) -> np.ndarray:
    """``∫₀¹ degree! [y^degree] ∏_{j≠i} g_j(y, u) du`` for every label i.

    ``g_j = sum_{c<m} (α_j y)^c/c! + u (α_j y)^m/m!`` is rival ``j``'s
    EGF when it may hold at most ``m`` of the remaining ``degree``
    samples, with ``u`` marking a tie at ``m``.  ``powers[r, j, c]`` is
    ``α_j^c``.  Leave-one-out products come from a padded product tree
    over labels (up pass, then down pass), vectorised over rows and
    quadrature nodes.  At most ``degree // m`` rivals can tie, so the
    integrand has that degree in ``u`` and the quadrature is exact.
    """
    num_rows, k = powers.shape[:2]
    ties = min(degree // m, k - 1)
    nodes, weights = _gauss_legendre(ties // 2 + 1)
    leaves = 1 << (k - 1).bit_length()
    leaf = np.zeros((nodes.size, num_rows, leaves, m + 1))
    leaf[:, :, :k, :m] = powers[:, :, :m]
    leaf[:, :, :k, m] = nodes[:, None, None] * powers[:, :, m]
    leaf[:, :, k:, 0] = 1.0  # padding leaves are the empty product
    levels = [leaf]
    while levels[-1].shape[2] > 1:
        level = levels[-1]
        levels.append(
            _egf_product(level[:, :, 0::2], level[:, :, 1::2], degree, binom)
        )
    # Down pass: the product over everything outside each node's subtree.
    outside = np.ones((nodes.size, num_rows, 1, 1))
    for children in reversed(levels[1:-1]):
        siblings = children.reshape(
            children.shape[:2] + (-1, 2, children.shape[-1])
        )[..., ::-1, :]
        outside = _egf_product(
            outside[:, :, :, None, :], siblings, degree, binom
        ).reshape(nodes.size, num_rows, children.shape[2], -1)
    # Leaf level: only coefficient ``degree`` of outside × sibling.
    padded = np.zeros(outside.shape[:3] + (degree + 1,))
    padded[..., :outside.shape[-1]] = outside
    siblings = leaf.reshape(leaf.shape[:2] + (-1, 2, m + 1))[..., ::-1, :]
    coefficient = np.einsum(
        "qrnpt,qrnt,t->qrnp",
        siblings,
        padded[..., degree - m:][..., ::-1],
        binom[degree, :m + 1],
    ).reshape(nodes.size, num_rows, leaves)
    return np.tensordot(weights, coefficient[:, :, :k], axes=1)


def hmajority_law(alpha: np.ndarray, h: int) -> np.ndarray:
    """Exact majority-of-h next-opinion law, row-wise.

    ``alpha`` is one opinion-fraction vector ``(k,)`` or a matrix
    ``(R, k)`` of them; the result has the same shape.  Label ``i``
    wins when it holds ``m`` of the ``h`` samples, every rival holds at
    most ``m``, and the uniform tie-break among the ``T`` rivals at
    ``m`` picks ``i``.  With ``E[1/(1+T)] = ∫₀¹ u^T du``,

        P(i wins) = Σₘ C(h, m) αᵢᵐ ∫₀¹ (h-m)! [y^(h-m)]
                    ∏_{j≠i} (Σ_{c<m} (αⱼy)ᶜ/c! + u (αⱼy)ᵐ/m!) du.

    When ``m > h - m`` no rival can reach ``m`` and the inner term is
    ``(1 - αᵢ)^(h-m)``; otherwise :func:`_capped_rival_mass` evaluates
    it.  Labels dead in every row are dropped first.  Python loops run
    over ``m``, tree levels and coefficient slices only, never over
    rows or labels.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    rows = np.atleast_2d(alpha)
    live = np.flatnonzero(rows.any(axis=0))
    x = rows[:, live]
    k = live.size
    rest = np.clip(x.sum(axis=1, keepdims=True) - x, 0.0, None)
    powers = x[..., None] ** np.arange(h // 2 + 1)
    binom = _binomials(h)
    live_law = np.zeros_like(x)
    # The winner holds at least ceil(h / k) of the h samples.
    for m in range(max(1, -(-h // max(k, 1))), h + 1):
        degree = h - m
        if m > degree:
            inner = rest**degree
        else:
            inner = _capped_rival_mass(powers, m, degree, binom)
        live_law += comb(h, m) * x**m * inner
    law = np.zeros_like(rows)
    law[:, live] = live_law
    return law.reshape(alpha.shape)


class HMajority(Dynamics):
    """Majority-of-h dynamics with uniform random tie-breaking.

    Parameters
    ----------
    h:
        Neighbour samples per vertex per round.
    """

    def __init__(self, h: int) -> None:
        if h < 1:
            raise ValueError(f"h must be at least 1, got {h}")
        self.h = int(h)
        self.name = f"{self.h}-majority(sampled)"
        self.samples_per_round = self.h

    def population_step(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        alive = np.flatnonzero(counts)
        if alive.size == 1:
            return counts.copy()
        n = int(counts.sum())
        law = hmajority_law(counts[alive] / n, self.h)
        new_counts = np.zeros_like(counts)
        new_counts[alive] = multinomial_counts(n, law, rng, self.name)
        return new_counts

    def population_step_batch(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """All R replicas in one multinomial call from the exact law.

        Rows may have different masses; consensus rows are fixed points
        of the law (the winner has probability 1).
        """
        counts = np.asarray(counts, dtype=np.int64)
        totals = counts.sum(axis=1)
        law = hmajority_law(counts / totals[:, None], self.h)
        return batch_multinomial_counts(totals, law, rng, self.name)

    def agent_step(
        self,
        opinions: np.ndarray,
        graph: Graph,
        rng: np.random.Generator,
    ) -> np.ndarray:
        samples = opinions[graph.sample_neighbors(rng, self.h)]
        return majority_winners(samples, rng)

    def async_jump_batch(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Jump law of one asynchronous tick across all R rows.

        The next opinion is drawn from :func:`hmajority_law`, whatever
        the current one, so a tick moves ``m -> j`` with probability
        ``alpha_m law_j`` for ``j != m``.
        """
        counts = np.asarray(counts, dtype=np.int64)
        alpha = counts / counts.sum(axis=1)[:, None]
        return jump_from_product(
            alpha, hmajority_law(alpha, self.h), 1.0, rng
        )

    def single_vertex_law(
        self, alpha: np.ndarray, current_opinion: int
    ) -> np.ndarray:
        """Exact majority-of-h law (:func:`hmajority_law`).

        The law does not depend on the vertex's current opinion.
        """
        return hmajority_law(alpha, self.h)

    def expected_alpha_next(self, alpha: np.ndarray) -> np.ndarray:
        """Exact mean: the next fractions' mean is the per-vertex law."""
        return hmajority_law(alpha, self.h)
