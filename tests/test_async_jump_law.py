"""One-tick conformance of the asynchronous jump law.

:class:`~repro.engine.async_batch.AsyncBatchPopulationEngine` samples
every asynchronous tick through ``Dynamics.async_jump_batch``: the
probability ``p_change`` that a tick changes a row, and one draw of the
move ``(old, new)`` conditioned on a change.  The closed form of both
is ``P[old = m, new = j] = alpha_m * single_vertex_law(alpha, m)_j``
for ``j != m``.  This module checks, for every catalogue dynamics:

* **exactly** — ``p_change`` and the conditioned joint law equal the
  closed form to 1e-12.  The law is read off the sampler itself: the
  draws are inverse CDFs of uniforms from ``rng.random``, so scripting
  those uniforms and bisecting for the points where the output changes
  gives each outcome's probability as a product of interval lengths;
* **statistically** — a fixed-seed G-test of sampled ``(old, new)``
  pairs, with its power stated and two deliberately wrong laws that
  must fail it;
* **in the engine** — the first change under repeated ``step()`` comes
  after a Geometric(``p_change``) number of ticks, ``run_ticks(T)``
  leaves every unfrozen row at exactly tick ``T``, and a run of long
  jumps agrees in distribution with tick-by-tick stepping (also with an
  adversary).
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import chi2, ks_2samp, ncx2

from repro.adversary import SupportRunnerUp
from repro.configs import balanced
from repro.core import (
    Dynamics,
    HMajority,
    MedianRule,
    ThreeMajority,
    TwoChoices,
    UndecidedStateDynamics,
    Voter,
)
from repro.core.base import weighted_index
from repro.engine import AsyncBatchPopulationEngine

CATALOGUE = [
    ThreeMajority(),
    TwoChoices(),
    HMajority(5),
    Voter(),
    MedianRule(),
    UndecidedStateDynamics(),
]
IDS = [
    "3-majority", "2-choices", "5-majority", "voter", "median",
    "undecided",
]

#: Count matrices with dead labels, near-consensus rows and (for
#: Undecided-State, whose last label is the undecided slot) rows with
#: and without undecided vertices.
MATRICES = [
    np.asarray([[3, 0, 2, 5]]),
    np.asarray([[5, 3, 0, 2], [0, 0, 7, 3], [1, 2, 3, 4]]),
    np.asarray([[9, 1, 0], [0, 5, 5]]),
]

#: The G-test row, its sample size and level.
G_ROW = np.asarray([5, 3, 0, 2])
G_DRAWS = 20_000
G_LEVEL = 1e-3


def closed_form(dynamics, row):
    """``(p_change, conditioned joint law)`` from ``single_vertex_law``."""
    alpha = row / row.sum()
    joint = np.zeros((row.size, row.size))
    for m in np.flatnonzero(row):
        joint[m] = alpha[m] * dynamics.single_vertex_law(alpha, int(m))
    np.fill_diagonal(joint, 0.0)
    p_change = joint.sum()
    return p_change, joint / p_change if p_change else joint


class _ScriptedUniforms:
    """Generator stand-in whose ``random`` returns scripted uniforms.

    Stage ``s`` of row ``target`` gets ``coords[s]``; every other entry
    gets 0.5, so the other rows still run through the sampler.
    """

    def __init__(self, coords, target: int) -> None:
        self.coords = coords
        self.target = target
        self.stage = 0

    def random(self, size):
        shape = (size,) if np.ndim(size) == 0 else tuple(size)
        out = np.full(shape, 0.5).reshape(-1, shape[-1])
        for block in out:
            block[self.target] = self.coords[self.stage]
            self.stage += 1
        return out.reshape(shape)


def _segments(outcome, tol=1e-15):
    """Maximal intervals of [0, 1) on which ``outcome(u)`` is constant.

    ``outcome`` must be monotone (lexicographically) in ``u``, as an
    inverse CDF is, so each value occupies one interval; its ends are
    found by bisection to ``tol``.
    """
    top = np.nextafter(1.0, 0.0)
    lo, value, out = 0.0, outcome(0.0), []
    while outcome(top) != value:
        a, b = lo, top
        while b - a > tol:
            mid = 0.5 * (a + b)
            if outcome(mid) == value:
                a = mid
            else:
                b = mid
        out.append((b - lo, value))
        lo, value = b, outcome(b)
    out.append((1.0 - lo, value))
    return out


def probed_law(dynamics, counts, row):
    """``(p_change, conditioned joint law)`` of one row, read off the
    sampler with scripted uniforms (see the module docstring)."""

    def draw(u0, u1):
        stub = _ScriptedUniforms((u0, u1), row)
        p_change, old, new = dynamics.async_jump_batch(counts.copy(), stub)
        assert stub.stage <= 2, "more than two categorical stages"
        return float(p_change[row]), (int(old[row]), int(new[row]))

    k = counts.shape[1]
    law = np.zeros((k, k))
    start = 0.0
    for width, _ in _segments(lambda u: draw(u, 0.5)[1]):
        # Within one first-stage interval the second stage sees the same
        # conditional law, so probe it at the interval's middle.
        middle = start + 0.5 * width
        for inner, pair in _segments(lambda u: draw(middle, u)[1]):
            law[pair] += width * inner
        start += width
    return draw(0.5, 0.5)[0], law


@pytest.mark.parametrize("dynamics", CATALOGUE, ids=IDS)
@pytest.mark.parametrize("matrix", range(len(MATRICES)))
def test_jump_law_matches_closed_form(dynamics, matrix):
    counts = MATRICES[matrix]
    for row in range(counts.shape[0]):
        p_change, law = probed_law(dynamics, counts, row)
        expected_p, expected_law = closed_form(dynamics, counts[row])
        assert abs(p_change - expected_p) < 1e-12
        if expected_p > 0:
            assert np.abs(law - expected_law).max() < 1e-12
            assert np.diag(law).max() == 0.0


class _RowLoopMedian(MedianRule):
    """Median with the base class's jump law (built row by row from
    ``single_vertex_law``), the path third-party dynamics take."""

    async_jump_batch = Dynamics.async_jump_batch


def test_base_class_jump_law_matches_closed_form():
    counts = MATRICES[1]
    for row in range(counts.shape[0]):
        p_change, law = probed_law(_RowLoopMedian(), counts, row)
        expected_p, expected_law = closed_form(MedianRule(), counts[row])
        assert abs(p_change - expected_p) < 1e-12
        assert np.abs(law - expected_law).max() < 1e-12


def test_absorbing_rows_never_change():
    """A consensus row, and an all-undecided USD row, have p = 0."""
    rng = np.random.default_rng(0)
    consensus = np.asarray([[0, 10, 0]])
    for dynamics in CATALOGUE[:5]:
        assert dynamics.async_jump_batch(consensus, rng)[0][0] == 0.0
    undecided = np.asarray([[0, 0, 10], [10, 0, 0]])
    p_change = UndecidedStateDynamics().async_jump_batch(undecided, rng)[0]
    assert p_change.tolist() == [0.0, 0.0]


def test_single_tick_step_is_derived_from_the_jump_law():
    """``async_population_step_batch`` moves a row with probability
    ``p_change`` (binomial 6-sigma band) and by one vertex."""
    replicas = 20_000
    for dynamics in CATALOGUE:
        counts = np.tile(G_ROW, (replicas, 1))
        after = dynamics.async_population_step_batch(
            counts.copy(), np.random.default_rng(4)
        )
        moved = np.abs(after - counts).sum(axis=1)
        assert set(np.unique(moved)) <= {0, 2}
        p_change = closed_form(dynamics, G_ROW)[0]
        spread = 6 * np.sqrt(replicas * p_change * (1 - p_change))
        assert abs((moved == 2).sum() - replicas * p_change) < spread


# ---------------------------------------------------------------------
# G-test of sampled pairs, and two wrong laws it must reject
# ---------------------------------------------------------------------


class _UnzeroedThreeMajority(ThreeMajority):
    """3-Majority whose ``new`` may redraw ``old`` (``q_old`` kept)."""

    def async_jump_batch(self, counts, rng):
        alpha = counts / counts.sum(axis=1)[:, None]
        gamma = (alpha * alpha).sum(axis=1)[:, None]
        law = alpha * (1.0 + alpha - gamma)
        u = rng.random((2, counts.shape[0]))
        old, p_change = weighted_index(alpha * (1.0 - law), u[0])
        return p_change, old, weighted_index(law, u[1])[0]


class _PopularityTwoChoices(TwoChoices):
    """2-Choices drawing ``old ∝ alpha_m * gamma`` (any vertex alike)."""

    def async_jump_batch(self, counts, rng):
        alpha = counts / counts.sum(axis=1)[:, None]
        square = alpha * alpha
        gamma = square.sum(axis=1)[:, None]
        u = rng.random((2, counts.shape[0]))
        old, _ = weighted_index(alpha * gamma, u[0])
        p_change = (alpha * (gamma - square)).sum(axis=1)
        square[np.arange(counts.shape[0]), old] = 0.0
        return p_change, old, weighted_index(square, u[1])[0]


def _g_test_pvalue(observed, law):
    """G-test p-value; an observation in an impossible cell gives 0."""
    if observed[law == 0].any():
        return 0.0
    cells = law > 0
    o, e = observed[cells], observed.sum() * law[cells]
    seen = o > 0
    g = 2.0 * np.sum(o[seen] * np.log(o[seen] / e[seen]))
    return float(chi2.sf(g, df=cells.sum() - 1))


def _sampled_pairs(dynamics, seed):
    counts = np.tile(G_ROW, (G_DRAWS, 1))
    _, old, new = dynamics.async_jump_batch(
        counts, np.random.default_rng(seed)
    )
    return np.bincount(
        old * G_ROW.size + new, minlength=G_ROW.size**2
    ).reshape(G_ROW.size, G_ROW.size)


def _power(law, alternative):
    """Power of the level-``G_LEVEL`` G-test on ``G_DRAWS`` pairs against
    ``alternative`` (noncentral chi-square, ``λ = 2 N KL``)."""
    cells = law > 0
    q, p = alternative[cells], law[cells]
    kl = np.sum(q[q > 0] * np.log(q[q > 0] / p[q > 0]))
    df = cells.sum() - 1
    return float(ncx2.sf(chi2.isf(G_LEVEL, df), df, 2 * G_DRAWS * kl))


@pytest.mark.parametrize("dynamics", CATALOGUE, ids=IDS)
def test_g_test_of_sampled_pairs(dynamics):
    """20,000 pairs at level 1e-3: power ≥ 0.99 against moving 3% of
    the conditioned mass from the likeliest move to the next one."""
    _, law = closed_form(dynamics, G_ROW)
    order = np.argsort(law, axis=None)[::-1]
    shifted = law.copy().reshape(-1)
    shifted[order[0]] -= 0.03
    shifted[order[1]] += 0.03
    assert _power(law, shifted.reshape(law.shape)) >= 0.99
    assert _g_test_pvalue(_sampled_pairs(dynamics, 7), law) > G_LEVEL


@pytest.mark.parametrize(
    "mutant, reference",
    [
        (_UnzeroedThreeMajority(), ThreeMajority()),
        (_PopularityTwoChoices(), TwoChoices()),
    ],
    ids=["3-majority-q-old-kept", "2-choices-old-by-popularity"],
)
def test_g_test_rejects_wrong_laws(mutant, reference):
    _, law = closed_form(reference, G_ROW)
    if isinstance(mutant, _PopularityTwoChoices):
        _, wrong = probed_law(mutant, G_ROW[None, :], 0)
        assert _power(law, wrong) >= 0.99
    assert _g_test_pvalue(_sampled_pairs(mutant, 7), law) < G_LEVEL


# ---------------------------------------------------------------------
# The engine: holding times, horizons, long runs vs single ticks
# ---------------------------------------------------------------------


@pytest.mark.parametrize("dynamics", CATALOGUE, ids=IDS)
def test_first_change_tick_is_geometric(dynamics):
    replicas = 4000
    p_change = closed_form(dynamics, G_ROW)[0]
    engine = AsyncBatchPopulationEngine(
        dynamics, G_ROW, num_replicas=replicas, seed=3
    )
    first = np.zeros(replicas, dtype=np.int64)
    while (first == 0).any():
        engine.step()
        assert (engine._clock[~engine.frozen] == engine.tick_index).all()
        changed = (engine.counts != G_ROW).any(axis=1) & (first == 0)
        first[changed] = engine.tick_index
    # Bins 1..B with expected count >= 5 each, plus the tail beyond B.
    pmf = p_change * (1 - p_change) ** np.arange(200)
    bins = int(np.flatnonzero(replicas * pmf >= 5)[-1]) + 1
    law = np.append(pmf[:bins], 1.0 - pmf[:bins].sum())
    observed = np.bincount(
        np.minimum(first, bins + 1) - 1, minlength=bins + 1
    )
    assert _g_test_pvalue(observed, law) > G_LEVEL


@pytest.mark.parametrize("adversary", [None, SupportRunnerUp(1)])
@pytest.mark.parametrize("dynamics", CATALOGUE, ids=IDS)
def test_run_ticks_parks_every_unfrozen_row_at_the_horizon(
    dynamics, adversary
):
    engine = AsyncBatchPopulationEngine(
        dynamics, np.asarray([6, 3, 1, 2]), num_replicas=16, seed=5,
        adversary=adversary,
    )
    for horizon in (7, 12, 37, 60):
        engine.run_ticks(horizon - engine.tick_index)
        assert engine.tick_index == horizon
        assert (engine._clock[~engine.frozen] == horizon).all()
        stopped = engine.consensus_ticks[engine.frozen]
        assert (engine._clock[engine.frozen] == stopped).all()
        assert (stopped <= horizon).all()
    engine.step()
    assert engine.tick_index == 61


def _configuration_keys(counts):
    return counts @ (13 ** np.arange(counts.shape[1]))


@pytest.mark.parametrize(
    "dynamics", [ThreeMajority(), TwoChoices(), UndecidedStateDynamics()],
    ids=["3-majority", "2-choices", "undecided"],
)
def test_long_jumps_match_single_ticks(dynamics):
    """Configurations after 40 ticks: one ``run_ticks(40)`` (long jumps
    cut at the horizon) against 40 calls to ``step()``."""
    start = np.asarray([4, 3, 2, 3])
    jumped = AsyncBatchPopulationEngine(
        dynamics, start, num_replicas=3000, seed=1
    )
    jumped.run_ticks(40)
    ticked = AsyncBatchPopulationEngine(
        dynamics, start, num_replicas=3000, seed=2
    )
    for _ in range(40):
        ticked.step()
    assert ks_2samp(
        _configuration_keys(jumped.counts),
        _configuration_keys(ticked.counts),
    ).pvalue > G_LEVEL


def test_adversarial_long_jumps_match_single_ticks():
    """Consensus ticks under a runner-up adversary: the jump run (which
    stops every row at each corruption tick) against tick stepping."""

    def engine(seed):
        return AsyncBatchPopulationEngine(
            ThreeMajority(), balanced(20, 2), num_replicas=400, seed=seed,
            adversary=SupportRunnerUp(1),
        )

    jumped = engine(1)
    jumped.run_until_consensus(10**7)
    ticked = engine(2)
    while not ticked.all_consensus():
        ticked.step()
    assert jumped.all_consensus()
    # The run ends at the tick the last row froze, jumps or no jumps.
    for run in (jumped, ticked):
        assert run.tick_index == run.consensus_ticks.max()
    assert ks_2samp(
        jumped.consensus_ticks, ticked.consensus_ticks
    ).pvalue > G_LEVEL
