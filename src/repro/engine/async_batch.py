"""Vectorised asynchronous batch engine: R async chains as a jump chain.

The [CMRSS25] asynchronous model updates one uniformly random vertex per
tick, and most ticks change nothing: the vertex re-samples the opinion
it already holds.  This engine runs the *embedded jump chain* instead
(cf. Gillespie 1977, *J. Phys. Chem.* 81:2340).  From a configuration
with change probability ``p`` per tick, the number of ticks up to and
including the next change is Geometric(``p``), and the change itself is
a draw from the tick's law conditioned on a change — both from the
dynamics' :meth:`~repro.core.base.Dynamics.async_jump_batch`.  Every
replica row keeps its own tick clock, and one loop iteration makes one
jump for every row still below the current horizon, as one vectorised
call over the ``(R, k)`` count matrix.

Stopping a row at a horizon ``T`` is exact: a holding time that
overshoots ``T`` says only that no change happens up to ``T``, and the
geometric law is memoryless, so the row resumes at ``T`` with a fresh
draw.  :meth:`~AsyncBatchPopulationEngine.step` sets ``T`` one tick
ahead (a geometric truncated at one tick is Bernoulli(``p``): one tick
of the plain chain); :meth:`~AsyncBatchPopulationEngine.run_ticks` and
:meth:`~AsyncBatchPopulationEngine.run_until_consensus` set longer
horizons and skip every null tick in between.

Each row is the same Markov chain a single
:class:`~repro.engine.asynchronous.AsyncPopulationEngine` runs (the
tests check the one-tick law exactly and consensus ticks via KS tests),
but all rows share one generator, so a batch run is equal to R seeded
sequential runs in distribution, not in realisation.

Only a jump can bring a row to consensus, and only when its destination
label then holds all ``n`` vertices, so the stopping check gathers one
entry per moved row before the dynamics' own convention confirms it.
Rows freeze at the tick of that jump, kept by the shared
:class:`~repro.engine.replica_loop.ReplicaLoop`.  An optional F-bounded
adversary corrupts every active row once per synchronous-equivalent
round (after every ``n``-th tick's update — the same [GL18] budget
translation as the sequential asynchronous engine): each multiple of
``n`` is also a horizon, where the rows wait for each other and then
take one checked vectorised ``corrupt_batch``.
"""

from __future__ import annotations

import math
import numpy as np

from repro.adversary.base import Adversary
from repro.backends import use_backend
from repro.core.base import Dynamics
from repro.engine.registry import register_engine
from repro.engine.replica_loop import (
    RecordHook,
    ReplicaLoop,
    counter_alias,
    replica_counts,
    run_for_spec,
)
from repro.engine.runner import RunResult
from repro.errors import ConfigurationError
from repro.seeding import RandomState

__all__ = ["AsyncBatchPopulationEngine"]

#: Stand-in for a zero change probability in the holding-time draw:
#: its holding time (over 1e280 ticks) overshoots any horizon.
_TINY = 1e-300


class AsyncBatchPopulationEngine(ReplicaLoop):
    """Advance R asynchronous chains as one count matrix, jump by jump.

    Parameters
    ----------
    dynamics:
        Any :class:`~repro.core.base.Dynamics` with asynchronous
        support.  Every catalogued dynamics runs fully vectorised via
        its ``async_jump_batch`` override; third-party dynamics fall
        back to the base class's per-row law built from
        ``single_vertex_law`` (correct, no speedup).
    counts:
        Either a 1-D count vector shared by every replica, or an
        ``(R, k)`` matrix giving each replica its own start (same
        shapes as :class:`~repro.engine.batch.BatchPopulationEngine`).
    num_replicas:
        Number of replicas R (required with a 1-D ``counts``).
    seed:
        Anything accepted by :func:`repro.seeding.as_generator`.  One
        stream drives all replicas.
    adversary:
        Optional F-bounded :class:`~repro.adversary.base.Adversary`
        corrupting every active row after each synchronous-equivalent
        round (every ``n`` ticks) via ``corrupt_batch``
        (contract-checked per row).
    backend:
        Optional compute backend pinned for this engine's steps (name,
        instance, or ``None``/``"auto"`` to inherit the ambient backend
        — see :mod:`repro.backends`); a pure performance knob that
        never changes the sampled law.
    record_hook:
        Optional observation callback ``hook(tick_index, counts,
        frozen)`` invoked after every :meth:`step` with the engine's
        own state.  Costs nothing when ``None``; used by
        :mod:`repro.invariants` to record traces.

    Attributes
    ----------
    counts:
        The ``(R, k)`` configuration matrix (owned by the engine).
    tick_index:
        Asynchronous ticks executed so far: between calls, the tick
        every unfinished row has reached.
    frozen:
        Boolean ``(R,)`` mask of replicas that reached consensus.
    consensus_ticks:
        Int ``(R,)`` array of per-replica stopping ticks (-1 while
        unfinished).
    """

    step_unit = "tick"

    def __init__(
        self,
        dynamics: Dynamics,
        counts: np.ndarray,
        num_replicas: int | None = None,
        seed: RandomState = None,
        adversary: Adversary | None = None,
        backend: str | None = None,
        record_hook: RecordHook | None = None,
    ) -> None:
        super().__init__(dynamics, seed, adversary, None, backend, record_hook)
        self.counts = replica_counts(counts, num_replicas)
        self.num_opinions = int(self.counts.shape[1])
        self.num_vertices = int(self.counts[0].sum())
        self._start(self.counts)
        self._active = np.flatnonzero(~self.frozen)
        self._clock = np.zeros(self.num_replicas, dtype=np.int64)
        # The tick the current run aims for; step() on its own aims
        # one tick past tick_index.
        self._horizon = 0

    tick_index = counter_alias(
        "_steps", "Asynchronous ticks executed so far (all replicas)."
    )
    consensus_ticks = counter_alias(
        "_stop_step", "Per-replica stopping ticks (-1 while unfinished)."
    )

    def step(self) -> np.ndarray:
        """Make one jump for every unfinished row below the horizon.

        Called on its own the horizon is ``tick_index + 1``, so this
        executes exactly one asynchronous tick on every unfinished row:
        a row changes with probability ``p_change`` (a geometric
        holding time truncated at one tick).  Within :meth:`run_ticks`
        and :meth:`run_until_consensus` it is one iteration of the jump
        chain: each row below the horizon draws its holding time and,
        if the change falls within the horizon, applies it at that
        tick; otherwise the row moves to the horizon unchanged.

        With an adversary, each multiple of ``n`` is a horizon too;
        once every active row has reached it, they are corrupted
        (checked) after that tick's update.  Rows whose jump reaches
        the dynamics' consensus freeze at the jump's tick — rows
        landing on a corruption tick are checked after the corruption,
        matching the sequential adversarial chain.  Frozen rows are
        never sampled or corrupted again.
        """
        n = self.num_vertices
        horizon = max(self._horizon, self._steps + 1)
        stop = horizon
        if self.adversary is not None:
            stop = min(stop, (self._steps // n + 1) * n)
        # Every unfrozen row draws a jump; rows already at the horizon
        # (waiting for the others at a corruption tick) have a gap of
        # zero, so theirs never lands.
        rows = self._active
        if rows.size == 0:
            # Every row is frozen: time passes, nothing else happens.
            self._steps = horizon
            self._record()
            return self.counts
        with use_backend(self.backend):
            p_change, old, new = self.dynamics.async_jump_batch(
                self.counts[rows], self.rng
            )
        # Holding time H = floor(log(U) / log(1 - p)) + 1 with U uniform
        # is Geometric(p); the change lands within the horizon iff
        # H <= gap, i.e. floor(...) < gap.  A row with p = 0 gets a
        # holding time beyond 1e280 ticks, so it never changes.
        hold = np.floor(
            np.log(self.rng.random(rows.size))
            / np.log1p(-np.maximum(p_change, _TINY))
        )
        clock = self._clock[rows]
        jumped = hold < stop - clock
        clock = np.minimum(clock + hold + 1, stop)
        self._clock[rows] = clock
        self.counts[rows, old] -= jumped
        landed = self.counts[rows, new] + jumped
        self.counts[rows, new] = landed
        # Only a jump can complete a consensus; one landing on a
        # corruption tick is checked after the corruption instead.
        hit = jumped & (landed == n)
        if self.adversary is not None:
            hit &= clock % n != 0
        if hit.any():
            self._confirm(rows[hit])
        if self.adversary is not None and stop % n == 0:
            active = self._active
            if active.size and (self._clock[active] == stop).all():
                self.counts[active] = self._corrupt(self.counts[active])
                self._confirm(
                    active[self.counts[active].max(axis=1) == n]
                )
        if self._active is not rows:
            # Rows froze: the clock of the slowest remaining one counts.
            clock = self._clock[self._active]
        self._steps = (
            int(clock.min())
            if clock.size
            else max(self._steps, int(self._stop_step.max()))
        )
        self._record()
        return self.counts

    def _confirm(self, rows: np.ndarray) -> None:
        """Freeze those of ``rows`` (one label holds everything) that
        are at consensus under the dynamics' own convention, at their
        own tick.  For Undecided-State an all-undecided row never
        freezes (it surfaces as censored), exactly like the sequential
        async engine."""
        done = rows[
            np.asarray(
                self.dynamics.consensus_mask_batch(self.counts[rows]),
                dtype=bool,
            )
        ]
        if done.size:
            self._freeze(done, self._clock[done])
            self._active = np.flatnonzero(~self.frozen)

    def run_ticks(self, ticks: int) -> np.ndarray:
        """Execute exactly ``ticks`` ticks (finished rows stay frozen)."""
        if ticks < 0:
            raise ConfigurationError(
                f"ticks must be non-negative, got {ticks}"
            )
        self._horizon = self._steps + ticks
        try:
            while self._steps < self._horizon:
                self.step()
        finally:
            self._horizon = 0
        return self.counts

    def run_until_consensus(self, max_ticks: int) -> list[RunResult]:
        """Jump until every replica froze or ``max_ticks`` ticks passed.

        Censored rows report ``max_ticks`` ticks, as with tick-by-tick
        stepping.  Returns :meth:`results`.
        """
        self._horizon = max_ticks
        try:
            return super().run_until_consensus(max_ticks)
        finally:
            self._horizon = 0

    def _units(self, ticks: int) -> dict:
        """``rounds`` is the synchronous-equivalent ``ceil(ticks / n)``
        (the convention of the sequential ``async`` registry adapter, so
        batched and sequential measurements aggregate in the same
        units), with the raw tick count in ``metrics["ticks"]``."""
        return {
            "rounds": int(math.ceil(ticks / self.num_vertices)),
            "metrics": {"ticks": ticks},
        }

    @property
    def round_index(self) -> float:
        """Synchronous-equivalent rounds elapsed (= ticks / n)."""
        return self._steps / self.num_vertices

    @property
    def consensus_rounds(self) -> np.ndarray:
        """Per-replica stopping times in whole synchronous-equivalent
        rounds (``consensus_ticks // n``; -1 while unfinished)."""
        return np.where(
            self.frozen,
            self._stop_step // self.num_vertices,
            -1,
        ).astype(np.int64)


def _run_spec(spec) -> list[RunResult]:
    """Registry adapter: all R asynchronous replicas in one engine.

    The spec's round budget is interpreted as ``max_rounds * n`` ticks,
    like the sequential ``async`` adapter.
    """
    engine = AsyncBatchPopulationEngine(
        spec.resolved_dynamics(),
        spec.initial_counts(),
        num_replicas=spec.replicas,
        seed=spec.seed,
        adversary=spec.resolved_adversary(),
        backend=getattr(spec, "backend", None),
    )
    return run_for_spec(engine, spec, spec.round_budget() * spec.n)


register_engine(
    "async-batch",
    _run_spec,
    description=(
        "R one-vertex-per-tick chains run as one jump chain over an "
        "(R, k) count matrix, skipping ticks that change nothing"
    ),
    supports_target=False,
    supports_observers=False,
    supports_adversary=True,
)
