"""Vectorised asynchronous batch engine: R async chains in lockstep.

The [CMRSS25] asynchronous model updates one uniformly random vertex per
tick, so ticks are inherently sequential *in time* — the law changes
after every tick and there is nothing to vectorise within one chain.
What *can* be vectorised is replication: R independent asynchronous
chains advanced tick-by-tick in lockstep as one ``(R, k)`` count matrix,
with each tick's single-vertex update sampled across every active row
in one call to the dynamics' ``async_population_step_batch``.  A
``replicate``-style asynchronous workload then costs one vectorised
Python loop over ticks instead of R sequential ones — the same
replica-axis trick as :class:`~repro.engine.batch.BatchPopulationEngine`
applied to the paper's sync-vs-async ``~O(min(kn, n^{3/2}))``
comparison (``benchmarks/bench_async_batch.py`` tracks the speedup).

Each row is the same Markov chain a single
:class:`~repro.engine.asynchronous.AsyncPopulationEngine` runs (the
tests check distributional agreement via KS tests), but all rows share
one generator, so a batch run is equal to R seeded sequential runs in
distribution, not in realisation.

Rows are frozen the tick they reach the dynamics' consensus, with the
stopping tick kept by the shared
:class:`~repro.engine.replica_loop.ReplicaLoop`; the check is gated by
the cheap one-opinion-holds-all filter, so its per-tick cost is one
row-wise max.  An optional F-bounded
adversary corrupts every active row once per synchronous-equivalent
round (after every ``n`` ticks — the same [GL18] budget translation as
the sequential asynchronous engine) through the vectorised
``corrupt_batch`` contract path.
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


class AsyncBatchPopulationEngine(ReplicaLoop):
    """Advance R asynchronous chains tick-by-tick as one count matrix.

    Parameters
    ----------
    dynamics:
        Any :class:`~repro.core.base.Dynamics` with asynchronous
        support.  Every catalogued dynamics runs fully vectorised via
        its ``async_population_step_batch`` override; third-party
        dynamics without one fall back to a per-row loop over
        ``async_population_step`` (correct, no speedup).
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
        Optional compute backend pinned for this engine's ticks (name,
        instance, or ``None``/``"auto"`` to inherit the ambient backend
        — see :mod:`repro.backends`); a pure performance knob that
        never changes the sampled law.
    record_hook:
        Optional observation callback ``hook(tick_index, counts,
        frozen)`` invoked after every :meth:`step` (i.e. per tick) with
        the engine's own state.  Costs nothing when ``None``; used by
        :mod:`repro.invariants` to record traces.

    Attributes
    ----------
    counts:
        The ``(R, k)`` configuration matrix (owned by the engine).
    tick_index:
        Asynchronous ticks executed so far (shared by all replicas).
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

    tick_index = counter_alias(
        "_steps", "Asynchronous ticks executed so far (all replicas)."
    )
    consensus_ticks = counter_alias(
        "_stop_step", "Per-replica stopping ticks (-1 while unfinished)."
    )

    def step(self) -> np.ndarray:
        """Execute one asynchronous tick on every unfinished replica.

        Frozen rows are excluded from sampling (and from corruption)
        and keep their counts.  With an adversary, every ``n``-th tick
        closes a synchronous-equivalent round and triggers one checked
        vectorised corruption of the active rows.  Rows reaching the
        dynamics' consensus this tick — checked after the corruption,
        matching the sequential adversarial chain — record the tick and
        freeze.
        """
        active = ~self.frozen
        self._steps += 1
        if active.any():
            with use_backend(self.backend):
                new_rows = self.dynamics.async_population_step_batch(
                    self.counts[active], self.rng
                )
            if (
                self.adversary is not None
                and self._steps % self.num_vertices == 0
            ):
                new_rows = self._corrupt(new_rows)
            self.counts[active] = new_rows
            # Cheap hot-path filter first (one row-wise max); only rows
            # where a single label holds everything pay the dynamics'
            # own convention check — for Undecided-State an
            # all-undecided row never freezes (it surfaces as
            # censored), exactly like the sequential async engine.
            hit = new_rows.max(axis=1) == self.num_vertices
            if hit.any():
                confirmed = np.zeros_like(hit)
                confirmed[hit] = np.asarray(
                    self.dynamics.consensus_mask_batch(new_rows[hit]),
                    dtype=bool,
                )
                self._freeze(np.flatnonzero(active)[confirmed])
        self._record()
        return self.counts

    def run_ticks(self, ticks: int) -> np.ndarray:
        """Execute exactly ``ticks`` ticks (finished rows stay frozen)."""
        if ticks < 0:
            raise ConfigurationError(
                f"ticks must be non-negative, got {ticks}"
            )
        for _ in range(ticks):
            self.step()
        return self.counts

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
        "R one-vertex-per-tick chains advanced in lockstep as one "
        "(R, k) count matrix"
    ),
    supports_target=False,
    supports_observers=False,
    supports_adversary=True,
)
