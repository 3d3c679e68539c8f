"""Vectorised batch-replica engine: R population chains in lockstep.

:func:`~repro.engine.runner.replicate` advances R independent runs as a
Python loop over single :class:`~repro.engine.population.PopulationEngine`
instances — R round-loops, each paying the per-call numpy overhead on tiny
arrays.  This engine instead holds all R replicas as one ``(R, k)`` int64
count matrix and advances every *unfinished* replica with a single call to
the dynamics' ``population_step_batch``.  Every dynamics in the catalogue
is fully vectorised there: one batched multinomial for 3-Majority and
Voter and h-Majority (from its exact law), a binomial + multinomial pair
for 2-Choices and Undecided-State, and a batched group-law multinomial for
the Median rule (``benchmarks/bench_batch_dynamics.py``
guards the overrides and tracks the speedups), so a ``replicate``-style
workload has one vectorised hot loop instead of R sequential ones.

The stopping rule is dynamics-aware: each round the engine asks the
dynamics' ``consensus_mask_batch`` which rows stopped, so dynamics with
auxiliary labels keep their own convention — for Undecided-State,
"consensus" means one *decided* opinion holds everything and the
(absorbing, practically unreachable) all-undecided row counts as
censored, never as a winner.

Each row is the same Markov chain a single :class:`PopulationEngine` runs
(the tests check distributional agreement via KS tests), but all rows
share one generator, so a batch run is *not* bitwise-identical to R
seeded sequential runs — equal in distribution, not in realisation.

Rows are frozen the round they stop — consensus, or a caller-supplied
``target`` predicate — by the shared
:class:`~repro.engine.replica_loop.ReplicaLoop`.  An optional F-bounded
adversary corrupts every active row once per round (after the dynamics,
before the stopping check — the same interleaving as the sequential
adversarial chain), using the strategy's vectorised ``corrupt_batch``
with the contract enforced on every row.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.adversary.base import Adversary
from repro.backends import use_backend
from repro.core.base import Dynamics
from repro.engine.registry import register_engine
from repro.engine.replica_loop import (
    RecordHook,
    ReplicaLoop,
    replica_counts,
    run_for_spec,
)
from repro.engine.runner import RunResult
from repro.seeding import RandomState

__all__ = ["BatchPopulationEngine"]


class BatchPopulationEngine(ReplicaLoop):
    """Advance R replicas of a population chain as one count matrix.

    Parameters
    ----------
    dynamics:
        Any :class:`~repro.core.base.Dynamics`.  Every catalogued
        dynamics (3-Majority, 2-Choices, Voter, Median, Undecided-State,
        h-Majority) runs fully vectorised; third-party dynamics without
        a ``population_step_batch`` override fall back to a row loop
        (correct, no speedup).  Its ``batch_element_budget`` caps the
        scratch memory of chunked batch steps.
    counts:
        Either a 1-D count vector shared by every replica, or an
        ``(R, k)`` matrix giving each replica its own start.  Every row
        must have the same total mass ``n``.
    num_replicas:
        Number of replicas R.  Required with a 1-D ``counts``; with a
        matrix it must match the row count (or be omitted).
    seed:
        Anything accepted by :func:`repro.seeding.as_generator`.  One
        stream drives all replicas.
    adversary:
        Optional F-bounded :class:`~repro.adversary.base.Adversary`
        corrupting every active row after each round via
        ``corrupt_batch`` (contract-checked per row).
    target:
        Optional stopping predicate on a single row's count vector;
        replaces the consensus check, evaluated per active row per
        round.  Rows satisfying it freeze exactly like consensus rows.
    backend:
        Optional compute backend pinned for this engine's steps (name,
        instance, or ``None``/``"auto"`` to inherit the ambient backend
        — see :mod:`repro.backends`).  A pure performance knob: it
        never changes the sampled chain's law.
    record_hook:
        Optional observation callback ``hook(round_index, counts,
        frozen)`` invoked after every :meth:`step` with the engine's
        own state (the live ``(R, k)`` matrix and ``(R,)`` mask —
        copy if you keep them).  The batch-engine counterpart of the
        sequential engines' :class:`~repro.engine.callbacks.Observer`
        protocol, used by :mod:`repro.invariants` to record traces;
        costs nothing when ``None``.

    Attributes
    ----------
    counts:
        The ``(R, k)`` configuration matrix (owned by the engine).
    round_index:
        Synchronous rounds executed so far (shared by all replicas).
    frozen:
        Boolean ``(R,)`` mask of replicas that stopped (consensus, or
        the ``target`` predicate when given).
    consensus_rounds:
        Int ``(R,)`` array of per-replica stopping times (-1 while
        unfinished).
    """

    def __init__(
        self,
        dynamics: Dynamics,
        counts: np.ndarray,
        num_replicas: int | None = None,
        seed: RandomState = None,
        adversary: Adversary | None = None,
        target: Callable[[np.ndarray], bool] | None = None,
        backend: str | None = None,
        record_hook: RecordHook | None = None,
    ) -> None:
        super().__init__(
            dynamics, seed, adversary, target, backend, record_hook
        )
        self.counts = replica_counts(counts, num_replicas)
        self.num_opinions = int(self.counts.shape[1])
        self.num_vertices = int(self.counts[0].sum())
        self._start(self.counts)

    def step(self) -> np.ndarray:
        """Advance every unfinished replica one round.

        Frozen rows are excluded from sampling (and from corruption)
        and keep their counts; rows that hit the stopping rule this
        round — checked *after* the adversary's corruption, matching
        the sequential adversarial chain — record it and freeze.
        """
        active = ~self.frozen
        self._steps += 1
        if active.any():
            with use_backend(self.backend):
                new_rows = self.dynamics.population_step_batch(
                    self.counts[active], self.rng
                )
            if self.adversary is not None:
                new_rows = self._corrupt(new_rows)
            self.counts[active] = new_rows
            self._freeze(np.flatnonzero(active)[self._stopped(new_rows)])
        self._record()
        return self.counts


def _run_spec(spec) -> list[RunResult]:
    """Registry adapter: all R replicas in one vectorised engine."""
    engine = BatchPopulationEngine(
        spec.resolved_dynamics(),
        spec.initial_counts(),
        num_replicas=spec.replicas,
        seed=spec.seed,
        adversary=spec.resolved_adversary(),
        target=spec.target,
        backend=getattr(spec, "backend", None),
    )
    return run_for_spec(engine, spec, spec.round_budget())


register_engine(
    "batch",
    _run_spec,
    description=(
        "R replicas advanced in lockstep as one (R, k) count matrix"
    ),
    supports_target=True,
    supports_observers=False,
    supports_adversary=True,
)
