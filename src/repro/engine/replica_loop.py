"""The replica loop shared by the three batch engines.

:class:`~repro.engine.batch.BatchPopulationEngine`,
:class:`~repro.engine.agent_batch.BatchAgentEngine` and
:class:`~repro.engine.async_batch.AsyncBatchPopulationEngine` all measure
the paper's observable — each replica's consensus time — the same way:
R rows advance in lockstep, a row freezes the step it stops (consensus
under the dynamics' own convention, or a caller ``target``), frozen rows
are never sampled or corrupted again, and the per-row stopping steps
become one :class:`~repro.engine.runner.RunResult` per replica.
:class:`ReplicaLoop` owns that freeze-record-report loop; a subclass
supplies its state matrix and its ``step`` (one synchronous round, or
one jump of the asynchronous jump chain), plus a ``_stopped`` rule when
the default count-level one does not fit.

Each subclass keeps ``step`` in its own class body: that is where the
per-step cost lives, and where per-engine tracing hooks in.
"""

from __future__ import annotations

from collections.abc import Callable
from operator import attrgetter

import numpy as np

from repro.adversary.base import Adversary, enforce_corruption_contract_batch
from repro.backends import resolve_backend
from repro.core.base import Dynamics
from repro.engine.runner import RunResult
from repro.errors import ConfigurationError, ConsensusNotReached
from repro.seeding import RandomState, as_generator
from repro.state import validate_counts

__all__ = [
    "ReplicaLoop",
    "replica_counts",
    "replica_rows",
    "run_for_spec",
]

RecordHook = Callable[[int, np.ndarray, np.ndarray], None]


def replica_rows(
    start: np.ndarray,
    num_replicas: int | None,
    validate_row: Callable[[np.ndarray], np.ndarray],
    name: str,
) -> np.ndarray:
    """Normalise a batch engine's start into an R-row matrix.

    Accepts either one 1-D configuration (tiled ``num_replicas`` times)
    or an explicit matrix (validated row-wise, ``num_replicas`` optional
    but checked when given).  ``name`` only labels errors.
    """
    arr = np.asarray(start)
    if arr.ndim == 1:
        if num_replicas is None:
            raise ConfigurationError(
                f"num_replicas is required when {name} is a single "
                "1-D configuration"
            )
        if num_replicas < 1:
            raise ConfigurationError(
                f"num_replicas must be at least 1, got {num_replicas}"
            )
        return np.tile(validate_row(arr), (int(num_replicas), 1))
    if arr.ndim != 2:
        raise ConfigurationError(
            f"{name} must be 1-D or 2-D (one row per replica), got "
            f"shape {arr.shape}"
        )
    if num_replicas is not None and num_replicas != arr.shape[0]:
        raise ConfigurationError(
            f"{name} has {arr.shape[0]} rows but num_replicas="
            f"{num_replicas}"
        )
    if arr.shape[0] == 0:
        raise ConfigurationError(
            f"{name} has no replica rows; at least one is required"
        )
    return np.stack([validate_row(row) for row in arr])


def replica_counts(
    counts: np.ndarray, num_replicas: int | None
) -> np.ndarray:
    """An ``(R, k)`` count-matrix start whose rows share one total mass."""
    matrix = replica_rows(counts, num_replicas, validate_counts, "counts")
    totals = matrix.sum(axis=1)
    if (totals != totals[0]).any():
        raise ConfigurationError(
            "every replica row must have the same total mass; "
            f"got row sums {np.unique(totals).tolist()}"
        )
    return matrix


def counter_alias(attr: str, doc: str) -> property:
    """Read-only public name for one of the loop's step counters."""
    return property(attrgetter(attr), doc=doc)


class ReplicaLoop:
    """Frozen mask, stopping steps and results for R lockstep replicas.

    The constructor stores what every batch engine takes — dynamics,
    seed, adversary, ``target``, backend and ``record_hook`` (see the
    engines' docstrings).  A subclass calls :meth:`_start` once its
    state matrix is built, exposes ``counts`` as the ``(R, k)`` count
    matrix (an attribute or a derived property) and defines ``step``,
    which advances the unfrozen rows, then calls :meth:`_freeze` and
    :meth:`_record`.

    ``step_unit`` names what one ``step`` advances ("round" or
    "tick"); :meth:`_units` maps a row's step count to
    :class:`~repro.engine.runner.RunResult` fields.
    """

    step_unit = "round"

    def __init__(
        self,
        dynamics: Dynamics,
        seed: RandomState,
        adversary: Adversary | None,
        target: Callable[[np.ndarray], bool] | None,
        backend: str | None,
        record_hook: RecordHook | None,
    ) -> None:
        self.backend = (
            None if backend in (None, "auto") else resolve_backend(backend)
        )
        self.record_hook = record_hook
        self.dynamics = dynamics
        self.adversary = adversary
        self.target = target
        self.rng = as_generator(seed)
        self._steps = 0

    def _start(self, state: np.ndarray) -> None:
        """Freeze the rows that already stop in the start ``state``."""
        self.num_replicas = int(state.shape[0])
        self.frozen = self._stopped(state)
        self._stop_step = np.where(self.frozen, 0, -1).astype(np.int64)

    round_index = counter_alias(
        "_steps", "Synchronous rounds executed so far (all replicas)."
    )
    consensus_rounds = counter_alias(
        "_stop_step", "Per-replica stopping rounds (-1 while unfinished)."
    )

    # ------------------------------------------------------------------
    # Pieces of a step
    # ------------------------------------------------------------------
    def _stopped(self, counts: np.ndarray) -> np.ndarray:
        """Per-row stopping mask of an ``(rows, k)`` count matrix.

        Without a ``target`` this is the *dynamics'*
        ``consensus_mask_batch``, so label conventions travel with the
        dynamics (Undecided-State only stops on a decided winner).
        Targets exposing a ``batch(rows)`` method (e.g.
        :class:`~repro.adversary.tolerance.LeaderThresholdTarget`) are
        evaluated in one vectorised call; plain predicates fall back to
        a per-row loop.
        """
        if self.target is None:
            return np.asarray(
                self.dynamics.consensus_mask_batch(counts), dtype=bool
            )
        batch_predicate = getattr(self.target, "batch", None)
        if batch_predicate is not None:
            return np.asarray(batch_predicate(counts), dtype=bool)
        return np.fromiter(
            (bool(self.target(row)) for row in counts),
            dtype=bool,
            count=counts.shape[0],
        )

    def _corrupt(self, counts: np.ndarray) -> np.ndarray:
        """One checked ``corrupt_batch`` of active count rows.

        The adversary gets its own copy so an in-place-mutating
        ``corrupt_batch`` cannot defeat the contract check by changing
        the "before" matrix too.
        """
        corrupted = self.adversary.corrupt_batch(counts.copy(), self.rng)
        return enforce_corruption_contract_batch(
            counts, corrupted, self.adversary.budget
        )

    def _freeze(
        self, done: np.ndarray, steps: np.ndarray | None = None
    ) -> None:
        """Record the stopping step for rows ``done`` (the current step
        unless ``steps`` gives theirs) and freeze them."""
        self._stop_step[done] = self._steps if steps is None else steps
        self.frozen[done] = True

    def _record(self) -> None:
        """Call ``record_hook(step, counts, frozen)`` if one is set."""
        if self.record_hook is not None:
            self.record_hook(self._steps, self.counts, self.frozen)

    # ------------------------------------------------------------------
    # Run control and results
    # ------------------------------------------------------------------
    def all_consensus(self) -> bool:
        """True once every replica has stopped."""
        return bool(self.frozen.all())

    def run_until_consensus(self, max_steps: int) -> list[RunResult]:
        """Step until every replica froze or ``max_steps`` steps passed.

        ``max_steps`` counts calls to ``step``: rounds, or ticks for the
        asynchronous engine.  Returns :meth:`results`.
        """
        if max_steps < 0:
            raise ConfigurationError(
                f"max_{self.step_unit}s must be non-negative, got "
                f"{max_steps}"
            )
        while not self.frozen.all() and self._steps < max_steps:
            self.step()
        return self.results()

    def _units(self, steps: int) -> dict:
        """``RunResult`` fields for a row that ran ``steps`` steps."""
        return {"rounds": steps}

    def results(self) -> list[RunResult]:
        """One :class:`~repro.engine.runner.RunResult` per replica.

        Converged rows report their stopping step, censored ones the
        steps executed so far.  ``winner`` follows the dynamics'
        count-level consensus convention, so an Undecided-State row
        reports a winner only when a *decided* opinion holds everything.
        """
        counts = self.counts
        winners = counts.argmax(axis=1)
        at_consensus = np.asarray(
            self.dynamics.consensus_mask_batch(counts), dtype=bool
        )
        out: list[RunResult] = []
        for r in range(self.num_replicas):
            converged = bool(self.frozen[r])
            steps = int(self._stop_step[r] if converged else self._steps)
            out.append(
                RunResult(
                    converged=converged,
                    winner=int(winners[r])
                    if converged and at_consensus[r]
                    else None,
                    final_counts=counts[r].copy(),
                    **self._units(steps),
                )
            )
        return out

    # ------------------------------------------------------------------
    # Inspection helpers (matrix-level views)
    # ------------------------------------------------------------------
    @property
    def alpha(self) -> np.ndarray:
        """Fractional populations, shape ``(R, k)``."""
        return self.counts / self.num_vertices

    @property
    def gamma(self) -> np.ndarray:
        """Per-replica ``gamma_t``, shape ``(R,)``."""
        a = self.alpha
        return np.einsum("rk,rk->r", a, a)

    @property
    def alive(self) -> np.ndarray:
        """Per-replica surviving-opinion counts, shape ``(R,)``."""
        return np.count_nonzero(self.counts, axis=1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        adv = (
            f", adversary={self.adversary!r}"
            if self.adversary is not None
            else ""
        )
        return (
            f"{type(self).__name__}({self.dynamics.name}, "
            f"R={self.num_replicas}, n={self.num_vertices}, "
            f"k={self.num_opinions}, {self.step_unit}={self._steps}, "
            f"frozen={int(self.frozen.sum())}{adv})"
        )


def run_for_spec(
    engine: ReplicaLoop, spec, max_steps: int
) -> list[RunResult]:
    """Registry-adapter tail: run ``engine`` and honour ``spec.on_budget``.

    With ``"raise"``, censored replicas raise
    :class:`~repro.errors.ConsensusNotReached` here rather than relying
    on the :func:`~repro.simulation.run.execute` dispatcher, so direct
    ``get_engine(name).run(spec)`` callers see the same contract as
    every other engine.
    """
    results = engine.run_until_consensus(max_steps)
    censored = sum(1 for result in results if not result.converged)
    if censored and spec.on_budget == "raise":
        raise ConsensusNotReached(
            spec.round_budget(),
            f"{censored} of {spec.replicas} replicas did not reach "
            f"consensus within {max_steps} {engine.step_unit}s",
        )
    return results
