"""Contracts the three batch engines share through ``ReplicaLoop``.

``batch``, ``agent-batch`` and ``async-batch`` run the same
freeze-record-report loop, so its contracts are tested once here,
parametrised over the engines: start normalisation, budget validation,
censoring at the budget, and the ``record_hook`` cadence.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.configs import balanced
from repro.core import ThreeMajority, TwoChoices
from repro.engine import (
    AsyncBatchPopulationEngine,
    BatchAgentEngine,
    BatchPopulationEngine,
)
from repro.errors import ConfigurationError
from repro.graphs import CompleteGraph
from repro.state import counts_to_agents

ENGINES = ["batch", "agent-batch", "async-batch"]


def _make(engine, dynamics, counts, num_replicas=3, **kwargs):
    """One of the three batch engines started from a count vector."""
    if engine == "batch":
        return BatchPopulationEngine(
            dynamics, counts, num_replicas=num_replicas, **kwargs
        )
    if engine == "agent-batch":
        return BatchAgentEngine(
            dynamics,
            CompleteGraph(int(counts.sum())),
            counts_to_agents(counts),
            num_replicas=num_replicas,
            num_opinions=counts.size,
            **kwargs,
        )
    return AsyncBatchPopulationEngine(
        dynamics, counts, num_replicas=num_replicas, **kwargs
    )


@pytest.mark.parametrize("engine", ENGINES)
def test_empty_replica_matrix_rejected(engine):
    # A (0, k) count matrix or (0, n) opinion matrix is a configuration
    # error, like num_replicas=0 with a 1-D start.
    empty = np.zeros((0, 8), dtype=np.int64)
    with pytest.raises(ConfigurationError, match="no replica rows"):
        if engine == "agent-batch":
            BatchAgentEngine(ThreeMajority(), CompleteGraph(8), empty)
        elif engine == "batch":
            BatchPopulationEngine(ThreeMajority(), empty)
        else:
            AsyncBatchPopulationEngine(ThreeMajority(), empty)
    with pytest.raises(ConfigurationError, match="at least 1"):
        _make(engine, ThreeMajority(), balanced(8, 2), num_replicas=0)


def test_opinion_rows_are_not_mass_checked():
    # Equal row mass is a count-matrix rule; opinion rows differ freely.
    opinions = np.asarray([[0, 0, 1, 1], [0, 1, 1, 1]])
    engine = BatchAgentEngine(
        ThreeMajority(), CompleteGraph(4), opinions, num_opinions=2
    )
    assert engine.counts.tolist() == [[2, 2], [1, 3]]


@pytest.mark.parametrize("engine", ENGINES)
class TestReplicaLoopContract:
    def test_negative_budget_rejected(self, engine):
        loop = _make(engine, ThreeMajority(), balanced(50, 2), seed=0)
        with pytest.raises(ConfigurationError, match="non-negative"):
            loop.run_until_consensus(-1)

    def test_budget_censoring(self, engine):
        loop = _make(engine, TwoChoices(), balanced(512, 64), seed=0)
        results = loop.run_until_consensus(2)
        clock = "tick_index" if engine == "async-batch" else "round_index"
        assert getattr(loop, clock) == 2
        assert len(results) == 3
        for r in results:
            assert not r.converged
            assert r.winner is None
            # Synchronous engines count rounds; async-batch reports
            # ceil(ticks / n) rounds plus the raw ticks.
            assert r.metrics.get("ticks", r.rounds) == 2

    def test_record_hook_fires_once_per_step(self, engine):
        calls = []

        def hook(index, counts, frozen):
            calls.append((index, counts.copy(), frozen.copy()))

        loop = _make(
            engine, ThreeMajority(), balanced(40, 2), seed=1,
            record_hook=hook,
        )
        loop.run_until_consensus(1_000_000)
        assert loop.all_consensus()
        steps = len(calls)
        indices = [index for index, _, _ in calls]
        # The index is the step counter: rounds, or ticks for
        # async-batch, whose jump iterations inside a run may skip
        # ticks, so there it only increases strictly.
        assert all(b > a for a, b in zip(indices, indices[1:]))
        assert indices[-1] == loop._steps
        if engine != "async-batch":
            assert indices == list(range(1, steps + 1))
        assert all((counts.sum(axis=1) == 40).all() for _, counts, _ in calls)
        # Stepping a fully frozen engine still reports, once per step.
        loop.step()
        assert len(calls) == steps + 1
        index, counts, frozen = calls[-1]
        assert index == indices[-1] + 1
        assert frozen.all()
        assert (counts == loop.counts).all()
