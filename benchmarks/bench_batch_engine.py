"""Benchmark the vectorised batch-replica engine against sequential runs.

The ``BatchPopulationEngine`` exists for one reason: a
``replicate``-style workload (R independent runs of the same spec)
should cost one vectorised hot loop, not R sequential Python loops.
This benchmark tracks that claim across R ∈ {16, 64, 256} for both
paper dynamics and asserts the headline requirement — at R = 64 the
batch engine beats sequential replication by at least 3x wall-clock.

It also records, without asserting a floor yet, the per-run wall time of
each batch engine at R = 1 against its sequential twin
(``PopulationEngine``, ``AgentEngine``, ``AsyncPopulationEngine``) for
3-Majority, 2-Choices and Undecided-State: the measurement that decides
when sequential specs can run as one-replica batch runs.

Run with:  pytest benchmarks/bench_batch_engine.py --benchmark-only
"""

from __future__ import annotations

import math
import time

import numpy as np

from conftest import write_bench_json
from repro.analysis.tables import format_table
from repro.configs import balanced
from repro.core import (
    ThreeMajority,
    TwoChoices,
    UndecidedStateDynamics,
    with_undecided_slot,
)
from repro.engine import (
    AgentEngine,
    AsyncBatchPopulationEngine,
    AsyncPopulationEngine,
    BatchAgentEngine,
    BatchPopulationEngine,
    PopulationEngine,
    replicate,
    run_until_consensus,
)
from repro.graphs import CompleteGraph
from repro.state import counts_to_agents

N = 65_536
K = 16
REPLICA_COUNTS = (16, 64, 256)
MAX_ROUNDS = 1_000_000

#: R = 1 twin study: seeded runs per (engine, dynamics) cell, and the
#: (n, k) per engine pair -- the asynchronous chains pay one Python
#: step per tick, so they run at a smaller n.
R1_RUNS = 5
R1_SIZES = {
    "batch": (10_000, 16),
    "agent-batch": (10_000, 16),
    "async-batch": (200, 4),
}


def _sequential_seconds(dynamics, counts, replicas: int) -> tuple[float, float]:
    def one(rng):
        engine = PopulationEngine(dynamics, counts, seed=rng)
        return run_until_consensus(engine, max_rounds=MAX_ROUNDS)

    started = time.perf_counter()
    results = replicate(one, replicas, seed=0)
    elapsed = time.perf_counter() - started
    return elapsed, float(np.median([r.rounds for r in results]))


def _batch_seconds(dynamics, counts, replicas: int) -> tuple[float, float]:
    started = time.perf_counter()
    engine = BatchPopulationEngine(
        dynamics, counts, num_replicas=replicas, seed=0
    )
    results = engine.run_until_consensus(MAX_ROUNDS)
    elapsed = time.perf_counter() - started
    return elapsed, float(np.median([r.rounds for r in results]))


def _study() -> dict:
    counts = balanced(N, K)
    rows = []
    speedups: dict[tuple[str, int], float] = {}
    for dynamics in (ThreeMajority(), TwoChoices()):
        for replicas in REPLICA_COUNTS:
            seq_s, seq_median = _sequential_seconds(
                dynamics, counts, replicas
            )
            batch_s, batch_median = _batch_seconds(
                dynamics, counts, replicas
            )
            speedup = seq_s / batch_s
            speedups[(dynamics.name, replicas)] = speedup
            rows.append(
                [
                    dynamics.name,
                    replicas,
                    round(seq_s * 1000, 1),
                    round(batch_s * 1000, 1),
                    round(speedup, 1),
                    seq_median,
                    batch_median,
                ]
            )
    return {"rows": rows, "speedups": speedups}


def _timed(run) -> tuple[float, int]:
    started = time.perf_counter()
    rounds = run()
    return time.perf_counter() - started, rounds


def _r1_pair(engine: str, dynamics, counts: np.ndarray, seed: int):
    """One seeded run of ``engine`` at R = 1 and of its sequential twin.

    Returns ``(batch_s, batch_rounds, sequential_s, sequential_rounds)``;
    the asynchronous pair reports synchronous-equivalent rounds,
    ``ceil(ticks / n)``.
    """
    n, k = int(counts.sum()), counts.size
    if engine == "batch":
        def batch():
            return BatchPopulationEngine(
                dynamics, counts, num_replicas=1, seed=seed
            ).run_until_consensus(MAX_ROUNDS)[0].rounds

        def sequential():
            engine = PopulationEngine(dynamics, counts, seed=seed)
            return run_until_consensus(engine, MAX_ROUNDS).rounds
    elif engine == "agent-batch":
        graph, opinions = CompleteGraph(n), counts_to_agents(counts)

        def batch():
            return BatchAgentEngine(
                dynamics, graph, opinions, num_replicas=1,
                num_opinions=k, seed=seed,
            ).run_until_consensus(MAX_ROUNDS)[0].rounds

        def sequential():
            engine = AgentEngine(
                dynamics, graph, opinions, num_opinions=k, seed=seed
            )
            return run_until_consensus(engine, MAX_ROUNDS).rounds
    else:
        def batch():
            return AsyncBatchPopulationEngine(
                dynamics, counts, num_replicas=1, seed=seed
            ).run_until_consensus(MAX_ROUNDS * n)[0].rounds

        def sequential():
            engine = AsyncPopulationEngine(dynamics, counts, seed=seed)
            return math.ceil(engine.run_until_consensus(MAX_ROUNDS * n) / n)
    return (*_timed(batch), *_timed(sequential))


def _r1_study() -> list[list]:
    """Median per-run ms of each batch engine at R = 1 and its twin."""
    rows = []
    for engine, (n, k) in R1_SIZES.items():
        for dynamics, counts in (
            (ThreeMajority(), balanced(n, k)),
            (TwoChoices(), balanced(n, k)),
            (UndecidedStateDynamics(), with_undecided_slot(balanced(n, k))),
        ):
            runs = np.asarray(
                [_r1_pair(engine, dynamics, counts, seed)
                 for seed in range(R1_RUNS)]
            )
            batch_ms, batch_t, seq_ms, seq_t = np.median(runs, axis=0)
            rows.append([
                engine, dynamics.name, n, k,
                round(batch_ms * 1000, 2), round(seq_ms * 1000, 2),
                round(batch_ms / seq_ms, 2), batch_t, seq_t,
            ])
    return rows


def test_batch_replication_speedup(benchmark):
    study = benchmark.pedantic(_study, rounds=1, iterations=1)
    print()
    print(
        format_table(
            [
                "dynamics",
                "R",
                "sequential ms",
                "batch ms",
                "speedup",
                "seq median T",
                "batch median T",
            ],
            study["rows"],
            title=(
                f"Batched vs sequential replication "
                f"(n={N:,}, k={K}, balanced start)"
            ),
        )
    )
    r1_rows = _r1_study()
    print(
        format_table(
            [
                "engine",
                "dynamics",
                "n",
                "k",
                "R=1 ms",
                "sequential ms",
                "ratio",
                "R=1 median T",
                "seq median T",
            ],
            r1_rows,
            title=(
                f"Batch engines at R = 1 vs their sequential twins "
                f"(median of {R1_RUNS} seeded runs each)"
            ),
        )
    )
    speedups = study["speedups"]
    headline = next(
        row
        for row in study["rows"]
        if row[0] == "3-majority" and row[1] == 64
    )
    write_bench_json(
        "batch_engine",
        speedup=speedups[("3-majority", 64)],
        baseline_seconds=headline[2] / 1000.0,
        optimised_seconds=headline[3] / 1000.0,
        config={"R": 64, "n": N, "k": K},
        extra={
            "speedups": {
                f"{name}/R={replicas}": round(value, 2)
                for (name, replicas), value in speedups.items()
            },
            # No floor yet: routing sequential specs to R = 1 batch
            # runs will gate on ratio <= 1.1.
            "r1_vs_sequential": [
                {
                    "engine": row[0],
                    "dynamics": row[1],
                    "n": row[2],
                    "k": row[3],
                    "batch_ms": row[4],
                    "sequential_ms": row[5],
                    "ratio": row[6],
                    "runs": R1_RUNS,
                }
                for row in r1_rows
            ],
        },
    )
    # Headline acceptance: >= 3x at R = 64 for the closed-form dynamics.
    assert speedups[("3-majority", 64)] >= 3.0, speedups
    # The advantage must grow with R, not flatten into constant overhead.
    assert (
        speedups[("3-majority", 256)] > speedups[("3-majority", 16)]
    ), speedups
    # Both dynamics should see a real win at the largest batch.
    assert speedups[("2-choices", 256)] >= 2.0, speedups
    # Sanity: the two samplers measure the same chain (medians close).
    for row in study["rows"]:
        assert abs(row[5] - row[6]) <= 0.35 * max(row[5], row[6]), row
