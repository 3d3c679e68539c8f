"""Benchmark ``asyncbatch`` — the asynchronous jump-chain engine.

The ``AsyncBatchPopulationEngine`` runs R asynchronous chains as one
embedded jump chain: each loop iteration makes one jump (a geometric
holding time plus a move drawn from ``async_jump_batch``) for every
unfinished row, so ticks that change nothing cost nothing.  This
benchmark records:

* ``test_async_batch_replication_speedup`` — fixed-tick throughput of
  the batch engine against ``replicate`` over sequential
  ``AsyncPopulationEngine`` runs at R = 64 (3-Majority, with the Voter
  baseline for trend-watching); the batch engine must win by at least
  10x.  It also records the jump-chain rows: to-consensus runs at
  n = 1e4, k = 8, R = 64 for 3-Majority and 2-Choices, and a fixed
  horizon of 2n ticks at n = 1e5 — wall time, loop iterations and
  lockstep ticks per second (the tick every unfinished row has reached,
  per second of wall time).  Loop iterations per tick at a fixed seed
  are deterministic, so each row asserts a ceiling on them: a change
  that stops skipping null ticks fails here whatever the host speed.

The override-presence guard is enforced statically by ``repro lint``'s
**no-row-loop** rule (``src/repro/lint/rules/vectorization.py``).

Run with:  pytest benchmarks/bench_async_batch.py --benchmark-only
"""

from __future__ import annotations

import time

import numpy as np

from conftest import write_bench_json
from repro.analysis.tables import format_table
from repro.configs import balanced
from repro.core import ThreeMajority, TwoChoices, Voter
from repro.engine import AsyncBatchPopulationEngine, AsyncPopulationEngine
from repro.engine.runner import RunResult, replicate

N = 256
K = 8
REPLICAS = 64
TICKS = 600
SPEEDUP_FLOOR = 10.0  # 3-Majority at R = 64

#: Jump-chain rows: (label, dynamics, n, horizon or None for a run to
#: consensus, ceiling on loop iterations per tick at seed 0).  From a
#: balanced k = 8 start a 3-Majority tick changes the row with
#: probability about 7/8 and a 2-Choices tick about 7/64, so these
#: ceilings sit well above the measured ratios and well below 1.
JUMP_REPLICAS = 64
JUMP_ROWS = (
    ("3-majority to consensus", ThreeMajority(), 10_000, None, 0.75),
    ("2-choices to consensus", TwoChoices(), 10_000, None, 0.25),
    ("3-majority, 2n ticks", ThreeMajority(), 100_000, 200_000, 0.95),
    ("2-choices, 2n ticks", TwoChoices(), 100_000, 200_000, 0.2),
)


def _sequential_seconds(dynamics, counts, replicas: int) -> float:
    def one(rng: np.random.Generator) -> RunResult:
        engine = AsyncPopulationEngine(dynamics, counts, seed=rng)
        engine.run_ticks(TICKS)
        return RunResult(
            converged=False,
            rounds=0,
            winner=None,
            final_counts=engine.counts,
        )

    started = time.perf_counter()
    replicate(one, replicas, seed=0)
    return time.perf_counter() - started


def _batch_seconds(dynamics, counts, replicas: int) -> float:
    engine = AsyncBatchPopulationEngine(
        dynamics, counts, num_replicas=replicas, seed=0
    )
    started = time.perf_counter()
    engine.run_ticks(TICKS)
    return time.perf_counter() - started


def _jump_row(dynamics, n: int, horizon: int | None) -> dict:
    """One jump-chain run: wall time, iterations and ticks per second."""
    calls = []
    engine = AsyncBatchPopulationEngine(
        dynamics,
        balanced(n, K),
        num_replicas=JUMP_REPLICAS,
        seed=0,
        record_hook=lambda index, counts, frozen: calls.append(index),
    )
    started = time.perf_counter()
    if horizon is None:
        results = engine.run_until_consensus(10_000 * n)
        assert all(r.converged for r in results)
    else:
        engine.run_ticks(horizon)
    seconds = time.perf_counter() - started
    ticks = engine.tick_index
    return {
        "seconds": round(seconds, 3),
        "iterations": len(calls),
        "ticks": ticks,
        "iterations_per_tick": round(len(calls) / ticks, 4),
        "ticks_per_s": round(ticks / seconds, 1),
    }


def _study() -> dict:
    rows = []
    measurements: dict[str, tuple[float, float, float]] = {}
    for dynamics in (ThreeMajority(), Voter()):
        counts = balanced(N, K)
        seq_s = _sequential_seconds(dynamics, counts, REPLICAS)
        batch_s = _batch_seconds(dynamics, counts, REPLICAS)
        speedup = seq_s / batch_s
        measurements[dynamics.name] = (seq_s, batch_s, speedup)
        rows.append(
            [
                dynamics.name,
                REPLICAS,
                round(seq_s * 1000, 1),
                round(batch_s * 1000, 1),
                round(speedup, 1),
            ]
        )
    jump = {
        label: _jump_row(dynamics, n, horizon)
        for label, dynamics, n, horizon, _ in JUMP_ROWS
    }
    return {"rows": rows, "measurements": measurements, "jump": jump}


def test_async_batch_replication_speedup(benchmark):
    study = benchmark.pedantic(_study, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["dynamics", "R", "sequential ms", "batch ms", "speedup"],
            study["rows"],
            title=(
                f"Batched vs sequential asynchronous replication "
                f"(n={N}, k={K}, {TICKS} ticks each)"
            ),
        )
    )
    print(
        format_table(
            ["run", "n", "ticks", "iterations", "iter/tick", "s",
             "ticks/s"],
            [
                [label, n, row["ticks"], row["iterations"],
                 row["iterations_per_tick"], row["seconds"],
                 row["ticks_per_s"]]
                for (label, _, n, _, _), row in zip(
                    JUMP_ROWS, study["jump"].values()
                )
            ],
            title=(
                f"Jump-chain runs (k={K}, R={JUMP_REPLICAS}, balanced "
                "start, seed 0)"
            ),
        )
    )
    seq_s, batch_s, speedup = study["measurements"]["3-majority"]
    write_bench_json(
        "async_batch",
        speedup=speedup,
        baseline_seconds=seq_s,
        optimised_seconds=batch_s,
        config={"R": REPLICAS, "n": N, "k": K, "ticks": TICKS},
        extra={
            "speedups": {
                name: round(values[2], 2)
                for name, values in study["measurements"].items()
            },
            "jump_chain": {
                "R": JUMP_REPLICAS,
                "k": K,
                "rows": {
                    label: {"n": n, "horizon": horizon, **row}
                    for (label, _, n, horizon, _), row in zip(
                        JUMP_ROWS, study["jump"].values()
                    )
                },
            },
        },
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"3-majority async batch speedup {speedup:.1f}x fell below "
        f"the {SPEEDUP_FLOOR:g}x floor at R={REPLICAS}"
    )
    for label, _, _, _, ceiling in JUMP_ROWS:
        ratio = study["jump"][label]["iterations_per_tick"]
        assert ratio <= ceiling, (
            f"{label}: {ratio:.3f} loop iterations per tick exceeds the "
            f"{ceiling:g} ceiling — the engine no longer skips null ticks"
        )
