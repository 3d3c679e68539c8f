"""The benchmark's workloads: generated inputs, timed units and checks.

Theorem 1.1 of the paper puts the consensus time at about
min(k, sqrt n) rounds for 3-Majority and about k rounds for 2-Choices,
so the simulator's cost depends on the regime.  Three workloads cover
the three ways a run spends its time:

``few-large-steps`` (kernel-bound)
    Few rounds, each an O(R k) or O(R n h) draw: ``core`` does nearly
    all the work and the engine loop little.  Includes k >> sqrt n, the
    regime the paper improves, the sampled h-majority path and the
    agent-level chain on a random regular graph (whose build is set-up).
``many-small-steps`` (loop-bound)
    Many tiny steps: asynchronous ticks, the sequential R=1 population
    chain and adversarial batch runs, so per-step Python overhead (the
    engine loop, stopping check, adversary and its contract check)
    dominates.
``service-sweep`` (infrastructure-bound)
    An in-process service with 2 workers and 2 closed-loop clients
    submitting 2-point sweeps, alternately new (cold: measured, cached,
    stamped) and repeated (warm: served from the cache).  Compute per
    job is milliseconds, so the store, HTTP, queue wait, cache I/O and
    the provenance chain, pre-filled with about 2,000 points, dominate.

Every input derives from the run's ``--seed``; the program receives
only the generated specs and jobs.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

#: A spec's median consensus time must lie within this factor of its
#: reference median: the median over seeds 1-5 of this benchmark's first
#: pass, where each seed's median lay within 10% of it.
MEDIAN_BAND = 1.25


@dataclass(frozen=True)
class Case:
    """One spec of a simulation workload."""

    label: str
    params: dict
    replicas: int
    measure: str
    reference_median: float


FEW_LARGE_STEPS = (
    Case("3-majority-k316",
         {"dynamics": "3-majority", "n": 100_000, "k": 316},
         64, "batch", 201.0),
    Case("3-majority-k2000",
         {"dynamics": "3-majority", "n": 100_000, "k": 2000},
         64, "batch", 275.0),
    Case("2-choices-k256",
         {"dynamics": "2-choices", "n": 100_000, "k": 256},
         64, "batch", 585.0),
    Case("5-majority-k16",
         {"dynamics": "5-majority", "n": 20_000, "k": 16},
         16, "batch", 19.0),
    Case("agent-3-majority-rr15",
         {"dynamics": "3-majority", "n": 20_000, "k": 16,
          "graph": "random-regular", "degree": 15},
         32, "batch", 59.0),
)

#: Near-consensus adversarial specs stop at all but 4F vertices.
MANY_SMALL_STEPS = (
    Case("async-3-majority",
         {"dynamics": "3-majority", "n": 1000, "k": 8, "engine": "async"},
         32, "batch", 21.5),
    Case("async-2-choices",
         {"dynamics": "2-choices", "n": 1000, "k": 8, "engine": "async"},
         32, "batch", 28.0),
    Case("population-2-choices",
         {"dynamics": "2-choices", "n": 10_000, "k": 64},
         16, "sequential", 145.0),
    Case("population-3-majority",
         {"dynamics": "3-majority", "n": 10_000, "k": 64},
         64, "sequential", 70.5),
    Case("adversary-2-choices-runner-up",
         {"dynamics": "2-choices", "n": 10_000, "k": 64,
          "adversary": "support-runner-up", "adversary_budget": 10},
         64, "batch", 164.5),
    Case("adversary-3-majority-random",
         {"dynamics": "3-majority", "n": 10_000, "k": 64,
          "adversary": "random", "adversary_budget": 10},
         64, "batch", 69.0),
)


@dataclass
class Execution:
    """Outcome of one timed unit: a spec run or a service pass."""

    elapsed: float
    rounds: float
    operations: int
    latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    #: Exact outputs, compared between a traced and an untraced unit.
    outputs: list = field(default_factory=list)
    #: Tracer thread id of a service client loop (-1 when untraced).
    thread: int = -1
    #: The per-client executions a service pass merges.
    parts: list = field(default_factory=list)


class SpecWorkload:
    """Repeated passes over a fixed list of simulation specs."""

    def __init__(self, cases, seed: int) -> None:
        self.cases = cases
        self.seed = seed
        self.inputs = len(cases)

    def setup(self) -> None:
        """Imports plus one build of every spec (and its graph)."""
        from repro.simulation import run as simulation_run
        from repro.sweep import grid

        self._grid = grid
        self._run = simulation_run
        for index in range(len(self.cases)):
            self._spec(index, 0)

    def _spec(self, index: int, pass_index: int):
        case = self.cases[index]
        return self._grid.spec_from_params(
            case.params,
            replicas=case.replicas,
            seed=(self.seed, pass_index, index),
            measure=case.measure,
        )

    def execute(self, index: int, pass_index: int, tracer=None):
        """Run spec ``index`` with the seed of pass ``pass_index``."""
        if tracer is not None:
            tracer.set_key(self.cases[index].label)
        started = time.perf_counter()
        results = self._run.execute(self._spec(index, pass_index))
        elapsed = time.perf_counter() - started
        rounds = [result.rounds for result in results]
        return Execution(
            elapsed=elapsed,
            rounds=float(sum(rounds)),
            operations=1,
            failures=self._check(self.cases[index], results, rounds),
            outputs=rounds,
            thread=-1 if tracer is None else tracer.thread_id(),
        )

    @staticmethod
    def latencies(executions) -> list[float]:
        """One latency per spec: its mean execution time.

        The specs differ in size by up to 50x, so quantiles over raw
        executions fall into the gaps between specs and jump with
        noise; one sample per spec keeps them on a spec's own time.
        """
        by_spec: dict[int, list[float]] = {}
        for index, execution in executions:
            by_spec.setdefault(index, []).append(execution.elapsed)
        return [statistics.fmean(times) for times in by_spec.values()]

    def _check(self, case: Case, results, rounds) -> list[str]:
        from repro.adversary import near_consensus_threshold

        n = case.params["n"]
        budget = case.params.get("adversary_budget", 0)
        leader_floor = near_consensus_threshold(n, budget)
        failures = []
        for replica, result in enumerate(results):
            counts = result.final_counts
            if int(counts.sum()) != n or (counts < 0).any():
                failures.append(f"{case.label}[{replica}]: mass not kept")
            if not result.converged:
                failures.append(f"{case.label}[{replica}]: over budget")
            elif int(counts.max()) < leader_floor:
                failures.append(f"{case.label}[{replica}]: no consensus")
        median = statistics.median(rounds)
        reference = case.reference_median
        if not reference / MEDIAN_BAND <= median <= reference * MEDIAN_BAND:
            failures.append(
                f"{case.label}: median consensus time {median} outside "
                f"[{reference / MEDIAN_BAND:.1f}, "
                f"{reference * MEDIAN_BAND:.1f}]"
            )
        return failures

    def close(self) -> None:
        pass


#: Cache fixture: 200 x 10 cheap points measured before timing starts,
#: so every stamp appends to a chain of about 2,000 manifests.
FIXTURE_GRID = {"n": list(range(100, 300)), "k": list(range(2, 12))}
FIXTURE_SEED = 20_250_617
#: Jobs per client per pass: alternately cold and warm.
JOBS_PER_CLIENT = 10
CLIENTS = 2
WORKERS = 2
#: Cold jobs draw their ``n`` without replacement from this range,
#: disjoint from the fixture's, so a cold job never hits the cache.
COLD_N = (1000, 40_000)


class ServiceWorkload:
    """Closed-loop clients against an in-process simulation service."""

    #: Every pass repeats the same closed loop: one input.
    inputs = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.service = None
        self._tmp = None
        self._traced_cache = None

    def setup(self) -> None:
        """Imports, service start on a fresh store and one warm-up job."""
        import numpy as np

        from repro.service import ServiceClient, SimulationService

        self._tmp = Path(tempfile.mkdtemp(dir=self.workdir))
        self.cache = self._tmp / "cache"
        self.service = SimulationService(
            self._tmp / "jobs.sqlite",
            cache_dir=self.cache,
            port=0,
            num_workers=WORKERS,
        ).start()
        self.clients = [
            ServiceClient(self.service.url, client_id=f"client-{index}")
            for index in range(CLIENTS)
        ]
        self._warm_up(self.clients[0])
        rng = np.random.default_rng([self.seed, 1])
        self._cold_n = rng.permutation(np.arange(*COLD_N)).tolist()

    @staticmethod
    def _warm_up(client) -> None:
        """One job end to end, polled tightly.

        ``ServiceClient.wait`` sleeps 25-75 ms between polls, which
        would make set-up time jump by whole poll intervals.
        """
        job_id = client.submit({
            "grid": {"n": [64], "k": [2]}, "num_runs": 2, "seed": 0,
        })
        deadline = time.monotonic() + 60
        while client.status(job_id)["state"] in ("queued", "running"):
            if time.monotonic() > deadline:
                raise TimeoutError(f"warm-up job {job_id} did not finish")
            time.sleep(0.002)
        client.result(job_id)

    @staticmethod
    def latencies(executions) -> list[float]:
        """Every job's time from submit to result."""
        return [
            latency
            for _, execution in executions
            for latency in execution.latencies
        ]

    def build_fixture(self, traced: bool) -> None:
        """Fill the result cache and its provenance chain (not timed).

        With ``traced``, traced passes get a copy of the filled cache,
        so they measure the same cold and warm jobs as untraced ones.
        """
        from repro.sweep import SweepSpec, run_sweep

        run_sweep(
            SweepSpec(grid=FIXTURE_GRID, num_runs=2, seed=FIXTURE_SEED),
            cache_dir=self.cache,
        )
        if traced:
            self._traced_cache = self._tmp / "cache-traced"
            shutil.copytree(self.cache, self._traced_cache)

    def chain_length(self) -> int:
        """Manifests in the untraced cache's provenance chain."""
        return sum(1 for _ in (self.cache / "provenance").glob("manifest-*"))

    def _job(self, n: int) -> dict:
        return {
            "grid": {"n": [n], "k": [4, 8]},
            "fixed": {"dynamics": "3-majority"},
            "num_runs": 8,
            "seed": self.seed,
            "measure": "batch",
        }

    def execute(self, index: int, pass_index: int, tracer=None):
        """One pass: every client runs its closed loop of jobs."""
        self.service.fleet.cache_dir = (
            self.cache if tracer is None else self._traced_cache
        )
        outcomes = [Execution(0.0, 0.0, 0) for _ in range(CLIENTS)]
        threads = [
            threading.Thread(
                target=self._client_loop,
                args=(client, pass_index, outcomes[client], tracer),
                name=f"bench-client-{client}",
            )
            for client in range(CLIENTS)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(150)
        elapsed = time.perf_counter() - started
        merged = Execution(elapsed, 0.0, 0, parts=outcomes)
        for thread, outcome in zip(threads, outcomes):
            if thread.is_alive():
                merged.failures.append(f"{thread.name} did not finish")
            merged.rounds += outcome.rounds
            merged.operations += outcome.operations
            merged.latencies += outcome.latencies
            merged.failures += outcome.failures
            merged.outputs.append(outcome.outputs)
        return merged

    def _client_loop(self, client, pass_index, out: Execution, tracer):
        if tracer is not None:
            out.thread = tracer.thread_id()
        service_client = self.clients[client]
        started = time.perf_counter()
        cold = None
        for job_index in range(JOBS_PER_CLIENT):
            out.operations += 1
            if job_index % 2 == 0:
                slot = (pass_index * CLIENTS + client) * JOBS_PER_CLIENT
                spec = self._job(self._cold_n[slot + job_index])
                cold = None
            elif cold is None:
                out.failures.append("warm job skipped: its cold job failed")
                continue
            else:
                spec = cold["spec"]
            submitted = time.perf_counter()
            try:
                result = service_client.wait(
                    service_client.submit(spec), timeout=60
                )
            except Exception as exc:  # a failed job is counted, not fatal
                out.failures.append(f"job {spec['grid']}: {exc!r}")
                continue
            out.latencies.append(time.perf_counter() - submitted)
            values = [point["values"] for point in result["points"]]
            out.outputs.append(values)
            failure = self._check(result, cold)
            if failure:
                out.failures.append(failure)
            elif job_index % 2 == 0:
                cold = {"spec": spec, "values": values}
                out.rounds += sum(map(sum, values))
        out.elapsed = time.perf_counter() - started

    @staticmethod
    def _check(result, cold) -> str | None:
        """Why a job's result is wrong, or ``None``.

        ``cold`` is the cold job a warm job repeats (``None`` for a
        cold job): the warm result must equal it exactly.
        """
        points = result["points"]
        if result["state"] != "done":
            return f"job ended {result['state']}"
        if len(points) != 2:
            return f"expected 2 points, got {len(points)}"
        for point in points:
            if point["error"] or len(point["values"]) != 8:
                return f"point {point['params']} failed: {point['error']}"
            if None in point["values"]:
                return f"point {point['params']} censored"
        if cold is not None and [p["values"] for p in points] != cold["values"]:
            return "warm result differs from its cold result"
        return None

    def close(self) -> None:
        if self.service is not None:
            self.service.shutdown(drain_timeout=60)
        if self._tmp is not None:
            shutil.rmtree(self._tmp, ignore_errors=True)
