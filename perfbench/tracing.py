"""In-memory span tracer that wraps the simulator's public callables.

The benchmark measures every layer from outside: :meth:`Tracer.install`
replaces the public functions and methods listed in :func:`_patches`
with thin wrappers, and :meth:`Tracer.uninstall` puts the originals
back, so an untraced unit runs exactly the unmodified program.

Each wrapper records one span: its name, start, end, parent (the
innermost open span on the same thread), thread, the timed unit it ran
in (``epoch``), a correlation key (spec label or service job id) and an
integer of work (rows stepped, replicas, grid points).  Spans live in
flat ``array`` columns and are written out by :meth:`Tracer.save` when
the run ends; :func:`layer_metrics` turns them into per-layer metrics.
A span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
import time
import types
from array import array
from collections import defaultdict
from pathlib import Path

DYNAMICS = ("3-majority", "2-choices", "5-majority")
ENGINES = ("batch", "agent-batch", "async-batch", "population")
STORE_OPS = ("submit", "lease_next", "record_heartbeat", "complete")
CLIENT_OPS = ("submit", "status", "result")

#: Epoch of spans recorded during set-up.  Timed units count from 0;
#: spans recorded between units carry ``IDLE`` and are ignored.
SETUP = -2
IDLE = -1


def dynamics_label(dynamics) -> str:
    """Metric suffix of a dynamics: ``5-majority``, not its display name."""
    h = getattr(dynamics, "h", None)
    return f"{h}-majority" if h is not None else dynamics.name


def _rows(matrix) -> int:
    shape = getattr(matrix, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


class Tracer:
    """Span recorder plus the set of patches that feed it."""

    def __init__(self) -> None:
        self.epoch = IDLE
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        #: Layer group of each name: the part before ``/``.
        self._group_of: list[str] = []
        self.keys: list[str] = [""]
        self._key_ids: dict[str, int] = {"": 0}
        self._threads: dict[int, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.key = array("i")
        self.tid = array("i")
        self.span_epoch = array("i")
        self.work = array("q")
        #: 1 when no span of the same group is open on the thread, so
        #: nested helpers (a sampler calling a sampler) count once.
        self.outer = array("b")
        #: ``(epoch, counter) -> value`` for counts that are not spans.
        self.counters: dict[tuple[int, str], int] = defaultdict(int)
        self._installed: list | None = None

    # -- recording ---------------------------------------------------

    def _name_id(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            with self._lock:
                index = self._name_ids.setdefault(name, len(self.names))
                if index == len(self.names):
                    self.names.append(name)
                    self._group_of.append(name.partition("/")[0])
        return index

    def _key_id(self, key) -> int:
        key = "" if key is None else str(key)
        index = self._key_ids.get(key)
        if index is None:
            with self._lock:
                index = self._key_ids.setdefault(key, len(self.keys))
                if index == len(self.keys):
                    self.keys.append(key)
        return index

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.depth = defaultdict(int)
            local.key = 0
            with self._lock:
                local.tid = self._threads.setdefault(
                    threading.get_ident(), len(self._threads)
                )
        return local

    def thread_id(self) -> int:
        """Small integer id of the calling thread in the span table."""
        return self._state().tid

    def set_key(self, key) -> None:
        """Correlation key for spans opened on this thread from now on."""
        self._state().key = self._key_id(key)

    def count(self, counter: str, value: int = 1) -> None:
        with self._lock:
            self.counters[(self.epoch, counter)] += value

    def _open(self, local, name_id: int, work: int) -> int:
        group = self._group_of[name_id]
        depth = local.depth[group]
        local.depth[group] = depth + 1
        with self._lock:
            index = len(self.start)
            self.name.append(name_id)
            self.parent.append(local.stack[-1] if local.stack else -1)
            self.key.append(local.key)
            self.tid.append(local.tid)
            self.span_epoch.append(self.epoch)
            self.work.append(work)
            self.outer.append(depth == 0)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        local.stack.append(index)
        return index

    def _close(self, local, index: int) -> None:
        self.end[index] = time.perf_counter()
        local.stack.pop()
        local.depth[self._group_of[self.name[index]]] -= 1

    def wrap(self, fn, name, *, work=None, key_arg=None, key_result=None,
             errors=()):
        """A span-recording stand-in for ``fn``.

        ``name`` is a span name, or a callable ``args -> name`` for
        methods whose name depends on the instance.  ``work`` maps the
        arguments to the span's work integer.  ``key_arg`` maps the
        arguments to a correlation key carried by the span and by every
        span nested under it on this thread; ``key_result`` maps the
        return value to the span's own key.  Exceptions of the types in
        ``errors`` are counted as ``<name>.errors``.
        """
        tracer = self
        static_id = None if callable(name) else self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name_id = (
                static_id if static_id is not None
                else tracer._name_id(name(args))
            )
            local = tracer._state()
            saved_key = local.key
            if key_arg is not None:
                local.key = tracer._key_id(key_arg(args))
            index = tracer._open(local, name_id, work(args) if work else 0)
            try:
                result = fn(*args, **kwargs)
            except errors:
                tracer.count(f"{tracer.names[name_id]}.errors")
                raise
            finally:
                tracer._close(local, index)
                local.key = saved_key
            if key_result is not None:
                tracer.key[index] = tracer._key_id(key_result(result))
            return result

        return wrapper

    def wrap_async_step(self, fn):
        """Async tick wrapper that also counts ticks that moved a vertex."""
        tracer = self
        inner = self.wrap(
            fn,
            lambda args: f"core.step/{dynamics_label(args[0])}",
            work=lambda args: _rows(args[1]),
        )

        @functools.wraps(fn)
        def wrapper(dynamics, counts, rng):
            before = counts.copy()
            after = inner(dynamics, counts, rng)
            label = dynamics_label(dynamics)
            tracer.count(f"async.ticks/{label}", before.shape[0])
            tracer.count(
                f"async.nonnull/{label}",
                int((after != before).any(axis=1).sum()),
            )
            return after

        return wrapper

    # -- installation ------------------------------------------------

    def install(self) -> None:
        """Swap every traced callable for its wrapper."""
        if self._installed is None:
            self._installed = _with_reexports(list(_patches(self)))
        for patch in self._installed:
            patch.apply()

    def uninstall(self) -> None:
        for patch in self._installed or ():
            patch.restore()

    # -- output ------------------------------------------------------

    def save(self, path: Path) -> None:
        """Write every span and the name/key tables as one ``.npz``."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            keys=np.array(self.keys),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            key=np.frombuffer(self.key, dtype=np.int32),
            tid=np.frombuffer(self.tid, dtype=np.int32),
            epoch=np.frombuffer(self.span_epoch, dtype=np.int32),
            work=np.frombuffer(self.work, dtype=np.int64),
        )


class _AttrPatch:
    def __init__(self, owner, attr: str, replacement) -> None:
        self.owner = owner
        self.attr = attr
        self.original = vars(owner)[attr]
        self.replacement = replacement

    def apply(self) -> None:
        setattr(self.owner, self.attr, self.replacement)

    def restore(self) -> None:
        setattr(self.owner, self.attr, self.original)


class _EnginePatch:
    """Swap a registered engine's runner.

    ``EngineInfo`` is frozen, so the entry is re-registered with the
    same capabilities through the public ``register_engine``.
    """

    def __init__(self, info, replacement) -> None:
        self.info = info
        self.replacement = replacement

    def _register(self, run) -> None:
        from repro.engine import register_engine

        info = self.info
        register_engine(
            info.name,
            run,
            description=info.description,
            supports_graph=info.supports_graph,
            supports_target=info.supports_target,
            supports_observers=info.supports_observers,
            supports_adversary=info.supports_adversary,
            replace=True,
        )

    def apply(self) -> None:
        self._register(self.replacement)

    def restore(self) -> None:
        self._register(self.info.run)


def _with_reexports(patches: list) -> list:
    """Add a patch for every ``from ... import`` binding of a function.

    A module that imported a traced function holds its own reference,
    so the binding is replaced in every ``repro`` module that has it.
    """
    functions = {
        id(p.original): p
        for p in patches
        if isinstance(p, _AttrPatch) and isinstance(p.owner, types.ModuleType)
    }
    seen = {(id(p.owner), p.attr) for p in patches if isinstance(p, _AttrPatch)}
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            patch = functions.get(id(value))
            if (
                patch is not None
                and patch.original is value
                and (id(module), attr) not in seen
            ):
                seen.add((id(module), attr))
                patches.append(_AttrPatch(module, attr, patch.replacement))
    return patches


def _patches(tracer: Tracer):
    """One patch per traced callable, grouped by layer."""
    from repro import core, engine
    from repro.adversary import base as adversary_base
    from repro.adversary import strategies, tolerance
    from repro.core import base as core_base
    from repro.core import h_majority
    from repro.errors import StoreBusyError
    from repro.graphs import generators
    from repro.provenance import chain
    from repro.service import client, store, workers
    from repro.simulation import run as simulation_run
    from repro.simulation import spec as simulation_spec
    from repro.sweep import grid

    wrap = tracer.wrap

    # core: the samplers, the law-side counting pass, the step methods
    # of every catalogue dynamics and the stopping checks.
    for helper in (
        "batch_multinomial_counts",
        "batch_binomial",
        "multinomial_counts",
        "sample_opinions_from_counts_batch",
        "batch_categorical",
        "sample_holders_batch",
        "sample_and_gather_neighbor_opinions_batch",
    ):
        yield _AttrPatch(
            core_base, helper, wrap(getattr(core_base, helper), "core.draw")
        )
    yield _AttrPatch(
        h_majority,
        "majority_winners",
        wrap(h_majority.majority_winners, "core.majority_winners"),
    )
    step_name = lambda args: f"core.step/{dynamics_label(args[0])}"  # noqa: E731
    step_rows = lambda args: _rows(args[1])  # noqa: E731
    catalogue = (
        core.ThreeMajority,
        core.TwoChoices,
        core.HMajority,
        core.Voter,
        core.MedianRule,
        core.UndecidedStateDynamics,
    )
    for cls in catalogue:
        methods = vars(cls)
        for method in (
            "population_step", "population_step_batch", "agent_step_batch",
        ):
            if method in methods:
                yield _AttrPatch(
                    cls, method,
                    wrap(methods[method], step_name, work=step_rows),
                )
        if "async_population_step_batch" in methods:
            yield _AttrPatch(
                cls, "async_population_step_batch",
                tracer.wrap_async_step(methods["async_population_step_batch"]),
            )
    for cls in (core_base.Dynamics, *catalogue):
        for method in (
            "consensus_mask_batch", "consensus_mask_agents",
            "is_consensus_counts",
        ):
            if method in vars(cls):
                yield _AttrPatch(
                    cls, method,
                    wrap(vars(cls)[method], "core.consensus_check"),
                )
    for method in ("batch", "__call__"):
        yield _AttrPatch(
            tolerance.LeaderThresholdTarget, method,
            wrap(
                vars(tolerance.LeaderThresholdTarget)[method],
                "core.consensus_check",
            ),
        )

    # adversary
    for cls in (
        adversary_base.Adversary,
        strategies.RandomCorruption,
        strategies.SupportRunnerUp,
        strategies.ReviveWeakest,
    ):
        if "corrupt_batch" in vars(cls):
            yield _AttrPatch(
                cls, "corrupt_batch",
                wrap(vars(cls)["corrupt_batch"], "adversary.corrupt"),
            )
    for contract in (
        "enforce_corruption_contract_batch", "enforce_corruption_contract",
    ):
        yield _AttrPatch(
            adversary_base, contract,
            wrap(getattr(adversary_base, contract), "adversary.contract"),
        )

    # engine: the registry runner and the per-round (per-tick) step.
    for cls, label in (
        (engine.BatchPopulationEngine, "batch"),
        (engine.BatchAgentEngine, "agent-batch"),
        (engine.AsyncBatchPopulationEngine, "async-batch"),
        (engine.PopulationEngine, "population"),
    ):
        yield _AttrPatch(
            cls, "step",
            wrap(
                vars(cls)["step"],
                f"engine.step/{label}",
                work=lambda args: getattr(args[0], "num_replicas", 1),
            ),
        )
        info = engine.get_engine(label)
        yield _EnginePatch(
            info,
            wrap(
                info.run,
                f"engine.run/{label}",
                work=lambda args: int(args[0].replicas),
            ),
        )

    # simulation and graphs
    yield _AttrPatch(
        simulation_run, "execute",
        wrap(simulation_run.execute, "simulation.execute"),
    )
    yield _AttrPatch(
        simulation_spec.SimulationSpec, "__init__",
        wrap(
            vars(simulation_spec.SimulationSpec)["__init__"],
            "simulation.spec_build",
        ),
    )
    yield _AttrPatch(
        grid, "spec_from_params",
        wrap(grid.spec_from_params, "simulation.spec_build"),
    )
    yield _AttrPatch(
        generators, "make_graph",
        wrap(generators.make_graph, "graphs.build"),
    )

    # sweep and provenance
    yield _AttrPatch(
        grid, "run_sweep",
        wrap(grid.run_sweep, "sweep.run",
             work=lambda args: len(args[0].points())),
    )
    yield _AttrPatch(
        grid, "consensus_times_point_batch",
        wrap(grid.consensus_times_point_batch, "sweep.measure"),
    )
    yield _AttrPatch(
        chain, "record_artifact",
        wrap(chain.record_artifact, "provenance.stamp"),
    )

    # service
    yield _AttrPatch(
        workers, "run_sweep_job",
        wrap(workers.run_sweep_job, "service.job_exec",
             key_arg=lambda args: args[0].id),
    )
    job_id = lambda job: None if job is None else job.id  # noqa: E731
    for op in STORE_OPS:
        yield _AttrPatch(
            store.JobStore, op,
            wrap(
                vars(store.JobStore)[op],
                f"service.store/{op}",
                key_result=job_id if op in ("submit", "lease_next") else None,
                errors=StoreBusyError,
            ),
        )
    yield _AttrPatch(
        client.ServiceClient, "submit",
        wrap(vars(client.ServiceClient)["submit"], "service.client/submit",
             key_result=lambda job: job),
    )
    for op in ("status", "result"):
        yield _AttrPatch(
            client.ServiceClient, op,
            wrap(vars(client.ServiceClient)[op], f"service.client/{op}",
                 key_arg=lambda args: args[1]),
        )


# -- analysis ------------------------------------------------------------

#: Metrics reported from the first pass only: they repeat exactly for a
#: given seed, so a change in them is a change in the work done.
_FIRST_PASS_COUNTS = (
    "core.step_calls.",
    "core.consensus_check_calls",
    "engine.steps.",
    "sweep.points",
    "provenance.stamp_calls",
    "service.store_calls.",
)


def layer_metrics(tracer: Tracer, units) -> dict[str, float]:
    """Per-layer metrics from the recorded spans.

    ``units`` lists the traced timed units as ``(epoch, group, first)``:
    ``group`` names the repeated input (a spec, or the service pass) and
    ``first`` marks the units of the first pass.  Times are per pass —
    the mean over a group's units, summed over groups.  Counts are the
    first pass's.  Ratios pool every unit.  Spec and graph build times
    come from the traced set-up.
    """
    names, name = tracer.names, tracer.name
    start, end, parent = tracer.start, tracer.end, tracer.parent
    span_epoch, work, outer = tracer.span_epoch, tracer.work, tracer.outer
    total = len(start)
    duration = [end[i] - start[i] for i in range(total)]
    child_time = [0.0] * total
    step_of = [-1] * total
    run_of = [-1] * total
    for i in range(total):
        p = parent[i]
        label = names[name[i]]
        if p >= 0:
            child_time[p] += duration[i]
            step_of[i] = step_of[p]
            run_of[i] = run_of[p]
        if label.startswith("core.step/"):
            step_of[i] = i
        elif label.startswith("engine.run/"):
            run_of[i] = i

    units = list(units)
    per_unit = {epoch: defaultdict(float) for epoch, _, _ in units}
    setup = defaultdict(float)
    submitted: dict[int, float] = {}
    leased: dict[int, float] = {}
    for i in range(total):
        group, _, suffix = names[name[i]].partition("/")
        own = duration[i] - child_time[i]
        if span_epoch[i] == SETUP:
            if group == "simulation.spec_build":
                setup["simulation.spec_build_s"] += own
            elif group == "graphs.build" and outer[i]:
                setup["graphs.build_s"] += duration[i]
            continue
        acc = per_unit.get(span_epoch[i])
        if acc is None:
            continue
        if group == "core.step" and outer[i]:
            acc[f"core.step_s.{suffix}"] += duration[i]
            acc[f"core.step_calls.{suffix}"] += 1
            if run_of[i] >= 0:
                engine_name = names[name[run_of[i]]].partition("/")[2]
                acc[f"rows.{engine_name}"] += work[i]
        elif group == "core.draw" and outer[i] and step_of[i] >= 0:
            dyn = names[name[step_of[i]]].partition("/")[2]
            acc[f"core.draw_s.{dyn}"] += duration[i]
        elif group in (
            "core.majority_winners", "core.consensus_check",
            "adversary.corrupt", "adversary.contract",
            "provenance.stamp",
        ) and outer[i]:
            acc[f"{group}_s"] += duration[i]
            acc[f"{group}_calls"] += 1
        elif group == "engine.run":
            acc[f"engine.run_s.{suffix}"] += duration[i]
            acc[f"engine.self_s.{suffix}"] += own
        elif group == "engine.step":
            acc[f"engine.steps.{suffix}"] += 1
            acc[f"engine.self_s.{suffix}"] += own
            acc[f"slots.{suffix}"] += work[i]
        elif group == "simulation.execute":
            acc["simulation.dispatch_s"] += own
        elif group == "sweep.run" and outer[i]:
            acc["sweep.run_s"] += duration[i]
            acc["sweep.self_s"] += own
            acc["sweep.points_total"] += work[i]
        elif group == "sweep.measure" and outer[i]:
            acc["sweep.points_measured"] += 1
        elif group == "service.job_exec":
            acc["service.job_exec_s"] += duration[i]
        elif group == "service.store":
            acc[f"service.store_s.{suffix}"] += duration[i]
            acc[f"service.store_calls.{suffix}"] += 1
            if suffix == "submit":
                submitted[tracer.key[i]] = end[i]
            elif suffix == "lease_next" and tracer.key[i]:
                leased[tracer.key[i]] = end[i]
        elif group == "service.client":
            acc[f"service.client_request_s.{suffix}"] += duration[i]
            acc[f"client_calls.{suffix}"] += 1
    for (counter_epoch, counter), value in tracer.counters.items():
        if counter_epoch in per_unit:
            per_unit[counter_epoch][counter] += value

    by_group = defaultdict(list)
    for epoch, group, _first in units:
        by_group[group].append(epoch)
    first = [epoch for epoch, _group, is_first in units if is_first]

    def per_pass(key: str) -> float:
        if key.startswith(_FIRST_PASS_COUNTS):
            return int(sum(per_unit[e].get(key, 0) for e in first))
        return sum(
            statistics.fmean(per_unit[e].get(key, 0.0) for e in epochs)
            for epochs in by_group.values()
        )

    def pooled(key: str) -> float:
        return sum(acc.get(key, 0) for acc in per_unit.values())

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics: dict[str, float] = {}
    for dyn in DYNAMICS:
        step = per_pass(f"core.step_s.{dyn}")
        draw = per_pass(f"core.draw_s.{dyn}")
        metrics[f"core.step_s.{dyn}"] = step
        metrics[f"core.step_calls.{dyn}"] = per_pass(f"core.step_calls.{dyn}")
        metrics[f"core.draw_s.{dyn}"] = draw
        metrics[f"core.law_s.{dyn}"] = step - draw
    metrics["core.majority_winners_s"] = per_pass("core.majority_winners_s")
    metrics["core.consensus_check_s"] = per_pass("core.consensus_check_s")
    metrics["core.consensus_check_calls"] = per_pass(
        "core.consensus_check_calls"
    )
    for dyn in ("3-majority", "2-choices"):
        metrics[f"core.async_nonnull_tick_ratio.{dyn}"] = ratio(
            pooled(f"async.nonnull/{dyn}"), pooled(f"async.ticks/{dyn}")
        )
    for engine_name in ENGINES:
        steps = per_pass(f"engine.steps.{engine_name}")
        self_s = per_pass(f"engine.self_s.{engine_name}")
        metrics[f"engine.run_s.{engine_name}"] = per_pass(
            f"engine.run_s.{engine_name}"
        )
        metrics[f"engine.steps.{engine_name}"] = steps
        metrics[f"engine.self_s.{engine_name}"] = self_s
        metrics[f"engine.self_us_per_step.{engine_name}"] = 1e6 * ratio(
            self_s, steps
        )
        metrics[f"engine.active_row_ratio.{engine_name}"] = ratio(
            pooled(f"rows.{engine_name}"), pooled(f"slots.{engine_name}")
        )
    metrics["adversary.corrupt_s"] = per_pass("adversary.corrupt_s")
    metrics["adversary.contract_s"] = per_pass("adversary.contract_s")
    metrics["simulation.spec_build_s"] = setup["simulation.spec_build_s"]
    metrics["simulation.dispatch_s"] = per_pass("simulation.dispatch_s")
    metrics["graphs.build_s"] = setup["graphs.build_s"]

    for op in CLIENT_OPS:
        metrics[f"service.client_request_s.{op}"] = per_pass(
            f"service.client_request_s.{op}"
        )
    metrics["service.polls_per_job"] = ratio(
        pooled("client_calls.status"), pooled("client_calls.submit")
    )
    for op in STORE_OPS:
        metrics[f"service.store_s.{op}"] = per_pass(f"service.store_s.{op}")
        metrics[f"service.store_calls.{op}"] = per_pass(
            f"service.store_calls.{op}"
        )
    metrics["service.store_busy_errors"] = sum(
        pooled(f"service.store/{op}.errors") for op in STORE_OPS
    )
    waits = [
        1e3 * (leased[key] - submitted[key])
        for key in leased
        if key in submitted
    ]
    metrics["service.queue_wait_ms_p50"] = (
        statistics.median(waits) if waits else 0.0
    )
    metrics["service.job_exec_s"] = per_pass("service.job_exec_s")
    measured = per_pass("sweep.points_measured")
    metrics["sweep.run_s"] = per_pass("sweep.run_s")
    metrics["sweep.points_measured"] = measured
    metrics["sweep.points_cached"] = per_pass("sweep.points_total") - measured
    metrics["sweep.cache_hit_ratio"] = ratio(
        pooled("sweep.points_total") - pooled("sweep.points_measured"),
        pooled("sweep.points_total"),
    )
    metrics["sweep.self_s"] = per_pass("sweep.self_s")
    metrics["provenance.stamp_s"] = per_pass("provenance.stamp_s")
    metrics["provenance.stamps"] = per_pass("provenance.stamp_calls")
    return metrics


def root_times(tracer: Tracer) -> dict[tuple[int, int], float]:
    """Time covered by root spans, per ``(epoch, thread)``."""
    covered: dict[tuple[int, int], float] = defaultdict(float)
    for i in range(len(tracer.start)):
        if tracer.parent[i] < 0:
            covered[(tracer.span_epoch[i], tracer.tid[i])] += (
                tracer.end[i] - tracer.start[i]
            )
    return covered
