"""String-keyed engine registry: engines plug into the simulation API.

Historically :func:`repro.simulation.run.execute` dispatched on the
spec's ``engine`` string through an if/elif chain, which meant a new
engine had to touch three layers (the engine module, the dispatcher and
the spec validation).  This registry inverts that: each engine module
registers one :class:`EngineInfo` describing

* how to execute a :class:`~repro.simulation.spec.SimulationSpec` on
  that engine (``run``: a callable ``spec -> list[RunResult]``), and
* which spec dimensions the engine supports (``graph``, ``target``,
  ``observers``, ``adversary``) — the spec validates against these
  capability flags instead of hard-coding per-engine rules.

Registering an entry is the *only* step needed to expose a new engine:
``SimulationSpec(engine="name")`` validates against the entry's
capabilities, :func:`~repro.simulation.run.execute` dispatches through
it, and the CLI's ``--engine`` choices are built from
:func:`available_engines`.

The table itself is a :class:`repro.registry.Registry`, which owns the
name, duplicate, unknown-name and unregister policy shared by every
registry in the package.

The runner callables receive the spec duck-typed (this module must not
import :mod:`repro.simulation`, which sits above the engine layer), so
engine modules depend only on the engine/core/adversary layers.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.registry import Registry

__all__ = [
    "Engine",
    "EngineInfo",
    "available_engines",
    "get_engine",
    "register_engine",
    "unregister_engine",
]


@runtime_checkable
class Engine(Protocol):
    """Structural protocol of the sequential step-based engines.

    Anything exposing ``step()``, ``counts`` and ``round_index`` can be
    driven by :func:`~repro.engine.runner.run_until_consensus`; the
    population, agent and asynchronous engines conform (the
    asynchronous engine with ``round_index`` measured in
    synchronous-equivalent rounds).  The batch engines expose an
    ``(R, k)`` ``counts`` matrix instead and bring their own
    ``run_until_consensus``.
    """

    counts: object
    round_index: object

    def step(self):  # pragma: no cover - protocol signature only
        ...


@dataclass(frozen=True)
class EngineInfo:
    """One registered engine: spec runner plus capability flags.

    ``run`` executes every replica of a validated spec and returns the
    per-replica :class:`~repro.engine.runner.RunResult` list; the
    dispatcher wraps them into a ``ResultSet`` and applies the uniform
    ``on_budget`` policy.  The ``supports_*`` flags drive spec
    validation — a spec requesting an unsupported dimension fails at
    construction, not mid-run.
    """

    name: str
    run: Callable[[object], Sequence]
    description: str = ""
    supports_graph: bool = False
    supports_target: bool = False
    supports_observers: bool = False
    supports_adversary: bool = False


_ENGINES: Registry[EngineInfo] = Registry("engine")


def register_engine(
    name: str,
    run: Callable[[object], Sequence],
    *,
    description: str = "",
    supports_graph: bool = False,
    supports_target: bool = False,
    supports_observers: bool = False,
    supports_adversary: bool = False,
    replace: bool = False,
) -> EngineInfo:
    """Register an engine under ``name``; returns the registry entry.

    Names are case-sensitive spec strings (``"population"``,
    ``"batch"``, ...).

    Capability flags fail closed (all default ``False``): an engine
    must explicitly declare the spec dimensions its runner honours, so
    a runner that ignores ``spec.target`` or ``spec.adversary`` can
    never silently run the un-targeted, un-attacked chain.
    """
    info = EngineInfo(
        name=name,
        run=run,
        description=description,
        supports_graph=supports_graph,
        supports_target=supports_target,
        supports_observers=supports_observers,
        supports_adversary=supports_adversary,
    )
    return _ENGINES.register(name, info, replace=replace)


get_engine = _ENGINES.get
available_engines = _ENGINES.names
unregister_engine = _ENGINES.unregister
