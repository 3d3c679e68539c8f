"""The one registry contract, checked on every registry in the package.

Engines, compute backends, invariants, lint rules and fault points are
all :class:`repro.registry.Registry` tables behind their public
``register_*`` / ``get_*`` / ``available_*`` / ``unregister_*`` names.
Each case below drives one of them through those public names with a
throwaway entry, so a kind that drifts from the shared policy (name
check, duplicate rule, unknown-name message, unregister behaviour)
fails here.  Kind-specific rules (lint severity, the reserved backend
name, engine capability flags) stay in the per-kind test modules.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import pytest

from repro.backends import (
    available_backends,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.engine import (
    available_engines,
    get_engine,
    register_engine,
    unregister_engine,
)
from repro.errors import ConfigurationError
from repro.faults import (
    FaultPoint,
    available_fault_points,
    declare_fault_point,
    get_fault_point,
    unregister_fault_point,
)
from repro.invariants import (
    available_invariants,
    get_invariant,
    register_invariant,
    unregister_invariant,
)
from repro.lint import (
    available_rules,
    get_rule,
    register_rule,
    unregister_rule,
)

PROBE = "contract-probe"


class _Backend:
    description = "contract probe"
    accelerates = frozenset()

    def __init__(self, name=PROBE):
        self.name = name

    def is_available(self):
        return True

    def kernel(self, name):
        return None


@dataclass
class _Named:
    """A minimal lint rule / invariant: ``name`` plus the kind's fields."""

    name: object
    description: str = "contract probe"
    severity: str = "warning"

    def check(self, _):
        return []


@dataclass(frozen=True)
class Kind:
    kind: str
    register: Callable  # (name, replace) -> entry
    get: Callable
    names: Callable
    unregister: Callable


KINDS = [
    Kind(
        "engine",
        lambda name, replace: register_engine(
            name, lambda spec: [], replace=replace
        ),
        get_engine,
        available_engines,
        unregister_engine,
    ),
    Kind(
        "backend",
        lambda name, replace: register_backend(
            name, lambda: _Backend(name), replace=replace
        ),
        get_backend,
        available_backends,
        unregister_backend,
    ),
    Kind(
        "invariant",
        lambda name, replace: register_invariant(
            _Named(name), replace=replace
        ),
        get_invariant,
        available_invariants,
        unregister_invariant,
    ),
    Kind(
        "lint rule",
        lambda name, replace: register_rule(_Named(name), replace=replace),
        get_rule,
        available_rules,
        unregister_rule,
    ),
    Kind(
        "fault point",
        lambda name, replace: declare_fault_point(
            FaultPoint(name, "contract probe"), replace=replace
        ),
        get_fault_point,
        available_fault_points,
        unregister_fault_point,
    ),
]


@pytest.fixture(params=KINDS, ids=lambda k: k.kind.replace(" ", "-"))
def kind(request):
    kind = request.param
    yield kind
    if PROBE in kind.names():
        kind.unregister(PROBE)


def test_add_get_and_list(kind):
    before = kind.names()
    kind.register(PROBE, False)
    assert kind.get(PROBE).name == PROBE
    assert kind.names() == sorted([*before, PROBE])


def test_duplicate_rejected_unless_replace(kind):
    kind.register(PROBE, False)
    with pytest.raises(
        ConfigurationError,
        match=f"{kind.kind} '{PROBE}' is already registered; "
        "pass replace=True",
    ):
        kind.register(PROBE, False)
    kind.register(PROBE, True)
    assert kind.names().count(PROBE) == 1


@pytest.mark.parametrize("name", ["", None, 7], ids=repr)
def test_bad_name_rejected(kind, name):
    before = kind.names()
    with pytest.raises(
        ConfigurationError, match=f"{kind.kind} name must be a non-empty"
    ):
        kind.register(name, False)
    assert kind.names() == before


def test_unknown_lookup_names_the_known_entries(kind):
    with pytest.raises(
        ConfigurationError, match=f"unknown {kind.kind} 'no-such-entry'"
    ) as excinfo:
        kind.get("no-such-entry")
    known = kind.names()
    assert known
    assert all(name in str(excinfo.value) for name in known)


def test_unregister_round_trip(kind):
    before = kind.names()
    kind.register(PROBE, False)
    kind.unregister(PROBE)
    assert kind.names() == before
    with pytest.raises(ConfigurationError, match=f"unknown {kind.kind}"):
        kind.get(PROBE)
    kind.register(PROBE, False)  # the name is free again


def test_unregister_unknown_raises(kind):
    before = kind.names()
    with pytest.raises(
        ConfigurationError, match=f"unknown {kind.kind} 'no-such-entry'"
    ):
        kind.unregister("no-such-entry")
    assert kind.names() == before
