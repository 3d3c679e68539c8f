"""Invariant registry: named, enumerable run-trace checks.

An invariant is registered under a short kebab-case name in a
:class:`repro.registry.Registry`, looked up by name and enumerated for
the harness and the tests; ``repro lint``'s *registry-completeness*
rule statically checks that every concrete invariant class in the
package is actually registered.

An invariant is any object satisfying :class:`Invariant`:

``name`` / ``description``
    Identity and a one-line human summary.
``check(trace)``
    Examine a recorded :class:`~repro.invariants.trace.RunTrace` and
    raise :class:`~repro.errors.InvariantViolation` (nothing else) on
    the first violation; return normally when the trace is clean.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.registry import Registry

__all__ = [
    "Invariant",
    "available_invariants",
    "check_trace",
    "get_invariant",
    "register_invariant",
    "unregister_invariant",
]


@runtime_checkable
class Invariant(Protocol):
    """Structural interface every registered invariant must satisfy."""

    name: str
    description: str

    def check(self, trace) -> None:  # pragma: no cover - protocol
        ...


_INVARIANTS: Registry[Invariant] = Registry("invariant")

#: Register an invariant under its ``name``; returns it.
register_invariant = _INVARIANTS.add
get_invariant = _INVARIANTS.get
available_invariants = _INVARIANTS.names
unregister_invariant = _INVARIANTS.unregister


def check_trace(trace, select: list[str] | None = None) -> None:
    """Run registered invariants over ``trace``.

    ``select`` names a subset (unknown names raise
    :class:`ConfigurationError`); the default runs every registered
    invariant in name order.  The first violation propagates as
    :class:`~repro.errors.InvariantViolation`.
    """
    names = available_invariants() if select is None else list(select)
    for name in names:
        get_invariant(name).check(trace)
