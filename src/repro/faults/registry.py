"""String-keyed registry of named fault points.

A :class:`FaultPoint` is declared once under a dotted name
(``"store.transaction"``, ``"sweep.cache-write"``, ...) in a
:class:`repro.registry.Registry`, and armed call sites reference it by
that name via :func:`repro.faults.fault_point`.  The registry is the
single source of truth for

* which injection sites exist (:func:`available_fault_points`; the
  README table lists the same catalogue by hand),
* which fault *kinds* each site supports (a plan scheduling an
  unsupported kind is rejected at plan-construction time, not when the
  occurrence finally fires mid-run), and
* lint enforcement: ``repro lint``'s *registry-completeness* rule
  cross-checks that every declared point has at least one armed
  ``fault_point("<name>")`` call site in ``src/`` and vice versa.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.registry import Registry

__all__ = [
    "FAULT_KINDS",
    "FaultPoint",
    "available_fault_points",
    "declare_fault_point",
    "get_fault_point",
    "unregister_fault_point",
]

#: Every fault kind any point may support.
#:
#: ``error``
#:     Raise an exception (which one is chosen by the rule's ``error``
#:     factory name — see :data:`repro.faults.plan.ERROR_FACTORIES`).
#: ``delay``
#:     Sleep for the rule's ``delay`` seconds, then continue normally.
#: ``crash``
#:     Terminate the process immediately via ``os._exit`` — the
#:     simulated kill -9.  Only sensible in subprocess-based tests.
#: ``torn-write``
#:     Write a truncated prefix of the payload to the *final* path,
#:     then raise: the simulated power cut between write and rename.
#:     Only supported by points whose call site passes ``path`` and
#:     ``payload`` context.
FAULT_KINDS = ("error", "delay", "crash", "torn-write")


@dataclass(frozen=True)
class FaultPoint:
    """A named injection site woven into a production code path.

    ``name``
        Dotted identifier, ``<layer>.<site>`` by convention.
    ``description``
        One-line human description of where the point sits and what a
        fault there simulates.
    ``kinds``
        The subset of :data:`FAULT_KINDS` this site supports.  Plans
        referencing the point with an unsupported kind are rejected.
    ``context_keys``
        Names of the keyword context the armed call site supplies
        (e.g. ``("path", "payload")`` for torn writes) — documentation
        plus validation that ``torn-write`` is only declared where the
        required context exists.
    """

    name: str
    description: str
    kinds: tuple[str, ...] = ("error", "delay")
    context_keys: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        unknown = [k for k in self.kinds if k not in FAULT_KINDS]
        if unknown:
            raise ConfigurationError(
                f"fault point {self.name!r} declares unknown kinds "
                f"{unknown!r}; known kinds: {', '.join(FAULT_KINDS)}"
            )
        if not self.kinds:
            raise ConfigurationError(
                f"fault point {self.name!r} must support at least one kind"
            )
        if "torn-write" in self.kinds:
            missing = {"path", "payload"} - set(self.context_keys)
            if missing:
                raise ConfigurationError(
                    f"fault point {self.name!r} supports 'torn-write' but "
                    f"its call site does not supply {sorted(missing)!r} "
                    "context"
                )


_POINTS: Registry[FaultPoint] = Registry("fault point")

#: Register a point under its ``name``; returns it.
declare_fault_point = _POINTS.add
get_fault_point = _POINTS.get
available_fault_points = _POINTS.names
unregister_fault_point = _POINTS.unregister
