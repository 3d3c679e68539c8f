"""One generic string-keyed table behind every plug-in registry.

Engines (:mod:`repro.engine.registry`), compute backends
(:mod:`repro.backends.registry`), run invariants
(:mod:`repro.invariants.registry`), lint rules (:mod:`repro.lint.model`)
and fault points (:mod:`repro.faults.registry`) are each one
:class:`Registry` instance.  The registry owns the policy they share:

* a name is a non-empty string;
* registering a taken name raises unless ``replace=True``;
* looking up or unregistering an unknown name raises
  :class:`~repro.errors.ConfigurationError` listing the known names;
* names are listed in sorted order.

Each module adds only what is specific to its kind (building the entry,
validating it, invalidating caches) and binds its public
``get_*`` / ``available_*`` / ``unregister_*`` names straight to the
registry's methods where nothing else is needed.
"""

from __future__ import annotations

from typing import Generic, TypeVar

from repro.errors import ConfigurationError

__all__ = ["Registry"]

T = TypeVar("T")


class Registry(Generic[T]):
    """Name → entry table for one ``kind`` of plug-in (``"engine"``, ...)."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, T] = {}

    def register(self, name: str, entry: T, *, replace: bool = False) -> T:
        """Store ``entry`` under ``name``; returns the entry."""
        if not name or not isinstance(name, str):
            raise ConfigurationError(
                f"{self.kind} name must be a non-empty string, got {name!r}"
            )
        if name in self._entries and not replace:
            raise ConfigurationError(
                f"{self.kind} {name!r} is already registered; pass "
                "replace=True to override it"
            )
        self._entries[name] = entry
        return entry

    def add(self, entry: T, *, replace: bool = False) -> T:
        """Register an entry under its own ``name`` attribute."""
        return self.register(
            getattr(entry, "name", None), entry, replace=replace
        )

    def get(self, name: str) -> T:
        """The entry registered under ``name``."""
        try:
            return self._entries[name]
        except KeyError:
            known = ", ".join(self.names()) or "none"
            raise ConfigurationError(
                f"unknown {self.kind} {name!r}; known {self.kind}s: {known}"
            ) from None

    def names(self) -> list[str]:
        """Sorted names of every registered entry."""
        return sorted(self._entries)

    def unregister(self, name: str) -> None:
        """Remove ``name``; an unknown name raises like :meth:`get`."""
        self.get(name)
        del self._entries[name]
