"""Lint-rule model: diagnostics, the rule protocol and the registry.

Rules are registered under a short kebab-case name in a
:class:`repro.registry.Registry`, looked up by name and enumerated for
the CLI.  A rule is any object satisfying :class:`LintRule` —

``name`` / ``description`` / ``severity``
    Identity, a one-line human summary (shown by ``repro lint --list``)
    and ``"error"`` or ``"warning"``.  Only ``error`` diagnostics make
    ``repro lint`` exit non-zero.
``check(context)``
    Yield :class:`Diagnostic` objects over a parsed
    :class:`~repro.lint.context.LintContext`.  Rules see the *whole*
    file set at once, so cross-cutting contracts (registry
    completeness, spec threading) are as easy to express as per-file
    ones.

Registering a rule is the only step needed to expose it: the runner
executes every registered rule, ``repro lint --select`` filters by
name, and suppression comments (``# repro: noqa[rule-name]``) key off
the registered name.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.errors import ConfigurationError
from repro.registry import Registry

__all__ = [
    "Diagnostic",
    "LintRule",
    "available_rules",
    "get_rule",
    "register_rule",
    "unregister_rule",
]

#: The severities a rule may declare.
SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Diagnostic:
    """One reported violation, renderable as ``file:line: RULE-ID msg``."""

    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


@runtime_checkable
class LintRule(Protocol):
    """Structural interface every lint rule must satisfy."""

    name: str
    description: str
    severity: str

    def check(
        self, context
    ) -> Iterable[Diagnostic]:  # pragma: no cover - protocol
        ...


_RULES: Registry[LintRule] = Registry("lint rule")


def register_rule(rule: LintRule, *, replace: bool = False) -> LintRule:
    """Register ``rule`` under ``rule.name``; returns the rule.

    On top of the shared registry policy, the rule's ``severity`` must
    be one of :data:`SEVERITIES`.
    """
    severity = getattr(rule, "severity", None)
    if severity not in SEVERITIES:
        raise ConfigurationError(
            f"lint rule {getattr(rule, 'name', None)!r} severity must be "
            f"one of {SEVERITIES}, got {severity!r}"
        )
    return _RULES.add(rule, replace=replace)


get_rule = _RULES.get
available_rules = _RULES.names
unregister_rule = _RULES.unregister
