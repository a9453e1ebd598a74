"""Configuration rules: dependencies between structure options.

Paper Section 3.1: "during the configuration process not every
combination of the offered features is valid.  For example it is not
possible to choose a cabriolet together with a sunroof.  Such dependencies
between structure options are handled by so-called configuration rules.
In contrast to the evaluation of structure options, configuration rules
can be evaluated by accessing the selected structure options only ...  no
product data need to be retrieved from the database."

Accordingly this module is purely client-side: an :class:`OptionCatalog`
names the option bits, configuration rules constrain selections, and a
:class:`Configurator` validates a user's selection before any query is
built.  A caller passes the mask :meth:`Configurator.validate` returns to
the PDM client in ``user_env``; an invalid selection fails before the
client exists — the cheapest possible rule evaluation, zero WAN messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import RuleError


class OptionCatalog:
    """Registry of named structure options, each mapped to one mask bit."""

    def __init__(self, names: Sequence[str] = ()) -> None:
        self._bits: Dict[str, int] = {}
        for name in names:
            self.define(name)

    def define(self, name: str) -> int:
        """Register *name* and return its bit mask."""
        key = name.lower()
        if key in self._bits:
            raise RuleError(f"option {name!r} is already defined")
        if len(self._bits) >= 63:
            raise RuleError("option catalog is full (63 options)")
        bit = 1 << len(self._bits)
        self._bits[key] = bit
        return bit

    def bit(self, name: str) -> int:
        try:
            return self._bits[name.lower()]
        except KeyError:
            raise RuleError(f"unknown option {name!r}") from None

    def names(self) -> List[str]:
        return list(self._bits)

    def mask_of(self, names: Iterable[str]) -> int:
        """Combined mask of several options."""
        mask = 0
        for name in names:
            mask |= self.bit(name)
        return mask

    def names_of(self, mask: int) -> List[str]:
        """Option names contained in *mask* (unknown bits ignored)."""
        return [name for name, bit in self._bits.items() if mask & bit]


class ConfigurationRule:
    """Base class of configuration rules.

    ``check(mask, catalog)`` returns None when satisfied, otherwise a
    human-readable violation message.
    """

    def check(self, mask: int, catalog: OptionCatalog):
        raise NotImplementedError


@dataclass(frozen=True)
class Excludes(ConfigurationRule):
    """Two options must not be selected together (cabriolet vs sunroof)."""

    first: str
    second: str

    def check(self, mask: int, catalog: OptionCatalog):
        if mask & catalog.bit(self.first) and mask & catalog.bit(self.second):
            return (
                f"options {self.first!r} and {self.second!r} exclude each "
                f"other"
            )
        return None


@dataclass(frozen=True)
class Requires(ConfigurationRule):
    """Selecting ``dependent`` requires ``prerequisite``."""

    dependent: str
    prerequisite: str

    def check(self, mask: int, catalog: OptionCatalog):
        if mask & catalog.bit(self.dependent) and not (
            mask & catalog.bit(self.prerequisite)
        ):
            return (
                f"option {self.dependent!r} requires {self.prerequisite!r}"
            )
        return None


@dataclass(frozen=True)
class ExactlyOneOf(ConfigurationRule):
    """Exactly one option of a group must be selected (e.g. one engine)."""

    group: Tuple[str, ...]

    def __init__(self, group: Iterable[str]) -> None:
        object.__setattr__(self, "group", tuple(group))

    def check(self, mask: int, catalog: OptionCatalog):
        selected = [
            name for name in self.group if mask & catalog.bit(name)
        ]
        if len(selected) != 1:
            return (
                f"exactly one of {', '.join(self.group)} must be selected "
                f"(got {len(selected)})"
            )
        return None


@dataclass
class Configurator:
    """Validates option selections against the configuration rules."""

    catalog: OptionCatalog
    rules: List[ConfigurationRule] = field(default_factory=list)

    def add_rule(self, rule: ConfigurationRule) -> None:
        self.rules.append(rule)

    def violations(self, selection: Iterable[str]) -> List[str]:
        """All violated rules for a selection of option names."""
        mask = self.catalog.mask_of(selection)
        return self.violations_of_mask(mask)

    def violations_of_mask(self, mask: int) -> List[str]:
        messages = []
        for rule in self.rules:
            message = rule.check(mask, self.catalog)
            if message is not None:
                messages.append(message)
        return messages

    def validate(self, selection: Iterable[str]) -> int:
        """Return the selection mask, or raise :class:`RuleError` listing
        every violation (no WAN message was needed to decide)."""
        selection = list(selection)
        mask = self.catalog.mask_of(selection)
        messages = self.violations_of_mask(mask)
        if messages:
            raise RuleError(
                "invalid configuration: " + "; ".join(messages)
            )
        return mask

    def valid_completions(self, selection: Iterable[str]) -> List[str]:
        """Options that could still be added without violating a rule —
        the interactive configurator's next-choice list."""
        base = list(selection)
        completions = []
        for name in self.catalog.names():
            if name in base:
                continue
            if not self.violations(base + [name]):
                completions.append(name)
        return completions
