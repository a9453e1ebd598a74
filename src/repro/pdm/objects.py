"""Typed records for PDM objects and their flat relational rows.

The PDM philosophy stores heterogeneous objects (assemblies, components,
specifications) and the relations between them in "ordinary, normalized
tables" (paper Section 1); these dataclasses are the typed client-side
view.  Each class names its row layout of :mod:`repro.pdm.schema` once,
as the ``row`` getter of its attributes: :meth:`_Record.to_row` reads a
record through it, and :func:`~repro.pdm.schema.load_product` maps it
over a whole list, so no row costs a Python frame.  The records are
slotted: a product is tens of thousands of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, ClassVar, Tuple

#: Type discriminator values used in the ``type`` column.
TYPE_ASSEMBLY = "assy"
TYPE_COMPONENT = "comp"
TYPE_LINK = "link"
TYPE_SPEC = "spec"

#: Default structure-option masks: bit 1 = standard configuration.
OPTION_STANDARD = 1
OPTION_ALTERNATE = 2


class _Record:
    """What every record shares: its row, read through its class's layout."""

    __slots__ = ()
    #: The record's row: an ``attrgetter`` of its columns, in order.
    row: ClassVar[attrgetter[Any]]

    def to_row(self) -> Tuple[Any, ...]:
        return self.row(self)


@dataclass(slots=True)
class Assembly(_Record):
    """An assembly — an inner node of the product structure."""

    obid: int
    name: str
    decomposable: bool = True
    make_or_buy: str = "make"
    weight: float = 1.0
    state: str = "in_work"
    checked_out: bool = False
    checked_out_by: str = ""
    product: int = 0
    strc_opt: int = OPTION_STANDARD
    payload: str = ""

    type: ClassVar[str] = TYPE_ASSEMBLY
    row = attrgetter(
        "type", "obid", "name", "dec", "make_or_buy", "weight", "state",
        "checked_out", "checked_out_by", "product", "strc_opt", "payload",
    )

    @property
    def dec(self) -> str:
        """The ``dec`` column: ``+`` for a decomposable assembly."""
        return "+" if self.decomposable else "-"


@dataclass(slots=True)
class Component(_Record):
    """A component — a single part, a leaf of the product structure."""

    obid: int
    name: str
    make_or_buy: str = "make"
    weight: float = 0.1
    state: str = "in_work"
    checked_out: bool = False
    checked_out_by: str = ""
    product: int = 0
    strc_opt: int = OPTION_STANDARD
    payload: str = ""

    type: ClassVar[str] = TYPE_COMPONENT
    row = attrgetter(
        "type", "obid", "name", "make_or_buy", "weight", "state",
        "checked_out", "checked_out_by", "product", "strc_opt", "payload",
    )


@dataclass(slots=True)
class LinkRow(_Record):
    """A structural relation between a parent object and a child object.

    Links carry the configuration management data: effectivities (valid
    from/to unit numbers) and structure options (paper Section 3.1).
    """

    obid: int
    left: int  # parent object id
    right: int  # child object id
    eff_from: int = 1
    eff_to: int = 999_999
    strc_opt: int = OPTION_STANDARD

    type: ClassVar[str] = TYPE_LINK
    row = attrgetter("type", "obid", "left", "right", "eff_from", "eff_to", "strc_opt")


@dataclass(slots=True)
class Specification(_Record):
    """A specification document attachable to assemblies/components."""

    obid: int
    name: str
    document: str = ""

    type: ClassVar[str] = TYPE_SPEC
    row = attrgetter("type", "obid", "name", "document")


@dataclass(slots=True)
class SpecifiedBy(_Record):
    """The relation linking objects to their specifications."""

    obid: int
    left: int  # the specified object
    right: int  # the specification

    row = attrgetter("obid", "left", "right")
