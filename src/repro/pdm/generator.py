"""Synthetic product structures.

Two generators:

* :func:`figure2_dataset` — the paper's worked example (Figure 2): eight
  assemblies, seven components, eight links, extended with the
  specification tables used by the ∃structure example in Section 5.3.2.

* :func:`generate_product` — complete κ-ary trees with depth δ and
  visibility probability σ, the scenario workloads of Tables 2-4.  The σ
  of the analytic model is realised as a seeded Bernoulli draw per link:
  an invisible link gets a structure-option mask that does not overlap the
  user's selection, and every node below an invisible link is itself
  marked invisible (visibility is a property of the root path).  The
  generator records the ground-truth visible sets so tests can verify the
  rule machinery against it.

Substitution note (DESIGN.md): the paper used proprietary DaimlerChrysler
product data; these synthetic trees preserve the only properties the
experiments depend on — node counts per level, per-branch visibility, and
the ~512-byte average node size (reached by padding a ``payload`` column
until the wire-encoded row hits the target).
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, field
from itertools import compress, repeat
from typing import Dict, Iterable, List, Set, Tuple

from repro.errors import PDMError
from repro.model.parameters import TreeParameters
from repro.pdm.objects import (
    Assembly,
    Component,
    LinkRow,
    OPTION_ALTERNATE,
    OPTION_STANDARD,
    Specification,
    SpecifiedBy,
)
from repro.sqldb import wire

#: obid ranges per object family, so ids never collide.
LINK_OBID_BASE = 5_000_000
SPEC_OBID_BASE = 8_000_000

#: Default target for the wire-encoded size of one node row (the paper's
#: "average size of a node in the object tree" = 512 bytes).
DEFAULT_NODE_BYTES = 512


@dataclass
class GeneratedProduct:
    """A synthetic product plus ground truth about rule visibility."""

    tree: TreeParameters
    root_obid: int
    assemblies: List[Assembly] = field(default_factory=list)
    components: List[Component] = field(default_factory=list)
    links: List[LinkRow] = field(default_factory=list)
    specifications: List[Specification] = field(default_factory=list)
    specified_by: List[SpecifiedBy] = field(default_factory=list)
    #: Object ids on a fully visible root path (root included).
    visible_obids: Set[int] = field(default_factory=set)
    #: Link ids whose own option mask overlaps the user selection.
    visible_links: Set[int] = field(default_factory=set)
    #: parent obid -> list of (link, child obid), for reference traversals.
    children: Dict[int, List[Tuple[LinkRow, int]]] = field(default_factory=dict)

    @property
    def node_count(self) -> int:
        return len(self.assemblies) + len(self.components)

    @property
    def visible_node_count(self) -> int:
        """Visible nodes *below* the root (the paper's n_v convention)."""
        return len(self.visible_obids) - 1

    def root_attributes(self) -> Dict[str, object]:
        """Attribute dict of the root assembly (assumed present at the
        client, paper footnote 4)."""
        root = next(a for a in self.assemblies if a.obid == self.root_obid)
        return {
            "type": "assy",
            "obid": root.obid,
            "name": root.name,
            "dec": root.dec,
            "make_or_buy": root.make_or_buy,
            "weight": root.weight,
            "state": root.state,
            "checkedout": root.checked_out,
            "product": root.product,
            "strc_opt": root.strc_opt,
            "payload": root.payload,
        }


def payload_length_for(target_bytes: int, sample_name: str = "Assy1000000") -> int:
    """Padding length so a wire-encoded node row is ≈ *target_bytes*.

    Measures a representative encoded row with empty payload and pads the
    difference.  Clamped at zero for very small targets.
    """
    sample = Assembly(obid=1_000_000, name=sample_name, product=1)
    base = sum(len(wire.encode_value(v)) for v in sample.to_row())
    return max(0, target_bytes - base)


def payloads(obids: Iterable[int], padding: int) -> List[str]:
    """The ``payload`` of each of *obids*: a deterministic filler of
    *padding* characters, varied by the obid so rows are not identical."""
    fillers = [f"payload-{obid}-" for obid in obids]
    return [(filler * (padding // len(filler) + 1))[:padding] for filler in fillers]


def generate_product(
    tree: TreeParameters,
    seed: int = 0,
    root_obid: int = 1,
    node_bytes: int = DEFAULT_NODE_BYTES,
    spec_probability: float = 0.0,
    user_options: int = OPTION_STANDARD,
) -> GeneratedProduct:
    """Generate a complete κ-ary product tree.

    Levels 0..δ-1 hold assemblies, level δ holds components.  Visibility:
    every link is visible with probability σ (seeded, reproducible); a
    node is visible iff its whole root path is visible.  Both links and
    nodes carry option masks consistent with that ground truth, so either
    link-level or node-level rules reproduce the same visible set.

    ``spec_probability`` attaches a specification document to that share
    of nodes (for ∃structure experiments).

    A level is built at once: its children have consecutive obids and
    link ids, in their parents' order, and draw their random numbers in
    that order (a link's visibility, then, with specifications, whether
    the child gets one), so each record is one positional construction
    mapped over the level's columns: no function is called per child but
    its two records' ``__init__``.
    """
    if tree.depth < 1:
        raise PDMError("tree depth must be at least 1")
    rng = random.Random(seed)
    padding = payload_length_for(node_bytes)
    product = GeneratedProduct(tree=tree, root_obid=root_obid)
    hidden_options = OPTION_ALTERNATE
    if user_options & hidden_options:
        raise PDMError(
            "user_options must not overlap the generator's hidden mask"
        )
    options = (hidden_options, user_options)  # by visibility
    branching = tree.branching
    draws_per_child = 2 if spec_probability > 0 else 1
    product.assemblies.append(
        Assembly(
            obid=root_obid,
            name=f"Assy{root_obid}",
            product=root_obid,
            strc_opt=user_options,
            payload=payloads((root_obid,), padding)[0],
        )
    )
    product.visible_obids.add(root_obid)
    # The frontier being expanded: its obids and whether each is visible.
    parents: List[int] = [root_obid]
    parents_visible: List[bool] = [True]
    next_obid = root_obid + 1
    next_link = LINK_OBID_BASE
    next_spec = SPEC_OBID_BASE
    for level in range(1, tree.depth + 1):
        count = len(parents) * branching
        # Lists, so a record, its link, ``children`` and the visible sets
        # share each id's int object.
        obids = list(range(next_obid, next_obid + count))
        link_ids = list(range(next_link, next_link + count))
        next_obid += count
        next_link += count
        draws = [rng.random() for __ in range(count * draws_per_child)]
        link_visible = [draw < tree.visibility for draw in draws[::draws_per_child]]
        # Each parent's visibility, once per child.
        inherited = [visible for visible in parents_visible for __ in range(branching)]
        node_visible = list(map(operator.and_, inherited, link_visible))
        links = list(map(
            LinkRow, link_ids, [p for p in parents for __ in range(branching)],
            obids, repeat(1), repeat(999_999),
            map(options.__getitem__, link_visible),
        ))
        rest = (
            repeat("in_work"), repeat(False), repeat(""), repeat(root_obid),
            map(options.__getitem__, node_visible), payloads(obids, padding),
        )
        if level < tree.depth:
            product.assemblies.extend(map(
                Assembly, obids, [f"Assy{obid}" for obid in obids],
                repeat(True), repeat("make"), repeat(1.0), *rest,
            ))
        else:
            product.components.extend(map(
                Component, obids, [f"Comp{obid}" for obid in obids],
                repeat("make"), repeat(0.1), *rest,
            ))
        product.links.extend(links)
        product.visible_links.update(compress(link_ids, link_visible))
        product.visible_obids.update(compress(obids, node_visible))
        # Each parent's children: the next *branching* (link, obid) pairs.
        pairs = zip(links, obids)
        product.children.update(zip(parents, map(list, zip(*[pairs] * branching))))
        if draws_per_child == 2:
            for child_obid in compress(obids, [draw < spec_probability for draw in draws[1::2]]):
                product.specifications.append(
                    Specification(next_spec, f"Spec{next_spec}", f"doc-{child_obid}")
                )
                product.specified_by.append(SpecifiedBy(next_spec + 1, child_obid, next_spec))
                next_spec += 2
        parents, parents_visible = obids, node_visible
    return product


def generate_irregular_product(
    node_count: int,
    seed: int = 0,
    leaf_probability: float = 0.4,
    visibility: float = 1.0,
    root_obid: int = 1,
    node_bytes: int = DEFAULT_NODE_BYTES,
    spec_probability: float = 0.0,
    user_options: int = OPTION_STANDARD,
) -> GeneratedProduct:
    """Generate an *irregular* product structure by random attachment.

    Real product structures are not complete κ-ary trees: fan-out varies
    wildly and depths are ragged.  This generator grows a tree by
    attaching each new object to a uniformly chosen existing assembly;
    with ``leaf_probability`` the new object is a component (and never
    receives children).  Visibility follows the same per-link Bernoulli
    model as :func:`generate_product`, with consistent ground truth.

    ``node_count`` counts all objects including the root.  The recorded
    ``tree`` parameters approximate the realised shape (depth = realised
    depth, branching = realised maximum fan-out) so downstream reporting
    has something sensible to print; the analytic model's complete-tree
    formulas do not apply to irregular shapes — that is the point.
    """
    if node_count < 1:
        raise PDMError("node_count must be at least 1")
    if not 0.0 <= leaf_probability < 1.0:
        raise PDMError("leaf_probability must be within [0, 1)")
    rng = random.Random(seed)
    padding = payload_length_for(node_bytes)
    hidden_options = OPTION_ALTERNATE
    if user_options & hidden_options:
        raise PDMError(
            "user_options must not overlap the generator's hidden mask"
        )

    # Placeholder tree parameters; replaced with the realised shape below.
    product = GeneratedProduct(
        tree=TreeParameters(depth=1, branching=1, visibility=visibility),
        root_obid=root_obid,
    )
    options = (hidden_options, user_options)  # by visibility
    padded = payloads(range(root_obid, root_obid + node_count), padding)
    product.assemblies.append(
        Assembly(
            obid=root_obid,
            name=f"Assy{root_obid}",
            product=root_obid,
            strc_opt=user_options,
            payload=padded[0],
        )
    )
    product.visible_obids.add(root_obid)
    #: (obid, depth, visible) of assemblies that may receive children.
    attachable = [(root_obid, 0, True)]
    next_link = LINK_OBID_BASE
    next_spec = SPEC_OBID_BASE
    max_depth = 0
    fanout: Dict[int, int] = {}
    for offset in range(1, node_count):
        child_obid = root_obid + offset
        parent_obid, parent_depth, parent_visible = rng.choice(attachable)
        fanout[parent_obid] = fanout.get(parent_obid, 0) + 1
        max_depth = max(max_depth, parent_depth + 1)
        link_visible = rng.random() < visibility
        node_visible = parent_visible and link_visible
        link = LinkRow(next_link, parent_obid, child_obid, 1, 999_999, options[link_visible])
        next_link += 1
        product.links.append(link)
        product.children.setdefault(parent_obid, []).append((link, child_obid))
        if link_visible:
            product.visible_links.add(link.obid)
        node_options = options[node_visible]
        if rng.random() < leaf_probability:
            product.components.append(
                Component(child_obid, f"Comp{child_obid}", "make", 0.1, "in_work", False, "",
                          root_obid, node_options, padded[offset])
            )
        else:
            product.assemblies.append(
                Assembly(child_obid, f"Assy{child_obid}", True, "make", 1.0, "in_work", False,
                         "", root_obid, node_options, padded[offset])
            )
            attachable.append((child_obid, parent_depth + 1, node_visible))
        if node_visible:
            product.visible_obids.add(child_obid)
        if spec_probability > 0 and rng.random() < spec_probability:
            product.specifications.append(Specification(next_spec, f"Spec{next_spec}"))
            product.specified_by.append(SpecifiedBy(next_spec + 1, child_obid, next_spec))
            next_spec += 2
    product.tree = TreeParameters(
        depth=max(1, max_depth),
        branching=max(1, max(fanout.values(), default=1)),
        visibility=visibility,
    )
    return product


def figure2_dataset(with_specifications: bool = True) -> GeneratedProduct:
    """The paper's Figure 2 example, extended per Section 5.3.2.

    Eight assemblies (1-8; 5-8 not decomposable; 6-8 are unconnected spare
    rows exactly as in the figure), seven components (101-107; 105-107
    unconnected), eight links with the printed effectivities.  When
    ``with_specifications`` is set, components 101, 103 and 104 receive
    specification documents (so the ∃structure example filters out 102).
    """
    tree = TreeParameters(depth=2, branching=2, visibility=1.0)
    product = GeneratedProduct(tree=tree, root_obid=1)
    decomposable = {1: True, 2: True, 3: True, 4: True}
    for obid in range(1, 9):
        product.assemblies.append(
            Assembly(
                obid=obid,
                name=f"Assy{obid}",
                decomposable=decomposable.get(obid, False),
                product=1,
            )
        )
    for index in range(1, 8):
        product.components.append(
            Component(obid=100 + index, name=f"Comp{index}", product=1)
        )
    link_rows = [
        (1001, 1, 2, 1, 3),
        (1002, 1, 3, 4, 10),
        (1003, 2, 4, 1, 10),
        (1004, 2, 5, 1, 10),
        (1005, 4, 101, 6, 10),
        (1006, 4, 102, 1, 5),
        (1007, 5, 103, 1, 10),
        (1008, 5, 104, 1, 10),
    ]
    for obid, left, right, eff_from, eff_to in link_rows:
        link = LinkRow(
            obid=obid, left=left, right=right, eff_from=eff_from, eff_to=eff_to
        )
        product.links.append(link)
        product.children.setdefault(left, []).append((link, right))
        product.visible_links.add(obid)
    product.visible_obids = {1, 2, 3, 4, 5, 101, 102, 103, 104}
    if with_specifications:
        for position, target in enumerate((101, 103, 104)):
            spec_obid = SPEC_OBID_BASE + position
            product.specifications.append(
                Specification(obid=spec_obid, name=f"Spec{position + 1}")
            )
            product.specified_by.append(
                SpecifiedBy(
                    obid=SPEC_OBID_BASE + 100 + position,
                    left=target,
                    right=spec_obid,
                )
            )
    return product
