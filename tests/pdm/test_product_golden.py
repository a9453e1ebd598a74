"""Golden digests of the synthetic products.

Every experiment first generates its product, so a generator that draws
its random numbers in another order, fills a field differently or lists
its objects in another order changes every result downstream.  Each
digest covers every record's ``to_row()``, every ``children`` entry in
its order and both ground-truth visible sets; they were computed before
the generators were rewritten to build a level at a time and must not
move.
"""

import hashlib

import pytest

from repro.model.parameters import TreeParameters
from repro.pdm.generator import (
    figure2_dataset,
    generate_irregular_product,
    generate_product,
)
from repro.pdm.objects import Assembly, Component, LinkRow

#: The four perfbench shapes (depth, branching; σ = 0.6, product seed 4).
PERFBENCH_SHAPES = ((9, 3), (8, 3), (6, 5), (6, 4))

PRODUCTS = {
    **{
        f"kary-{depth}-{branching}": lambda depth=depth, branching=branching: (
            generate_product(TreeParameters(depth, branching, 0.6), seed=4)
        )
        for depth, branching in PERFBENCH_SHAPES
    },
    "kary-specs": lambda: generate_product(
        TreeParameters(4, 3, 0.5), seed=7, node_bytes=300, spec_probability=0.3
    ),
    "irregular": lambda: generate_irregular_product(
        3_000, seed=5, visibility=0.7, spec_probability=0.2
    ),
    "figure2": figure2_dataset,
}

GOLDEN = {
    "figure2": "c3c66a4e31298ae9b3d4afa43d322cee438af31d1b9c5a0b0641e448a375a718",
    "irregular": "9d4b26fe799bdb1f9eb7153fe312c3bec7dcaa87582f825dcac4fe64c3b413c2",
    "kary-6-4": "07d260bcddb7be3cf4306464627d54c13a75915dd69630aeafb1a3a85e203aa9",
    "kary-6-5": "d04c4d4915de466ab5153d6b190731b224f98483cdefb78f455eba26dff4d0ae",
    "kary-8-3": "815de039880474e43aec5242d4b3c3d945bd91e11800f832368645a774e3e256",
    "kary-9-3": "0b7ca0d0a0ba3d05c662c763559df4193b1862eb666d316aae29e505ab93bd8a",
    "kary-specs": "985065c6ae4c1444ee7d848645fa8fe4b571945d37ca35b2ac16a6df76587e65",
}


def product_digest(product) -> str:
    """SHA-256 over the rows, the children and the visible sets."""
    digest = hashlib.sha256()
    digest.update(repr((product.tree, product.root_obid)).encode())
    for records in (
        product.assemblies,
        product.components,
        product.links,
        product.specifications,
        product.specified_by,
    ):
        digest.update(repr(len(records)).encode())
        for record in records:
            digest.update(repr(record.to_row()).encode())
    for parent, entries in product.children.items():
        digest.update(repr((parent, [(link.to_row(), child) for link, child in entries])).encode())
    digest.update(repr(sorted(product.visible_obids)).encode())
    digest.update(repr(sorted(product.visible_links)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_the_product_is_the_golden_one(name):
    assert product_digest(PRODUCTS[name]()) == GOLDEN[name]


def test_children_hold_the_products_own_links():
    product = PRODUCTS["kary-specs"]()
    listed = [link for entries in product.children.values() for link, __ in entries]
    assert len(listed) == len(product.links)
    assert all(a is b for a, b in zip(sorted(listed, key=id), sorted(product.links, key=id)))
    assert all(link.right == child for entries in product.children.values() for link, child in entries)


@pytest.mark.parametrize("name", ["kary-specs", "irregular"])
def test_a_generated_record_is_the_one_its_class_defaults_build(name):
    """The generators construct records positionally, restating the
    defaults of the columns they do not vary; each record must equal the
    one built by keyword from those varied columns alone, so a default
    changed in ``pdm.objects`` cannot leave the generators behind."""
    product = PRODUCTS[name]()
    for assembly in product.assemblies:
        assert assembly == Assembly(
            obid=assembly.obid, name=assembly.name, product=assembly.product,
            strc_opt=assembly.strc_opt, payload=assembly.payload,
        )
    for component in product.components:
        assert component == Component(
            obid=component.obid, name=component.name, product=component.product,
            strc_opt=component.strc_opt, payload=component.payload,
        )
    for link in product.links:
        assert link == LinkRow(
            obid=link.obid, left=link.left, right=link.right, strc_opt=link.strc_opt
        )
    assert product.assemblies and product.components and product.links
