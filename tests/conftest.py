"""Shared fixtures: databases pre-loaded with the paper's datasets."""

from __future__ import annotations

import pytest

from repro.bench.workload import build_scenario
from repro.model.parameters import TreeParameters
from repro.network.profiles import WAN_256
from repro.pdm.generator import figure2_dataset
from repro.pdm.schema import create_pdm_schema, load_product
from repro.sqldb.database import Database


@pytest.fixture
def empty_db() -> Database:
    return Database()


@pytest.fixture
def figure2_db() -> Database:
    """A PDM database holding the paper's Figure 2 example (plus the
    specification tables of Section 5.3.2)."""
    db = Database()
    create_pdm_schema(db)
    load_product(db, figure2_dataset())
    return db


@pytest.fixture
def figure2_product():
    return figure2_dataset()


@pytest.fixture
def small_tree() -> TreeParameters:
    """δ=3, κ=3, σ=0.6 — small enough for fast tests, deep enough to
    exercise recursion and visibility pruning."""
    return TreeParameters(depth=3, branching=3, visibility=0.6)


@pytest.fixture
def small_scenario(small_tree):
    """A fully wired client/server scenario over the simulated WAN."""
    return build_scenario(small_tree, WAN_256, seed=42)


@pytest.fixture
def tiny_scenario():
    """δ=2, κ=2, fully visible — for exact structural assertions."""
    tree = TreeParameters(depth=2, branching=2, visibility=1.0)
    return build_scenario(tree, WAN_256, seed=7)
