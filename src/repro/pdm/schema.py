"""The flat relational mapping of the PDM object model.

Paper Section 1: "the object structure is flattened, and all objects —
and the relations between them, too — are stored in (more or less)
ordinary, normalized tables".  This module owns the DDL, the indexes that
make navigational access and recursion efficient, the stored functions
for set/interval comparisons (Section 3.2), and the server-side check-out
procedures (the function-shipping remedy of Section 6).
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import CheckOutError, LockUnavailable
from repro.pdm.objects import Assembly, Component, LinkRow, Specification, SpecifiedBy
from repro.sqldb.database import Database
from repro.sqldb.functions import FunctionRegistry

#: Columns shared by assemblies and components in the homogenised result
#: type of recursive queries (paper Section 5.2: a result type "enfolding
#: all attribute definitions of all object types appearing in the result").
NODE_COLUMNS = (
    "type",
    "obid",
    "name",
    "dec",
    "make_or_buy",
    "weight",
    "state",
    "checkedout",
    "product",
    "strc_opt",
    "payload",
)

#: Additional columns contributed by link rows in the homogenised result.
LINK_ONLY_COLUMNS = ("left", "right", "eff_from", "eff_to", "link_opt")

#: Full column list of a homogenised (node ∪ link) result row.
HOMOGENISED_COLUMNS = NODE_COLUMNS + LINK_ONLY_COLUMNS

_DDL = """
CREATE TABLE assy (
    type VARCHAR(8) NOT NULL,
    obid INTEGER PRIMARY KEY,
    name VARCHAR(60),
    dec CHAR(1),
    make_or_buy VARCHAR(4),
    weight DOUBLE,
    state VARCHAR(12),
    checkedout BOOLEAN,
    checkedout_by VARCHAR(24),
    product INTEGER,
    strc_opt INTEGER,
    payload VARCHAR(2000)
);
CREATE TABLE comp (
    type VARCHAR(8) NOT NULL,
    obid INTEGER PRIMARY KEY,
    name VARCHAR(60),
    make_or_buy VARCHAR(4),
    weight DOUBLE,
    state VARCHAR(12),
    checkedout BOOLEAN,
    checkedout_by VARCHAR(24),
    product INTEGER,
    strc_opt INTEGER,
    payload VARCHAR(2000)
);
CREATE TABLE link (
    type VARCHAR(8) NOT NULL,
    obid INTEGER PRIMARY KEY,
    left INTEGER NOT NULL,
    right INTEGER NOT NULL,
    eff_from INTEGER,
    eff_to INTEGER,
    strc_opt INTEGER
);
CREATE TABLE spec (
    type VARCHAR(8) NOT NULL,
    obid INTEGER PRIMARY KEY,
    name VARCHAR(60),
    doc VARCHAR(400)
);
CREATE TABLE specified_by (
    obid INTEGER PRIMARY KEY,
    left INTEGER NOT NULL,
    right INTEGER NOT NULL
);
CREATE INDEX link_left_idx ON link (left);
CREATE INDEX link_right_idx ON link (right);
CREATE INDEX assy_product_idx ON assy (product);
CREATE INDEX comp_product_idx ON comp (product);
CREATE INDEX specified_by_left_idx ON specified_by (left)
"""


def _options_overlap(a: int, b: int) -> bool:
    """Set-overlap of two structure-option bitmasks (stored function —
    "comparisons of sets ... have to be provided at the server")."""
    return (int(a) & int(b)) != 0


def _intervals_overlap(a_from: int, a_to: int, b_from: int, b_to: int) -> bool:
    """Interval overlap for effectivities (paper example 3 semantics)."""
    return int(a_from) <= int(b_to) and int(b_from) <= int(a_to)


def _is_effective(eff_from: int, eff_to: int, unit: int) -> bool:
    """Point-in-interval effectivity test for a selected unit number."""
    return int(eff_from) <= int(unit) <= int(eff_to)


#: The stored functions by SQL name.  :func:`register_stored_functions`
#: puts them into the server database's registry and into the registry a
#: :class:`~repro.pdm.operations.PDMClient` evaluates late rules with, so
#: both sides call the same code under the same NULL propagation.
CLIENT_FUNCTIONS: Dict[str, callable] = {
    "options_overlap": _options_overlap,
    "intervals_overlap": _intervals_overlap,
    "is_effective": _is_effective,
}


def register_stored_functions(functions: FunctionRegistry) -> FunctionRegistry:
    """Register the stored functions on *functions*; returns it."""
    for name, function in CLIENT_FUNCTIONS.items():
        functions.register(name, function)
    return functions


def create_pdm_schema(db: Database) -> None:
    """Create tables, indexes and stored functions on *db*."""
    db.execute_script(_DDL)
    register_stored_functions(db.functions)


def new_pdm_database() -> Database:
    """A fresh database with the PDM schema installed."""
    db = Database()
    create_pdm_schema(db)
    return db


def load_product(db: Database, product) -> None:
    """Bulk-load a :class:`~repro.pdm.generator.GeneratedProduct`: each
    table's records mapped through their class's row layout, one list
    per ``executemany``."""
    db.executemany(
        "INSERT INTO assy VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
        list(map(Assembly.row, product.assemblies)),
    )
    db.executemany(
        "INSERT INTO comp VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
        list(map(Component.row, product.components)),
    )
    db.executemany(
        "INSERT INTO link VALUES (?, ?, ?, ?, ?, ?, ?)",
        list(map(LinkRow.row, product.links)),
    )
    db.executemany(
        "INSERT INTO spec VALUES (?, ?, ?, ?)",
        list(map(Specification.row, product.specifications)),
    )
    db.executemany(
        "INSERT INTO specified_by VALUES (?, ?, ?)",
        list(map(SpecifiedBy.row, product.specified_by)),
    )


# ---------------------------------------------------------------------------
# Server-side check-out (paper Section 6: "application-specific
# functionality performing the desired user action has to be installed at
# the database server")
# ---------------------------------------------------------------------------


def _collect_subtree_obids(db: Database, root_obid: int) -> List[int]:
    """All object ids of the subtree rooted at *root_obid* (server-local
    recursive query, no WAN involved)."""
    result = db.execute(
        """
        WITH RECURSIVE subtree (obid) AS
        (SELECT assy.obid FROM assy WHERE assy.obid = ?
         UNION
         SELECT link.right FROM subtree JOIN link ON subtree.obid = link.left)
        SELECT obid FROM subtree
        """,
        [root_obid],
    )
    return [row[0] for row in result.rows]


def _checkout_conflicts(db: Database, obids: List[int]) -> int:
    """Number of already-checked-out nodes among *obids*."""
    placeholders = ", ".join("?" for __ in obids)
    conflicts = 0
    for table in ("assy", "comp"):
        count = db.execute(
            f"SELECT COUNT(*) FROM {table} "
            f"WHERE obid IN ({placeholders}) AND checkedout = TRUE",
            obids,
        ).scalar()
        conflicts += int(count)
    return conflicts


def _checkout_lock_owner(db: Database, user: str):
    """The persistent lock owner holding *user*'s check-out locks, or
    None when the database runs without a lock manager."""
    if db.locks is None:
        return None
    return db.locks.persistent_owner(("checkout", user))


def _check_out_tree(db: Database, root_obid: int, user: str) -> List[int]:
    """Server procedure: atomically check out an entire subtree.

    Returns the checked-out object ids (root first).  Raises
    :class:`CheckOutError` if any node of the subtree is already checked
    out — the all-or-nothing semantics of paper example 2.

    When the database has a lock manager attached, the check-out also
    acquires *persistent* exclusive locks on the subtree in a dedicated
    ``@checkout`` namespace: they outlive any transaction (released only
    by check-in), conflict exactly with other users' check-out attempts,
    and — living in their own namespace — never block ordinary reads of
    the ``assy``/``comp`` tables.
    """
    obids = _collect_subtree_obids(db, root_obid)
    if not obids:
        raise CheckOutError(f"object {root_obid} does not exist")
    owner = _checkout_lock_owner(db, user)
    fresh: List = []
    if owner is not None:
        resources = [("@checkout", obid) for obid in obids]
        held_before = {resource for resource, __ in db.locks.locks_held(owner)}
        fresh = [resource for resource in resources if resource not in held_before]
        try:
            db.locks.acquire_all_or_nothing(owner, resources)
        except LockUnavailable as error:
            raise CheckOutError(
                f"subtree of {root_obid} is locked by another check-out"
            ) from error
    placeholders = ", ".join("?" for __ in obids)
    try:
        # The conflict test and the flag updates form one atomic unit — the
        # transactional substrate extension motivated by the paper's
        # Section 6 discussion of check-out processing.
        with db.transaction():
            if _checkout_conflicts(db, obids) > 0:
                raise CheckOutError(
                    f"subtree of {root_obid} contains checked-out objects"
                )
            for table in ("assy", "comp"):
                db.execute(
                    f"UPDATE {table} SET checkedout = TRUE, checkedout_by = ? "
                    f"WHERE obid IN ({placeholders})",
                    [user] + obids,
                )
    except BaseException:
        # Undo only locks this call acquired — a re-check-out attempt must
        # not drop the user's locks from an earlier successful check-out.
        if owner is not None and fresh:
            db.locks.release(owner, fresh)
        raise
    return obids


def _check_in_tree(db: Database, root_obid: int, user: str) -> List[int]:
    """Server procedure: release a previously checked-out subtree.

    Only objects checked out by *user* are released; returns their ids.
    """
    obids = _collect_subtree_obids(db, root_obid)
    released: List[int] = []
    placeholders = ", ".join("?" for __ in obids)
    for table in ("assy", "comp"):
        result = db.execute(
            f"SELECT obid FROM {table} "
            f"WHERE obid IN ({placeholders}) AND checkedout_by = ?",
            obids + [user],
        )
        ids = [row[0] for row in result.rows]
        if ids:
            inner = ", ".join("?" for __ in ids)
            db.execute(
                f"UPDATE {table} SET checkedout = FALSE, checkedout_by = '' "
                f"WHERE obid IN ({inner})",
                ids,
            )
        released.extend(ids)
    owner = _checkout_lock_owner(db, user)
    if owner is not None and released:
        db.locks.release(owner, [("@checkout", obid) for obid in released])
    return released


def install_checkout_procedures(server) -> None:
    """Register the check-out/check-in procedures on a DatabaseServer."""
    server.register_procedure("check_out_tree", _check_out_tree)
    server.register_procedure("check_in_tree", _check_in_tree)
