"""Golden bytes: the wire and WAL codecs, pinned frame by frame.

The experiments count *bytes on the wire* and the recovery tests replay
*bytes on the disk*, so a codec change that moves one byte moves the
paper tables, every ``sim_s_*`` figure and every log written before it.
This module drives a fixed tiny PDM stack (the Figure 2 product) through
the whole template corpus plus one BATCH, one CALL_PROCEDURE, one STATS
and one SEQUENCED exchange, and a 20-statement DML script through a WAL,
and compares the SHA-256 of every request/response pair — and of the log
and checkpoint bytes — with constants computed before the run-of-values
kernel replaced the per-value codec loops.

A digest that moves means the format changed.  If that is the intent of
a change, regenerate with ``python tests/sqldb/test_wire_golden.py`` and
say so in CHANGES.md; otherwise the change has a bug.
"""

from __future__ import annotations

import hashlib
import re
import struct
from typing import Dict, List, Tuple

from repro.analysis.templates import template_queries
from repro.network.faults import RetryPolicy
from repro.network.profiles import WAN_512
from repro.pdm.generator import figure2_dataset
from repro.pdm.schema import (
    create_pdm_schema,
    install_checkout_procedures,
    load_product,
)
from repro.recovery import Durability
from repro.server.client import RemoteConnection
from repro.server.server import DatabaseServer
from repro.sqldb.database import Database

#: exchange name -> SHA-256 over ``u32 len + request + u32 len + response``.
GOLDEN_EXCHANGES: Dict[str, str] = {
    "template:child-fetch":
        "500e9abb7aec724016c40de32d006e422930fb671672d4e33f44782e52daa46b",
    "template:set-query":
        "6005bdd1ff3aacdb5d3b5fb45362cce4df9423808cd85acb97b1d3ded7fb46cb",
    "template:batched-children-assy-1":
        "378247b73e88f3f849f6e7a49ed2740314df85f829d2c6d30ba478a9e0bcd136",
    "template:batched-children-assy-4":
        "389851b30f1777e1a29530d410827ee8a39e455bfbfd7f9e094a1a7cae32fc0a",
    "template:batched-children-assy-16":
        "881e722dc3c47b2dda684b6516dfa46ce41c151538a34d9a74b2cf5366812f1b",
    "template:batched-children-assy-64":
        "0c781e3b54ef1fdbd9576d5714da84dae8dc5fcb25d07e1e726490a5d2f30db2",
    "template:batched-children-assy-256":
        "2e4bec21253918a0c187168c6dd1ce852ea0d1cc1bf2dc181ebf2c0a95341327",
    "template:fetch-object-assy":
        "255bf429b3b4d20fe9fa37a1ce6500528d89211033b0c227f1aabc3aaae40f16",
    "template:batched-children-comp-1":
        "8ca2aa51fdb66c858909cced9ab056f54ef3aa5a95c3be1a23ff31082a10230e",
    "template:batched-children-comp-4":
        "e885e06a1e2322a9fd720689ae458f8efe5ddf2240c3f533599d7f50cb133d25",
    "template:batched-children-comp-16":
        "4e3c1b5ffa232ffb057e54c64c6eadd0ec6bd28b126f5b7e23e03a16f63c4892",
    "template:batched-children-comp-64":
        "772b9ed0cffe000118ed5204d01790c2b4941ebd2e25d642c4a78e14ebf96a2b",
    "template:batched-children-comp-256":
        "84c5ab56f5d0c157fdd882898a62863c7ea9f15e1bf3d3b1a2c279d7ceae891f",
    "template:fetch-object-comp":
        "be07ec693baa81e07ea26e16f7c6343e054af53984ebc9875d9d01b0d2a019ea",
    "template:mle-recursive":
        "9371a33bced6c363077624daad77bd39c1a74a8f7b72c97035f60bd225db1760",
    "template:mle-recursive-ordered":
        "3aa73996fd8a07c1a3485e75859f728570bd49a87553f165c345a15191ad1a1e",
    "template:mle-recursive-depth-bounded":
        "860842dd329d1a92bd550c69484c015ea3ac97f6ba4b7ff52659bac59504905c",
    "template:where-used-recursive":
        "634ffdb168db0f30a1acc1a8b77df299e2a939d3039fc7f7a250802b081c3aff",
    "template:where-used-parents":
        "6ed33009c710e8c641a2dd1d8471b877e9229dc6a0d73cc5632840b01723d7f5",
    "template:update-checkout-1":
        "08f91559a2e99a76fe83523ddde33e29ffac31913a5ef830717045993d65664d",
    "template:update-checkout-4":
        "7170d69795b1d1f33aef163517dfa837684d0f50823a00786b39bb040f107248",
    "template:rewrite-mle-early-inside":
        "0d4fcfa86c0c328e761b42527efcff9cf06c2506da5199a9868bd28902fe6107",
    "template:rewrite-mle-early-outside":
        "1e4ef9b9cf701dad88f608175c68f664955f04e66845d86667ea57cd54261e77",
    "template:rewrite-mle-checkout-forall":
        "a347972a02679cd11323f85d3f3ea7cb187aacb219db6f0e188f624fe8aacf00",
    "template:rewrite-navigational-early":
        "cfd39976697643431a1c096682f1ff6457069962f1a92568edc7f0a59a5cee11",
    "batch":
        "ffa3d6c950bebc3b0dd06980c175bcc836a70cf7680068a1ca472eae97aab6f6",
    "call_procedure":
        "caebf6c93ff0684da0448bdeb08e2e3dbe9da893d3734247fa247f76c51c278b",
    "stats":
        "aaefc950b77e00af9f13f5ed9ee6a69a2ebf1d7aac24fd24007a28ab62d52bfb",
    "sequenced":
        "864d60a061c5824d021d73063f4ecfcf0b1eef4a5e2c264348692b431ab56282",
}

#: SHA-256 of the log the DML script leaves, and of the checkpoint record
#: that replaces it (a header plus the log's own ``Q`` and ``I`` payloads).
GOLDEN_WAL = "827e21a6f2509e95c5006ff07c2f6d19be0b50a8f62dda716de6d1774f4af0e5"
GOLDEN_CHECKPOINT = "869ce7e3cb2236ab5e309bb449342e98d163957487042b5a5d31275f0501213e"

#: Twenty statements touching every record kind (Q, B, I, U, D, C, A) and
#: every value tag (NULL, bool, int64 edges, float, multibyte string).
DML_SCRIPT: List[Tuple[str, tuple]] = [
    ("CREATE TABLE part (id INTEGER PRIMARY KEY, name VARCHAR(40), "
     "weight FLOAT, released BOOLEAN, qty INTEGER)", ()),
    ("CREATE INDEX part_name_idx ON part (name)", ()),
    ("INSERT INTO part VALUES (?, ?, ?, ?, ?)", (1, "bolt", 0.25, True, 400)),
    ("INSERT INTO part VALUES (?, ?, ?, ?, ?)", (2, "Mutter-ö", -0.0, False, None)),
    ("INSERT INTO part VALUES (?, ?, ?, ?, ?)",
     (3, "歯車", 1e308, None, 9223372036854775807)),
    ("INSERT INTO part VALUES (?, ?, ?, ?, ?)",
     (4, "", None, True, -9223372036854775808)),
    ("INSERT INTO part VALUES (5, 'washer', 0.001, FALSE, 0), "
     "(6, 'shim 🔩', 2.5, TRUE, -1)", ()),
    ("UPDATE part SET qty = qty + 1 WHERE id = ?", (1,)),
    ("UPDATE part SET name = ?, weight = ? WHERE id = ?", ("nut", 0.0, 2)),
    ("UPDATE part SET released = TRUE WHERE released IS NULL", ()),
    ("UPDATE part SET qty = qty WHERE id = ?", (5,)),
    ("DELETE FROM part WHERE id = ?", (6,)),
    ("BEGIN TRANSACTION", ()),
    ("INSERT INTO part VALUES (?, ?, ?, ?, ?)", (7, "pin", 0.125, False, 12)),
    ("UPDATE part SET weight = weight * 2 WHERE name = ?", ("bolt",)),
    ("COMMIT", ()),
    ("BEGIN TRANSACTION", ()),
    ("DELETE FROM part WHERE qty < ?", (100,)),
    ("ROLLBACK", ()),
    ("DELETE FROM part WHERE name = ?", ("",)),
]


def _digest(*chunks: bytes) -> str:
    sha = hashlib.sha256()
    for chunk in chunks:
        sha.update(struct.pack(">I", len(chunk)))
        sha.update(chunk)
    return sha.hexdigest()


def _record_exchanges(server: DatabaseServer, frames: list) -> None:
    """Make every ``server.handle`` exchange land in *frames*.

    The recorder is an instance attribute set after construction — the
    way perfbench attaches its timers — so this also checks that the
    client looks ``server.handle`` up at call time.
    """
    handle = server.handle

    def recording(frame: bytes) -> bytes:
        response = handle(frame)
        frames.append((frame, response))
        return response

    server.handle = recording


def _connect(server: DatabaseServer, **kwargs) -> RemoteConnection:
    connection = RemoteConnection(server, WAN_512.create_link(), **kwargs)
    # The class-level id counter depends on what ran earlier in the process.
    connection.client_id = 7
    return connection


def compute_exchanges() -> Dict[str, str]:
    database = Database()
    create_pdm_schema(database)
    load_product(database, figure2_dataset())
    server = DatabaseServer(database)
    install_checkout_procedures(server)
    frames: List[Tuple[bytes, bytes]] = []
    _record_exchanges(server, frames)
    connection = _connect(server)
    digests: Dict[str, str] = {}

    def close(name: str, exchanges: int = 1) -> None:
        assert len(frames) == exchanges, name
        digests[name] = _digest(*(chunk for pair in frames for chunk in pair))
        frames.clear()

    templates = template_queries()
    for name, sql in templates:
        count = re.sub(r"'[^']*'", "", sql).count("?")
        connection.execute(sql, [1] * count)  # Figure 2 root obid
        close(f"template:{name}")
    by_name = dict(templates)
    connection.execute_batch(
        [
            (by_name["child-fetch"], [1, 1]),
            ("SELECT no_such_column FROM assy", []),
            (by_name["batched-children-assy-4"], [1, 2, 3, 1]),
            (by_name["fetch-object-comp"], [None]),
        ]
    )
    close("batch")
    assert connection.call_procedure("check_out_tree", [2, "scott"])
    close("call_procedure")
    connection.server_stats()
    close("stats")
    resilient = _connect(server, retry_policy=RetryPolicy(seed=1))
    resilient.execute(by_name["set-query"], [1, 1])
    # The SEQUENCED wrapper re-enters handle() with the inner envelope.
    close("sequenced", exchanges=2)
    return digests


def compute_wal() -> Tuple[str, str]:
    durability = Durability()
    database = durability.open()
    for sql, params in DML_SCRIPT:
        database.execute(sql, params)
    log = durability.disk.read_all()
    durability.checkpoint()
    return _digest(log), _digest(durability.disk.read_all())


def test_script_is_twenty_statements():
    assert len(DML_SCRIPT) == 20


def test_every_exchange_is_byte_identical():
    digests = compute_exchanges()
    assert set(digests) == set(GOLDEN_EXCHANGES)
    moved = sorted(
        name for name, digest in digests.items() if GOLDEN_EXCHANGES[name] != digest
    )
    assert not moved, f"wire bytes changed for: {moved}"


def test_wal_and_checkpoint_are_byte_identical():
    log, checkpoint = compute_wal()
    assert log == GOLDEN_WAL
    assert checkpoint == GOLDEN_CHECKPOINT


def test_the_log_replays_to_the_same_rows():
    """The golden log is not just stable, it is a log: recovery reads it."""
    durability = Durability()
    database = durability.open()
    for sql, params in DML_SCRIPT:
        database.execute(sql, params)
    before = database.execute("SELECT * FROM part ORDER BY id").rows
    assert durability.recover().execute("SELECT * FROM part ORDER BY id").rows == before


if __name__ == "__main__":
    print("GOLDEN_EXCHANGES: Dict[str, str] = {")
    for name, digest in compute_exchanges().items():
        print(f'    "{name}":\n        "{digest}",')
    print("}")
    log, checkpoint = compute_wal()
    print(f'GOLDEN_WAL = "{log}"')
    print(f'GOLDEN_CHECKPOINT = "{checkpoint}"')
