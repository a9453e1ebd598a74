"""``WalWriter.log_inserts`` ≡ a ``log_insert`` per row and a ``commit``
per statement.

A batch INSERT's statements are logged by one writer call: each
statement's ``I`` records with its kind, txn id and table encoded once,
then its ``C``.  The per-record sequence it replaced is kept here as the
oracle — the loop ``Database`` ran over :meth:`WalWriter.log_insert` and
:meth:`WalWriter.commit`.  Both must leave the same bytes on the disk
after the same number of appends, consume the same transaction ids and
return the same cut: also when a row holds a value the log refuses,
inside an explicit transaction, and when the disk dies (cleanly, torn or
corrupt) at any append.
"""

import enum

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DiskCrashed
from repro.recovery import DiskFaultProfile, SimDisk, WalWriter, encode_record, scan_wal
from repro.sqldb.database import _statements
from repro.sqldb.wire import INT64_MAX, INT64_MIN

TABLE = "part_ü"
#: The first implicit transaction id, as ``Database`` numbers them.
IMPLICIT = (1 << 32) + 1
#: The explicit transaction a non-autocommit run logs under.
EXPLICIT = 17


class Colour(enum.IntEnum):
    RED = 1
    BLUE = -7


class Label(str):
    """A ``str`` subclass."""


KINDS = {
    "N": st.none(),
    "B": st.booleans(),
    "I": st.one_of(
        st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
        st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX]),
    ),
    "D": st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 2.5]),
    "S": st.one_of(st.text(max_size=6), st.sampled_from(["", "日本語", "🚀 ünï", "\x00"])),
    "E": st.sampled_from([Colour.RED, Colour.BLUE]),
    "L": st.text(max_size=4).map(Label),
}
POISON = ["\ud800", INT64_MAX + 1, INT64_MIN - 1]


@st.composite
def batches(draw):
    """Rows of a few kind signatures in one list, maybe one value the log
    refuses at a random row; how the list splits into statements; and
    how the run ends."""
    width = draw(st.integers(min_value=0, max_value=4))
    signatures = draw(
        st.lists(st.text(alphabet="NBIDSEL", min_size=width, max_size=width), min_size=1, max_size=3)
    )
    count = draw(st.integers(min_value=0, max_value=10))
    rows = []
    for __ in range(count):
        signature = draw(st.sampled_from(signatures))
        row = [draw(KINDS[tag]) for tag in signature]
        rows.append(tuple(row) if draw(st.booleans()) else row)
    if rows and width and draw(st.booleans()):
        at = draw(st.integers(min_value=0, max_value=count - 1))
        row = list(rows[at])
        row[draw(st.integers(min_value=0, max_value=width - 1))] = draw(st.sampled_from(POISON))
        rows[at] = tuple(row)
    k = draw(st.sampled_from([0, 1, 1, 2, 3]))
    # The rows before a conversion or check error, when one cut the list.
    logged = draw(st.integers(min_value=0, max_value=count))
    cut = logged < count or draw(st.booleans())
    return {
        "rows": rows,
        "start": draw(st.integers(min_value=0, max_value=2**40)),
        "k": k,
        "count": logged,
        "cut": cut,
        "autocommit": draw(st.booleans()),
        "begun": draw(st.booleans()),  # the explicit transaction logged before
        "origin": draw(st.sampled_from([None, (3, 9), (2**32 - 1, 1)])),
    }


def faults(appends):
    """No fault, or a crash of each kind at an append of the run."""
    at = st.integers(min_value=1, max_value=appends + 1)
    return st.one_of(
        st.none(),
        st.builds(lambda n: DiskFaultProfile("clean", crash_at_append=n), at),
        st.builds(lambda n: DiskFaultProfile("torn", crash_at_append=n, torn=True), at),
        st.builds(lambda n: DiskFaultProfile("corrupt", crash_at_append=n, corrupt=True), at),
    )


def writer_for(batch, fault, seed):
    writer = WalWriter(SimDisk(seed=seed))
    writer.origin = batch["origin"]
    if not batch["autocommit"] and batch["begun"]:
        writer.log_insert(EXPLICIT, TABLE, 0, (1, "before"))
    if fault is not None:
        writer.disk.arm(fault)
    ids = []

    def next_txn():
        ids.append(EXPLICIT if not batch["autocommit"] else IMPLICIT + len(ids))
        return ids[-1]

    return writer, ids, next_txn


def per_record(writer, next_txn, batch):
    """The oracle: the statement loop over the per-record hooks."""
    rows, start = batch["rows"], batch["start"]
    count, cut, error = batch["count"], batch["cut"], None
    for begin, end in _statements(batch["k"], count, cut):
        txn_id = next_txn()
        try:
            for at in range(begin, end):
                writer.log_insert(txn_id, TABLE, start + at, rows[at])
            at = end
        except Exception as exc:  # a record the log refuses
            count, cut, error = at, True, exc
        try:
            if batch["autocommit"]:
                writer.commit(txn_id)
        except Exception as exc:  # the disk died on it
            return at, begin, False, exc
        if at < end:
            break
    return count, count, cut, error


def batched(writer, next_txn, batch):
    stop = writer.log_inserts(
        TABLE,
        batch["rows"],
        batch["start"],
        _statements(batch["k"], batch["count"], batch["cut"]),
        next_txn,
        batch["autocommit"],
    )
    if stop is None:
        return batch["count"], batch["count"], batch["cut"], None
    return stop


def run(logger, batch, fault, seed):
    writer, ids, next_txn = writer_for(batch, fault, seed)
    placed, timed, cut, error = logger(writer, next_txn, batch)
    described = None if error is None else (type(error), str(error))
    return {
        "result": (placed, timed, cut, described),
        "disk": writer.disk.read_all(),
        "appends": (writer.disk.total_appends, writer.statistics),
        "crashed": writer.disk.crashed,
        "ids": ids,
        "begun": dict(writer._begun),
        "hwm": dict(writer.hwm),
    }


@given(batches(), st.data(), st.integers(min_value=0, max_value=3))
@settings(max_examples=400, deadline=None)
def test_the_batch_logs_what_the_per_record_hooks_log(batch, data, seed):
    fault = data.draw(faults(3 * len(batch["rows"]) + 2))
    expected = run(per_record, batch, fault, seed)
    got = run(batched, batch, fault, seed)
    assert got == expected
    if not got["crashed"]:
        # The bytes are those of the record codec, record by record.
        records = scan_wal(got["disk"]).records
        assert b"".join(map(encode_record, records)) == got["disk"]


def test_a_refused_first_row_leaves_no_byte_not_even_the_begin():
    writer = WalWriter(SimDisk())
    stop = writer.log_inserts(TABLE, [(1, "\ud800")], 0, [(0, 1)], lambda: IMPLICIT, True)
    assert stop is not None and stop[:3] == (0, 0, True)
    assert writer.disk.read_all() == b"" and writer.appends == 0


def test_each_record_is_one_append():
    writer = WalWriter(SimDisk())
    ids = iter(range(IMPLICIT, IMPLICIT + 3))
    rows = [(1, "a"), (2, None), (3, 2.5)]
    assert writer.log_inserts(TABLE, rows, 5, [(0, 1), (1, 3)], ids.__next__, True) is None
    kinds = [record.kind for record in scan_wal(writer.disk.read_all()).records]
    assert kinds == ["B", "I", "C", "B", "I", "I", "C"]
    assert writer.disk.total_appends == writer.appends == 7


def test_a_crash_on_the_commit_keeps_the_rows_uncommitted():
    writer = WalWriter(SimDisk())
    writer.disk.arm(DiskFaultProfile("clean", crash_at_append=3))
    ids = iter(range(IMPLICIT, IMPLICIT + 2))
    stop = writer.log_inserts(TABLE, [(1,), (2,)], 0, [(0, 1), (1, 2)], ids.__next__, True)
    assert stop is not None
    placed, timed, cut, error = stop
    assert (placed, timed, cut, type(error)) == (1, 0, False, DiskCrashed)
