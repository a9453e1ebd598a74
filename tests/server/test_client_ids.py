"""Client ids come from the server a connection talks to.

A SEQUENCED frame names its client, the replay cache and the WAL's
high-water marks are keyed by it, and a recovery report lists the marks
by client.  So a stack's client ids must be a function of that stack
alone, not of how many connections the process opened before, and a
server over a recovered log must never hand a new client the id of a
client whose sequence numbers the log still holds.
"""

import json

from repro.network.clock import SimulatedClock
from repro.network.faults import DROP_5, FaultyLink, RetryPolicy
from repro.network.link import NetworkLink
from repro.recovery import Durability, SimDisk
from repro.server.client import RemoteConnection
from repro.server.server import DatabaseServer
from repro.sqldb.database import Database


def durable_stack(disk: SimDisk, seed: int, clients: int = 2):
    """A server over *disk* with *clients* retrying connections on a
    lossy link."""
    clock = SimulatedClock()
    durability = Durability(disk)
    database = durability.open()
    if "t" not in database.table_names():
        database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, client INTEGER)")
    server = DatabaseServer(database, durability=durability)
    connections = [
        RemoteConnection(
            server,
            FaultyLink.wrap(
                NetworkLink(latency_s=0.05, dtr_kbit_s=512, clock=clock),
                DROP_5,
                seed=seed * 2 + index,
            ),
            retry_policy=RetryPolicy(),
        )
        for index in range(clients)
    ]
    return server, durability, connections


def run_and_report(seed: int) -> bytes:
    """Build the stack, write through every client, restart the server
    and return the report of the run."""
    disk = SimDisk()
    server, durability, connections = durable_stack(disk, seed)
    for row in range(12):
        connection = connections[row % len(connections)]
        connection.execute("INSERT INTO t VALUES (?, ?)", [row, connection.client_id])
    server.restart()
    return json.dumps(
        {
            "client_ids": [connection.client_id for connection in connections],
            "recovery": durability.last_report.as_dict(),
            "rows": server.database.execute("SELECT id, client FROM t ORDER BY id").rows,
            "log": disk.read_all().hex(),
        },
        sort_keys=True,
    ).encode()


def test_a_stack_built_twice_in_one_process_gets_the_same_ids_and_report():
    first = run_and_report(seed=3)
    # Unrelated connections to other servers in between.
    for __ in range(5):
        RemoteConnection(DatabaseServer(Database()), NetworkLink(latency_s=0.01, dtr_kbit_s=512))
    assert run_and_report(seed=3) == first
    assert json.loads(first)["client_ids"] == [1, 2]


def test_a_fresh_server_over_an_old_disk_never_reissues_a_recovered_id():
    disk = SimDisk()
    __, __, old = durable_stack(disk, seed=1)
    # A client of a server that had served many connections before.
    old[1].client_id = 1_000_000
    for row, connection in enumerate(old):
        connection.execute("INSERT INTO t VALUES (?, ?)", [row, connection.client_id])
    server, durability, new = durable_stack(disk, seed=2, clients=3)
    recovered = durability.last_report.hwm
    assert set(recovered) == {old[0].client_id, 1_000_000}
    assert all(connection.client_id > max(recovered) for connection in new)
    # A new client's first sequence numbers are its own: none is refused
    # as a duplicate of an old client's.
    for row, connection in enumerate(new, start=len(old)):
        connection.execute("INSERT INTO t VALUES (?, ?)", [row, connection.client_id])
    assert server.statistics["hwm_suppressed"] == 0
    assert server.database.table_rowcount("t") == len(old) + len(new)
    # And the counter survives a restart.
    issued = max(connection.client_id for connection in new)
    server.restart()
    assert server.new_client_id() == issued + 1
