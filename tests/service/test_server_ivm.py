"""Server-side IVM surface: RETRACT, SUBSCRIBE/UNSUBSCRIBE, DELTA push."""

import json
import socket
import time

import pytest

from repro.engine.database import Database
from repro.service import QuerySession

SOURCE = """
edge(n1, n2). edge(n2, n3).
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- edge(X, Z), tc(Z, Y).
"""


def make_server(serve, ivm=True, **kwargs):
    db = Database()
    db.load_source(SOURCE)
    return serve(QuerySession(db, ivm=ivm), **kwargs)


@pytest.fixture
def server(serve):
    return make_server(serve)


class Client:
    def __init__(self, server):
        self.sock = socket.create_connection(server.address, timeout=10)
        self.file = self.sock.makefile("rw", encoding="utf-8")

    def request(self, line):
        self.file.write(line + "\n")
        self.file.flush()
        return json.loads(self.file.readline())

    def read_line(self):
        return json.loads(self.file.readline())

    def close(self):
        try:
            self.file.close()
            self.sock.close()
        except OSError:
            pass


@pytest.fixture
def client(server):
    c = Client(server)
    yield c
    c.close()


class TestRetract:
    def test_retract_removes_fact(self, server, client):
        reply = client.request("RETRACT edge(n1, n2)")
        assert reply["ok"] and reply["verb"] == "RETRACT"
        assert reply["removed"]
        answers = client.request("QUERY tc(n1, Y)")
        assert answers["count"] == 0

    def test_retract_missing_fact(self, client):
        reply = client.request("RETRACT edge(n9, n9).")
        assert reply["ok"] and not reply["removed"]

    def test_retract_rule_rejected(self, client):
        reply = client.request("RETRACT tc(X, Y) :- edge(X, Y)")
        assert not reply["ok"]
        assert reply["error"]["type"] == "ProtocolError"

    def test_retract_needs_argument(self, client):
        reply = client.request("RETRACT")
        assert not reply["ok"]

    def test_retract_bumps_edb_version(self, server, client):
        before = server.session.database.edb_version
        client.request("RETRACT edge(n1, n2)")
        assert server.session.database.edb_version == before + 1


class TestSubscribe:
    def test_subscribe_by_name_arity_and_literal(self, client):
        reply = client.request("SUBSCRIBE tc/2")
        assert reply["ok"] and reply["verb"] == "SUBSCRIBE"
        assert reply["predicate"] == "tc/2"
        reply = client.request("SUBSCRIBE edge(X, Y)")
        assert reply["ok"] and reply["predicate"] == "edge/2"

    def test_edb_delta_envelope(self, server, client):
        client.request("SUBSCRIBE edge/2")
        mutator = Client(server)
        mutator.request("FACT edge(n3, n4).")
        delta = client.read_line()
        assert delta["ok"] and delta["verb"] == "DELTA"
        assert delta["predicate"] == "edge/2"
        assert delta["adds"] == [["n3", "n4"]]
        assert delta["dels"] == []
        assert "edb_version" in delta
        mutator.close()

    def test_derived_delta_matches_recompute_diff(self, server, client):
        client.request("SUBSCRIBE tc/2")
        mutator = Client(server)
        mutator.request("FACT edge(n3, n4).")
        delta = client.read_line()
        assert delta["predicate"] == "tc/2"
        assert sorted(delta["adds"]) == [
            ["n1", "n4"], ["n2", "n4"], ["n3", "n4"],
        ]
        mutator.request("RETRACT edge(n1, n2)")
        delta = client.read_line()
        assert sorted(delta["dels"]) == [
            ["n1", "n2"], ["n1", "n3"], ["n1", "n4"],
        ]
        assert delta["adds"] == []
        mutator.close()

    def test_batched_mutations_push_net_delta(self, server, client):
        client.request("SUBSCRIBE tc/2")
        server.session.apply_batch(
            [
                ("add", "edge", ("n3", "n4")),
                ("retract", "edge", ("n2", "n3")),
            ]
        )
        delta = client.read_line()
        assert delta["predicate"] == "tc/2"
        assert sorted(delta["adds"]) == [["n3", "n4"]]
        assert sorted(delta["dels"]) == [
            ["n1", "n3"], ["n2", "n3"],
        ]

    def test_derived_subscription_requires_ivm(self, serve):
        client = Client(make_server(serve, ivm=False))
        reply = client.request("SUBSCRIBE tc/2")
        assert not reply["ok"]
        assert reply["error"]["type"] == "Unsubscribable"
        # EDB subscriptions still work without IVM.
        assert client.request("SUBSCRIBE edge/2")["ok"]
        client.close()

    def test_subscriber_gauge_in_stats(self, server, client):
        assert client.request("STATS")["stats"]["subscribers"] == 0
        client.request("SUBSCRIBE edge/2")
        assert client.request("STATS")["stats"]["subscribers"] == 1

    def test_unsubscribe_by_id_and_all(self, server, client):
        first = client.request("SUBSCRIBE edge/2")["subscription"]
        client.request("SUBSCRIBE tc/2")
        reply = client.request(f"UNSUBSCRIBE {first}")
        assert reply["ok"] and reply["removed"] == [first]
        reply = client.request("UNSUBSCRIBE")
        assert reply["ok"] and len(reply["removed"]) == 1
        assert client.request("STATS")["stats"]["subscribers"] == 0

    def test_unsubscribe_cannot_steal_other_connections(self, server, client):
        sub_id = client.request("SUBSCRIBE edge/2")["subscription"]
        other = Client(server)
        reply = other.request(f"UNSUBSCRIBE {sub_id}")
        assert reply["ok"] and reply["removed"] == []
        other.close()

    def test_disconnect_drops_subscriptions(self, server, client):
        client.request("SUBSCRIBE edge/2")
        assert server.subscriptions.count() == 1
        client.close()
        deadline = time.monotonic() + 5
        while server.subscriptions.count() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert server.subscriptions.count() == 0


class TestIdleTimeoutExemption:
    def test_subscriber_outlives_idle_timeout(self, serve):
        srv = make_server(serve, idle_timeout=0.3)
        subscriber = Client(srv)
        subscriber.request("SUBSCRIBE tc/2")
        time.sleep(1.2)  # past the idle timeout and a sweep period
        # Still alive: a mutation reaches it and requests still work.
        srv.session.add_fact("edge", ("n3", "n4"))
        delta = subscriber.read_line()
        assert delta["verb"] == "DELTA"
        assert subscriber.request("STATS")["ok"]
        subscriber.close()

    def test_plain_connection_still_reaped(self, serve):
        idle = Client(make_server(serve, idle_timeout=0.2))
        idle.request("STATS")
        idle.sock.settimeout(5)
        try:
            data = idle.sock.recv(1)
        except (ConnectionError, socket.timeout):
            data = b"?"
        assert data == b""  # server closed the idle connection
        idle.close()
