"""Unit tests for the generic Lamport mutual exclusion substrate.

These tests run the substrate over a synchronous in-memory transport
(no simulator), exercising the algorithm logic in isolation.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, List

import pytest
from hypothesis import given, settings, strategies as st

from repro.clock import Timestamp
from repro.errors import ProtocolError
from repro.mutex.lamport_core import (
    LamportMutexNode,
    MutexTransport,
    ReleasePayload,
    ReplyPayload,
    RequestPayload,
)


class LoopbackNet:
    """A FIFO message bus connecting Lamport nodes directly."""

    def __init__(self):
        self.nodes: Dict[str, LamportMutexNode] = {}
        self.queue = deque()
        self.delivered = 0

    def send(self, src, dst, kind, payload):
        self.queue.append((dst, kind, payload))

    def pump(self, limit=None):
        """Deliver queued messages in order (at most ``limit`` of them)."""
        while self.queue and (limit is None or limit > 0):
            if limit is not None:
                limit -= 1
            dst, kind, payload = self.queue.popleft()
            node = self.nodes[dst]
            if kind.endswith(".request"):
                node.on_request(payload)
            elif kind.endswith(".reply"):
                node.on_reply(payload)
            elif kind.endswith(".release"):
                node.on_release(payload)
            self.delivered += 1


class LoopbackTransport(MutexTransport):
    def __init__(self, net: LoopbackNet, node_id: str, all_ids: List[str]):
        self.net = net
        self.node_id = node_id
        self.all_ids = all_ids

    def peers(self):
        return [n for n in self.all_ids if n != self.node_id]

    def send(self, dst, kind, payload):
        self.net.send(self.node_id, dst, kind, payload)


def build(n: int):
    net = LoopbackNet()
    ids = [f"n{i}" for i in range(n)]
    grants: List[str] = []
    for node_id in ids:
        node = LamportMutexNode(
            node_id=node_id,
            transport=LoopbackTransport(net, node_id, ids),
            kind_prefix="lam",
            on_granted=lambda tag, nid=node_id: grants.append(nid),
        )
        net.nodes[node_id] = node
    return net, ids, grants


def test_single_request_granted_after_replies():
    net, ids, grants = build(3)
    net.nodes["n0"].request("t")
    assert grants == []  # needs replies first
    net.pump()
    assert grants == ["n0"]


def test_held_request_blocks_others():
    net, ids, grants = build(3)
    net.nodes["n0"].request("a")
    net.pump()
    net.nodes["n1"].request("b")
    net.pump()
    assert grants == ["n0"]  # n1 waits for n0's release
    net.nodes["n0"].release("a")
    net.pump()
    assert grants == ["n0", "n1"]


def test_grants_follow_timestamp_order():
    net, ids, grants = build(4)
    # All request before any message is delivered: timestamps tie on
    # counter and break by node id.
    for node_id in reversed(ids):
        net.nodes[node_id].request("t")
    net.pump()
    order = []
    # Release in grant order until all four have been served.
    while len(order) < 4:
        assert grants[len(order):], "no progress"
        current = grants[len(order)]
        order.append(current)
        net.nodes[current].release("t")
        net.pump()
    assert order == sorted(ids)


def test_message_count_is_three_n_minus_one():
    net, ids, grants = build(5)
    net.nodes["n2"].request("t")
    net.pump()
    net.nodes["n2"].release("t")
    net.pump()
    # request x4, reply x4, release x4.
    assert net.delivered == 3 * (len(ids) - 1)


def test_multiple_tags_from_one_node_serialize():
    net, ids, grants = build(3)
    net.nodes["n0"].request("first")
    net.nodes["n0"].request("second")
    net.pump()
    node = net.nodes["n0"]
    assert node.held_tags() == ["first"]
    assert node.pending_tags() == ["second"]
    node.release("first")
    net.pump()
    assert node.held_tags() == ["second"]


def test_duplicate_tag_rejected():
    net, ids, grants = build(2)
    net.nodes["n0"].request("t")
    with pytest.raises(ProtocolError):
        net.nodes["n0"].request("t")


def test_release_without_hold_rejected():
    net, ids, grants = build(2)
    with pytest.raises(ProtocolError):
        net.nodes["n0"].release("t")


def test_abort_pending_request_unblocks_peers():
    net, ids, grants = build(3)
    net.nodes["n0"].request("a")   # earliest timestamp
    net.nodes["n1"].request("b")
    net.pump()
    assert grants == ["n0"]
    # n0 aborts while holding: equivalent to release.
    net.nodes["n0"].abort("a")
    net.pump()
    assert grants == ["n0", "n1"]


def test_abort_of_unknown_tag_is_noop():
    net, ids, grants = build(2)
    net.nodes["n0"].abort("nothing")
    assert grants == []


def test_queue_drains_after_releases():
    net, ids, grants = build(3)
    net.nodes["n0"].request("t")
    net.pump()
    net.nodes["n0"].release("t")
    net.pump()
    for node in net.nodes.values():
        assert node.queue_size == 0


def test_bystander_never_scans_its_queue(monkeypatch):
    """Only an own pending request can be granted, so a node without
    one takes requests, replies and releases without the min() scan."""
    net, ids, grants = build(4)
    scans = {node_id: 0 for node_id in ids}
    scan = LamportMutexNode._min_queue_entry

    def counting_scan(node):
        scans[node.node_id] += 1
        return scan(node)

    monkeypatch.setattr(LamportMutexNode, "_min_queue_entry", counting_scan)
    net.nodes["n0"].request("a")
    net.pump()
    net.nodes["n1"].request("b")
    net.pump()
    for bystander in ("n2", "n3"):
        assert net.nodes[bystander].queue_size == 2
    net.nodes["n0"].release("a")
    net.pump()
    net.nodes["n1"].release("b")
    net.pump()
    assert grants == ["n0", "n1"]
    assert scans["n2"] == scans["n3"] == 0
    assert scans["n0"] > 0 and scans["n1"] > 0
    assert all(node.queue_size == 0 for node in net.nodes.values())


def test_interleaved_requests_grant_in_timestamp_order():
    """Requests issued while earlier ones are still in flight are
    served in timestamp order, whatever order the messages land in."""
    net, ids, grants = build(4)
    stamps = {"n3": net.nodes["n3"].request("t")}
    net.pump(limit=2)  # n3's request has reached n0 and n1, not n2
    stamps["n1"] = net.nodes["n1"].request("t")
    net.pump(limit=3)
    stamps["n0"] = net.nodes["n0"].request("t")
    net.pump()
    order = []
    while len(order) < len(stamps):
        assert grants[len(order):], "no progress"
        current = grants[len(order)]
        order.append(current)
        net.nodes[current].release("t")
        net.pump()
    assert order == sorted(stamps, key=stamps.get)
    assert grants == order


@settings(deadline=None, max_examples=40)
@given(
    requests=st.lists(
        st.integers(min_value=0, max_value=4), min_size=1, max_size=12
    )
)
def test_property_safety_and_liveness_under_any_request_order(requests):
    """Any interleaving of requests is granted one at a time and every
    request is eventually granted (with immediate release)."""
    net, ids, grants = build(5)
    active = {nid: False for nid in ids}
    expected = 0
    for req in requests:
        node_id = ids[req]
        if active[node_id]:
            continue
        active[node_id] = True
        expected += 1
        net.nodes[node_id].request("t")
        net.pump()
    # Serve until everything granted: at every point at most one holder.
    served = 0
    while served < expected:
        assert len(grants) > served, "liveness violated"
        holder = grants[served]
        holders_now = [
            nid for nid in ids if net.nodes[nid].held_tags()
        ]
        assert holders_now == [holder]
        net.nodes[holder].release("t")
        active[holder] = False
        served += 1
        net.pump()
    assert len(grants) == expected


def _lone_node(on_granted):
    """``n0`` with three peers on a bus nobody pumps: the peers never
    answer, the test plays them itself."""
    ids = ["n0", "n1", "n2", "n3"]
    node = LamportMutexNode(
        "n0", LoopbackTransport(LoopbackNet(), "n0", ids), "lam", on_granted)
    return node, ids[1:]


@pytest.mark.parametrize("seed", [7, 19, 1994])
def test_kept_head_matches_a_full_scan_after_every_step(seed):
    """Differential: one node driven through random interleavings of
    every operation that edits its queue; after each step the kept head
    is either "unknown" or exactly what a brute-force ``min()`` over
    the queue returns, and ``_min_queue_entry`` returns exactly that."""
    rng = random.Random(seed)
    granted = []
    node, peers = _lone_node(granted.append)
    tags = [f"t{i}" for i in range(4)]

    def peer_stamp():
        # A narrow counter range: stamps collide across tags and land
        # on either side of the current head all the time.
        origin = rng.choice(peers)
        return origin, Timestamp(rng.randrange(1, 12), origin)

    def step():
        op = rng.randrange(9)
        tag = rng.choice(tags)
        if op == 0:
            if tag not in node.pending_tags() + node.held_tags():
                node.request(tag)
        elif op == 1:  # a new key, or a re-announce overwriting one
            origin, ts = peer_stamp()
            node.on_request(RequestPayload(ts, origin, tag))
        elif op == 2:  # a late stamp: lets own requests reach the grant
            origin = rng.choice(peers)
            node.on_reply(ReplyPayload(
                Timestamp(node.clock.counter + 5, origin), origin))
        elif op == 3:
            origin, ts = peer_stamp()
            node.on_release(ReleasePayload(ts, origin, tag))
        elif op == 4:
            if tag in node.held_tags():
                node.release(tag)
        elif op == 5:
            node.abort(tag)
        elif op == 6:
            node.forget_origin(rng.choice(peers))
        elif op == 7:
            if rng.random() < 0.1:
                node.reset_volatile()
        else:  # own request re-stamped in place, as a re-announce would
            own = [key for key in node._queue if key[0] == "n0"]
            if own:
                node._enqueue(rng.choice(own), node.clock.tick())

    moved = 0
    for _ in range(3000):
        before = node._head
        step()
        queue = node._queue
        brute = min(queue, key=queue.__getitem__) if queue else None
        assert node._head in (None, brute)
        # Read (and so repair) the head only on some steps: a bystander
        # never reads it, and "unknown" has to survive further edits.
        if rng.random() < 0.5:
            assert node._min_queue_entry() == brute
            assert node._head == brute
        moved += brute != before
    assert granted and moved > 300  # the walk reached every branch


def test_head_is_kept_across_edits_that_cannot_move_it():
    """A bystander pays a compare per insert, not a scan: only taking
    the head away makes it unknown, and the next reader re-scans."""
    node, _ = _lone_node(on_granted=None)

    def request(counter, origin):
        node.on_request(
            RequestPayload(Timestamp(counter, origin), origin, "t"))

    def release(origin):
        node.on_release(
            ReleasePayload(Timestamp(20, origin), origin, "t"))

    request(5, "n1")
    assert node._head == ("n1", "t")
    request(7, "n2")  # behind the head
    assert node._head == ("n1", "t")
    request(3, "n3")  # ahead of it
    assert node._head == ("n3", "t")
    release("n2")  # not the head
    assert node._head == ("n3", "t")
    release("n3")
    assert node._head is None and node.queue_size == 1
    assert node._min_queue_entry() == node._head == ("n1", "t")
    release("n1")
    request(9, "n2")  # into an empty queue: known again at once
    assert node._head == ("n2", "t")
