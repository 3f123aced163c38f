"""Concurrency contracts: concurrent endpoint traffic, atomic proxy
get-or-create, service-map reads under writers, the reference table under
senders and parsers, and the fault-log bound."""

from __future__ import annotations

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

from rrt.codec import REFERENCE_MEMO_LIMIT, canonical_bytes, rior_to_doc
from rrt.errors import NetworkFault
from rrt.model import RIOR, Endpoint, MethodDescriptor
from rrt.node import FAULT_LOG_LIMIT, RRTNode
from rrt.remote import resolve_incoming_rior, build_rior
from rrt.remote import auto_deploy
from rrt.toolkit.demo import Key, Message, P2PNode


def test_concurrent_invokes_all_answered(pair):
    node_obj = P2PNode(Key("k"))
    pair.a.deploy(node_obj, "IP2PNode", "P2P")
    handle = pair.b.get_object_by_name(
        pair.a.endpoint.host, pair.a.endpoint.port, "P2P"
    )
    calls = 40
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(
            pool.map(lambda i: handle.invoke("getKey"), range(calls))
        )
    assert len(results) == calls
    assert pair.a.invoke_requests >= calls


def test_proxy_cache_get_or_create_atomic(pair):
    pair.a.deploy(P2PNode(Key("k")), "IP2PNode", "P2P")
    rior = build_rior(pair.a, pair.a.services.lookup("P2P"))
    handles = [None] * 16
    barrier = threading.Barrier(len(handles))

    def grab(i):
        barrier.wait()
        handles[i] = resolve_incoming_rior(pair.b, rior)

    threads = [threading.Thread(target=grab, args=(i,)) for i in range(len(handles))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(h is handles[0] for h in handles)


def test_service_map_reads_during_deploys(pair):
    stop = threading.Event()
    failures: list[Exception] = []

    def deployer():
        i = 0
        while not stop.is_set() and i < 50:
            pair.a.deploy(P2PNode(Key(f"k{i}")), None, f"svc-{i}")
            i += 1

    def reader():
        try:
            while not stop.is_set():
                for sk in pair.a.services.list_skeletons():
                    assert pair.a.services.lookup(sk.guid.hex) is sk
        except Exception as exc:  # noqa: BLE001 - surfaced after join
            failures.append(exc)

    writer = threading.Thread(target=deployer)
    watcher = threading.Thread(target=reader)
    watcher.start()
    writer.start()
    writer.join()
    stop.set()
    watcher.join()
    assert not failures
    assert len(pair.a.services) == 50


def test_emitted_refs_resolve_at_emitter(pair):
    # Whatever escapes by reference must already be a live service back home.
    pair.a.deploy(P2PNode(Key("k")), "IP2PNode", "P2P")
    handle = pair.b.get_object_by_name(
        pair.a.endpoint.host, pair.a.endpoint.port, "P2P"
    )
    msg = Message("payload")
    handle.route(Key("dest"), msg)  # default RRT policy: both args by reference
    # The message was auto-deployed on B (the emitter); its reference loops back.
    deployments = pair.b.services.deployments_of(msg)
    assert len(deployments) == 1
    rior = build_rior(pair.b, deployments[0])
    assert resolve_incoming_rior(pair.b, rior) is msg


def test_auto_deploy_one_service_when_two_threads_race(pair):
    # Each thread waits at the barrier inside deploy, so both pass the reuse
    # check before either deploys unless choosing and deploying is one step;
    # then the second thread waits on the registry and the barrier times out.
    node, key = pair.a, Key("raced")
    deploy = node.services.deploy
    barrier = threading.Barrier(2, timeout=0.5)

    def deploy_after_barrier(*args):
        try:
            barrier.wait()
        except threading.BrokenBarrierError:
            pass
        return deploy(*args)

    node.services.deploy = deploy_after_barrier
    riors = []
    threads = [
        threading.Thread(target=lambda: riors.append(auto_deploy(node, key, "Key")))
        for _ in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5)
    assert not any(t.is_alive() for t in threads)
    assert len(node.services.deployments_of(key)) == 1
    assert riors[0].guid == riors[1].guid


def test_reference_table_under_concurrent_senders_and_parsers(pair):
    """Threads sending the node's own references and threads parsing peers'
    documents that name the same GUIDs share one table: every reference sent
    is the node's own, and the table keeps its bound."""
    node = pair.a
    skeletons = [
        node.services.deploy(Message(str(i)), None, None) for i in range(REFERENCE_MEMO_LIMIT + 16)
    ]
    iface = node.types.lookup("IP2PNode").descriptor
    peer_docs = [
        json.loads(canonical_bytes(rior_to_doc(
            RIOR(Endpoint(node.endpoint.host, 1), sk.guid, "peer", iface))))
        for sk in skeletons
    ]
    wrong = []

    def send(t):
        for _ in range(3):
            for sk in skeletons[t::2]:
                rior = build_rior(node, sk)
                if rior.endpoint is not node.endpoint or rior.guid != sk.guid or (
                    rior.interface_descriptor is not sk.interface_descriptor
                ):
                    wrong.append(rior)

    def parse(t):
        for _ in range(3):
            for doc in peer_docs[t::2]:
                node.references.parse(doc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(work, t) for work in (send, parse) for t in range(2)]
            for future in futures:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert wrong == []
    assert len(node.references) <= REFERENCE_MEMO_LIMIT
    for sk in skeletons:
        rior = build_rior(node, sk)
        assert node.references.get(sk.guid.hex) is rior and rior.endpoint is node.endpoint


def test_fault_log_bound_holds_under_concurrent_faults():
    node = RRTNode()
    method = MethodDescriptor("ping")
    threads, per_thread = 4, FAULT_LOG_LIMIT // 2

    def suppress(t):
        for n in range(per_thread):
            node.handle_network_fault(method, NetworkFault(f"t{t} {n}"))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for future in [pool.submit(suppress, t) for t in range(threads)]:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert len(node.fault_log) == FAULT_LOG_LIMIT
    # Trimming drops the oldest records: what each thread still has is the
    # newest run of its own records, in order.
    for t in range(threads):
        kept = [int(r.rsplit(" ", 1)[1]) for r in node.fault_log if f" t{t} " in r]
        assert kept == list(range(per_thread - len(kept), per_thread))
