"""Concurrency contracts: concurrent endpoint traffic, atomic proxy
get-or-create, and service-map reads under writers."""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

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
