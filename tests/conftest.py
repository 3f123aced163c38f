from __future__ import annotations

import sys
import threading
import time
import traceback
from types import SimpleNamespace

import pytest

import rrt.node
from rrt.node import NodeConfig, RRTNode, serve
from rrt.registry import TypeRegistry
from rrt.toolkit import LocalPair, register_demo_types

ACCEPTANCE_LABELS = {
    "a1": "precedence resolution matches the brute-force 7-level oracle",
    "a2": "codec round-trips graphs with aliasing and envelopes byte-exactly",
    "a3": "reference semantics: proxy dedup, loop-back identity, auto-deploy",
    "a4": "smart proxy: cached reads bypass the wire, no coherency on writes",
    "a5": "policy evaluation overhead stays within bounds",
    "a6": "failure model: application, suppressed and fast-fail network faults",
    "a7": "deployment contract: multi-interface services and rejection paths",
    "a8": "by-value depth limits inline exactly as deep as configured",
}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "connection_error: the test makes a node's connection thread fail"
    )


@pytest.fixture(autouse=True)
def no_unexpected_connection_error(request, monkeypatch):
    """Fail a test during which a node's connection thread ended on an
    exception other than ``OSError``, unless the test is marked
    ``connection_error``. ``RRTNode._serve`` prints such an exception's
    traceback and closes that connection; this fixture also notes it.
    Torn down after ``no_node_thread_outlives_its_test``, once the test's
    node threads have ended."""
    failures = []

    def print_exc(*args, **kwargs):
        failures.append(repr(sys.exc_info()[1]))
        traceback.print_exc(*args, **kwargs)

    monkeypatch.setattr(rrt.node, "traceback", SimpleNamespace(print_exc=print_exc))
    yield
    if failures and request.node.get_closest_marker("connection_error") is None:
        pytest.fail(f"a node's connection thread failed: {failures}")


@pytest.fixture(autouse=True)
def no_node_thread_outlives_its_test(no_unexpected_connection_error):
    """Fail a test when a node thread it started is alive 1 s after its nodes
    stopped. A node's accept thread and connection threads are named
    ``rrt-node-<port>...``; this fixture is torn down after the test's others
    but ``no_unexpected_connection_error``."""
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + 1.0
    while leaked := [
        t.name for t in threading.enumerate()
        if t.name.startswith("rrt-node-") and t not in before
    ]:
        if time.monotonic() > deadline:
            pytest.fail(f"node threads outlived the test: {leaked}")
        time.sleep(0.01)


@pytest.fixture
def pair():
    with LocalPair(seed=11, registrars=(register_demo_types,)) as p:
        yield p


@pytest.fixture
def node_factory():
    nodes: list[RRTNode] = []

    def make(config: NodeConfig | None = None, *, registrars=(register_demo_types,),
             **kwargs) -> RRTNode:
        types = TypeRegistry()
        for register in registrars:
            register(types)
        node = serve(config or NodeConfig(port=0), types=types, **kwargs)
        nodes.append(node)
        return node

    yield make
    for node in nodes:
        node.stop()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py::test_a" not in nodeid:
                continue
            name = nodeid.split("::")[-1]
            tag = name.split("_")[1]
            label = ACCEPTANCE_LABELS.get(tag, name)
            verdict = "PASS" if status == "passed" else "FAIL"
            lines.append(f"{tag.upper()} {verdict} — {label}")
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(set(lines)):
            terminalreporter.write_line(line)
