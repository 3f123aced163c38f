"""Acceptance gate: one test per criterion, each judged against an
independent oracle or hard-counted behavior at its stated tolerance."""

from __future__ import annotations

import itertools
import random
import time

import pytest

import support
from rrt.codec import (
    decode_request,
    decode_response,
    decode_value,
    encode_request,
    encode_response,
    encode_value,
)
from rrt.errors import ApplicationFault, DeploymentError, NetworkFault
from rrt.model import (
    DEFAULT_RULE,
    Endpoint,
    MethodDescriptor,
    PolicyKind,
    RIOR,
    TypeDescriptor,
    UNBOUNDED,
    by_value,
    guid_new,
)
from rrt.policy import CallContext, CallRole, PeerKind, TransmissionPolicyManager
from rrt.registry import MethodTable, TypeRegistry
from rrt.remote import Handle, resolve_incoming_rior, build_rior
from rrt.toolkit import bench_policy_overhead
from rrt.toolkit.demo import Key, P2PNode, install_demo_policy
from support import GNode, gen_graph, graph_registry, graphs_equal, prim

import test_node

VAL = PolicyKind.BY_VALUE
REF = PolicyKind.BY_REFERENCE

# ---------------------------------------------------------------------------
# A1 — precedence resolution equals the brute-force 7-level oracle
# ---------------------------------------------------------------------------

_CHAINS = {"Derived": ["Derived", "Base"], "Base": ["Base"]}
_PARAM_DEPTH = 2
_METHOD_DEPTH = 5


def _a1_types() -> TypeRegistry:
    types = TypeRegistry()
    types.register_type(TypeDescriptor("Base"))
    types.register_type(TypeDescriptor("Derived", supertype_name="Base"))
    return types


def _tier_states(with_subtype_flag: bool):
    options = [None]
    for policy in (VAL, REF):
        if with_subtype_flag:
            options.extend([(policy, False), (policy, True)])
        else:
            options.append((policy, False))
    return list(itertools.product(options, options))  # (non-ov state, ov state)


def _install(manager, tracked, kind, state, **where):
    for overridable, chosen in zip((False, True), state):
        if chosen is None:
            continue
        policy, subtypes = chosen
        if kind == "param":
            rid = manager.set_param_policy(
                where["type"], where["method"], where["index"],
                policy, _PARAM_DEPTH, overridable,
            )
        elif kind == "method":
            rid = manager.set_method_policy(
                where["type"], where["method"], policy, _METHOD_DEPTH, overridable
            )
        elif kind == "return":
            rid = manager.set_return_value_policy(
                where["type"], where["method"], policy, overridable
            )
        else:
            rid = manager.set_class_policy(where["type"], policy, overridable, subtypes)
        tracked.append(
            dict(kind=kind, policy=policy, overridable=overridable,
                 subtypes=subtypes, rule_id=rid, **where)
        )


def _oracle(tracked, ctx: CallContext):
    """Sort every applicable rule by the 7-level ladder and take the head."""
    applicable = []
    for rule in tracked:
        entry = None
        if rule["kind"] == "param" and ctx.role is CallRole.ARGUMENT:
            if (rule["type"], rule["method"], rule["index"]) == (
                ctx.declared_type_name, ctx.method_name, ctx.param_index
            ):
                entry = (1 if not rule["overridable"] else 4, 0)
        elif rule["kind"] == "method" and ctx.role is CallRole.ARGUMENT:
            if (rule["type"], rule["method"]) == (ctx.declared_type_name, ctx.method_name):
                entry = (2 if not rule["overridable"] else 5, 0)
        elif rule["kind"] == "return" and ctx.role is CallRole.RETURN_VALUE:
            if (rule["type"], rule["method"]) == (ctx.declared_type_name, ctx.method_name):
                entry = (2 if not rule["overridable"] else 5, 0)
        elif rule["kind"] == "class":
            chain = _CHAINS[ctx.actual_type_name]
            if rule["type"] in chain:
                pos = chain.index(rule["type"])
                if pos == 0 or rule["subtypes"]:
                    entry = (3 if not rule["overridable"] else 6, pos)
        if entry is not None:
            applicable.append((entry[0], entry[1], rule))
    if not applicable:
        return None
    level, _, rule = min(applicable, key=lambda item: (item[0], item[1]))
    if rule["policy"] is VAL:
        if rule["kind"] == "param":
            depth = _PARAM_DEPTH
        elif rule["kind"] == "method":
            depth = _METHOD_DEPTH
        else:
            depth = UNBOUNDED
    else:
        depth = None
    return (rule["policy"], depth, rule["rule_id"], level)


def _check_configs(slot_plan, contexts):
    checked = 0
    state_sets = [_tier_states(plan.get("flagged", False)) for plan in slot_plan]
    types = _a1_types()
    for combo in itertools.product(*state_sets):
        manager = TransmissionPolicyManager(types=types)
        tracked: list[dict] = []
        for plan, state in zip(slot_plan, combo):
            _install(manager, tracked, plan["kind"], state, **plan["where"])
        for ctx in contexts:
            got = manager.resolve(ctx)
            want = _oracle(tracked, ctx)
            if want is None:
                assert got.winning_rule == DEFAULT_RULE
                assert got.kind is (REF if ctx.peer_kind is PeerKind.RRT else VAL)
            else:
                assert (got.kind, got.depth, got.winning_rule, got.level) == want
            checked += 1
    return checked


def test_a1_precedence_oracle_equivalence():
    start = time.monotonic()

    def actx(method, index, actual):
        return CallContext(CallRole.ARGUMENT, "I", method, actual,
                           PeerKind.RRT, index)

    def rctx(method, actual):
        return CallContext(CallRole.RETURN_VALUE, "I", method, actual, PeerKind.RRT)

    argument_checked = _check_configs(
        [
            {"kind": "param", "where": {"type": "I", "method": "m1", "index": 0}},
            {"kind": "method", "where": {"type": "I", "method": "m1"}},
            {"kind": "class", "where": {"type": "Derived"}},
            {"kind": "class", "where": {"type": "Base"}, "flagged": True},
        ],
        [
            actx("m1", 0, "Derived"),
            actx("m1", 0, "Base"),
            actx("m1", 1, "Derived"),
            actx("m2", 0, "Derived"),
        ],
    )
    return_checked = _check_configs(
        [
            {"kind": "return", "where": {"type": "I", "method": "m1"}},
            {"kind": "class", "where": {"type": "Derived"}},
            {"kind": "class", "where": {"type": "Base"}, "flagged": True},
        ],
        [
            rctx("m1", "Derived"),
            rctx("m1", "Base"),
            rctx("m2", "Derived"),
        ],
    )
    elapsed = time.monotonic() - start
    assert argument_checked == 9 * 9 * 9 * 25 * 4
    assert return_checked == 9 * 9 * 25 * 3
    assert elapsed < 10.0, f"A1 took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# A2 — codec round trips: graphs with aliasing, envelopes byte-exactly
# ---------------------------------------------------------------------------


def test_a2_codec_round_trip():
    start = time.monotonic()
    registry = graph_registry()
    rnd = random.Random(0xC0DEC)
    for _ in range(1000):
        graph = gen_graph(rnd, max_nodes=50, cycle_p=0.2, alias_p=0.3)
        wire = encode_value(graph, by_value(), registry=registry)
        back = decode_value(wire, registry=registry)
        assert graphs_equal(registry, graph, back)
    for i in range(1000):
        if i % 2 == 0:
            raw = encode_request(support.gen_request(rnd))
            assert encode_request(decode_request(raw)) == raw
        else:
            raw = encode_response(support.gen_response(rnd))
            assert encode_response(decode_response(raw)) == raw
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"A2 took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# A3 — reference semantics end to end on a two-node pair
# ---------------------------------------------------------------------------


def test_a3_reference_semantics_end_to_end(pair):
    node_obj = P2PNode(Key("node-key"))
    pair.a.deploy(node_obj, "IP2PNode", "P2P")
    host, port = pair.a.endpoint.host, pair.a.endpoint.port

    # (i) one handle per remote reference, however often it arrives
    rior = build_rior(pair.a, pair.a.services.lookup("P2P"))
    h1 = resolve_incoming_rior(pair.b, rior)
    h2 = resolve_incoming_rior(pair.b, rior)
    h3 = pair.b.get_object_by_name(host, port, "P2P")
    assert h1 is h2 is h3

    # (ii) loop-back: the reference returns home as the original object
    h3.addPeer(h3)
    assert node_obj.peers[-1] is node_obj
    assert resolve_incoming_rior(pair.a, rior) is node_obj

    # (iii) an undeployed return value is auto-deployed exactly once
    before = len(pair.a.services)
    key_handle = h3.getKey()
    assert isinstance(key_handle, Handle)
    assert len(pair.a.services) == before + 1
    assert key_handle.get_value() == "node-key"
    assert h3.getKey() is key_handle
    assert len(pair.a.services) == before + 1


# ---------------------------------------------------------------------------
# A4 — smart proxies: cached reads bypass the wire, writes stay local
# ---------------------------------------------------------------------------


def test_a4_smart_proxy(pair):
    node_obj = P2PNode(Key("node-key"))
    pair.a.deploy(node_obj, "IP2PNode", "P2P")
    install_demo_policy(pair.a)  # the two published smart-proxy rules
    install_demo_policy(pair.b)
    handle = pair.b.get_object_by_name(
        pair.a.endpoint.host, pair.a.endpoint.port, "P2P"
    )

    invoke_hits = pair.a.invoke_requests
    sends = support.SendCounter(pair.b)
    got = handle.get_key()
    assert pair.a.invoke_requests == invoke_hits, "cached read used the invoke endpoint"
    assert sends.count == 0
    assert isinstance(got, Key) and got.value == "node-key"

    # No coherency: a local set leaves the deployed object untouched.
    handle.set_key(Key("proxy-local"))
    assert pair.a.invoke_requests == invoke_hits
    assert node_obj.key.value == "node-key"
    remote = test_node.invoke(pair.a, "P2P", "get_key", peer="plain")
    assert remote.result["fields"]["value"]["v"] == "node-key"
    assert handle.get_key().value == "proxy-local"


# ---------------------------------------------------------------------------
# A5 — policy evaluation overhead
# ---------------------------------------------------------------------------


def test_a5_policy_overhead():
    report = bench_policy_overhead(1600)
    assert report.calls == 1600
    assert report.mean_without_policy_ms > 0
    assert report.overhead_ratio <= 0.10, (
        f"policy phase cost {report.overhead_ratio:.1%} "
        f"({report.mean_without_policy_ms:.3f} -> {report.mean_with_policy_ms:.3f} ms)"
    )


# ---------------------------------------------------------------------------
# A6 — failure model matrix
# ---------------------------------------------------------------------------


class Moody:
    """Raises on app_* methods; net_* methods only matter once the node dies."""

    def app_i64(self):
        raise RuntimeError("bad count")

    def app_bool(self):
        raise RuntimeError("bad flag")

    def app_text(self):
        raise RuntimeError("bad text")

    def app_void(self):
        raise RuntimeError("bad call")

    def net_i64(self):
        return 1

    def net_bool(self):
        return True

    def net_text(self):
        return "up"

    def net_void(self):
        return None

    def dnet_i64(self):
        return 1

    def dnet_void(self):
        return None


_RETURNS = {"i64": "i64", "bool": "bool", "text": "string", "void": "void"}

MOODY_TYPE = TypeDescriptor(
    "Moody",
    methods=tuple(
        MethodDescriptor(f"app_{label}", (), rt) for label, rt in _RETURNS.items()
    )
    + tuple(MethodDescriptor(f"net_{label}", (), rt) for label, rt in _RETURNS.items())
    + (
        MethodDescriptor("dnet_i64", (), "i64", declares_network_fault=True),
        MethodDescriptor("dnet_void", (), "void", declares_network_fault=True),
    ),
)

_SUPPRESSED = {"i64": 0, "bool": False, "text": None, "void": None}


def test_a6_failure_model(pair):
    pair.b.types.register_type(
        MOODY_TYPE, MethodTable.for_class(Moody, MOODY_TYPE), py_type=Moody
    )
    pair.b.deploy(Moody(), name="moody")
    handle = pair.a.get_object_by_name(
        pair.b.endpoint.host, pair.b.endpoint.port, "moody"
    )

    # Application faults always propagate and are catchable at the caller.
    for label in _RETURNS:
        with pytest.raises(ApplicationFault) as info:
            handle.invoke(f"app_{label}")
        assert info.value.fault_class == "RuntimeError"

    pair.b.stop()

    # Undeclared network faults suppress to 0/false/null plus one log record.
    pair.a.config.fast_fail = False
    for label, expected in _SUPPRESSED.items():
        records = len(pair.a.fault_log)
        got = handle.invoke(f"net_{label}")
        assert got == expected and type(got) is type(expected)
        assert len(pair.a.fault_log) == records + 1
        assert f"net_{label}/0" in pair.a.fault_log[-1]

    # Fast-fail flips suppression into propagation, marked as such.
    pair.a.config.fast_fail = True
    for label in _RETURNS:
        with pytest.raises(NetworkFault) as info:
            handle.invoke(f"net_{label}")
        assert info.value.fast_fail is True

    # A declared fault clause always propagates, fast-fail or not.
    pair.a.config.fast_fail = False
    logged = len(pair.a.fault_log)
    for method in ("dnet_i64", "dnet_void"):
        with pytest.raises(NetworkFault) as info:
            handle.invoke(method)
        assert info.value.fast_fail is False
    assert len(pair.a.fault_log) == logged


# ---------------------------------------------------------------------------
# A7 — deployment contract
# ---------------------------------------------------------------------------


def test_a7_deployment_contract(pair):
    node_obj = P2PNode(Key("node-key"))
    riors = [
        pair.a.deploy(node_obj, "IManage", "Manage"),
        pair.a.deploy(node_obj, "IMonitor", "Monitor"),
        pair.a.deploy(node_obj, "IP2PNode", "P2P"),
    ]
    assert len({r.guid for r in riors}) == 3

    args = (prim("str", "dest"), prim("str", "payload"))
    rejected = test_node.invoke(pair.a, "Manage", "route", args)
    assert not rejected.ok and rejected.fault.kind == "protocol"
    accepted = test_node.invoke(pair.a, "P2P", "route", args)
    assert accepted.ok

    with pytest.raises(DeploymentError, match="already in use"):
        pair.a.deploy(node_obj, "IP2PNode", "P2P")

    pair.a.types.register_type(
        TypeDescriptor("IFly", methods=(MethodDescriptor("fly"),), is_interface=True)
    )
    with pytest.raises(DeploymentError, match="fly"):
        pair.a.deploy(node_obj, "IFly", "Bird")


# ---------------------------------------------------------------------------
# A8 — depth semantics against the depth-cutoff oracle
# ---------------------------------------------------------------------------


def _cutoff_oracle(node, level, depth):
    """Expected wire shape of the chain: inline within depth, ref at the cut."""
    if node is None:
        return ("null",)
    if depth is not UNBOUNDED and level > depth:
        return ("ref",)
    return ("obj", node.tag, _cutoff_oracle(node.left, level + 1, depth))


def _wire_shape(wire):
    if wire == prim("null"):
        return ("null",)
    if wire["k"] == "ref":
        return ("ref",)
    assert wire["k"] == "obj"
    return ("obj", wire["fields"]["tag"]["v"], _wire_shape(wire["fields"]["left"]))


def _inlined_levels(wire):
    if wire["k"] != "obj":
        return 0
    return 1 + max(
        (_inlined_levels(v) for v in wire["fields"].values()), default=0
    )


def test_a8_depth_semantics():
    registry = graph_registry()
    chain = GNode(tag="l1", left=GNode(tag="l2", left=GNode(tag="l3", left=GNode(tag="l4"))))

    def deploy_stub(obj, signature):
        return RIOR(Endpoint("faraway", 9), guid_new(),
                    interface_descriptor=support.GNODE_TYPE)

    for depth in (1, 2, 3, UNBOUNDED):
        wire = encode_value(
            chain, by_value(depth), registry=registry, deploy_ref=deploy_stub
        )
        assert _wire_shape(wire) == _cutoff_oracle(chain, 1, depth)
        expected_levels = 4 if depth is UNBOUNDED else min(depth, 4)
        assert _inlined_levels(wire) == expected_levels
