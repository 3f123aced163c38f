"""Golden v1 envelopes: fixed inputs whose encoded bytes are recorded in
``data/golden_v1.json``.

The cases cover every primitive tag (i64 at both bounds, f64, bool, unicode
and control-character strings, null), an aliased graph with a cycle and
nested sequences, depth-cut references that carry a cache snapshot, and the
three fault kinds, each as request and response bytes. The fixture pins the
v1 bytes, so it must only be rewritten together with a new protocol version:

    PYTHONPATH=src:tests python tests/golden.py
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import support
from rrt.codec import (
    I64_MAX,
    I64_MIN,
    Fault,
    MessageEncoder,
    Request,
    Response,
    encode_request,
    encode_response,
    encode_value,
)
from rrt.model import (
    RIOR,
    UNBOUNDED,
    Endpoint,
    TransmissionDecision,
    by_reference,
    by_value,
    guid_new,
)
from support import GNode

FIXTURE = Path(__file__).parent / "data" / "golden_v1.json"

SNAPSHOT_FIELDS = ("items", "num", "tag")


class Deployer:
    """Deployment stub: seeded GUIDs, and every reference carries a cache
    snapshot of the object's ``items``, ``num`` and ``tag`` fields."""

    def __init__(self, registry):
        self.registry = registry
        self.deployed: dict = {}  # GUID -> (object, RIOR)
        self._rnd = random.Random(0x601D)

    def __call__(self, obj, signature):
        snapshot = {
            name: encode_value(
                getattr(obj, name), by_value(UNBOUNDED), registry=self.registry
            )
            for name in SNAPSHOT_FIELDS
        }
        rior = RIOR(
            endpoint=Endpoint("peer.example", 7001),
            guid=guid_new(lambda: self._rnd.randbytes(16)),
            service_name=None,
            interface_descriptor=support.GNODE_TYPE,
            cached_field_snapshot=snapshot,
        )
        self.deployed[rior.guid] = (obj, rior)
        return rior


@dataclass
class Case:
    """One golden envelope: a request or a response over live values, or a fault."""

    name: str
    values: list = field(default_factory=list)
    decisions: list[TransmissionDecision] = field(default_factory=list)
    response: bool = False
    fault: Fault | None = None

    def encode(self, registry) -> tuple[bytes, Deployer]:
        """The envelope bytes, and the stub that deployed its references."""
        deployer = Deployer(registry)
        if self.fault is not None:
            return encode_response(Response(ok=False, fault=self.fault)), deployer
        encoder = MessageEncoder(registry, deploy_ref=deployer)
        wires = [
            encoder.encode(value, decision, "GNode")
            for value, decision in zip(self.values, self.decisions)
        ]
        if self.response:
            return encode_response(Response(ok=True, result=wires[0])), deployer
        request = Request("GraphService", "put", tuple(wires), "rrt")
        return encode_request(request), deployer


PRIMITIVES = {
    "i64_min": I64_MIN,
    "i64_max": I64_MAX,
    "f64": 0.1,
    "f64_integral": 2.0,
    "f64_large": -1.5e300,
    "bool_true": True,
    "bool_false": False,
    "str_unicode": "héllo ✓ 日本 \U0001f600",
    "str_control": 'line\nbreak\ttab "quoted" back\\slash \x01',
    "str_empty": "",
    "null": None,
}


def aliased_graph() -> GNode:
    """A root whose two links alias one node that links back to the root,
    with nested sequences that hold both primitives and graph nodes."""
    root = GNode(tag="root", num=-7)
    shared = GNode(tag="shared", num=2**40, left=root)
    root.left = root.right = shared
    root.items = [[1, "a", None], [shared, [2.5, True]], ()]
    shared.items = [root, "", [[]]]
    return root


def depth_chain() -> GNode:
    """l1 -> l2 -> l3 -> l4 along ``left``, with payload fields to snapshot."""
    return GNode(
        tag="l1",
        left=GNode(
            tag="l2",
            num=2,
            left=GNode(tag="l3", num=3, items=[1, "x"], left=GNode(tag="l4", num=4)),
        ),
    )


def build_cases() -> list[Case]:
    cases = [
        Case(
            "request_primitives",
            values=list(PRIMITIVES.values()) + [42],
            decisions=[by_value()] * len(PRIMITIVES) + [by_reference()],
        )
    ]
    cases += [
        Case(f"response_{name}", [value], [by_value()], response=True)
        for name, value in PRIMITIVES.items()
    ]
    graph = aliased_graph()
    cases += [
        # The second position repeats a node of the first: a back-reference.
        Case("request_aliased_graph", [graph, graph.left], [by_value()] * 2),
        Case("response_aliased_graph", [aliased_graph()], [by_value()], response=True),
        Case("request_nested_sequence", [[[1, [2, [3, []]]], ("t", None)]], [by_value()]),
        Case(
            "request_depth_cut",
            [depth_chain(), GNode(tag="by-ref", num=9)],
            [by_value(2), by_reference()],
        ),
        Case("response_depth_cut", [depth_chain()], [by_value(1)], response=True),
    ]
    cases += [
        Case(f"fault_{kind}", fault=Fault(kind, cls, message))
        for kind, cls, message in (
            ("application", "ValueError", "bad value: ✓"),
            ("network", "ConnectionRefusedError", "peer.example:7001 refused"),
            ("protocol", "ProtocolError", "unknown wire discriminator 'x'"),
        )
    ]
    return cases


def encode_all() -> dict[str, str]:
    """Every case's bytes as UTF-8 text, keyed by case name."""
    registry = support.graph_registry()
    return {
        case.name: case.encode(registry)[0].decode("utf-8") for case in build_cases()
    }


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(encode_all(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}")
