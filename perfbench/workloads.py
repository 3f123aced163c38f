"""The three benchmark workloads: types, rules, seeded inputs and output checks.

Both the load generator (`run.py`) and the server child (`server.py`) import
this module, so the two sides register the same types and install the same
rules. Everything goes through rrt's public API.

Workloads:

- ``echo_ref``: one client echoes a ``Payload`` under the default policy, so
  the argument and the result travel by reference and the result loops back
  to the caller's own object. Smallest message; per-call transport, policy
  and reference-document cost dominate.
- ``graph_value``: one client echoes seeded object graphs by value. Most
  calls use ``echo`` (method and return rules, depth UNBOUNDED); about a
  quarter use ``echo_shallow`` (depth 2), where objects past the boundary
  travel as references and come back as the client's own objects.
- ``p2p_mix``: two client threads drive the paper's P2P scenario against
  ``IP2PNode``: cached ``get_key`` smart-proxy reads, small ``deliver``
  calls by value, and oversized ones by reference through the per-call
  overlay.
"""

from __future__ import annotations

import hashlib
import random
import string
import threading
from dataclasses import dataclass
from typing import Callable

from rrt import (
    FieldDescriptor,
    MethodDescriptor,
    MethodTable,
    PolicyKind,
    TypeDescriptor,
    UNBOUNDED,
)
from rrt.toolkit import (
    MAX_MESSAGE_SIZE,
    Key,
    Message,
    P2PNode,
    deliver,
    register_demo_types,
)

# -- echo_ref ------------------------------------------------------------------


class Payload:
    def __init__(self, n: int = 0):
        self.n = n


class Echo:
    def echo(self, value):
        return value


PAYLOAD_TYPE = TypeDescriptor("Payload", fields=(FieldDescriptor("n", "i64"),))
ECHO_TYPE = TypeDescriptor(
    "Echo", methods=(MethodDescriptor("echo", ("Payload",), "Payload"),)
)

# -- graph_value -----------------------------------------------------------------


class GraphKey:
    def __init__(self, value: str = ""):
        self.value = value


class Cell:
    def __init__(self, value: int = 0, label: str = "", key=None, next=None):
        self.value = value
        self.label = label
        self.key = key
        self.next = next


class Graph:
    def __init__(self, cells=None):
        self.cells = cells if cells is not None else []


class GraphEcho:
    def echo(self, graph):
        return graph

    def echo_shallow(self, graph):
        return graph


GRAPH_KEY_TYPE = TypeDescriptor("GraphKey", fields=(FieldDescriptor("value", "string"),))
CELL_TYPE = TypeDescriptor(
    "Cell",
    fields=(
        FieldDescriptor("value", "i64"),
        FieldDescriptor("label", "string"),
        FieldDescriptor("key", "GraphKey"),
        FieldDescriptor("next", "Cell"),
    ),
)
# The cell list is a field of a root object, under the method's rule: a bare
# list argument without a method rule would go by reference element by element.
GRAPH_TYPE = TypeDescriptor("Graph", fields=(FieldDescriptor("cells", "list"),))
GRAPH_ECHO_TYPE = TypeDescriptor(
    "GraphEcho",
    methods=(
        MethodDescriptor("echo", ("Graph",), "Graph"),
        MethodDescriptor("echo_shallow", ("Graph",), "Graph"),
    ),
)
SHALLOW_DEPTH = 2
MAX_CHAIN = 32

# -- p2p_mix ---------------------------------------------------------------------

NODE_KEY = "node-key"


# -- per-workload node set-up -----------------------------------------------------


@dataclass(frozen=True)
class Spec:
    """What one workload deploys and how large one round of it is."""

    service: str  # name the server deploys the service under
    ops_per_round: int  # ops per round, all client threads together
    threads: int
    warmup_ops: int


SPECS = {
    "echo_ref": Spec("echo", ops_per_round=1500, threads=1, warmup_ops=16),
    "graph_value": Spec("graph", ops_per_round=96, threads=1, warmup_ops=3),
    "p2p_mix": Spec("P2P", ops_per_round=2400, threads=2, warmup_ops=40),
}
WORKLOADS = tuple(SPECS)
# Distinct arguments per round; echo_ref warms up on each of its payloads once.
ECHO_POOL = 16
GRAPH_POOL = 12


def register_types(workload: str, types) -> None:
    if workload == "echo_ref":
        types.register_type(PAYLOAD_TYPE, py_type=Payload, factory=Payload)
        types.register_type(ECHO_TYPE, MethodTable.for_class(Echo, ECHO_TYPE), py_type=Echo)
    elif workload == "graph_value":
        types.register_type(GRAPH_KEY_TYPE, py_type=GraphKey, factory=GraphKey)
        types.register_type(CELL_TYPE, py_type=Cell, factory=Cell)
        types.register_type(GRAPH_TYPE, py_type=Graph, factory=Graph)
        types.register_type(
            GRAPH_ECHO_TYPE,
            MethodTable.for_class(GraphEcho, GRAPH_ECHO_TYPE),
            py_type=GraphEcho,
        )
    elif workload == "p2p_mix":
        register_demo_types(types)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def install_rules(workload: str, node) -> None:
    """Rules both nodes install; echo_ref runs under the default policy."""
    policy = node.policy
    if workload == "graph_value":
        for method, depth in (("echo", UNBOUNDED), ("echo_shallow", SHALLOW_DEPTH)):
            policy.set_method_policy("GraphEcho", method, PolicyKind.BY_VALUE, depth, False)
            policy.set_return_value_policy("GraphEcho", method, PolicyKind.BY_VALUE, False)
    elif workload == "p2p_mix":
        policy.set_class_policy("Key", PolicyKind.BY_VALUE, True)
        policy.set_field_to_be_cached("P2PNode", "key")


def make_service(workload: str):
    """(object, interface) the server deploys."""
    if workload == "echo_ref":
        return Echo(), None
    if workload == "graph_value":
        return GraphEcho(), None
    return P2PNode(Key(NODE_KEY)), "IP2PNode"


# -- seeded inputs -----------------------------------------------------------------


def round_rng(seed: int, workload: str, round_no: int, thread: int = 0) -> random.Random:
    return random.Random(f"{seed}:{workload}:{round_no}:{thread}")


def _label(rng: random.Random) -> str:
    return "".join(rng.choices(string.ascii_letters, k=rng.randint(0, 12)))


def make_graph(rng: random.Random, n_cells: int) -> Graph:
    """Cells in cycles of at most MAX_CHAIN, each holding one of fewer shared keys."""
    keys = [GraphKey(f"k{i}-{_label(rng)}") for i in range(rng.randint(n_cells // 6, n_cells // 3))]
    cells = [Cell(rng.randrange(-(2**40), 2**40), _label(rng), rng.choice(keys)) for _ in range(n_cells)]
    start = 0
    while start < n_cells:
        length = min(rng.randint(1, MAX_CHAIN), n_cells - start)
        chain = cells[start:start + length]
        for a, b in zip(chain, chain[1:] + chain[:1]):
            a.next = b
        start += length
    rng.shuffle(cells)
    return Graph(cells)


def graph_pool(rng: random.Random, count: int) -> list[Graph]:
    """Graphs of 22-294 objects, one per size stratum, so every round does the same work."""
    lo, hi = 18, 220
    return [
        make_graph(rng, lo + int((hi - lo) * (i + rng.random()) / count))
        for i in range(count)
    ]


def mixed(rng: random.Random, count: int, shares: dict[str, float]) -> list[str]:
    """``count`` op kinds in exact proportions, shuffled: rounds differ in order only."""
    kinds = [kind for kind, share in shares.items() for _ in range(round(count * share))]
    kinds += [next(iter(shares))] * (count - len(kinds))
    rng.shuffle(kinds)
    return kinds


@dataclass
class Op:
    """One seeded operation. ``wire`` is False for cached smart-proxy reads."""

    kind: str
    arg: object = None
    wire: bool = True

    def describe(self) -> str:
        if self.kind == "echo":
            return f"echo:{self.arg.n}"
        if self.kind in ("graph", "graph_shallow"):
            return f"{self.kind}:{len(self.arg.cells)}:{self.arg.cells[0].value}"
        if self.kind == "cached_read":
            return "cached_read"
        dest, msg = self.arg
        return f"{self.kind}:{dest.value}:{len(msg.payload)}"


class RoundInputs:
    """The seeded inputs of one round: warm-up ops and one op list per thread."""

    def __init__(self, workload: str, seed: int, round_no: int):
        spec = SPECS[workload]
        per_thread = spec.ops_per_round // spec.threads
        if workload == "p2p_mix":
            self.threads = [
                _p2p_ops(round_rng(seed, workload, round_no, t), per_thread, t)
                for t in range(spec.threads)
            ]
            self.warmup = _p2p_ops(round_rng(seed, workload, round_no, -1), spec.warmup_ops, -1)
            return
        rng = round_rng(seed, workload, round_no)
        if workload == "echo_ref":
            pool = [Payload(rng.randrange(2**31)) for _ in range(ECHO_POOL)]
            self.warmup = [Op("echo", p) for p in pool[: spec.warmup_ops]]
            self.threads = [[Op("echo", rng.choice(pool)) for _ in range(per_thread)]]
        else:
            pool = graph_pool(rng, GRAPH_POOL)
            self.warmup = [Op("graph", g) for g in pool[: spec.warmup_ops]]
            graphs = [pool[i % len(pool)] for i in range(per_thread)]
            rng.shuffle(graphs)
            kinds = mixed(rng, per_thread, {"graph": 0.75, "graph_shallow": 0.25})
            self.threads = [[Op(kind, g) for kind, g in zip(kinds, graphs)]]

    def digest(self) -> str:
        h = hashlib.sha256()
        for ops in self.threads:
            for op in ops:
                h.update(op.describe().encode())
                h.update(b"\n")
        return h.hexdigest()[:16]


def _p2p_ops(rng: random.Random, count: int, thread: int) -> list[Op]:
    text = "".join(rng.choices(string.ascii_letters + string.digits, k=2 * MAX_MESSAGE_SIZE + 1))
    ops = []
    shares = {"cached_read": 0.5, "deliver_small": 0.4, "deliver_big": 0.1}
    for i, kind in enumerate(mixed(rng, count, shares)):
        if kind == "cached_read":
            ops.append(Op(kind, wire=False))
            continue
        if kind == "deliver_small":
            size = rng.randint(1, MAX_MESSAGE_SIZE // 2)
        else:
            size = rng.randint(MAX_MESSAGE_SIZE + 1, 2 * MAX_MESSAGE_SIZE)
        dest = Key(f"dest-{thread}-{i}-{rng.randrange(10**6)}")
        ops.append(Op(kind, (dest, Message(text[:size]))))
    return ops


# -- running one op and checking its output ----------------------------------------


class WrongOutput(Exception):
    """An op completed, but its output failed the check."""


class Client:
    """Runs ops against one remote service and checks every result.

    ``client(op)`` returns when the op's output is correct and raises
    otherwise: ``WrongOutput`` for a wrong result, or whatever the call
    raised. The caller counts either as a failed op.
    """

    def __init__(self, workload: str, node, handle):
        self.node = node
        self.handle = handle
        self._local = threading.local()
        if workload == "p2p_mix":
            node.decision_observer = self._observe
        self._run: dict[str, Callable[[Op], None]] = {
            "echo": self._echo,
            "graph": self._graph,
            "graph_shallow": self._graph,
            "cached_read": self._cached_read,
            "deliver_small": self._deliver,
            "deliver_big": self._deliver,
        }

    def __call__(self, op: Op) -> None:
        self._run[op.kind](op)

    def _echo(self, op: Op) -> None:
        if self.handle.echo(op.arg) is not op.arg:
            raise WrongOutput("echo did not loop back to the argument itself")

    def _graph(self, op: Op) -> None:
        shallow = op.kind == "graph_shallow"
        method = self.handle.echo_shallow if shallow else self.handle.echo
        problem = graph_mismatch(op.arg, method(op.arg), shallow)
        if problem is not None:
            raise WrongOutput(problem)

    def _cached_read(self, op: Op) -> None:
        key = self.handle.get_key()
        if not isinstance(key, Key) or key.value != NODE_KEY:
            raise WrongOutput(f"cached key read returned {key!r}")

    def _observe(self, role, type_name, decision) -> None:
        # decision_observer fires in the calling thread, so a thread-local
        # holds exactly this thread's Message decision.
        if role == "arg" and type_name == "Message":
            self._local.message_kind = decision.kind

    def _deliver(self, op: Op) -> None:
        dest, msg = op.arg
        self._local.message_kind = None
        result = deliver(self.node, self.handle, dest, msg)
        expected = (
            PolicyKind.BY_REFERENCE
            if len(msg.payload) > MAX_MESSAGE_SIZE
            else PolicyKind.BY_VALUE
        )
        got = self._local.message_kind
        if got is not expected:
            raise WrongOutput(
                f"{len(msg.payload)}-byte Message went {got and got.value}, "
                f"expected {expected.value}"
            )
        if result is not None:
            raise WrongOutput(f"route returned {result!r}")


def graph_mismatch(orig: Graph, result, shallow: bool) -> str | None:
    """How the result differs from the input, or None when it matches.

    Compared: field values, the key-aliasing partition and the next/cycle
    shape. ``echo`` copies the whole graph. ``echo_shallow`` inlines the cells
    (level 2) but sends each cell's key, and each ``next`` cell not encoded
    earlier in the list, by reference (level 3), so those come back as the
    client's own objects.
    """
    if not isinstance(result, Graph) or result is orig:
        return f"result is {result!r}, not a copy of the graph"
    oc, rc = orig.cells, result.cells
    if not isinstance(rc, list) or len(rc) != len(oc):
        return "cell list differs in type or length"
    position = {id(c): i for i, c in enumerate(oc)}
    key_map: dict[int, int] = {}
    for i, (o, r) in enumerate(zip(oc, rc)):
        if type(r) is not Cell or r is o or r.value != o.value or r.label != o.label:
            return f"cell {i} is not a copy of the input cell"
        if shallow:
            if r.key is not o.key:
                return f"cell {i}: key past the depth boundary is not the client's own"
        else:
            if type(r.key) is not GraphKey or r.key is o.key or r.key.value != o.key.value:
                return f"cell {i}: key is not a copy of the input key"
            if key_map.setdefault(id(r.key), id(o.key)) != id(o.key):
                return f"cell {i}: key shared where the input keys differ"
        j = position[id(o.next)]
        expected = o.next if shallow and j > i else rc[j]
        if r.next is not expected:
            return f"cell {i}: next does not point at cell {j} as in the input"
    if not shallow and len(set(key_map.values())) != len(key_map):
        return "keys shared in the input are distinct in the result"
    return None
