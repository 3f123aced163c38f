"""Policy-overhead benchmark.

Measures a one-argument, one-return remote call where both the argument and
the return value travel by reference, with each node's decision entry
(``TransmissionPolicyManager.decide``, which every transmitted value goes
through) swapped for one that returns a fixed decision, and with a method
rule plus a return rule decided. This is the worst case for the policy
phase: nothing is serialized, so its cost is as visible as it ever gets.
With the rules in place a decision is kept per published rule table, so
the policy phase measured is the kept-decision lookup; the stand-in keeps
nothing, so no fixed decision is served in the blocks with the rules.

The two modes run in alternating blocks of calls, and each mode's per-call
time is the median over its blocks, so drift of a shared machine over the
run falls on both modes alike.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from ..model import (
    FieldDescriptor,
    MethodDescriptor,
    PolicyKind,
    TypeDescriptor,
    UNBOUNDED,
    by_reference,
)
from ..registry import MethodTable, TypeRegistry
from .harness import LocalPair

DEFAULT_CALLS = 1600
BLOCK_CALLS = 10


@dataclass(frozen=True)
class BenchReport:
    """Per-call times in ms: for each mode, the median of its block means."""

    calls: int
    mean_without_policy_ms: float
    mean_with_policy_ms: float
    overhead_ratio: float

    def __post_init__(self):
        if self.calls < 1:
            raise ValueError("benchmark needs at least one call")


class Payload:
    def __init__(self, n: int = 0):
        self.n = n


class EchoService:
    def echo(self, value):
        return value


PAYLOAD_TYPE = TypeDescriptor("Payload", fields=(FieldDescriptor("n", "i64"),))

ECHO_TYPE = TypeDescriptor(
    "Echo",
    methods=(MethodDescriptor("echo", ("Payload",), "Payload"),),
)


def register_bench_types(types: TypeRegistry) -> None:
    types.register_type(PAYLOAD_TYPE, py_type=Payload, factory=Payload)
    types.register_type(
        ECHO_TYPE, MethodTable.for_class(EchoService, ECHO_TYPE), py_type=EchoService
    )


def bench_policy_overhead(
    calls: int = DEFAULT_CALLS, pair: LocalPair | None = None, warmup: int = 32
) -> BenchReport:
    """Time the echo round-trip with and without the policy evaluation phase."""
    own_pair = pair is None
    if own_pair:
        pair = LocalPair(registrars=(register_bench_types,))
    try:
        server, client = pair.a, pair.b
        server.deploy(EchoService(), name="echo")
        handle = client.get_object_by_name(
            server.endpoint.host, server.endpoint.port, "echo"
        )
        payload = Payload(7)
        managers = (server.policy, client.policy)

        for manager in managers:
            manager.set_method_policy(
                "Echo", "echo", PolicyKind.BY_REFERENCE, UNBOUNDED, False
            )
            manager.set_return_value_policy(
                "Echo", "echo", PolicyKind.BY_REFERENCE, False
            )
        fixed = by_reference()

        def fixed_decide(*position):
            return fixed

        def run(with_policy: bool, n: int) -> float:
            """Mean ms per call over n calls; without policy, no decision is
            made or kept."""
            for manager in managers:
                if with_policy:
                    vars(manager).pop("decide", None)
                else:
                    manager.decide = fixed_decide
            start = time.perf_counter()
            for _ in range(n):
                handle.echo(payload)
            return (time.perf_counter() - start) / n * 1000.0

        run(False, warmup)
        run(True, warmup)
        blocks = [BLOCK_CALLS] * (calls // BLOCK_CALLS)
        if calls % BLOCK_CALLS:
            blocks.append(calls % BLOCK_CALLS)
        without, with_policy = [], []
        for i, n in enumerate(blocks):
            if i % 2:  # every other block runs the two modes in the other order
                with_policy.append(run(True, n))
                without.append(run(False, n))
            else:
                without.append(run(False, n))
                with_policy.append(run(True, n))
        without_ms = statistics.median(without)
        with_ms = statistics.median(with_policy)
    finally:
        for manager in (pair.a.policy, pair.b.policy):
            vars(manager).pop("decide", None)
        if own_pair:
            pair.close()

    return BenchReport(
        calls=calls,
        mean_without_policy_ms=without_ms,
        mean_with_policy_ms=with_ms,
        overhead_ratio=(with_ms - without_ms) / without_ms,
    )
