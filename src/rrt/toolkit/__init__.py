"""Operator tooling: CLI, two-node harness, the P2P demo, and the policy benchmark."""

from .bench import BenchReport, bench_policy_overhead, register_bench_types
from .demo import (
    MAX_MESSAGE_SIZE,
    Key,
    Message,
    P2PNode,
    deliver,
    install_demo_policy,
    p2p_demo,
    register_demo_types,
)
from .harness import LocalPair, SeededGuidSource

__all__ = [
    "BenchReport",
    "bench_policy_overhead",
    "register_bench_types",
    "MAX_MESSAGE_SIZE",
    "Key",
    "Message",
    "P2PNode",
    "deliver",
    "install_demo_policy",
    "p2p_demo",
    "register_demo_types",
    "LocalPair",
    "SeededGuidSource",
]
