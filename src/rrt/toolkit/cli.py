"""Operator command line: run a node, call a service, explain a policy
decision, or benchmark the policy evaluation phase. ``rrt node`` applies its
files through the node's API, and ``--log`` to the ``rrt`` logger, before it serves.

Exit status: 0 success, 1 remote fault or network failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import signal
import sys
from dataclasses import asdict
from pathlib import Path
from urllib.parse import quote

from .. import codec
from ..errors import ConfigError, NetworkFault, PolicyFileError, RRTError
from ..model import Endpoint, by_value
from ..node import DEFAULT_PORT, NodeConfig, RRTNode, logger
from ..policy import (
    CallContext,
    CallRole,
    PeerKind,
    TransmissionPolicyManager,
    describe_decision,
)
from ..registry import TypeRegistry
from ..remote import HttpClient
from .bench import bench_policy_overhead
from .demo import register_demo_types
from .harness import SeededGuidSource

USAGE_ERROR = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rrt", description="distributed-object middleware node and tools"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_node = sub.add_parser("node", help="run a middleware node until interrupted")
    p_node.add_argument("--port", type=int, default=None,
                        help=f"listen port (default: $RRT_PORT or {DEFAULT_PORT})")
    p_node.add_argument("--host", default="127.0.0.1")
    p_node.add_argument("--policy", metavar="FILE", default=None,
                        help="policy rules to load at startup")
    p_node.add_argument("--manifest", metavar="FILE", default=None,
                        help="deployments to perform at startup")
    p_node.add_argument("--fast-fail", action="store_true",
                        help="propagate suppressed network faults instead")
    p_node.add_argument("--concrete-type-always", type=_parse_bool, default=True,
                        metavar="BOOL",
                        help="auto-deploy escaping objects under their concrete type")
    p_node.add_argument("--log", metavar="PATH|-", default=None,
                        help="fault log sink: a file path or - for stderr")
    p_node.add_argument("--seed", type=int, default=None,
                        help="seed the GUID source (reproducible runs)")

    p_call = sub.add_parser("call", help="invoke a method on a remote service")
    p_call.add_argument("address", metavar="HOST:PORT")
    p_call.add_argument("service", help="service name or GUID")
    p_call.add_argument("method")
    p_call.add_argument("args", nargs="?", default="[]",
                        help="JSON array of arguments (wire documents allowed)")
    p_call.add_argument("--peer", choices=["plain", "rrt"], default="plain")

    p_explain = sub.add_parser(
        "policy-explain", help="show which rule wins for a call context"
    )
    p_explain.add_argument("policy_file", metavar="POLICY-FILE")
    p_explain.add_argument(
        "context",
        metavar="CONTEXT",
        help='JSON like {"role":"argument","index":0,"class":"IP2PNode",'
        '"method":"route","actual":"Key","peer":"rrt"} or @file',
    )

    p_bench = sub.add_parser("bench", help="measure policy-evaluation overhead")
    p_bench.add_argument("--calls", type=int, default=1600)
    return parser


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"not a boolean: {text!r}")


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    handler = {
        "node": _cmd_node,
        "call": _cmd_call,
        "policy-explain": _cmd_explain,
        "bench": _cmd_bench,
    }[ns.command]
    return handler(ns)


def _cmd_node(ns) -> int:
    port = ns.port
    if port is None:
        port = int(os.environ.get("RRT_PORT", DEFAULT_PORT))
    config = NodeConfig(
        port=port,
        host=ns.host,
        fast_fail=ns.fast_fail,
        concrete_type_always=ns.concrete_type_always,
    )
    types = TypeRegistry()
    register_demo_types(types)
    guid_source = SeededGuidSource(ns.seed) if ns.seed is not None else None
    # Blocked before the node starts a thread, and threads inherit the mask,
    # so either signal waits for sigwait however early it comes.
    stop_signals = {signal.SIGINT, signal.SIGTERM}
    old_mask = signal.pthread_sigmask(signal.SIG_BLOCK, stop_signals)
    try:
        try:
            node = RRTNode(config, types=types, guid_source=guid_source)
            if ns.log is not None:
                log_faults_to(ns.log)
            apply_startup_files(node, ns.policy, ns.manifest)
            node.start()
        except (RRTError, OSError) as exc:
            print(f"startup failed: {exc}", file=sys.stderr)
            return 1
        print(f"node listening on http://{node.endpoint}", file=sys.stderr)
        signal.sigwait(stop_signals)
        node.stop()
        return 0
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, old_mask)


def log_faults_to(target: str) -> None:
    """Write each ``rrt`` log record as one line to stderr (``-``) or to a file."""
    handler = (logging.StreamHandler() if target == "-"
               else logging.FileHandler(target, encoding="utf-8"))  # opened once, appended
    handler.setFormatter(logging.Formatter("%(message)s"))
    logger.addHandler(handler)


def apply_startup_files(node: RRTNode, policy_file=None, deploy_manifest=None) -> None:
    """Load a policy file's rules, then deploy a manifest's services: a JSON
    array of ``{"type", "constructor_args", "interface", "name"}`` objects."""
    for path, what in ((policy_file, "policy file"), (deploy_manifest, "deploy manifest")):
        if path is not None and not Path(path).is_file():
            raise ConfigError(f"{what} not readable: {path}")
    if policy_file is not None:
        node.policy.load_policy_file(Path(policy_file).read_text(encoding="utf-8"))
    if deploy_manifest is None:
        return
    try:
        entries = json.loads(Path(deploy_manifest).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"deploy manifest is not valid JSON: {exc}") from exc
    if not isinstance(entries, list):
        raise ConfigError("deploy manifest must be a JSON array")
    for pos, entry in enumerate(entries):
        if not isinstance(entry, dict) or "type" not in entry:
            raise ConfigError(f"manifest entry {pos}: need an object with 'type'")
        rt = node.types.lookup(entry["type"])
        if rt is None or rt.factory is None:
            raise ConfigError(
                f"manifest entry {pos}: type {entry['type']!r} not constructible"
            )
        args = entry.get("constructor_args", [])
        if not isinstance(args, list):
            raise ConfigError(f"manifest entry {pos}: constructor_args must be a list")
        try:
            obj = rt.factory(*args)
            node.services.deploy(obj, entry.get("interface"), entry.get("name"))
        except RRTError:
            raise
        except Exception as exc:
            raise ConfigError(f"manifest entry {pos}: {exc}") from exc


def _cmd_call(ns) -> int:
    try:
        endpoint = _parse_address(ns.address)
        raw_args = json.loads(ns.args)
        if not isinstance(raw_args, list):
            raise ValueError("arguments must be a JSON array")
        request = codec.Request(
            target=ns.service,
            method=ns.method,
            args=tuple(_json_to_doc(a) for a in raw_args),
            peer_kind=ns.peer,
        )
        body = codec.encode_request(request)
    except (ValueError, RRTError) as exc:
        print(f"bad arguments: {exc}", file=sys.stderr)
        return USAGE_ERROR

    client = HttpClient(timeout=30)
    try:
        path = f"/invoke/{quote(ns.service, safe='')}"
        response = codec.decode_response(client.request(endpoint, "POST", path, body))
    except RRTError as exc:
        kind = "network" if isinstance(exc, NetworkFault) else "protocol"
        print(json.dumps({"fault": {"kind": kind, "message": str(exc)}}))
        return 1
    finally:
        client.close()
    if response.ok:
        print(json.dumps(response.result))
        return 0
    fault = response.fault
    print(json.dumps(
        {"fault": {"kind": fault.kind, "class": fault.fault_class,
                   "message": fault.message}}
    ))
    return 1


def _parse_address(text: str) -> Endpoint:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address must be HOST:PORT, got {text!r}")
    return Endpoint(host, int(port))


def _json_to_doc(value) -> dict:
    """A JSON argument as a wire document: documents pass through as they are
    (the node checks them), arrays become sequences, scalars primitives."""
    if isinstance(value, dict):
        if "k" in value:
            return value
        raise ValueError("object arguments must be wire documents with a 'k' key")
    if isinstance(value, list):
        return {"k": "seq", "elements": [_json_to_doc(v) for v in value]}
    return codec.encode_value(value, by_value(), registry=None)


def _cmd_explain(ns) -> int:
    try:
        with open(ns.policy_file, encoding="utf-8") as fh:
            document = fh.read()
    except OSError as exc:
        print(f"cannot read policy file: {exc}", file=sys.stderr)
        return USAGE_ERROR
    context_text = ns.context
    if context_text.startswith("@"):
        try:
            with open(context_text[1:], encoding="utf-8") as fh:
                context_text = fh.read()
        except OSError as exc:
            print(f"cannot read context: {exc}", file=sys.stderr)
            return USAGE_ERROR
    # The types `rrt node` serves, so a file is refused here as it is there.
    types = TypeRegistry()
    register_demo_types(types)
    manager = TransmissionPolicyManager(types=types)
    try:
        manager.load_policy_file(document)
        context = _parse_context(context_text)
    except (PolicyFileError, ValueError, KeyError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return USAGE_ERROR
    decision = manager.resolve(context)
    print(describe_decision(decision, context.role))
    return 0


def _parse_context(text: str) -> CallContext:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("context must be a JSON object")
    role = CallRole(doc["role"])
    return CallContext(
        role=role,
        declared_type_name=doc["class"],
        method_name=doc["method"],
        actual_type_name=doc["actual"],
        peer_kind=PeerKind(doc.get("peer", "rrt")),
        param_index=doc.get("index") if role is CallRole.ARGUMENT else None,
    )


def _cmd_bench(ns) -> int:
    report = bench_policy_overhead(ns.calls)
    print(json.dumps(asdict(report), indent=2))
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
