"""rrt benchmark: one load generator against a server node in a child process.

Usage::

    python3 perfbench/run.py --workload {echo_ref,graph_value,p2p_mix}
        --seed N --seconds S --trace {0,1}

A run is a sequence of rounds until ``--seconds`` have passed (at least one).
Each round launches a fresh server process (``server.py``), starts a client
``RRTNode`` in this process, warms up, and then times a fixed number of
seeded ops in a closed loop over loopback; every op's output is checked.
Because a round is a fixed number of ops, peak memory does not grow with
speed, and medians over rounds damp the noise of a shared machine.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates an
untraced and a traced round with the same seeded ops and reports the
per-layer metrics from spans recorded around rrt's public entry points in
both processes (see ``spans.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give a
readable summary (including ``error_rate``) and the run context.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import bootstrap  # noqa: F401 - puts the checkout's src/ on sys.path

from rrt import NodeConfig, serve
from rrt.registry import TypeRegistry

import spans
import workloads

HERE = Path(__file__).resolve().parent
SERVER = HERE / "server.py"
HOST = "127.0.0.1"
CHILD_TIMEOUT = 30.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "call_p50_us": "us",
    "call_p99_us": "us",
    "rss_peak_mb": "MB",
}


@dataclass
class Round:
    """What one round measured."""

    traced: bool
    digest: str
    setup_s: float = 0.0
    wall_s: float = 0.0
    ops: int = 0
    warmup_ops: int = 0
    wire_ops: int = 0
    failed: int = 0
    cpu_s: float = 0.0
    wire_ns: list = field(default_factory=list)
    cached_ns: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    server: dict = field(default_factory=dict)
    client_services: int = 0
    client_proxies: int = 0
    trace: dict | None = None


class ServerProcess:
    """The server child: launch, command over stdin, and always reap."""

    def __init__(self, workload: str, traced: bool):
        cmd = [sys.executable, str(SERVER), "--workload", workload]
        if traced:
            cmd.append("--trace")
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1
        )

    def expect(self, prefix: str) -> str:
        line = self.proc.stdout.readline()
        if not line.startswith(prefix):
            raise RuntimeError(f"server said {line!r}, expected {prefix!r}")
        return line[len(prefix):].strip()

    def command(self, text: str) -> None:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_round(workload: str, seed: int, round_no: int, traced: bool) -> Round:
    spec = workloads.SPECS[workload]
    inputs = workloads.RoundInputs(workload, seed, round_no)
    result = Round(traced=traced, digest=inputs.digest())
    start = time.perf_counter()
    server = ServerProcess(workload, traced)
    client = None
    tracer = spans.Tracer() if traced else None
    try:
        types = TypeRegistry()
        workloads.register_types(workload, types)
        client = serve(NodeConfig(host=HOST, port=0), types=types)
        workloads.install_rules(workload, client)
        port = int(server.expect("READY "))
        handle = client.get_object_by_name(HOST, port, spec.service)
        runner = workloads.Client(workload, client, handle)
        for op in inputs.warmup:
            _attempt(runner, op, result, None)
        result.warmup_ops = len(inputs.warmup)
        server.command("mark")
        server.expect("MARKED")
        if tracer is not None:
            tracer.install()
        result.setup_s = time.perf_counter() - start

        cpu = time.process_time()
        began = time.perf_counter()
        _run_timed(runner, inputs.threads, result)
        result.wall_s = time.perf_counter() - began
        result.cpu_s = time.process_time() - cpu
        if tracer is not None:
            tracer.uninstall()
            result.trace = tracer.summary()

        server.command("report")
        result.server = json.loads(server.expect(""))
        result.client_services = len(client.services)
        result.client_proxies = len(client.proxy_cache)
        # Every wire op is one invoke request and a cached read is none, so
        # each invoke beyond the wire ops is a cached read that went on the
        # wire. Fewer invokes come from ops that failed before sending, which
        # are counted already.
        invokes = result.server["invoke_requests"]
        result.failed += max(0, invokes - result.wire_ops)
        if invokes != result.wire_ops:
            result.errors.append(f"server saw {invokes} invokes for {result.wire_ops} wire ops")
    finally:
        if tracer is not None:
            tracer.uninstall()
        if client is not None:
            client.stop()
        server.close()
    return result


def pin_to_one_cpu() -> int:
    """Run this process, its threads and the server child on one CPU.

    On a small virtual machine, a call that bounces between two vCPUs waits
    for the host to wake the idle one, and that wait follows the load of
    other tenants: run-to-run spread was several times larger unpinned.
    On one CPU the client and the server cannot overlap, so a round measures
    the cost of each op rather than the parallelism of the host.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _attempt(runner, op, result: Round, latencies) -> None:
    start = time.perf_counter_ns()
    try:
        runner(op)
    except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
        result.failed += 1
        if len(result.errors) < 5:
            result.errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")
    if latencies is not None:
        latencies.append(time.perf_counter_ns() - start)


def _run_timed(runner, per_thread, result: Round) -> None:
    """Run each client thread's ops in its own thread, all released together."""
    barrier = threading.Barrier(len(per_thread))
    parts = [Round(traced=result.traced, digest="") for _ in per_thread]

    def work(ops, part: Round) -> None:
        barrier.wait()
        for op in ops:
            _attempt(runner, op, part, part.wire_ns if op.wire else part.cached_ns)

    threads = [threading.Thread(target=work, args=pair) for pair in zip(per_thread, parts)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for ops, part in zip(per_thread, parts):
        result.ops += len(ops)
        result.wire_ops += len(part.wire_ns)
        result.failed += part.failed
        result.errors.extend(part.errors)
        result.wire_ns.extend(part.wire_ns)
        result.cached_ns.extend(part.cached_ns)


# -- statistics ----------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


def rate(r: Round) -> float:
    return r.ops / r.wall_s


def end_to_end(rounds: list[Round]) -> dict:
    wire = [ns for r in rounds for ns in r.wire_ns]
    loadgen_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    server_kb = statistics.median(r.server["rss_peak_kb"] for r in rounds)
    return {
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "ops_per_s": statistics.median(rate(r) for r in rounds),
        "call_p50_us": percentile(wire, 0.50) / 1e3,
        "call_p99_us": statistics.median(percentile(r.wire_ns, 0.99) for r in rounds) / 1e3,
        "rss_peak_mb": (loadgen_kb + server_kb) / 1024.0,
    }


PER_LAYER_UNITS = {
    "policy.resolve.calls_per_op": "1/op",
    "policy.resolve.self_us_p50": "us",
    "policy.overlay.self_us_p50": "us",
    "policy.rule_decision_share": "ratio",
    "codec.encode_request.self_us_p50": "us",
    "codec.decode_request.self_us_p50": "us",
    "codec.encode_response.self_us_p50": "us",
    "codec.decode_response.self_us_p50": "us",
    "codec.encode_value.self_us_p50": "us",
    "codec.decode_value.self_us_p50": "us",
    "codec.rior_doc.self_us_p50": "us",
    "codec.request_bytes_p50": "bytes",
    "codec.response_bytes_p50": "bytes",
    "remote.remote_invoke.us_p50": "us",
    "remote.remote_invoke.unattributed_share": "ratio",
    "remote.transport.us_p50": "us",
    "remote.transport.connects_per_call": "1/call",
    "remote.auto_deploy.self_us_p50": "us",
    "remote.auto_deploy.fresh_share": "ratio",
    "remote.build_rior.self_us_p50": "us",
    "remote.resolve_incoming_rior.self_us_p50": "us",
    "remote.proxy_cache.hit_share": "ratio",
    "remote.loopback_share": "ratio",
    "remote.cached_read.us_p50": "us",
    "registry.invoke_local.self_us_p50": "us",
    "registry.lookup.self_us_p50": "us",
    "registry.deploy.calls_per_op": "1/op",
    "registry.services_end": "count",
    "node.handle_invoke.us_p50": "us",
    "node.http_overhead.us_p50": "us",
    "node.proxy_cache_end": "count",
    "node.invoke_requests_per_op": "1/op",
    "loadgen.cpu_us_per_op": "us",
    "server.cpu_us_per_op": "us",
    "trace.overhead_share": "ratio",
}


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def per_layer(rounds: list[Round]) -> tuple[dict, dict]:
    """Per-layer metrics from the traced rounds, and the attribution table."""
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    t = spans.merge([r.trace for r in traced] + [r.server["trace"] for r in traced])
    s, d, c = t["self_ns"], t["samples"], t["counts"]
    ops = sum(r.ops for r in traced)
    plain_ops = sum(r.ops for r in plain)

    def self_p50(group):
        return percentile(s.get(group, ()), 0.5) / 1e3

    def dur_p50(group):
        return percentile(d.get(group, ()), 0.5) / 1e3

    resolves = c.get("policy.resolve.calls", 0)
    deploys = c.get("remote.auto_deploy.fresh", 0) + c.get("remote.auto_deploy.reused", 0)
    incoming = c.get("remote.resolve_incoming_rior.calls", 0)
    proxied = c.get("remote.resolve_incoming_rior.hit", 0) + c.get("remote.resolve_incoming_rior.miss", 0)
    wire_calls = c.get("remote.remote_invoke.wire", 0)
    metrics = {
        "policy.resolve.calls_per_op": _share(resolves, ops),
        "policy.resolve.self_us_p50": self_p50("policy.resolve"),
        "policy.overlay.self_us_p50": percentile(t["overlay_ns"], 0.5) / 1e3,
        "policy.rule_decision_share": _share(c.get("policy.resolve.rule", 0), resolves),
        "codec.encode_request.self_us_p50": self_p50("codec.encode_request"),
        "codec.decode_request.self_us_p50": self_p50("codec.decode_request"),
        "codec.encode_response.self_us_p50": self_p50("codec.encode_response"),
        "codec.decode_response.self_us_p50": self_p50("codec.decode_response"),
        "codec.encode_value.self_us_p50": self_p50("codec.encode_value"),
        "codec.decode_value.self_us_p50": self_p50("codec.decode_value"),
        "codec.rior_doc.self_us_p50": self_p50("codec.rior_doc"),
        "codec.request_bytes_p50": percentile(d.get("codec.encode_request.bytes", ()), 0.5),
        "codec.response_bytes_p50": percentile(d.get("codec.encode_response.bytes", ()), 0.5),
        "remote.remote_invoke.us_p50": dur_p50("remote.remote_invoke.wire"),
        "remote.remote_invoke.unattributed_share": _share(
            t["attributed_ns"].get("remote.remote_invoke", 0),
            sum(d.get("remote.remote_invoke.wire", ())),
        ),
        "remote.transport.us_p50": dur_p50("remote.transport.per_call"),
        "remote.transport.connects_per_call": _share(
            c.get("remote.transport.connect.calls", 0), wire_calls
        ),
        "remote.auto_deploy.self_us_p50": self_p50("remote.auto_deploy"),
        "remote.auto_deploy.fresh_share": _share(c.get("remote.auto_deploy.fresh", 0), deploys),
        "remote.build_rior.self_us_p50": self_p50("remote.build_rior"),
        "remote.resolve_incoming_rior.self_us_p50": self_p50("remote.resolve_incoming_rior"),
        "remote.proxy_cache.hit_share": _share(c.get("remote.resolve_incoming_rior.hit", 0), proxied),
        "remote.loopback_share": _share(c.get("remote.resolve_incoming_rior.loopback", 0), incoming),
        "remote.cached_read.us_p50": percentile(
            [ns for r in traced for ns in r.cached_ns], 0.5
        ) / 1e3,
        "registry.invoke_local.self_us_p50": self_p50("registry.invoke_local"),
        "registry.lookup.self_us_p50": self_p50("registry.lookup"),
        "registry.deploy.calls_per_op": _share(c.get("registry.deploy.calls", 0), ops),
        "registry.services_end": statistics.median(
            r.client_services + r.server["services"] for r in plain
        ),
        "node.handle_invoke.us_p50": dur_p50("node.handle_invoke"),
        "node.http_overhead.us_p50": dur_p50("remote.transport.per_call") - dur_p50("node.handle_invoke"),
        "node.proxy_cache_end": statistics.median(
            r.client_proxies + r.server["proxies"] for r in plain
        ),
        "node.invoke_requests_per_op": _share(
            sum(r.server["invoke_requests"] for r in traced), ops
        ),
        "loadgen.cpu_us_per_op": _share(sum(r.cpu_s for r in plain), plain_ops) * 1e6,
        "server.cpu_us_per_op": _share(sum(r.server["cpu_s"] for r in plain), plain_ops) * 1e6,
        "trace.overhead_share": 1.0 - statistics.median(rate(r) for r in traced)
        / statistics.median(rate(r) for r in plain),
    }
    total = sum(d.get("remote.remote_invoke.wire", ())) or 1
    attribution = {
        group: round(ns / total, 4)
        for group, ns in sorted(t["attributed_ns"].items(), key=lambda kv: -kv[1])
    }
    return metrics, {"attribution": attribution, "absent": sorted(t["absent"])}


# -- main ------------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    cpu = pin_to_one_cpu()

    deadline = time.perf_counter() + ns.seconds
    rounds: list[Round] = []
    round_no = 0
    while not rounds or time.perf_counter() < deadline:
        if ns.trace:
            rounds.append(run_round(ns.workload, ns.seed, round_no, traced=False))
        rounds.append(run_round(ns.workload, ns.seed, round_no, traced=bool(ns.trace)))
        round_no += 1

    attempted = sum(r.ops + r.warmup_ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    timed = [r for r in rounds if r.traced == bool(ns.trace)]
    spec = workloads.SPECS[ns.workload]
    context = {
        "workload": ns.workload,
        "seed": ns.seed,
        "seconds": ns.seconds,
        "trace": ns.trace,
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "topology": "server node in a child process; load generator and client "
                    "RRTNode in this process; HTTP over loopback",
        "loop": "closed",
        "client_threads": spec.threads,
        "rounds": len(rounds),
        "ops_per_round": spec.ops_per_round,
        "warmup_ops_per_round": rounds[0].warmup_ops,
        "ops_timed": sum(r.ops for r in timed),
        "wire_ops_timed": sum(r.wire_ops for r in timed),
        "round_digests": [r.digest for r in timed],
        "round_ops_per_s": [round(rate(r), 1) for r in rounds],
        "round_setup_s": [round(r.setup_s, 4) for r in rounds],
        "round_call_p99_us": [round(percentile(r.wire_ns, 0.99) / 1e3, 1) for r in timed],
        "errors": [e for r in rounds for e in r.errors][:10],
    }
    if ns.trace:
        metrics, extra = per_layer(rounds)
        units = PER_LAYER_UNITS
        context.update(extra)
        context["span_correlation"] = (
            "none across processes: the wire carries no request id, so load "
            "generator and server spans are summarised separately and "
            "node.http_overhead is a difference of medians"
        )
    else:
        metrics, units = end_to_end(timed), END_TO_END
    error_rate = failed / attempted

    print(f"{ns.workload}: error_rate={error_rate:.6f} ratio ({failed}/{attempted} ops failed)")
    for name, value in metrics.items():
        print(f"{ns.workload}: {name}={value:.6g} {units[name]}")
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
