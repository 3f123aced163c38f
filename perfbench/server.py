"""Server node of one benchmark round, run as a child process of ``run.py``.

Usage: ``python server.py --workload NAME [--trace]``

Prints ``READY <port>`` once the node serves and the workload's service is
deployed, then obeys commands on standard input, one per line:

- ``mark``: reset the counters (and, with ``--trace``, install the span
  wrappers); answers ``MARKED``.
- ``report``: print one JSON line with the invoke count, CPU time, peak RSS,
  service and proxy counts and the trace summary since ``mark``, then stop.

End of input stops the node as well.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import bootstrap  # noqa: F401 - puts the checkout's src/ on sys.path

from rrt import NodeConfig, serve
from rrt.registry import TypeRegistry

import workloads
from spans import Tracer


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--trace", action="store_true")
    ns = parser.parse_args()

    types = TypeRegistry()
    workloads.register_types(ns.workload, types)
    node = serve(NodeConfig(port=0), types=types)
    try:
        workloads.install_rules(ns.workload, node)
        obj, interface = workloads.make_service(ns.workload)
        node.deploy(obj, interface, workloads.SPECS[ns.workload].service)
        print(f"READY {node.endpoint.port}", flush=True)

        tracer = Tracer() if ns.trace else None
        invokes = 0
        cpu = 0.0
        for line in sys.stdin:
            command = line.strip()
            if command == "mark":
                invokes = node.invoke_requests
                cpu = time.process_time()
                if tracer is not None:
                    tracer.install()
                print("MARKED", flush=True)
            elif command == "report":
                cpu = time.process_time() - cpu
                if tracer is not None:
                    tracer.uninstall()
                report = {
                    "invoke_requests": node.invoke_requests - invokes,
                    "cpu_s": cpu,
                    "rss_peak_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    "services": len(node.services),
                    "proxies": len(node.proxy_cache),
                    "trace": tracer.summary() if tracer is not None else None,
                }
                print(json.dumps(report), flush=True)
                break
    finally:
        node.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
