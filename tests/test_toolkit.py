from __future__ import annotations

import json
import signal
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from rrt.errors import NetworkFault
from rrt.model import MethodDescriptor
from rrt.node import RRTNode, logger
from rrt.toolkit import (
    LocalPair,
    bench_policy_overhead,
    p2p_demo,
    register_demo_types,
)
from rrt.toolkit.cli import log_faults_to, main
from rrt.toolkit.demo import Key, Message, P2PNode
from rrt.toolkit.harness import SeededGuidSource


class TestHarness:
    def test_pair_starts_empty(self):
        with LocalPair(registrars=(register_demo_types,)) as pair:
            assert len(pair.a.services) == 0
            assert len(pair.b.services) == 0
            assert pair.a.endpoint.port != pair.b.endpoint.port

    def test_cross_node_invocation_matches_local(self):
        with LocalPair(registrars=(register_demo_types,)) as pair:
            node_obj = P2PNode(Key("k"))
            pair.a.deploy(node_obj, "IMonitor", "Monitor")
            node_obj.route(Key("x"), Message("m"))
            handle = pair.b.get_object_by_name(
                pair.a.endpoint.host, pair.a.endpoint.port, "Monitor"
            )
            assert handle.getLog() == node_obj.getLog()

    def test_seeded_guids_reproducible(self):
        one = SeededGuidSource(42)()
        two = SeededGuidSource(42)()
        assert one == two != SeededGuidSource(43)()


class TestDemo:
    def test_transcript_shape(self):
        transcript = p2p_demo(seed=23)
        assert transcript, "demo produced no wire decisions"
        for line in transcript:
            role, type_name, kind, level = line.split(" ")
            assert role in ("arg", "return")
            assert kind in ("BY_VALUE", "BY_REFERENCE")
            assert level.startswith("level=")

    def test_exactly_one_by_reference_message(self):
        transcript = p2p_demo(seed=23)
        by_ref = [l for l in transcript if l.startswith("arg Message BY_REFERENCE")]
        assert len(by_ref) == 1

    def test_deterministic_for_fixed_seed(self):
        assert p2p_demo(seed=5) == p2p_demo(seed=5)

    def test_key_always_by_value_via_class_rule(self):
        transcript = p2p_demo(seed=23)
        key_lines = [l for l in transcript if l.startswith("arg Key ")]
        assert key_lines and all("BY_VALUE level=6" in l for l in key_lines)


class TestBench:
    def test_report_fields(self):
        report = bench_policy_overhead(calls=40, warmup=5)
        assert report.calls == 40
        assert report.mean_without_policy_ms > 0
        assert report.mean_with_policy_ms > 0
        expected = (
            report.mean_with_policy_ms - report.mean_without_policy_ms
        ) / report.mean_without_policy_ms
        assert report.overhead_ratio == pytest.approx(expected)

    def test_rejects_zero_calls(self):
        from rrt.toolkit.bench import BenchReport

        with pytest.raises(ValueError):
            BenchReport(0, 1.0, 1.0, 0.0)


@pytest.fixture
def live_node():
    with LocalPair(seed=3, registrars=(register_demo_types,)) as pair:
        pair.a.deploy(P2PNode(Key("cli-key")), "IP2PNode", "P2P")
        yield pair.a


class TestCliCall:
    def test_route_prints_null_and_exits_zero(self, live_node, capsys):
        address = f"{live_node.endpoint.host}:{live_node.endpoint.port}"
        status = main(["call", address, "P2P", "route", '["<key>","<msg>"]'])
        out = capsys.readouterr().out.strip()
        assert status == 0
        assert json.loads(out) == {"k": "prim", "t": "null"}

    def test_fault_exits_one(self, live_node, capsys):
        address = f"{live_node.endpoint.host}:{live_node.endpoint.port}"
        status = main(["call", address, "P2P", "fly", "[]"])
        assert status == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["fault"]["kind"] == "protocol"

    def test_network_error_exits_one(self, capsys):
        status = main(["call", "127.0.0.1:9", "P2P", "route", "[]"])
        assert status == 1
        assert json.loads(capsys.readouterr().out)["fault"]["kind"] == "network"

    def test_bad_args_usage_error(self, live_node, capsys):
        address = f"{live_node.endpoint.host}:{live_node.endpoint.port}"
        assert main(["call", address, "P2P", "route", "{not json"]) == 2
        assert main(["call", address, "P2P", "route", '{"a":1}']) == 2
        assert main(["call", "noport", "P2P", "route", "[]"]) == 2

    def test_wire_document_argument(self, live_node, capsys):
        address = f"{live_node.endpoint.host}:{live_node.endpoint.port}"
        key_doc = json.dumps(
            [
                {"k": "obj", "class": "Key", "id": 0,
                 "fields": {"value": {"k": "prim", "t": "str", "v": "dest"}}},
                {"k": "obj", "class": "Message", "id": 1,
                 "fields": {"payload": {"k": "prim", "t": "str", "v": "hello"}}},
            ]
        )
        assert main(["call", address, "P2P", "route", key_doc]) == 0

    def test_any_service_name_is_quoted(self, live_node, capsys):
        address = f"{live_node.endpoint.host}:{live_node.endpoint.port}"
        names = ["my service", "a?b", "café", "x%41", "a/b", "xA"]
        for name in names:
            live_node.deploy(Key(name), None, name)
        for name in names:
            assert main(["call", address, name, "get_value"]) == 0
            assert json.loads(capsys.readouterr().out)["v"] == name

    def test_refusal_is_a_protocol_fault(self, capsys):
        refusal = b'{"error":"request body over 4194304 bytes"}'

        class Refuse(BaseHTTPRequestHandler):
            def do_POST(self):
                self.send_response(413)
                self.send_header("Content-Length", str(len(refusal)))
                self.end_headers()
                self.wfile.write(refusal)

            def log_message(self, *args):
                pass

        with HTTPServer(("127.0.0.1", 0), Refuse) as stub:
            answer = threading.Thread(target=stub.handle_request)
            answer.start()
            status = main(["call", f"127.0.0.1:{stub.server_port}", "P2P", "route"])
            answer.join(timeout=5)
        assert status == 1
        fault = json.loads(capsys.readouterr().out)["fault"]
        assert fault["kind"] == "protocol"
        assert "HTTP 413: " + refusal.decode() in fault["message"]

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2


FIG9_RULES = """<policies>
  <class name="Key" policy="BY_VALUE" overridable="true" subclasses="false"/>
  <cache class="P2PNode" field="key"/>
</policies>
"""


class TestCliPolicyExplain:
    def test_winning_class_rule(self, tmp_path, capsys):
        policy = tmp_path / "rules.xml"
        policy.write_text(FIG9_RULES)
        context = json.dumps(
            {"role": "argument", "index": 0, "class": "IP2PNode",
             "method": "route", "actual": "Key", "peer": "rrt"}
        )
        status = main(["policy-explain", str(policy), context])
        assert status == 0
        assert capsys.readouterr().out.strip() == "BY_VALUE via class rule, level 6"

    def test_default_policy(self, tmp_path, capsys):
        policy = tmp_path / "rules.xml"
        policy.write_text("<policies/>")
        context = json.dumps(
            {"role": "argument", "index": 1, "class": "IP2PNode",
             "method": "route", "actual": "Message", "peer": "rrt"}
        )
        assert main(["policy-explain", str(policy), context]) == 0
        assert "BY_REFERENCE via default policy" in capsys.readouterr().out

    def test_context_from_file(self, tmp_path, capsys):
        policy = tmp_path / "rules.xml"
        policy.write_text(FIG9_RULES)
        ctx_file = tmp_path / "ctx.json"
        ctx_file.write_text(
            json.dumps({"role": "return", "class": "IMonitor",
                        "method": "getLog", "actual": "string", "peer": "plain"})
        )
        assert main(["policy-explain", str(policy), f"@{ctx_file}"]) == 0
        assert "BY_VALUE" in capsys.readouterr().out

    def test_missing_file_usage_error(self, tmp_path):
        assert main(["policy-explain", str(tmp_path / "none.xml"), "{}"]) == 2

    def test_bad_context_usage_error(self, tmp_path):
        policy = tmp_path / "rules.xml"
        policy.write_text("<policies/>")
        assert main(["policy-explain", str(policy), '{"role":"argument"}']) == 2


    def test_file_checked_against_the_node_types(self, tmp_path, capsys):
        policy = tmp_path / "rules.xml"
        policy.write_text(
            '<policies><param class="IP2PNode" method="route" index="5" '
            'policy="BY_VALUE" depth="unbounded" overridable="true"/></policies>'
        )
        context = json.dumps(
            {"role": "argument", "index": 5, "class": "IP2PNode",
             "method": "route", "actual": "Key", "peer": "rrt"}
        )
        assert main(["policy-explain", str(policy), context]) == 2
        assert "no parameter 5" in capsys.readouterr().err


class TestCliBench:
    def test_bench_prints_report(self, capsys):
        status = main(["bench", "--calls", "25"])
        assert status == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["calls"] == 25
        assert set(doc) == {
            "calls",
            "mean_without_policy_ms",
            "mean_with_policy_ms",
            "overhead_ratio",
        }


class TestCliNode:
    def test_node_subcommand_serves_until_signalled(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(
            json.dumps([{"type": "P2PNode", "constructor_args": ["k"],
                         "interface": "IP2PNode", "name": "P2P"}])
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "rrt.toolkit.cli", "node", "--port", "0",
             "--manifest", str(manifest), "--seed", "7"],
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stderr.readline()
            assert "listening on http://" in line
            address = line.rsplit("http://", 1)[1].strip()
            host, port = address.split(":")
            import http.client

            conn = http.client.HTTPConnection(host, int(port), timeout=5)
            conn.request("GET", "/services")
            listing = json.loads(conn.getresponse().read())
            conn.close()
            assert [e["name"] for e in listing] == ["P2P"]
        finally:
            proc.send_signal(signal.SIGINT)
            proc.communicate(timeout=10)
        assert proc.returncode == 0

    def test_node_subcommand_stops_on_sigterm(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "rrt.toolkit.cli", "node", "--port", "0"],
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            assert "listening on http://" in proc.stderr.readline()
        finally:
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=10)
        assert proc.returncode == 0 and err == ""

    def test_env_port_override(self, tmp_path):
        import os

        env = dict(os.environ, RRT_PORT="0")
        proc = subprocess.Popen(
            [sys.executable, "-m", "rrt.toolkit.cli", "node"],
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            line = proc.stderr.readline()
            assert "listening on http://" in line
        finally:
            proc.send_signal(signal.SIGINT)
            proc.communicate(timeout=10)


@pytest.fixture
def restore_rrt_logger():
    before = list(logger.handlers)
    yield
    for handler in logger.handlers[:]:
        if handler not in before:
            logger.removeHandler(handler)
            handler.close()


class TestCliStartup:
    @pytest.mark.parametrize(
        "files,message",
        [
            ({"--policy": None}, "policy file not readable"),
            ({"--manifest": None}, "deploy manifest not readable"),
            ({"--manifest": [{"type": "Ghost"}]}, "type 'Ghost' not constructible"),
            ({"--manifest": [{"type": "P2PNode", "name": 5}]}, "non-empty text"),
        ],
    )
    def test_bad_startup_file_exits_one(self, tmp_path, capsys, files, message):
        argv = ["node", "--port", "0"]
        for option, content in files.items():
            path = tmp_path / "file"
            if content is not None:
                path.write_text(json.dumps(content))
            argv += [option, str(path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("startup failed: ") and message in err

    def test_unspecified_host_exits_one(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rrt.toolkit.cli", "node", "--port", "0",
             "--host", "0.0.0.0"],
            capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("startup failed: cannot serve on unspecified")

    @pytest.mark.parametrize(
        "option,message",
        [(["--host", ""], "host must be non-empty"), (["--port", "70000"], "out of range")],
        ids=["empty-host", "port-out-of-range"],
    )
    def test_bad_endpoint_exits_one(self, option, message):
        proc = subprocess.run(
            [sys.executable, "-m", "rrt.toolkit.cli", "node", "--port", "0", *option],
            capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("startup failed: ") and message in proc.stderr

    @pytest.mark.parametrize("to_file", [True, False], ids=["file", "stderr"])
    def test_log_writes_one_line_per_suppressed_fault(
        self, tmp_path, capsys, restore_rrt_logger, to_file
    ):
        sink = tmp_path / "faults.log"
        log_faults_to(str(sink) if to_file else "-")
        node = RRTNode()
        for n in range(3):
            node.handle_network_fault(MethodDescriptor("ping"), NetworkFault(f"down {n}"))
        written = sink.read_text() if to_file else capsys.readouterr().err
        assert written.splitlines() == node.fault_log

    def test_library_use_writes_nothing_to_stderr(self, capfd):
        # A fresh interpreter, where no test harness handler sits on the root
        # logger: without a handler of its own, stdlib logging would print
        # the record through its last-resort handler.
        script = (
            "from rrt.errors import NetworkFault\n"
            "from rrt.model import MethodDescriptor\n"
            "from rrt.node import RRTNode\n"
            "node = RRTNode()\n"
            "node.handle_network_fault(MethodDescriptor('ping'), NetworkFault('down'))\n"
            "assert len(node.fault_log) == 1\n"
        )
        assert subprocess.run([sys.executable, "-c", script]).returncode == 0
        assert capfd.readouterr().err == ""
