"""Span tracing from outside the program: wrap rrt's public entry points.

``Tracer.install()`` replaces each traced function or method with a wrapper
that records one span per call and ``uninstall()`` puts the originals back.
Spans stay in memory; ``summary()`` turns them into sample lists and counts
that the load generator merges across processes.

A span's self time is its duration minus the durations of its direct child
spans in the same thread. A call made directly inside a span of its own
group is folded into that span: ``MessageDecoder.decode`` recursing, or
``encode_value`` calling ``MessageEncoder.encode``, is one span.

Spans of the load generator and of the server cannot be joined per request:
the wire carries no request id yet, so each process is summarised on its own.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import defaultdict

from rrt.model import DEFAULT_RULE, RemoteProxyBase

# (module, attribute path, span group). A missing attribute is reported absent.
TARGETS = (
    ("rrt.policy", "TransmissionPolicyManager.resolve", "policy.resolve"),
    ("rrt.codec", "encode_request", "codec.encode_request"),
    ("rrt.codec", "decode_request", "codec.decode_request"),
    ("rrt.codec", "encode_response", "codec.encode_response"),
    ("rrt.codec", "decode_response", "codec.decode_response"),
    ("rrt.codec", "encode_value", "codec.encode_value"),
    ("rrt.codec", "MessageEncoder.encode", "codec.encode_value"),
    ("rrt.codec", "decode_value", "codec.decode_value"),
    ("rrt.codec", "MessageDecoder.decode", "codec.decode_value"),
    ("rrt.codec", "rior_to_doc", "codec.rior_doc"),
    ("rrt.codec", "doc_to_rior", "codec.rior_doc"),
    ("rrt.remote", "remote_invoke", "remote.remote_invoke"),
    ("rrt.remote", "auto_deploy", "remote.auto_deploy"),
    ("rrt.remote", "build_rior", "remote.build_rior"),
    ("rrt.remote", "resolve_incoming_rior", "remote.resolve_incoming_rior"),
    ("rrt.node", "invoke_local", "registry.invoke_local"),
    ("rrt.registry", "ServiceRegistry.lookup", "registry.lookup"),
    ("rrt.registry", "ServiceRegistry.lookup_guid", "registry.lookup"),
    ("rrt.registry", "ServiceRegistry.deploy", "registry.deploy"),
    ("rrt.node", "RRTNode.handle_invoke", "node.handle_invoke"),
    ("http.client", "HTTPConnection.connect", "remote.transport.connect"),
    ("http.client", "HTTPConnection.request", "remote.transport"),
    ("http.client", "HTTPConnection.getresponse", "remote.transport"),
    ("http.client", "HTTPConnection.close", "remote.transport"),
    ("http.client", "HTTPResponse.read", "remote.transport"),
)
# The per-call overlay is a context manager; its enter and exit are timed.
OVERLAY = ("rrt.policy", "TransmissionPolicyManager.scoped_param_policy")

def _resolve_target(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class _Frame:
    __slots__ = ("group", "child_ns", "span_id", "root_id")

    def __init__(self, group, span_id, root_id):
        self.group = group
        self.child_ns = 0
        self.span_id = span_id
        self.root_id = root_id


class Tracer:
    """Records spans around the calls into each rrt layer."""

    def __init__(self):
        self._local = threading.local()
        self._ids = itertools.count(1)
        # (group, dur_ns, self_ns, span_id, parent_id, root_id, note)
        self.spans: list[tuple] = []
        self.overlay_ns: list[int] = []
        self.absent: list[str] = []
        self._patches: list[tuple] = []

    # -- patching ------------------------------------------------------------------

    def install(self) -> None:
        for module_name, path, group in TARGETS:
            try:
                owner, attr, original = _resolve_target(module_name, path)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{path}")
                continue
            self._patch(owner, attr, self._wrap(group, original, _NOTES.get(path)))
        try:
            owner, attr, original = _resolve_target(OVERLAY[0], OVERLAY[1])
        except (ImportError, AttributeError):
            self.absent.append(f"{OVERLAY[0]}.{OVERLAY[1]}")
        else:
            self._patch(owner, attr, self._wrap_overlay(original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    # -- spans -----------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, group: str, fn, note):
        tracer = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if parent is not None and parent.group == group:
                return fn(*args, **kwargs)
            span_id = next(tracer._ids)
            frame = _Frame(group, span_id, parent.root_id if parent else span_id)
            pre = note[0](args) if note and note[0] else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if parent is not None:
                    parent.child_ns += dur
            tracer.spans.append((
                group, dur, dur - frame.child_ns, span_id,
                parent.span_id if parent else 0, frame.root_id,
                note[1](pre, args, result) if note else None,
            ))
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_overlay(self, fn):
        """The overlay is a context manager: time its enter and exit together."""
        tracer = self
        clock = time.perf_counter_ns

        class Timed:
            def __init__(self, cm):
                self._cm = cm
                self._ns = 0

            def __enter__(self):
                start = clock()
                value = self._cm.__enter__()
                self._ns = clock() - start
                return value

            def __exit__(self, *exc):
                start = clock()
                try:
                    return self._cm.__exit__(*exc)
                finally:
                    tracer.overlay_ns.append(self._ns + clock() - start)

        def traced(*args, **kwargs):
            return Timed(fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    # -- summary ---------------------------------------------------------------------

    def summary(self) -> dict:
        """Sample lists (ns, bytes) and counts, ready to merge with another process's.

        ``self_ns`` holds each group's self times. ``samples`` holds the
        per-call figures that need the span tree: wire ``remote_invoke``
        durations, transport time per wire call, ``handle_invoke`` durations
        and envelope sizes. ``attributed_ns`` splits the wire
        ``remote_invoke`` time into the self times along its call path.
        """
        self_ns: dict[str, list[int]] = defaultdict(list)
        samples: dict[str, list[int]] = defaultdict(list)
        counts: dict[str, int] = defaultdict(int)
        children: dict[int, list[tuple]] = defaultdict(list)
        trees: dict[int, list[tuple]] = defaultdict(list)
        for span in self.spans:
            group, dur, own, span_id, parent_id, root_id, note = span
            self_ns[group].append(own)
            counts[f"{group}.calls"] += 1
            children[parent_id].append(span)
            trees[root_id].append(span)
            if group == "node.handle_invoke":
                samples[group].append(dur)
            if isinstance(note, int):
                samples[f"{group}.bytes"].append(note)
            elif note is not None:
                counts[f"{group}.{note}"] += 1

        attributed: dict[str, int] = defaultdict(int)
        for group, dur, _, span_id, parent_id, root_id, _ in self.spans:
            if group == "remote.auto_deploy":
                # Fresh when it deployed a new service underneath.
                fresh = any(c[0] == "registry.deploy" for c in children[span_id])
                counts["remote.auto_deploy.fresh" if fresh else "remote.auto_deploy.reused"] += 1
            if group != "remote.remote_invoke" or parent_id:
                continue
            # Wire calls have transport spans underneath; the others were
            # served from the smart-proxy snapshot.
            transport = [c[1] for c in children[span_id] if c[0] == "remote.transport"]
            if not transport:
                counts["remote.remote_invoke.cached"] += 1
                continue
            counts["remote.remote_invoke.wire"] += 1
            samples["remote.remote_invoke.wire"].append(dur)
            samples["remote.transport.per_call"].append(sum(transport))
            for member in trees[root_id]:
                attributed[member[0]] += member[2]
        return {
            "self_ns": dict(self_ns),
            "samples": dict(samples),
            "counts": dict(counts),
            "overlay_ns": list(self.overlay_ns),
            "attributed_ns": dict(attributed),
            "absent": list(self.absent),
        }


def _incoming_pre(args):
    node, rior = args[0], args[1]
    return node.proxy_cache.get(rior.guid) is not None


def _incoming_note(found, args, result):
    if not isinstance(result, RemoteProxyBase):
        return "loopback"
    return "hit" if found else "miss"


def _decided_by(_, args, decision):
    return "default" if decision.winning_rule == DEFAULT_RULE else "rule"


def _size(_, args, data):
    return len(data)


# Per traced path: (hook before the call or None, note from (its value, args, result)).
# A string note is counted per value; an int note is kept as a sample.
_NOTES = {
    "TransmissionPolicyManager.resolve": (None, _decided_by),
    "encode_request": (None, _size),
    "encode_response": (None, _size),
    "resolve_incoming_rior": (_incoming_pre, _incoming_note),
}


def merge(summaries: list[dict]) -> dict:
    """Concatenate sample lists and add counts over several summaries."""
    out = {"self_ns": defaultdict(list), "samples": defaultdict(list),
           "counts": defaultdict(int), "overlay_ns": [],
           "attributed_ns": defaultdict(int), "absent": set()}
    for s in summaries:
        for key in ("self_ns", "samples"):
            for group, values in s[key].items():
                out[key][group].extend(values)
        for key in ("counts", "attributed_ns"):
            for name, n in s[key].items():
                out[key][name] += n
        out["overlay_ns"].extend(s["overlay_ns"])
        out["absent"].update(s["absent"])
    return out

