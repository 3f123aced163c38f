"""The codec reproduces the recorded v1 bytes of every golden case byte for
byte, and decodes each recorded envelope back to an equal graph."""

from __future__ import annotations

import json

import pytest

import golden
import support
from rrt.codec import MessageDecoder, decode_request, decode_response
from support import graphs_equal

FIXTURE = json.loads(golden.FIXTURE.read_text(encoding="utf-8"))
CASES = golden.build_cases()


def test_fixture_has_every_case():
    assert list(FIXTURE) == [case.name for case in CASES]


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_bytes_match_fixture(case):
    raw, _ = case.encode(support.graph_registry())
    assert raw == FIXTURE[case.name].encode("utf-8")


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_fixture_decodes_to_equal_graph(case):
    registry = support.graph_registry()
    _, deployer = case.encode(registry)
    raw = FIXTURE[case.name].encode("utf-8")
    resolved = []

    def resolve(rior, nesting):
        # Stands in for loop-back: the reference names the object it was
        # deployed for, and must arrive exactly as it was sent.
        obj, sent = deployer.deployed[rior.guid]
        assert rior == sent
        resolved.append(obj)
        return obj

    decoder = MessageDecoder(registry, resolve)
    if case.fault is not None:
        assert decode_response(raw).fault == case.fault
        return
    if case.response:
        values = [decoder.decode(decode_response(raw).result)]
    else:
        values = [decoder.decode(doc) for doc in decode_request(raw).args]
    assert graphs_equal(registry, case.values, values)
    assert len(resolved) == len(deployer.deployed)
