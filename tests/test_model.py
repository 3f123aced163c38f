from __future__ import annotations

import binascii
import random
from urllib.parse import unquote

import pytest
from hypothesis import given, strategies as st

from rrt.errors import RegistryIntegrityError
from rrt.model import (
    Endpoint,
    FieldDescriptor,
    GUID,
    MethodDescriptor,
    PolicyKind,
    RIOR,
    TransmissionDecision,
    TypeDescriptor,
    UNBOUNDED,
    by_reference,
    by_value,
    guid_new,
    service_url,
)
from rrt.registry import TypeRegistry
from support import is_subtype, supertype_chain


class TestGuid:
    def test_fresh_guid_is_16_bytes_32_hex(self):
        g = guid_new()
        assert len(g.value) == 16
        assert len(g.hex) == 32
        assert g.hex == g.hex.lower()

    def test_thousand_guids_distinct(self):
        seen = {guid_new().hex for _ in range(1000)}
        assert len(seen) == 1000

    @given(st.binary(min_size=16, max_size=16))
    def test_hex_round_trip(self, raw):
        # Independent oracle: binascii does the hex encoding.
        g = GUID(raw)
        assert g.hex == binascii.hexlify(raw).decode("ascii")
        assert GUID.parse(g.hex) == g

    @pytest.mark.parametrize("bad", ["", "ff" * 15, "ff" * 17, "FF" * 16, "xy" * 16,
                                     "ffffffff-ffff-ffff-ffff-ffffffffffff"])
    def test_parse_rejects_non_canonical(self, bad):
        with pytest.raises(ValueError):
            GUID.parse(bad)

    def test_wrong_byte_count_rejected(self):
        with pytest.raises(ValueError):
            GUID(b"short")

    def test_injected_source(self):
        g = guid_new(lambda: b"\x00" * 16)
        assert g.hex == "00" * 16


class TestEndpoint:
    def test_fields(self):
        ep = Endpoint("host.example", 5001)
        assert str(ep) == "host.example:5001"

    @pytest.mark.parametrize("host,port", [("", 80), ("h", 0), ("h", 65536), ("h", -1)])
    def test_invalid_rejected(self, host, port):
        with pytest.raises(ValueError):
            Endpoint(host, port)


class TestServiceUrl:
    def test_named_service(self):
        assert (
            service_url(Endpoint("node1.overlay.example", 5001), "P2P")
            == "http://node1.overlay.example:5001/P2P"
        )

    def test_plain(self):
        assert service_url(Endpoint("localhost", 80), "x") == "http://localhost:80/x"

    def test_guid_tail_parses_back(self):
        g = guid_new()
        url = service_url(Endpoint("a", 1), g.hex)
        assert GUID.parse(url.rsplit("/", 1)[1]) == g

    def test_empty_tail_rejected(self):
        with pytest.raises(ValueError):
            service_url(Endpoint("a", 1), "")

    @given(
        host=st.text(
            alphabet=st.characters(blacklist_characters="/:", min_codepoint=33, max_codepoint=126),
            min_size=1,
            max_size=20,
        ),
        port=st.integers(min_value=1, max_value=65535),
        tail=st.text(
            alphabet=st.characters(min_codepoint=33, max_codepoint=126),
            min_size=1,
            max_size=20,
        ),
    )
    def test_reparse_property(self, host, port, tail):
        url = service_url(Endpoint(host, port), tail)
        rest = url[len("http://"):]
        loc, _, got_tail = rest.rpartition("/")
        got_host, _, got_port = loc.partition(":")
        assert (got_host, int(got_port), unquote(got_tail)) == (host, port, tail)


def _desc(name, supertype=None, methods=(), is_interface=False):
    return TypeDescriptor(name, supertype_name=supertype, methods=methods,
                          is_interface=is_interface)


class TestSubtyping:
    def view(self):
        object_t = _desc("Object")
        p2p = _desc("P2PNode", supertype="Object")
        key = _desc("Key", supertype="Object")
        return {d.type_name: d for d in (object_t, p2p, key)}

    def test_reflexive(self):
        view = self.view()
        assert is_subtype(view["P2PNode"], view["P2PNode"], view)

    def test_transitive_chain(self):
        view = self.view()
        assert is_subtype(view["P2PNode"], view["Object"], view)

    def test_disjoint_chains(self):
        view = self.view()
        assert not is_subtype(view["Key"], view["P2PNode"], view)

    def test_unresolvable_supertype(self):
        orphan = _desc("Orphan", supertype="Ghost")
        view = {"Orphan": orphan}
        with pytest.raises(RegistryIntegrityError):
            is_subtype(orphan, orphan, view)

    def test_cycle_detected(self):
        a = _desc("A", supertype="B")
        b = _desc("B", supertype="A")
        view = {"A": a, "B": b}
        with pytest.raises(RegistryIntegrityError):
            supertype_chain(a, view)

    def test_lenient_chain_stops_at_unknown(self):
        orphan = _desc("Orphan", supertype="Ghost")
        assert supertype_chain(orphan, {"Orphan": orphan}, strict=False) == ["Orphan"]

    @pytest.mark.parametrize("seed", range(8))
    def test_against_transitive_closure(self, seed):
        # Random acyclic hierarchies; brute-force closure over declared edges.
        rnd = random.Random(seed)
        count = rnd.randint(2, 20)
        names = [f"T{i}" for i in range(count)]
        view = {}
        parents = {}
        for i, name in enumerate(names):
            parent = rnd.choice(names[:i]) if i and rnd.random() < 0.8 else None
            parents[name] = parent
            view[name] = _desc(name, supertype=parent)
        closure = {name: {name} for name in names}
        for name in names:
            cur = parents[name]
            while cur is not None:
                closure[name].add(cur)
                cur = parents[cur]
        # The same hierarchy registered parents first: lineages computed at
        # registration agree with the walk and with the closure.
        types = TypeRegistry()
        for name in names:
            types.register_type(view[name])
        for cand in names:
            assert types.supertype_chain_of(cand) == tuple(supertype_chain(view[cand], view))
            for anc in names:
                expected = anc in closure[cand]
                assert is_subtype(view[cand], view[anc], view) == expected
                assert (anc in types.supertype_chain_of(cand)) == expected
        # An unregistered name is its own chain and a subtype only of itself.
        assert types.supertype_chain_of("Ghost") == ("Ghost",)
        assert "Ghost" in types.supertype_chain_of("Ghost")
        assert names[0] not in types.supertype_chain_of("Ghost")
        assert "Ghost" not in types.supertype_chain_of(names[0])

    def test_antisymmetry_up_to_name(self):
        view = self.view()
        for a in view.values():
            for b in view.values():
                if is_subtype(a, b, view) and is_subtype(b, a, view):
                    assert a.type_name == b.type_name


class TestDescriptors:
    def test_duplicate_method_rejected(self):
        with pytest.raises(ValueError):
            TypeDescriptor(
                "X",
                methods=(MethodDescriptor("m", ("i64",)), MethodDescriptor("m", ("f64",))),
            )

    def test_same_name_different_arity_ok(self):
        desc = TypeDescriptor(
            "X",
            methods=(MethodDescriptor("m", ()), MethodDescriptor("m", ("i64",))),
        )
        assert desc.find_method("m", 0).arity == 0
        assert desc.find_method("m", 1).arity == 1

    def test_duplicate_field_rejected(self):
        with pytest.raises(ValueError):
            TypeDescriptor(
                "X",
                fields=(FieldDescriptor("f", "i64"), FieldDescriptor("f", "string")),
            )

    def test_duplicates_name_the_type_and_member(self):
        m = MethodDescriptor("m", ("i64",))
        with pytest.raises(ValueError, match=r"^X: duplicate method m/1$"):
            TypeDescriptor("X", methods=(m, MethodDescriptor("n"), m))
        f = FieldDescriptor("f", "i64")
        with pytest.raises(ValueError, match=r"^X: duplicate field f$"):
            TypeDescriptor("X", fields=(f, f))

    def test_find_method_requires_an_arity(self):
        desc = TypeDescriptor("X", methods=(MethodDescriptor("m", ()),))
        with pytest.raises(TypeError):
            desc.find_method("m")

    def test_indexes_match_the_members(self):
        get = MethodDescriptor("get", (), "i64")
        put = MethodDescriptor("put", ("i64",))
        put2 = MethodDescriptor("put", ("i64", "i64"))
        f = FieldDescriptor("f", "i64")
        desc = TypeDescriptor("X", fields=(f,), methods=(get, put, put2))
        assert desc.method_names == {"get", "put"}
        assert desc.field_names == {"f"}
        assert desc.find_method("put", 2) is put2 and desc.find_method("put", 0) is None
        assert desc.field("f") is f and desc.field("g") is None
        assert desc == TypeDescriptor("X", fields=(f,), methods=(get, put, put2))


class TestRior:
    def iface(self):
        return TypeDescriptor("I", fields=(FieldDescriptor("key", "Key"),))

    def test_cached_names_must_be_interface_fields(self):
        with pytest.raises(ValueError):
            RIOR(
                Endpoint("h", 1),
                guid_new(),
                interface_descriptor=self.iface(),
                cached_field_snapshot={"nope": None},
            )

    def test_url(self):
        r = RIOR(Endpoint("h", 9), guid_new(), service_name="svc",
                 interface_descriptor=self.iface())
        assert r.url == "http://h:9/svc"


class TestDecision:
    def test_by_value_requires_depth(self):
        with pytest.raises(ValueError):
            TransmissionDecision(PolicyKind.BY_VALUE)

    def test_by_reference_rejects_depth(self):
        with pytest.raises(ValueError):
            TransmissionDecision(PolicyKind.BY_REFERENCE, depth=3)

    def test_helpers(self):
        assert by_value(2).depth == 2
        assert by_value().depth is UNBOUNDED
        assert by_reference().depth is None
        assert by_value().level_text == "default"
        assert by_value(2, 7, 1).level_text == "1"
