from __future__ import annotations

import dataclasses
import itertools
import random
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rrt.errors import PolicyFileError, PolicyRuleError
from rrt.model import (
    DEFAULT_RULE,
    FieldDescriptor,
    MethodDescriptor,
    PolicyKind,
    TypeDescriptor,
    UNBOUNDED,
)
from rrt.policy import (
    CallContext,
    CallRole,
    PeerKind,
    RuleKind,
    TransmissionPolicyManager,
    describe_decision,
)
from rrt.registry import TypeRegistry
from rrt.toolkit import LocalPair, bench_policy_overhead, register_bench_types

VAL = PolicyKind.BY_VALUE
REF = PolicyKind.BY_REFERENCE


def _registry() -> TypeRegistry:
    types = TypeRegistry()
    types.register_type(TypeDescriptor("Base"))
    types.register_type(TypeDescriptor("Derived", supertype_name="Base"))
    types.register_type(
        TypeDescriptor(
            "I",
            fields=(FieldDescriptor("key", "Key"),),
            methods=(
                MethodDescriptor("m", ("Base", "Base")),
                MethodDescriptor("getLog", (), "string"),
            ),
            is_interface=True,
        )
    )
    return types


@pytest.fixture
def manager():
    return TransmissionPolicyManager(types=_registry())


def arg_ctx(actual="Derived", method="m", index=0, peer=PeerKind.RRT):
    return CallContext(
        role=CallRole.ARGUMENT,
        declared_type_name="I",
        method_name=method,
        actual_type_name=actual,
        peer_kind=peer,
        param_index=index,
    )


def ret_ctx(actual="Derived", method="m", peer=PeerKind.RRT):
    return CallContext(
        role=CallRole.RETURN_VALUE,
        declared_type_name="I",
        method_name=method,
        actual_type_name=actual,
        peer_kind=peer,
    )


class TestRuleStores:
    def test_set_and_get_counterparts(self, manager):
        rid = manager.set_class_policy("Key", VAL, overridable=True, apply_to_subtypes=True)
        rules = manager.get_class_policy("Key")
        assert [r.rule_id for r in rules] == [rid]
        assert rules[0].apply_to_subtypes is True

        rid_m = manager.set_method_policy("I", "m", REF, UNBOUNDED, False)
        assert [r.rule_id for r in manager.get_method_policy("I", "m")] == [rid_m]

        rid_r = manager.set_return_value_policy("I", "m", VAL, True)
        assert [r.rule_id for r in manager.get_return_value_policy("I", "m")] == [rid_r]

        rid_p = manager.set_param_policy("I", "m", 1, REF, UNBOUNDED, False)
        assert [r.rule_id for r in manager.get_param_policy("I", "m", 1)] == [rid_p]

        manager.set_field_to_be_cached("I", "key")
        assert manager.cached_fields_for(("I",)) == {"key"}

    def test_last_writer_wins_within_tier(self, manager):
        manager.set_class_policy("Key", VAL, overridable=True)
        newest = manager.set_class_policy("Key", REF, overridable=True)
        rules = manager.get_class_policy("Key")
        assert len(rules) == 1 and rules[0].rule_id == newest
        assert rules[0].policy is REF

    def test_tiers_coexist(self, manager):
        manager.set_class_policy("Key", VAL, overridable=True)
        manager.set_class_policy("Key", REF, overridable=False)
        assert len(manager.get_class_policy("Key")) == 2

    def test_unknown_param_index_rejected_when_method_known(self, manager):
        with pytest.raises(PolicyRuleError, match="no parameter 9"):
            manager.set_param_policy("I", "m", 9, VAL, 1, True)
        # Unknown method: validation is deferred, the rule installs.
        manager.set_param_policy("I", "mystery", 9, VAL, 1, True)

    def test_unknown_cache_field_rejected_when_type_known(self, manager):
        with pytest.raises(PolicyRuleError, match="no field"):
            manager.set_field_to_be_cached("I", "ghost")
        manager.set_field_to_be_cached("UnknownType", "whatever")

    def test_malformed_rules(self, manager):
        with pytest.raises(PolicyRuleError):
            manager.set_method_policy("I", "", VAL, UNBOUNDED, True)
        with pytest.raises(PolicyRuleError):
            manager.set_method_policy("I", "m", VAL, 0, True)
        with pytest.raises(PolicyRuleError):
            manager.set_param_policy("I", "m", -1, VAL, 1, True)

    def test_every_rule_has_a_decision_but_cache_rules(self, manager):
        install_golden_rules(manager)
        for rule in manager.all_rules():
            if rule.kind is RuleKind.CACHE_FIELD:
                assert rule.decision is None
            else:
                assert rule.decision.winning_rule == rule.rule_id
                assert rule.decision.kind is rule.policy

    def test_remove_rule(self, manager):
        rid = manager.set_class_policy("Key", VAL, True)
        assert manager.remove_rule(rid)
        assert manager.get_class_policy("Key") == []
        assert not manager.remove_rule(rid)


class TestResolve:
    def test_default_rrt_is_by_reference(self, manager):
        d = manager.resolve(arg_ctx())
        assert d.kind is REF
        assert d.winning_rule == DEFAULT_RULE
        assert d.level is None

    def test_default_plain_client_is_by_value_unbounded(self, manager):
        d = manager.resolve(arg_ctx(peer=PeerKind.PLAIN_CLIENT))
        assert d.kind is VAL and d.depth is UNBOUNDED

    @pytest.mark.parametrize("prim", ["i64", "f64", "bool", "string", "null"])
    def test_primitives_always_by_value(self, manager, prim):
        manager.set_class_policy(prim, REF, overridable=False)
        manager.set_method_policy("I", "m", REF, UNBOUNDED, False)
        d = manager.resolve(arg_ctx(actual=prim))
        assert d.kind is VAL and d.depth is UNBOUNDED

    def test_nonov_class_beats_ov_method(self, manager):
        # Level 3 (class, non-overridable) wins over level 5 (method, overridable).
        cid = manager.set_class_policy("Derived", VAL, overridable=False)
        manager.set_method_policy("I", "m", REF, UNBOUNDED, True)
        d = manager.resolve(arg_ctx())
        assert d.kind is VAL and d.winning_rule == cid and d.level == 3

    def test_param_beats_method_beats_class_nonov(self, manager):
        manager.set_class_policy("Derived", VAL, overridable=False)
        manager.set_method_policy("I", "m", VAL, UNBOUNDED, False)
        pid = manager.set_param_policy("I", "m", 0, REF, UNBOUNDED, False)
        d = manager.resolve(arg_ctx())
        assert d.kind is REF and d.winning_rule == pid and d.level == 1

    def test_return_rule_alone(self, manager):
        rid = manager.set_return_value_policy("I", "getLog", VAL, True)
        d = manager.resolve(ret_ctx(actual="Derived", method="getLog"))
        assert d.kind is VAL and d.winning_rule == rid and d.level == 5

    def test_method_rule_does_not_touch_returns(self, manager):
        manager.set_method_policy("I", "m", VAL, UNBOUNDED, False)
        d = manager.resolve(ret_ctx())
        assert d.winning_rule == DEFAULT_RULE

    def test_param_rule_scoped_to_index_and_method(self, manager):
        manager.set_param_policy("I", "m", 0, VAL, 3, False)
        assert manager.resolve(arg_ctx(index=0)).kind is VAL
        assert manager.resolve(arg_ctx(index=1)).winning_rule == DEFAULT_RULE
        assert manager.resolve(arg_ctx(method="getLog", index=0)).winning_rule == DEFAULT_RULE

    def test_method_rule_covers_all_arguments(self, manager):
        manager.set_method_policy("I", "m", VAL, 2, False)
        assert manager.resolve(arg_ctx(index=0)).depth == 2
        assert manager.resolve(arg_ctx(index=1)).depth == 2

    def test_class_rule_subtype_matching(self, manager):
        manager.set_class_policy("Base", VAL, overridable=True, apply_to_subtypes=True)
        assert manager.resolve(arg_ctx(actual="Derived")).kind is VAL

    def test_class_rule_without_subtypes_skips_derived(self, manager):
        manager.set_class_policy("Base", VAL, overridable=True, apply_to_subtypes=False)
        assert manager.resolve(arg_ctx(actual="Derived")).winning_rule == DEFAULT_RULE
        assert manager.resolve(arg_ctx(actual="Base")).kind is VAL

    def test_most_derived_class_rule_wins(self, manager):
        manager.set_class_policy("Base", VAL, overridable=True, apply_to_subtypes=True)
        did = manager.set_class_policy("Derived", REF, overridable=True)
        d = manager.resolve(arg_ctx(actual="Derived"))
        assert d.kind is REF and d.winning_rule == did

    def test_class_rule_depth_is_unbounded(self, manager):
        manager.set_class_policy("Derived", VAL, overridable=True)
        assert manager.resolve(arg_ctx()).depth is UNBOUNDED

    def test_param_rule_depth_carried(self, manager):
        manager.set_param_policy("I", "m", 0, VAL, 4, False)
        assert manager.resolve(arg_ctx()).depth == 4

    def test_deterministic_and_pure(self, manager):
        manager.set_class_policy("Derived", VAL, True)
        first = manager.resolve(arg_ctx())
        second = manager.resolve(arg_ctx())
        assert first == second

    def test_rule_change_affects_next_resolution(self, manager):
        before = manager.resolve(arg_ctx())
        assert before.kind is REF
        manager.set_class_policy("Derived", VAL, True)
        assert manager.resolve(arg_ctx()).kind is VAL

    def test_order_independent_across_keys(self):
        ops = [
            lambda m: m.set_class_policy("Derived", VAL, False),
            lambda m: m.set_method_policy("I", "m", REF, UNBOUNDED, True),
            lambda m: m.set_param_policy("I", "m", 1, VAL, 2, False),
            lambda m: m.set_return_value_policy("I", "m", REF, False),
        ]
        outcomes = set()
        for seed in range(6):
            rnd = random.Random(seed)
            shuffled = ops[:]
            rnd.shuffle(shuffled)
            mgr = TransmissionPolicyManager(types=_registry())
            for op in shuffled:
                op(mgr)
            key = tuple(
                (d.kind, d.depth if not d.kind is REF else None, d.level)
                for d in (
                    mgr.resolve(arg_ctx(index=0)),
                    mgr.resolve(arg_ctx(index=1)),
                    mgr.resolve(ret_ctx()),
                )
            )
            outcomes.add(key)
        assert len(outcomes) == 1

    def test_probe_budget(self, manager):
        manager.set_class_policy("Base", VAL, True, True)
        manager.set_method_policy("I", "m", REF, UNBOUNDED, False)
        chain_len = 2  # Derived -> Base
        manager._rules = table = _CountingTable(manager._rules)
        manager.resolve(arg_ctx(actual="Derived"))
        assert 0 < table.probes <= 5 + chain_len

    def test_bench_leaves_no_swapped_resolver(self):
        with LocalPair(registrars=(register_bench_types,)) as pair:
            bench_policy_overhead(calls=20, pair=pair, warmup=2)
            echo_arg = ("Echo", "echo", 0, "Payload", "rrt")
            for manager in (pair.a.policy, pair.b.policy):
                assert "decide" not in vars(manager)
                # Decisions are kept, and each is the rule's, none the stand-in's.
                assert manager._memo[1]
                assert all(d.winning_rule != DEFAULT_RULE for d in manager._memo[1].values())
                assert manager.decide(*echo_arg).level == 2
                manager.set_param_policy("Echo", "echo", 0, VAL, 1, False)
                assert manager.decide(*echo_arg).kind is VAL


class _CountingTable(dict):
    """A rule table that counts its lookups: one per probe."""

    probes = 0

    def get(self, key, default=None):
        self.probes += 1
        return super().get(key, default)


class _LoadOnFirstGet(dict):
    """A rule slot whose first lookup answers, then lets ``writer`` run to
    completion in another thread before the reader goes on."""

    def __init__(self, slot, writer):
        super().__init__(slot)
        self._writer = writer

    def get(self, key, default=None):
        found = super().get(key, default)
        if self._writer is not None:
            thread = threading.Thread(target=self._writer)
            self._writer = None
            thread.start()
            thread.join(timeout=30)
        return found


TORN_READ_POLICY = """<policies>
  <method class="I" name="m" policy="BY_REFERENCE" depth="unbounded" overridable="false" />
  <param class="I" method="m" index="0" policy="BY_VALUE" depth="unbounded" overridable="false" />
</policies>"""


class TestPublishedTable:
    def test_policy_file_loaded_during_resolve_is_seen_whole_or_not_at_all(self, manager):
        manager.set_param_policy("I", "m", 0, VAL, UNBOUNDED, True)
        manager.set_method_policy("I", "m", REF, UNBOUNDED, True)
        before = manager.resolve(arg_ctx())
        assert (before.kind, before.level) == (VAL, 4)

        key = (RuleKind.PARAM, "I", "m", 0)
        loaded = []
        manager._rules[key] = _LoadOnFirstGet(
            manager._rules[key],
            lambda: loaded.append(manager.load_policy_file(TORN_READ_POLICY)),
        )
        during = manager.resolve(arg_ctx())
        assert len(loaded) == 1
        after = manager.resolve(arg_ctx())
        assert (after.kind, after.level) == (VAL, 1)
        assert during in (before, after)

    def test_writers_leave_a_published_table_unchanged(self, manager):
        rule_id = manager.set_class_policy("Base", VAL, True)
        table = manager._rules
        frozen = {key: dict(slot) for key, slot in table.items()}
        manager.set_class_policy("Base", REF, False)
        manager.load_policy_file(TORN_READ_POLICY)
        assert manager.remove_rule(rule_id)
        assert table == frozen
        assert manager.get_class_policy("Base")[0].policy is REF

    def test_concurrent_writers_lose_no_rule(self, manager):
        barrier = threading.Barrier(4)

        def write(t):
            barrier.wait()
            for i in range(100):
                manager.set_class_policy(f"T{t}.{i}", VAL, True)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=write, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(manager.all_rules()) == 400


class TestScopedParamRule:
    def test_scope_installs_and_restores(self, manager):
        outer = manager.set_param_policy("I", "m", 1, VAL, 1, False)
        with manager.scoped_param_policy("I", "m", 1, REF, UNBOUNDED, False):
            assert manager.resolve(arg_ctx(index=1)).kind is REF
        after = manager.get_param_policy("I", "m", 1)
        assert [r.rule_id for r in after] == [outer]
        assert manager.resolve(arg_ctx(index=1)).kind is VAL

    def test_scope_with_empty_slot(self, manager):
        with manager.scoped_param_policy("I", "m", 1, REF, UNBOUNDED, False):
            assert manager.resolve(arg_ctx(index=1)).kind is REF
        assert manager.get_param_policy("I", "m", 1) == []

    def test_overlays_isolated_between_threads(self, manager):
        wrong: list[tuple] = []
        barrier = threading.Barrier(2)

        def loop(kind):
            barrier.wait()
            for _ in range(500):
                with manager.scoped_param_policy("I", "m", 1, kind, UNBOUNDED, False):
                    got = manager.resolve(arg_ctx(index=1)).kind
                    if got is not kind:
                        wrong.append((kind, got))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=loop, args=(k,)) for k in (VAL, REF)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert manager.get_param_policy("I", "m", 1) == []
        assert manager.all_rules() == []


GOLDEN_DOC = Path(__file__).parent / "data" / "policy_v1.xml"


def install_golden_rules(manager):
    """Every rule kind, both overridabilities, both policies, a numeric depth,
    and ``subclasses`` both true and false."""
    manager.set_class_policy("Key", VAL, True, apply_to_subtypes=True)
    manager.set_class_policy("Base", REF, False)
    manager.set_method_policy("I", "m", VAL, 3, False)
    manager.set_method_policy("I", "m", REF, UNBOUNDED, True)
    manager.set_return_value_policy("I", "getLog", VAL, True)
    manager.set_return_value_policy("I", "getLog", REF, False)
    manager.set_param_policy("I", "m", 0, VAL, UNBOUNDED, True)
    manager.set_param_policy("I", "m", 1, REF, 2, False)
    manager.set_param_policy("I", "m", 1, VAL, 5, True)
    manager.set_field_to_be_cached("I", "key")
    manager.set_field_to_be_cached("Key", "value")


FIG9_DOC = """<?xml version="1.0" encoding="UTF-8"?>
<policies>
  <class name="Key" policy="BY_VALUE" overridable="true" subclasses="true"/>
</policies>
"""


class TestPolicyFile:
    def test_class_element_equivalent_to_call(self, manager):
        ids = manager.load_policy_file(FIG9_DOC)
        assert len(ids) == 1
        twin = TransmissionPolicyManager(types=_registry())
        twin.set_class_policy("Key", VAL, overridable=True, apply_to_subtypes=True)
        ctx = arg_ctx(actual="Key")

        # "Key" is not registered; an unregistered name is its own chain.
        def check(mgr):
            got = mgr.resolve(
                CallContext(
                    role=CallRole.ARGUMENT,
                    declared_type_name="I",
                    method_name="m",
                    actual_type_name="Key",
                    peer_kind=PeerKind.RRT,
                    param_index=0,
                )
            )
            return got.kind, got.level

        assert check(manager) == check(twin) == (VAL, 6)

    def test_empty_document(self, manager):
        assert manager.load_policy_file("<policies/>") == []
        assert manager.all_rules() == []

    def test_save_load_save_fixpoint(self, manager):
        manager.set_class_policy("Key", VAL, True, True)
        manager.set_method_policy("I", "m", REF, UNBOUNDED, False)
        manager.set_param_policy("I", "m", 0, VAL, 3, True)
        manager.set_return_value_policy("I", "getLog", VAL, True)
        manager.set_field_to_be_cached("I", "key")
        first = manager.save_policy_file()
        twin = TransmissionPolicyManager(types=_registry())
        twin.load_policy_file(first)
        second = twin.save_policy_file()
        assert first == second

    def test_golden_document(self, manager):
        install_golden_rules(manager)
        saved = manager.save_policy_file()
        assert saved.encode("utf-8") == GOLDEN_DOC.read_bytes()
        twin = TransmissionPolicyManager(types=_registry())
        twin.load_policy_file(saved)
        assert twin.save_policy_file() == saved

        def unnumbered(m):
            return [dataclasses.replace(r, rule_id=0) for r in m.all_rules()]

        assert unnumbered(twin) == unnumbered(manager)

    def test_all_rule_kinds_round_trip(self, manager):
        manager.set_method_policy("I", "m", VAL, 7, False)
        doc = manager.save_policy_file()
        twin = TransmissionPolicyManager()
        twin.load_policy_file(doc)
        rule = twin.get_method_policy("I", "m")[0]
        assert rule.depth == 7 and rule.policy is VAL

    @pytest.mark.parametrize(
        "doc,fragment",
        [
            ("<rules/>", "policies"),
            ("<policies><clazz name='x'/></policies>", "element 1"),
            ("<policies><class name='x' policy='BY_VALUE'/></policies>", "overridable"),
            (
                "<policies><class name='x' policy='SOMETIMES' overridable='true'/></policies>",
                "SOMETIMES",
            ),
            (
                "<policies><method class='x' name='m' policy='BY_VALUE' depth='zero'"
                " overridable='true'/></policies>",
                "depth",
            ),
            (
                "<policies><param class='x' method='m' index='0' policy='BY_VALUE'"
                " depth='1' overridable='maybe'/></policies>",
                "maybe",
            ),
            (
                "<policies><class name='x' policy='BY_VALUE' overridable='true'"
                " bogus='1'/></policies>",
                "bogus",
            ),
            ("<policies", "malformed"),
            (
                "<policies><method class='I' name='m' policy='BY_VALUE' depth='0'"
                " overridable='true'/></policies>",
                "^element 1 <method>: depth must be positive: 0$",
            ),
            (
                "<policies><class name='' policy='BY_VALUE' overridable='true'/></policies>",
                "^element 1 <class>: rule requires a type name$",
            ),
            (
                "<policies><method class='I' name='' policy='BY_VALUE' depth='1'"
                " overridable='true'/></policies>",
                "^element 1 <method>: method rule requires a method name$",
            ),
            (
                "<policies><param class='' method='' index='-1' policy='BY_VALUE'"
                " depth='1' overridable='true'/></policies>",
                "^element 1 <param>: parameter index must be >= 0$",
            ),
            (
                "<policies><param class='I' method='m' index='q' policy='NOPE' depth='x'"
                " overridable='maybe'/></policies>",
                "^element 1 <param>: bad index 'q'$",
            ),
            (
                "<policies><cache class='' field=''/></policies>",
                "^element 1 <cache>: cache rule requires a field name$",
            ),
            (
                "<policies><return class='I' method='getLog' policy='BY_VALUE' depth='1'"
                " overridable='true'/></policies>",
                r"^element 1 <return>: unknown attribute\(s\): depth$",
            ),
        ],
    )
    def test_schema_violations(self, manager, doc, fragment):
        with pytest.raises(PolicyFileError, match=fragment):
            manager.load_policy_file(doc)

    def test_bad_element_installs_nothing(self, manager):
        doc = (
            "<policies>"
            "<class name='Key' policy='BY_VALUE' overridable='true'/>"
            "<cache class='I' field='ghost'/>"
            "</policies>"
        )
        with pytest.raises(PolicyFileError, match="^element 2 <cache>: type I declares no field"):
            manager.load_policy_file(doc)
        assert manager.all_rules() == []

    def test_document_order_supersedes(self, manager):
        doc = (
            "<policies>"
            "<class name='Key' policy='BY_VALUE' overridable='true' subclasses='false'/>"
            "<class name='Key' policy='BY_REFERENCE' overridable='true' subclasses='false'/>"
            "</policies>"
        )
        manager.load_policy_file(doc)
        rules = manager.get_class_policy("Key")
        assert len(rules) == 1 and rules[0].policy is REF


class TestDescribeDecision:
    def test_class_rule_text(self, manager):
        manager.set_class_policy("Key", VAL, overridable=True)
        d = manager.resolve(arg_ctx(actual="Key"))
        assert describe_decision(d, CallRole.ARGUMENT) == "BY_VALUE via class rule, level 6"

    def test_default_text(self, manager):
        d = manager.resolve(arg_ctx())
        assert describe_decision(d, CallRole.ARGUMENT) == (
            "BY_REFERENCE via default policy, level default"
        )

    def test_return_rule_text(self, manager):
        manager.set_return_value_policy("I", "getLog", VAL, False)
        d = manager.resolve(ret_ctx(method="getLog"))
        assert describe_decision(d, CallRole.RETURN_VALUE) == (
            "BY_VALUE via return rule, level 2"
        )


# -- decisions kept per published table ------------------------------------------


def _memo_registry() -> TypeRegistry:
    """"I" declares m and n with two parameters each; "J" and "Late" are
    left unregistered, and "Late" (a "Base") may register mid-run."""
    types = TypeRegistry()
    types.register_type(TypeDescriptor("Base"))
    types.register_type(TypeDescriptor("Derived", supertype_name="Base"))
    types.register_type(
        TypeDescriptor(
            "I",
            methods=(
                MethodDescriptor("m", ("Base", "Base"), "Base"),
                MethodDescriptor("n", ("Base", "Base"), "Base"),
            ),
            is_interface=True,
        )
    )
    return types


_DECLARED = ("I", "J")
_METHODS = ("m", "n")
_INDEXES = (None, 0, 1)
_ACTUALS = ("Derived", "Base", "Late", "Key", "i64", "list")
_PEERS = ("rrt", "plain")
_RULE_TYPES = ("Base", "Derived", "Late", "Key")


def _fresh(manager, declared, method, index, actual, peer, rules=None):
    """The decision ``resolve`` makes for the position, with no kept decision."""
    role = CallRole.RETURN_VALUE if index is None else CallRole.ARGUMENT
    context = CallContext(role, declared, method, actual, PeerKind(peer), index)
    return manager.resolve(context, rules)


def _positions():
    return itertools.product(_DECLARED, _METHODS, _INDEXES, _ACTUALS, _PEERS)


def _assert_kept_equal_fresh(manager):
    for position in _positions():
        assert manager.decide(*position) == _fresh(manager, *position), position


_policy = st.sampled_from((VAL, REF))
_flag = st.booleans()
_rule_op = st.one_of(
    st.tuples(st.just("class"), st.sampled_from(_RULE_TYPES), _policy, _flag, _flag),
    st.tuples(st.just("method"), st.sampled_from(_DECLARED), st.sampled_from(_METHODS),
              _policy, _flag),
    st.tuples(st.just("return"), st.sampled_from(_DECLARED), st.sampled_from(_METHODS),
              _policy, _flag),
    st.tuples(st.just("param"), st.sampled_from(_DECLARED), st.sampled_from(_METHODS),
              st.sampled_from((0, 1)), _policy, _flag),
)
_op = st.one_of(
    _rule_op,
    st.tuples(st.just("load"), st.lists(_rule_op, min_size=1, max_size=3)),
    st.tuples(st.just("remove"), st.integers(0, 50)),
    st.tuples(st.just("register_late")),
    st.tuples(st.just("overlay"), st.sampled_from(_DECLARED), st.sampled_from(_METHODS),
              st.sampled_from((0, 1)), _policy, _flag),
)


def _rule_xml(op) -> str:
    kind, *rest = op
    if kind == "class":
        name, policy, overridable, subtypes = rest
        return (f'<class name="{name}" policy="{policy.value}" '
                f'overridable="{_bool_text(overridable)}" subclasses="{_bool_text(subtypes)}"/>')
    if kind == "param":
        declared, method, index, policy, overridable = rest
        return (f'<param class="{declared}" method="{method}" index="{index}" '
                f'policy="{policy.value}" depth="2" overridable="{_bool_text(overridable)}"/>')
    declared, method, policy, overridable = rest
    if kind == "method":
        return (f'<method class="{declared}" name="{method}" policy="{policy.value}" '
                f'depth="3" overridable="{_bool_text(overridable)}"/>')
    return (f'<return class="{declared}" method="{method}" policy="{policy.value}" '
            f'overridable="{_bool_text(overridable)}"/>')


def _bool_text(flag: bool) -> str:
    return "true" if flag else "false"


def _apply_rule(manager, op) -> int:
    kind, *rest = op
    if kind == "class":
        name, policy, overridable, subtypes = rest
        return manager.set_class_policy(name, policy, overridable, subtypes)
    if kind == "param":
        declared, method, index, policy, overridable = rest
        return manager.set_param_policy(declared, method, index, policy, 2, overridable)
    declared, method, policy, overridable = rest
    if kind == "method":
        return manager.set_method_policy(declared, method, policy, 3, overridable)
    return manager.set_return_value_policy(declared, method, policy, overridable)


class TestKeptDecisions:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.lists(_op, max_size=8))
    def test_kept_decisions_match_fresh_resolution(self, ops):
        """Under rule changes, policy files, removals, overlays, both peer
        kinds and a type registered after its first decision, every decision
        ``decide`` answers equals the one ``resolve`` makes afresh."""
        types = _memo_registry()
        manager = TransmissionPolicyManager(types=types)
        rule_ids: list[int] = []
        _assert_kept_equal_fresh(manager)
        for op in ops:
            kind = op[0]
            if kind == "load":
                body = "".join(_rule_xml(rule) for rule in op[1])
                rule_ids += manager.load_policy_file(f"<policies>{body}</policies>")
            elif kind == "remove":
                if rule_ids:
                    manager.remove_rule(rule_ids.pop(op[1] % len(rule_ids)))
            elif kind == "register_late":
                if types.lookup("Late") is None:
                    types.register_type(TypeDescriptor("Late", supertype_name="Base"))
            elif kind == "overlay":
                _, declared, method, index, policy, overridable = op
                with manager.scoped_param_policy(
                    declared, method, index, policy, 2, overridable
                ):
                    _assert_kept_equal_fresh(manager)
            else:
                rule_ids.append(_apply_rule(manager, op))
            _assert_kept_equal_fresh(manager)

    def test_only_registered_names_are_kept(self, manager):
        manager.set_class_policy("Base", VAL, True, True)
        assert manager.decide("I", "m", 0, "Late", "rrt").kind is REF
        assert manager.decide("J", "m", 0, "Derived", "rrt").kind is VAL
        assert manager.decide("I", "m", 0, "Derived", "rrt").kind is VAL
        assert list(manager._memo[1]) == [("I", "m", 0, "Derived", "rrt")]
        # "Late" registers after its first decision: its chain now holds Base.
        manager._types.register_type(TypeDescriptor("Late", supertype_name="Base"))
        assert manager.decide("I", "m", 0, "Late", "rrt").kind is VAL

    def test_an_overlaid_slot_resolves_afresh_and_keeps_nothing(self, manager):
        manager.decide("I", "m", 0, "Derived", "rrt")
        kept = dict(manager._memo[1])
        with manager.scoped_param_policy("I", "m", 1, VAL, 1, False):
            assert manager.decide("I", "m", 1, "Derived", "rrt").kind is VAL
            assert manager.decide("I", "m", 0, "Derived", "rrt").kind is REF
        assert manager._memo[1] == kept
        assert manager.decide("I", "m", 1, "Derived", "rrt").kind is REF

    def test_threads_changing_rules_decide_by_the_table_before_or_after(self):
        """Four threads change rules while they decide. Each decision equals
        ``resolve`` under a table published while it was made: the one before
        a change or the one after it."""
        published: list[dict] = []

        class Recording(TransmissionPolicyManager):
            @property
            def _rules(self):
                return self.__dict__["_published"]

            @_rules.setter
            def _rules(self, table):  # writers publish under the manager's lock
                self.__dict__["_published"] = table
                published.append(table)

        manager = Recording(types=_memo_registry())
        positions = list(_positions())
        seen: list[tuple] = []  # (position, decision, first and last table index)
        barrier = threading.Barrier(4)

        def run(t: int) -> None:
            rnd = random.Random(t)
            barrier.wait()
            for i in range(150):
                if i % 5 == t % 5:
                    policy = rnd.choice((VAL, REF))
                    if t % 2:
                        manager.set_class_policy(rnd.choice(_RULE_TYPES), policy, True, True)
                    else:
                        manager.set_param_policy("I", "m", rnd.choice((0, 1)), policy, 2, False)
                position = rnd.choice(positions)
                first = len(published) - 1
                decision = manager.decide(*position)
                seen.append((position, decision, first, len(published)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(published) > 100
        for position, decision, first, last in seen:
            allowed = [_fresh(manager, *position, table) for table in published[first:last + 1]]
            assert decision in allowed, position
