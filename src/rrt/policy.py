"""Transmission-policy manager: one rule table and 7-level precedence resolution.

Each transmitted value position (an argument or a return value) resolves to a
by-value or by-reference decision. Contention between rules is broken by a
fixed priority ladder, highest first:

    1 parameter rule (non-overridable)
    2 method / return rule (non-overridable)
    3 class rule (non-overridable)
    4 parameter rule (overridable)
    5 method / return rule (overridable)
    6 class rule (overridable)
    7 default: by-reference toward other runtime nodes, by-value toward
      plain web-service clients

Class rules match the actual class of the transmitted value, walking its
supertype chain when the rule opts into subtypes; method, return and
parameter rules key on the declared method's owning interface. Primitive
values always travel by value, whatever the rules say.

``resolve`` is the one decision function. Calls go through ``decide``,
which keeps each decision with the published rule table it was made under,
so a value position is resolved once per table. A position whose type
names are not registered, or whose parameter slot the calling thread has
overlaid (``scoped_param_policy``), is resolved afresh on every call.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator

from .errors import PolicyFileError, PolicyRuleError
from .model import (
    DEFAULT_RULE,
    Depth,
    NULL_TYPE,
    PRIMITIVE_TYPES,
    PolicyKind,
    TransmissionDecision,
    UNBOUNDED,
    by_reference,
    by_value,
)
from .registry import TypeRegistry


class RuleKind(Enum):
    """A rule kind; its value is the kind's policy-file element name."""

    CLASS = "class"
    METHOD = "method"
    RETURN = "return"
    PARAM = "param"
    CACHE_FIELD = "cache"


class PeerKind(Enum):
    RRT = "rrt"
    PLAIN_CLIENT = "plain"


class CallRole(Enum):
    ARGUMENT = "argument"
    RETURN_VALUE = "return"


@dataclass(frozen=True)
class PolicyRule:
    rule_id: int
    kind: RuleKind
    type_name: str
    method_name: str | None = None
    param_index: int | None = None
    policy: PolicyKind | None = None
    depth: Depth | None = None
    overridable: bool = True
    apply_to_subtypes: bool = False
    field_name: str | None = None

    @cached_property
    def decision(self) -> TransmissionDecision | None:
        """What this rule decides when it wins; its kind fixes its level.

        A cache rule decides nothing, so its decision is None.
        """
        if self.kind is RuleKind.CACHE_FIELD:
            return None
        level = _NONOV_LEVEL[self.kind] + (3 if self.overridable else 0)
        if self.policy is PolicyKind.BY_VALUE:
            depth = self.depth if self.depth is not None else UNBOUNDED
            return by_value(depth, self.rule_id, level)
        return by_reference(self.rule_id, level)


# Non-overridable precedence level per rule kind; overridable rules sit three
# levels lower, so every non-overridable rule outranks every overridable one.
_NONOV_LEVEL = {RuleKind.PARAM: 1, RuleKind.METHOD: 2, RuleKind.RETURN: 2, RuleKind.CLASS: 3}

# Per rule kind: its policy-file attributes in file order, each mapped to the
# PolicyRule field it holds, and the fields that follow the kind in its table key.
_SCHEMA = {
    RuleKind.CLASS: (
        {
            "name": "type_name",
            "policy": "policy",
            "overridable": "overridable",
            "subclasses": "apply_to_subtypes",
        },
        ("type_name",),
    ),
    RuleKind.METHOD: (
        {
            "class": "type_name",
            "name": "method_name",
            "policy": "policy",
            "depth": "depth",
            "overridable": "overridable",
        },
        ("type_name", "method_name"),
    ),
    RuleKind.RETURN: (
        {
            "class": "type_name",
            "method": "method_name",
            "policy": "policy",
            "overridable": "overridable",
        },
        ("type_name", "method_name"),
    ),
    RuleKind.PARAM: (
        {
            "class": "type_name",
            "method": "method_name",
            "index": "param_index",
            "policy": "policy",
            "depth": "depth",
            "overridable": "overridable",
        },
        ("type_name", "method_name", "param_index"),
    ),
    RuleKind.CACHE_FIELD: ({"class": "type_name", "field": "field_name"}, ("type_name",)),
}
#: Attributes a policy file may leave out, with the text they default to.
_OPTIONAL_ATTRS = {"subclasses": "false"}


def _key(rule: PolicyRule) -> tuple:
    """The rule's table key: ``(kind, type[, method[, index]])``."""
    return (rule.kind, *(getattr(rule, field) for field in _SCHEMA[rule.kind][1]))


@dataclass(frozen=True)
class CallContext:
    """One value position about to cross the wire.

    ``declared_type_name``/``method_name`` identify the method being called as
    declared on the deployment interface; ``actual_type_name`` is the runtime
    class of the value itself (or a primitive/"list"/"null" marker).
    """

    role: CallRole
    declared_type_name: str
    method_name: str
    actual_type_name: str
    peer_kind: PeerKind = PeerKind.RRT
    param_index: int | None = None

    def __post_init__(self):
        if self.role is CallRole.ARGUMENT:
            if self.param_index is None or self.param_index < 0:
                raise ValueError("argument context requires a parameter index")


_ALWAYS_BY_VALUE = PRIMITIVE_TYPES | {NULL_TYPE}
_BY_VALUE = by_value(UNBOUNDED)
_BY_REFERENCE = by_reference()
_EMPTY: dict = {}

# Per-call parameter overlays of the current thread or task:
# (manager, param rule key) -> {overridable: rule}. Never mutated in place.
_PARAM_OVERLAY: ContextVar[dict | None] = ContextVar("rrt_param_overlay", default=None)


class TransmissionPolicyManager:
    """Rule setting, inspection, persistence, and per-value resolution.

    All rules live in one table keyed ``(kind, type[, method[, index]])``.
    A slot holds the live rule per overridability: a newer rule replaces the
    older one of the same overridability. A cache-rule slot holds one rule
    per field instead. ``types`` (the node's registry) validates rules
    against registered types and gives the supertype chains that class rules
    match. A published table and its slots never change: a writer builds a
    new table under the lock and publishes it with one assignment. A reader
    takes no lock and sees each rule change, or each policy file, whole or
    not at all.
    """

    def __init__(self, types: TypeRegistry | None = None):
        self._types = types if types is not None else TypeRegistry()
        self._rules: dict[tuple, dict] = {}
        self._next_id = 0
        self._lock = threading.Lock()  # writers and the rule-id counter only
        # (published table, decisions made under it), replaced with the table.
        self._memo: tuple[dict, dict] = (self._rules, {})

    # -- rule installation ---------------------------------------------------

    def set_class_policy(
        self,
        type_name: str,
        policy: PolicyKind,
        overridable: bool,
        apply_to_subtypes: bool = False,
    ) -> int:
        rule = self._new_rule(
            RuleKind.CLASS,
            type_name,
            policy=policy,
            overridable=overridable,
            apply_to_subtypes=apply_to_subtypes,
        )
        return self._install(rule)[0]

    def set_method_policy(
        self,
        type_name: str,
        method_name: str,
        policy: PolicyKind,
        depth: Depth,
        overridable: bool,
    ) -> int:
        rule = self._new_rule(
            RuleKind.METHOD,
            type_name,
            method_name=method_name,
            policy=policy,
            depth=depth,
            overridable=overridable,
        )
        return self._install(rule)[0]

    def set_return_value_policy(
        self, type_name: str, method_name: str, policy: PolicyKind, overridable: bool
    ) -> int:
        # Return rules carry no depth parameter; by-value returns traverse
        # the whole closure.
        rule = self._new_rule(
            RuleKind.RETURN,
            type_name,
            method_name=method_name,
            policy=policy,
            overridable=overridable,
        )
        return self._install(rule)[0]

    def set_param_policy(
        self,
        type_name: str,
        method_name: str,
        param_index: int,
        policy: PolicyKind,
        depth: Depth,
        overridable: bool,
    ) -> int:
        rule = self._new_rule(
            RuleKind.PARAM,
            type_name,
            method_name=method_name,
            param_index=param_index,
            policy=policy,
            depth=depth,
            overridable=overridable,
        )
        return self._install(rule)[0]

    def set_field_to_be_cached(self, type_name: str, field_name: str) -> int:
        rule = self._new_rule(RuleKind.CACHE_FIELD, type_name, field_name=field_name)
        return self._install(rule)[0]

    def _install(self, *rules: PolicyRule) -> list[int]:
        """Publish a table with the rules in it; each replaces its slot's rule."""
        with self._lock:
            table = dict(self._rules)
            for rule in rules:
                key = _key(rule)
                slot = rule.field_name if rule.kind is RuleKind.CACHE_FIELD else rule.overridable
                table[key] = {**table.get(key, _EMPTY), slot: rule}
            self._rules = table
        return [rule.rule_id for rule in rules]

    def _new_rule(self, kind: RuleKind, type_name: str, **fields) -> PolicyRule:
        """Check and number one rule: kind-specific checks first, then the names."""
        rt = self._types.lookup(type_name)
        desc = rt.descriptor if rt is not None else None
        method_name = fields.get("method_name")
        if kind is RuleKind.PARAM:
            index = fields["param_index"]
            if index < 0:
                raise PolicyRuleError("parameter index must be >= 0")
            arities = [m.arity for m in desc.methods if m.name == method_name] if desc else []
            if arities and index >= max(arities):
                raise PolicyRuleError(f"{type_name}.{method_name}: no parameter {index}")
        if "policy" in fields:
            # A by-value rule of a kind that takes no depth is unbounded.
            depth = fields.get("depth", UNBOUNDED)
            if fields["policy"] is PolicyKind.BY_REFERENCE:
                depth = None
            elif depth is not UNBOUNDED and (
                not isinstance(depth, int) or isinstance(depth, bool) or depth < 1
            ):
                raise PolicyRuleError(f"by-value depth must be positive or UNBOUNDED: {depth!r}")
            fields["depth"] = depth
        if kind is RuleKind.CACHE_FIELD:
            field_name = fields["field_name"]
            if not field_name:
                raise PolicyRuleError("cache rule requires a field name")
            if desc is not None and desc.field(field_name) is None:
                raise PolicyRuleError(f"type {type_name} declares no field {field_name!r}")
        if not type_name:
            raise PolicyRuleError("rule requires a type name")
        if "method_name" in _SCHEMA[kind][1] and not method_name:
            raise PolicyRuleError(f"{kind.value} rule requires a method name")
        with self._lock:
            self._next_id += 1
            return PolicyRule(rule_id=self._next_id, kind=kind, type_name=type_name, **fields)

    # -- rule inspection -----------------------------------------------------

    def get_class_policy(self, type_name: str) -> list[PolicyRule]:
        return self._slot_rules((RuleKind.CLASS, type_name))

    def get_method_policy(self, type_name: str, method_name: str) -> list[PolicyRule]:
        return self._slot_rules((RuleKind.METHOD, type_name, method_name))

    def get_return_value_policy(self, type_name: str, method_name: str) -> list[PolicyRule]:
        return self._slot_rules((RuleKind.RETURN, type_name, method_name))

    def get_param_policy(
        self, type_name: str, method_name: str, param_index: int
    ) -> list[PolicyRule]:
        return self._slot_rules((RuleKind.PARAM, type_name, method_name, param_index))

    def _slot_rules(self, key: tuple) -> list[PolicyRule]:
        return sorted(self._rules.get(key, _EMPTY).values(), key=lambda r: r.rule_id)

    @property
    def rule_table(self) -> dict:
        """The published rule table. It is never changed in place, so a new
        object means that a rule changed."""
        return self._rules

    def cached_fields_for(self, type_names: Iterable[str]) -> set[str]:
        """Union of cache-rule field names over several type names."""
        rules = self._rules
        return {f for name in type_names for f in rules.get((RuleKind.CACHE_FIELD, name), _EMPTY)}

    def all_rules(self) -> list[PolicyRule]:
        rules = [r for slot in self._rules.values() for r in slot.values()]
        return sorted(rules, key=lambda r: r.rule_id)

    def remove_rule(self, rule_id: int) -> bool:
        with self._lock:
            for key, slot in self._rules.items():
                kept = {sid: rule for sid, rule in slot.items() if rule.rule_id != rule_id}
                if len(kept) < len(slot):
                    self._rules = {**self._rules, key: kept}
                    return True
        return False

    @contextmanager
    def scoped_param_policy(
        self,
        type_name: str,
        method_name: str,
        param_index: int,
        policy: PolicyKind,
        depth: Depth,
        overridable: bool,
    ) -> Iterator[int]:
        """Apply a parameter rule to the calls made inside the block.

        The rule lives in a context variable, so it applies only to this
        thread (or asyncio task) and this manager; it takes the place of the
        shared rule of the same overridability in that slot, and the shared
        rule table is never touched.
        """
        rule = self._new_rule(
            RuleKind.PARAM,
            type_name,
            method_name=method_name,
            param_index=param_index,
            policy=policy,
            depth=depth,
            overridable=overridable,
        )
        slot = (self, _key(rule))
        overlays = dict(_PARAM_OVERLAY.get() or {})
        overlays[slot] = {**overlays.get(slot, {}), overridable: rule}
        token = _PARAM_OVERLAY.set(overlays)
        try:
            yield rule.rule_id
        finally:
            _PARAM_OVERLAY.reset(token)

    # -- resolution ------------------------------------------------------------

    def decide(
        self,
        declared_type_name: str,
        method_name: str,
        param_index: int | None,
        actual_type_name: str,
        peer: str,
    ) -> TransmissionDecision:
        """``resolve`` of one value position, kept per published rule table.

        ``param_index`` is None for the return value, and ``peer`` is a
        ``PeerKind`` value. A decision is kept only when both type names are
        registered: a registered type's supertype chain never changes, and
        the registry bounds what is kept. A name not registered, and a thread
        with an overlay on this parameter slot, resolve afresh. Callers pass
        only methods and parameters that the declared interface has.
        """
        if actual_type_name in _ALWAYS_BY_VALUE:
            return _BY_VALUE
        rules = self._rules  # the table that decides, and the one it is kept for
        memo = self._memo
        if memo[0] is not rules:
            memo = self._memo = (rules, {})
        key = (declared_type_name, method_name, param_index, actual_type_name, peer)
        overlays = _PARAM_OVERLAY.get()
        overlaid = bool(overlays) and param_index is not None and (
            (self, (RuleKind.PARAM, declared_type_name, method_name, param_index)) in overlays
        )
        if not overlaid:
            decision = memo[1].get(key)
            if decision is not None:
                return decision
        role = CallRole.RETURN_VALUE if param_index is None else CallRole.ARGUMENT
        context = CallContext(
            role, declared_type_name, method_name, actual_type_name, PeerKind(peer), param_index
        )
        decision = self.resolve(context, rules)
        types = self._types
        if not overlaid and (
            types.lookup(declared_type_name) is not None
            and types.lookup(actual_type_name) is not None
        ):
            memo[1][key] = decision
        return decision

    def resolve(self, context: CallContext, rules: dict | None = None) -> TransmissionDecision:
        """Decide how one value crosses the wire under one rule table, the
        published one by default. Total: always returns a decision."""
        if context.actual_type_name in _ALWAYS_BY_VALUE:
            return _BY_VALUE
        declared, method = context.declared_type_name, context.method_name
        if rules is None:
            rules = self._rules  # one published table decides the whole value
        # One slot per tier, highest precedence first.
        if context.role is CallRole.ARGUMENT:
            key = (RuleKind.PARAM, declared, method, context.param_index)
            param = rules.get(key, _EMPTY)
            overlays = _PARAM_OVERLAY.get()
            if overlays and (self, key) in overlays:
                param = {**param, **overlays[self, key]}
            tiers = [param, rules.get((RuleKind.METHOD, declared, method), _EMPTY)]
        else:
            tiers = [rules.get((RuleKind.RETURN, declared, method), _EMPTY)]
        tiers.append(self._class_match(rules, context.actual_type_name))
        for overridable in (False, True):
            for slot in tiers:
                rule = slot.get(overridable)
                if rule is not None:
                    return rule.decision
        return _BY_REFERENCE if context.peer_kind is PeerKind.RRT else _BY_VALUE

    def _class_match(self, rules: dict, actual_type_name: str) -> dict[bool, PolicyRule]:
        # Walk the actual type's chain, most-derived first; the first match
        # per overridability tier wins. One table probe per chain entry.
        found: dict[bool, PolicyRule] = {}
        for pos, tname in enumerate(self._types.supertype_chain_of(actual_type_name)):
            for ov, rule in rules.get((RuleKind.CLASS, tname), _EMPTY).items():
                if ov not in found and (pos == 0 or rule.apply_to_subtypes):
                    found[ov] = rule
            if len(found) == 2:
                break
        return found

    # -- persistence -----------------------------------------------------------

    def save_policy_file(self) -> str:
        """Render the live rule set as a policy document (stable rule order)."""
        from xml.etree import ElementTree as ET  # on first use, as most nodes read no file

        root = ET.Element("policies")
        for rule in self.all_rules():
            attrs = _SCHEMA[rule.kind][0]
            text = {a: _TEXT.get(f, _PLAIN)[1](getattr(rule, f)) for a, f in attrs.items()}
            ET.SubElement(root, rule.kind.value, text)
        ET.indent(root)
        xml = ET.tostring(root, encoding="unicode")
        return f'<?xml version="1.0" encoding="UTF-8"?>\n{xml}\n'

    def load_policy_file(self, document: str) -> list[int]:
        """Install the rules of a policy document in document order: all, or
        none if any element is bad."""
        from xml.etree import ElementTree as ET  # on first use, as most nodes read no file

        try:
            root = ET.fromstring(document)
        except ET.ParseError as exc:
            raise PolicyFileError(f"malformed policy XML: {exc}") from exc
        if root.tag != "policies":
            raise PolicyFileError(f"root element must be <policies>, got <{root.tag}>")
        rules: list[PolicyRule] = []
        for pos, elem in enumerate(root, start=1):
            try:
                kind, fields = _rule_fields(elem)
                rules.append(self._new_rule(kind, **fields))
            except (PolicyRuleError, PolicyFileError) as exc:
                raise PolicyFileError(f"element {pos} <{elem.tag}>: {exc}") from exc
        return self._install(*rules)


_LEVEL_SOURCES = {1: "param rule", 4: "param rule", 3: "class rule", 6: "class rule"}


def describe_decision(decision: TransmissionDecision, role: CallRole) -> str:
    """Human-readable resolution summary, e.g. "BY_VALUE via class rule, level 6"."""
    if decision.winning_rule == DEFAULT_RULE:
        return f"{decision.kind.value} via default policy, level default"
    source = _LEVEL_SOURCES.get(
        decision.level,
        "return rule" if role is CallRole.RETURN_VALUE else "method rule",
    )
    return f"{decision.kind.value} via {source}, level {decision.level}"


def _rule_fields(elem) -> tuple[RuleKind, dict]:
    """An XML element's rule kind and its PolicyRule fields, parsed in file order."""
    try:
        kind = RuleKind(elem.tag)
    except ValueError:
        raise PolicyFileError(f"unknown rule element <{elem.tag}>") from None
    attrs = _SCHEMA[kind][0]
    missing = attrs.keys() - elem.attrib.keys() - _OPTIONAL_ATTRS.keys()
    if missing:
        raise PolicyFileError(f"missing attribute(s): {', '.join(sorted(missing))}")
    unknown = elem.attrib.keys() - attrs.keys()
    if unknown:
        raise PolicyFileError(f"unknown attribute(s): {', '.join(sorted(unknown))}")
    text = {**_OPTIONAL_ATTRS, **elem.attrib}
    return kind, {field: _TEXT.get(field, _PLAIN)[0](text[attr]) for attr, field in attrs.items()}


def _parse_policy(text: str) -> PolicyKind:
    try:
        return PolicyKind(text)
    except ValueError:
        raise PolicyFileError(f"bad policy {text!r}") from None


def _parse_bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise PolicyFileError(f"bad boolean {text!r}")


def _parse_depth(text: str) -> Depth:
    if text == "unbounded":
        return UNBOUNDED
    value = _parse_int(text, "depth")
    if value < 1:
        raise PolicyFileError(f"depth must be positive: {value}")
    return value


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise PolicyFileError(f"bad {what} {text!r}") from None


def _bool_text(flag: bool) -> str:
    return "true" if flag else "false"


def _depth_text(depth: Depth | None) -> str:
    # By-reference rules keep no depth; the file schema still wants the
    # attribute, so emit "unbounded" as the neutral placeholder.
    if depth is None or depth is UNBOUNDED:
        return "unbounded"
    return str(depth)


# PolicyRule field -> (parse attribute text, render value); names are plain strings.
_PLAIN = (str, str)
_TEXT = {
    "policy": (_parse_policy, lambda policy: policy.value),
    "depth": (_parse_depth, _depth_text),
    "overridable": (_parse_bool, _bool_text),
    "apply_to_subtypes": (_parse_bool, _bool_text),
    "param_index": (lambda text: _parse_int(text, "index"), str),
}
