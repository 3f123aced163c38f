"""Transmission-policy manager: five rule stores and 7-level precedence resolution.

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
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator
from xml.etree import ElementTree as ET

from .errors import PolicyFileError, PolicyRuleError
from .model import (
    DEFAULT_RULE,
    Depth,
    NULL_TYPE,
    PRIMITIVE_TYPES,
    PolicyKind,
    TransmissionDecision,
    TypeDescriptor,
    UNBOUNDED,
    by_reference,
    by_value,
    supertype_chain,
)


class RuleKind(Enum):
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


class RuleStore:
    """One associative store: deterministic key -> live rules by overridability.

    Within one key at most one overridable and one non-overridable rule are
    live; a newer rule replaces the older one of the same overridability.
    """

    def __init__(self):
        self._slots: dict[str, dict[bool, PolicyRule]] = {}
        self.probes = 0

    def get(self, key: str) -> dict[bool, PolicyRule]:
        self.probes += 1
        return self._slots.get(key, {})

    def put(self, key: str, rule: PolicyRule) -> PolicyRule | None:
        slot = self._slots.setdefault(key, {})
        displaced = slot.get(rule.overridable)
        slot[rule.overridable] = rule
        return displaced

    def remove_id(self, rule_id: int) -> bool:
        for slot in self._slots.values():
            for ov, rule in list(slot.items()):
                if rule.rule_id == rule_id:
                    del slot[ov]
                    return True
        return False

    def live_rules(self) -> list[PolicyRule]:
        return [r for slot in self._slots.values() for r in slot.values()]


def method_key(type_name: str, method_name: str) -> str:
    return f"{type_name}#{method_name}"


def param_key(type_name: str, method_name: str, index: int) -> str:
    return f"{type_name}#{method_name}#{index}"


TypeLookup = Callable[[str], TypeDescriptor | None]

_ALWAYS_BY_VALUE = PRIMITIVE_TYPES | {NULL_TYPE}

# Per-call parameter overlays of the current thread or task:
# (manager, param_key) -> {overridable: rule}. Never mutated in place.
_PARAM_OVERLAY: ContextVar[dict | None] = ContextVar("rrt_param_overlay", default=None)


class TransmissionPolicyManager:
    """Rule setting, inspection, persistence, and per-value resolution.

    ``type_lookup`` (optional) lets the manager validate rules eagerly against
    registered types and walk supertype chains during class-rule matching.
    Resolution readers observe a consistent snapshot of all five stores;
    setting a rule takes the same exclusive lock.
    """

    def __init__(self, type_lookup: TypeLookup | None = None):
        self._type_lookup = type_lookup
        self._class_rules = RuleStore()
        self._method_rules = RuleStore()
        self._return_rules = RuleStore()
        self._param_rules = RuleStore()
        self._cache_rules: dict[str, dict[str, PolicyRule]] = {}
        self._cache_probes = 0
        self._next_id = 0
        self._lock = threading.RLock()
        #: When set, resolve() returns this decision without consulting rules.
        #: Benchmark hook: models a call path with the policy phase disabled.
        self.fixed_decision: TransmissionDecision | None = None

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
            depth=UNBOUNDED if policy is PolicyKind.BY_VALUE else None,
            overridable=overridable,
            apply_to_subtypes=apply_to_subtypes,
        )
        with self._lock:
            self._class_rules.put(type_name, rule)
        return rule.rule_id

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
            depth=self._check_depth(policy, depth),
            overridable=overridable,
        )
        with self._lock:
            self._method_rules.put(method_key(type_name, method_name), rule)
        return rule.rule_id

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
            depth=UNBOUNDED if policy is PolicyKind.BY_VALUE else None,
            overridable=overridable,
        )
        with self._lock:
            self._return_rules.put(method_key(type_name, method_name), rule)
        return rule.rule_id

    def set_param_policy(
        self,
        type_name: str,
        method_name: str,
        param_index: int,
        policy: PolicyKind,
        depth: Depth,
        overridable: bool,
    ) -> int:
        rule = self._param_rule(
            type_name, method_name, param_index, policy, depth, overridable
        )
        with self._lock:
            self._param_rules.put(param_key(type_name, method_name, param_index), rule)
        return rule.rule_id

    def _param_rule(
        self,
        type_name: str,
        method_name: str,
        param_index: int,
        policy: PolicyKind,
        depth: Depth,
        overridable: bool,
    ) -> PolicyRule:
        if param_index < 0:
            raise PolicyRuleError("parameter index must be >= 0")
        self._check_param_index(type_name, method_name, param_index)
        return self._new_rule(
            RuleKind.PARAM,
            type_name,
            method_name=method_name,
            param_index=param_index,
            policy=policy,
            depth=self._check_depth(policy, depth),
            overridable=overridable,
        )

    def set_field_to_be_cached(self, type_name: str, field_name: str) -> int:
        if not field_name:
            raise PolicyRuleError("cache rule requires a field name")
        if self._type_lookup is not None:
            desc = self._type_lookup(type_name)
            if desc is not None and desc.field(field_name) is None:
                raise PolicyRuleError(
                    f"type {type_name} declares no field {field_name!r}"
                )
        rule = self._new_rule(RuleKind.CACHE_FIELD, type_name, field_name=field_name)
        with self._lock:
            self._cache_rules.setdefault(type_name, {})[field_name] = rule
        return rule.rule_id

    def _new_rule(self, kind: RuleKind, type_name: str, **kw) -> PolicyRule:
        if not type_name:
            raise PolicyRuleError("rule requires a type name")
        if kind in (RuleKind.METHOD, RuleKind.RETURN, RuleKind.PARAM) and not kw.get(
            "method_name"
        ):
            raise PolicyRuleError(f"{kind.value} rule requires a method name")
        with self._lock:
            self._next_id += 1
            return PolicyRule(rule_id=self._next_id, kind=kind, type_name=type_name, **kw)

    @staticmethod
    def _check_depth(policy: PolicyKind, depth: Depth) -> Depth | None:
        if policy is PolicyKind.BY_REFERENCE:
            return None
        if depth is UNBOUNDED:
            return UNBOUNDED
        if not isinstance(depth, int) or isinstance(depth, bool) or depth < 1:
            raise PolicyRuleError(f"by-value depth must be positive or UNBOUNDED: {depth!r}")
        return depth

    def _check_param_index(self, type_name: str, method_name: str, index: int) -> None:
        if self._type_lookup is None:
            return
        desc = self._type_lookup(type_name)
        if desc is None:
            return
        methods = [m for m in desc.methods if m.name == method_name]
        if methods and all(index >= m.arity for m in methods):
            raise PolicyRuleError(
                f"{type_name}.{method_name}: no parameter {index}"
            )

    # -- rule inspection -----------------------------------------------------

    def get_class_policy(self, type_name: str) -> list[PolicyRule]:
        with self._lock:
            return _slot_rules(self._class_rules, type_name)

    def get_method_policy(self, type_name: str, method_name: str) -> list[PolicyRule]:
        with self._lock:
            return _slot_rules(self._method_rules, method_key(type_name, method_name))

    def get_return_value_policy(self, type_name: str, method_name: str) -> list[PolicyRule]:
        with self._lock:
            return _slot_rules(self._return_rules, method_key(type_name, method_name))

    def get_param_policy(
        self, type_name: str, method_name: str, param_index: int
    ) -> list[PolicyRule]:
        with self._lock:
            return _slot_rules(
                self._param_rules, param_key(type_name, method_name, param_index)
            )

    def get_cached_fields(self, type_name: str) -> set[str]:
        with self._lock:
            self._cache_probes += 1
            return set(self._cache_rules.get(type_name, ()))

    def cached_fields_for(self, type_names) -> set[str]:
        """Union of cache-rule field names over several type names."""
        out: set[str] = set()
        for name in type_names:
            out |= self.get_cached_fields(name)
        return out

    def all_rules(self) -> list[PolicyRule]:
        with self._lock:
            rules = (
                self._class_rules.live_rules()
                + self._method_rules.live_rules()
                + self._return_rules.live_rules()
                + self._param_rules.live_rules()
                + [r for per in self._cache_rules.values() for r in per.values()]
            )
            return sorted(rules, key=lambda r: r.rule_id)

    @property
    def probe_count(self) -> int:
        return (
            self._class_rules.probes
            + self._method_rules.probes
            + self._return_rules.probes
            + self._param_rules.probes
            + self._cache_probes
        )

    def rule_by_id(self, rule_id: int) -> PolicyRule | None:
        for r in self.all_rules():
            if r.rule_id == rule_id:
                return r
        return None

    def remove_rule(self, rule_id: int) -> bool:
        with self._lock:
            for store in (
                self._param_rules,
                self._method_rules,
                self._return_rules,
                self._class_rules,
            ):
                if store.remove_id(rule_id):
                    return True
            for per in self._cache_rules.values():
                for fname, rule in list(per.items()):
                    if rule.rule_id == rule_id:
                        del per[fname]
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
        rule stores are never touched.
        """
        rule = self._param_rule(
            type_name, method_name, param_index, policy, depth, overridable
        )
        slot = (self, param_key(type_name, method_name, param_index))
        overlays = dict(_PARAM_OVERLAY.get() or {})
        overlays[slot] = {**overlays.get(slot, {}), overridable: rule}
        token = _PARAM_OVERLAY.set(overlays)
        try:
            yield rule.rule_id
        finally:
            _PARAM_OVERLAY.reset(token)

    # -- resolution ------------------------------------------------------------

    def resolve(self, context: CallContext) -> TransmissionDecision:
        """Decide how one value crosses the wire. Total: always returns a decision."""
        with self._lock:
            if self.fixed_decision is not None:
                return self.fixed_decision
            if context.actual_type_name in _ALWAYS_BY_VALUE:
                return by_value(UNBOUNDED)

            candidates: list[tuple[int, PolicyRule]] = []
            if context.role is CallRole.ARGUMENT:
                key = param_key(
                    context.declared_type_name,
                    context.method_name,
                    context.param_index,
                )
                slot = self._param_rules.get(key)
                overlays = _PARAM_OVERLAY.get()
                if overlays and (self, key) in overlays:
                    slot = {**slot, **overlays[self, key]}
                _collect(candidates, slot, level_nonov=1, level_ov=4)
                slot = self._method_rules.get(
                    method_key(context.declared_type_name, context.method_name)
                )
                _collect(candidates, slot, level_nonov=2, level_ov=5)
            else:
                slot = self._return_rules.get(
                    method_key(context.declared_type_name, context.method_name)
                )
                _collect(candidates, slot, level_nonov=2, level_ov=5)
            self._collect_class(candidates, context.actual_type_name)

            if not candidates:
                if context.peer_kind is PeerKind.RRT:
                    return by_reference()
                return by_value(UNBOUNDED)
            level, rule = min(candidates, key=lambda c: c[0])
            return _decision_from(rule, level)

    def _collect_class(
        self, candidates: list[tuple[int, PolicyRule]], actual_type_name: str
    ) -> None:
        # Walk the actual type's chain, most-derived first; the first match
        # per overridability tier wins. One probe per chain entry.
        found: dict[bool, PolicyRule] = {}
        for pos, tname in enumerate(self._chain(actual_type_name)):
            slot = self._class_rules.get(tname)
            for ov, rule in slot.items():
                if ov in found:
                    continue
                if pos == 0 or rule.apply_to_subtypes:
                    found[ov] = rule
            if len(found) == 2:
                break
        if False in found:
            candidates.append((3, found[False]))
        if True in found:
            candidates.append((6, found[True]))

    def _chain(self, type_name: str) -> list[str]:
        if self._type_lookup is None:
            return [type_name]
        desc = self._type_lookup(type_name)
        if desc is None:
            return [type_name]
        view = _LookupView(self._type_lookup)
        return supertype_chain(desc, view, strict=False)

    # -- persistence -----------------------------------------------------------

    def save_policy_file(self) -> str:
        """Render the live rule set as a policy document (stable rule order)."""
        root = ET.Element("policies")
        for rule in self.all_rules():
            _rule_to_element(root, rule)
        ET.indent(root)
        return '<?xml version="1.0" encoding="UTF-8"?>\n' + ET.tostring(
            root, encoding="unicode"
        ) + "\n"

    def load_policy_file(self, document: str) -> list[int]:
        """Install rules from a policy document, in document order."""
        try:
            root = ET.fromstring(document)
        except ET.ParseError as exc:
            raise PolicyFileError(f"malformed policy XML: {exc}") from exc
        if root.tag != "policies":
            raise PolicyFileError(f"root element must be <policies>, got <{root.tag}>")
        ids: list[int] = []
        for pos, elem in enumerate(root, start=1):
            where = f"element {pos} <{elem.tag}>"
            try:
                ids.append(self._load_element(elem))
            except PolicyRuleError as exc:
                raise PolicyFileError(f"{where}: {exc}") from exc
            except PolicyFileError as exc:
                raise PolicyFileError(f"{where}: {exc}") from exc
        return ids

    def _load_element(self, elem: ET.Element) -> int:
        tag = elem.tag
        if tag == "class":
            attrs = _attrs(elem, {"name", "policy", "overridable"}, {"subclasses"})
            return self.set_class_policy(
                attrs["name"],
                _parse_policy(attrs["policy"]),
                _parse_bool(attrs["overridable"]),
                _parse_bool(attrs.get("subclasses", "false")),
            )
        if tag == "method":
            attrs = _attrs(elem, {"class", "name", "policy", "depth", "overridable"})
            return self.set_method_policy(
                attrs["class"],
                attrs["name"],
                _parse_policy(attrs["policy"]),
                _parse_depth(attrs["depth"]),
                _parse_bool(attrs["overridable"]),
            )
        if tag == "return":
            attrs = _attrs(elem, {"class", "method", "policy", "overridable"})
            return self.set_return_value_policy(
                attrs["class"],
                attrs["method"],
                _parse_policy(attrs["policy"]),
                _parse_bool(attrs["overridable"]),
            )
        if tag == "param":
            attrs = _attrs(elem, {"class", "method", "index", "policy", "depth", "overridable"})
            try:
                index = int(attrs["index"])
            except ValueError:
                raise PolicyFileError(f"bad index {attrs['index']!r}") from None
            return self.set_param_policy(
                attrs["class"],
                attrs["method"],
                index,
                _parse_policy(attrs["policy"]),
                _parse_depth(attrs["depth"]),
                _parse_bool(attrs["overridable"]),
            )
        if tag == "cache":
            attrs = _attrs(elem, {"class", "field"})
            return self.set_field_to_be_cached(attrs["class"], attrs["field"])
        raise PolicyFileError(f"unknown rule element <{tag}>")


class _LookupView:
    """Mapping facade over a type-lookup callable, for supertype walking."""

    def __init__(self, lookup: TypeLookup):
        self._lookup = lookup

    def get(self, name: str) -> TypeDescriptor | None:
        return self._lookup(name)


def _slot_rules(store: RuleStore, key: str) -> list[PolicyRule]:
    return sorted(store.get(key).values(), key=lambda r: r.rule_id)


def _collect(
    candidates: list[tuple[int, PolicyRule]],
    slot: dict[bool, PolicyRule],
    *,
    level_nonov: int,
    level_ov: int,
) -> None:
    if False in slot:
        candidates.append((level_nonov, slot[False]))
    if True in slot:
        candidates.append((level_ov, slot[True]))


def _decision_from(rule: PolicyRule, level: int) -> TransmissionDecision:
    if rule.policy is PolicyKind.BY_VALUE:
        depth = rule.depth if rule.depth is not None else UNBOUNDED
        return by_value(depth, rule.rule_id, level)
    return by_reference(rule.rule_id, level)


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


def _attrs(
    elem: ET.Element, required: set[str], optional: set[str] = frozenset()
) -> dict[str, str]:
    present = set(elem.attrib)
    missing = required - present
    if missing:
        raise PolicyFileError(f"missing attribute(s): {', '.join(sorted(missing))}")
    unknown = present - required - optional
    if unknown:
        raise PolicyFileError(f"unknown attribute(s): {', '.join(sorted(unknown))}")
    return dict(elem.attrib)


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
    try:
        value = int(text)
    except ValueError:
        raise PolicyFileError(f"bad depth {text!r}") from None
    if value < 1:
        raise PolicyFileError(f"depth must be positive: {value}")
    return value


def _rule_to_element(root: ET.Element, rule: PolicyRule) -> None:
    if rule.kind is RuleKind.CLASS:
        ET.SubElement(
            root,
            "class",
            name=rule.type_name,
            policy=rule.policy.value,
            overridable=_bool_text(rule.overridable),
            subclasses=_bool_text(rule.apply_to_subtypes),
        )
    elif rule.kind is RuleKind.METHOD:
        ET.SubElement(
            root,
            "method",
            {"class": rule.type_name},
            name=rule.method_name,
            policy=rule.policy.value,
            depth=_depth_text(rule),
            overridable=_bool_text(rule.overridable),
        )
    elif rule.kind is RuleKind.RETURN:
        ET.SubElement(
            root,
            "return",
            {"class": rule.type_name},
            method=rule.method_name,
            policy=rule.policy.value,
            overridable=_bool_text(rule.overridable),
        )
    elif rule.kind is RuleKind.PARAM:
        ET.SubElement(
            root,
            "param",
            {"class": rule.type_name},
            method=rule.method_name,
            index=str(rule.param_index),
            policy=rule.policy.value,
            depth=_depth_text(rule),
            overridable=_bool_text(rule.overridable),
        )
    elif rule.kind is RuleKind.CACHE_FIELD:
        ET.SubElement(root, "cache", {"class": rule.type_name}, field=rule.field_name)


def _bool_text(flag: bool) -> str:
    return "true" if flag else "false"


def _depth_text(rule: PolicyRule) -> str:
    # By-reference rules keep no depth; the file schema still wants the
    # attribute, so emit "unbounded" as the neutral placeholder.
    if rule.depth is None or rule.depth is UNBOUNDED:
        return "unbounded"
    return str(rule.depth)
