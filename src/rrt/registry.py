"""Server-side deployment: type registration, the service map, and skeleton dispatch.

Method dispatch never probes live objects at call time: every invokable method
gets a binding callable at registration, and a skeleton dispatches through its
concrete type's table. Only interface-listed methods are remotely reachable,
independent of local visibility. What a call of an interface method needs
beyond its binding (its descriptor, its strict primitive checks, whether it
is a field accessor) is worked out at the method's first call and kept on
the interface as its ``CallPlan``; the client and the server both read it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from functools import cached_property
from json.encoder import encode_basestring
from typing import Callable, Sequence

from .codec import canonical_text, descriptor_to_doc
from .errors import (
    ApplicationFault,
    DeploymentError,
    GuidCollisionError,
    InvocationError,
    RegistryIntegrityError,
    ServiceNotFound,
    TypeRegistrationError,
    UnknownMethodError,
    UnregisteredTypeError,
)
from .model import (
    GUID,
    GuidSource,
    MethodDescriptor,
    PUBLIC,
    TypeDescriptor,
    VOID,
    guid_new,
)

# A binding applies one method to a live object: binding(obj, args) -> result.
Binding = Callable[[object, Sequence[object]], object]


class MethodTable:
    """Bindings from (method name, arity) to invokable callables."""

    def __init__(self, bindings: dict[tuple[str, int], Binding] | None = None):
        self.bindings: dict[tuple[str, int], Binding] = dict(bindings or {})

    def bind(self, name: str, arity: int, fn: Binding) -> None:
        self.bindings[(name, arity)] = fn

    def get(self, name: str, arity: int) -> Binding | None:
        return self.bindings.get((name, arity))

    @classmethod
    def for_class(cls, py_type: type, descriptor: TypeDescriptor) -> "MethodTable":
        """Build bindings once from the class's own callables, one per method."""
        table = cls()
        for m in descriptor.methods:
            target = getattr(py_type, m.name, None)
            if not callable(target):
                raise TypeRegistrationError(
                    f"{descriptor.type_name}: no callable for method {m.ident}"
                )
            table.bind(m.name, m.arity, _call_binding(target))
        return table


def _call_binding(target) -> Binding:
    def bound(obj, args):
        return target(obj, *args)

    return bound


def _field_get_binding(field_name: str) -> Binding:
    def bound(obj, args):
        return getattr(obj, field_name)

    return bound


def _field_set_binding(field_name: str) -> Binding:
    def bound(obj, args):
        setattr(obj, field_name, args[0])
        return None

    return bound


def synthesize_accessors(descriptor: TypeDescriptor) -> list[MethodDescriptor]:
    """Accessor methods the registry adds at registration time.

    For each field f this yields get_<f>() and, for mutable fields,
    set_<f>(value). A declared method that already has the accessor shape is
    treated as the accessor (synthesis is idempotent); a colliding method of
    a different shape pushes the accessor to get_<f>_field / set_<f>_field.
    """
    out: list[MethodDescriptor] = []
    for f in descriptor.fields:
        getter = MethodDescriptor(f"get_{f.name}", (), f.type_name)
        existing = descriptor.find_method(getter.name, 0)
        if existing is None:
            out.append(getter)
        elif existing.return_type != f.type_name:
            out.append(MethodDescriptor(f"{getter.name}_field", (), f.type_name))
        if not f.mutable:
            continue
        setter = MethodDescriptor(f"set_{f.name}", (f.type_name,), VOID)
        existing = descriptor.find_method(setter.name, 1)
        if existing is None:
            out.append(setter)
        elif existing.params != setter.params or existing.return_type != VOID:
            out.append(MethodDescriptor(f"{setter.name}_field", (f.type_name,), VOID))
    return out


def accessor_of(
    descriptor: TypeDescriptor, method: MethodDescriptor
) -> tuple[str, str] | None:
    """("get" | "set", field) when the method is an accessor of one of the
    descriptor's fields, else None.

    The name must be get_<f> or set_<f>, or the get_<f>_field / set_<f>_field
    fallback that ``synthesize_accessors`` uses on a collision, and the shape
    must fit the field: a getter takes nothing and returns the field's type,
    a setter takes the field's type and returns void.
    """
    op, _, rest = method.name.partition("_")
    if op == "get" and method.arity == 0:
        field_type = method.return_type
    elif op == "set" and method.arity == 1 and method.return_type == VOID:
        field_type = method.params[0]
    else:
        return None
    for fname in (rest, rest.removesuffix("_field")):
        f = descriptor.field(fname)
        if f is not None and f.type_name == field_type:
            return op, fname
    return None


@dataclass
class RegisteredType:
    """Everything the runtime knows about one application type."""

    descriptor: TypeDescriptor
    method_table: MethodTable | None
    #: The type's own name, then each supertype's up to the root; fixed at
    #: registration, since descriptors are immutable.
    lineage: tuple[str, ...]
    py_type: type | None = None
    factory: Callable[..., object] | None = None
    #: What a deploy without an interface exposes: the descriptor itself when
    #: every method is public, else one copy holding only the public methods.
    public_interface: TypeDescriptor = field(init=False)

    def __post_init__(self):
        methods = self.descriptor.methods
        public = tuple(m for m in methods if m.visibility == PUBLIC)
        self.public_interface = (
            self.descriptor if len(public) == len(methods)
            else replace(self.descriptor, methods=public)
        )

    @cached_property
    def descriptor_doc(self) -> dict:
        """The descriptor's wire document, built once per registered type."""
        return descriptor_to_doc(self.descriptor)

    @cached_property
    def descriptor_text(self) -> str:
        """``descriptor_doc``'s canonical JSON, built once per registered type."""
        return canonical_text(self.descriptor_doc)

    @cached_property
    def object_texts(self) -> tuple[str, tuple[tuple[str, str, str], ...]]:
        """The constant text of an inlined object of this type, built once:
        its head up to its id, and per field its name, the text written
        before its value (its key, after a comma from the second on) and
        its declared type."""
        desc = self.descriptor
        head = '{"k":"obj","class":%s,"id":' % encode_basestring(desc.type_name)
        fields = tuple(
            (f.name, ("," if i else "") + encode_basestring(f.name) + ":", f.type_name)
            for i, f in enumerate(desc.fields)
        )
        return head, fields


class TypeRegistry:
    """Name-keyed table of registered type descriptors and their bindings."""

    def __init__(self):
        self._types: dict[str, RegisteredType] = {}
        self._by_class: dict[type, RegisteredType] = {}
        self._lock = threading.RLock()

    def register_type(
        self,
        descriptor: TypeDescriptor,
        table: MethodTable | None = None,
        *,
        py_type: type | None = None,
        factory: Callable[..., object] | None = None,
    ) -> str:
        """Install a descriptor plus its bindings; returns the type id (its name).

        Accessor methods are synthesized from the field list and merged into
        both the descriptor and the table. Non-interface types must supply a
        binding for every declared method; interface types have no class.
        """
        with self._lock:
            name = descriptor.type_name
            if name in self._types:
                raise TypeRegistrationError(f"type name already registered: {name}")
            if descriptor.is_interface and py_type is not None:
                raise TypeRegistrationError(f"{name}: an interface type has no class")
            lineage: tuple[str, ...] = (name,)
            if descriptor.supertype_name is not None:
                # Supertypes register first, so no lineage can hold a cycle.
                parent = self._types.get(descriptor.supertype_name)
                if parent is None:
                    raise RegistryIntegrityError(
                        f"unresolvable supertype {descriptor.supertype_name!r}"
                    )
                lineage += parent.lineage

            accessors = synthesize_accessors(descriptor)
            merged = (
                replace(descriptor, methods=descriptor.methods + tuple(accessors))
                if accessors else descriptor
            )

            merged_table: MethodTable | None = None
            if not merged.is_interface:
                merged_table = MethodTable(dict(table.bindings)) if table else MethodTable()
                # Accessor-shaped methods without an explicit binding fall back
                # to direct field access.
                for m in merged.methods:
                    if merged_table.get(m.name, m.arity) is not None:
                        continue
                    accessor = accessor_of(merged, m)
                    if accessor is None:
                        continue
                    op, fname = accessor
                    binding = _field_get_binding if op == "get" else _field_set_binding
                    merged_table.bind(m.name, m.arity, binding(fname))
                for m in merged.methods:
                    if merged_table.get(m.name, m.arity) is None:
                        raise TypeRegistrationError(
                            f"{name}: method {m.ident} has no binding"
                        )

            if factory is None and py_type is not None:
                factory = py_type
            rt = self._types[name] = RegisteredType(
                descriptor=merged,
                method_table=merged_table,
                lineage=lineage,
                py_type=py_type,
                factory=factory,
            )
            if py_type is not None:
                self._by_class[py_type] = rt
            return name

    def lookup(self, type_name: str) -> RegisteredType | None:
        return self._types.get(type_name)

    def type_of(self, value: object) -> RegisteredType:
        """The registered type of a live value's exact class."""
        rt = self._by_class.get(type(value))
        if rt is None:
            raise UnregisteredTypeError(
                f"no registered descriptor for class {type(value).__name__}"
            )
        return rt

    def supertype_chain_of(self, type_name: str) -> tuple[str, ...]:
        """The type's lineage, most derived first; an unregistered name alone."""
        rt = self._types.get(type_name)
        return rt.lineage if rt is not None else (type_name,)


@dataclass
class Skeleton:
    """Server-side binding of one deployed service to its live object.

    One skeleton per deployed service, dispatching through its concrete type's
    method table; ``invoke_local`` admits only the deployment interface's
    methods, and deploy's compliance check ensures each of them has a binding.
    """

    service_object: object
    interface_descriptor: TypeDescriptor
    concrete: RegisteredType
    guid: GUID
    service_name: str | None


class ServiceRegistry:
    """The service map plus deploy/lookup/invoke operations of one node."""

    def __init__(self, types: TypeRegistry, *, guid_source: GuidSource | None = None):
        self.types = types
        self._guid_source = guid_source
        # By GUID text, in deploy order, since a GUID is never reused.
        self._by_guid: dict[str, Skeleton] = {}
        self._by_name: dict[str, Skeleton] = {}
        self._by_object: dict[int, list[Skeleton]] = {}
        # Also held by auto_deploy across choosing a deployment and deploying.
        self.lock = threading.RLock()

    def deploy(
        self,
        obj: object,
        interface: TypeDescriptor | str | None = None,
        name: str | None = None,
    ) -> Skeleton:
        """Expose a live object as a service and return its skeleton.

        Without an explicit interface the service exposes the public methods
        of the object's concrete type. The object itself is never touched:
        existing local references keep working unchanged.
        """
        with self.lock:
            concrete = self.types.type_of(obj)
            iface = (
                concrete.public_interface if interface is None
                else self._resolve_interface(concrete.descriptor, interface)
            )
            if name is not None:
                # GUID text would shadow that GUID's service: lookup tries names
                # first. Text UTF-8 cannot carry would break every listing.
                if not isinstance(name, str) or not name or _is_guid_text(name) or (
                    name.encode("utf-8", "replace").decode("utf-8") != name
                ):
                    raise DeploymentError(
                        "service name must be non-empty text that UTF-8 can carry "
                        f"and not a GUID: {name!r}"
                    )
                if name in self._by_name:
                    raise DeploymentError(f"service name already in use: {name}")
            guid = guid_new(self._guid_source)
            if guid.hex in self._by_guid:
                raise GuidCollisionError(f"GUID collision: {guid.hex}")

            skeleton = Skeleton(
                service_object=obj,
                interface_descriptor=iface,
                concrete=concrete,
                guid=guid,
                service_name=name,
            )
            self._by_guid[guid.hex] = skeleton
            if name is not None:
                self._by_name[name] = skeleton
            self._by_object.setdefault(id(obj), []).append(skeleton)
            return skeleton

    def _resolve_interface(
        self, concrete: TypeDescriptor, interface: TypeDescriptor | str
    ) -> TypeDescriptor:
        name = interface if isinstance(interface, str) else interface.type_name
        rt = self.types.lookup(name)
        if rt is None:
            raise DeploymentError(f"deployment interface not registered: {name}")
        iface = rt.descriptor
        missing = [
            m.ident
            for m in iface.methods
            if not _compliant(concrete, m)
        ]
        if missing:
            raise DeploymentError(
                f"interface {name} has methods absent from {concrete.type_name}: "
                + ", ".join(missing)
            )
        return iface

    def lookup(self, name_or_guid: str) -> Skeleton:
        """Exact-match, case-sensitive service lookup by name or canonical GUID."""
        with self.lock:
            sk = self._by_name.get(name_or_guid) or self._by_guid.get(name_or_guid)
        if sk is not None:
            return sk
        if _is_guid_text(name_or_guid):
            raise ServiceNotFound(f"no service with GUID {name_or_guid}")
        raise ServiceNotFound(f"no service named {name_or_guid!r}")

    def lookup_guid(self, guid: GUID) -> Skeleton | None:
        with self.lock:
            return self._by_guid.get(guid.hex)

    def deployments_of(self, obj: object) -> list[Skeleton]:
        with self.lock:
            return list(self._by_object.get(id(obj), ()))

    def undeploy(self, name_or_guid: str) -> None:
        """Tear a service down; GUIDs are never reused."""
        with self.lock:
            sk = self.lookup(name_or_guid)
            del self._by_guid[sk.guid.hex]
            if sk.service_name is not None:
                self._by_name.pop(sk.service_name, None)
            lst = self._by_object.get(id(sk.service_object))
            if lst is not None:
                lst.remove(sk)
                if not lst:
                    del self._by_object[id(sk.service_object)]

    def list_skeletons(self) -> list[Skeleton]:
        with self.lock:
            return list(self._by_guid.values())

    def __len__(self) -> int:
        with self.lock:
            return len(self._by_guid)


def _is_guid_text(text: str) -> bool:
    try:
        GUID.parse(text)
    except ValueError:
        return False
    return True


def _compliant(concrete: TypeDescriptor, wanted: MethodDescriptor) -> bool:
    """Strict structural compliance: name, arity, parameter types, return type."""
    have = concrete.find_method(wanted.name, wanted.arity)
    return (
        have is not None
        and have.params == wanted.params
        and have.return_type == wanted.return_type
    )


class CallPlan:
    """What every call of one interface method needs, worked out once.

    ``key`` is the method's (name, arity), its key in a concrete type's
    method table. ``checks`` holds (index, type name, check) for each
    primitive parameter, which dispatch checks strictly. ``accessor`` is
    ``accessor_of``'s answer, for a handle that serves it from a snapshot.
    """

    __slots__ = ("method", "key", "checks", "accessor")

    def __init__(self, iface: TypeDescriptor, method: MethodDescriptor):
        self.method = method
        self.key = (method.name, method.arity)
        self.checks = tuple(
            (i, ptype, _PRIM_CHECKS[ptype])
            for i, ptype in enumerate(method.params)
            if ptype in _PRIM_CHECKS
        )
        self.accessor = accessor_of(iface, method)


def call_plan(iface: TypeDescriptor, method: str, arity: int) -> CallPlan | None:
    """The plan of an interface's method, built at its first call and kept in
    ``iface.plans``, which a hot path may read first; None when the
    interface has no such method."""
    plan = iface.plans.get((method, arity))
    if plan is None:
        md = iface.find_method(method, arity)
        if md is not None:
            plan = iface.plans.setdefault((method, arity), CallPlan(iface, md))
    return plan


def invoke_local(
    skeleton: Skeleton, method: str, args: Sequence[object], plan: CallPlan | None = None
) -> object:
    """Apply a decoded call to the live object through the skeleton's table.

    Methods outside the deployment interface are rejected no matter what the
    concrete type can do locally. Exceptions raised by the binding surface as
    structured application faults and never crash the node. ``plan`` is the
    call's ``call_plan``, when the caller has looked it up.
    """
    if plan is None:
        iface = skeleton.interface_descriptor
        plan = call_plan(iface, method, len(args))
        if plan is None:
            if method in iface.method_names:
                raise InvocationError(
                    f"{method}: wrong arity {len(args)} for service "
                    f"{skeleton.service_name or skeleton.guid.hex}"
                )
            raise UnknownMethodError(
                f"method {method!r} not in deployment interface {iface.type_name}"
            )
    # Primitive parameters are checked strictly; object-typed parameters
    # accept whatever decoded (plain Web Service clients send loose shapes).
    for i, ptype, check in plan.checks:
        value = args[i]
        if value is not None and not check(value):
            raise InvocationError(
                f"{plan.method.ident}: argument {i} must be {ptype}, "
                f"got {type(value).__name__}"
            )
    # deploy checked that the concrete type binds every interface method
    binding = skeleton.concrete.method_table.bindings[plan.key]
    try:
        return binding(skeleton.service_object, list(args))
    except Exception as exc:  # noqa: BLE001 - captured as a structured fault
        raise ApplicationFault(type(exc).__name__, str(exc)) from exc


_PRIM_CHECKS = {
    "i64": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "f64": lambda v: isinstance(v, float),
    "bool": lambda v: isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
}
