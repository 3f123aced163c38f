from __future__ import annotations

import pytest

from rrt.errors import (
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
from rrt.model import (
    Endpoint,
    FieldDescriptor,
    MethodDescriptor,
    NON_PUBLIC,
    TypeDescriptor,
)
from rrt.node import NodeConfig, RRTNode
from rrt.registry import (
    MethodTable,
    ServiceRegistry,
    TypeRegistry,
    accessor_of,
    invoke_local,
    synthesize_accessors,
)
from rrt.toolkit.demo import (
    IMANAGE,
    IMONITOR,
    IP2PNODE,
    Key,
    Message,
    P2PNode,
    register_demo_types,
)

EP = Endpoint("127.0.0.1", 4999)


@pytest.fixture
def types():
    t = TypeRegistry()
    register_demo_types(t)
    return t


@pytest.fixture
def services(types):
    return ServiceRegistry(types)


class TestRegisterType:
    def test_demo_node_registered_with_accessors(self, types):
        desc = types.lookup("P2PNode").descriptor
        declared = {"addPeer", "route", "getLog", "stop", "start", "getKey"}
        names = {m.name for m in desc.methods}
        assert declared <= names
        # 6 declared plus synthesized get_key/set_key for the key field.
        assert names - declared == {"get_key", "set_key"}
        assert len(desc.methods) == 8

    def test_missing_binding_rejected(self):
        t = TypeRegistry()
        desc = TypeDescriptor("Bird", methods=(MethodDescriptor("fly"),))
        with pytest.raises(TypeRegistrationError, match="fly"):
            t.register_type(desc, MethodTable())

    def test_duplicate_name_rejected(self, types):
        with pytest.raises(TypeRegistrationError, match="already registered"):
            types.register_type(TypeDescriptor("Key"))

    def test_unregistered_supertype_rejected(self):
        t = TypeRegistry()
        with pytest.raises(RegistryIntegrityError, match="Ghost"):
            t.register_type(TypeDescriptor("Child", supertype_name="Ghost"))
        with pytest.raises(RegistryIntegrityError, match="Self"):
            t.register_type(TypeDescriptor("Self", supertype_name="Self"))
        assert t.lookup("Child") is None and t.lookup("Self") is None

    def test_interface_type_has_no_class(self):
        # So every type a live object maps to has bindings to dispatch through.
        class Bird:
            def fly(self):
                pass

        desc = TypeDescriptor("IBird", methods=(MethodDescriptor("fly"),), is_interface=True)
        with pytest.raises(TypeRegistrationError, match="interface"):
            TypeRegistry().register_type(desc, py_type=Bird)

    def test_type_of_maps_a_class_to_its_registered_type(self, types):
        assert types.type_of(P2PNode(Key("k"))) is types.lookup("P2PNode")
        with pytest.raises(UnregisteredTypeError):
            types.type_of(object())

    def test_returns_type_id(self):
        t = TypeRegistry()
        assert t.register_type(TypeDescriptor("Thing")) == "Thing"


class TestAccessorSynthesis:
    def test_immutable_field_gets_getter_only(self):
        desc = TypeDescriptor("T", fields=(FieldDescriptor("key", "Key", mutable=False),))
        names = [m.name for m in synthesize_accessors(desc)]
        assert names == ["get_key"]

    def test_mutable_field_gets_both(self):
        desc = TypeDescriptor("T", fields=(FieldDescriptor("count", "i64"),))
        names = [m.name for m in synthesize_accessors(desc)]
        assert names == ["get_count", "set_count"]

    def test_no_fields_no_accessors(self):
        assert synthesize_accessors(TypeDescriptor("T")) == []

    def test_collision_suffixed(self):
        desc = TypeDescriptor(
            "T",
            fields=(FieldDescriptor("x", "i64"),),
            methods=(MethodDescriptor("get_x", (), "string"),),  # not accessor-shaped
        )
        names = [m.name for m in synthesize_accessors(desc)]
        assert names == ["get_x_field", "set_x"]

    @pytest.mark.parametrize(
        "method,expected",
        [
            (MethodDescriptor("get_x", (), "i64"), ("get", "x")),
            (MethodDescriptor("set_x", ("i64",), "void"), ("set", "x")),
            (MethodDescriptor("get_x_field", (), "i64"), ("get", "x")),
            (MethodDescriptor("set_x_field", ("i64",), "void"), ("set", "x")),
            (MethodDescriptor("get_x", (), "string"), None),
            (MethodDescriptor("get_x", ("i64",), "i64"), None),
            (MethodDescriptor("set_x", ("string",), "void"), None),
            (MethodDescriptor("set_x", ("i64",), "i64"), None),
            (MethodDescriptor("get_y", (), "i64"), None),
            (MethodDescriptor("x", (), "i64"), None),
        ],
        ids=lambda v: (
            f"{v.name}({','.join(v.params)})->{v.return_type}"
            if isinstance(v, MethodDescriptor)
            else str(v)
        ),
    )
    def test_accessor_of_checks_name_and_shape(self, method, expected):
        desc = TypeDescriptor("T", fields=(FieldDescriptor("x", "i64"),))
        assert accessor_of(desc, method) == expected

    def test_misshaped_accessor_needs_a_binding(self):
        desc = TypeDescriptor(
            "T",
            fields=(FieldDescriptor("x", "i64"),),
            methods=(MethodDescriptor("get_x", (), "string"),),
        )
        with pytest.raises(TypeRegistrationError, match="get_x/0"):
            TypeRegistry().register_type(desc)

    def test_idempotent_on_registered_descriptor(self, types):
        # Registration already merged the accessors; a second pass adds nothing.
        assert synthesize_accessors(types.lookup("P2PNode").descriptor) == []
        assert synthesize_accessors(types.lookup("IP2PNode").descriptor) == []


class TestDeploy:
    def test_three_interfaces_one_object(self, services):
        node = P2PNode(Key("k"))
        riors = [
            services.deploy(node, IMANAGE, "Manage"),
            services.deploy(node, IMONITOR, "Monitor"),
            services.deploy(node, IP2PNODE, "P2P"),
        ]
        assert len({r.guid for r in riors}) == 3
        assert len(services.deployments_of(node)) == 3
        p2p = services.lookup("P2P")
        assert {m.name for m in p2p.interface_descriptor.methods} >= {
            "addPeer",
            "route",
            "getKey",
        }

    def test_deploy_returns_rior_with_empty_snapshot(self, types):
        node = RRTNode(NodeConfig(host=EP.host, port=EP.port), types=types)
        rior = node.deploy(P2PNode(Key("k")), "IP2PNode", "P2P")
        assert rior.service_name == "P2P"
        assert rior.endpoint == EP
        assert rior.cached_field_snapshot == {}

    def test_noncompliant_interface_rejected(self, services, types):
        types.register_type(
            TypeDescriptor("IFly", methods=(MethodDescriptor("fly"),), is_interface=True)
        )
        with pytest.raises(DeploymentError, match="fly"):
            services.deploy(P2PNode(Key("k")), "IFly", "X")

    def test_duplicate_name_rejected(self, services):
        node = P2PNode(Key("k"))
        services.deploy(node, IP2PNODE, "P2P")
        with pytest.raises(DeploymentError, match="already in use"):
            services.deploy(node, IP2PNODE, "P2P")

    def test_guid_text_name_rejected(self, services):
        # lookup tries names first, so this name would take over P2P's calls.
        p2p = services.deploy(P2PNode(Key("k")), IP2PNODE, "P2P")
        with pytest.raises(DeploymentError, match="GUID"):
            services.deploy(P2PNode(Key("impostor")), IP2PNODE, p2p.guid.hex)
        assert services.lookup(p2p.guid.hex) is p2p
        assert len(services) == 1

    @pytest.mark.parametrize("name", [5, b"P2P", ("P2P",), ""])
    def test_non_text_name_rejected(self, services, name):
        with pytest.raises(DeploymentError, match="non-empty text"):
            services.deploy(P2PNode(Key("k")), IP2PNODE, name)
        assert len(services) == 0

    def test_unregistered_type_rejected(self, services):
        class Stranger:
            pass

        with pytest.raises(UnregisteredTypeError):
            services.deploy(Stranger())

    def test_unregistered_interface_rejected(self, services):
        with pytest.raises(DeploymentError, match="not registered"):
            services.deploy(P2PNode(Key("k")), "IGhost")

    def test_default_interface_is_public_methods(self):
        class Widget:
            def visible(self):
                return 1

            def hidden(self):
                return 2

        desc = TypeDescriptor(
            "Widget",
            methods=(
                MethodDescriptor("visible", (), "i64"),
                MethodDescriptor("hidden", (), "i64", visibility=NON_PUBLIC),
            ),
        )
        t = TypeRegistry()
        t.register_type(desc, MethodTable.for_class(Widget, desc), py_type=Widget)
        services = ServiceRegistry(t)
        rior = services.deploy(Widget(), name="w")
        names = {m.name for m in rior.interface_descriptor.methods}
        assert "visible" in names and "hidden" not in names
        # Explicitly listing the non-public method exposes it.
        t.register_type(
            TypeDescriptor(
                "IAdmin",
                methods=(MethodDescriptor("hidden", (), "i64", visibility=NON_PUBLIC),),
                is_interface=True,
            )
        )
        rior2 = services.deploy(Widget(), "IAdmin", "w-admin")
        sk = services.lookup("w-admin")
        assert invoke_local(sk, "hidden", []) == 2
        assert rior2.guid != rior.guid

    def test_concrete_deploys_share_one_interface(self, services, types):
        class Widget:
            def visible(self):
                return 1

            def hidden(self):
                return 2

        desc = TypeDescriptor(
            "Widget",
            methods=(
                MethodDescriptor("visible", (), "i64"),
                MethodDescriptor("hidden", (), "i64", visibility=NON_PUBLIC),
            ),
        )
        types.register_type(desc, MethodTable.for_class(Widget, desc), py_type=Widget)
        first = services.deploy(Widget()).interface_descriptor
        assert services.deploy(Widget()).interface_descriptor is first
        assert first.method_names == {"visible"}
        # With every method public the registered descriptor itself is exposed.
        node = services.deploy(P2PNode(Key("k"))).interface_descriptor
        assert services.deploy(P2PNode(Key("j"))).interface_descriptor is node
        assert node is types.lookup("P2PNode").descriptor

    def test_deploy_does_not_disturb_object(self, services):
        node = P2PNode(Key("k"))
        node.route(Key("a"), Message("hello"))
        before = (node.key.value, node.running, node.getLog(), list(node.peers))
        services.deploy(node, IP2PNODE, "P2P")
        after = (node.key.value, node.running, node.getLog(), list(node.peers))
        assert before == after

    def test_guid_collision_rejected(self, types):
        services = ServiceRegistry(types, guid_source=lambda: b"\x01" * 16)
        services.deploy(P2PNode(Key("k")), None, "a")
        with pytest.raises(GuidCollisionError):
            services.deploy(P2PNode(Key("k")), None, "b")

    def test_name_index_subset_of_guid_index(self, services):
        node = P2PNode(Key("k"))
        services.deploy(node, IMANAGE, "Manage")
        services.deploy(node, IMONITOR)  # unnamed
        skeletons = services.list_skeletons()
        assert len(skeletons) == 2
        for sk in skeletons:
            assert services.lookup(sk.guid.hex) is sk


class TestLookup:
    def test_by_name_and_guid(self, services):
        rior = services.deploy(P2PNode(Key("k")), IP2PNODE, "P2P")
        assert services.lookup("P2P").guid == rior.guid
        assert services.lookup(rior.guid.hex).guid == rior.guid

    def test_case_sensitive(self, services):
        services.deploy(P2PNode(Key("k")), IP2PNODE, "P2P")
        with pytest.raises(ServiceNotFound):
            services.lookup("p2p")

    def test_missing(self, services):
        services.deploy(P2PNode(Key("k")), IP2PNODE, "P2P")
        for name_or_guid, message in (
            ("nope", "no service named 'nope'"),
            ("AB" * 16, f"no service named '{'AB' * 16}'"),  # GUID text is lower case
            ("ab" * 16, f"no service with GUID {'ab' * 16}"),
        ):
            with pytest.raises(ServiceNotFound) as caught:
                services.lookup(name_or_guid)
            assert str(caught.value) == message

    def test_undeploy(self, services):
        services.deploy(P2PNode(Key("k")), IP2PNODE, "P2P")
        services.undeploy("P2P")
        with pytest.raises(ServiceNotFound):
            services.lookup("P2P")
        assert len(services) == 0


class TestInvokeLocal:
    @pytest.fixture
    def node_and_skeletons(self, services):
        node = P2PNode(Key("k"))
        services.deploy(node, IMANAGE, "Manage")
        services.deploy(node, IP2PNODE, "P2P")
        return node, services

    def test_route_runs(self, node_and_skeletons):
        node, services = node_and_skeletons
        sk = services.lookup("P2P")
        assert invoke_local(sk, "route", [Key("dest"), Message("m")]) is None
        assert "dest" in node.getLog()

    def test_interface_protection(self, node_and_skeletons):
        _, services = node_and_skeletons
        manage = services.lookup("Manage")
        with pytest.raises(UnknownMethodError):
            invoke_local(manage, "route", [Key("d"), Message("m")])

    def test_arity_mismatch(self, node_and_skeletons):
        _, services = node_and_skeletons
        sk = services.lookup("P2P")
        with pytest.raises(InvocationError, match="arity"):
            invoke_local(sk, "route", [Key("d")])

    def test_primitive_type_mismatch(self, types):
        class Calc:
            def double(self, n):
                return n * 2

        desc = TypeDescriptor("Calc", methods=(MethodDescriptor("double", ("i64",), "i64"),))
        types.register_type(desc, MethodTable.for_class(Calc, desc), py_type=Calc)
        services = ServiceRegistry(types)
        services.deploy(Calc(), None, "calc")
        sk = services.lookup("calc")
        assert invoke_local(sk, "double", [21]) == 42
        with pytest.raises(InvocationError, match="i64"):
            invoke_local(sk, "double", ["nope"])

    def test_binding_exception_becomes_application_fault(self, types):
        class Boomer:
            def boom(self):
                raise ValueError("kapow")

        desc = TypeDescriptor("Boomer", methods=(MethodDescriptor("boom"),))
        types.register_type(desc, MethodTable.for_class(Boomer, desc), py_type=Boomer)
        services = ServiceRegistry(types)
        services.deploy(Boomer(), None, "boomer")
        with pytest.raises(ApplicationFault) as info:
            invoke_local(services.lookup("boomer"), "boom", [])
        assert info.value.fault_class == "ValueError"
        assert "kapow" in info.value.message

    def test_accessors_work(self, node_and_skeletons):
        node, services = node_and_skeletons
        sk = services.lookup("P2P")
        got = invoke_local(sk, "get_key", [])
        assert got is node.key
        invoke_local(sk, "set_key", [Key("k2")])
        assert node.key.value == "k2"

    def test_one_interface_over_two_classes_dispatches_to_each(self, types):
        # The call plan is the interface's; the binding stays each class's own.
        class Loud:
            def speak(self, word):
                return word.upper()

        class Quiet:
            def speak(self, word):
                return word.lower()

        speaker = TypeDescriptor(
            "ISpeaker", methods=(MethodDescriptor("speak", ("string",), "string"),),
            is_interface=True,
        )
        types.register_type(speaker)
        for cls in (Loud, Quiet):
            desc = TypeDescriptor(cls.__name__, methods=speaker.methods)
            types.register_type(desc, MethodTable.for_class(cls, desc), py_type=cls)
        services = ServiceRegistry(types)
        services.deploy(Loud(), "ISpeaker", "loud")
        services.deploy(Quiet(), "ISpeaker", "quiet")
        for _ in range(2):
            assert invoke_local(services.lookup("loud"), "speak", ["Hi"]) == "HI"
            assert invoke_local(services.lookup("quiet"), "speak", ["Hi"]) == "hi"
        with pytest.raises(InvocationError, match="argument 0 must be string"):
            invoke_local(services.lookup("quiet"), "speak", [3])

    def test_a_hidden_method_called_through_one_interface_stays_hidden_in_another(self):
        class Widget:
            def visible(self):
                return 1

            def hidden(self):
                return 2

        desc = TypeDescriptor(
            "Widget",
            methods=(
                MethodDescriptor("visible", (), "i64"),
                MethodDescriptor("hidden", (), "i64", visibility=NON_PUBLIC),
            ),
        )
        t = TypeRegistry()
        t.register_type(desc, MethodTable.for_class(Widget, desc), py_type=Widget)
        services = ServiceRegistry(t)
        services.deploy(Widget(), "Widget", "full")
        services.deploy(Widget(), None, "public")
        assert invoke_local(services.lookup("full"), "hidden", []) == 2
        with pytest.raises(UnknownMethodError, match="not in deployment interface Widget"):
            invoke_local(services.lookup("public"), "hidden", [])


class TestReturnType:
    """The deployment interface declares each method's return type, which is
    the signature type of an auto-deployed return value."""

    @staticmethod
    def return_type(skeleton, method, arity):
        return skeleton.interface_descriptor.find_method(method, arity).return_type

    def test_examples(self, services):
        node = P2PNode(Key("k"))
        services.deploy(node, IP2PNODE, "P2P")
        services.deploy(node, IMONITOR, "Monitor")
        services.deploy(node, IMANAGE, "Manage")
        assert self.return_type(services.lookup("P2P"), "getKey", 0) == "Key"
        assert self.return_type(services.lookup("Monitor"), "getLog", 0) == "string"
        assert self.return_type(services.lookup("Manage"), "stop", 0) == "void"

    def test_unknown_method(self, services):
        services.deploy(P2PNode(Key("k")), IMANAGE, "Manage")
        iface = services.lookup("Manage").interface_descriptor
        assert "route" not in iface.method_names
