"""Distributed-object middleware: deploy live objects as network services,
route remote invocations to them, and decide per call whether each value
crosses the wire by value, by reference, or as a field-caching smart proxy."""

from .errors import (
    ApplicationFault,
    ConfigError,
    DeploymentError,
    GuidCollisionError,
    InvocationError,
    NetworkFault,
    PolicyFileError,
    PolicyRuleError,
    ProtocolError,
    RegistryIntegrityError,
    RRTError,
    ServiceNotFound,
    TypeRegistrationError,
    UnknownMethodError,
    UnregisteredTypeError,
    WireFormatError,
)
from .model import (
    DEFAULT_RULE,
    Endpoint,
    FieldDescriptor,
    GUID,
    MethodDescriptor,
    NON_PUBLIC,
    PUBLIC,
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
from .registry import (
    MethodTable,
    ServiceRegistry,
    Skeleton,
    TypeRegistry,
    invoke_local,
    synthesize_accessors,
)
from .policy import (
    CallContext,
    CallRole,
    PeerKind,
    PolicyRule,
    RuleKind,
    TransmissionPolicyManager,
)
from .codec import (
    Fault,
    MessageDecoder,
    MessageEncoder,
    Request,
    Response,
    decode_request,
    decode_response,
    decode_value,
    encode_request,
    encode_response,
    encode_value,
)
from .remote import (
    Handle,
    ProxyCache,
    auto_deploy,
    get_object_by_name,
    remote_invoke,
    resolve_incoming_rior,
)
from .node import (
    NodeConfig,
    RRTNode,
    serve,
)

__version__ = "0.1.0"
