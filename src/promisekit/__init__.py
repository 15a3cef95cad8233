"""promisekit: time-bounded predicate guarantees over shared resources.

A promise manager sits between clients and a resource catalog. Clients
obtain promises that predicates (pool quantities, named instances,
property constraints) stay satisfiable for a bounded time, then run
actions under those promises; the manager checks feasibility on every
grant and after every action, rolling back anything that would break an
active promise.
"""

from .catalog import (
    CatalogError,
    CatalogSchema,
    DecrementPool,
    InstanceRecord,
    ResourceCatalog,
    SetInstanceStatus,
    SetProperty,
    load_catalog,
    load_catalog_file,
    load_catalog_text,
)
from .clock import LogicalClock, WallClock
from .engine import (
    FeasibilityProblem,
    PromiseEngine,
    PromiseRecord,
    Rejection,
    UncertifiedAnswer,
    UnknownPromiseId,
    build_feasibility_problem,
    check_satisfiable,
)
from .predicates import (
    FormMismatch,
    InstanceId,
    Named,
    Predicate,
    PredicateInvalid,
    Property,
    PropertyConstraint,
    Quantity,
    satisfies,
    validate_predicate,
)
from .protocol import (
    ActionMsg,
    Envelope,
    EnvironmentMsg,
    InvariantViolation,
    MalformedMessage,
    PromisePart,
    PromiseRequestMsg,
    PromiseResponseMsg,
    decode,
    encode,
    make_request,
)
from .service import ActionFailure, PromiseManager, Server, ServiceConfig, serve

__version__ = "0.1.0"
