"""The paper's contribution: declarative, typed blockchain transactions."""

from repro.core.asset import (
    CAPABILITIES_KEY,
    capabilities_satisfied,
    extract_capabilities,
)
from repro.core.builders import (
    build_accept_bid,
    build_bid,
    build_create,
    build_request,
    build_return,
    build_transfer,
)
from repro.core.cluster import ClusterConfig, SmartchainCluster, TxRecord
from repro.core.context import ValidationContext
from repro.core.driver import Driver, SubmitResult
from repro.core.extensions import (
    build_interest,
    build_pre_request,
    interest_type,
    pre_request_type,
    register_marketplace_extensions,
)
from repro.core.parallel import (
    AccessSet,
    ConflictScheduler,
    Schedule,
    access_set_of,
    parallel_validation_cost,
)
from repro.core.predicates import (
    DeclarativeType,
    Predicate,
    all_of,
    declarative_type,
)
from repro.core.nested import (
    NestedTransactionProcessor,
    RecoveryLog,
    ReturnJob,
    ReturnQueue,
    determine_return_txs,
)
from repro.core.server import ServerCostModel, SmartchainServer
from repro.core.transaction import (
    ACCEPT_BID,
    BID,
    CREATE,
    REQUEST,
    RETURN,
    TRANSFER,
    Input,
    Output,
    OutputRef,
    Transaction,
)
from repro.core.validation import TransactionValidator
from repro.core.workflow import (
    MARKETPLACE_WORKFLOWS,
    WorkflowEngine,
    WorkflowSpec,
    WorkflowTrace,
)

__all__ = [
    "ACCEPT_BID",
    "AccessSet",
    "ConflictScheduler",
    "Schedule",
    "access_set_of",
    "parallel_validation_cost",
    "BID",
    "CAPABILITIES_KEY",
    "CREATE",
    "ClusterConfig",
    "DeclarativeType",
    "Driver",
    "Predicate",
    "Input",
    "MARKETPLACE_WORKFLOWS",
    "NestedTransactionProcessor",
    "Output",
    "OutputRef",
    "REQUEST",
    "RETURN",
    "RecoveryLog",
    "ReturnJob",
    "ReturnQueue",
    "ServerCostModel",
    "SmartchainCluster",
    "SmartchainServer",
    "SubmitResult",
    "TRANSFER",
    "Transaction",
    "TransactionValidator",
    "TxRecord",
    "ValidationContext",
    "WorkflowEngine",
    "WorkflowSpec",
    "WorkflowTrace",
    "all_of",
    "build_accept_bid",
    "build_bid",
    "build_create",
    "build_interest",
    "build_pre_request",
    "build_request",
    "build_return",
    "build_transfer",
    "declarative_type",
    "interest_type",
    "pre_request_type",
    "register_marketplace_extensions",
    "capabilities_satisfied",
    "determine_return_txs",
    "extract_capabilities",
]
