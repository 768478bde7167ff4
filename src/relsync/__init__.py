"""relsync: a relevance-scoped client-server synchronization engine.

Server side: a typed object-graph store with a transactional change log.
Relevance: path expressions selecting the sub-graph each user cares about.
Sync: two interchangeable delta algorithms — a snapshot-diff oracle and a
timestamp-based production algorithm — plus a client replica with a GC
sweep, a scenario-driven simulator, and a fuzzer that checks the two
algorithms against each other.
"""

from .changelog import ActionType, ChangeLog
from .delta import DeltaSet, parse_delta, render_delta
from .errors import RelsyncError
from .expr import PathExpr, parse_expression, render_expression
from .fuzz import FuzzBounds, FuzzSummary, social_schema
from .fuzz import fuzz as run_fuzz
from .model import (
    AssociationDef,
    CreateLink,
    CreateObject,
    DeleteLink,
    DeleteObject,
    Link,
    Mutation,
    Schema,
    SystemData,
    UpdateState,
    validate_schema,
)
from .oracle import SnapshotOracle, oracle_sync
from .paths import (
    Path,
    TypedGraph,
    evaluate,
    select_relevant,
)
from .replica import Replica
from .runner import DivergenceReport, run_scenario
from .scenario import Scenario, load_scenario, parse_scenario, render_scenario
from .store import Store
from .sync import SyncCursor, timestamp_sync

__version__ = "0.1.0"

__all__ = [
    "ActionType",
    "AssociationDef",
    "ChangeLog",
    "CreateLink",
    "CreateObject",
    "DeleteLink",
    "DeleteObject",
    "DeltaSet",
    "DivergenceReport",
    "FuzzBounds",
    "FuzzSummary",
    "Link",
    "Mutation",
    "Path",
    "PathExpr",
    "Replica",
    "RelsyncError",
    "Scenario",
    "Schema",
    "SnapshotOracle",
    "Store",
    "SyncCursor",
    "SystemData",
    "TypedGraph",
    "UpdateState",
    "evaluate",
    "load_scenario",
    "oracle_sync",
    "parse_delta",
    "parse_expression",
    "parse_scenario",
    "render_delta",
    "render_expression",
    "render_scenario",
    "run_fuzz",
    "run_scenario",
    "select_relevant",
    "social_schema",
    "timestamp_sync",
    "validate_schema",
]
