"""PVN deployment: embedding, installation, isolation, lifecycle."""

from repro.core.deployment.embedding import (
    EmbeddingResult,
    admission_headroom,
    embed_pvn,
    estimate_max_subscribers,
)
from repro.core.deployment.isolation import (
    IsolationReport,
    probe_cross_user,
    sweep_deployments,
)
from repro.core.deployment.lifecycle import (
    HealthReport,
    LeaseTable,
    MigrationResult,
    RepairResult,
    degrade_to_tunnel,
    health_check,
    migrate_device,
    refresh_address,
    repair_deployment,
    sweep_expired,
)
from repro.core.deployment.migration import (
    EpochRegistry,
    MigrationCoordinator,
    MigrationJournal,
    MigrationSpec,
    MigrationTransaction,
    ensure_coordinator,
)
from repro.core.deployment.manager import (
    ACTION_DROP,
    ACTION_FORWARD,
    ACTION_TUNNEL,
    DataPathOutcome,
    Deployment,
    DeploymentManager,
    DeploymentState,
    PvnDataPath,
)
from repro.core.deployment.telemetry import TelemetryFeed

__all__ = [
    "ACTION_DROP",
    "ACTION_FORWARD",
    "ACTION_TUNNEL",
    "DataPathOutcome",
    "Deployment",
    "DeploymentManager",
    "DeploymentState",
    "EmbeddingResult",
    "EpochRegistry",
    "HealthReport",
    "IsolationReport",
    "LeaseTable",
    "MigrationCoordinator",
    "MigrationJournal",
    "MigrationResult",
    "MigrationSpec",
    "MigrationTransaction",
    "PvnDataPath",
    "RepairResult",
    "TelemetryFeed",
    "admission_headroom",
    "degrade_to_tunnel",
    "embed_pvn",
    "ensure_coordinator",
    "estimate_max_subscribers",
    "health_check",
    "migrate_device",
    "probe_cross_user",
    "refresh_address",
    "repair_deployment",
    "sweep_deployments",
    "sweep_expired",
]
