"""GOOFI core: generic fault-injection algorithms, the target-interface
framework, campaign management, fault models, triggers, locations, and
the pre-injection analysis."""

from .algorithms import (
    CampaignResult,
    FaultInjectionAlgorithms,
    InlineExecutor,
    register_target_system,
    store_campaign,
)
from .campaign import (
    LOGGING_DETAIL,
    LOGGING_NORMAL,
    TECHNIQUE_PINLEVEL,
    TECHNIQUE_SCIFI,
    TECHNIQUE_SWIFI_PRERUNTIME,
    TECHNIQUE_SWIFI_RUNTIME,
    TIME_BRANCH,
    TIME_CALL,
    TIME_CLOCK,
    TIME_DATA_ACCESS,
    TIME_UNIFORM,
    CampaignConfig,
    ExperimentSpec,
    PlanGenerator,
    PlannedFault,
    experiment_name,
    merge_campaigns,
)
from .checkpoint import (
    DEFAULT_CHECKPOINT_CAPACITY,
    Checkpoint,
    CheckpointCache,
    CheckpointStats,
    first_injection_cycle,
    sort_plan_by_first_injection,
)
from .errors import (
    AnalysisError,
    CampaignAborted,
    ConfigurationError,
    GoofiError,
    TargetError,
)
from .events import (
    EVENT_KINDS,
    EVENT_SCHEMA_VERSION,
    DatagramEventSink,
    EventBus,
    EventSink,
    JsonlEventSink,
    events_destination_sink,
    iter_jsonl,
    resolve_events,
)
from .faultmodels import (
    FaultModel,
    IntermittentBitFlip,
    StuckAt,
    TransientBitFlip,
    model_from_dict,
)
from .framework import (
    ObservationSpec,
    TargetSystemInterface,
    Termination,
    TerminationInfo,
)
from .liveness import (
    DEFAULT_SPOT_CHECK_RATE,
    ExperimentClassifier,
    PruneConfig,
    PruneDivergence,
    PrunePlan,
    build_prune_plan,
    resolve_prune,
)
from .locations import (
    Location,
    LocationSelection,
    LocationSpace,
    MemoryRegionInfo,
    ScanElementInfo,
)
from .plugins import (
    create_environment,
    create_target,
    register_environment,
    register_target,
    register_technique,
    registered_environments,
    registered_targets,
    registered_techniques,
)
from .packs import (
    DependabilityBounds,
    FaultPack,
    SamplePlan,
    load_pack,
    loads_pack,
    replay_function,
    save_pack,
)
from .parallel import ProcessExecutor, WorkerFailure
from .probes import (
    DEFAULT_PROBE_PERIOD,
    GoldenSnapshots,
    ProbeConfig,
    ProbeSession,
    location_class,
    resolve_probes,
)
from .profiling import (
    ProfileCollector,
    format_profile_report,
    merge_profile_stats,
    profile_summary,
)
from .progress import (
    ProgressEvent,
    ProgressReporter,
    format_duration,
)
from .resources import (
    COORDINATOR_WORKER,
    DEFAULT_RESOURCE_PERIOD,
    RESOURCE_SAMPLE_KEYS,
    ResourceConfig,
    ResourceSampler,
    resolve_resources,
)
from .telemetry import (
    MODE_METRICS,
    MODE_OFF,
    MODE_SPANS,
    NULL_TELEMETRY,
    MetricsRegistry,
    Telemetry,
    resolve_telemetry,
)
from .triggers import (
    BranchTrigger,
    BreakpointTrigger,
    CallTrigger,
    ClockTrigger,
    DataAccessTrigger,
    ReferenceTrace,
    TimeTrigger,
    Trigger,
    trigger_from_dict,
)

__all__ = [name for name in dir() if not name.startswith("_")]
