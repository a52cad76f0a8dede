"""Temperature-aware unit-job scheduling.

Exact thermal simulation, reasonable online policies, an exact offline
throughput optimizer, hardness reduction constructions with
certificate round-trips, a deterministic lower-bound adversary game,
and canonical file formats with text/SVG schedule rendering.
"""

from .adversary import (
    AdversaryTranscript,
    BoundCounterexample,
    RandomModel,
    RatioRecord,
    RatioReport,
    random_instance,
    ratio_experiment,
    run_lower_bound_game,
    scripted_policy,
)
from .gantt import GanttRendering, render_gantt
from .model import (
    DEFAULT_CONFIG,
    Instance,
    Job,
    Schedule,
    SimulationTrace,
    ThermalConfig,
    ValidationIssue,
    Violation,
    is_admissible,
    simulate,
    step_temperature,
    validate_instance,
)
from .policies import (
    POLICIES,
    DecisionRecord,
    OnlineRun,
    Policy,
    PolicyViolationError,
    ReasonablenessViolation,
    always_idle,
    check_reasonable,
    coolest_first_decide,
    edf_decide,
    run_online,
    strictly_dominates,
)
from .reductions import (
    InvalidCertificateError,
    InvalidSourceError,
    MatchingCertificate,
    N3DMInstance,
    NotFullThroughputError,
    PartitionCertificate,
    ReductionMeta,
    ThreePartitionInstance,
    brute_3partition,
    brute_n3dm,
    canonical_schedule_3partition,
    canonical_schedule_n3dm,
    extract_3partition,
    extract_n3dm_matching,
    gen_from_3partition,
    gen_from_n3dm,
)
from .serialization import (
    ParseError,
    format_rational,
    parse_instance,
    parse_rational,
    parse_report,
    parse_schedule,
    parse_trace,
    serialize_instance,
    serialize_report,
    serialize_schedule,
    serialize_trace,
)
from .solver import (
    InstanceTooLargeError,
    OptResult,
    enumerate_optimal_bruteforce,
    solve_optimal,
)

__version__ = "0.1.0"
