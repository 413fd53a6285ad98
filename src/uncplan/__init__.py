"""uncplan: uncertainty-aware trajectory selection and drivable-area safety
metrics, exercised through a deterministic synthetic-scenario simulator."""

__version__ = "0.1.0"

from .geometry import (
    MultiPolygon,
    Point2,
    Polygon,
    Pose2,
    vehicle_corners,
)
from .map_model import MapElement, MapElementKind, UncertainMap, boundary_elements, perturb_map
from .metrics import (
    GroundTruth,
    MetricsRow,
    ScenarioMetrics,
    aggregate,
    collision_rate_frame,
    dacr_frame,
    displacement_error,
    evaluate_trajectory,
)
from .oracles import oracle_dacr_flags, oracle_laplace_fit, oracle_select
from .scenario import (
    AgentMode,
    AgentPrediction,
    GeneratorParams,
    Scenario,
    ScenarioFormatError,
    ScenarioInvariantError,
    ScenarioKind,
    ScenarioVersionError,
    generate_scenario,
    generate_suite,
    load_scenario,
    load_suite,
    save_scenario,
)
from .selection import (
    CandidateSet,
    CandidateTrajectory,
    Command,
    SelectionConfig,
    SelectionReport,
    agent_collision_check,
    boundary_collision_check,
    command_filter,
    trajectory_risk,
    ucas_select,
)
from .uncertainty import (
    B_MIN,
    LaplacePoint,
    UncertainPolyline,
    element_nll,
    fit_laplace_mle,
    laplace_point_nll,
    log_joint_density,
)
