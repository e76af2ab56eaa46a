"""Deterministic simulator for a speed-and-separation-monitored collaborative cell."""

from .control import (
    CommandSource,
    Controller,
    ControllerConfig,
    Gains,
    ModeKind,
    SpeedCommand,
    SpeedMode,
    primary_speed_select,
    scale_factor,
    secondary_scale,
)
from .engine import (
    Event,
    EventKind,
    SimResult,
    detect_deadlock,
    ideal_cycle_time,
    nominal_task_duration,
    run,
    run_benchmark,
)
from .kinematics import (
    Jacobian,
    KinematicsError,
    LinkRow,
    RobotModel,
    jacobian,
    null_space_projector,
    pseudo_inverse,
)
from .kpi import KpiReport, comparison_table, cycle_time, flexibility_rate, oee, reaction_time, report
from .perception import (
    HumanState,
    LaserScan,
    Posture,
    ScannerMount,
    SkeletonFrame,
    merge_occupancy,
    scan_to_occupancy,
    simulate_scan,
    skeleton_sample,
)
from .scenario import (
    HumanScript,
    HumanWaypoint,
    RobotTask,
    Scenario,
    ScenarioError,
    SimMode,
    TaskStep,
    parse_scenario,
    serialize_scenario,
)
from .separation import (
    SeparationInputs,
    ViolationGate,
    compute_msd_dynamic,
    separation_terms,
)
from .stability import (
    LyapunovSample,
    StabilityReport,
    check_segment,
    evaluate_trace,
    lyapunov_value,
)
from .trace import Trace, TraceRow
from .zones import (
    Quadrant,
    SafetyParams,
    Zone,
    ZoneLabel,
    ZoneLayout,
    build_zone_layout,
    classify_footprint,
    classify_point,
    compute_msd_static,
    export_layout,
)

__version__ = "0.1.0"
