"""Prescribed-time funnel tracking control for strict-feedback systems."""

from .perf import (
    ErrorTransform,
    FunnelBreachError,
    PerfFunction,
    TransformKind,
)
from .fuzzy import AdaptiveWeights, GaussianGrid
from .plants import (
    PlantBounds,
    ReferenceSignal,
    StrictFeedbackPlant,
    make_electromechanical,
    make_single_link,
)
from .controller import (
    ControlMode,
    ControllerChain,
    ControllerState,
    StageGains,
)
from .sim import (
    SimConfig,
    SimulationDivergenceError,
    Trajectory,
    VerificationReport,
    export_trajectory,
    run,
    step,
)

__version__ = "0.1.0"
