"""Cellular channel substrate.

Synthetic burst-scheduled 3G/LTE channel model (substituting for the
paper's commercial-network measurements), named measurement scenarios,
the trace contract, burst statistics (Figs 1–2) and channel
predictors (§3 unpredictability analysis).
"""

from .bursts import BurstStats, detect_bursts, log_pdf
from .channel_model import (
    TTI_SECONDS,
    CellularChannelModel,
    ChannelParams,
    ChannelStepper,
    CompetingUser,
    trace_rate_bps,
)
from .predictors import (
    EwmaPredictor,
    HoltPredictor,
    LastValuePredictor,
    LinearPredictor,
    MeanPredictor,
    PredictionScore,
    Predictor,
    compare_predictors,
    evaluate_predictor,
)
from .scenarios import (
    DEFAULT_RATE_BPS,
    EVALUATION_SCENARIOS,
    SCENARIO_NAMES,
    UPLINK_RATE_BPS,
    generate_scenario_trace,
    mobile_variant,
    operator_presets,
    scenario_params,
)
from .trace_io import (
    TraceFormatError,
    concatenate_traces,
    scale_trace,
)
from .validation import ChannelValidation, compare_technologies, validate_trace

__all__ = [
    "BurstStats",
    "CellularChannelModel",
    "ChannelValidation",
    "ChannelParams",
    "ChannelStepper",
    "CompetingUser",
    "DEFAULT_RATE_BPS",
    "EVALUATION_SCENARIOS",
    "EwmaPredictor",
    "HoltPredictor",
    "LastValuePredictor",
    "LinearPredictor",
    "MeanPredictor",
    "PredictionScore",
    "Predictor",
    "SCENARIO_NAMES",
    "TTI_SECONDS",
    "TraceFormatError",
    "UPLINK_RATE_BPS",
    "compare_predictors",
    "compare_technologies",
    "concatenate_traces",
    "detect_bursts",
    "evaluate_predictor",
    "generate_scenario_trace",
    "log_pdf",
    "mobile_variant",
    "operator_presets",
    "scale_trace",
    "trace_rate_bps",
    "validate_trace",
]
