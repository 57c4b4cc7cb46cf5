"""Deterministic link-level simulator of a 3-user downlink power-domain
NOMA OFDM system for connected-vehicle channels."""

__version__ = "0.1.0"

from .channel import (
    ChannelParams,
    ChannelRealization,
    MobilityState,
    apply_channel,
    doppler_shift,
    estimate_k_factor,
    generate_fading,
)
from .frame_codec import FrameConfig
from .noma import PowerAllocation, allocate_power_by_distance, build_downlink_frame
from .receiver import UserRxReport, receive_user
from .scenario import (
    BerCurve,
    MetricsTimeSeries,
    ScenarioConfig,
    StageHistogram,
    UserPath,
    run_v2x_scenario,
    snr_histogram,
    sweep_ber_vs_snr,
)

__all__ = [
    "__version__",
    "ChannelParams",
    "ChannelRealization",
    "MobilityState",
    "apply_channel",
    "doppler_shift",
    "estimate_k_factor",
    "generate_fading",
    "FrameConfig",
    "PowerAllocation",
    "allocate_power_by_distance",
    "build_downlink_frame",
    "UserRxReport",
    "receive_user",
    "BerCurve",
    "MetricsTimeSeries",
    "ScenarioConfig",
    "StageHistogram",
    "UserPath",
    "run_v2x_scenario",
    "snr_histogram",
    "sweep_ber_vs_snr",
]
