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
from .frame_codec import (
    FrameConfig,
    assemble_frame,
    disassemble_symbol,
    qam_demodulate,
    qam_modulate,
)
from .noma import (
    PowerAllocation,
    allocate_power_by_distance,
    build_downlink_frame,
    sic_decode,
    superpose,
)
from .receiver import (
    SyncEstimate,
    UserRxReport,
    cp_ml_sync,
    correct_cfo,
    evm_snr,
    ls_estimate_channel,
    receive_user,
    zf_equalize,
)
from .scenario import (
    BerCurve,
    MetricsTimeSeries,
    ScenarioConfig,
    UserPath,
    compute_ber,
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
    "assemble_frame",
    "disassemble_symbol",
    "qam_demodulate",
    "qam_modulate",
    "PowerAllocation",
    "allocate_power_by_distance",
    "build_downlink_frame",
    "sic_decode",
    "superpose",
    "SyncEstimate",
    "UserRxReport",
    "cp_ml_sync",
    "correct_cfo",
    "evm_snr",
    "ls_estimate_channel",
    "receive_user",
    "zf_equalize",
    "BerCurve",
    "MetricsTimeSeries",
    "ScenarioConfig",
    "UserPath",
    "compute_ber",
    "run_v2x_scenario",
    "snr_histogram",
    "sweep_ber_vs_snr",
]
