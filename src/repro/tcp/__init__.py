"""TCP substrate: state tracking, Algorithm-4 estimator, flow simulator."""

from .connection import (
    BatchDownloadResult,
    BatchTCPConnection,
    DownloadResult,
    TCPConnection,
)
from .constants import (
    INIT_CWND_SEGMENTS,
    INITIAL_SSTHRESH_SEGMENTS,
    MAX_CWND_SEGMENTS,
    MSS_BYTES,
    RTO_MIN_SECONDS,
)
from .estimator import (
    estimate_download_time,
    estimate_throughput,
    estimate_throughput_grid_batch,
)
from .state import MutableTCPState, TCPStateSnapshot, apply_slow_start_restart

__all__ = [
    "BatchDownloadResult",
    "BatchTCPConnection",
    "DownloadResult",
    "INIT_CWND_SEGMENTS",
    "INITIAL_SSTHRESH_SEGMENTS",
    "MAX_CWND_SEGMENTS",
    "MSS_BYTES",
    "MutableTCPState",
    "RTO_MIN_SECONDS",
    "TCPConnection",
    "TCPStateSnapshot",
    "apply_slow_start_restart",
    "estimate_download_time",
    "estimate_throughput",
    "estimate_throughput_grid_batch",
]
