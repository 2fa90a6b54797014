"""Partition-and-conquer saturation: window decomposition, per-window
saturate + extract, and CEC-guarded stitching.

The monolithic engine caps out orders of magnitude below EPFL-scale inputs;
this package decomposes a host AIG into bounded windows (fanout-free cones
or structural level cuts), optimizes each window with the pipeline's own
``dag2eg``/``saturate``/``extract`` passes — optionally fanned out over a
process pool — and splices the survivors back, guarded by per-window and
whole-circuit SAT CEC.  See ``windows``/``optimize``/``stitch``/
``telemetry`` for the layers; ``emorphic partition-bench`` benches it
through the ``partition``/``stitch`` passes (:mod:`repro.pipeline.bench`).
"""

from repro.partition.optimize import (
    PartitionConfig,
    PartitionOutcome,
    PartitionPlan,
    optimize_window,
    partitioned_optimize,
    window_seed,
)
from repro.partition.stitch import splice_window, stitch_windows, window_round_trip
from repro.partition.telemetry import PartitionProfile, WindowReport
from repro.partition.windows import (
    PARTITION_METHODS,
    Window,
    check_partition,
    partition_aig,
)

__all__ = [
    "PARTITION_METHODS",
    "PartitionConfig",
    "PartitionOutcome",
    "PartitionPlan",
    "PartitionProfile",
    "Window",
    "WindowReport",
    "check_partition",
    "optimize_window",
    "partition_aig",
    "partitioned_optimize",
    "splice_window",
    "stitch_windows",
    "window_round_trip",
    "window_seed",
]
