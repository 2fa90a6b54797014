"""The four flow-benchmark workloads: which circuits go through which flow.

Each workload aims at one layer of the E-morphic chain (AIG -> strash/SOP ->
dag2eg -> saturate -> extract -> eg2dag -> map -> CEC) so that a change to
that layer shows on one workload and not on the others; BENCHMARK.json and
README.md say why each was chosen and give the measured layer shares.
Circuits come from the deterministic benchgen generators at the ``test``
preset, so one pass of a workload takes a few seconds of pure Python and a
timed run repeats it several times and reports medians.

This module is plain data and imports nothing from the program, so the
benchmark's parent process can read it without importing ``repro``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Benchgen size preset of every workload circuit.
PRESET = "test"


@dataclass(frozen=True)
class Workload:
    """One workload: circuits plus the flow every one of them goes through.

    ``script`` is a pipeline script run through ``Pipeline.run_flow``, with
    ``{seed}`` replaced by the workload seed.  ``script=None`` means the
    canonical E-morphic flow through ``run_emorphic_flow`` with
    ``EmorphicConfig(seed=seed, **config)``.
    """

    name: str
    circuits: Tuple[str, ...]
    script: Optional[str] = None
    config: Tuple[Tuple[str, object], ...] = ()

    def script_for(self, seed: int) -> str:
        """The pipeline script with the workload seed filled in."""
        return self.script.format(seed=seed)

    def config_for(self, seed: int) -> Dict[str, object]:
        """``EmorphicConfig`` overrides for the canonical flow (seed included)."""
        return {**dict(self.config), "seed": seed}


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="paper-flow",
            circuits=("log2",),
            # Paper defaults except the iteration count: at this circuit size
            # the fourth and fifth iterations of the default matcher would make
            # saturation, not mapping, the dominant layer.
            config=(("rewrite_iterations", 3),),
        ),
        Workload(
            name="saturate-deep",
            circuits=("hyp",),
            # Deterministic: the seed is only recorded.  The time limit is far
            # beyond the run so the stop reason never depends on machine speed.
            script="st; dag2eg; saturate(iters=4, max_nodes=150000, time_limit=600); extract(greedy); map",
        ),
        Workload(
            name="extract-wide",
            circuits=("hyp", "sin"),
            script=(
                "st; dag2eg; saturate(iters=2, max_nodes=40000); "
                "extract(sa, threads=8, iters=32, moves=16, migrate_every=64, seed={seed}); map"
            ),
        ),
        Workload(
            name="partition-windows",
            circuits=("arbiter", "hyp", "log2", "sin"),
            script=(
                "st; partition(k=30, seed={seed}, workers=2); saturate(iters=3, max_nodes=8000); "
                "extract(sa, threads=2, seed={seed}); stitch; map"
            ),
        ),
    )
}
