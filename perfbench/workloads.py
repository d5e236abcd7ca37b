"""Inputs of the sweep benchmark, derived from its ``--seed``.

Everything the benchmark feeds the system is defined here: the point grids
of the batch workloads, the job generator of ``service-mixed``, and the
canonical result rows whose digests are pinned in ``digests.json``.

The benchmark seed selects workload seeds from :data:`SPEC_SEEDS`, a fixed
pool, because every point a run can produce must have a digest pinned in
advance (``gen_digests.py`` computes them once with the ``object``
reference backend).  Seed 0 maps to 1999, the ``WorkloadSpec`` default, so
the default run is exactly what ``repro figure4``/``figure5`` simulate.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.kernels.base import ISA_VARIANTS
from repro.kernels.registry import get_kernel, kernel_names
from repro.sweep import SweepPoint
from repro.timing.config import MachineConfig
from repro.workloads.generators import WorkloadSpec

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")

#: Workload seeds a benchmark seed can select (``seed % len``).
SPEC_SEEDS = tuple(range(1999, 2007))

PAPER_WAYS = (1, 2, 4, 8)
FIG5_LATENCIES = (1, 12, 50)
FIG5_WAY = 4

DSE_KERNELS = ("idct", "motion1", "ltppar")
DSE_WAYS = (1, 2, 4, 8)
DSE_LATENCIES = tuple(range(1, 17))
#: dse-wide traces are this many times the kernel's default scale: long
#: enough that per-instruction cost dominates per-point cost, short enough
#: that a 64-config group stays inside the vector backend's memory budget.
DSE_SCALE_FACTOR = 3

#: service-mixed jobs draw their workload seed from this many pool seeds,
#: so jobs share points (result-store hits) as well as adding new ones.
SERVICE_SEED_POOL = 3
#: Job shapes of service-mixed, as (kernels, ways, latencies) per job.
SERVICE_SHAPES = tuple((k, w, l) for k in range(1, 5) for w in range(1, 5)
                       for l in (1, 2))
#: The order in which every service iteration submits its shapes.  In the
#: closed loop of two callers a job waits for the other caller's job, so
#: its latency is about the run times of two consecutive jobs added up.
#: A fixed order keeps which jobs are neighbours, and so the tail that
#: ``job_p90_s`` reads, the same for every seed and iteration; what each
#: job asks for is still drawn from the seed.
SERVICE_ORDER = tuple(random.Random("service-mixed:order").sample(
    SERVICE_SHAPES, len(SERVICE_SHAPES)))

#: Machine configurations, as (issue width, memory latency), of each digest
#: table, in the order their digests are stored.
TABLE_CONFIGS: Dict[str, Tuple[Tuple[int, int], ...]] = {
    "default": tuple((w, m) for w in PAPER_WAYS for m in FIG5_LATENCIES),
    "dse": tuple((w, m) for w in DSE_WAYS for m in DSE_LATENCIES),
}
TABLE_KERNELS = {"default": None, "dse": DSE_KERNELS}
DIGEST_HEX = 12


def spec_seed(seed: int, offset: int = 0) -> int:
    """The workload seed a benchmark seed selects."""
    return SPEC_SEEDS[(seed + offset) % len(SPEC_SEEDS)]


def table_spec(table: str, kernel: str, seed_value: int) -> WorkloadSpec:
    """The workload spec behind every point of one digest table."""
    scale = get_kernel(kernel).default_scale
    if table == "dse":
        scale *= DSE_SCALE_FACTOR
    return WorkloadSpec(scale=scale, seed=seed_value)


def grid(table: str, seed_value: int, kernels: Optional[Sequence[str]],
         configs: Sequence[Tuple[int, int]],
         isas: Sequence[str] = ISA_VARIANTS) -> List[SweepPoint]:
    """Points in ``SweepSpec`` expansion order: kernel, config, ISA."""
    machine = [MachineConfig.for_way(w, mem_latency=m) for w, m in configs]
    return [SweepPoint(kernel=k, isa=isa, config=c,
                       spec=table_spec(table, k, seed_value))
            for k in (kernels or kernel_names())
            for c in machine for isa in isas]


def paper_sweeps(seed: int, kernels: Optional[Sequence[str]] = None
                 ) -> List[List[SweepPoint]]:
    """The Figure 4 grid, then the Figure 5 grid (``repro figure4/5``)."""
    s = spec_seed(seed)
    return [grid("default", s, kernels, [(w, 1) for w in PAPER_WAYS]),
            grid("default", s, kernels,
                 [(FIG5_WAY, m) for m in FIG5_LATENCIES])]


def dse_sweeps(seed: int, kernels: Optional[Sequence[str]] = None,
               configs: Optional[Sequence[Tuple[int, int]]] = None
               ) -> List[List[SweepPoint]]:
    """One design-space sweep: 3 kernels x 4 ISAs x 64 configurations."""
    return [grid("dse", spec_seed(seed), kernels or DSE_KERNELS,
                 configs or TABLE_CONFIGS["dse"])]


def service_job(seed: int, index: int, tiny: bool = False) -> Dict:
    """Submission number ``index`` of the ``service-mixed`` job stream.

    A job is a random subset: ``k`` of the kernels, all 4 ISAs, ``w`` of
    the ways and ``l`` of the latencies, with a workload seed from a pool
    of :data:`SERVICE_SEED_POOL`.  Each run of :data:`SERVICE_SHAPES`
    consecutive jobs (one service iteration) has every shape ``(k, w, l)``
    once, in the order :data:`SERVICE_ORDER`, so every iteration asks for
    4 to 128 points per job in the same mix (37.5 on average).
    """
    position = index % len(SERVICE_ORDER)
    k, w, l = (1, 1, 1) if tiny else SERVICE_ORDER[position]
    rng = random.Random(f"service-mixed:{seed}:{index}")
    names = list(kernel_names())
    kernels = rng.sample(names, k)
    return {
        "kernels": [n for n in names if n in kernels],
        "ways": sorted(rng.sample(PAPER_WAYS, w)),
        "latencies": sorted(rng.sample(FIG5_LATENCIES, l)),
        "seed": spec_seed(seed, rng.randrange(SERVICE_SEED_POOL)),
    }


def canonical_row(kernel: str, isa: str, way: int, mem_latency: int,
                  sim: Dict) -> bytes:
    """The bytes a point's result must reproduce exactly."""
    return json.dumps({
        "kernel": kernel, "isa": isa, "way": way, "mem_latency": mem_latency,
        "cycles": sim["cycles"], "instructions": sim["instructions"],
        "operations": sim["operations"],
        "stall_breakdown": dict(sim["stall_breakdown"]),
    }, sort_keys=True, separators=(",", ":")).encode("utf-8")


def row_digest(row: bytes) -> str:
    return hashlib.sha256(row).hexdigest()[:DIGEST_HEX]


def sim_fields(sim) -> Dict:
    """The row fields of a ``SimResult``, as the service's JSON has them."""
    return {"cycles": sim.cycles, "instructions": sim.instructions,
            "operations": sim.operations,
            "stall_breakdown": sim.stall_breakdown}


def point_row(point: SweepPoint, sim) -> bytes:
    """Canonical row of an in-process result (``sim`` is a ``SimResult``)."""
    return canonical_row(point.kernel, point.isa, point.config.issue_width,
                         point.config.mem_latency, sim_fields(sim))


class Digests:
    """The pinned digest tables, looked up by point identity."""

    def __init__(self, path: str = DIGESTS_PATH) -> None:
        with open(path, "r", encoding="utf-8") as f:
            self.data = json.load(f)
        self.index = {table: {cfg: i for i, cfg in enumerate(configs)}
                      for table, configs in TABLE_CONFIGS.items()}

    def expected(self, table: str, seed_value: int, kernel: str, isa: str,
                 way: int, mem_latency: int) -> Optional[str]:
        try:
            column = self.index[table][(way, mem_latency)]
            return self.data["tables"][table][str(seed_value)][
                f"{kernel}/{isa}"][column]
        except KeyError:
            return None
