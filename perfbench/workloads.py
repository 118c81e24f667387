"""The benchmark's workloads: each one turns a workload seed into a run list.

A run list is a list of (ScenarioConfig, run seed) pairs.  The program only
ever receives those pairs; the workload seed stays inside the benchmark.
Every deployment seed of a pass runs each of the workload's scenarios, so the
protocols of one workload are compared on the same deployments.
"""

import random
from dataclasses import dataclass, replace

from regionsim.scenario import ScenarioConfig

DEFAULT = ScenarioConfig()
DENSE = ScenarioConfig(node_count=280, sim_duration_s=1200.0)
SPARSE = ScenarioConfig(
    area_width=640.0,
    area_height=640.0,
    node_count=1120,
    radio_range=60.0,
    sim_duration_s=1200.0,
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: tuple[ScenarioConfig, ...]
    # deployment seeds per pass, each running every config once.  The cost of
    # a run depends on its deployment (mte on the default field took 4.1 to
    # 5.5 s over four deployments), so a pass averages several; the pass
    # still fits about once or more in a 40 s measurement on a 2-core x86
    # host (default-baselines about 24 s, scale about 29 s)
    deployments: int

    def run_list(self, seed: int) -> list[tuple[ScenarioConfig, int]]:
        rng = random.Random(f"{self.name}:{seed}")
        run_seeds = rng.sample(range(1, 1_000_000), self.deployments)
        return [(config, s) for s in run_seeds for config in self.configs]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "default-res",
            "the paper's protocol on the default field: flood setup plus a "
            "sparse, duty-cycled event loop",
            (DEFAULT,),
            deployments=2,
        ),
        Workload(
            "default-baselines",
            "dt/mte/merr/or on the default field: no flood, a heavy event loop "
            "where every sensor senses and dies",
            tuple(replace(DEFAULT, protocol=p) for p in ("dt", "mte", "merr", "or")),
            deployments=3,
        ),
        Workload(
            "scale",
            "res on a 280-sensor near-complete graph (flood-bound) and on 1120 "
            "sparse sensors (graph, dual, tables), plus mte on 62-hop routes",
            (DENSE, SPARSE, replace(SPARSE, protocol="mte")),
            deployments=2,
        ),
    )
}


def warmup_list(workload: Workload) -> list[tuple[ScenarioConfig, int]]:
    """A tiny run per protocol of the workload, to touch every code path once."""
    protocols = dict.fromkeys(c.protocol for c in workload.configs)
    tiny = ScenarioConfig(
        area_width=80.0,
        area_height=80.0,
        node_count=16,
        sink_x=60.0,
        sink_y=20.0,
        sessions=3,
        sim_duration_s=120.0,
        init_phase_s=10.0,
        report_interval_s=60.0,
    )
    return [(replace(tiny, protocol=p), 1) for p in protocols]
