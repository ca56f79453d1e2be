"""Fixed-size throughput probe of ``pair_kernel_sum`` (traced runs only).

The probe sums over the node set of the avg-lattice ball region at two
sizes, h = 0.04 (1,957 nodes, 1.9M pairs) and h = 0.02 (7,841
nodes, 30.7M pairs, a working set far past a 2 MiB L2), each at 1 and 2
workers with the default block, and checks that both worker counts give
bit-identical sums.
"""

from __future__ import annotations

import statistics
import time

from splab import _pairsum, harness
from splab.energy import FractionalParams, Region

SIZES = (("n2k", 0.04, 5), ("n8k", 0.02, 2))  # (label, spacing, repeats)
PARAMS = FractionalParams(s=0.4, p=1.5)


def ball_nodes(spacing: float):
    u = harness.identity_map_2d(spacing)
    mask = Region.from_ball((0.0, 0.0), 1.0).mask(u.grid)
    return u.grid.nodes()[mask], u.values[mask]


def pairsum_probe() -> tuple[dict, list]:
    metrics, checks = {}, []
    q = 2 + PARAMS.sp
    for label, spacing, repeats in SIZES:
        pts, vals = ball_nodes(spacing)
        n = pts.shape[0]
        mpairs = {}
        sums = {}
        for workers in (1, 2):
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                sums[workers] = _pairsum.pair_kernel_sum(pts, vals, PARAMS.p, q, workers=workers)
                times.append(time.perf_counter() - t0)
            mpairs[workers] = n * (n - 1) / 2 / statistics.median(times) / 1e6
            metrics[f"pairsum.probe.{label}.w{workers}.mpairs_per_s"] = mpairs[workers]
        metrics[f"pairsum.probe.{label}.scaling_eff"] = mpairs[2] / (2 * mpairs[1])
        checks.append((f"probe {label}: workers 1 and 2 bit-identical", sums[1] == sums[2]))
    return metrics, checks
