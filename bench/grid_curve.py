"""Time one price-inverse solve on synthetic k-by-k grids: the scaling curve.

Usage, from the root of a checkout::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 bench/grid_curve.py 4 6 8 10 12
    PYTHONPATH=src python3 bench/grid_curve.py 4 6 8 10      # default BLAS threads

For each size it builds the benchmark's grid (seed 1), prices every link
from a zero prior, and times ``infer_dual_prices`` for a congested route
between opposite corners, the largest OD distance the grid has.  It prints
one line per size: links, LP rows, pivots and the wall time of the solve.
This is a reference measurement for the README, not part of the benchmark
run.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from netinverse import inverse, network, simplex
from workloads import congested_route, grid_network, grid_node


def main() -> int:
    sizes = [int(a) for a in sys.argv[1:]] or [4, 6, 8, 10, 12]
    pivots = []
    solve = simplex.solve

    def counting_solve(lp):
        result = solve(lp)
        pivots.append((lp.num_constraints, result.pivots))
        return result

    inverse.solve = counting_solve
    print("grid   links  rows  pivots  solve_s")
    for k in sizes:
        rng = np.random.default_rng(1)
        net = grid_network(k, rng)
        route = congested_route(net, rng, grid_node(0, 0), grid_node(k - 1, k - 1))
        priced = network.CapacitySpec.priced_only(l.id for l in net.links)
        prior = {l.id: 0.0 for l in net.links}
        pivots.clear()
        start = time.perf_counter()
        inverse.infer_dual_prices(net, net.base_costs(), priced, prior, route)
        elapsed = time.perf_counter() - start
        print(f"{k:2d}x{k:<2d} {len(net.links):6d} {pivots[0][0]:5d} "
              f"{sum(p for _, p in pivots):7d} {elapsed:8.3f}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
