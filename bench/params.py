"""Sizes and tolerances of the workloads, shared by the rounds and the checks."""

# FLOW_SAMPLING draws routes multinomially, so with 100 draws the route
# weights, and with them the fixed point's iteration count, swing by a factor
# of three between seeds (115 to 329 iterations for the same network).  At
# 20000 draws they stay within a few percent, while the distinct routes, and
# so the LP work per iteration, are unchanged.  The populations are enlarged
# for the same reason.
ND_SAMPLES = 20_000
POPULATION_AGENTS = 20_000
ND_PRICED = (1, 7)
ND_TOL = 1e-7           # the CLI's recover-duals default
COST_PRIOR = 0.5        # the README's estimate-costs example
COST_TOL = 1e-3         # the CLI's estimate-costs default
GRID_SIDE = 8
GRID_ARRIVALS = 16
GRID_MIN_HOPS = 8
