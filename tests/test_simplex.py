"""LP kernel: correctness against a vertex-enumeration oracle, duals, determinism."""

import dataclasses
import itertools
import logging
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse

from netinverse import inverse, simplex
from netinverse.errors import SolverError
from netinverse.network import CapacitySpec, Link, Network, Path, enumerate_paths
from netinverse.simplex import FEAS_TOL, GAP_TOL, LinearProgram, Status, solve
from test_inverse import grid


def brute_force_minimum(lp: LinearProgram) -> float | None:
    """Exhaustive vertex enumeration over basic feasible solutions.

    Converts to the same equality standard form (slack per inequality) and
    evaluates every basis.  Only suitable for tiny bounded-feasible
    instances; returns None when no feasible basis exists.
    """

    n = lp.num_variables
    cols: list[np.ndarray] = []
    costs: list[float] = []
    m = lp.num_constraints
    for j in range(n):
        col = np.zeros(m)
        for i, con in enumerate(lp._constraints):
            for k, a in con.coeffs:
                if k == j:
                    col[i] = a
        cols.append(col)
        costs.append(lp._objective[j])
    for i, con in enumerate(lp._constraints):
        if con.relation == "<=":
            e = np.zeros(m)
            e[i] = 1.0
            cols.append(e)
            costs.append(0.0)
    a = np.column_stack(cols)
    b = lp._rhs.copy()
    c = np.array(costs)
    best = None
    for basis in itertools.combinations(range(a.shape[1]), m):
        sub = a[:, basis]
        if abs(np.linalg.det(sub)) < 1e-9:
            continue
        x = np.linalg.solve(sub, b)
        if np.all(x >= -1e-9):
            value = float(c[list(basis)] @ x)
            if best is None or value < best:
                best = value
    return best


def highs_minimum(lp: LinearProgram) -> float:
    """The minimum of ``lp`` by scipy's HiGHS, an oracle apart from the kernel."""

    from scipy.optimize import linprog

    rows = {"<=": ([], []), "=": ([], [])}
    for con, rhs in zip(lp._constraints, lp._rhs.tolist()):
        row = np.zeros(lp.num_variables)
        for j, a in con.coeffs:
            row[j] = a
        rows[con.relation][0].append(row)
        rows[con.relation][1].append(rhs)
    (a_ub, b_ub), (a_eq, b_eq) = rows["<="], rows["="]
    res = linprog(
        lp._objective,
        A_ub=np.array(a_ub) if a_ub else None, b_ub=b_ub or None,
        A_eq=np.array(a_eq) if a_eq else None, b_eq=b_eq or None,
        bounds=(0.0, None), method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, res.message
    return float(res.fun)


def assert_same_answer(resolved, fresh, unique=True, tol=1e-9):
    """A re-solve answers as a fresh solve: the same status, and objective to ``tol``.

    The values agree to ``tol`` too where the optimum is ``unique``; among
    tied optima a re-solve may end at another vertex than a fresh solve.
    """

    assert resolved.status is fresh.status
    if fresh.status is Status.OPTIMAL:
        assert resolved.objective == pytest.approx(fresh.objective, rel=tol, abs=tol)
        if unique:
            assert resolved.primal == pytest.approx(fresh.primal, rel=tol, abs=tol)


def add_general_row(lp: LinearProgram, coeffs: dict, relation: str, rhs: float) -> int:
    """Add ``coeffs . x <relation> rhs`` for ``relation`` ``<=``, ``>=`` or ``=`` and any ``rhs``.

    The kernel takes ``<=`` and ``=`` rows with right-hand sides ``>= 0``: a
    row with a negative right-hand side is negated, and a row that bounds its
    left-hand side below is an ``=`` row with a surplus variable ``s<row>``.
    """

    if rhs < 0:
        coeffs, rhs = {j: -a for j, a in coeffs.items()}, -rhs
        relation = {"<=": ">=", ">=": "<=", "=": "="}[relation]
    if relation == ">=":
        coeffs = {**coeffs, lp.add_variable(f"s{lp.num_constraints}"): -1.0}
        relation = "="
    return lp.add_constraint(coeffs, relation, rhs)


def random_bounded_lp(rng: np.random.Generator) -> LinearProgram:
    """Random feasible LP, bounded below by construction (c >= 0, x >= 0).

    Its rows are written by :func:`add_general_row`, so that a row of either
    sign that bounds its left-hand side below is an ``=`` row phase 1 starts
    from an artificial.
    """

    n = int(rng.integers(2, 6))
    m = int(rng.integers(2, 6))
    lp = LinearProgram()
    x = [lp.add_variable(f"x{j}", cost=float(rng.uniform(0, 5))) for j in range(n)]
    point = rng.uniform(0, 3, size=n)  # kept feasible for every row
    equalities = 0
    for i in range(m):
        coeffs = {x[j]: float(rng.uniform(-3, 3)) for j in range(n)}
        lhs = sum(coeffs[x[j]] * point[j] for j in range(n))
        relation = str(rng.choice(["<=", ">=", "="]))
        if relation == "=" and equalities >= n - 1:
            relation = "<="  # keep the basis-enumeration oracle applicable
        if relation == "<=":
            rhs = lhs + float(rng.uniform(0, 2))
        elif relation == ">=":
            rhs = lhs - float(rng.uniform(0, 2))
        else:
            equalities += 1
            rhs = lhs
        add_general_row(lp, coeffs, relation, rhs)
    return lp


class TestBasics:
    def test_lower_bound_constraint_and_dual(self):
        lp = LinearProgram()
        x = lp.add_variable("x", cost=1.0)
        s = lp.add_variable("s")
        lp.add_constraint({x: 1.0, s: -1.0}, "=", 3.0)  # x >= 3: an = row with a surplus
        sol = solve(lp)
        assert sol.status is Status.OPTIMAL
        assert abs(sol.objective - 3.0) < 1e-9
        assert abs(sol["x"] - 3.0) < 1e-9
        assert abs(sol.duals[0] - 1.0) < 1e-9

    def test_benchmark_shortest_route_lp(self, nd_net):
        """Node-arc form of the cheapest route for one OD pair: objective 29."""

        lp = LinearProgram()
        x = {
            link.id: lp.add_variable(f"x{link.id}", cost=link.base_cost)
            for link in nd_net.links
        }
        for node in sorted(nd_net.nodes):
            # outflow minus inflow; at the destination inflow minus outflow, so that rhs >= 0
            sign = -1.0 if node == "2" else 1.0
            coeffs: dict[int, float] = {}
            for link in nd_net.links:
                if link.tail == node:
                    coeffs[x[link.id]] = coeffs.get(x[link.id], 0.0) + sign
                if link.head == node:
                    coeffs[x[link.id]] = coeffs.get(x[link.id], 0.0) - sign
            lp.add_constraint(coeffs, "=", 1.0 if node in ("1", "2") else 0.0)
        sol = solve(lp)
        assert sol.status is Status.OPTIMAL
        assert abs(sol.objective - 29.0) < 1e-9
        used = {lid for lid, j in x.items() if sol.primal[f"x{lid}"] > 0.5}
        assert used == {1, 5, 7, 9, 11}

    def test_infeasible(self):
        lp = LinearProgram()
        x = lp.add_variable("x", cost=1.0)
        s = lp.add_variable("s")
        lp.add_constraint({x: 1.0}, "<=", 1.0)
        lp.add_constraint({x: 1.0, s: -1.0}, "=", 2.0)  # x >= 2
        sol = solve(lp)
        assert sol.status is Status.INFEASIBLE

    def test_unbounded(self):
        lp = LinearProgram()
        lp.add_variable("x", cost=-1.0)
        sol = solve(lp)
        assert sol.status is Status.UNBOUNDED

    def test_free_variable_equality(self):
        """A free quantity is the difference of two variables, ``y = y+ - y-``."""

        lp = LinearProgram()
        y = lp.add_variable("y+")
        lp.add_variable("y-")  # index y + 1
        e = lp.add_variable("e", cost=1.0)
        f = lp.add_variable("f", cost=1.0)
        # y + e - f = -2, negated so that its right-hand side is >= 0
        lp.add_constraint({y: -1.0, y + 1: 1.0, e: -1.0, f: 1.0}, "=", 2.0)
        sol = solve(lp)
        assert sol.status is Status.OPTIMAL
        assert abs(sol.objective) < 1e-12
        assert abs(sol["y+"] - sol["y-"] + 2.0) < 1e-12

    def test_degenerate_cycling_instance(self):
        """A classically cycling-prone instance must terminate at -0.05."""

        lp = LinearProgram()
        v = [
            lp.add_variable(f"x{i}", cost=c)
            for i, c in enumerate([-0.75, 150.0, -0.02, 6.0], 1)
        ]
        lp.add_constraint({v[0]: 0.25, v[1]: -60.0, v[2]: -0.04, v[3]: 9.0}, "<=", 0.0)
        lp.add_constraint({v[0]: 0.5, v[1]: -90.0, v[2]: -0.02, v[3]: 3.0}, "<=", 0.0)
        lp.add_constraint({v[2]: 1.0}, "<=", 1.0)
        sol = solve(lp)
        assert sol.status is Status.OPTIMAL
        assert abs(sol.objective + 0.05) < 1e-9

    def test_redundant_equalities_dropped(self):
        lp = LinearProgram()
        x = lp.add_variable("x", cost=1.0)
        y = lp.add_variable("y", cost=1.0)
        lp.add_constraint({x: 1.0, y: 1.0}, "=", 2.0)
        lp.add_constraint({x: 2.0, y: 2.0}, "=", 4.0)
        sol = solve(lp)
        assert sol.status is Status.OPTIMAL
        assert abs(sol.objective - 2.0) < 1e-9

    def test_builder_validation(self):
        lp = LinearProgram()
        lp.add_variable("x")
        with pytest.raises(Exception, match="duplicate variable"):
            lp.add_variable("x")
        with pytest.raises(Exception, match="undeclared"):
            lp.add_constraint({5: 1.0}, "<=", 1.0)
        with pytest.raises(Exception, match="relation"):
            lp.add_constraint({0: 1.0}, "<", 1.0)
        # every variable is nonnegative and every row bounds its left-hand side above or both ways
        with pytest.raises(SolverError, match="unknown relation '>='"):
            lp.add_constraint({0: 1.0}, ">=", 1.0)
        with pytest.raises(TypeError, match="free"):
            lp.add_variable("y", free=True)
        assert lp.num_variables == 1 and lp.num_constraints == 0

    @pytest.mark.parametrize("cost", [math.nan, math.inf, -math.inf])
    def test_non_finite_objective_is_refused(self, cost):
        """``set_objective`` refuses a cost ``add_variable`` refuses, and changes nothing."""

        lp = LinearProgram()
        x = lp.add_variable("x", cost=1.0)
        lp.add_variable("y", cost=1.0)
        s = lp.add_variable("s")
        lp.add_constraint({x: 1.0, s: -1.0}, "=", 3.0)
        first = solve(lp)  # it keeps the form, the final basis and its LU
        std, final = lp._std, lp._final
        with pytest.raises(SolverError, match=f"variable 'y' has non-finite cost {cost!r}"):
            lp.set_objective({x: 2.0, 1: cost})
        assert lp._objective == [1.0, 1.0, 0.0] and lp._std is std and lp._final is final
        assert solve(lp) == dataclasses.replace(first, pivots=0)

    def test_dump_is_readable(self):
        lp = LinearProgram()
        x = lp.add_variable("x", cost=2.0)
        s = lp.add_variable("s")
        lp.add_constraint({x: 1.0, s: -1.0}, "=", 3.0, name="floor")
        text = lp.dump()
        assert "min" in text and "floor: +1*x -1*s = 3" in text and "s >= 0" in text


class TestOracleAgreement:
    def test_random_small_lps(self):
        """Objective agreement with exhaustive basis enumeration, 40 instances."""

        rng = np.random.default_rng(20240817)
        checked = 0
        for _ in range(40):
            lp = random_bounded_lp(rng)
            expected = brute_force_minimum(lp)
            sol = solve(lp)
            if expected is None:
                assert sol.status is Status.INFEASIBLE
                continue
            assert sol.status is Status.OPTIMAL
            assert abs(sol.objective - expected) < 1e-7 * (1 + abs(expected))
            checked += 1
        assert checked >= 30  # construction makes almost every instance feasible


class TestCertificates:
    def test_duality_gap_and_feasibility_on_corpus(self):
        rng = np.random.default_rng(99)
        for _ in range(30):
            lp = random_bounded_lp(rng)
            sol = solve(lp)
            if sol.status is not Status.OPTIMAL:
                continue
            assert abs(sol.objective - sol.dual_objective) <= GAP_TOL * (
                1 + abs(sol.objective)
            )
            x = [sol.primal[lp.variable_name(j)] for j in range(lp.num_variables)]
            for con, rhs in zip(lp._constraints, lp._rhs.tolist()):
                lhs = sum(a * x[k] for k, a in con.coeffs)
                if con.relation == "<=":
                    assert lhs - rhs <= FEAS_TOL * max(1, abs(rhs))
                else:
                    assert abs(lhs - rhs) <= FEAS_TOL * max(1, abs(rhs))

    def test_dual_signs_and_complementary_slackness(self):
        lp = LinearProgram()
        x = lp.add_variable("x", cost=-3.0)
        y = lp.add_variable("y", cost=-5.0)
        r1 = lp.add_constraint({x: 1.0}, "<=", 4.0)        # slack at optimum
        r2 = lp.add_constraint({y: 2.0}, "<=", 12.0)       # binding
        r3 = lp.add_constraint({x: 3.0, y: 2.0}, "<=", 18.0)  # binding
        sol = solve(lp)
        assert sol.status is Status.OPTIMAL
        assert abs(sol.objective + 36.0) < 1e-9
        assert abs(sol.duals[r1]) < 1e-9          # nonbinding row has zero price
        assert sol.duals[r2] < 0 and sol.duals[r3] < 0
        assert abs(sol.duals[r2] + 1.5) < 1e-9
        assert abs(sol.duals[r3] + 1.0) < 1e-9

    def test_determinism_byte_identical(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            lp_spec = random_bounded_lp(rng)
            first = solve(lp_spec)
            second = solve(lp_spec)
            assert first.status is second.status
            if first.status is Status.OPTIMAL:
                assert first.primal == second.primal
                assert first.duals == second.duals
                assert first.objective == second.objective


def grid_price_inverse(k: int, rng: np.random.Generator, prior=None):
    """First-stage price-inverse LP on a bidirectional k-by-k grid, as the inverse builds it.

    Every link is priced, from a zero prior unless ``prior`` gives one value
    per link (in the order the links are built), and the observed route runs
    along two edges of the grid between opposite corners, so it has to be
    priced into optimality against many shorter alternatives.  The LP is
    :func:`netinverse.inverse._build`'s, with the right-hand sides
    ``_inverse`` writes: each link's ``feas`` row its cost plus its prior,
    each ``nonneg`` row its prior.  Returns the LP with its decrease and
    increase variables.
    """

    links = []
    for i in range(k):
        for j in range(k):
            for ni, nj in ((i + 1, j), (i, j + 1)):
                if ni < k and nj < k:
                    cost = float(rng.integers(5, 16))
                    links.append((f"{i}.{j}", f"{ni}.{nj}", cost))
                    links.append((f"{ni}.{nj}", f"{i}.{j}", cost))
    if prior is None:
        prior = [0.0] * len(links)
    net = Network(Link(n + 1, tail, head, cost) for n, (tail, head, cost) in enumerate(links))
    index = {(tail, head): n + 1 for n, (tail, head, _) in enumerate(links)}
    route = [f"0.{j}" for j in range(k)] + [f"{i}.{k - 1}" for i in range(1, k)]
    observed = Path(route[0], route[-1], tuple(index[hop] for hop in zip(route, route[1:])))
    lp = inverse._build(net, [l.id for l in net.links], observed)
    lp.set_rhs(0, [cost + p for (_, _, cost), p in zip(links, prior)] + list(prior))
    e = list(range(0, 2 * len(links), 2))  # e[l] and f[l] of the n-th link: 2n and 2n + 1
    return lp, e, [j + 1 for j in e]


class TestProductFormUpdates:
    @staticmethod
    def assert_same_as_refactorising(lp, monkeypatch):
        """Solve with the default update interval and, fresh, with one LU per pivot."""

        updated = solve(lp)
        with monkeypatch.context() as m:
            m.setattr(simplex, "_REFACTOR_EVERY", 1)
            refactorised = solve(lp.copy())
        assert updated.status is Status.OPTIMAL
        assert updated.status is refactorised.status
        assert updated.pivots == refactorised.pivots
        assert updated.primal == refactorised.primal
        assert updated.duals == refactorised.duals
        assert updated.objective == refactorised.objective
        assert updated.dual_objective == refactorised.dual_objective
        return updated

    def test_updates_match_refactorising_every_pivot(self, monkeypatch):
        lp, e, f = grid_price_inverse(6, np.random.default_rng(1))
        first = self.assert_same_as_refactorising(lp, monkeypatch)
        # a second stage pinning the first's objective, as its own program
        lp.add_constraint({j: 1.0 for j in e + f}, "<=", first.objective)
        lp.set_objective({j: 1.0 for j in e})
        second = self.assert_same_as_refactorising(lp, monkeypatch)
        assert first.pivots + second.pivots > 4 * simplex._REFACTOR_EVERY


class TestBlandRestart:
    def test_first_failure_reason_is_logged(self, monkeypatch, caplog):
        lp = LinearProgram()
        x = lp.add_variable("x", cost=1.0)
        s = lp.add_variable("s")
        lp.add_constraint({x: 1.0, s: -1.0}, "=", 3.0)
        real = simplex._solve_once
        attempts = []

        def fail_first(lp, force_bland):
            attempts.append(force_bland)
            if len(attempts) == 1:
                raise SolverError("row 0 violated by 0.001")
            return real(lp, force_bland)

        monkeypatch.setattr(simplex, "_solve_once", fail_first)
        with caplog.at_level(logging.WARNING, logger="netinverse.simplex"):
            sol = solve(lp)
        assert sol.status is Status.OPTIMAL
        assert attempts == [False, True]
        records = [r for r in caplog.records if r.name == "netinverse.simplex"]
        assert len(records) == 1
        assert records[0].levelno == logging.WARNING
        assert "row 0 violated by 0.001" in records[0].getMessage()

    def test_no_warning_without_restart(self, caplog):
        lp = LinearProgram()
        x = lp.add_variable("x", cost=1.0)
        s = lp.add_variable("s")
        lp.add_constraint({x: 1.0, s: -1.0}, "=", 3.0)
        with caplog.at_level(logging.WARNING, logger="netinverse.simplex"):
            assert solve(lp).status is Status.OPTIMAL
        assert not [r for r in caplog.records if r.name == "netinverse.simplex"]


def well_conditioned(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((n, n)) + n * np.eye(n)


class TestLapackKernel:
    """The direct ``getrf``/``getrs`` helpers against scipy's wrappers."""

    @pytest.mark.parametrize("n", [5, 20, 450])
    @pytest.mark.parametrize("trans", [0, 1])
    def test_bit_identical_to_scipy(self, n, trans):
        from scipy.linalg import lu_factor, lu_solve

        rng = np.random.default_rng(n)
        a = well_conditioned(n, rng)
        b = rng.standard_normal(n)
        expected = lu_factor(a)
        lu = simplex._lu_factor(a)
        assert np.array_equal(lu[0], expected[0])
        assert np.array_equal(lu[1], expected[1])
        assert np.array_equal(simplex._lu_solve(lu, b, trans), lu_solve(expected, b, trans))

    def test_singular_matrix_raises(self):
        with pytest.raises(SolverError, match="singular"):
            simplex._lu_factor(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_non_finite_input_raises(self):
        a = well_conditioned(5, np.random.default_rng(0))
        lu = simplex._lu_factor(a)
        rhs = np.ones(5)
        rhs[2] = np.nan
        with pytest.raises(SolverError, match="non-finite"):
            simplex._lu_solve(lu, rhs)
        with pytest.raises(SolverError, match="non-finite"):
            simplex._lu_solve(lu, rhs, trans=1)
        a[1, 3] = np.inf
        with pytest.raises(SolverError, match="non-finite"):
            simplex._lu_factor(a)

    def test_every_row_redundant_leaves_an_empty_basis(self):
        lp = LinearProgram()
        x = lp.add_variable("x", cost=1.0)
        lp.add_constraint({x: 0.0}, "=", 0.0)
        sol = solve(lp)
        assert sol.status is Status.OPTIMAL
        assert sol.primal == {"x": 0.0} and sol.duals == (0.0,)

    def test_nan_rhs_is_a_numerical_failure(self, monkeypatch):
        real = simplex._standardize

        def poisoned(lp):
            std = real(lp)
            std.b[0] = np.nan
            return std

        monkeypatch.setattr(simplex, "_standardize", poisoned)
        assert solve(self.two_row_lp()).status is Status.NUMERICAL_FAILURE

    def test_singular_factor_is_a_numerical_failure(self, monkeypatch):
        real = simplex._getrf

        def zero_pivot(a):
            lu, piv, _ = real(a)
            return lu, piv, 1

        monkeypatch.setattr(simplex, "_getrf", zero_pivot)
        assert solve(self.two_row_lp()).status is Status.NUMERICAL_FAILURE

    @staticmethod
    def two_row_lp() -> LinearProgram:
        lp = LinearProgram()
        x = lp.add_variable("x", cost=1.0)
        s = lp.add_variable("s")
        lp.add_constraint({x: 1.0}, "<=", 3.0)
        lp.add_constraint({x: 1.0, s: -1.0}, "=", 1.0)  # x >= 1
        return lp


def reference_standardize(lp: LinearProgram):
    """Row-by-row standard form: one zero row per constraint, then a stack."""

    std = simplex._standardize(lp)
    n = lp.num_variables  # one column per variable: a free quantity is two variables
    rows, rhs, relations = [], [], []
    for con, con_rhs in zip(lp._constraints, lp._rhs.tolist()):
        row = np.zeros(n)
        for j, a in con.coeffs:
            row[j] += a
        rows.append(row)
        rhs.append(con_rhs)
        relations.append(con.relation)
    slacks = [r for r in relations if r != "="]
    a = np.zeros((len(rows), n + len(slacks)))
    if rows:
        a[:, :n] = np.vstack(rows)
    k = n
    for i, rel in enumerate(relations):
        if rel != "=":
            a[i, k] = 1.0
            k += 1
    return std, a, np.asarray(rhs, dtype=float)


def random_bounds_lp(rng: np.random.Generator) -> LinearProgram:
    """A random LP over nonnegative variables, with signed zero coefficients.

    Its rows are written by :func:`add_general_row`, so some get a surplus
    variable.
    """

    lp = LinearProgram()
    n = int(rng.integers(1, 6))
    for j in range(n):
        lp.add_variable(f"x{j}", cost=float(rng.uniform(-2, 2)))
    for _ in range(int(rng.integers(0, 6))):
        picked = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        coeffs = {int(j): float(rng.choice([0.0, -0.0, rng.uniform(-3, 3)])) for j in picked}
        add_general_row(lp, coeffs, str(rng.choice(["<=", "="])), float(rng.uniform(-4, 4)))
    return lp


class TestStandardForm:
    def test_one_matrix_equals_row_by_row_build(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            std, a, b = reference_standardize(random_bounds_lp(rng))
            dense = std.a.toarray()
            real, artificial = dense[:, : std.n_real], dense[:, std.n_real :]
            assert np.array_equal(real, a)
            # every stored entry carries the sign bit the row-by-row build gives it
            stored = std.a[:, : std.n_real].tocoo()
            assert np.array_equal(np.signbit(stored.data), np.signbit(a[stored.row, stored.col]))
            assert np.array_equal(std.b, b) and np.array_equal(np.signbit(std.b), np.signbit(b))
            # one artificial column per row phase 1 cannot start from a slack of
            rows = [i for i, col in enumerate(std.basis) if col >= std.n_real]
            assert np.array_equal(artificial[rows], np.eye(len(rows)))
            assert all(a[i, col] == 1.0 for i, col in enumerate(std.basis) if col < std.n_real)

    def test_array_certificate_pieces_equal_loops_over_variables_and_rows(self):
        """The reduced costs to rounding, against loops."""

        rng = np.random.default_rng(8)
        for _ in range(40):
            lp = random_bounds_lp(rng)
            std = simplex._standardize(lp)
            duals = rng.uniform(-2, 2, lp.num_constraints)
            reduced = list(lp._objective)
            for i, con in enumerate(lp._constraints):
                for j, a in con.coeffs:
                    reduced[j] -= duals[i] * a
            reduced_costs = (std.c[0] - std.at @ duals)[: lp.num_variables]
            assert reduced_costs.tolist() == pytest.approx(reduced, rel=1e-12, abs=1e-12)


def verify(std, sol: simplex.LpSolution, k: int = 0, fixed=()) -> None:
    """``_verify`` on a solution's values for objective ``k``, as a solve hands them over.

    ``fixed`` lists the columns (variables, then ``<=`` rows' slacks) fixed at zero.
    """

    x = np.array([sol.primal[name] for name in std.names], dtype=float)
    y = np.array(sol.duals, dtype=float)
    free = np.ones(std.n_real, dtype=bool)
    free[list(fixed)] = False
    reduced = (std.c[k] - std.at @ y)[: len(x)]
    simplex._verify(
        std, k, free[None], x, y[None], reduced[None], [sol.objective], [sol.dual_objective]
    )


class TestVerify:
    def test_nan_certificate_is_rejected(self):
        lp = LinearProgram()
        x = lp.add_variable("x", cost=1.0)
        s = lp.add_variable("s")
        lp.add_constraint({x: 1.0, s: -1.0}, "=", 3.0)
        std = simplex._standardize(lp)
        nan = math.nan
        sol = simplex.LpSolution(Status.OPTIMAL, nan, {"x": nan, "s": nan}, (nan,), nan)
        with pytest.raises(SolverError, match="non-finite"):
            verify(std, sol)
        # one non-finite value among finite ones is enough
        sol = simplex.LpSolution(Status.OPTIMAL, 3.0, {"x": 3.0, "s": 0.0}, (math.inf,), 3.0)
        with pytest.raises(SolverError, match="non-finite"):
            verify(std, sol)
        verify(std, simplex.LpSolution(Status.OPTIMAL, 3.0, {"x": 3.0, "s": 0.0}, (1.0,), 3.0))

    def test_reduced_cost_of_the_wrong_sign_is_rejected(self):
        """A feasible vertex that is not optimal has zero gap with its basic dual."""

        lp = LinearProgram()
        x = lp.add_variable("x", cost=1.0)
        y = lp.add_variable("y")
        lp.add_constraint({x: 1.0, y: 1.0}, "=", 2.0)
        std = simplex._standardize(lp)
        sol = simplex.LpSolution(Status.OPTIMAL, 2.0, {"x": 2.0, "y": 0.0}, (1.0,), 2.0)
        with pytest.raises(SolverError, match="reduced cost"):
            verify(std, sol)
        optimal = simplex.LpSolution(Status.OPTIMAL, 0.0, {"x": 0.0, "y": 2.0}, (0.0,), 0.0)
        verify(std, optimal)

    @pytest.mark.parametrize(
        "coef, relation, rhs, x, dual, objective, dual_objective, message",
        [
            # ">=" marks x >= 3 written as x - s = 3, an "=" row with the
            # surplus s at max(0, x - 3)
            (1.0, ">=", 3.0, 2.0, 1.0, 2.0, 3.0, "row 0 violated"),
            (1.0, "<=", 3.0, 4.0, 0.0, 4.0, 4.0, "row 0 violated"),
            (1.0, "=", 3.0, 2.0, 1.0, 2.0, 3.0, "row 0 violated"),
            # the dual of an "=" row is free: a negative one shows on the surplus
            (1.0, ">=", 3.0, 3.0, -1.0, 3.0, -3.0, "variable s has reduced cost"),
            (1.0, "<=", 3.0, 3.0, 1.0, 3.0, 3.0, "row 0 has wrong dual sign"),
            (1.0, "<=", 5.0, 3.0, -1.0, 3.0, -5.0, "row 0 breaks complementary slackness"),
            # a basic surplus beside a nonzero dual shows as a duality gap
            (1.0, ">=", 3.0, 4.0, 1.0, 4.0, 3.0, "duality gap"),
            (-1.0, "<=", 5.0, -1.0, 0.0, -1.0, 0.0, "variable x out of bounds"),
            (1.0, "=", 3.0, 3.0, 2.0, 3.0, 6.0, "variable x has reduced cost"),
            (1.0, ">=", 3.0, 3.0, 1.0, 3.0, 4.0, "duality gap"),
            (1.0, ">=", 3.0, 3.0, 1.0, 3.0, 3.0, None),
        ],
    )
    def test_every_failure_message(
        self, coef, relation, rhs, x, dual, objective, dual_objective, message
    ):
        """One certificate of ``min x`` per check, each failing that check first."""

        lp = LinearProgram()
        lp.add_variable("x", cost=1.0)
        values = {"x": x}
        if relation == ">=":
            lp.add_variable("s")
            lp.add_constraint({0: coef, 1: -1.0}, "=", rhs)
            values["s"] = max(0.0, coef * x - rhs)
        else:
            lp.add_constraint({0: coef}, relation, rhs)
        std = simplex._standardize(lp)
        sol = simplex.LpSolution(Status.OPTIMAL, objective, values, (dual,), dual_objective)
        if message is None:
            verify(std, sol)
        else:
            with pytest.raises(SolverError, match=message):
                verify(std, sol)


class TestFactoriseOnce:
    """A solve factorises each basis once, however often it needs the LU."""

    def test_grid_lp(self, monkeypatch):
        lp, _, _ = grid_price_inverse(6, np.random.default_rng(1))
        real = simplex._factor

        def counting(calls):
            def factor(a, cols):
                calls.append(a[:, cols].toarray())
                return real(a, cols)

            return factor

        once: list[np.ndarray] = []
        monkeypatch.setattr(simplex, "_factor", counting(once))
        solution = solve(lp)
        # factorise afresh wherever an LU is asked for, held or not
        every_time: list[np.ndarray] = []
        monkeypatch.setattr(simplex, "_factor", counting(every_time))
        monkeypatch.setattr(
            simplex._Pivoter, "factor", lambda self, basis, lu=None: simplex._factor(self.a, basis)
        )
        refactorised = solve(lp.copy())
        assert solution.status is Status.OPTIMAL
        assert solution == refactorised
        assert len(once) < len(every_time)
        assert not any(np.array_equal(p, q) for p, q in itertools.combinations(once, 2))


class TestSparseBases:
    """SuperLU changes no pivot, and the certified values only by rounding."""

    @staticmethod
    def both_stages(k, monkeypatch, threshold):
        """The grid price inverse's two stages, each solved fresh, then twice from its own basis.

        Also returns, per LU factorised, whether it was LAPACK's (dense).
        """

        lu_kinds = []
        real = simplex._factor

        def factor(a, cols):
            lu = real(a, cols)
            lu_kinds.append(isinstance(lu, tuple))
            return lu

        with monkeypatch.context() as m:
            m.setattr(simplex, "_SPARSE_ROWS", threshold)
            m.setattr(simplex, "_factor", factor)
            lp, e, f = grid_price_inverse(k, np.random.default_rng(1))
            first = [solve(lp) for _ in range(3)]
            stage2 = lp.copy()
            stage2.add_constraint({j: 1.0 for j in e + f}, "<=", first[0].objective)
            stage2.set_objective({j: 1.0 for j in e})
            second = [solve(stage2) for _ in range(3)]
        for solutions in (first, second):
            assert solutions[1:] == [dataclasses.replace(solutions[0], pivots=0)] * 2
        return (lp, first[0]), (stage2, second[0]), lu_kinds

    @pytest.mark.parametrize("k", [6, 8])
    def test_superlu_and_lapack_give_identical_solutions(self, k, monkeypatch):
        """The same pivots and statuses; the values agree to rounding and with HiGHS.

        The certificate comes from the LU the basis's size chose, so the two
        kinds of LU may round its last bits differently.
        """

        *lapack_stages, lapack_kinds = self.both_stages(k, monkeypatch, 10**9)
        *superlu_stages, superlu_kinds = self.both_stages(k, monkeypatch, 1)
        close = dict(rel=1e-9, abs=1e-9)
        for (lp, lapack), (_, superlu) in zip(lapack_stages, superlu_stages):
            assert lapack.status is superlu.status is Status.OPTIMAL
            assert lapack.pivots == superlu.pivots > 0
            assert superlu.primal == pytest.approx(lapack.primal, **close)
            assert superlu.duals == pytest.approx(lapack.duals, **close)
            assert superlu.dual_objective == pytest.approx(lapack.dual_objective, **close)
            highs = highs_minimum(lp)
            assert lapack.objective == pytest.approx(highs, **close)
            assert superlu.objective == pytest.approx(highs, **close)
        # every LU is dense with the threshold high, and none with it low
        assert all(lapack_kinds) and superlu_kinds and not any(superlu_kinds)

    def test_singular_or_non_finite_large_basis_raises(self):
        n = simplex._SPARSE_ROWS
        a = np.eye(n)
        a[:, 1] = a[:, 0]  # two equal columns
        with pytest.raises(SolverError, match="singular"):
            simplex._factor(scipy.sparse.csc_array(a), range(n))
        a = np.eye(n)
        a[3, 3] = np.nan
        with pytest.raises(SolverError, match="non-finite"):
            simplex._factor(scipy.sparse.csc_array(a), range(n))
        lu = simplex._factor(scipy.sparse.csc_array(2.0 * np.eye(n)), range(n))
        assert not isinstance(lu, tuple)
        assert np.array_equal(simplex._lu_solve(lu, np.ones(n), trans=1), np.full(n, 0.5))

    def test_superlu_failure_is_a_numerical_failure(self, monkeypatch):
        import scipy.sparse.linalg

        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(simplex, "_SPARSE_ROWS", 1)
        assert solve(TestLapackKernel.two_row_lp()).status is Status.OPTIMAL
        monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
        assert solve(TestLapackKernel.two_row_lp()).status is Status.NUMERICAL_FAILURE

    def test_small_programs_never_import_superlu(self):
        # scipy.optimize alone costs about 0.3 s and 19 MB at start-up
        code = (
            "import sys\n"
            "import netinverse\n"
            "print('scipy.sparse' in sys.modules, 'scipy.optimize' in sys.modules)\n"
            "from netinverse.simplex import LinearProgram, Status, solve\n"
            "lp = LinearProgram()\n"
            "xs = [lp.add_variable(f'x{i}', cost=1.0 + i) for i in range(20)]\n"
            "for i, x in enumerate(xs):\n"
            "    s = lp.add_variable(f's{i}')\n"
            "    lp.add_constraint({x: 1.0, xs[i - 1]: 1.0, s: -1.0}, '=', float(i))\n"
            "assert lp.num_constraints == 20 and solve(lp).status is Status.OPTIMAL\n"
            "print('scipy.sparse.linalg' in sys.modules, 'scipy.optimize' in sys.modules)\n"
        )
        src = str(pathlib.Path(simplex.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n") == ["False False", "False False", ""]


def count_pricing(monkeypatch) -> list[int]:
    """Count the pricing steps solves compute."""

    calls: list[int] = []
    real = simplex._Pivoter._price

    def counting(self, *args):
        calls.append(1)
        return real(self, *args)

    monkeypatch.setattr(simplex._Pivoter, "_price", counting)
    return calls


class TestPivotMemo:
    """A re-solve after ``set_rhs`` starts from the program's last optimal basis.

    It answers as a fresh program does, with fewer pivots.
    """

    K = 4
    LINKS = 4 * K * (K - 1)

    @classmethod
    def lexicographic(cls, prior, lps=None):
        """Both stages of the grid price inverse under ``prior``, each its own program.

        The second is the first plus a row pinning the first's objective.

        ``lps`` keeps the two stage LPs between calls: the first call builds
        them into it, later ones write the new prior with ``set_rhs``.
        """

        fresh, e, f = grid_price_inverse(cls.K, np.random.default_rng(1), prior)
        lps = [] if lps is None else lps
        if not lps:
            lps += [fresh, None]
        for lp in filter(None, lps):
            lp.set_rhs(0, fresh._rhs)
        first = solve(lps[0])
        if lps[1] is None:
            lps[1] = lps[0].copy()
            lps[1].add_constraint({j: 1.0 for j in e + f}, "<=", first.objective)
            lps[1].set_objective({j: 1.0 for j in e})
        else:
            lps[1].set_rhs(lps[1].num_constraints - 1, first.objective)
        return first, solve(lps[1])

    @classmethod
    def priors(cls, seed, count):
        rng = np.random.default_rng(seed)
        return [list(rng.uniform(0.0, 2.0, cls.LINKS)) for _ in range(count)]

    @classmethod
    def assert_as_fresh(cls, prior, lps):
        """Both stages re-solved in ``lps`` answer as fresh programs do; returns both pivot sums.

        Both stages have tied optima: only their objectives are compared.
        """

        kept, alone = cls.lexicographic(prior, lps), cls.lexicographic(prior)
        for resolved, fresh in zip(kept, alone):
            assert resolved.status is Status.OPTIMAL
            assert_same_answer(resolved, fresh, unique=False)
        return sum(s.pivots for s in kept), sum(s.pivots for s in alone)

    def test_sequence_of_priors(self):
        lps: list = []
        pivots = [self.assert_as_fresh(prior, lps) for prior in self.priors(2, 8)]
        resolved, fresh = map(sum, zip(*pivots))
        assert 0 < resolved < fresh

    def test_old_basis_infeasible_under_the_new_prior(self):
        """Phase 1 runs again, and the answer certifies as a fresh program's does."""

        prior = self.priors(5, 1)[0]
        lp, _, _ = grid_price_inverse(self.K, np.random.default_rng(1), prior)
        solve(lp)
        solve(lp)  # the second solve records its pricing
        moved = [p + 1.0 if n <= 8 else p for n, p in enumerate(prior)]
        fresh, _, _ = grid_price_inverse(self.K, np.random.default_rng(1), moved)
        lp.set_rhs(0, fresh._rhs)
        assert simplex._lu_solve(lp._final[-1], lp._rhs).min() < -FEAS_TOL
        resolved = solve(lp)
        assert resolved.status is Status.OPTIMAL and resolved.pivots > 0
        assert_same_answer(resolved, solve(fresh), unique=False)

    @staticmethod
    def changed(lp: LinearProgram, row: int | None = None, cost=None, **changes) -> LinearProgram:
        """A copy of ``lp`` with constraint ``row`` changed, or with objective ``cost``."""

        copy = lp.copy()
        if cost is not None:
            copy._objective = cost
        if row is not None:
            copy._constraints[row] = dataclasses.replace(lp._constraints[row], **changes)
        return copy

    def test_changed_lp_is_solved_fresh(self):
        prior = self.priors(3, 1)[0]

        def double_cost(lp):
            # one decrease variable costing twice as much
            cost = [2.0] + lp._objective[1:]
            lp.set_objective(dict(enumerate(cost)))
            return self.changed(lp, cost=cost)

        def add_row(lp):
            lp.add_constraint({0: 1.0, 1: 1.0}, "<=", 5.0)
            return self.changed(lp)

        def add_variable(lp):
            lp.add_variable("spare", cost=1.0)
            return self.changed(lp)

        for change in (double_cost, add_row, add_variable):
            lp, _, _ = grid_price_inverse(self.K, np.random.default_rng(1), prior)
            solve(lp)
            solve(lp)
            variant = change(lp)
            # no kept basis fits: the re-solve runs phase 1, pivot for pivot as a fresh one
            assert solve(lp) == solve(variant)

    def test_memo_holds_the_latest_solve_only(self):
        """A re-solve under the same prior takes no pivot; a solve that is not optimal keeps nothing."""

        lps: list = []
        for prior in self.priors(4, 5):
            first = self.lexicographic(prior, lps)
            again = self.lexicographic(prior, lps)
            assert again == tuple(dataclasses.replace(s, pivots=0) for s in first)
        pinned = lps[1].num_constraints - 1
        lps[1].set_rhs(pinned, first[0].objective - 1.0)
        assert solve(lps[1]).status is Status.INFEASIBLE and lps[1]._final is None
        lps[1].set_rhs(pinned, first[0].objective)
        restored = solve(lps[1])
        assert restored.pivots > 0
        assert_same_answer(restored, first[1], unique=False)

    def test_refactorising_every_pivot(self, monkeypatch):
        """Phase 2 may start from the basis phase 1 last factorised."""

        monkeypatch.setattr(simplex, "_REFACTOR_EVERY", 1)
        lps: list = []
        for prior in self.priors(7, 3):
            self.assert_as_fresh(prior, lps)
        # phase 1 ends with x basic and no artificial left; phase 2 pivots y in
        lp = LinearProgram()
        x = lp.add_variable("x", cost=1.0)
        y = lp.add_variable("y")
        lp.add_constraint({x: 1.0, y: 1.0}, "=", 2.0)
        # a cold solve, a warm one that records its pricing, and one that reads it
        solutions = [solve(lp) for _ in range(3)]
        assert solutions[1:] == [dataclasses.replace(solutions[0], pivots=0)] * 2
        assert solutions[0].primal == {"x": 0.0, "y": 2.0}

    def test_bland_switch(self, monkeypatch):
        """Re-solves on Bland's rule from the first degenerate pivot answer as fresh solves."""

        prior = [0.0] * self.LINKS  # every nonnegativity row degenerate
        dantzig = self.lexicographic(prior)
        real_init = simplex._Pivoter.__init__

        def eager_bland(pivoter, *args, **kwargs):
            real_init(pivoter, *args, **kwargs)
            pivoter.stall_limit = 0  # Bland's rule from the first degenerate pivot

        monkeypatch.setattr(simplex._Pivoter, "__init__", eager_bland)
        bland = self.lexicographic(prior)
        assert [s.pivots for s in bland] != [s.pivots for s in dantzig]
        lps: list = []
        for prior in [prior] + self.priors(8, 3):
            self.assert_as_fresh(prior, lps)

    def test_unchanged_lp_takes_no_pivot(self, monkeypatch):
        """The second solve confirms the kept basis with one pricing step per stage.

        It prices from the LU the first solve kept, so it factorises nothing.
        It records that pricing, and the third solve reads it: no pricing
        step and no LU.
        """

        pricing = count_pricing(monkeypatch)
        factorised: list[int] = []
        real = simplex._factor
        monkeypatch.setattr(simplex, "_factor", lambda *args: factorised.append(1) or real(*args))
        lps: list = []
        prior = self.priors(6, 1)[0]
        first = self.lexicographic(prior, lps)
        assert len(pricing) > 2
        for steps, factorisations in ((2, 0), (0, 0)):
            pricing.clear()
            factorised.clear()
            assert self.lexicographic(prior, lps) == tuple(
                dataclasses.replace(s, pivots=0) for s in first
            )
            assert (len(pricing), len(factorised)) == (steps, factorisations)

    def test_redundant_row_made_inconsistent_is_infeasible(self, caplog):
        """A kept basis whose redundant row's artificial turns positive is not taken."""

        lp = LinearProgram()
        x = lp.add_variable("x", cost=1.0)
        y = lp.add_variable("y", cost=2.0)
        lp.add_constraint({x: 1.0, y: 1.0}, "=", 2.0)
        lp.add_constraint({x: 2.0, y: 2.0}, "=", 4.0)  # redundant: its artificial stays basic
        lp.add_constraint({x: 1.0}, "<=", 1.5)
        solve(lp)
        assert solve(lp).status is Status.OPTIMAL
        basis, _ = lp._final
        assert any(col >= lp._std.n_real for col in basis)
        lp.set_rhs(1, 5.0)  # 2x + 2y = 5 contradicts x + y = 2
        with caplog.at_level(logging.WARNING, logger="netinverse.simplex"):
            assert solve(lp).status is Status.INFEASIBLE
        assert not caplog.records


class TestSetRhs:
    def test_bad_row_or_value_is_rejected(self):
        lp = TestLapackKernel.two_row_lp()
        for row, value in ((-1, 1.0), (2, 1.0), (-1, [1.0, 1.0]), (1, [1.0, 1.0])):
            with pytest.raises(SolverError, match="no constraint"):
                lp.set_rhs(row, value)
        for value in (math.nan, math.inf, -math.inf, [2.0, math.nan], -1.0, -1e-17, [2.0, -1.0]):
            with pytest.raises(SolverError, match="must be finite and >= 0"):
                lp.set_rhs(0, value)
            assert lp._rhs.tolist() == [3.0, 1.0]
        with pytest.raises(SolverError, match="must be finite and >= 0, got -1.0"):
            lp.add_constraint({0: 1.0}, "<=", -1.0)
        assert lp.num_constraints == 2 and lp._rhs.tolist() == [3.0, 1.0]
        lp.set_rhs(0, [4.0, 2.0])
        assert lp._rhs.tolist() == [4.0, 2.0]

    def test_rows_added_one_by_one_keep_their_rhs(self):
        lp = LinearProgram()
        x = lp.add_variable("x", cost=1.0)
        values = [float(i) for i in range(40)]
        for value in values[:20]:
            add_general_row(lp, {x: 1.0}, ">=", value)
        copy = lp.copy()
        for value in values[20:]:
            add_general_row(lp, {x: 1.0}, ">=", value)
        copy.add_constraint({x: 1.0}, "<=", 100.0)
        assert lp._rhs.tolist() == values
        assert copy._rhs.tolist() == values[:20] + [100.0]
        lp.set_rhs(39, 50.0)
        assert solve(lp).objective == 50.0 and solve(copy).objective == 19.0

    def test_certificate_arrays_follow_the_structure(self):
        """After a new row or a new objective, a kept program certifies as fresh."""

        def add_row(lp):
            lp.add_constraint({0: -1.0, 1: 1.0}, "<=", 0.5)

        def new_objective(lp):
            lp.set_objective({j: 1.0 + j % 3 for j in range(lp.num_variables) if j < 24})

        def certify(std, sol, dual_shift, primal_shift):
            sol = dataclasses.replace(
                sol,
                primal={name: v + primal_shift for name, v in sol.primal.items()},
                duals=tuple(d + dual_shift for d in sol.duals),
            )
            try:
                verify(std, sol)
            except SolverError as exc:
                return str(exc)
            return None

        for change in (add_row, new_objective):
            lp, _, _ = grid_price_inverse(3, np.random.default_rng(1), [0.5] * 24)
            solve(lp)
            solve(lp)
            kept = lp._std
            change(lp)
            fresh = lp.copy()
            expected = solve(fresh)
            assert expected.status is Status.OPTIMAL
            assert solve(lp) == expected
            # a program whose structure changed keeps its new form from its first solve on
            assert lp._std is not None and lp._std is not kept
            reference = simplex._standardize(fresh)
            for name in ("cost_slack", "row_eq", "cost"):
                assert np.array_equal(getattr(lp._std, name), getattr(reference, name)), name
            outcomes = [
                certify(lp._std, expected, d, p)
                for d in (0.0, 0.5, -0.5) for p in (0.0, 0.25, -0.25)
            ]
            assert outcomes == [
                certify(reference, expected, d, p)
                for d in (0.0, 0.5, -0.5) for p in (0.0, 0.25, -0.25)
            ]
            assert outcomes[0] is None and any(outcomes)

    def test_structural_change_drops_the_record(self):
        """A structural change drops what the program kept: its form and its final basis."""

        for change in (
            lambda lp: lp.add_variable("spare"),
            lambda lp: lp.add_constraint({0: -1.0}, "<=", 0.0),
            lambda lp: lp.set_objective({0: 2.0}),
        ):
            lp, _, _ = grid_price_inverse(3, np.random.default_rng(1))
            solve(lp)
            solve(lp)
            change(lp)
            assert lp._std is None and lp._final is None
            solve(lp)  # a first solve of the new structure keeps its form, basis and LU
            assert lp._std is not None and lp._final[-1] is not None

    def test_lp_solved_once_keeps_its_form_and_lu(self, monkeypatch):
        """A program solved once keeps its form, its final basis and that basis's LU."""

        lp, _, _ = grid_price_inverse(4, np.random.default_rng(1))
        first = solve(lp)
        std, (basis, lu) = lp._std, lp._final
        assert std is not None and first.pivots > 0
        fresh = simplex._factor(std.a, basis)
        assert np.array_equal(simplex._lu_solve(lu, lp._rhs), simplex._lu_solve(fresh, lp._rhs))
        # the second solve builds no form and factorises no basis
        built: list[str] = []
        for name in ("_standardize", "_factor"):
            def counting(*args, name=name, real=getattr(simplex, name)):
                built.append(name)
                return real(*args)

            monkeypatch.setattr(simplex, name, counting)
        assert solve(lp) == dataclasses.replace(first, pivots=0)
        assert lp._std is std and not built

    def test_cached_standard_form_is_not_mutated(self):
        """Redundant rows keep their artificial basic, and no solve writes the kept form."""

        for third in (False, True):  # a third, dependent row: two rows asked about one basis
            lp = LinearProgram()
            x = lp.add_variable("x", cost=1.0)
            y = lp.add_variable("y", cost=2.0)
            lp.add_constraint({x: 1.0, y: 1.0}, "=", 2.0)
            lp.add_constraint({x: 2.0, y: 2.0}, "=", 4.0)  # redundant
            lp.add_constraint({x: 1.0}, "<=", 1.5)
            if third:
                lp.add_constraint({x: 3.0, y: 3.0}, "=", 6.0)  # redundant too
            redundant = [1, 3] if third else [1]
            solve(lp)
            solve(lp)
            kept = lp._std
            with pytest.raises(dataclasses.FrozenInstanceError):
                kept.b = kept.b.copy()
            a, b = kept.a.copy(), kept.b.copy()
            for rhs in (3.0, 1.0, 2.5, 0.0):
                lp.set_rhs(0, rhs)
                lp.set_rhs(1, 2.0 * rhs)
                if third:
                    lp.set_rhs(3, 3.0 * rhs)
                fresh = TestPivotMemo.changed(lp)
                solution = solve(lp)
                assert_same_answer(solution, solve(fresh))
                assert [solution.duals[i] for i in redundant] == [0.0] * len(redundant)
                assert lp._std is kept and kept.a.shape == a.shape
                for matrix in (kept.a, kept.at.T):
                    assert all(np.array_equal(getattr(matrix, name), getattr(a, name))
                               for name in ("data", "indices", "indptr"))
                assert kept.b[0] == rhs and kept.b[2] == b[2]


class TestStartBasis:
    """A re-solve starts from the program's own last optimal basis where it is feasible."""

    @staticmethod
    def stages(prior, k=3):
        """The k-by-k grid price inverse with its second objective, solved twice.

        Returns the program, its second solve and a copy of it, which keeps no basis.
        """

        lp, e, _ = grid_price_inverse(k, np.random.default_rng(1), prior)
        lp.add_objective({j: 1.0 for j in e})
        solve(lp)
        return lp, solve(lp), lp.copy()

    def test_started_program_resolves_from_its_own_basis(self, caplog):
        lp, kept, cold = self.stages(list(np.random.default_rng(1).uniform(0.0, 2.0, 24)))
        with caplog.at_level(logging.WARNING, logger="netinverse.simplex"):
            solution = solve(lp)
        assert not caplog.records
        assert solution == kept and solution.pivots == 0
        fresh = solve(cold)
        assert fresh.pivots > 0 and abs(fresh.objective - solution.objective) < 1e-9

    def test_infeasible_start_basis_runs_phase_1(self):
        prior, moved = TestPivotMemo.priors(5, 2)
        lp, _, _ = self.stages(prior, TestPivotMemo.K)
        fresh, e, _ = grid_price_inverse(TestPivotMemo.K, np.random.default_rng(1), moved)
        fresh.add_objective({j: 1.0 for j in e})
        lp.set_rhs(0, fresh._rhs)
        assert simplex._lu_solve(lp._final[-1], lp._rhs).min() < -FEAS_TOL
        resolved = solve(lp)
        assert resolved.status is Status.OPTIMAL and resolved.pivots > 0
        assert_same_answer(resolved, solve(fresh), unique=False)

    def test_redundant_row_artificial_stays_basic_through_later_objectives(self):
        lp = LinearProgram()
        x = lp.add_variable("x", cost=1.0)
        y = lp.add_variable("y", cost=2.0)
        lp.add_constraint({x: 1.0, y: 1.0}, "=", 2.0)
        lp.add_constraint({x: 2.0, y: 2.0}, "=", 4.0)  # redundant: its artificial stays basic
        lp.add_constraint({x: 1.0}, "<=", 1.5)
        lp.add_objective({y: 1.0})
        lp.add_objective({x: -1.0})
        for _ in range(3):
            solution = solve(lp)
            assert solution.status is Status.OPTIMAL
            assert solution.primal == pytest.approx({"x": 1.5, "y": 0.5}, abs=1e-12)
        basis, _ = lp._final
        assert any(col >= lp._std.n_real for col in basis) and solution.pivots == 0

    def test_bland_restart_ignores_the_start_basis(self, monkeypatch):
        lp, _, cold = self.stages([0.0] * 24)
        real = simplex._verify
        calls = []

        def fail_first(*args):
            calls.append(None)
            if len(calls) == 1:
                raise SolverError("row 0 violated by 0.001")
            return real(*args)

        monkeypatch.setattr(simplex, "_verify", fail_first)
        solution = solve(lp)
        # one failed certificate, then both objectives' under Bland's rule from phase 1
        assert len(calls) == 3 and solution.pivots > 0
        assert solution == simplex._solve_once(cold, True)


class TestPricingRecord:
    """A re-solve from a basis a warm solve confirmed with no pivot reads that solve's pricing.

    The record holds each objective's duals, reduced costs and free mask.
    They depend on the basis, its LU and the costs, never on ``b``, so a
    re-solve that reads them answers as the program without them does, bit
    for bit.
    """

    @staticmethod
    def inverse_calls(case, nd_net, fourlink_net):
        """One inverse problem's call under a prior, on one kept handle, and its priced links."""

        lps = inverse.InverseLPs()
        if case == "nd price":
            priced = CapacitySpec.priced_only([1, 7])
            route = Path("1", "2", (2, 18, 11))
            return (lambda prior: inverse.infer_dual_prices(
                nd_net, nd_net.base_costs(), priced, prior, route, lps)), [1, 7]
        if case == "four-link cost":
            route = Path("1", "4", (1, 3, 5))
            ids = [l.id for l in fourlink_net.links]
            return (lambda prior: inverse.infer_link_costs(fourlink_net, prior, route, lps)), ids
        net = grid(4, np.random.default_rng(1))
        route = enumerate_paths(net, ("0.0", "3.3"), 1000)[-1]
        ids = [l.id for l in net.links]
        priced = CapacitySpec.priced_only(ids)
        return (lambda prior: inverse.infer_dual_prices(
            net, net.base_costs(), priced, prior, route, lps)), ids

    @staticmethod
    def solve_both_ways(outcomes: list[str]):
        """``solve``, and where the program holds a record, ``solve`` again with it dropped.

        The two answers must be equal; so must the records the two solves
        leave.  ``outcomes`` gets one entry per solve that held a record.
        """

        def both_ways(lp: LinearProgram) -> simplex.LpSolution:
            final, record = lp._final, lp._priced
            answer = solve(lp)
            if record is None:
                return answer
            left = lp._final, lp._priced
            lp._final, lp._priced = final, None
            assert solve(lp) == answer
            if left[1] is None:
                assert lp._priced is None and answer.pivots > 0
                outcomes.append("phase 1")
            else:
                assert left[1] is record and lp._final[0] == left[0][0]
                assert all(map(np.array_equal, lp._priced, record))
                outcomes.append("record")
            return answer

        return both_ways

    @pytest.mark.parametrize("case", ["nd price", "four-link cost", "4x4 grid price"])
    def test_resolve_from_the_record_equals_one_without(
        self, case, nd_net, fourlink_net, monkeypatch
    ):
        call, ids = self.inverse_calls(case, nd_net, fourlink_net)
        outcomes: list[str] = []
        monkeypatch.setattr(inverse, "solve", self.solve_both_ways(outcomes))
        rng = np.random.default_rng(29)
        prior = dict.fromkeys(ids, 0.0)
        for _ in range(60):
            # a repeat, a small step (the kept basis mostly stays feasible) or a fresh draw
            step = rng.choice(["repeat", "small", "fresh"], p=[0.3, 0.4, 0.3])
            if step == "small":
                prior = {lid: max(0.0, p + float(rng.normal(0.0, 0.01)))
                         for lid, p in prior.items()}
            elif step == "fresh":
                prior = {lid: float(rng.uniform(0.0, 5.0)) for lid in ids}
            call(prior)
        assert outcomes.count("record") >= 10 and "phase 1" in outcomes

    def test_redundant_row_made_inconsistent_drops_the_record(self):
        lp = LinearProgram()
        x = lp.add_variable("x", cost=1.0)
        y = lp.add_variable("y", cost=2.0)
        lp.add_constraint({x: 1.0, y: 1.0}, "=", 2.0)
        lp.add_constraint({x: 2.0, y: 2.0}, "=", 4.0)  # redundant: its artificial stays basic
        lp.add_constraint({x: 1.0}, "<=", 1.5)
        lp.add_objective({y: 1.0})
        outcomes: list[str] = []
        both_ways = self.solve_both_ways(outcomes)
        first, second, third = (both_ways(lp) for _ in range(3))
        assert lp._priced is not None and outcomes == ["record"]
        assert first.pivots > 0 and second == third == dataclasses.replace(first, pivots=0)
        lp.set_rhs(1, 5.0)  # 2x + 2y = 5 contradicts x + y = 2
        assert both_ways(lp).status is Status.INFEASIBLE
        assert outcomes == ["record", "phase 1"]
        assert lp._priced is None and lp._final is None

    def test_warm_solve_that_pivots_records_nothing(self):
        lp = LinearProgram()
        x = lp.add_variable("x", cost=1.0)
        y = lp.add_variable("y", cost=1.0)
        lp.add_constraint({x: 1.0, y: 1.0}, "=", 2.0)
        lp.add_objective({x: 1.0})
        solve(lp)
        solve(lp)
        assert lp._final[0] == [y] and lp._priced is not None
        # a basis optimal for the first objective only, with its LU
        lp._final, lp._priced = ([x], simplex._factor(lp._std.a, [x])), None
        assert solve(lp).pivots == 1 and lp._final[0] == [y] and lp._priced is None
        assert solve(lp).pivots == 0 and lp._priced is not None

    def test_failed_certificate_restarts_under_bland(self, monkeypatch, caplog):
        """A record whose certificate fails restarts from phase 1, as a cold program does."""

        lp, _, cold = TestStartBasis.stages([0.0] * 24)
        assert lp._priced is not None  # the second solve took no pivot
        real = simplex._verify
        calls = []

        def fail_first(*args):
            calls.append(args)
            if len(calls) == 1:
                raise SolverError("row 0 violated by 0.001")
            return real(*args)

        monkeypatch.setattr(simplex, "_verify", fail_first)
        with caplog.at_level(logging.WARNING, logger="netinverse.simplex"):
            solution = solve(lp)
        assert [r.getMessage() for r in caplog.records] == [
            "simplex solve failed (row 0 violated by 0.001); restarting under Bland's rule"
        ]
        # one pass over both objectives from the record, then one per objective from phase 1
        assert [len(args[4]) for args in calls] == [2, 1, 1]
        assert solution.pivots > 0 and lp._priced is None
        assert solution == simplex._solve_once(cold, True)

    def test_one_certificate_pass_reports_the_first_failing_objective(self):
        """Every check runs on every objective; the first failing one's first check is named."""

        lp = LinearProgram()
        x = lp.add_variable("x", cost=1.0)
        y = lp.add_variable("y")
        lp.add_constraint({x: 1.0, y: 1.0}, "<=", 2.0)
        lp.add_objective({y: -1.0})
        std = simplex._standardize(lp)
        free = np.ones((2, std.n_real), dtype=bool)
        values = np.array([0.0, 2.0])
        duals = np.array([[0.0], [-1.0]])
        reduced = np.array([[1.0, 0.0], [1.0, 0.0]])  # c - A'y: [1, 0] - 0, [0, -1] + [1, 1]
        good = ([0.0, -2.0], [0.0, -2.0])
        simplex._verify(std, 0, free, values, duals, reduced, *good)
        # each objective's reduced costs take its own costs' slack: y costs -1
        # in objective 1, so 2 GAP_TOL there, and 0 in objective 0, so GAP_TOL
        within = reduced.copy()
        within[1, 1] = -1.5 * GAP_TOL
        simplex._verify(std, 0, free, values, duals, within, *good)
        with pytest.raises(SolverError, match="variable y has reduced cost"):
            simplex._verify(std, 0, free, values, duals, within[::-1], *good)
        # objective 1 fails its gap check only, objective 0 its dual sign and its gap
        bad = duals.copy()
        bad[0, 0] = 1.0
        with pytest.raises(SolverError, match="row 0 has wrong dual sign 1"):
            simplex._verify(std, 0, free, values, bad, reduced, [0.0, -2.0], [2.0, -1.0])
        with pytest.raises(SolverError, match="duality gap 1 exceeds"):
            simplex._verify(std, 0, free, values, duals, reduced, [0.0, -2.0], [0.0, -1.0])
        # a later objective's non-finite value comes after an earlier one's failure
        with pytest.raises(SolverError, match="row 0 has wrong dual sign"):
            simplex._verify(std, 0, free, values, bad, reduced, [0.0, -2.0], [0.0, math.nan])
        with pytest.raises(SolverError, match="non-finite"):
            simplex._verify(std, 0, free, values, duals, reduced, [0.0, -2.0], [0.0, math.nan])


def highs_lexicographic_values(lp: LinearProgram) -> list[float]:
    """Each objective's minimum by HiGHS, with the ones before pinned at theirs.

    The objectives must be nonnegative at every feasible point: a pin is a
    ``<=`` row, whose right-hand side the kernel takes only ``>= 0``.
    """

    pinned, values = lp.copy(), []
    pinned._later = []
    for cost in [lp._objective, *lp._later]:
        pinned.set_objective(dict(enumerate(cost)))
        values.append(highs_minimum(pinned))
        pinned.add_constraint(dict(enumerate(cost)), "<=", values[-1] + 1e-9 * (1 + values[-1]))
    return values


class TestObjectivesInOrder:
    """A program with added objectives minimises each among the optima of the ones before."""

    def test_random_programs_match_highs_stage_by_stage(self):
        rng = np.random.default_rng(20261021)
        checked = 0
        for _ in range(60):
            lp = random_bounded_lp(rng)
            n = lp.num_variables
            # costs with zeros, so that earlier objectives leave ties to break
            for _ in range(int(rng.integers(1, 3))):
                costs = [float(rng.choice([0.0, 1.0, rng.uniform(0, 3)])) for _ in range(n)]
                lp.add_objective(dict(enumerate(costs)))
            lp.set_objective({j: float(rng.choice([0.0, 0.0, 1.0])) for j in range(n)})
            solution = solve(lp)
            if solution.status is Status.INFEASIBLE:
                continue
            assert solution.status is Status.OPTIMAL
            x = np.array([solution[lp.variable_name(j)] for j in range(n)])
            for cost, expected in zip([lp._objective, *lp._later], highs_lexicographic_values(lp)):
                assert float(np.dot(cost, x)) == pytest.approx(expected, rel=1e-7, abs=1e-7)
            assert solution.objective == pytest.approx(float(np.dot(lp._later[-1], x)), abs=1e-12)
            checked += 1
        assert checked >= 40

    def test_second_objective_pivots(self):
        lp = LinearProgram()
        x = lp.add_variable("x", cost=1.0)
        y = lp.add_variable("y", cost=1.0)
        lp.add_constraint({x: 1.0, y: 1.0}, "=", 2.0)
        first = solve(lp.copy())  # phase 1 pivots x in: every point of x + y = 2 is optimal
        lp.add_objective({x: 1.0})
        solution = solve(lp)
        assert first.primal == {"x": 2.0, "y": 0.0}
        assert solution.primal == {"x": 0.0, "y": 2.0} and solution.objective == 0.0
        assert solution.pivots == first.pivots + 1
        assert "then min +1*x" in lp.dump()

    def test_cold_solve_certifies_each_objective_at_its_own_basis(self, monkeypatch):
        """An earlier objective is certified where its stage ends, the last one at the answer.

        The first objective's own stage ends at x = 2, where its duals were
        priced; the second pivots to the answer, x = 0.
        """

        lp = LinearProgram()
        x = lp.add_variable("x", cost=1.0)
        y = lp.add_variable("y", cost=1.0)
        lp.add_constraint({x: 1.0, y: 1.0}, "=", 2.0)
        lp.add_objective({x: 1.0})
        real = simplex._verify
        calls = []
        monkeypatch.setattr(simplex, "_verify", lambda *args: calls.append(args) or real(*args))
        solution = solve(lp)
        assert solution.status is Status.OPTIMAL and solution.pivots > 0
        assert [(args[1], len(args[4])) for args in calls] == [(0, 1), (1, 1)]
        (_, _, _, stage_end, *_), (_, _, _, values, duals, _, objective, dual_objective) = calls
        assert stage_end.tolist() == [2.0, 0.0]
        assert values.tolist() == [solution["x"], solution["y"]] == [0.0, 2.0]
        assert objective == [0.0] and dual_objective == [solution.dual_objective]

    def test_near_zero_reduced_cost_entering_later_keeps_the_certificate(self, caplog):
        """A column left free within OPT_TOL of zero that a later objective brings in.

        The first objective's stage ends at x = 10000: y's reduced cost,
        -1e-10, is within OPT_TOL.  The second brings y in, and at the answer
        the first objective's stage-end duals would leave a gap of 1e-6.
        """

        lp = LinearProgram()
        x = lp.add_variable("x", cost=1e-10)
        y = lp.add_variable("y")
        lp.add_constraint({x: 1.0, y: 1.0}, "=", 10000.0)
        lp.add_objective({x: 1.0})
        with caplog.at_level(logging.WARNING, logger="netinverse.simplex"):
            solution = solve(lp)
        assert solution.status is Status.OPTIMAL and not caplog.records
        assert solution.primal == {"x": 0.0, "y": 10000.0}

    def test_later_objective_unbounded_keeps_no_basis(self, caplog):
        """An objective unbounded among the optima of the ones before: the program is UNBOUNDED."""

        lp = LinearProgram()
        x = lp.add_variable("x")
        y = lp.add_variable("y")
        lp.add_constraint({x: 1.0, y: -1.0}, "<=", 1.0)
        lp.add_objective({x: -1.0})  # every point is optimal for the first objective
        with caplog.at_level(logging.WARNING, logger="netinverse.simplex"):
            for _ in range(3):
                assert solve(lp) == simplex.LpSolution(Status.UNBOUNDED, pivots=1)
                assert lp._final is None and lp._priced is None
        assert not caplog.records

    def test_fixed_slack_row_takes_a_dual_of_either_sign(self):
        """x + y <= 2 is tight at every optimum of the first objective: an "=" row after it."""

        lp = LinearProgram()
        x = lp.add_variable("x", cost=-1.0)
        y = lp.add_variable("y", cost=-1.0)
        lp.add_constraint({x: 1.0, y: 1.0}, "<=", 2.0)
        lp.add_objective({x: 1.0, y: 2.0})
        solution = solve(lp)
        assert solution.status is Status.OPTIMAL
        assert solution.primal == {"x": 2.0, "y": 0.0} and solution.objective == 2.0
        assert solution.duals == (1.0,)  # positive, on a "<=" row
        std = simplex._standardize(lp)
        verify(std, solution, k=1, fixed=[2])  # the row's slack, column 2
        with pytest.raises(SolverError, match="row 0 has wrong dual sign"):
            verify(std, solution, k=1)

    def test_reduced_cost_sign_is_checked_on_free_columns_only(self):
        lp = LinearProgram()
        x = lp.add_variable("x", cost=1.0)
        y = lp.add_variable("y")
        lp.add_constraint({x: 1.0, y: 1.0}, "=", 2.0)
        std = simplex._standardize(lp)
        sol = simplex.LpSolution(Status.OPTIMAL, 2.0, {"x": 2.0, "y": 0.0}, (1.0,), 2.0)
        with pytest.raises(SolverError, match="variable y has reduced cost -1 of the wrong sign"):
            verify(std, sol)
        verify(std, sol, fixed=[y])

    def test_refused_objective_changes_nothing(self):
        lp = LinearProgram()
        x = lp.add_variable("x", cost=1.0)
        with pytest.raises(SolverError, match="undeclared"):
            lp.add_objective({3: 1.0})
        with pytest.raises(SolverError, match="non-finite cost nan"):
            lp.add_objective({x: math.nan})
        assert lp._later == []
        lp.add_objective({x: 2.0})
        lp.add_variable("y", cost=1.0)  # costs 0 in the objectives added before it
        assert lp._later == [[2.0, 0.0]] and lp.copy()._later == lp._later
