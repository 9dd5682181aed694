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

from netinverse import simplex
from netinverse.errors import SolverError
from netinverse.simplex import FEAS_TOL, GAP_TOL, LinearProgram, Status, solve


def brute_force_minimum(lp: LinearProgram) -> float | None:
    """Exhaustive vertex enumeration over basic feasible solutions.

    Converts to the same equality standard form (slack per inequality, free
    variables split) and evaluates every basis.  Only suitable for tiny
    bounded-feasible instances; returns None when no feasible basis exists.
    """

    n = lp.num_variables
    cols: list[np.ndarray] = []
    costs: list[float] = []
    m = lp.num_constraints
    for j in range(n):
        v = lp._variables[j]
        assert v.lower == 0.0 and v.upper == math.inf or v.lower == -math.inf
        col = np.zeros(m)
        for i, con in enumerate(lp._constraints):
            for k, a in con.coeffs:
                if k == j:
                    col[i] = a
        signs = (1.0, -1.0) if v.lower == -math.inf else (1.0,)
        for s in signs:
            cols.append(s * col)
            costs.append(s * lp._objective[j])
    for i, con in enumerate(lp._constraints):
        if con.relation == "<=":
            e = np.zeros(m)
            e[i] = 1.0
            cols.append(e)
            costs.append(0.0)
        elif con.relation == ">=":
            e = np.zeros(m)
            e[i] = -1.0
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

    rows = {"<=": ([], []), ">=": ([], []), "=": ([], [])}
    for con, rhs in zip(lp._constraints, lp._rhs.tolist()):
        row = np.zeros(lp.num_variables)
        for j, a in con.coeffs:
            row[j] = a
        rows[con.relation][0].append(row)
        rows[con.relation][1].append(rhs)
    a_ub = [*rows["<="][0], *(-row for row in rows[">="][0])]
    b_ub = [*rows["<="][1], *(-rhs for rhs in rows[">="][1])]
    a_eq, b_eq = rows["="]
    res = linprog(
        lp._objective,
        A_ub=np.array(a_ub) if a_ub else None, b_ub=b_ub or None,
        A_eq=np.array(a_eq) if a_eq else None, b_eq=b_eq or None,
        bounds=[(v.lower, v.upper) for v in lp._variables], method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, res.message
    return float(res.fun)


def random_bounded_lp(rng: np.random.Generator) -> LinearProgram:
    """Random feasible LP, bounded below by construction (c >= 0, x >= 0)."""

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
        lp.add_constraint(coeffs, relation, rhs)
    return lp


class TestBasics:
    def test_lower_bound_constraint_and_dual(self):
        lp = LinearProgram()
        x = lp.add_variable("x", cost=1.0)
        lp.add_constraint({x: 1.0}, ">=", 3.0)
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
            coeffs: dict[int, float] = {}
            for link in nd_net.links:
                if link.tail == node:
                    coeffs[x[link.id]] = coeffs.get(x[link.id], 0.0) + 1.0
                if link.head == node:
                    coeffs[x[link.id]] = coeffs.get(x[link.id], 0.0) - 1.0
            rhs = 1.0 if node == "1" else (-1.0 if node == "2" else 0.0)
            lp.add_constraint(coeffs, "=", rhs)
        sol = solve(lp)
        assert sol.status is Status.OPTIMAL
        assert abs(sol.objective - 29.0) < 1e-9
        used = {lid for lid, j in x.items() if sol.primal[f"x{lid}"] > 0.5}
        assert used == {1, 5, 7, 9, 11}

    def test_infeasible(self):
        lp = LinearProgram()
        x = lp.add_variable("x", cost=1.0)
        lp.add_constraint({x: 1.0}, "<=", -1.0)
        sol = solve(lp)
        assert sol.status is Status.INFEASIBLE

    def test_unbounded(self):
        lp = LinearProgram()
        lp.add_variable("x", cost=-1.0)
        sol = solve(lp)
        assert sol.status is Status.UNBOUNDED

    def test_free_variable_equality(self):
        lp = LinearProgram()
        y = lp.add_variable("y", lower=-math.inf)
        e = lp.add_variable("e", cost=1.0)
        f = lp.add_variable("f", cost=1.0)
        lp.add_constraint({y: 1.0, e: 1.0, f: -1.0}, "=", -2.0)
        sol = solve(lp)
        assert sol.status is Status.OPTIMAL
        assert abs(sol.objective) < 1e-12
        assert abs(sol["y"] + 2.0) < 1e-12

    def test_finite_bounds(self):
        lp = LinearProgram()
        x = lp.add_variable("x", lower=1.0, upper=4.0, cost=-2.0)
        sol = solve(lp)
        assert sol.status is Status.OPTIMAL
        assert abs(sol["x"] - 4.0) < 1e-9
        assert abs(sol.objective + 8.0) < 1e-9
        assert abs(sol.objective - sol.dual_objective) < GAP_TOL

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

    def test_dump_is_readable(self):
        lp = LinearProgram()
        x = lp.add_variable("x", cost=2.0)
        lp.add_constraint({x: 1.0}, ">=", 3.0, name="floor")
        text = lp.dump()
        assert "min" in text and "floor" in text and ">= 3" in text


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
            x = [sol.primal[f"x{j}"] for j in range(lp.num_variables)]
            for con, rhs in zip(lp._constraints, lp._rhs.tolist()):
                lhs = sum(a * x[k] for k, a in con.coeffs)
                if con.relation == "<=":
                    assert lhs - rhs <= FEAS_TOL * max(1, abs(rhs))
                elif con.relation == ">=":
                    assert rhs - lhs <= FEAS_TOL * max(1, abs(rhs))
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
    """First-stage price-inverse LP on a bidirectional k-by-k grid.

    Every link is priced, from a zero prior unless ``prior`` gives one value
    per link (in the order the links are built), and the observed route runs
    along two edges of the grid between opposite corners, so it has to be
    priced into optimality against many shorter alternatives.  The prior
    enters only the right-hand sides.  Returns the LP with its decrease and
    increase variables.
    """

    links = []
    for i in range(k):
        for j in range(k):
            for ni, nj in ((i + 1, j), (i, j + 1)):
                if ni < k and nj < k:
                    cost = float(rng.integers(5, 16))
                    links.append(((i, j), (ni, nj), cost))
                    links.append(((ni, nj), (i, j), cost))
    if prior is None:
        prior = [0.0] * len(links)
    lp = LinearProgram()
    e = [lp.add_variable(f"e{n}", cost=1.0) for n in range(len(links))]
    f = [lp.add_variable(f"f{n}", cost=1.0) for n in range(len(links))]
    y = {(i, j): lp.add_variable(f"y{i}_{j}", lower=-math.inf) for i in range(k) for j in range(k)}
    for n, (tail, head, cost) in enumerate(links):
        lp.add_constraint(
            {y[head]: 1.0, y[tail]: -1.0, e[n]: 1.0, f[n]: -1.0}, "<=", cost + prior[n]
        )
        lp.add_constraint({e[n]: 1.0, f[n]: -1.0}, "<=", prior[n])
    route = [(0, j) for j in range(k)] + [(i, k - 1) for i in range(1, k)]
    index = {(tail, head): n for n, (tail, head, _) in enumerate(links)}
    tight = {y[route[-1]]: 1.0, y[route[0]]: -1.0}
    rhs = 0.0
    for tail, head in zip(route, route[1:]):
        n = index[(tail, head)]
        tight[e[n]] = 1.0
        tight[f[n]] = -1.0
        rhs += links[n][2] + prior[n]
    lp.add_constraint(tight, "=", rhs)
    return lp, e, f


class TestProductFormUpdates:
    @staticmethod
    def assert_same_as_refactorising(lp, monkeypatch):
        """Solve with the default update interval and with one LU per pivot."""

        updated = solve(lp)
        with monkeypatch.context() as m:
            m.setattr(simplex, "_REFACTOR_EVERY", 1)
            refactorised = solve(lp)
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
        # the lexicographic second stage, as the inverse problems run it
        lp.add_constraint({j: 1.0 for j in e + f}, "<=", first.objective)
        lp.set_objective({j: 1.0 for j in e})
        second = self.assert_same_as_refactorising(lp, monkeypatch)
        assert first.pivots + second.pivots > 4 * simplex._REFACTOR_EVERY


class TestBlandRestart:
    def test_first_failure_reason_is_logged(self, monkeypatch, caplog):
        lp = LinearProgram()
        x = lp.add_variable("x", cost=1.0)
        lp.add_constraint({x: 1.0}, ">=", 3.0)
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
        lp.add_constraint({x: 1.0}, ">=", 3.0)
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
        lp.add_constraint({x: 1.0}, "<=", 3.0)
        lp.add_constraint({x: 1.0}, ">=", 1.0)
        return lp


def reference_standardize(lp: LinearProgram):
    """Row-by-row standard form: one zero row per constraint, then a stack."""

    std = simplex._standardize(lp)  # column bookkeeping only
    var_cols: dict[int, list[int]] = {}
    for k, j in enumerate(std.col_var):
        var_cols.setdefault(j, []).append(k)
    rows, rhs, relations = [], [], []
    for con, con_rhs in zip(lp._constraints, lp._rhs.tolist()):
        row = np.zeros(std.n_structural)
        shift_term = 0.0
        for j, a in con.coeffs:
            for k in var_cols[j]:
                row[k] += a * std.col_sign[k]
            shift_term += a * std.col_shift[var_cols[j][0]] if len(var_cols[j]) == 1 else 0.0
        rows.append(row)
        rhs.append(con_rhs - shift_term)
        relations.append(con.relation)
    for j in [j for j, v in enumerate(lp._variables) if -math.inf < v.lower and v.upper < math.inf]:
        row = np.zeros(std.n_structural)
        row[var_cols[j][0]] = 1.0
        rows.append(row)
        v = lp._variables[j]
        rhs.append(v.upper - v.lower)
        relations.append("<=")
    for i in range(len(rows)):
        if rhs[i] < 0:
            rows[i] = -rows[i]
            rhs[i] = -rhs[i]
            relations[i] = {"<=": ">=", ">=": "<=", "=": "="}[relations[i]]
    slacks = [r for r in relations if r != "="]
    a = np.zeros((len(rows), std.n_structural + len(slacks)))
    if rows:
        a[:, : std.n_structural] = np.vstack(rows)
    k = std.n_structural
    for i, rel in enumerate(relations):
        if rel != "=":
            a[i, k] = 1.0 if rel == "<=" else -1.0
            k += 1
    return std, a, np.asarray(rhs, dtype=float)


def random_bounds_lp(rng: np.random.Generator) -> LinearProgram:
    """A random LP over variables of every kind of bounds, with signed zero coefficients."""

    lp = LinearProgram()
    n = int(rng.integers(1, 6))
    for j in range(n):
        kind = int(rng.integers(0, 4))
        lower, upper = [(0.0, math.inf), (-math.inf, math.inf), (-math.inf, 2.0), (-1.0, 3.0)][kind]
        lp.add_variable(f"x{j}", lower, upper, cost=float(rng.uniform(-2, 2)))
    for _ in range(int(rng.integers(0, 6))):
        picked = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        coeffs = {int(j): float(rng.choice([0.0, -0.0, rng.uniform(-3, 3)])) for j in picked}
        lp.add_constraint(coeffs, str(rng.choice(["<=", ">=", "="])), float(rng.uniform(-4, 4)))
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
        """Primal recovery bit for bit, and the dual objective to rounding, against loops."""

        rng = np.random.default_rng(8)
        for _ in range(40):
            lp = random_bounds_lp(rng)
            std = simplex._standardize(lp)
            x = rng.choice([0.0, -0.0, 1.5, rng.uniform(0, 3)], size=std.a.shape[1])
            values = [0.0] * lp.num_variables
            seen = [False] * lp.num_variables
            for k in range(std.n_structural):
                j = std.col_var[k]
                if not seen[j]:
                    values[j] += std.col_shift[k]
                    seen[j] = True
                values[j] += std.col_sign[k] * x[k]
            recovered = simplex._recover_primal(std, x)
            assert np.array_equal(recovered, values)
            assert np.array_equal(np.signbit(recovered), np.signbit(values))

            duals = rng.uniform(-2, 2, lp.num_constraints)
            reduced = list(lp._objective)
            for i, con in enumerate(lp._constraints):
                for j, a in con.coeffs:
                    reduced[j] -= duals[i] * a
            total = 0.5 + sum(d * rhs for d, rhs in zip(duals, lp._rhs.tolist()))
            for j, v in enumerate(lp._variables):
                bound = v.lower if v.lower != -math.inf else v.upper
                if math.isfinite(bound):
                    total += bound * reduced[j]
            reduced_costs = simplex._reduced_costs(std, duals)
            dual_objective = simplex._dual_objective(std, duals, reduced_costs, 0.5)
            assert dual_objective == pytest.approx(total, rel=1e-12, abs=1e-12)


def verify(std, sol: simplex.LpSolution) -> None:
    """``_verify`` on a solution's values, as a solve hands them over."""

    x = np.array([sol.primal[name] for name in std.names], dtype=float)
    y = np.array(sol.duals, dtype=float)
    reduced = simplex._reduced_costs(std, y)
    simplex._verify(std, x, y, reduced, sol.objective, sol.dual_objective)


class TestVerify:
    def test_nan_certificate_is_rejected(self):
        lp = LinearProgram()
        x = lp.add_variable("x", cost=1.0)
        lp.add_constraint({x: 1.0}, ">=", 3.0)
        std = simplex._standardize(lp)
        nan = math.nan
        sol = simplex.LpSolution(Status.OPTIMAL, nan, {"x": nan}, (nan,), nan)
        with pytest.raises(SolverError, match="non-finite"):
            verify(std, sol)
        # one non-finite value among finite ones is enough
        sol = simplex.LpSolution(Status.OPTIMAL, 3.0, {"x": 3.0}, (math.inf,), 3.0)
        with pytest.raises(SolverError, match="non-finite"):
            verify(std, sol)
        verify(std, simplex.LpSolution(Status.OPTIMAL, 3.0, {"x": 3.0}, (1.0,), 3.0))

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
        "relation, rhs, lower, x, dual, objective, dual_objective, message",
        [
            (">=", 3.0, 0.0, 2.0, 1.0, 2.0, 3.0, "row 0 violated"),
            ("<=", 3.0, 0.0, 4.0, 0.0, 4.0, 4.0, "row 0 violated"),
            (">=", 3.0, 0.0, 3.0, -1.0, 3.0, -3.0, "row 0 has wrong dual sign"),
            ("<=", 3.0, 0.0, 3.0, 1.0, 3.0, 3.0, "row 0 has wrong dual sign"),
            (">=", 3.0, 0.0, 4.0, 1.0, 4.0, 3.0, "row 0 breaks complementary slackness"),
            (">=", -5.0, 0.0, -1.0, 0.0, -1.0, 0.0, "variable x out of bounds"),
            ("=", 3.0, -math.inf, 3.0, 0.0, 3.0, 0.0, "variable x has reduced cost"),
            (">=", 3.0, 0.0, 3.0, 1.0, 3.0, 4.0, "duality gap"),
            (">=", 3.0, 0.0, 3.0, 1.0, 3.0, 3.0, None),
        ],
    )
    def test_every_failure_message(
        self, relation, rhs, lower, x, dual, objective, dual_objective, message
    ):
        """One certificate of ``min x`` per check, each failing that check first."""

        lp = LinearProgram()
        lp.add_variable("x", lower=lower, cost=1.0)
        lp.add_constraint({0: 1.0}, relation, rhs)
        std = simplex._standardize(lp)
        sol = simplex.LpSolution(Status.OPTIMAL, objective, {"x": x}, (dual,), dual_objective)
        if message is None:
            verify(std, sol)
        else:
            with pytest.raises(SolverError, match=message):
                verify(std, sol)

    def test_variable_bounded_above_only(self):
        """``x <= u`` with no lower bound: the certificate counts ``u`` times its reduced cost."""

        lp = LinearProgram()
        x = lp.add_variable("x", lower=-math.inf, upper=3.0, cost=-1.0)
        lp.add_constraint({x: 1.0}, "<=", 5.0)
        sol = solve(lp)
        assert sol.status is Status.OPTIMAL
        assert sol.primal == {"x": 3.0} and sol.objective == sol.dual_objective == -3.0


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
            simplex._Pivoter, "factor", lambda self, basis: simplex._factor(self.a, basis)
        )
        refactorised = solve(lp)
        assert solution.status is Status.OPTIMAL
        assert solution == refactorised
        assert len(once) < len(every_time)
        assert not any(np.array_equal(p, q) for p, q in itertools.combinations(once, 2))


class TestSparseBases:
    """SuperLU changes no pivot, and the certified values only by rounding."""

    @staticmethod
    def both_stages(k, monkeypatch, threshold):
        """The grid price inverse's two stages, each solved fresh, recorded and replayed.

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
        assert first == [first[0]] * 3 and second == [second[0]] * 3
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
        code = (
            "import sys\n"
            "from netinverse.simplex import LinearProgram, Status, solve\n"
            "lp = LinearProgram()\n"
            "xs = [lp.add_variable(f'x{i}', cost=1.0 + i) for i in range(20)]\n"
            "for i, x in enumerate(xs):\n"
            "    lp.add_constraint({x: 1.0, xs[i - 1]: 1.0}, '>=', float(i))\n"
            "assert lp.num_constraints == 20 and solve(lp).status is Status.OPTIMAL\n"
            "print('scipy.sparse.linalg' in sys.modules)\n"
        )
        src = str(pathlib.Path(simplex.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


def count_pricing(monkeypatch) -> list[int]:
    """Count the pricing steps solves compute rather than take from a record."""

    calls: list[int] = []
    real = simplex._Pivoter._price

    def counting(self, *args):
        calls.append(1)
        return real(self, *args)

    monkeypatch.setattr(simplex._Pivoter, "_price", counting)
    return calls


class TestPivotMemo:
    """Re-solves after ``set_rhs`` give what fresh programs give, bit for bit."""

    K = 4
    LINKS = 4 * K * (K - 1)

    @classmethod
    def lexicographic(cls, prior, lps=None):
        """Both stages of the grid price inverse under ``prior``, as the inverses run them.

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

    def test_sequence_of_priors(self, monkeypatch):
        pricing = count_pricing(monkeypatch)
        lps: list = []
        resolved = fresh = 0
        for prior in self.priors(2, 8):
            start = len(pricing)
            with_record = self.lexicographic(prior, lps)
            resolved += len(pricing) - start
            start = len(pricing)
            assert with_record == self.lexicographic(prior)
            fresh += len(pricing) - start
            assert all(s.status is Status.OPTIMAL for s in with_record)
        assert 0 < resolved < fresh

    def test_leaving_choice_changed_mid_path(self, monkeypatch):
        pricing = count_pricing(monkeypatch)
        prior = self.priors(5, 1)[0]
        lp, _, _ = grid_price_inverse(self.K, np.random.default_rng(1), prior)
        solve(lp)
        solve(lp)  # the second solve records its path
        moved = [p + 1.0 if n <= 8 else p for n, p in enumerate(prior)]
        fresh, _, _ = grid_price_inverse(self.K, np.random.default_rng(1), moved)
        lp.set_rhs(0, fresh._rhs)
        start = len(pricing)
        replayed = solve(lp)
        computed = len(pricing) - start
        start = len(pricing)
        assert replayed == solve(fresh)
        # part of the path was replayed, then the new prior chose another row to leave
        assert 0 < computed < len(pricing) - start

    @staticmethod
    def changed(lp: LinearProgram, row: int | None = None, cost=None, **changes) -> LinearProgram:
        """A copy of ``lp`` with constraint ``row`` changed, or with objective ``cost``."""

        copy = lp.copy()
        if cost is not None:
            copy._objective = cost
        if row is not None:
            copy._constraints[row] = dataclasses.replace(lp._constraints[row], **changes)
        return copy

    def test_changed_lp_is_solved_fresh(self, monkeypatch):
        pricing = count_pricing(monkeypatch)
        prior = self.priors(3, 1)[0]
        tight = grid_price_inverse(self.K, np.random.default_rng(1), prior)[0]._rhs[-1]

        def flip_tight(lp):
            # the tight row's right-hand side negated, so its standard-form row flips
            lp.set_rhs(lp.num_constraints - 1, -tight)
            return self.changed(lp)

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

        for change in (flip_tight, double_cost, add_row, add_variable):
            lp, _, _ = grid_price_inverse(self.K, np.random.default_rng(1), prior)
            solve(lp)
            solve(lp)
            assert lp._record
            variant = change(lp)
            start = len(pricing)
            resolved = solve(lp)
            computed = len(pricing) - start
            start = len(pricing)
            assert resolved == solve(variant)
            # the re-solve replayed nothing
            assert computed == len(pricing) - start

    def test_memo_holds_the_latest_solve_only(self):
        lps: list = []
        priors = self.priors(4, 30)
        self.lexicographic(priors[0], lps)
        for prior in priors:
            self.lexicographic(prior, lps)
            alone: list = []
            self.lexicographic(prior, alone)
            self.lexicographic(prior, alone)
            assert [len(lp._record) for lp in lps] == [len(lp._record) for lp in alone]
            assert sum(len(lp._record) for lp in lps) < 4 * self.LINKS

    def test_refactorising_every_pivot(self, monkeypatch):
        """Phase 2 may start from the basis phase 1 last factorised."""

        monkeypatch.setattr(simplex, "_REFACTOR_EVERY", 1)
        lps: list = []
        for prior in self.priors(7, 3):
            assert self.lexicographic(prior, lps) == self.lexicographic(prior)
        # phase 1 ends with x basic and no artificial left; phase 2 pivots y in
        lp = LinearProgram()
        x = lp.add_variable("x", cost=1.0)
        y = lp.add_variable("y")
        lp.add_constraint({x: 1.0, y: 1.0}, "=", 2.0)
        solutions = [solve(lp) for _ in range(3)]  # a first solve, a recording one, a replay
        assert solutions == [solutions[0]] * 3
        assert solutions[0].primal == {"x": 0.0, "y": 2.0}

    def test_bland_switch(self, monkeypatch):
        """A re-solve that switches to Bland's rule sooner does not replay Dantzig steps."""

        prior = [0.0] * self.LINKS  # every nonnegativity row degenerate
        lps: list = []
        self.lexicographic(prior, lps)
        dantzig = self.lexicographic(prior, lps)
        real_init = simplex._Pivoter.__init__

        def eager_bland(pivoter, *args, **kwargs):
            real_init(pivoter, *args, **kwargs)
            pivoter.stall_limit = 0  # Bland's rule from the first degenerate pivot

        monkeypatch.setattr(simplex._Pivoter, "__init__", eager_bland)
        bland = self.lexicographic(prior, lps)
        assert bland == self.lexicographic(prior)
        assert [s.pivots for s in bland] != [s.pivots for s in dantzig]

    def test_unchanged_lp_computes_no_pricing_step(self, monkeypatch):
        pricing = count_pricing(monkeypatch)
        lps: list = []
        prior = self.priors(6, 1)[0]
        first = self.lexicographic(prior, lps)
        computed = len(pricing)
        assert computed > 0
        assert self.lexicographic(prior, lps) == first  # computes again, and records
        assert len(pricing) == 2 * computed
        assert self.lexicographic(prior, lps) == first
        assert len(pricing) == 2 * computed


class TestSetRhs:
    def test_bad_row_or_value_is_rejected(self):
        lp = TestLapackKernel.two_row_lp()
        for row, value in ((-1, 1.0), (2, 1.0), (-1, [1.0, 1.0]), (1, [1.0, 1.0])):
            with pytest.raises(SolverError, match="no constraint"):
                lp.set_rhs(row, value)
        for value in (math.nan, math.inf, -math.inf, [2.0, math.nan]):
            with pytest.raises(SolverError, match="finite"):
                lp.set_rhs(0, value)
        assert lp._rhs.tolist() == [3.0, 1.0]
        lp.set_rhs(0, [4.0, 2.0])
        assert lp._rhs.tolist() == [4.0, 2.0]

    def test_rows_added_one_by_one_keep_their_rhs(self):
        lp = LinearProgram()
        x = lp.add_variable("x", cost=1.0)
        values = [float(i) for i in range(40)]
        for value in values[:20]:
            lp.add_constraint({x: 1.0}, ">=", value)
        copy = lp.copy()
        for value in values[20:]:
            lp.add_constraint({x: 1.0}, ">=", value)
        copy.add_constraint({x: 1.0}, ">=", -1.0)
        assert lp._rhs.tolist() == values
        assert copy._rhs.tolist() == values[:20] + [-1.0]
        lp.set_rhs(39, 50.0)
        assert solve(lp).objective == 50.0 and solve(copy).objective == 19.0

    def test_certificate_arrays_follow_the_structure(self):
        """After a row flip, a new row or a new objective, a kept program certifies as fresh."""

        def flip_tight(lp):
            lp.set_rhs(lp.num_constraints - 1, -lp._rhs[-1] - 1.0)

        def add_row(lp):
            lp.add_constraint({0: 1.0, 1: -1.0}, ">=", -0.5)

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

        for change in (flip_tight, add_row, new_objective):
            lp, _, _ = grid_price_inverse(3, np.random.default_rng(1), [0.5] * 24)
            solve(lp)
            solve(lp)
            kept = lp._std
            change(lp)
            fresh = lp.copy()
            expected = solve(fresh)
            assert expected.status is Status.OPTIMAL
            assert solve(lp) == expected
            solve(lp)  # a program whose structure changed keeps its form from its second solve
            assert lp._std is not None and lp._std is not kept
            reference = simplex._standardize(fresh)
            for name in ("cost_slack", "row_le_only", "row_ge_only", "row_not_eq",
                         "upper_inf", "lower_inf", "row_le", "row_ge", "cost"):
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
        for change in (
            lambda lp: lp.add_variable("spare"),
            lambda lp: lp.add_constraint({0: 1.0}, ">=", 0.0),
            lambda lp: lp.set_objective({0: 2.0}),
        ):
            lp, _, _ = grid_price_inverse(3, np.random.default_rng(1))
            solve(lp)
            solve(lp)
            change(lp)
            assert lp._std is None and lp._record is None
            solve(lp)
            assert lp._std is None and lp._record is None

    def test_lp_solved_once_holds_no_record(self):
        lp, _, _ = grid_price_inverse(4, np.random.default_rng(1))
        solve(lp)
        assert lp._std is None and lp._record is None
        solve(lp)
        assert lp._std is not None and lp._record

    def test_rhs_that_changes_sign(self):
        """A row whose right-hand side changes sign flips in the standard form."""

        lp = LinearProgram()
        x = lp.add_variable("x", cost=1.0)
        y = lp.add_variable("y", lower=-math.inf)
        lp.add_constraint({x: 1.0, y: -1.0}, ">=", 2.0)
        lp.add_constraint({y: 1.0}, "=", 1.0)
        flips = []
        for rhs in (2.0, 3.0, -4.0, -1.0, 0.0, 5.0):
            lp.set_rhs(0, rhs)
            lp.set_rhs(1, -rhs)
            assert solve(lp) == solve(TestPivotMemo.changed(lp))
            flips.append(bool(lp._std.row_flip[1]) if lp._std is not None else None)
        assert flips == [None, True, False, False, False, True]

    def test_cached_standard_form_is_not_mutated(self):
        """Artificial columns and dropped redundant rows stay out of the kept form."""

        lp = LinearProgram()
        x = lp.add_variable("x", cost=1.0)
        y = lp.add_variable("y", cost=2.0)
        lp.add_constraint({x: 1.0, y: 1.0}, "=", 2.0)
        lp.add_constraint({x: 2.0, y: 2.0}, "=", 4.0)  # redundant
        lp.add_constraint({x: 1.0}, "<=", 1.5)
        solve(lp)
        solve(lp)
        kept = lp._std
        a, b = kept.a.copy(), kept.b.copy()
        for rhs in (3.0, 1.0, 2.5, 0.0):
            lp.set_rhs(0, rhs)
            lp.set_rhs(1, 2.0 * rhs)
            fresh = TestPivotMemo.changed(lp)
            assert solve(lp) == solve(fresh)
            assert lp._std is kept and kept.a.shape == a.shape
            for matrix in (kept.a, kept.at.T):
                assert all(np.array_equal(getattr(matrix, name), getattr(a, name))
                           for name in ("data", "indices", "indptr"))
            assert kept.b[0] == rhs and kept.b[2] == b[2]
