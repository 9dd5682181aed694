"""Self-contained linear-program solver with primal and dual certificates.

Dense two-phase revised simplex, minimization only.  Built for desk-scale
problems (up to a few hundred variables) where determinism, exact
reproducibility, and availability of duals matter more than raw speed.
The basis is held as a dense LU factorisation with product-form updates,
refactorised every ``_REFACTOR_EVERY`` pivots.  Primal values, duals and
the certificate come from a fresh LU of the final basis, so they never
depend on the update history.  Each solve keeps the LU it factorised last,
so a basis is not factorised again while it stays unchanged between the
pivot loop, the phase-1 infeasibility test, the removal of artificials,
phase 2's start and the certificate.

Every factorisation and solve calls LAPACK ``getrf``/``getrs`` directly
(looked up once at import), through :func:`_lu_factor` and
:func:`_lu_solve`.  These are the routines ``scipy.linalg.lu_factor`` and
``lu_solve`` call, without their per-call wrapper cost, so the arithmetic is
the same.  A non-finite matrix or right-hand side and a nonzero LAPACK
``info`` (from ``getrf``: an exactly singular basis) raise
:class:`SolverError`, so :func:`solve` restarts under Bland's rule and, if
that fails too, reports NUMERICAL_FAILURE.

Re-solves with a changed right-hand side
----------------------------------------
A caller that solves one LP many times with only the right-hand side ``b``
changing (the inverse problems of a fixed point, whose prior enters only
through ``b``) can pass the same :class:`PivotMemo` to every :func:`solve`.
The memo holds what depends only on the standardised matrix ``A``, the costs
``c`` and the sequence of bases: the LU of each factorised basis, each
pricing step's outcome (the entering column or "optimal", with its FTRAN'd
column) keyed by the basis at the last refactorisation, the ``(leave,
enter)`` pairs since then, the Bland flag and the phase, and the final
duals keyed by the final basis.  Everything that depends on ``b`` is
computed on every solve: basic values, the ratio test and leaving choice,
the degeneracy counter and the Bland switch, the phase-1 infeasibility
test, primal values, objectives and the certificate check.  A re-solve thus
follows a recorded path only while its own ``b`` makes the same leaving
choices; the first different choice reaches a state the memo does not hold,
and from there it computes as a solve without a memo does.  The values it
takes from the memo are the ones it would have computed, so every pivot and
every result is the same, bit for bit, with or without a memo.  A record is
used only while ``A`` (with its artificial columns), ``c``, the starting
basis and the Bland flag equal the recorded ones exactly; otherwise it is
replaced.  The memo keeps only the states the latest solve of each LP used.

Conventions
-----------
* Objective sense is MIN.
* Duals are shadow prices, ``d(objective)/d(rhs)``: nonnegative for binding
  ``>=`` rows, nonpositive for binding ``<=`` rows, free for equalities.
* Entering variable: most negative reduced cost, lowest column index among
  candidates within tolerance.  A stall counter switches to Bland's rule to
  guarantee termination on degenerate problems.
* Leaving variable: minimum ratio, ties broken by lowest basis-variable
  index (Bland-compatible).

Every OPTIMAL result is verified internally (finite values, feasibility,
duality gap, complementary slackness); a result that cannot be certified is
reported as NUMERICAL_FAILURE, never returned as if correct.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import SolverError

logger = logging.getLogger(__name__)

FEAS_TOL = 1e-8
OPT_TOL = 1e-9
GAP_TOL = 1e-7
_PIVOT_TOL = 1e-10
_DROP_TOL = 1e-7
_MAX_PIVOTS = 100_000
_REFACTOR_EVERY = 32  # pivots between fresh LU factorisations of the basis

_getrf, _getrs = get_lapack_funcs(("getrf", "getrs"), dtype=np.float64)


class Status(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass(frozen=True)
class _Variable:
    name: str
    lower: float
    upper: float


@dataclass(frozen=True)
class _Constraint:
    coeffs: tuple[tuple[int, float], ...]
    relation: str
    rhs: float
    name: str


class LinearProgram:
    """Mutable builder for a minimization LP.

    Variables are referenced by the integer index returned from
    :meth:`add_variable`.  Constraints may use relation ``"<="``, ``"="``,
    or ``">="``.
    """

    def __init__(self) -> None:
        self._variables: list[_Variable] = []
        self._objective: list[float] = []
        self._constraints: list[_Constraint] = []
        self._names: set[str] = set()

    # -- construction -----------------------------------------------------

    def add_variable(
        self,
        name: str,
        lower: float = 0.0,
        upper: float = math.inf,
        cost: float = 0.0,
    ) -> int:
        if name in self._names:
            raise SolverError(f"duplicate variable name {name!r}")
        if lower > upper:
            raise SolverError(f"variable {name!r} has lower {lower} > upper {upper}")
        if math.isnan(lower) or math.isnan(upper) or not math.isfinite(cost):
            raise SolverError(f"variable {name!r} has invalid bounds or cost")
        self._names.add(name)
        self._variables.append(_Variable(name, lower, upper))
        self._objective.append(cost)
        return len(self._variables) - 1

    def add_constraint(
        self,
        coeffs: Mapping[int, float],
        relation: str,
        rhs: float,
        name: str = "",
    ) -> int:
        if relation not in ("<=", "=", ">="):
            raise SolverError(f"unknown relation {relation!r}")
        if not math.isfinite(rhs):
            raise SolverError(f"constraint rhs must be finite, got {rhs!r}")
        for j, a in coeffs.items():
            if not 0 <= j < len(self._variables):
                raise SolverError(f"constraint references undeclared variable index {j}")
            if not math.isfinite(a):
                raise SolverError(f"non-finite coefficient for variable index {j}")
        row = tuple(sorted(coeffs.items()))
        self._constraints.append(_Constraint(row, relation, rhs, name))
        return len(self._constraints) - 1

    def set_objective(self, coeffs: Mapping[int, float]) -> None:
        """Replace the objective with the given (sparse) coefficient map."""

        self._objective = [0.0] * len(self._variables)
        for j, c in coeffs.items():
            if not 0 <= j < len(self._variables):
                raise SolverError(f"objective references undeclared variable index {j}")
            self._objective[j] = float(c)

    # -- introspection ----------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self._variables)

    @property
    def num_constraints(self) -> int:
        return len(self._constraints)

    def variable_name(self, index: int) -> str:
        return self._variables[index].name

    def dump(self) -> str:
        """Human-readable text form of the LP, for bug reports."""

        def term(j: int, a: float) -> str:
            return f"{a:+g}*{self._variables[j].name}"

        lines = ["min " + " ".join(term(j, c) for j, c in enumerate(self._objective) if c)]
        for i, con in enumerate(self._constraints):
            label = con.name or f"r{i}"
            body = " ".join(term(j, a) for j, a in con.coeffs)
            lines.append(f"  {label}: {body} {con.relation} {con.rhs:g}")
        for v in self._variables:
            lines.append(f"  {v.lower:g} <= {v.name} <= {v.upper:g}")
        return "\n".join(lines)


@dataclass(frozen=True)
class LpSolution:
    """Primal/dual certificate for one solve.

    ``duals`` has one entry per constraint in declaration order.
    ``dual_objective`` includes variable-bound contributions so that it
    equals ``objective`` at every certified OPTIMAL result.
    """

    status: Status
    objective: float = math.nan
    primal: dict[str, float] = field(default_factory=dict)
    duals: tuple[float, ...] = ()
    dual_objective: float = math.nan
    pivots: int = 0

    def __getitem__(self, name: str) -> float:
        return self.primal[name]


# ---------------------------------------------------------------------------
# standardized problem
# ---------------------------------------------------------------------------


@dataclass
class _Standardized:
    a: np.ndarray              # m x n, structural + slack columns
    b: np.ndarray              # m, nonnegative
    c: np.ndarray              # n
    row_flip: list[bool]       # row was negated during normalization
    row_origin: list[int]      # original constraint index, -1 for bound rows
    bound_row_var: list[int]   # original variable index for bound rows, -1 otherwise
    slack_of_row: list[int]    # column of the slack/surplus for each row, -1 if none
    col_var: list[int]         # original variable index per structural column
    col_sign: list[float]      # +1 / -1 multiplier applied to the column
    col_shift: list[float]     # original value = shift + sign * column value
    n_structural: int
    const_offset: float


def _standardize(lp: LinearProgram) -> _Standardized:
    n_orig = lp.num_variables
    col_var: list[int] = []
    col_sign: list[float] = []
    col_shift: list[float] = []
    var_cols: list[list[int]] = []
    const_offset = 0.0
    upper_rows: list[tuple[int, float]] = []  # (original var, rhs u - l)

    for j in range(n_orig):
        v = lp._variables[j]
        lo, hi = v.lower, v.upper
        if lo == -math.inf and hi == math.inf:
            col_var += [j, j]
            col_sign += [1.0, -1.0]
            col_shift += [0.0, 0.0]
            var_cols.append([len(col_var) - 2, len(col_var) - 1])
        elif lo == -math.inf:
            # x = u - x'', x'' >= 0
            col_var.append(j)
            col_sign.append(-1.0)
            col_shift.append(hi)
            const_offset += lp._objective[j] * hi
            var_cols.append([len(col_var) - 1])
        else:
            col_var.append(j)
            col_sign.append(1.0)
            col_shift.append(lo)
            const_offset += lp._objective[j] * lo
            var_cols.append([len(col_var) - 1])
            if hi != math.inf:
                upper_rows.append((j, hi - lo))

    n_struct = len(col_var)
    cons = lp._constraints
    m = len(cons) + len(upper_rows)
    n_slack = sum(1 for con in cons if con.relation != "=") + len(upper_rows)
    width = n_struct + n_slack
    a = np.zeros((m, width))
    rhs: list[float] = []
    relations = [con.relation for con in cons] + ["<="] * len(upper_rows)
    row_origin = list(range(len(cons))) + [-1] * len(upper_rows)
    bound_row_var = [-1] * len(cons) + [j for j, _ in upper_rows]

    # every entry is written once into a zero matrix; ``0.0 +`` keeps the
    # sign a zero product takes when accumulated into it
    nz_row: list[int] = []
    nz_col: list[int] = []
    nz_val: list[float] = []
    for i, con in enumerate(cons):
        shift_term = 0.0
        for j, coef in con.coeffs:
            for k in var_cols[j]:
                nz_row.append(i)
                nz_col.append(k)
                nz_val.append(0.0 + coef * col_sign[k])
            shift_term += coef * col_shift[var_cols[j][0]] if len(var_cols[j]) == 1 else 0.0
        rhs.append(con.rhs - shift_term)
    for i, (j, cap) in enumerate(upper_rows, start=len(cons)):
        nz_row.append(i)
        nz_col.append(var_cols[j][0])
        nz_val.append(1.0)
        rhs.append(cap)
    a[nz_row, nz_col] = nz_val

    # normalize rhs >= 0, then one slack (<=) or surplus (>=) column per inequality
    row_flip = [False] * m
    slack_of_row = [-1] * m
    k = n_struct
    for i in range(m):
        if rhs[i] < 0:
            a[i, :n_struct] = -a[i, :n_struct]
            rhs[i] = -rhs[i]
            relations[i] = {"<=": ">=", ">=": "<=", "=": "="}[relations[i]]
            row_flip[i] = True
        if relations[i] != "=":
            a[i, k] = 1.0 if relations[i] == "<=" else -1.0
            slack_of_row[i] = k
            k += 1

    c = np.zeros(width)
    c[:n_struct] = [lp._objective[j] * sign for j, sign in zip(col_var, col_sign)]

    return _Standardized(
        a=a,
        b=np.asarray(rhs, dtype=float),
        c=c,
        row_flip=row_flip,
        row_origin=row_origin,
        bound_row_var=bound_row_var,
        slack_of_row=slack_of_row,
        col_var=col_var,
        col_sign=col_sign,
        col_shift=col_shift,
        n_structural=n_struct,
        const_offset=const_offset,
    )


def _lu_factor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LU-factorise the square matrix ``a`` with LAPACK ``getrf``.

    Returns ``(lu, piv)`` as ``scipy.linalg.lu_factor`` does.
    """

    if not np.isfinite(a).all():
        raise SolverError("basis matrix has a non-finite entry")
    if a.size == 0:  # LAPACK rejects empty arguments
        return a, np.zeros(0, dtype=np.int32)
    lu, piv, info = _getrf(a)
    if info > 0:
        raise SolverError(f"basis matrix is singular (zero pivot {info})")
    if info < 0:
        raise SolverError(f"getrf rejected argument {-info}")
    return lu, piv


def _lu_solve(
    lu_piv: tuple[np.ndarray, np.ndarray], v: np.ndarray, trans: int = 0
) -> np.ndarray:
    """Solve ``B x = v`` (``trans=1``: ``B' x = v``) from ``_lu_factor(B)``."""

    if not np.isfinite(v).all():
        raise SolverError("right-hand side has a non-finite entry")
    if v.size == 0:
        return v.copy()
    x, info = _getrs(*lu_piv, v, trans=trans)
    if info:
        raise SolverError(f"getrs rejected argument {-info}")
    return x


class PivotMemo:
    """Pivot decisions of earlier solves, replayed by re-solves of the same LP.

    Pass one memo to every :func:`solve` of LPs that differ only in their
    right-hand sides; what it reuses and why the results cannot change is
    set out in the module docstring.  ``steps_reused`` and
    ``steps_computed`` count the pricing steps taken from the memo and
    computed afresh over its lifetime.
    """

    def __init__(self) -> None:
        self._records: dict[tuple, _Record] = {}
        self.steps_reused = 0
        self.steps_computed = 0

    def __len__(self) -> int:
        """The number of states held: LU factorisations, pricing steps, duals."""

        return sum(len(r.lus) + len(r.steps) + len(r.duals) for r in self._records.values())


@dataclass
class _Record:
    """The states one solve of one LP used, with what they depend on."""

    a: np.ndarray
    c: np.ndarray
    basis: list[int]
    lus: dict = field(default_factory=dict)    # basis -> LU
    steps: dict = field(default_factory=dict)  # ((phase, basis), pairs, bland) -> (enter, column)
    duals: dict = field(default_factory=dict)  # final basis -> y


class _Replay:
    """One solve's use of a memo.

    Looks states up in the LP's last record and records every state this
    solve uses in a new record, which replaces the last one at once.
    """

    def __init__(
        self,
        memo: PivotMemo,
        a: np.ndarray,
        c: np.ndarray,
        n_real: int,
        basis: list[int],
        bland: bool,
    ):
        key = (a.shape, n_real, bland)
        old = memo._records.get(key)
        if old is not None and not (
            np.array_equal(old.a, a) and np.array_equal(old.c, c) and old.basis == basis
        ):
            old = None
        self.memo = memo
        self.old = old
        self.new = memo._records[key] = _Record(a, c, list(basis))

    def recall(self, table: str, key, compute):
        """State ``key`` of ``table`` from the memo if it holds it, else ``compute()``."""

        new = getattr(self.new, table)
        if key not in new:
            old = getattr(self.old, table, {})  # {} when there is no old record
            reused = key in old
            new[key] = old[key] if reused else compute()
            if table == "steps":
                if reused:
                    self.memo.steps_reused += 1
                else:
                    self.memo.steps_computed += 1
        return new[key]


class _Compute:
    """Stands in for :class:`_Replay` when there is no memo: computes every state."""

    @staticmethod
    def recall(table: str, key, compute):
        return compute()


class _Pivoter:
    """Shared pivoting loop for both simplex phases.

    The basis is held in product form: an LU factorisation of the basis as it
    stood at the last refactorisation, followed by an eta file with one entry
    per pivot since then.  Entry ``(r, d)`` records that column ``r`` of the
    basis was replaced by a column whose FTRAN'd image is ``d``.  The LU
    factorised last is kept with its basis, so asking again for the LU of an
    unchanged basis does not factorise it again.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, stall_limit: int, replay):
        self.a = a
        self.b = b
        self.stall_limit = stall_limit
        self.replay = replay
        self.bland = False
        self.degenerate_run = 0
        self.pivots = 0
        self._lu_basis: tuple[int, ...] | None = None
        self._lu = None

    def factor(self, basis: list[int]):
        """The LU of the basis matrix ``a[:, basis]``."""

        key = tuple(basis)
        if key != self._lu_basis:
            self._lu = self.replay.recall("lus", key, lambda: _lu_factor(self.a[:, basis]))
            self._lu_basis = key
        return self._lu

    def drop_row(self, a: np.ndarray, b: np.ndarray) -> None:
        """Continue on ``a`` and ``b``, which lack one row of the ones held so far.

        Which row goes depends on the basis phase 1 ended on, so a recorded
        state keyed by a basis of the smaller matrix may belong to another
        row's removal: the rest of the solve computes every state.
        """

        self.a, self.b = a, b
        self.replay = _Compute()

    def run(self, c: np.ndarray, basis: list[int], allowed: np.ndarray, phase: int) -> str:
        """Pivot until optimal or unbounded; returns 'optimal' or 'unbounded'."""

        b = self.b
        etas: list[tuple[int, np.ndarray]] = []
        lu = None
        while True:
            if self.pivots > _MAX_PIVOTS:
                raise SolverError("pivot limit exceeded")
            if lu is None or len(etas) >= _REFACTOR_EVERY:
                lu = self.factor(basis)
                etas.clear()
                x_b = _lu_solve(lu, b)
                root = (phase, tuple(basis))
                pairs: tuple[tuple[int, int], ...] = ()
            enter, direction = self.replay.recall(
                "steps",
                (root, pairs, self.bland),
                lambda: self._price(c, lu, etas, basis, allowed),
            )
            if enter < 0:
                return "optimal"
            pos = np.flatnonzero(direction > _PIVOT_TOL)
            if pos.size == 0:
                return "unbounded"
            ratios = x_b[pos] / direction[pos]
            rmin = ratios.min()
            ties = pos[ratios <= rmin + FEAS_TOL]
            leave = int(min(ties, key=lambda i: basis[i]))
            if x_b[leave] <= FEAS_TOL:
                self.degenerate_run += 1
                if self.degenerate_run > self.stall_limit:
                    self.bland = True
            else:
                self.degenerate_run = 0
            theta = x_b[leave] / direction[leave]
            x_b -= theta * direction
            x_b[leave] = theta
            etas.append((leave, direction))
            pairs += ((leave, enter),)
            basis[leave] = enter
            self.pivots += 1

    def _price(self, c, lu, etas, basis, allowed) -> tuple[int, np.ndarray | None]:
        """The entering column and its FTRAN'd image, or ``(-1, None)`` at the optimum."""

        y = _btran(lu, etas, c[basis])
        reduced = c - self.a.T @ y
        candidates = np.flatnonzero((reduced < -OPT_TOL) & allowed)
        if candidates.size == 0:
            return -1, None
        if self.bland:
            enter = int(candidates[0])
        else:
            best = reduced[candidates].min()
            enter = int(candidates[reduced[candidates] <= best + OPT_TOL][0])
        return enter, _ftran(lu, etas, self.a[:, enter])


def _ftran(lu, etas: list[tuple[int, np.ndarray]], v: np.ndarray) -> np.ndarray:
    """Solve ``B x = v`` for the basis held as ``lu`` plus the eta file."""

    x = _lu_solve(lu, v)
    for r, d in etas:
        xr = x[r] / d[r]
        x -= xr * d
        x[r] = xr
    return x


def _btran(lu, etas: list[tuple[int, np.ndarray]], v: np.ndarray) -> np.ndarray:
    """Solve ``B' y = v`` for the basis held as ``lu`` plus the eta file."""

    u = v.copy()
    for r, d in reversed(etas):
        u[r] = (u[r] - (d @ u - d[r] * u[r])) / d[r]
    return _lu_solve(lu, u, trans=1)


def _drive_out_artificials(
    std: _Standardized,
    basis: list[int],
    n_real: int,
    pivoter: _Pivoter,
) -> None:
    """Pivot artificial variables out of the basis; drop redundant rows.

    A basic artificial sits at value ~0 after a feasible phase 1.  If its row
    has no eligible real column to pivot on, the row is linearly dependent on
    the others and is removed from the problem.
    """

    while True:
        row_of = {col: i for i, col in enumerate(basis)}
        art_rows = [i for i, col in enumerate(basis) if col >= n_real]
        if not art_rows:
            return
        i = art_rows[0]
        lu = pivoter.factor(basis)
        e = np.zeros(len(basis))
        e[i] = 1.0
        w = _lu_solve(lu, e, trans=1)
        tableau_row = w @ std.a[:, :n_real]
        eligible = [
            j
            for j in range(n_real)
            if abs(tableau_row[j]) > _DROP_TOL and j not in row_of
        ]
        if eligible:
            basis[i] = eligible[0]
            continue
        # redundant row: remove it together with its artificial column
        keep = [k for k in range(std.a.shape[0]) if k != i]
        std.a = std.a[keep, :]
        std.b = std.b[keep]
        std.row_flip = [std.row_flip[k] for k in keep]
        std.row_origin = [std.row_origin[k] for k in keep]
        std.bound_row_var = [std.bound_row_var[k] for k in keep]
        std.slack_of_row = [std.slack_of_row[k] for k in keep]
        del basis[i]
        pivoter.drop_row(std.a, std.b)
        # artificial column indices shift as rows disappear; art columns are
        # only referenced through `basis`, which no longer contains this one


def _solve_once(lp: LinearProgram, force_bland: bool, memo: PivotMemo | None) -> LpSolution:
    std = _standardize(lp)
    m, n_real = std.a.shape[0], std.a.shape[1]

    if m == 0:
        if np.any(std.c < -OPT_TOL):
            return LpSolution(Status.UNBOUNDED)
        primal = _recover_primal(lp, std, np.zeros(n_real))
        obj = std.const_offset
        return LpSolution(Status.OPTIMAL, obj, primal, (), obj, 0)

    # phase 1: artificials for rows without a usable slack basis
    art_of_row: list[int] = [-1] * m
    art_cols: list[int] = []
    basis: list[int] = [-1] * m
    for i in range(m):
        slack = std.slack_of_row[i]
        if slack >= 0 and std.a[i, slack] > 0:
            basis[i] = slack
        else:
            col = n_real + len(art_cols)
            art_of_row[i] = col
            art_cols.append(col)
            basis[i] = col
    a_full = np.hstack([std.a, np.zeros((m, len(art_cols)))])
    for i in range(m):
        if art_of_row[i] >= 0:
            a_full[i, art_of_row[i]] = 1.0

    if memo is None:
        replay = _Compute()
    else:
        replay = _Replay(memo, a_full, std.c, n_real, basis, force_bland)
    pivoter = _Pivoter(a_full, std.b, stall_limit=max(50, 2 * m), replay=replay)
    pivoter.bland = force_bland
    std.a = a_full

    if art_cols:
        c1 = np.zeros(a_full.shape[1])
        c1[n_real:] = 1.0
        allowed = np.zeros(a_full.shape[1], dtype=bool)
        allowed[:n_real] = True
        outcome = pivoter.run(c1, basis, allowed, phase=1)
        if outcome != "optimal":
            raise SolverError("phase 1 reported unbounded")
        x_b = _lu_solve(pivoter.factor(basis), std.b)
        infeas = sum(x_b[i] for i in range(m) if basis[i] >= n_real)
        if infeas > FEAS_TOL * max(1.0, float(np.max(std.b, initial=0.0))):
            return LpSolution(Status.INFEASIBLE, pivots=pivoter.pivots)
        _drive_out_artificials(std, basis, n_real, pivoter)
        a_full = std.a
        m = a_full.shape[0]

    # phase 2
    c2 = np.zeros(a_full.shape[1])
    c2[:n_real] = std.c
    allowed = np.zeros(a_full.shape[1], dtype=bool)
    allowed[:n_real] = True
    outcome = pivoter.run(c2, basis, allowed, phase=2)
    if outcome == "unbounded":
        return LpSolution(Status.UNBOUNDED, pivots=pivoter.pivots)

    lu = pivoter.factor(basis)
    x_b = _lu_solve(lu, std.b)
    x = np.zeros(n_real)
    for i, col in enumerate(basis):
        if col < n_real:
            x[col] = x_b[i]
    y = pivoter.replay.recall("duals", tuple(basis), lambda: _lu_solve(lu, c2[basis], trans=1))

    primal = _recover_primal(lp, std, x)
    objective = sum(lp._objective[j] * primal[lp._variables[j].name] for j in range(lp.num_variables))

    duals = [0.0] * lp.num_constraints
    bound_row_term = 0.0
    for i in range(m):
        value = -y[i] if std.row_flip[i] else y[i]
        orig = std.row_origin[i]
        if orig >= 0:
            duals[orig] = float(value)
        else:
            rhs = std.b[i] if not std.row_flip[i] else -std.b[i]
            bound_row_term += value * rhs

    dual_objective = _dual_objective(lp, duals, bound_row_term)
    solution = LpSolution(
        Status.OPTIMAL,
        float(objective),
        primal,
        tuple(duals),
        float(dual_objective),
        pivoter.pivots,
    )
    _verify(lp, solution)
    return solution


def _recover_primal(lp: LinearProgram, std: _Standardized, x: np.ndarray) -> dict[str, float]:
    values = [0.0] * lp.num_variables
    seen_shift = [False] * lp.num_variables
    for k in range(std.n_structural):
        j = std.col_var[k]
        if not seen_shift[j]:
            values[j] += std.col_shift[k]
            seen_shift[j] = True
        values[j] += std.col_sign[k] * x[k]
    return {lp._variables[j].name: float(values[j]) for j in range(lp.num_variables)}


def _dual_objective(
    lp: LinearProgram,
    duals: list[float],
    bound_row_term: float,
) -> float:
    # c.x = sum_i y_i b_i + l.(c - A'y) + sum_{upper rows} y_r (u - l)
    total = bound_row_term
    for i, con in enumerate(lp._constraints):
        total += duals[i] * con.rhs
    reduced = list(lp._objective)
    for i, con in enumerate(lp._constraints):
        for j, a in con.coeffs:
            reduced[j] -= duals[i] * a
    for j, v in enumerate(lp._variables):
        if v.lower not in (0.0, -math.inf):
            total += v.lower * reduced[j]
    return total


def _verify(lp: LinearProgram, sol: LpSolution) -> None:
    x = [sol.primal[v.name] for v in lp._variables]
    # every comparison below is false for NaN, so non-finite values must fail first
    if not all(map(math.isfinite, (sol.objective, sol.dual_objective, *sol.duals, *x))):
        raise SolverError("certificate has a non-finite value")
    scale = max(1.0, max((abs(c.rhs) for c in lp._constraints), default=1.0))
    for i, con in enumerate(lp._constraints):
        lhs = sum(a * x[j] for j, a in con.coeffs)
        resid = lhs - con.rhs
        if con.relation == "<=" and resid > FEAS_TOL * scale:
            raise SolverError(f"row {i} violated by {resid:g}")
        if con.relation == ">=" and resid < -FEAS_TOL * scale:
            raise SolverError(f"row {i} violated by {resid:g}")
        if con.relation == "=" and abs(resid) > FEAS_TOL * scale:
            raise SolverError(f"row {i} violated by {resid:g}")
        y_i = sol.duals[i]
        if con.relation == "<=" and y_i > GAP_TOL:
            raise SolverError(f"row {i} has wrong dual sign {y_i:g}")
        if con.relation == ">=" and y_i < -GAP_TOL:
            raise SolverError(f"row {i} has wrong dual sign {y_i:g}")
        if con.relation != "=" and abs(y_i) > GAP_TOL and abs(resid) > FEAS_TOL * scale * 10:
            raise SolverError(f"row {i} breaks complementary slackness")
    for j, v in enumerate(lp._variables):
        if x[j] < v.lower - FEAS_TOL * scale or x[j] > v.upper + FEAS_TOL * scale:
            raise SolverError(f"variable {v.name} out of bounds: {x[j]:g}")
    gap = abs(sol.objective - sol.dual_objective)
    if gap > GAP_TOL * (1.0 + abs(sol.objective)):
        raise SolverError(f"duality gap {gap:g} exceeds tolerance")


def solve(lp: LinearProgram, memo: PivotMemo | None = None) -> LpSolution:
    """Solve a minimization LP, returning a certified solution.

    OPTIMAL results carry primal values, one dual per constraint, and a
    verified duality gap.  INFEASIBLE and UNBOUNDED results carry no
    certificates.  A solve that cannot be certified even after restarting
    under Bland's rule returns NUMERICAL_FAILURE rather than a wrong answer.
    ``memo`` lets a re-solve of the same LP with another right-hand side
    replay the pivot decisions of earlier solves; the result is the same
    with or without it (see the module docstring).
    """

    try:
        return _solve_once(lp, False, memo)
    except SolverError as exc:
        logger.warning("simplex solve failed (%s); restarting under Bland's rule", exc)
    try:
        return _solve_once(lp, True, memo)
    except SolverError:
        return LpSolution(Status.NUMERICAL_FAILURE)
