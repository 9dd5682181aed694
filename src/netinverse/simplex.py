"""Self-contained linear-program solver with primal and dual certificates.

Sparse two-phase revised simplex, minimization only.  Built for problems of
up to a few thousand rows where determinism, exact reproducibility, and
availability of duals matter more than raw speed.  The standard form is one
``scipy.sparse`` CSC matrix (the module is imported by the first solve),
built once per structure with a CSR view of its transpose: pricing computes
``c - A'y`` as a sparse mat-vec and each entering column is read from the
CSC arrays, so no dense m-by-n matrix is ever held.
The basis is held as an LU factorisation with product-form updates,
refactorised every ``_REFACTOR_EVERY`` pivots.  Each solve keeps the LU it
factorised last, so a basis is not factorised again while it stays unchanged
between the pivot loop, the phase-1 infeasibility test, the removal of
artificials, phase 2's start and the certificate.  The certificate's primal
values and duals come from an LU of the final basis itself, never from the
eta file, so they depend only on the pivot path, not on the update history.

A basis of at least ``_SPARSE_ROWS`` rows is factorised by SuperLU
(``scipy.sparse.linalg.splu``, COLAMD ordering), imported on first use: the
inverse LPs of a large network are very sparse (the 449-row LP of an 8x8 grid
has at most 8 nonzeros per column), and there a sparse LU costs a fraction of
a dense one.  A smaller basis is gathered dense and factorised with LAPACK
``getrf``, which beats SuperLU's per-call cost on the tiny LPs most programs
are.  Both kinds of LU serve :func:`_lu_solve`.

:func:`_lu_factor` and :func:`_lu_solve` call LAPACK ``getrf``/``getrs``
directly (looked up once at import).  These are the routines
``scipy.linalg.lu_factor`` and ``lu_solve`` call, without their per-call
wrapper cost, so the arithmetic is the same.  A non-finite matrix or
right-hand side, a nonzero LAPACK ``info`` (from ``getrf``: an exactly
singular basis) and SuperLU's report of an exactly singular basis raise
:class:`SolverError`, so :func:`solve` restarts under Bland's rule and, if
that fails too, reports NUMERICAL_FAILURE.

Re-solves with a changed right-hand side
----------------------------------------
A :class:`LinearProgram` holds its right-hand sides in one array, which
:meth:`~LinearProgram.set_rhs` writes into, one row or a run of rows per
call.  Solved again after only ``set_rhs`` calls (the inverse problems of a
fixed point, whose prior enters only through ``b``), it keeps, from its
second solve on, two things.  The first is its standard form, which is built
once per structure together with everything the certificate check compares
against apart from ``b``: the nonzeros of the original rows, the reduced-cost
slacks ``GAP_TOL (1 + |c_j|)``, the masks of the ``<=``-only, ``>=``-only and
inequality rows, and the masks of the variables with an infinite upper or
lower bound.  The second is a record of the states its latest solve used:
the LU of each factorised basis, each pricing step's
outcome (the entering column or "optimal", with its FTRAN'd column and the
rows where that column is positive, the only rows the ratio test reads)
keyed by the basis at the last refactorisation, the ``(leave, enter)``
pairs since then, the Bland flag and the phase, the column that replaces
each artificial left basic after phase 1, and the final duals keyed by the
final basis.  Whatever
depends on ``b`` is computed on every solve: basic values, the ratio test
and leaving choice, the degeneracy counter and the Bland switch, the phase-1
infeasibility test, primal values, objectives and the certificate check.  A
re-solve follows the recorded path only while its ``b`` makes the same
leaving choices, and takes from the record only values it would have
computed, so every pivot and result is the same, bit for bit.
``add_variable``, ``add_constraint``, ``set_objective`` and a ``set_rhs``
that flips a row's sign normalisation drop the standard form, with the
arrays built alongside it, and the record, so both always belong to the
matrix and costs being solved.  A first solve goes through the same code but
keeps nothing (most programs are solved once), and a restart under Bland's
rule records nothing.

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
dual and reduced-cost signs, duality gap, complementary slackness); a result
that cannot be certified is reported as NUMERICAL_FAILURE, never returned as
if correct.
"""

from __future__ import annotations

import copy
import enum
import logging
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import SolverError

if TYPE_CHECKING:
    from scipy import sparse

logger = logging.getLogger(__name__)

FEAS_TOL = 1e-8
OPT_TOL = 1e-9
GAP_TOL = 1e-7
_PIVOT_TOL = 1e-10
_DROP_TOL = 1e-7
_MAX_PIVOTS = 100_000
_REFACTOR_EVERY = 32  # pivots between fresh LU factorisations of the basis
# bases of at least this many rows are factorised by SuperLU: on the grid
# inverses it ties with LAPACK at about 100 to 160 rows and wins above
_SPARSE_ROWS = 100

_SENSE = {"<=": 1.0, "=": 0.0, ">=": -1.0}  # a slack column's entry; 0 for no slack
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
    name: str


class LinearProgram:
    """Mutable builder for a minimization LP.

    Variables are referenced by the integer index returned from
    :meth:`add_variable`.  Constraints may use relation ``"<="``, ``"="``,
    or ``">="``; their right-hand sides live in one array, in declaration
    order.  A program re-solved after :meth:`set_rhs` calls only replays its
    last solve (see the module docstring).
    """

    def __init__(self) -> None:
        self._variables: list[_Variable] = []
        self._objective: list[float] = []
        self._constraints: list[_Constraint] = []
        self._rhs = self._rhs_store = np.zeros(0)  # _rhs: the leading rows of the store
        self._names: set[str] = set()
        self._changed()

    def _changed(self) -> None:
        """The structure changed: drop the standard form and the pivot record."""

        self._std: _Standardized | None = None
        self._record: dict | None = None
        self._solved = False

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
        self._changed()
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
        self._changed()
        self._constraints.append(_Constraint(row, relation, name))
        n = self._rhs.size
        if n == self._rhs_store.size:  # grow by doubling, not by one copy per row
            self._rhs_store = np.zeros(max(16, 2 * n))
            self._rhs_store[:n] = self._rhs
        self._rhs_store[n] = rhs
        self._rhs = self._rhs_store[: n + 1]
        return n

    def set_rhs(self, row: int, value: float | Sequence[float]) -> None:
        """Replace the right-hand side of constraint ``row``.

        A sequence of values replaces the right-hand sides of ``row`` and the
        constraints after it, in one write.
        """

        values = np.asarray(value, dtype=float)
        last = row + values.size - 1
        if row < 0 or last >= len(self._constraints):
            raise SolverError(f"no constraint with index {row if row < 0 else last}")
        finite = np.isfinite(values)
        if not finite.all():
            bad = float(values[~finite].flat[0])
            raise SolverError(f"constraint rhs must be finite, got {bad!r}")
        self._rhs[row : last + 1] = values

    def set_objective(self, coeffs: Mapping[int, float]) -> None:
        """Replace the objective with the given (sparse) coefficient map."""

        self._changed()
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

    def copy(self) -> LinearProgram:
        """A program with the same variables, objective and constraints."""

        other = LinearProgram()
        other._variables = list(self._variables)
        other._objective = list(self._objective)
        other._constraints = list(self._constraints)
        other._rhs = other._rhs_store = self._rhs.copy()
        other._names = set(self._names)
        return other

    def dump(self) -> str:
        """Human-readable text form of the LP, for bug reports."""

        def term(j: int, a: float) -> str:
            return f"{a:+g}*{self._variables[j].name}"

        lines = ["min " + " ".join(term(j, c) for j, c in enumerate(self._objective) if c)]
        for i, (con, rhs) in enumerate(zip(self._constraints, self._rhs.tolist())):
            label = con.name or f"r{i}"
            body = " ".join(term(j, a) for j, a in con.coeffs)
            lines.append(f"  {label}: {body} {con.relation} {rhs:g}")
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
    """The equality form ``a x = b, x >= 0`` of a program, with the maps back.

    A solve works on a shallow copy: it replaces ``a``, ``at``, ``b`` and the
    row arrays when it drops a redundant row and never writes into them, so a
    kept form changes only where :func:`_kept_form` writes new right-hand
    sides.  Everything but ``b`` and ``rhs`` depends on the program's
    variables, objective, relations and row flips alone.
    """

    a: sparse.csc_array        # m x n, structural, slack and artificial columns
    at: sparse.csr_array       # a's transpose, a view of the same arrays, for pricing
    b: np.ndarray              # m, nonnegative
    c: np.ndarray              # n, zero past the structural columns
    n_real: int                # the columns before the artificial ones
    basis: list[int]           # phase 1's start: each row's slack, or its artificial
    row_flip: np.ndarray       # row was negated during normalization
    row_origin: np.ndarray     # original constraint index, -1 for bound rows
    bound_row: np.ndarray      # the row is a variable's upper bound
    row_shift: np.ndarray      # per constraint: its rhs minus b's row before the flip
    col_var: np.ndarray        # original variable index per structural column
    col_sign: np.ndarray       # +1 / -1 multiplier applied to the column
    col_shift: np.ndarray      # original value = shift + sign * column value
    n_structural: int
    # the original program, for the certificate: row_le and row_ge mark the
    # constraints that bound their left-hand side above and below ("=" both),
    # bound_weight is each variable's shift (its lower bound, else its finite
    # upper one, else 0), nz_* list each nonzero coefficient, and rhs is the
    # program's own right-hand-side array, which set_rhs writes into
    names: list[str]
    cost: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    bound_weight: np.ndarray
    rhs: np.ndarray
    row_le: np.ndarray
    row_ge: np.ndarray
    nz_con: np.ndarray
    nz_var: np.ndarray
    nz_coef: np.ndarray
    # what _verify compares against, built with the structure: each reduced
    # cost's slack GAP_TOL (1 + |c_j|), the inequality rows by direction, the
    # rows that are not equalities, and the variables with an infinite bound
    cost_slack: np.ndarray
    row_le_only: np.ndarray
    row_ge_only: np.ndarray
    row_not_eq: np.ndarray
    upper_inf: np.ndarray
    lower_inf: np.ndarray


def _standardize(lp: LinearProgram) -> _Standardized:
    col_var: list[int] = []
    col_sign: list[float] = []
    col_shift: list[float] = []
    var_cols: list[list[int]] = []
    upper_rows: list[tuple[int, float]] = []  # (original var, rhs u - l)

    for j, v in enumerate(lp._variables):
        lo, hi = v.lower, v.upper
        if lo == -math.inf and hi == math.inf:
            columns = [(1.0, 0.0), (-1.0, 0.0)]  # x = x' - x''
        elif lo == -math.inf:
            columns = [(-1.0, hi)]  # x = u - x'', x'' >= 0
        else:
            columns = [(1.0, lo)]
            if hi != math.inf:
                upper_rows.append((j, hi - lo))
        var_cols.append(list(range(len(col_var), len(col_var) + len(columns))))
        for sign, shift in columns:
            col_var.append(j)
            col_sign.append(sign)
            col_shift.append(shift)

    n_struct = len(col_var)
    cons = lp._constraints
    m = len(cons) + len(upper_rows)
    relations = [con.relation for con in cons] + ["<="] * len(upper_rows)
    row_origin = list(range(len(cons))) + [-1] * len(upper_rows)

    # the constraints' nonzeros row by row, one per column of each variable
    # (two for a free one); ``0.0 +`` stores the sign a zero product takes
    # when accumulated into a zero matrix
    col_var_a, col_sign_a = np.array(col_var, dtype=np.intp), np.array(col_sign)
    pairs = [pair for con in cons for pair in con.coeffs]
    var = np.array([j for j, _ in pairs], dtype=np.intp)
    per_var = np.array([len(cols) for cols in var_cols], dtype=np.intp)[var]
    entry = np.repeat(np.arange(var.size), per_var)
    offset = np.arange(entry.size) - np.repeat(np.cumsum(per_var) - per_var, per_var)
    first_col = np.array([cols[0] for cols in var_cols], dtype=np.intp)
    nz_row = np.repeat(np.arange(len(cons)), [len(con.coeffs) for con in cons])[entry]
    nz_col = first_col[var][entry] + offset
    nz_val = 0.0 + np.array([a for _, a in pairs], dtype=float)[entry] * col_sign_a[nz_col]
    # for the certificate, one nonzero per variable: not the x'' column of a free one
    first = offset == 0
    nz_con, nz_var = nz_row[first], col_var_a[nz_col[first]]
    nz_coef = nz_val[first] * col_sign_a[nz_col[first]]
    row_shift = np.zeros(len(cons))
    if any(col_shift):  # a variable shifted by a nonzero bound moves its rows' right-hand sides
        for i, con in enumerate(cons):
            shift_term = 0.0
            for j, coef in con.coeffs:
                shift_term += coef * col_shift[var_cols[j][0]] if len(var_cols[j]) == 1 else 0.0
            row_shift[i] = shift_term
    upper_var = [j for j, _ in upper_rows]
    nz_row = np.concatenate((nz_row, np.arange(len(cons), m)))
    nz_col = np.concatenate((nz_col, first_col[upper_var]))
    nz_val = np.concatenate((nz_val, np.ones(len(upper_rows))))

    # normalize rhs >= 0: a flipped row has its entries negated and its
    # relation swapped.  Then one slack (<=: +1) or surplus (>=: -1) column
    # per inequality, then one artificial column per row no slack can start.
    b = np.concatenate((lp._rhs - row_shift, [cap for _, cap in upper_rows]))
    row_flip = b < 0
    b[row_flip] = -b[row_flip]
    sense = np.array([_SENSE[rel] for rel in relations], dtype=float)
    sense[row_flip] = -sense[row_flip]
    slack_rows, art_rows = np.flatnonzero(sense != 0.0), np.flatnonzero(sense != 1.0)
    n_real = n_struct + slack_rows.size
    width = n_real + art_rows.size
    slack_cols, art_cols = np.arange(n_struct, n_real), np.arange(n_real, width)
    start = np.empty(m, dtype=np.intp)
    start[slack_rows] = slack_cols
    start[art_rows] = art_cols  # a >= row starts from its artificial, not its surplus
    rows = np.concatenate((nz_row, slack_rows, art_rows))
    cols = np.concatenate((nz_col, slack_cols, art_cols))
    vals = np.concatenate(
        (np.where(row_flip[nz_row], -nz_val, nz_val), sense[slack_rows], np.ones(art_rows.size))
    )
    order = np.lexsort((rows, cols))
    indptr = np.zeros(width + 1, dtype=np.int32)
    indptr[1:] = np.cumsum(np.bincount(cols, minlength=width))
    from scipy.sparse import csc_array  # on first use: a process that solves no LP never needs it

    a = csc_array((vals[order], rows[order].astype(np.int32), indptr), shape=(m, width))

    c = np.zeros(width)
    c[:n_struct] = [lp._objective[j] * sign for j, sign in zip(col_var, col_sign)]
    variables = lp._variables
    cost = np.array(lp._objective, dtype=float)
    lower = np.array([v.lower for v in variables], dtype=float)
    upper = np.array([v.upper for v in variables], dtype=float)
    row_le = np.array([con.relation != ">=" for con in cons], dtype=bool)
    row_ge = np.array([con.relation != "<=" for con in cons], dtype=bool)

    return _Standardized(
        a=a,
        at=a.T,
        b=b,
        c=c,
        n_real=n_real,
        basis=start.tolist(),
        row_flip=row_flip,
        row_origin=np.array(row_origin, dtype=np.intp),
        bound_row=np.array([origin < 0 for origin in row_origin], dtype=bool),
        row_shift=row_shift,
        col_var=col_var_a,
        col_sign=col_sign_a,
        col_shift=np.array(col_shift),
        n_structural=n_struct,
        names=[v.name for v in variables],
        cost=cost,
        lower=lower,
        upper=upper,
        bound_weight=np.array(col_shift)[[cols[0] for cols in var_cols]],
        rhs=lp._rhs,
        row_le=row_le,
        row_ge=row_ge,
        nz_con=nz_con,
        nz_var=nz_var,
        nz_coef=nz_coef,
        cost_slack=GAP_TOL * (1.0 + np.abs(cost)),
        row_le_only=row_le & ~row_ge,
        row_ge_only=row_ge & ~row_le,
        row_not_eq=~(row_le & row_ge),
        upper_inf=upper == math.inf,
        lower_inf=lower == -math.inf,
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


def _factor(a: sparse.csc_array, cols: Sequence[int]):
    """The LU of ``a[:, cols]``, a square basis matrix, for :func:`_lu_solve`.

    A basis of at least ``_SPARSE_ROWS`` rows is factorised by SuperLU; any
    other is gathered dense and goes through :func:`_lu_factor`.
    """

    cols = np.asarray(cols, dtype=np.intp)
    first = a.indptr[cols]
    counts = a.indptr[cols + 1] - first
    indptr = np.zeros(cols.size + 1, dtype=np.int32)
    indptr[1:] = np.cumsum(counts)
    pos = np.arange(indptr[-1]) + np.repeat(first - indptr[:-1], counts)
    data, rows, m = a.data[pos], a.indices[pos], a.shape[0]
    if m < _SPARSE_ROWS:
        matrix = np.zeros((m, cols.size))
        matrix[rows, np.repeat(np.arange(cols.size), counts)] = data
        return _lu_factor(matrix)
    if not np.isfinite(data).all():
        raise SolverError("basis matrix has a non-finite entry")
    from scipy.sparse import csc_array
    from scipy.sparse.linalg import splu  # on first use: small programs never need it

    try:
        return splu(csc_array((data, rows, indptr), shape=(m, m)), permc_spec="COLAMD")
    except RuntimeError as exc:  # SuperLU's report of an exactly singular matrix
        raise SolverError(f"basis matrix is singular ({exc})") from None


def _lu_solve(lu, v: np.ndarray, trans: int = 0) -> np.ndarray:
    """Solve ``B x = v`` (``trans=1``: ``B' x = v``) from the LU ``_factor`` gave for ``B``."""

    if not np.isfinite(v).all():
        raise SolverError("right-hand side has a non-finite entry")
    if not isinstance(lu, tuple):  # SuperLU
        return lu.solve(v, trans="T" if trans else "N")
    if v.size == 0:
        return v.copy()
    x, info = _getrs(*lu, v, trans=trans)
    if info:
        raise SolverError(f"getrs rejected argument {-info}")
    return x


class _Replay:
    """One solve's pivoting states, from the record of the program's last solve.

    A state ``old`` lacks is computed; every state goes into ``new``, the
    record this solve leaves.  Without a ``new`` record all are computed.
    """

    def __init__(self, old: dict | None = None, new: dict | None = None):
        self.old = old or {}
        self.new = new

    def recall(self, key: tuple, compute):
        if self.new is None:
            return compute()
        state = self.new.get(key)
        if state is None:
            state = self.old.get(key)
            if state is None:
                state = compute()
            self.new[key] = state
        return state


class _Pivoter:
    """Shared pivoting loop for both simplex phases.

    The basis is held in product form: an LU factorisation of the basis as it
    stood at the last refactorisation, followed by an eta file with one entry
    per pivot since then.  Entry ``(r, d)`` records that column ``r`` of the
    basis was replaced by a column whose FTRAN'd image is ``d``.  The LU
    factorised last is kept with its basis, so asking again for the LU of an
    unchanged basis does not factorise it again.
    """

    def __init__(self, std: _Standardized, stall_limit: int, replay):
        self.a, self.at, self.b = std.a, std.at, std.b
        self.n_real = std.n_real  # the columns past it are artificial
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
            self._lu = self.replay.recall(("lu", key), lambda: _factor(self.a, basis))
            self._lu_basis = key
        return self._lu

    def column(self, j: int) -> np.ndarray:
        """Column ``j`` of ``a``, dense."""

        a = self.a
        first, end = a.indptr[j], a.indptr[j + 1]
        v = np.zeros(a.shape[0])
        v[a.indices[first:end]] = a.data[first:end]
        return v

    def run(self, c: np.ndarray, basis: list[int], phase: int) -> str:
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
                c_b = c[basis]  # kept up to date below: gathering it anew costs more
                root = (phase, tuple(basis))
                pairs: tuple[tuple[int, int], ...] = ()
            enter, direction, pos, pos_direction = self.replay.recall(
                ("step", root, pairs, self.bland),
                lambda: self._price(c, lu, etas, c_b),
            )
            if enter < 0:
                return "optimal"
            if pos.size == 0:
                return "unbounded"
            ratios = x_b[pos] / pos_direction
            ties = pos[ratios <= np.minimum.reduce(ratios) + FEAS_TOL]
            leave = int(ties[0]) if ties.size == 1 else min(ties.tolist(), key=basis.__getitem__)
            x_leave = x_b[leave]
            if x_leave <= FEAS_TOL:
                self.degenerate_run += 1
                if self.degenerate_run > self.stall_limit:
                    self.bland = True
            else:
                self.degenerate_run = 0
            theta = x_leave / direction[leave]
            x_b -= theta * direction
            x_b[leave] = theta
            etas.append((leave, direction))
            pairs += ((leave, enter),)
            basis[leave] = enter
            c_b[leave] = c[enter]
            self.pivots += 1

    def _price(self, c, lu, etas, c_b) -> tuple:
        """One pricing step for costs ``c``, ``c_b`` on the basic columns.

        Returns ``(enter, direction, pos, direction[pos])``.

        ``direction`` is the entering column's FTRAN'd image and ``pos`` the
        rows where it exceeds ``_PIVOT_TOL``, the rows the ratio test reads;
        at the optimum ``enter`` is -1 and the rest ``None``.
        """

        y = _btran(lu, etas, c_b)
        reduced = c - self.at @ y
        candidates = np.flatnonzero(reduced[: self.n_real] < -OPT_TOL)
        if candidates.size == 0:
            return -1, None, None, None
        if self.bland:
            enter = int(candidates[0])
        else:
            best = reduced[candidates].min()
            enter = int(candidates[reduced[candidates] <= best + OPT_TOL][0])
        direction = _ftran(lu, etas, self.column(enter))
        pos = np.flatnonzero(direction > _PIVOT_TOL)
        return enter, direction, pos, direction[pos]


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


def _drive_out_artificials(std: _Standardized, basis: list[int], pivoter: _Pivoter) -> None:
    """Pivot artificial variables out of the basis; drop redundant rows.

    A basic artificial sits at value ~0 after a feasible phase 1.  If its row
    has no eligible real column to pivot on, the row is linearly dependent on
    the others and is removed from the problem.  Each choice depends on the
    basis and the matrix alone, so it is a recorded state.
    """

    def eligible_column(i: int) -> int:
        """The first real column that can replace row ``i``'s artificial, or -1."""

        e = np.zeros(len(basis))
        e[i] = 1.0
        w = _lu_solve(pivoter.factor(basis), e, trans=1)
        in_basis = set(basis)
        candidates = np.flatnonzero(np.abs((std.at @ w)[: std.n_real]) > _DROP_TOL).tolist()
        return next((j for j in candidates if j not in in_basis), -1)

    while True:
        art_rows = [i for i, col in enumerate(basis) if col >= std.n_real]
        if not art_rows:
            return
        i = art_rows[0]
        enter = pivoter.replay.recall(("out", tuple(basis)), lambda: eligible_column(i))
        if enter >= 0:
            basis[i] = enter
            continue
        # redundant row: remove it (its artificial's column, left empty, never enters)
        keep = np.arange(std.a.shape[0]) != i
        std.a, std.b = std.a[keep], std.b[keep]
        std.at = std.a.T
        std.row_flip, std.row_origin, std.bound_row = (
            std.row_flip[keep], std.row_origin[keep], std.bound_row[keep])
        del basis[i]
        # which row goes depends on the basis phase 1 ended on, so a recorded state
        # keyed by a basis of the smaller matrix may belong to another row's
        # removal: the rest of the solve computes every state
        pivoter.a, pivoter.at, pivoter.b, pivoter.replay = std.a, std.at, std.b, _Replay()


def _kept_form(lp: LinearProgram) -> _Standardized:
    """``lp``'s kept standard form with the right-hand sides ``set_rhs`` wrote."""

    std = lp._std
    if std is not None:
        b = lp._rhs - std.row_shift  # the arithmetic of _standardize
        flip = b < 0
        if np.array_equal(flip, std.row_flip[: b.size]):
            b[flip] = -b[flip]
            std.b[: b.size] = b
            return std
        lp._record = None  # a row's sign normalisation changed, and with it the matrix
    lp._std = _standardize(lp)
    return lp._std


def _solve_once(lp: LinearProgram, force_bland: bool) -> LpSolution:
    keep = lp._solved  # a first solve keeps nothing: most programs are solved once
    lp._solved = True
    # a solve replaces arrays of the form it works on, so it gets a shallow copy
    std = copy.copy(_kept_form(lp)) if keep else _standardize(lp)
    (m, width), n_real, basis = std.a.shape, std.n_real, list(std.basis)

    replay = _Replay()
    if keep and not force_bland:
        replay = _Replay(lp._record, {})
        lp._record = replay.new
    pivoter = _Pivoter(std, stall_limit=max(50, 2 * m), replay=replay)
    pivoter.bland = force_bland

    # phase 1, from the artificial columns of the rows no slack can start
    if width > n_real:
        c1 = np.zeros(width)
        c1[n_real:] = 1.0
        outcome = pivoter.run(c1, basis, phase=1)
        if outcome != "optimal":
            raise SolverError("phase 1 reported unbounded")
        x_b = _lu_solve(pivoter.factor(basis), std.b)
        infeas = sum(x_b[[i for i, col in enumerate(basis) if col >= n_real]].tolist())
        if infeas > FEAS_TOL * max(1.0, float(np.max(std.b, initial=0.0))):
            return LpSolution(Status.INFEASIBLE, pivots=pivoter.pivots)
        _drive_out_artificials(std, basis, pivoter)

    # phase 2
    outcome = pivoter.run(std.c, basis, phase=2)
    if outcome == "unbounded":
        return LpSolution(Status.UNBOUNDED, pivots=pivoter.pivots)

    # an LU of the final basis, not the loop's eta file: the values below
    # depend on the pivot path alone
    lu = pivoter.factor(basis)
    x_b = _lu_solve(lu, std.b)
    x = np.zeros(n_real)
    real = [i for i, col in enumerate(basis) if col < n_real]
    x[[basis[i] for i in real]] = x_b[real]
    y = pivoter.replay.recall(("y", tuple(basis)), lambda: _lu_solve(lu, std.c[basis], trans=1))

    values = _recover_primal(std, x)
    objective = float(sum((std.cost * values).tolist()))
    y = y.copy()  # the record may hold this array
    y[std.row_flip] = -y[std.row_flip]
    duals = np.zeros(lp.num_constraints)
    bound = std.bound_row
    duals[std.row_origin[~bound]] = y[~bound]
    # upper-bound rows are never flipped: their right-hand side u - l is >= 0
    bound_row_term = y[bound] @ std.b[bound]

    reduced = _reduced_costs(std, duals)
    dual_objective = _dual_objective(std, duals, reduced, bound_row_term)
    _verify(std, values, duals, reduced, objective, dual_objective)
    primal = dict(zip(std.names, values.tolist()))
    return LpSolution(
        Status.OPTIMAL, objective, primal, tuple(duals.tolist()), dual_objective, pivoter.pivots
    )


def _recover_primal(std: _Standardized, x: np.ndarray) -> np.ndarray:
    """The original variables' values from the standard form's values ``x``."""

    values = np.zeros(len(std.names))
    n = std.n_structural
    np.add.at(values, std.col_var, std.col_shift + std.col_sign * x[:n])
    return values


def _reduced_costs(std: _Standardized, duals: np.ndarray) -> np.ndarray:
    """``c - A'y`` over the original variables and constraints."""

    at_y = np.bincount(std.nz_var, std.nz_coef * duals[std.nz_con], minlength=len(std.cost))
    return std.cost - at_y


def _dual_objective(
    std: _Standardized, duals: np.ndarray, reduced: np.ndarray, bound_row_term: float
) -> float:
    """The dual objective, from the duals and their ``_reduced_costs``."""

    # c.x = b.y + w.(c - A'y) + sum over upper rows y_r (u - l), w = bound_weight
    return float(bound_row_term + std.rhs @ duals + std.bound_weight @ reduced)


def _verify(
    std: _Standardized,
    x: np.ndarray,
    y: np.ndarray,
    reduced: np.ndarray,
    objective: float,
    dual_objective: float,
) -> None:
    """Raise :class:`SolverError` unless the values certify an optimum of ``std``'s program.

    ``x`` holds the original variables' values, ``y`` one dual per
    constraint and ``reduced`` their ``_reduced_costs``.
    """

    # every comparison below is false for NaN, so non-finite values must fail first
    finite = math.isfinite(objective) and math.isfinite(dual_objective)
    if not (finite and np.isfinite(x).all() and np.isfinite(y).all()):
        raise SolverError("certificate has a non-finite value")
    tol = FEAS_TOL * max(1.0, float(np.abs(std.rhs).max(initial=1.0)))
    resid = np.bincount(std.nz_con, std.nz_coef * x[std.nz_var], minlength=len(y)) - std.rhs
    slack, names = std.cost_slack, std.names
    checks = [
        ((std.row_le & (resid > tol)) | (std.row_ge & (resid < -tol)),
         lambda i: f"row {i} violated by {resid[i]:g}"),
        ((std.row_le_only & (y > GAP_TOL)) | (std.row_ge_only & (y < -GAP_TOL)),
         lambda i: f"row {i} has wrong dual sign {y[i]:g}"),
        (std.row_not_eq & (np.abs(y) > GAP_TOL) & (np.abs(resid) > tol * 10),
         lambda i: f"row {i} breaks complementary slackness"),
        ((x < std.lower - tol) | (x > std.upper + tol),
         lambda j: f"variable {names[j]} out of bounds: {x[j]:g}"),
        # a reduced cost may be negative only where x can sit at an upper
        # bound, positive only where it can sit at a lower one
        (((reduced < -slack) & std.upper_inf) | ((reduced > slack) & std.lower_inf),
         lambda j: f"variable {names[j]} has reduced cost {reduced[j]:g} of the wrong sign"),
    ]
    if np.concatenate([mask for mask, _ in checks]).any():
        mask, message = next(check for check in checks if check[0].any())
        raise SolverError(message(int(np.flatnonzero(mask)[0])))
    gap = abs(objective - dual_objective)
    if gap > GAP_TOL * (1.0 + abs(objective)):
        raise SolverError(f"duality gap {gap:g} exceeds tolerance")


def solve(lp: LinearProgram) -> LpSolution:
    """Solve a minimization LP, returning a certified solution.

    OPTIMAL results carry primal values, one dual per constraint, and a
    verified duality gap.  INFEASIBLE and UNBOUNDED results carry no
    certificates.  A solve that cannot be certified even after restarting
    under Bland's rule returns NUMERICAL_FAILURE rather than a wrong answer.
    A program solved again after only :meth:`LinearProgram.set_rhs` calls
    replays the pivot decisions of its last solve; the result is the same as
    a fresh solve's (see the module docstring).
    """

    try:
        return _solve_once(lp, False)
    except SolverError as exc:
        logger.warning("simplex solve failed (%s); restarting under Bland's rule", exc)
    try:
        return _solve_once(lp, True)
    except SolverError:
        return LpSolution(Status.NUMERICAL_FAILURE)
