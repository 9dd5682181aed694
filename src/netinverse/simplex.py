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
eta file, so they depend only on the final basis, not on the path to it.

A basis of at least ``_SPARSE_ROWS`` rows is factorised by SuperLU
(``scipy.sparse.linalg.splu``, COLAMD ordering), imported on first use: the
inverse LPs of a large network are very sparse (the 448-row LP of an 8x8 grid
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

Objectives in order
-------------------
A program holds one or more objectives: the one ``add_variable`` and
``set_objective`` write, then each one given to
:meth:`~LinearProgram.add_objective`.  A solve minimises them in that order,
each among the optima of the ones before (lexicographic simplex, after
Isermann, *OR Spektrum* 4, 1982), on the one program, from one basis.  Once
an objective's optimal basis is certified, every column whose reduced cost
exceeds ``OPT_TOL`` is zero at each of its optima, by complementary
slackness with the certified duals, and is fixed at zero.  The next
objective is priced from the same basis, with the same LU and basic
values, and only columns not fixed may enter.  Each objective's optimum is
certified on the program with the fixed columns removed, at the basis its
duals were priced at: the last one's at the values the solve returns, an
earlier one's where its own stage ended.  Not at the answer: a later
objective may bring in a column whose reduced cost was within ``OPT_TOL``
of zero, and at the answer the earlier duals leave a gap of up to
``OPT_TOL`` per unit of it.

Re-solves
---------
A :class:`LinearProgram` holds its right-hand sides in one array, which
:meth:`~LinearProgram.set_rhs` writes into and which is its standard form's
``b``.  A program keeps its standard form, built once per structure, from its
first solve on, and the final basis of its last optimal solve with that
basis's LU.  ``add_variable``, ``add_constraint``, ``set_objective`` and
``add_objective`` drop all three, and the pricing record below.

A re-solve starts from the kept basis where its basic values are feasible
and its artificials, those of redundant rows, are zero, both to within
``FEAS_TOL`` times the largest ``b`` (or 1); phase 2 then starts from it,
and an optimal one takes no pivot.  Otherwise, and always in a restart
under Bland's rule, the solve runs phase 1.  A solve computes a basis's
values ``B^-1 b`` once per factorisation, and the certificate takes the
duals of the last pricing step where that step used no eta entry: both are
the same arithmetic on the same LU of the final basis.  A re-solve's status
and objective are a fresh solve's, and so are its values, to rounding,
where the optimum is unique.

Pricing reads the basis, its LU and the costs, never ``b``: each
objective's duals ``c_B B^-1``, its reduced costs ``c - A'y`` and the
columns it fixes at zero.  So a re-solve that starts from the kept basis and
takes no pivot keeps them beside that basis, stacked, one row per
objective: the program's pricing record.  A later re-solve that finds the
same basis feasible reads the record instead of pricing, and solves once
with the kept LU for ``B^-1 b``.  Priced or read, each objective's duals,
reduced costs and fixed columns go to the same tail: the values, and each
objective's objective and dual objective.  Every objective in the record was
priced at the one basis, so one certificate pass checks them all at the
values returned.  A re-solve that reads the record answers, bit for bit, as
pricing would.  The structural changes above drop the record, and so does
any solve that pivots, runs phase 1 or restarts under Bland's rule.

Conventions
-----------
* Objective sense is MIN.
* Every variable is nonnegative and has no other bound; rows are ``<=`` or
  ``=``, and every right-hand side is finite and ``>= 0``.  A caller writes
  a free quantity as the difference of two variables, and a lower bound as
  an ``=`` row with a surplus variable.  So each ``<=`` row has a ``+1``
  slack column, each ``=`` row an artificial one, and phase 1 starts from
  those.
* Duals are shadow prices, ``d(objective)/d(rhs)``: nonpositive for ``<=``
  rows, free for equalities.
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

_getrf, _getrs = get_lapack_funcs(("getrf", "getrs"), dtype=np.float64)


class Status(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass(frozen=True)
class _Constraint:
    coeffs: tuple[tuple[int, float], ...]
    relation: str
    name: str


class LinearProgram:
    """Mutable builder for a minimization LP.

    Variables are referenced by the integer index returned from
    :meth:`add_variable`.  Every variable is nonnegative, and constraints use
    relation ``"<="`` or ``"="`` with a right-hand side ``>= 0`` (see the
    module's conventions); their right-hand sides live in one array, in
    declaration order.  A program
    re-solved after :meth:`set_rhs` calls only starts from its last optimal
    basis (see the module docstring).
    """

    def __init__(self) -> None:
        self._variables: list[str] = []  # the names, in index order
        self._objective: list[float] = []
        self._later: list[list[float]] = []  # the objectives add_objective appended, in order
        self._constraints: list[_Constraint] = []
        self._rhs = self._rhs_store = np.zeros(0)  # _rhs: the leading rows of the store
        self._names: set[str] = set()
        self._changed()

    def _changed(self) -> None:
        """The structure changed: drop the standard form, the final basis and its pricing."""

        self._std: _Standardized | None = None  # kept from the first solve on
        # the last optimal solve's final basis and its LU
        self._final: tuple[list[int], object] | None = None
        # that basis's pricing record: each objective's duals, reduced costs
        # and free mask, stacked, where a warm solve confirmed it with no pivot
        self._priced: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # -- construction -----------------------------------------------------

    def add_variable(self, name: str, cost: float = 0.0) -> int:
        """Declare a variable ``x >= 0``; returns its index."""

        if name in self._names:
            raise SolverError(f"duplicate variable name {name!r}")
        if not math.isfinite(cost):
            raise SolverError(f"variable {name!r} has non-finite cost {cost!r}")
        self._changed()
        self._names.add(name)
        self._variables.append(name)
        self._objective.append(cost)
        for objective in self._later:
            objective.append(0.0)
        return len(self._variables) - 1

    def add_constraint(
        self,
        coeffs: Mapping[int, float],
        relation: str,
        rhs: float,
        name: str = "",
    ) -> int:
        """Append the row ``sum(coeffs[j] * x[j]) <relation> rhs``; returns its index.

        ``relation`` is ``"<="`` or ``"="``, and ``rhs`` must be finite and
        ``>= 0``.  A refused row leaves the program unchanged.
        """

        if relation not in ("<=", "="):
            raise SolverError(f"unknown relation {relation!r}")
        if not 0.0 <= rhs < math.inf:
            raise SolverError(f"constraint rhs must be finite and >= 0, got {rhs!r}")
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
        constraints after it, in one write.  Each value must be finite and
        ``>= 0``; where one is not, nothing is written.
        """

        values = np.asarray(value, dtype=float)
        last = row + values.size - 1
        if row < 0 or last >= len(self._constraints):
            raise SolverError(f"no constraint with index {row if row < 0 else last}")
        bad = values[~((values >= 0.0) & (values < math.inf))]
        if bad.size:
            raise SolverError(f"constraint rhs must be finite and >= 0, got {float(bad.flat[0])!r}")
        self._rhs[row : last + 1] = values

    def set_objective(self, coeffs: Mapping[int, float]) -> None:
        """Replace the first objective with the given (sparse) coefficient map, unless refused."""

        objective = self._dense(coeffs)
        self._changed()
        self._objective = objective

    def add_objective(self, coeffs: Mapping[int, float]) -> None:
        """Append an objective, minimised among the optima of the ones before it.

        ``coeffs`` is a (sparse) coefficient map, checked as
        :meth:`set_objective` checks its own; a refused one changes nothing.
        """

        objective = self._dense(coeffs)
        self._changed()
        self._later.append(objective)

    def _dense(self, coeffs: Mapping[int, float]) -> list[float]:
        """The costs ``coeffs`` gives, one per variable; a bad index or cost raises."""

        objective = [0.0] * len(self._variables)
        for j, c in coeffs.items():
            if not 0 <= j < len(self._variables):
                raise SolverError(f"objective references undeclared variable index {j}")
            cost = objective[j] = float(c)
            if not math.isfinite(cost):
                raise SolverError(f"variable {self._variables[j]!r} has non-finite cost {cost!r}")
        return objective

    # -- introspection ----------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self._variables)

    @property
    def num_constraints(self) -> int:
        return len(self._constraints)

    def variable_name(self, index: int) -> str:
        return self._variables[index]

    def copy(self) -> LinearProgram:
        """A program with the same variables, objectives and constraints, and no kept basis."""

        other = LinearProgram()
        other._variables = list(self._variables)
        other._objective = list(self._objective)
        other._later = [list(objective) for objective in self._later]
        other._constraints = list(self._constraints)
        other._rhs = other._rhs_store = self._rhs.copy()
        other._names = set(self._names)
        return other

    def dump(self) -> str:
        """Human-readable text form of the LP, for bug reports."""

        def term(j: int, a: float) -> str:
            return f"{a:+g}*{self._variables[j]}"

        lines = [
            f"{'then min' if k else 'min'} " + " ".join(term(j, c) for j, c in enumerate(cost) if c)
            for k, cost in enumerate([self._objective, *self._later])
        ]
        for i, (con, rhs) in enumerate(zip(self._constraints, self._rhs.tolist())):
            label = con.name or f"r{i}"
            body = " ".join(term(j, a) for j, a in con.coeffs)
            lines.append(f"  {label}: {body} {con.relation} {rhs:g}")
        lines.extend(f"  {name} >= 0" for name in self._variables)
        return "\n".join(lines)


@dataclass(frozen=True)
class LpSolution:
    """Primal/dual certificate for one solve.

    ``duals`` has one entry per constraint in declaration order, and
    ``dual_objective`` is their dot product with the right-hand sides, which
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


@dataclass(frozen=True)
class _Standardized:
    """The equality form ``a x = b, x >= 0`` of a program.

    A solve reads the form and never writes it.  ``b`` is the program's own
    right-hand-side array, so a kept form changes only where ``set_rhs``
    writes into it; everything else depends on the program's variables,
    objectives and relations alone.
    """

    a: sparse.csc_array        # m x n, the program's, slack and artificial columns
    at: sparse.csr_array       # a's transpose, a view of the same arrays, for pricing
    b: np.ndarray              # m, nonnegative: the program's right-hand sides
    c: np.ndarray              # one row of n costs per objective, zero past the program's columns
    n_real: int                # the columns before the artificial ones
    basis: list[int]           # phase 1's start: each row's slack, or its artificial
    # the original program, for the certificate: row_eq marks the "=" rows
    # (the others are "<="), and nz_* list each nonzero coefficient
    names: list[str]
    cost: np.ndarray           # one row per objective
    row_eq: np.ndarray
    nz_con: np.ndarray
    nz_var: np.ndarray
    nz_coef: np.ndarray
    # each reduced cost's slack in _verify, GAP_TOL (1 + |c_j|), built with the structure
    cost_slack: np.ndarray


def _standardize(lp: LinearProgram) -> _Standardized:
    cons = lp._constraints
    m, n = len(cons), len(lp._variables)
    # the constraints' nonzeros row by row, one column per variable; ``0.0 +``
    # stores the sign a zero takes when accumulated into a zero matrix
    pairs = [pair for con in cons for pair in con.coeffs]
    nz_var = np.array([j for j, _ in pairs], dtype=np.intp)
    nz_coef = np.array([a for _, a in pairs], dtype=float)
    nz_con = np.repeat(np.arange(m), [len(con.coeffs) for con in cons])

    # then one slack column per "<=" row and one artificial column per "=" row
    row_eq = np.array([con.relation == "=" for con in cons], dtype=bool)
    slack_rows, art_rows = np.flatnonzero(~row_eq), np.flatnonzero(row_eq)
    n_real = n + slack_rows.size
    width = n_real + art_rows.size
    slack_cols, art_cols = np.arange(n, n_real), np.arange(n_real, width)
    start = np.empty(m, dtype=np.intp)
    start[slack_rows] = slack_cols
    start[art_rows] = art_cols
    rows = np.concatenate((nz_con, slack_rows, art_rows))
    cols = np.concatenate((nz_var, slack_cols, art_cols))
    vals = np.concatenate((0.0 + nz_coef, np.ones(m)))
    order = np.lexsort((rows, cols))
    indptr = np.zeros(width + 1, dtype=np.int32)
    indptr[1:] = np.cumsum(np.bincount(cols, minlength=width))
    from scipy.sparse import csc_array  # on first use: a process that solves no LP never needs it

    a = csc_array((vals[order], rows[order].astype(np.int32), indptr), shape=(m, width))

    cost = np.array([lp._objective, *lp._later], dtype=float)
    c = np.zeros((len(cost), width))
    c[:, :n] = cost

    return _Standardized(
        a=a,
        at=a.T,
        b=lp._rhs,
        c=c,
        n_real=n_real,
        basis=start.tolist(),
        names=list(lp._variables),
        cost=cost,
        row_eq=row_eq,
        nz_con=nz_con,
        nz_var=nz_var,
        nz_coef=nz_coef,
        cost_slack=GAP_TOL * (1.0 + np.abs(cost)),
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


class _Pivoter:
    """Shared pivoting loop for both simplex phases and every objective.

    The basis is held in product form: an LU factorisation of the basis as it
    stood at the last refactorisation, followed by an eta file with one entry
    per pivot since then.  Entry ``(r, d)`` records that column ``r`` of the
    basis was replaced by a column whose FTRAN'd image is ``d``.  The LU
    factorised last is kept with its basis, and so are the basic values
    ``B^-1 b`` it gave, so asking again for either on an unchanged basis
    computes neither again.  Only ``free`` columns may enter.
    """

    def __init__(self, std: _Standardized, stall_limit: int):
        self.a, self.at, self.b = std.a, std.at, std.b
        self.n_real = std.n_real  # the columns past it are artificial
        self.free = np.ones(std.n_real, dtype=bool)
        self.stall_limit = stall_limit
        self.bland = False
        self.degenerate_run = 0
        self.pivots = 0
        self._lu_basis: tuple[int, ...] | None = None
        self._lu = None
        self._x_lu = self._x_b = None  # the basic values, and the LU they came from
        # the optimal pricing step's duals and reduced costs, where it used no eta entry
        self.priced: tuple[np.ndarray, np.ndarray] | None = None

    def factor(self, basis: list[int], lu=None, x_b=None):
        """The LU of the basis matrix ``a[:, basis]``: ``lu``, where one is given.

        ``x_b``, where given, holds the basic values ``lu`` gives.
        """

        key = tuple(basis)
        if key != self._lu_basis:
            self._lu = _factor(self.a, basis) if lu is None else lu
            self._lu_basis = key
            if x_b is not None:
                self._x_lu, self._x_b = self._lu, x_b
        return self._lu

    def values(self, basis: list[int]) -> np.ndarray:
        """The basic values ``B^-1 b``, once per factorisation; the caller must not write them."""

        lu = self.factor(basis)
        if lu is not self._x_lu:
            self._x_lu, self._x_b = lu, _lu_solve(lu, self.b)
        return self._x_b

    def column(self, j: int) -> np.ndarray:
        """Column ``j`` of ``a``, dense."""

        a = self.a
        first, end = a.indptr[j], a.indptr[j + 1]
        v = np.zeros(a.shape[0])
        v[a.indices[first:end]] = a.data[first:end]
        return v

    def run(self, c: np.ndarray, basis: list[int]) -> str:
        """Pivot until optimal or unbounded; returns 'optimal' or 'unbounded'."""

        etas: list[tuple[int, np.ndarray]] = []
        lu = None
        while True:
            if self.pivots > _MAX_PIVOTS:
                raise SolverError("pivot limit exceeded")
            if lu is None or len(etas) >= _REFACTOR_EVERY:
                lu = self.factor(basis)
                etas.clear()
                x_b = self.values(basis).copy()
                c_b = c[basis]  # kept up to date below: gathering it anew costs more
            enter, y, reduced = self._price(c, lu, etas, c_b)
            if enter < 0:
                # priced from the final basis's own LU, as a certificate prices it
                self.priced = None if etas else (y, reduced)
                return "optimal"
            direction = _ftran(lu, etas, self.column(enter))
            pos = np.flatnonzero(direction > _PIVOT_TOL)  # the rows the ratio test reads
            if pos.size == 0:
                return "unbounded"
            ratios = x_b[pos] / direction[pos]
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
            basis[leave] = enter
            c_b[leave] = c[enter]
            self.pivots += 1

    def _price(self, c, lu, etas, c_b) -> tuple:
        """One pricing step for costs ``c``, ``c_b`` on the basic columns.

        Returns ``(enter, y, reduced)``: the entering column, -1 at the
        optimum, then the duals and every column's reduced cost.
        """

        y = _btran(lu, etas, c_b)
        reduced = c - self.at @ y
        candidates = np.flatnonzero((reduced[: self.n_real] < -OPT_TOL) & self.free)
        if candidates.size == 0:
            return -1, y, reduced
        if self.bland:
            enter = int(candidates[0])
        else:
            best = reduced[candidates].min()
            enter = int(candidates[reduced[candidates] <= best + OPT_TOL][0])
        return enter, y, reduced


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
    """Pivot artificial variables out of the basis, in one ascending pass over the rows.

    A basic artificial sits at value ~0 after a feasible phase 1.  Its row's
    artificial is replaced by the first real column that can replace it.  If
    there is none, the row is a combination of the others, and its
    artificial stays basic at zero: the row's entry in every FTRAN'd real
    column is zero, so the ratio test never picks it, and phase 2 never
    prices artificial columns.
    """

    for i in range(len(basis)):
        if basis[i] < std.n_real:
            continue
        e = np.zeros(len(basis))
        e[i] = 1.0
        w = _lu_solve(pivoter.factor(basis), e, trans=1)
        in_basis = set(basis)
        candidates = np.flatnonzero(np.abs((std.at @ w)[: std.n_real]) > _DROP_TOL).tolist()
        basis[i] = next((j for j in candidates if j not in in_basis), basis[i])


def _solve_once(lp: LinearProgram, force_bland: bool) -> LpSolution:
    std = lp._std = lp._std or _standardize(lp)
    (m, width), n_real, n = std.a.shape, std.n_real, len(std.names)
    tol = FEAS_TOL * float(std.b.max(initial=1.0))
    record, lp._priced = lp._priced, None

    # the program's own last optimal basis, taken where its basic values are
    # feasible and its artificials, those of redundant rows, still zero: a
    # new right-hand side can make a redundant row inconsistent
    basis = None
    if lp._final is not None and not force_bland:
        start, lu = lp._final
        x_b = _lu_solve(lu, std.b)
        artificial = x_b[[i for i, col in enumerate(start) if col >= n_real]]
        if x_b.min(initial=0.0) >= -tol and artificial.max(initial=0.0) <= tol:
            basis = start
    lp._final = None
    warm = basis is not None
    if warm and record is not None:
        # pricing reads the basis, its LU and the costs, never ``b``: every
        # objective prices as it did in the solve that made the record, takes
        # no pivot and fixes the same columns, all at the one basis
        (y, reduced, free), pivots, first = record, 0, 0
    else:
        pivoter = _Pivoter(std, stall_limit=max(50, 2 * m))
        pivoter.bland = force_bland
        if warm:
            pivoter.factor(basis, lu, x_b)
        else:
            # phase 1, from the artificial columns of the rows no slack can start
            basis = list(std.basis)
            if width > n_real:
                c1 = np.zeros(width)
                c1[n_real:] = 1.0
                if pivoter.run(c1, basis) != "optimal":
                    raise SolverError("phase 1 reported unbounded")
                x_b = pivoter.values(basis)
                infeas = sum(x_b[[i for i, col in enumerate(basis) if col >= n_real]].tolist())
                if infeas > tol:
                    return LpSolution(Status.INFEASIBLE, pivots=pivoter.pivots)
                _drive_out_artificials(std, basis, pivoter)

        # phase 2, once per objective, each among the optima of the ones before
        priced = []  # each objective's duals, reduced costs and free mask
        for k, c in enumerate(std.c):
            if k:
                # a column the objective before prices out is zero at every optimum
                # of it (complementary slackness): fix it at zero, in a new mask,
                # since ``priced`` holds the one before
                pivoter.free = pivoter.free & (reduced[:n_real] <= OPT_TOL)
            if pivoter.run(c, basis) == "unbounded":
                return LpSolution(Status.UNBOUNDED, pivots=pivoter.pivots)
            # an LU of the final basis, not the loop's eta file: the values below
            # depend on the final basis alone
            lu = pivoter.factor(basis)
            if pivoter.priced is not None:
                y, reduced = pivoter.priced
            else:
                y = _lu_solve(lu, c[basis], trans=1)
                reduced = c - std.at @ y
            priced.append((y, reduced[:n], pivoter.free))
            if k < len(std.c) - 1:
                # certified here, at the basis its duals were priced at: a later
                # objective may bring in a column whose reduced cost here is
                # within OPT_TOL of zero, which at the answer would open a gap
                # of up to OPT_TOL per unit of it
                values = _primal(std, basis, pivoter.values(basis))
                _verify(std, k, pivoter.free[None], values, y[None], reduced[None, :n],
                        [float(sum((std.cost[k] * values).tolist()))], [float(std.b @ y)])
        y, reduced, free = map(np.array, zip(*priced))
        x_b, pivots, first = pivoter.values(basis), pivoter.pivots, len(std.c) - 1
        # every later solve from this basis that finds it feasible prices the same
        record = (y, reduced, free) if warm and not pivots else None

    # one certificate pass over the objectives not yet certified, at the
    # values returned: the last one, or every one on a read record
    values = _primal(std, basis, x_b)
    objective = [float(sum(row)) for row in (std.cost[first:] * values).tolist()]
    dual_objective = [float(std.b @ duals) for duals in y[first:]]
    _verify(std, first, free[first:], values, y[first:], reduced[first:], objective, dual_objective)
    lp._final, lp._priced = (basis, lu), record
    primal = dict(zip(std.names, values.tolist()))
    return LpSolution(
        Status.OPTIMAL, objective[-1], primal, tuple(y[-1].tolist()), dual_objective[-1], pivots
    )


def _primal(std: _Standardized, basis: list[int], x_b: np.ndarray) -> np.ndarray:
    """The program's variables' values at ``basis``, whose basic values are ``x_b``."""

    x = np.zeros(std.n_real)
    real = [i for i, col in enumerate(basis) if col < std.n_real]
    x[[basis[i] for i in real]] = x_b[real]
    return 0.0 + x[: len(std.names)]  # a basic value of -0.0 reads 0.0


def _verify(
    std: _Standardized,
    first: int,
    free: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    reduced: np.ndarray,
    objective: Sequence[float],
    dual_objective: Sequence[float],
) -> None:
    """Raise :class:`SolverError` unless the values certify an optimum of each objective given.

    Row ``k`` of ``free``, ``y`` and ``reduced``, and entry ``k`` of
    ``objective`` and ``dual_objective``, belong to objective ``first + k``.
    Each objective's program is ``std``'s with the columns that are not
    ``free`` (one flag per variable, then per ``<=`` row's slack) fixed at
    zero: a fixed variable's reduced cost may have either sign, and a row
    whose slack is fixed is an ``=`` row.  ``x`` holds the original
    variables' values, ``y`` one dual per constraint and ``reduced`` the
    variables' reduced costs ``c_k - A'y``.  Every check runs on every
    objective; the error names the first failing objective's first failing
    check.
    """

    objective, dual_objective = np.asarray(objective), np.asarray(dual_objective)
    # every comparison below is false for NaN, so non-finite values must fail first
    finite = np.isfinite(objective) & np.isfinite(dual_objective) & np.isfinite(y).all(axis=1)
    finite &= np.isfinite(x).all()
    tol = FEAS_TOL * float(std.b.max(initial=1.0))
    resid = np.bincount(std.nz_con, std.nz_coef * x[std.nz_var], minlength=y.shape[1]) - std.b
    slack, names, n = std.cost_slack[first : first + len(y)], std.names, len(x)
    eq = np.repeat(std.row_eq[None], len(y), axis=0)
    eq[:, ~std.row_eq] = ~free[:, n:]
    gap = np.abs(objective - dual_objective)
    checks = [
        (~finite[:, None],
         lambda k, _: "certificate has a non-finite value"),
        ((resid > tol) | (eq & (resid < -tol)),
         lambda k, i: f"row {i} violated by {resid[i]:g}"),
        (~eq & (y > GAP_TOL),
         lambda k, i: f"row {i} has wrong dual sign {y[k, i]:g}"),
        (~eq & (np.abs(y) > GAP_TOL) & (np.abs(resid) > tol * 10),
         lambda k, i: f"row {i} breaks complementary slackness"),
        ((x < -tol)[None].repeat(len(y), axis=0),
         lambda k, j: f"variable {names[j]} out of bounds: {x[j]:g}"),
        (free[:, :n] & (reduced < -slack),
         lambda k, j: f"variable {names[j]} has reduced cost {reduced[k, j]:g} of the wrong sign"),
        ((gap > GAP_TOL * (1.0 + np.abs(objective)))[:, None],
         lambda k, _: f"duality gap {gap[k]:g} exceeds tolerance"),
    ]
    failed = np.concatenate([mask for mask, _ in checks], axis=1).any(axis=1)
    if failed.any():
        k = int(failed.argmax())
        mask, message = next(check for check in checks if check[0][k].any())
        raise SolverError(message(k, int(mask[k].argmax())))


def solve(lp: LinearProgram) -> LpSolution:
    """Solve a minimization LP, returning a certified solution.

    A program with objectives added by :meth:`LinearProgram.add_objective`
    is minimised lexicographically: each objective among the optima of the
    ones before.  The result is the last objective's certificate, with the
    pivots of all of them.  OPTIMAL results carry primal values, one dual per
    constraint, and a verified duality gap.  INFEASIBLE and UNBOUNDED results
    carry no certificates.  A solve that cannot be certified, at any
    objective, even after restarting under Bland's rule returns
    NUMERICAL_FAILURE rather than a wrong answer.
    A program solved again after only :meth:`LinearProgram.set_rhs` calls
    starts from its last optimal basis, with that basis's kept LU: its status
    and objective are a fresh solve's, and so are its values, to rounding,
    where the optimum is unique (see the module docstring).
    """

    try:
        return _solve_once(lp, False)
    except SolverError as exc:
        logger.warning("simplex solve failed (%s); restarting under Bland's rule", exc)
    try:
        return _solve_once(lp, True)
    except SolverError:
        return LpSolution(Status.NUMERICAL_FAILURE)
