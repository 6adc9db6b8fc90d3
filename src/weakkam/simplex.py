"""Two-phase revised simplex on a column-stored constraint matrix.

Standard form: minimize c.x subject to A x = b, x >= 0.  A is held as a
`Columns` store: each column keeps its few nonzeros (row index and value)
in a fixed number of slots, so pricing is a gather-and-sum over the stored
nonzeros and no m x n array is ever formed.  The basis inverse is kept in
product form (`BasisInverse`): a dense inverse plus the rank-1 terms of the
pivots made since, applied to it a block at a time, so a pivot writes O(m)
entries instead of m^2; the simplex prices are updated from each pivot row
instead of being recomputed.  Every BLOCK pivots the product form is folded
and the basic solution and prices are read from it afresh; the basis is
inverted again only when that basic solution misses the right-hand side by
more than the grading step below.  A solve ends by reading its basic
solution and prices from the folded inverse with one step of iterative
refinement each.  A start is a basis with the basic solution and prices
its caller computed; it replaces phase 1 when those values pass a residual
check against the basis and are feasible, is certified by its own pricing,
and is inverted only when a pivot has to be made.  So an m x m array is
formed only for a start that must pivot, or for a basis whose product form
has drifted; no basis is ever solved with densely.
Pricing is Dantzig's rule with an automatic, permanent
switch to Bland's rule after a run of degenerate pivots, which keeps the
method cycling-proof while staying fast on the highly degenerate flow
polytopes built here.
Degeneracy itself is defused by a deterministic graded perturbation of the
right-hand side (the flow rows are all zero, so the unperturbed phase 1
starts maximally degenerate); the final basic solution is recomputed
against the original right-hand side, so feasibility residuals of the
returned point are exact.  A basic variable counts as feasible when
clipping it at 0 leaves a residual, its value times its column's largest
entry, within FEAS_TOL max(1, |b|), so a badly scaled column is judged by
what it does to A x = b.  The constraint rows must have full rank (the
occupation-measure programs are built that way): a redundant row is an
error, `SingularBasis` naming the row, when phase 1 cannot drive its
artificial out.  The primal ratio test breaks ties toward large pivot
elements, then toward the lowest basis index, so it never pivots on an
entry that is tiny next to the other tied candidates; the dual ratio test
of the clean-up breaks them toward the largest pivot element, then the
lowest column index.  Deterministic throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import numpy as np

from .errors import InfeasibleLP, MaxIterExceeded, SingularBasis, UnboundedLP

TOL = 1e-9          # pricing, ratio-test and pivot tolerance
FEAS_TOL = 1e-9     # the residual, relative to max(1, |b|), that clipping a
                    # basic variable at 0 may leave
PERTURB = 1e-8      # grading of the right-hand side during pivoting
STALL_LIMIT = 200   # degenerate pivots in a row before the switch to Bland's rule
BLOCK = 64          # rank-1 terms held in product form before they are folded,
                    # and pivots of phase 1 or 2 between residual checks


@dataclass
class Columns:
    """An m x n matrix stored by columns in P slots each: column j holds
    vals[j, s] at row rows[j, s].  Unused slots hold row 0 and value 0, and
    no row repeats within a column."""
    rows: np.ndarray             # (n, P) row indices
    vals: np.ndarray             # (n, P) values
    m: int

    @property
    def shape(self):
        return (self.m, self.rows.shape[0])

    @property
    def nnz(self):
        return int(np.count_nonzero(self.vals))

    @cached_property
    def col_max(self):
        """max|A[:, j]| for every column, taken slot by slot."""
        out = np.abs(self.vals[:, 0])
        for s in range(1, self.vals.shape[1]):
            np.maximum(out, np.abs(self.vals[:, s]), out=out)
        return out

    @classmethod
    def from_dense(cls, A):
        A = np.asarray(A, dtype=float)
        m, n = A.shape
        nz = A != 0.0
        P = max(1, int(nz.sum(axis=0).max(initial=0)))
        # the rows of each column's nonzeros first, in increasing order
        rows = np.argsort(~nz, axis=0, kind="stable")[:P].T
        keep = nz[rows, np.arange(n)[:, None]]
        vals = np.where(keep, A[rows, np.arange(n)[:, None]], 0.0)
        return cls(rows=np.where(keep, rows, 0), vals=vals, m=m)

    def vecmat(self, y, cols=slice(None)):
        """y @ A[:, cols], summed slot by slot in slot order."""
        rows, vals = self.rows[cols], self.vals[cols]
        out = y[rows[:, 0]] * vals[:, 0]
        for s in range(1, rows.shape[1]):
            out += y[rows[:, s]] * vals[:, s]
        return out

    def matvec(self, x, cols):
        """A[:, cols] @ x."""
        return np.bincount(self.rows[cols].ravel(),
                           weights=(self.vals[cols] * x[:, None]).ravel(), minlength=self.m)

    def matcol(self, B, j):
        """B @ A[:, j]."""
        return B[:, self.rows[j]] @ self.vals[j]

    def dense(self, cols):
        """A[:, cols] as an m x len(cols) array (a basis, to solve with or invert)."""
        out = np.zeros((self.m, len(cols)))
        np.add.at(out, (self.rows[cols], np.arange(len(cols))[:, None]),
                  self.vals[cols])
        return out

    def scale_rows(self, factor):
        """diag(factor) @ A."""
        return Columns(rows=self.rows, vals=self.vals * factor[self.rows], m=self.m)

    def take_rows(self, keep):
        """A[keep] for a boolean row mask; values in dropped rows go."""
        new_index = np.cumsum(keep) - 1
        kept = keep[self.rows]
        return Columns(rows=np.where(kept, new_index[self.rows], 0),
                       vals=np.where(kept, self.vals, 0.0), m=int(keep.sum()))

    def with_row(self, values):
        """[A; values]: one more row, held in one more slot of every column."""
        n = self.rows.shape[0]
        return Columns(rows=np.hstack([self.rows, np.full((n, 1), self.m)]),
                       vals=np.hstack([self.vals, np.reshape(values, (n, 1))]),
                       m=self.m + 1)

    def with_unit_columns(self, at):
        """[A | e_at[0] | e_at[1] | ...]: unit columns at the rows `at`."""
        at = np.asarray(at)
        rows = np.zeros((len(at), self.rows.shape[1]), dtype=self.rows.dtype)
        vals = np.zeros((len(at), self.rows.shape[1]))
        rows[:, 0] = at
        vals[:, 0] = 1.0
        return Columns(rows=np.vstack([self.rows, rows]),
                       vals=np.vstack([self.vals, vals]), m=self.m)


@dataclass
class LPSolution:
    x: np.ndarray
    objective: float
    duals: np.ndarray          # one multiplier per row
    iterations: int
    basis: np.ndarray
    dropped_rows: list         # always empty: a redundant row raises instead


def _inverse(A, basis):
    """Inverse of the basis A[:, basis]; a singular basis is a solver failure."""
    try:
        return np.linalg.inv(A.dense(basis))
    except np.linalg.LinAlgError as exc:
        raise SingularBasis(f"basis matrix is singular: {exc}") from exc


def _signed_rows(A, b):
    """A and b with every row where b < 0 negated, and the row signs."""
    row_sign = np.where(b < 0, -1.0, 1.0)
    if (row_sign < 0).any():
        A = A.scale_rows(row_sign)
        b = b * row_sign
    return A, b, row_sign


class BasisInverse:
    """The basis inverse in product form: `base - U[:k].T @ V[:k]`, a dense
    m x m array and the k rank-1 terms of the pivots made since, held term
    by term (at most BLOCK; a full block is folded into `base`).  A pivot
    costs O(m) and each read one more k x m product, where an explicit
    inverse rewrites m^2 entries per pivot."""

    def __init__(self, base):
        self.base = base
        self.U = np.empty((BLOCK, base.shape[0]))
        self.V = np.empty((BLOCK, base.shape[0]))
        self.k = 0

    def refresh(self, A, basis):
        """Invert the basis A[:, basis] afresh and drop the deferred terms
        (the product form has drifted from the basis); the old inverse is
        freed before the new one is formed."""
        self.base = None
        self.base = _inverse(A, basis)
        self.k = 0

    def row(self, r):
        """Row r of the inverse."""
        return self.base[r] - self.U[:self.k, r] @ self.V[:self.k]

    def col(self, A, j):
        """The inverse times column j of A."""
        return A.matcol(self.base, j) - A.matcol(self.V[:self.k], j) @ self.U[:self.k]

    def left(self, y):
        """y @ inverse."""
        return y @ self.base - (self.U[:self.k] @ y) @ self.V[:self.k]

    def right(self, b):
        """inverse @ b."""
        return self.base @ b - (self.V[:self.k] @ b) @ self.U[:self.k]

    def pivot(self, xB, d, row, theta):
        """Replace the basic variable of `row` by the column whose transform
        is d, at level theta (xB is updated in place); returns the new row
        `row` of the inverse, the old one over d[row]."""
        xB -= theta * d
        xB[row] = theta
        prow = self.row(row) / d[row]
        # the new inverse is the old one less d' x prow, d' = d with d[row]
        # cleared, and its row `row` is prow exactly
        t = np.flatnonzero(d)
        s = np.flatnonzero(prow)
        k = self.k
        if len(t) * len(s) <= len(d):
            # a sparse term (a phase-1 pivot row has about one nonzero) is
            # cheaper to apply to the block of nonzero rows and columns
            self.base[np.ix_(t, s)] -= np.outer(d[t], prow[s])
        else:
            self.U[k] = d
            self.U[k, row] = 0.0
            self.V[k] = prow
            self.k = k + 1
        self.base[row] = prow
        self.U[:k, row] = 0.0
        if self.k == BLOCK:
            self.fold()
        return prow

    def fold(self):
        """Apply the deferred terms to `base`, BLOCK rows at a time: no
        temporary larger than the block itself is formed."""
        U, V, k = self.U, self.V, self.k
        if not k:
            return
        for lo in range(0, self.base.shape[0], BLOCK):
            self.base[lo:lo + BLOCK] -= U[:k, lo:lo + BLOCK].T @ V[:k]
        self.k = 0


def _drift_bound(b):
    """The residual |b - B xB| (max norm) past which a basis is inverted
    afresh: the grading step of the right-hand side, PERTURB max(1, |b|) / m."""
    return PERTURB * max(1.0, float(np.max(np.abs(b)))) / len(b)


def _clip_residuals(A, basis, xB):
    """xB_i max|A[:, B_i]|: the residual that clipping basic variable i at
    0 leaves in A x = b.  A basic solution counts as feasible when none is
    below -FEAS_TOL max(1, |b|), so the test does not depend on how the
    columns are scaled."""
    return xB * A.col_max[basis]


def _basic_solution(A, b, basis, Binv):
    """xB = B^-1 b read from the folded product form, and its residual
    b - B xB; when that residual is past the grading step, the basis is
    inverted afresh first."""
    Binv.fold()
    xB = Binv.right(b)
    r = b - A.matvec(xB, basis)
    if np.max(np.abs(r)) > _drift_bound(b):
        Binv.refresh(A, basis)
        xB = Binv.right(b)
        r = b - A.matvec(xB, basis)
    return xB, r


def _refined(A, b, c, basis, Binv):
    """The basic solution and the prices of the basis, read from the folded
    inverse with one step of iterative refinement each."""
    xB, r = _basic_solution(A, b, basis, Binv)
    xB += Binv.right(r)
    cB = c[basis]
    y = Binv.left(cB)
    y += Binv.left(cB - A.vecmat(y, basis))
    return xB, y


def _core(A, b, c, basis, Binv, max_iter):
    """Primal simplex from a feasible basis; A is a `Columns` store and
    Binv a `BasisInverse` of its basis."""
    m, n = A.shape
    xB = Binv.right(b)
    y = Binv.left(c[basis])
    bland = False
    stall = 0
    last_obj = np.inf
    it = 0
    while True:
        if it and it % BLOCK == 0:
            # the updated xB and y collect rounding: read them afresh
            xB, _ = _basic_solution(A, b, basis, Binv)
            y = Binv.left(c[basis])
        if it >= max_iter:
            raise MaxIterExceeded(f"simplex exceeded {max_iter} iterations "
                                  f"(bland={bland}, obj={float(c[basis] @ xB):.6g})",
                                  iterations=it)
        reduced = c - A.vecmat(y)
        reduced[basis] = 0.0
        if bland:
            cand = np.nonzero(reduced < -TOL)[0]
            if cand.size == 0:
                break
            enter = int(cand[0])
        else:
            enter = int(np.argmin(reduced))
            if reduced[enter] >= -TOL:
                break
        d = Binv.col(A, enter)
        pos = d > TOL
        if not pos.any():
            raise UnboundedLP("unbounded improving ray")
        ratios = np.full(m, np.inf)
        ratios[pos] = xB[pos] / d[pos]
        ratios[pos] = np.maximum(ratios[pos], 0.0)
        theta = float(np.min(ratios))
        rows = np.nonzero(ratios <= theta + TOL * (1 + abs(theta)))[0]
        # among the tied rows, only pivot elements within a factor 10 of the
        # largest: a tiny one would leave the next basis nearly singular
        rows = rows[d[rows] >= 0.1 * np.max(d[rows])]
        leave_row = int(rows[np.argmin(basis[rows])])
        prow = Binv.pivot(xB, d, leave_row, max(theta, 0.0))
        # the prices of the new basis: reduced[enter] becomes 0, and the
        # other basic columns keep 0 since prow is orthogonal to them
        y += reduced[enter] * prow
        basis[leave_row] = enter
        it += 1
        obj = float(c[basis] @ xB)
        if obj >= last_obj - TOL * (1 + abs(obj)):
            stall += 1
            if stall >= STALL_LIMIT:
                bland = True
        else:
            stall = 0
        last_obj = obj
    return basis, Binv, xB, it


def _dual_cleanup(A, b, c, basis, Binv, xB, y, max_iter):
    """Dual-simplex pivots restoring primal feasibility of an optimal basis
    (used after the grading of the right-hand side is removed); xB and y
    are the basic solution and the prices of the start, and xB is updated
    in place."""
    m, n = A.shape
    feas_tol = FEAS_TOL * max(1.0, float(np.max(np.abs(b))) if b.size else 1.0)
    reduced = c - A.vecmat(y)
    reduced[basis] = 0.0
    it = 0
    while True:
        # the row whose clipping would leave the largest residual leaves
        clip = _clip_residuals(A, basis, xB)
        r = int(np.argmin(clip))
        if clip[r] >= -feas_tol:
            return basis, Binv, xB, it
        if it >= max_iter:
            raise MaxIterExceeded(f"dual cleanup exceeded {max_iter} iterations "
                                  f"with xB[{r}] = {xB[r]:.3e}", iterations=it)
        alpha = A.vecmat(Binv.row(r))
        alpha[basis] = 0.0
        cand = np.nonzero(alpha < -TOL)[0]
        if cand.size == 0:
            raise InfeasibleLP("no dual pivot: problem infeasible at this vertex")
        ratios = np.maximum(reduced[cand], 0.0) / (-alpha[cand])
        j = _dual_entering(cand, ratios, alpha)
        d = Binv.col(A, j)
        Binv.pivot(xB, d, r, xB[r] / d[r])
        # the prices of the new basis: alpha is row r of the transformed
        # columns, and the leaving column takes the entering one's step
        step = reduced[j] / alpha[j]
        reduced -= step * alpha
        reduced[basis[r]] = -step
        basis[r] = j
        reduced[basis] = 0.0
        it += 1


def _dual_entering(cand, ratios, alpha):
    """The entering column of a dual pivot: among the candidates whose ratio
    is within TOL(1 + |least|) of the least, the largest -alpha, then the
    lowest column index, so an exact tie is not decided by rounding."""
    least = float(np.min(ratios))
    tied = cand[ratios <= least + TOL * (1 + abs(least))]
    return int(tied[np.argmax(-alpha[tied])])


def _phase1(A, b_work, scale_b, max_iter):
    """Feasible basis of A x = b_work from an artificial identity start.

    Returns the basis, its inverse and the pivots made.  An artificial left
    in the basis at level zero is driven out by one pivot; a row where no
    column can replace it is a linear combination of the others, and raises
    SingularBasis.
    """
    m, n = A.shape
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    basis, Binv, xB, it = _core(A.with_unit_columns(np.arange(m)), b_work, c1,
                                np.arange(n, n + m), BasisInverse(np.eye(m)), max_iter)
    infeas = float(c1[basis] @ xB)
    if infeas > 1e-7 * scale_b + 10.0 * PERTURB * scale_b * m:
        raise InfeasibleLP(f"phase-1 infeasibility {infeas:.3e}")
    for r in range(m):
        if basis[r] < n:
            continue
        row_vals = A.vecmat(Binv.row(r))
        j = int(np.argmax(np.abs(row_vals)))
        if abs(row_vals[j]) <= 1e-9:
            raise SingularBasis(f"constraint row {basis[r] - n} is a linear "
                                f"combination of the others")
        d = Binv.col(A, j)
        Binv.pivot(xB, d, r, xB[r] / d[r] if abs(d[r]) > 1e-12 else 0.0)
        basis[r] = j
        it += 1
    return basis, Binv, it


def _solves_basis(A, b, c, basis, xB, y, scale_b):
    """|b - B xB| <= FEAS_TOL max(1, |b|) and |c_B - B^T y| <= TOL (1 +
    max |c_B|); a non-finite value fails."""
    cB = c[basis]
    return bool(np.max(np.abs(b - A.matvec(xB, basis))) <= FEAS_TOL * scale_b
                and np.max(np.abs(cB - A.vecmat(y, basis)))
                <= TOL * (1.0 + np.max(np.abs(cB))))


def _solution(c, basis, xB, y, row_sign, iterations):
    x = np.zeros(len(c))
    x[basis] = np.maximum(xB, 0.0)
    return LPSolution(x=x, objective=float(c @ x), duals=y * row_sign,
                      iterations=iterations, basis=basis, dropped_rows=[])


def solve_lp(c, A, b, start=None):
    """Optimal basic feasible solution of min c.x, A x = b, x >= 0.

    `A` is a `Columns` store.  `start` is None or a triple (basis, xB, y):
    a basis, one column per row, with its basic solution and prices as the
    caller computed them.  It replaces phase 1 when the values pass
    `_solves_basis` and xB >= -1e-8; otherwise phase 1 runs.  A start that
    is already optimal returns with no pivot and no inverse formed, and any
    other forms the inverse of its basis once.  `iterations` counts every
    pivot: phase 1, the drive-out of artificials, phase 2 and the dual
    clean-up; phase 1, phase 2 and the clean-up are each capped at
    50(m + n) + 2000 pivots (`MaxIterExceeded`).  The caller's arrays are
    never modified.  Every failure raises a WeakKAMError.
    """
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    A, b, row_sign = _signed_rows(A, b)
    scale_b = max(1.0, float(np.max(np.abs(b))) if b.size else 1.0)
    b_work = b + PERTURB * scale_b * (1.0 + np.arange(m)) / max(m, 1)
    max_iter = 50 * (m + n) + 2000
    total_it = 0

    basis = None
    if start is not None:
        basis = np.array(start[0], dtype=int)
        xB = np.asarray(start[1], dtype=float)
        y = np.asarray(start[2], dtype=float) * row_sign
        if not (_solves_basis(A, b, c, basis, xB, y, scale_b) and np.all(xB >= -1e-8)):
            basis = None
        else:
            # priced as phase 2 would: a start that is optimal and feasible
            # against the exact b is the solution, and needs no inverse
            reduced = c - A.vecmat(y)
            reduced[basis] = 0.0
            if (np.min(reduced) >= -TOL
                    and np.min(_clip_residuals(A, basis, xB)) >= -FEAS_TOL * scale_b):
                return _solution(c, basis, xB, y, row_sign, 0)
            Binv = BasisInverse(_inverse(A, basis))

    if basis is None:
        basis, Binv, total_it = _phase1(A, b_work, scale_b, max_iter)

    basis, Binv, _, it = _core(A, b_work, c, basis, Binv, max_iter)
    total_it += it
    # read the final basis against the unperturbed right-hand side; a
    # graded vertex can sit just outside the exact feasible set, in which
    # case dual pivots walk it back while preserving optimality
    xB, y = _refined(A, b, c, basis, Binv)
    if float(np.min(_clip_residuals(A, basis, xB))) < -FEAS_TOL * scale_b:
        basis, Binv, xB, it = _dual_cleanup(A, b, c, basis, Binv, xB, y, max_iter)
        total_it += it
        if it:
            xB, y = _refined(A, b, c, basis, Binv)
    return _solution(c, basis, xB, y, row_sign, total_it)
