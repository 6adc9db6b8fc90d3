"""Two-phase revised simplex on a column-stored constraint matrix.

Standard form: minimize c.x subject to A x = b, x >= 0.  A is held as a
`Columns` store: each column keeps its few nonzeros (row index and value)
in a fixed number of slots, so pricing is a gather-and-sum over the stored
nonzeros and no m x n array is ever formed.  The basis inverse is maintained
explicitly by rank-1 updates and refreshed periodically from the m x m basis;
pricing is Dantzig's rule with an automatic, permanent switch to Bland's
rule after a run of degenerate pivots, which keeps the method cycling-proof
while staying fast on the highly degenerate flow polytopes built here.
Degeneracy itself is defused by a deterministic graded perturbation of the
right-hand side (the flow rows are all zero, so the unperturbed phase 1
starts maximally degenerate); the final basic solution is recomputed
against the original right-hand side, so feasibility residuals of the
returned point are exact.  Redundant equality rows are detected in
phase 1 and dropped (the occupation-measure programs are built with full
row rank, so none is dropped there).  Deterministic throughout: ties break
on the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleLP, MaxIterExceeded, SingularBasis, UnboundedLP

TOL = 1e-9          # pricing, ratio-test and pivot tolerance
PERTURB = 1e-8      # grading of the right-hand side during pivoting
STALL_LIMIT = 200   # degenerate pivots in a row before the switch to Bland's rule
REFRESH = 128       # pivots between recomputations of the basis inverse


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

    def vecmat(self, y):
        """y @ A, summed slot by slot in slot order."""
        out = y[self.rows[:, 0]] * self.vals[:, 0]
        for s in range(1, self.rows.shape[1]):
            out += y[self.rows[:, s]] * self.vals[:, s]
        return out

    def matcol(self, B, j):
        """B @ A[:, j]."""
        return B[:, self.rows[j]] @ self.vals[j]

    def dense(self, cols):
        """A[:, cols] as an m x len(cols) array (the basis, at a refresh)."""
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
    duals: np.ndarray          # one multiplier per original row (0 for dropped)
    iterations: int
    basis: np.ndarray
    dropped_rows: list


def _inverse(A, basis):
    """Inverse of the basis A[:, basis]; a singular basis is a solver failure."""
    try:
        return np.linalg.inv(A.dense(basis))
    except np.linalg.LinAlgError as exc:
        raise SingularBasis(f"basis matrix is singular: {exc}") from exc


def _pivot_update(Binv, xB, d, row, theta):
    xB -= theta * d
    xB[row] = theta
    prow = Binv[row] / d[row]
    # rows where d is zero are unchanged; a mostly dense d (the dual
    # clean-up's columns) is cheaper to apply in place than by gather/scatter
    t = np.flatnonzero(d)
    if 2 * len(t) > len(d):
        Binv -= np.outer(d, prow)
    else:
        Binv[t] -= np.outer(d[t], prow)
    Binv[row] = prow


def _core(A, b, c, basis, Binv, max_iter):
    """Primal simplex from a feasible basis; A is a `Columns` store."""
    m, n = A.shape
    xB = Binv @ b
    bland = False
    stall = 0
    last_obj = np.inf
    it = 0
    while True:
        if it and it % REFRESH == 0:
            Binv = _inverse(A, basis)
            xB = Binv @ b
        if it >= max_iter:
            raise MaxIterExceeded(f"simplex exceeded {max_iter} iterations "
                                  f"(bland={bland}, obj={float(c[basis] @ xB):.6g})",
                                  iterations=it)
        y = c[basis] @ Binv
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
        d = A.matcol(Binv, enter)
        pos = d > TOL
        if not pos.any():
            raise UnboundedLP("unbounded improving ray")
        ratios = np.full(m, np.inf)
        ratios[pos] = xB[pos] / d[pos]
        ratios[pos] = np.maximum(ratios[pos], 0.0)
        theta = float(np.min(ratios))
        rows = np.nonzero(ratios <= theta + TOL * (1 + abs(theta)))[0]
        leave_row = int(rows[np.argmin(basis[rows])])
        _pivot_update(Binv, xB, d, leave_row, max(theta, 0.0))
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


def _dual_cleanup(A, b, c, basis, Binv, max_iter):
    """Dual-simplex pivots restoring primal feasibility of an optimal basis
    (used after the grading of the right-hand side is removed)."""
    m, n = A.shape
    xB = Binv @ b
    feas_tol = 1e-9 * (1.0 + float(np.max(np.abs(b))) if b.size else 1.0)
    it = 0
    while True:
        r = int(np.argmin(xB))
        if xB[r] >= -feas_tol:
            return basis, Binv, xB, it
        if it >= max_iter:
            raise MaxIterExceeded(f"dual cleanup exceeded {max_iter} iterations "
                                  f"with xB[{r}] = {xB[r]:.3e}", iterations=it)
        y = c[basis] @ Binv
        reduced = c - A.vecmat(y)
        reduced[basis] = 0.0
        alpha = A.vecmat(Binv[r])
        alpha[basis] = 0.0
        cand = np.nonzero(alpha < -TOL)[0]
        if cand.size == 0:
            raise InfeasibleLP("no dual pivot: problem infeasible at this vertex")
        ratios = np.maximum(reduced[cand], 0.0) / (-alpha[cand])
        j = int(cand[np.argmin(ratios)])
        d = A.matcol(Binv, j)
        theta = xB[r] / d[r]
        _pivot_update(Binv, xB, d, r, theta)
        basis[r] = j
        it += 1


def _phase1(A, b_work, scale_b, max_iter):
    """Feasible basis of A x = b_work from an artificial identity start.

    Returns the basis, its inverse, the pivots made and the mask of the rows
    kept: a row whose artificial cannot be driven out is redundant.
    """
    m, n = A.shape
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    basis, Binv, xB, it = _core(A.with_unit_columns(np.arange(m)), b_work, c1,
                                np.arange(n, n + m), np.eye(m), max_iter)
    infeas = float(c1[basis] @ xB)
    if infeas > 1e-7 * scale_b + 10.0 * PERTURB * scale_b * m:
        raise InfeasibleLP(f"phase-1 infeasibility {infeas:.3e}")
    keep_rows = np.ones(m, dtype=bool)
    for r in range(m):
        if basis[r] < n:
            continue
        row_vals = A.vecmat(Binv[r])
        j = int(np.argmax(np.abs(row_vals)))
        if abs(row_vals[j]) > 1e-9:
            d = A.matcol(Binv, j)
            _pivot_update(Binv, xB, d, r, xB[r] / d[r] if abs(d[r]) > 1e-12 else 0.0)
            basis[r] = j
            it += 1
        else:
            keep_rows[r] = False
    return basis, Binv, it, keep_rows


def solve_lp(c, A, b, basis0=None):
    """Optimal basic feasible solution of min c.x, A x = b, x >= 0.

    `A` is a `Columns` store, or a dense array that is stored by columns
    here.  `basis0` is a known-feasible starting basis (the discounted
    program's q = 0 crash, the Mather polytope's ergodic optimal basis); it
    replaces phase 1 when its basic solution is nonnegative.  `iterations`
    counts every pivot: phase 1, the drive-out of artificials, phase 2 and
    the dual clean-up; phase 1, phase 2 and the clean-up are each capped at
    50(m + n) + 2000 pivots (`MaxIterExceeded`).  The caller's arrays are
    never modified.  Every failure raises a WeakKAMError.
    """
    if not isinstance(A, Columns):
        A = Columns.from_dense(A)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    row_sign = np.where(b < 0, -1.0, 1.0)
    if (row_sign < 0).any():
        A = A.scale_rows(row_sign)
        b = b * row_sign
    scale_b = max(1.0, float(np.max(np.abs(b))) if b.size else 1.0)
    b_work = b + PERTURB * scale_b * (1.0 + np.arange(m)) / max(m, 1)
    max_iter = 50 * (m + n) + 2000
    total_it = 0
    keep_rows = np.ones(m, dtype=bool)

    basis = Binv = None
    if basis0 is not None:
        basis = np.array(basis0, dtype=int)
        try:
            Binv = _inverse(A, basis)
        except SingularBasis:
            Binv = None
        if Binv is None or not np.all(Binv @ b >= -1e-8):
            basis = None

    if basis is None:
        basis, Binv, total_it, keep_rows = _phase1(A, b_work, scale_b, max_iter)
        if not keep_rows.all():
            A, b, b_work = A.take_rows(keep_rows), b[keep_rows], b_work[keep_rows]
            basis = basis[keep_rows]
            Binv = _inverse(A, basis)

    basis, Binv, xB, it = _core(A, b_work, c, basis, Binv, max_iter)
    total_it += it
    # re-solve the final basis against the unperturbed right-hand side; a
    # graded vertex can sit just outside the exact feasible set, in which
    # case dual pivots walk it back while preserving optimality
    Binv = _inverse(A, basis)
    xB = Binv @ b
    if float(np.min(xB)) < -1e-9 * scale_b:
        basis, Binv, xB, it = _dual_cleanup(A, b, c, basis, Binv, max_iter)
        total_it += it
    x = np.zeros(n)
    x[basis] = np.maximum(xB, 0.0)
    duals = np.zeros(len(row_sign))
    duals[keep_rows] = (c[basis] @ Binv) * row_sign[keep_rows]
    return LPSolution(x=x, objective=float(c @ x), duals=duals, iterations=total_it,
                      basis=basis.copy(), dropped_rows=list(np.nonzero(~keep_rows)[0]))
