"""Hamiltonian/Lagrangian models on a truncated box.

Two closed-form families are built in, both convex and coercive in the
momentum p:

    eikonal    H(x,p) = |p| - f(x)
    quadratic  H(x,p) = |p|^2/2 - f(x)

plus a tabulated family ("sampled") where H is given on a momentum grid
per spatial node (dimension 1 only).  A ``normalization_shift`` c0 is
subtracted from H so that the working critical value can be pinned to 0;
for the built-in families this amounts to replacing the potential f by
F = f + c0.

Each family is one object in ``FAMILIES`` with the same vectorized
interface: H(X,P), the convex conjugate L(X,Q) = sup_p [p.q - H(x,p)],
the level-set support function sigma_a(X,Q) = max{p.q : H(x,p) <= a}
(NaN where the sublevel is empty), min_p H(X) and max_{|p|<=eps} H(X).
Point arrays X, P, Q have shape (..., dimension) and their leading axes
broadcast, so one call evaluates a whole node x velocity table; the point
queries (`hamiltonian`, `fenchel_transform`, `support_function`) return an
array of that broadcast shape, (1,) for a single point.  The
superlinear surrogate H + (max(0, H - b))^2 with b = max_x H(x,0) leaves
every sublevel {H <= a}, a <= b, untouched.  The module also provides a
numeric validator for the standing assumptions (continuity,
convexity/coercivity, and the localization condition comparing the
outer-shell values of H on small momentum balls against max_x min_p H).
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import A3Violated, NonCoercive, NotNormalized


# ---------------------------------------------------------------------------
# potential registry
# ---------------------------------------------------------------------------

def _norm(points):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return np.sqrt(np.sum(pts * pts, axis=-1))


POTENTIALS = {
    "abs": lambda pts: _norm(pts),
    "half_square": lambda pts: 0.5 * _norm(pts) ** 2,
    "double_well": lambda pts: (_norm(pts) ** 2 - 1.0) ** 2,
    "inverse_bump": lambda pts: 1.0 / (1.0 + _norm(pts) ** 2),
}


def resolve_potential(spec):
    """Turn a registry name, ``{"name":..., "scale":..., "offset":...}`` dict,
    or a bare callable into a vectorized potential f(points)->values."""
    if callable(spec):
        return spec
    if isinstance(spec, str):
        spec = {"name": spec}
    name = spec.get("name")
    if name not in POTENTIALS:
        raise KeyError(f"unknown potential {name!r}; registry has {sorted(POTENTIALS)}")
    base = POTENTIALS[name]
    scale = float(spec.get("scale", 1.0))
    offset = float(spec.get("offset", 0.0))
    if scale == 1.0 and offset == 0.0:
        return base
    return lambda pts: scale * base(pts) + offset


# ---------------------------------------------------------------------------
# sampled-family data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampledTable:
    """H tabulated on (node, momentum) pairs; dimension 1 only.

    Rows are convexified once at load time (lower convex envelope along p),
    since duality below is meaningful only for convex H(x, .).
    """

    x_coords: np.ndarray          # (num_x,) node coordinates
    p_grid: np.ndarray            # (P,) momentum samples, increasing
    values: np.ndarray            # (num_x, P)
    convexified: bool = False

    def rows_at(self, X):
        """Rows of the tabulated nodes nearest to the points X (..., 1)."""
        x = np.asarray(X, dtype=float)[..., 0]
        return self.values[np.argmin(np.abs(x[..., None] - self.x_coords), axis=-1)]


def lower_convex_envelope(p, v):
    """Lower convex envelope of the points (p_k, v_k); p strictly increasing."""
    hull_p, hull_v = [], []
    for pk, vk in zip(p, v):
        hull_p.append(pk)
        hull_v.append(vk)
        while len(hull_p) >= 3:
            p0, p1, p2 = hull_p[-3:]
            v0, v1, v2 = hull_v[-3:]
            # middle point above the chord -> not on the envelope
            if (v1 - v0) * (p2 - p1) >= (v2 - v1) * (p1 - p0) - 1e-15 * (abs(v2) + abs(v0) + 1):
                del hull_p[-2], hull_v[-2]
            else:
                break
    return np.interp(p, hull_p, hull_v)


def convexify_table(table: SampledTable) -> tuple[SampledTable, float]:
    """Replace each row by its lower convex envelope; returns max correction."""
    vals = np.array(table.values, dtype=float)
    worst = 0.0
    for i in range(vals.shape[0]):
        env = lower_convex_envelope(table.p_grid, vals[i])
        worst = max(worst, float(np.max(vals[i] - env)))
        vals[i] = env
    return dataclasses.replace(table, values=vals, convexified=True), worst


def _interp_rows(xp, rows, x):
    """np.interp(x, xp, row) row by row; x broadcasts against rows[..., 0]."""
    x = np.clip(x, xp[0], xp[-1])
    j = np.clip(np.searchsorted(xp, x, side="right") - 1, 0, len(xp) - 2)
    shape = np.broadcast_shapes(rows.shape[:-1], np.shape(x))
    rows = np.broadcast_to(rows, shape + rows.shape[-1:])
    j = np.broadcast_to(j, shape)
    f0 = np.take_along_axis(rows, j[..., None], axis=-1)[..., 0]
    f1 = np.take_along_axis(rows, j[..., None] + 1, axis=-1)[..., 0]
    return f0 + (x - xp[j]) * ((f1 - f0) / (xp[j + 1] - xp[j]))


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HamiltonianModel:
    family: str
    potential: Optional[Callable] = None
    dimension: int = 1
    normalization_shift: float = 0.0
    superlinearized: bool = False
    super_b: float = 0.0              # b = max_x H(x,0), frozen at superlinearize time
    sampled: Optional[SampledTable] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {tuple(FAMILIES)}, got {self.family!r}")
        if not self.ops.tabulated:
            if self.potential is None:
                raise ValueError("closed-form families need a potential")
        elif self.sampled is None:
            raise ValueError("sampled family needs a SampledTable")
        elif self.dimension != 1:
            raise ValueError("sampled family is implemented for dimension 1 only")

    @property
    def ops(self):
        """The family object that evaluates this model."""
        return FAMILIES[self.family]


def make_model(family, potential=None, dimension=1, normalization_shift=0.0,
               sampled=None):
    pot_fn = None if potential is None else resolve_potential(potential)
    if sampled is not None and not sampled.convexified:
        sampled, worst = convexify_table(sampled)
        if worst > 1e-9:
            warnings.warn(f"sampled table convexified; largest correction {worst:.3g}",
                          stacklevel=2)
    return HamiltonianModel(family=family, potential=pot_fn, dimension=dimension,
                            normalization_shift=float(normalization_shift),
                            sampled=sampled)


def effective_potential(model, X):
    """F = f + c0 on points (..., dimension), so that H reads |p|-F or |p|^2/2-F."""
    X = np.asarray(X, dtype=float)
    f = model.potential(X.reshape(-1, X.shape[-1])).reshape(X.shape[:-1])
    return f + model.normalization_shift


def _speed(Q):
    return np.sqrt(np.sum(Q * Q, axis=-1))


def _superlinear(model, v):
    """v + (max(0, v - b))^2 once the model is superlinearized."""
    if not model.superlinearized:
        return v
    return v + np.maximum(0.0, v - model.super_b) ** 2


def _unsuperlinear_level(model, a):
    """The level v with {H <= a} = {H before superlinearization <= v}."""
    if not model.superlinearized or a <= model.super_b:
        return a
    return model.super_b + 0.5 * (-1.0 + math.sqrt(1.0 + 4.0 * (a - model.super_b)))


# ---------------------------------------------------------------------------
# the families
# ---------------------------------------------------------------------------

class _Radial:
    """H(x,p) = profile(F(x), |p|) with a nondecreasing profile, so that
    min_p H sits at p = 0 and every sublevel is a ball of radius r_a(x)."""

    tabulated = False
    convexity_tol = 1e-12

    def H(self, model, X, P):
        return self.profile(model, effective_potential(model, X), _speed(P))

    def h_min(self, model, X):
        return self.profile(model, effective_potential(model, X), 0.0)

    def h_ball(self, model, X, eps):
        return self.profile(model, effective_potential(model, X), eps)

    def sigma(self, model, a, X, Q):
        return self.radius(model, a, effective_potential(model, X)) * _speed(Q)


class Eikonal(_Radial):
    """H = |p| - F; not superlinear, so the CLI superlinearizes it by default."""

    superlinearize_by_default = True

    def profile(self, model, F, r):
        return _superlinear(model, r - F)

    def radius(self, model, a, F):
        val = F + _unsuperlinear_level(model, a)
        return np.where(val >= 0, val, np.nan)

    def L(self, model, X, Q):
        F = effective_potential(model, X)
        speed = _speed(Q)
        if model.superlinearized:
            return _eikonal_super_lagrangian(F, model.super_b, speed)
        return np.where(speed <= 1.0 + 1e-12, F, np.inf)


class Quadratic(_Radial):
    """H = |p|^2/2 - F; already superlinear, so superlinearization is a no-op."""

    superlinearize_by_default = False

    def profile(self, model, F, r):
        return 0.5 * r * r - F

    def radius(self, model, a, F):
        val = F + a
        return np.where(val >= 0, np.sqrt(2.0 * np.maximum(val, 0.0)), np.nan)

    def L(self, model, X, Q):
        return 0.5 * _speed(Q) ** 2 + effective_potential(model, X)


class Sampled:
    """H tabulated on a momentum grid and interpolated linearly in p."""

    tabulated = True
    superlinearize_by_default = False
    convexity_tol = 1e-8

    def _working(self, model, raw):
        """Table values -> working H: the normalization shift, then the surrogate."""
        return _superlinear(model, raw - model.normalization_shift)

    def H(self, model, X, P):
        raw = model.sampled.rows_at(X)
        return self._working(model, _interp_rows(model.sampled.p_grid, raw, P[..., 0]))

    def h_min(self, model, X):
        return self._working(model, np.min(model.sampled.rows_at(X), axis=-1))

    def h_ball(self, model, X, eps):
        # a convex row peaks at an end of the interval [-eps, eps]
        P = np.full(X.shape, float(eps))
        return np.maximum(self.H(model, X, -P), self.H(model, X, P))

    def sigma(self, model, a, X, Q):
        # {H <= a} is the interval of p where the interpolated row is <= v;
        # its ends are grid momenta or linear crossings of the level v
        pg = model.sampled.p_grid
        v = _unsuperlinear_level(model, a) + model.normalization_shift
        raw = model.sampled.rows_at(X)
        lo, hi = raw[..., :-1], raw[..., 1:]
        cross = (lo - v) * (hi - v) < 0
        t = (v - lo) / np.where(cross, hi - lo, 1.0)
        ends = np.concatenate([np.where(raw <= v, pg, np.nan),
                               np.where(cross, pg[:-1] + t * (pg[1:] - pg[:-1]), np.nan)],
                              axis=-1)
        q = Q[..., 0]
        return np.maximum(np.fmin.reduce(ends, axis=-1) * q,
                          np.fmax.reduce(ends, axis=-1) * q)

    def L(self, model, X, Q):
        # discrete maximizer of p.q - H over the p-grid, then golden-section
        # refinement of the concave objective on the bracketing interval
        pg = model.sampled.p_grid
        q = Q[..., 0]
        raw = model.sampled.rows_at(X)
        shape = np.broadcast_shapes(raw.shape[:-1], q.shape)
        raw = np.broadcast_to(raw, shape + pg.shape)
        q = np.broadcast_to(q, shape)
        obj = pg * q[..., None] - self._working(model, raw)
        k = np.argmax(obj, axis=-1)
        best = np.take_along_axis(obj, k[..., None], axis=-1)[..., 0]
        beside = np.take_along_axis(obj, np.where(k == 0, 1, k - 1)[..., None],
                                    axis=-1)[..., 0]
        runaway = (((k == 0) | (k == len(pg) - 1)) & (np.abs(q) > 1e-14)
                   & (best - beside > 1e-12 * (1 + np.abs(best))))
        if runaway.any():
            # maximizer pushed to the probe boundary: cannot certify the sup
            raise NonCoercive("sampled transform maximizer on the p-grid boundary")

        def f(p):
            return p * q - self._working(model, _interp_rows(pg, raw, p))

        phi = (math.sqrt(5.0) - 1.0) / 2.0
        a = pg[np.maximum(k - 1, 0)]
        b = pg[np.minimum(k + 1, len(pg) - 1)]
        c, d = b - phi * (b - a), a + phi * (b - a)
        fc, fd = f(c), f(d)
        for _ in range(60):
            left = fc >= fd
            a, b = np.where(left, a, c), np.where(left, d, b)
            c, d = np.where(left, b - phi * (b - a), d), np.where(left, c, a + phi * (b - a))
            fnew = f(np.where(left, c, d))
            fc, fd = np.where(left, fnew, fd), np.where(left, fc, fnew)
        return np.maximum(f(0.5 * (a + b)), np.max(obj, axis=-1))


FAMILIES = {"eikonal": Eikonal(), "quadratic": Quadratic(), "sampled": Sampled()}


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _as_points(x, dim):
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if pts.shape[-1] != dim:
        raise ValueError(f"points of dimension {pts.shape[-1]}, model has {dim}")
    return pts


def hamiltonian(model, x, p):
    """H(x,p) after normalization shift (and superlinearization if flagged)."""
    return model.ops.H(model, _as_points(x, model.dimension),
                       _as_points(p, model.dimension))


def h_at_zero(model, points):
    """H(x,0) on an array of points (superlinearization never changes it when b>=0)."""
    X = _as_points(points, model.dimension)
    return model.ops.H(model, X, np.zeros_like(X))


def h_min_over_p(model, points):
    """min_p H(x,p) per point."""
    return model.ops.h_min(model, _as_points(points, model.dimension))


def h_max_small_ball(model, points, eps):
    """max_{|p| <= eps} H(x,p) per point."""
    return model.ops.h_ball(model, _as_points(points, model.dimension), eps)


# ---------------------------------------------------------------------------
# Fenchel transform
# ---------------------------------------------------------------------------

def _eikonal_super_lagrangian(F, b, speed):
    """Conjugate of r -> r - F + (max(0, r - (F+b)))^2 at slope |q| = speed.

    The kink radius is r0 = F + b (nonnegative on the box once b = -min F).
    For speed <= 1 the transform equals F; beyond, the quadratic tail takes
    over and the maximizer sits at r0 + (speed-1)/2.
    """
    F = np.asarray(F, dtype=float)
    speed = np.asarray(speed, dtype=float)
    r0 = np.maximum(F + b, 0.0)
    excess = np.maximum(speed - 1.0, 0.0)
    linear_part = F + r0 * excess
    rstar = np.maximum(r0, (F + b) + 0.5 * (speed - 1.0))
    tail_part = rstar * (speed - 1.0) + F - (rstar - (F + b)) ** 2
    return np.maximum(linear_part, tail_part)


def fenchel_transform(model, x, q):
    """L(x,q) = sup_p [p.q - H(x,p)].

    Closed forms for the built-in families; grid maximization with a
    golden-section refinement for the sampled family.  Raises NonCoercive
    when the supremum runs away (H not superlinear, e.g. the raw eikonal
    family at |q| > 1).
    """
    out = model.ops.L(model, _as_points(x, model.dimension),
                      _as_points(q, model.dimension))
    if np.any(np.isinf(out)):
        raise NonCoercive("transform diverges where H is not superlinear; "
                          "superlinearize first")
    return out


def lagrangian_table(model, points, velocities):
    """L(x_i, q_j) as an (n_points, n_velocities) array; +inf marks velocities
    where the transform is infinite (raw eikonal beyond the unit ball)."""
    X = np.atleast_2d(np.asarray(points, dtype=float))
    V = np.atleast_2d(np.asarray(velocities, dtype=float))
    return model.ops.L(model, X[:, None, :], V[None, :, :])


# ---------------------------------------------------------------------------
# superlinearization
# ---------------------------------------------------------------------------

def superlinearize(model, grid):
    """Return the model with H replaced by H + (max(0, H - b))^2, b = max H(x,0).

    The zero sublevel sets (in fact every sublevel below b) are untouched, so
    the critical structure and all subsolutions are preserved; the quadratic
    family is already superlinear and passes through unchanged apart from the
    flag.  Raises A3Violated when b is attained on the outer shell of the box
    (the localization assumption has no interior maximizer) and NotNormalized
    when b < 0 (the model is not normalized to critical value 0).
    """
    pts = grid.coords
    vals = h_at_zero(model, pts)
    k = int(np.argmax(vals))
    b = float(vals[k])
    if grid.shell_mask()[k] and not np.any(vals[~grid.shell_mask()] >= b - 1e-12):
        raise A3Violated("max of H(.,0) attained only on the outer shell")
    if b < -1e-9:
        raise NotNormalized(f"max H(x,0) = {b:.3g} < 0; normalize the model first")
    return dataclasses.replace(model, superlinearized=True, super_b=max(b, 0.0))


# ---------------------------------------------------------------------------
# support function of sublevel sets
# ---------------------------------------------------------------------------

def support_function(model, a, x, q):
    """sigma_a(x,q) = max{p.q : H(x,p) <= a}; x and q broadcast over their
    leading axes, and NaN marks an empty sublevel.

    An empty sublevel certifies that the level a is subcritical at x.
    """
    return model.ops.sigma(model, a, _as_points(x, model.dimension),
                           _as_points(q, model.dimension))


# ---------------------------------------------------------------------------
# assumption validation
# ---------------------------------------------------------------------------

@dataclass
class Verdict:
    name: str
    passed: bool
    detail: str = ""
    witness: Optional[tuple] = None


@dataclass
class AssumptionReport:
    a3_lhs: float
    a3_rhs: float
    epsilon_used: float
    margin: float
    verdicts: dict
    coercivity_radius: float = 0.0

    @property
    def all_passed(self):
        return all(v.passed for v in self.verdicts.values())


CONVEXITY_PROBES = 2000                             # random midpoint triples
EPS_SWEEP = [k / 100.0 for k in range(1, 101)]     # localization ball radii


def validate_assumptions(model, grid):
    """Numeric check of continuity, convexity/coercivity, and localization.

    Convexity is probed at CONVEXITY_PROBES random midpoints (seed 0)
    against the family's `convexity_tol`.  The localization check compares,
    over the momentum radii eps in EPS_SWEEP, the largest value of H on
    small balls over the outermost 10% shell of the box against
    max_x min_p H over the whole box; the most favorable margin and its
    eps witness are reported.  All quantities are concrete (witness-based):
    the report is evidence, not a proof.
    """
    pts = grid.coords
    rng = np.random.default_rng(0)
    verdicts = {}

    finite = np.all(np.isfinite(h_at_zero(model, pts)))
    verdicts["A1"] = Verdict("A1", bool(finite), "finite nodal values")

    xs = pts[rng.integers(0, len(pts), size=CONVEXITY_PROBES)]
    p1 = rng.uniform(-3.0, 3.0, size=(CONVEXITY_PROBES, model.dimension))
    p2 = rng.uniform(-3.0, 3.0, size=(CONVEXITY_PROBES, model.dimension))
    mid = hamiltonian(model, xs, 0.5 * (p1 + p2))
    avg = 0.5 * (hamiltonian(model, xs, p1) + hamiltonian(model, xs, p2))
    conv_gap = float(np.max(mid - avg))
    verdicts["A2-convexity"] = Verdict(
        "A2-convexity", conv_gap <= model.ops.convexity_tol,
        f"worst midpoint gap {conv_gap:.3e}")

    coer_radius = 0.0
    coercive = True
    sample = pts[:: max(1, len(pts) // 64)]
    h0 = h_at_zero(model, sample)
    for radius in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
        e = np.zeros(model.dimension)
        e[0] = radius
        vals = hamiltonian(model, sample, np.broadcast_to(e, sample.shape))
        if np.all(vals >= h0 + 1.0):
            coer_radius = radius
            break
    else:
        coercive = False
    verdicts["A2-coercivity"] = Verdict(
        "A2-coercivity", coercive, f"H(x,p) >= H(x,0)+1 past radius {coer_radius}")

    shell = grid.shell_mask()
    a3_rhs = float(np.max(h_min_over_p(model, pts)))
    best = (-np.inf, EPS_SWEEP[0], np.inf)
    for eps in EPS_SWEEP:
        lhs = float(np.max(h_max_small_ball(model, pts[shell], eps)))
        margin = a3_rhs - lhs
        if margin > best[0]:
            best = (margin, eps, lhs)
    margin, eps_used, a3_lhs = best
    verdicts["A3"] = Verdict(
        "A3", margin > 1e-9,
        f"shell max over |p|<= {eps_used} is {a3_lhs:.6g} vs interior bound {a3_rhs:.6g}")

    return AssumptionReport(a3_lhs=a3_lhs, a3_rhs=a3_rhs, epsilon_used=eps_used,
                            margin=margin, verdicts=verdicts,
                            coercivity_radius=coer_radius)
