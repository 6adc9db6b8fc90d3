"""Box discretization, finite velocity sets, and the foot-point transition.

The transition structure is shared by the PDE solver, the graph distances,
and the occupation-measure linear programs: for every (node i, velocity q)
the foot point x_i + h*q is clipped to the box and expressed as multilinear
interpolation weights over its enclosing cell, a stochastic row per (i, q).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
import numpy as np

from .errors import DegenerateBox

_SNAP = 1e-9


@dataclass
class Grid:
    box: np.ndarray            # (N, 2) per-axis [lo, hi]
    h: float
    shape: tuple               # nodes per axis
    coords: np.ndarray = None  # (num_nodes, N), C-order flattening

    @property
    def dimension(self):
        return len(self.shape)

    @property
    def num_nodes(self):
        return int(np.prod(self.shape))

    def multi_to_flat(self, multi):
        return int(np.ravel_multi_index(multi, self.shape))

    def node_near(self, point):
        """Flat index of the node closest to the given coordinates."""
        p = np.asarray(point, dtype=float).reshape(self.dimension)
        multi = [int(round((p[k] - self.box[k, 0]) / self.h)) for k in range(self.dimension)]
        multi = [min(max(m, 0), self.shape[k] - 1) for k, m in enumerate(multi)]
        return self.multi_to_flat(multi)

    def shell_mask(self, fraction=0.10):
        """Outermost `fraction` of the box (per axis, split between the two sides)."""
        pts = self.coords
        m = np.zeros(self.num_nodes, dtype=bool)
        for k in range(self.dimension):
            lo, hi = self.box[k]
            pad = 0.5 * fraction * (hi - lo)
            m |= (pts[:, k] <= lo + pad + _SNAP) | (pts[:, k] >= hi - pad - _SNAP)
        return m

    def box_mask(self, sub_box):
        sub = np.asarray(sub_box, dtype=float).reshape(self.dimension, 2)
        pts = self.coords
        m = np.ones(self.num_nodes, dtype=bool)
        for k in range(self.dimension):
            m &= (pts[:, k] >= sub[k, 0] - _SNAP) & (pts[:, k] <= sub[k, 1] + _SNAP)
        return m

    def scaled_box(self, factor):
        """Centered sub- (or super-) box scaled by `factor` about the box center."""
        c = 0.5 * (self.box[:, 0] + self.box[:, 1])
        half = 0.5 * (self.box[:, 1] - self.box[:, 0]) * factor
        return np.stack([c - half, c + half], axis=1)

    def interp_weights(self, points):
        """Multilinear weights: returns (idx, w) of shape (npts, 2**N)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        n, N = pts.shape
        t = (pts - self.box[:, 0][None, :]) / self.h
        base = np.floor(t + _SNAP).astype(int)
        for k in range(N):
            base[:, k] = np.clip(base[:, k], 0, self.shape[k] - 2 if self.shape[k] > 1 else 0)
        frac = t - base
        frac = np.clip(frac, 0.0, 1.0)
        frac[np.abs(frac) < _SNAP] = 0.0
        frac[np.abs(frac - 1.0) < _SNAP] = 1.0
        K = 1 << N
        idx = np.zeros((n, K), dtype=np.int64)
        w = np.ones((n, K))
        strides = np.ones(N, dtype=np.int64)
        for k in range(N - 2, -1, -1):
            strides[k] = strides[k + 1] * self.shape[k + 1]
        flat_base = base @ strides
        for corner in range(K):
            offset = 0
            wc = np.ones(n)
            for k in range(N):
                bit = (corner >> (N - 1 - k)) & 1
                offset += bit * strides[k]
                wc *= frac[:, k] if bit else (1.0 - frac[:, k])
            idx[:, corner] = flat_base + offset
            w[:, corner] = wc
        s = w.sum(axis=1, keepdims=True)
        w = w / s
        return idx, w


def build_grid(box, h):
    """Uniform grid on the box; (hi-lo)/h must be integral per axis."""
    box = np.asarray(box, dtype=float).reshape(-1, 2)
    h = float(h)
    shape = []
    for lo, hi in box:
        steps = (hi - lo) / h
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError(f"axis [{lo},{hi}] is not an integer number of steps of h={h}")
        n = int(round(steps)) + 1
        if n < 4:
            raise DegenerateBox(f"axis [{lo},{hi}] has only {n} nodes at h={h}")
        shape.append(n)
    shape = tuple(shape)
    axes = [box[k, 0] + h * np.arange(shape[k]) for k in range(len(shape))]
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([m.reshape(-1) for m in mesh], axis=1)
    return Grid(box=box, h=h, shape=shape, coords=coords)


@dataclass
class VelocitySet:
    vectors: np.ndarray   # (M, N), symmetric, contains 0
    q_max: float

    @property
    def size(self):
        return len(self.vectors)

    def zero_index(self):
        return int(np.argmin(np.sum(self.vectors ** 2, axis=1)))

    def speeds(self):
        return np.sqrt(np.sum(self.vectors ** 2, axis=1))


def build_velocity_set(q_max, per_axis_count, dimension=1):
    """Symmetric lattice of velocities inside the ball of radius q_max.

    per_axis_count must be odd so that 0 and the +/- pairs are both present.
    """
    if per_axis_count < 3 or per_axis_count % 2 == 0:
        raise ValueError("per_axis_count must be odd and >= 3 (0 and +/-q pairs required)")
    axis = np.linspace(-q_max, q_max, per_axis_count)
    axis[np.abs(axis) < 1e-15] = 0.0
    mesh = np.meshgrid(*([axis] * dimension), indexing="ij")
    vecs = np.stack([m.reshape(-1) for m in mesh], axis=1)
    keep = np.sqrt(np.sum(vecs ** 2, axis=1)) <= q_max + 1e-12
    vecs = vecs[keep]
    order = np.lexsort(vecs.T[::-1])
    return VelocitySet(vectors=vecs[order], q_max=float(q_max))


@dataclass
class Transition:
    """Foot points x_i + h*q with clipping and interpolation weights.

    idx/w have shape (num_nodes, M, 2**N); each (i, q) row is a stochastic
    vector.  `clipped` flags feet that were projected back onto the box.
    """
    grid: Grid
    velocity_set: VelocitySet
    feet: np.ndarray      # (n, M, N)
    idx: np.ndarray       # (n, M, K)
    w: np.ndarray         # (n, M, K)
    clipped: np.ndarray   # (n, M)


def build_transition(grid, velocity_set):
    """Warns when more than half of the moving (q != 0) feet clip."""
    pts = grid.coords
    V = velocity_set.vectors
    n, N = pts.shape
    M = len(V)
    feet_raw = pts[:, None, :] + grid.h * V[None, :, :]
    lo = grid.box[:, 0][None, None, :]
    hi = grid.box[:, 1][None, None, :]
    feet = np.clip(feet_raw, lo, hi)
    clipped = np.any(np.abs(feet - feet_raw) > 1e-12, axis=2)
    moving = np.any(V != 0.0, axis=1)
    share = float(np.mean(clipped[:, moving]))
    if share > 0.5:
        warnings.warn(f"{share:.0%} of the moving feet x_i + h*q clip to the box; "
                      "lower velocity.q_max or refine the grid", stacklevel=2)
    idx, w = grid.interp_weights(feet.reshape(n * M, N))
    K = idx.shape[1]
    return Transition(grid=grid, velocity_set=velocity_set,
                      feet=feet,
                      idx=idx.reshape(n, M, K),
                      w=w.reshape(n, M, K),
                      clipped=clipped)


def interpolate(transition, values):
    """Continuation values at every foot point: (n, M) array."""
    v = np.asarray(values, dtype=float)
    return np.sum(transition.w * v[transition.idx], axis=2)
