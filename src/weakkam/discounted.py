"""Maximal discounted solutions by semi-Lagrangian value iteration.

The scheme is the implicit fixed point

    u(i) = min over q in Q of [ h L(x_i, q) + u(x_i + h q) ] / (1 + lambda h)

with the foot value interpolated multilinearly and feet clipped to the box
(the state-constraint boundary condition: trajectories may not exit, which
matches the untruncated solution at interior points once lambda is small).
Starting from a constant upper bound the operator decreases monotonically
and contracts with factor 1/(1 + lambda h), so convergence is unconditional
and the iterate order doubles as a from-above Perron construction.

Closed-form oracles: for H = |p| - |x| the bounded-below solution is
u(x) = |x|/lambda + (exp(-lambda |x|) - 1)/lambda^2; for H = |p|^2/2 - x^2/2
the ansatz alpha x^2 gives alpha = (-lambda + sqrt(lambda^2 + 4))/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MaxIterExceeded, WeakKAMError
from .grids import ValueField, build_transition, interpolate
from .models import lagrangian_table


@dataclass
class DiscountedSolve:
    lam: float
    field: ValueField
    iterations: int
    residual: float
    trace: list = None                    # (iteration, sup-update) pairs


def upper_start(model, grid, velocity_set, lam):
    """Constant U with T(U) <= U: U = max_x min_q L(x,q) / lambda."""
    L = lagrangian_table(model, grid.coords, velocity_set.vectors)
    return float(np.max(np.min(L, axis=1))) / lam


def solve_discounted(model, grid, velocity_set, lam, tol=1e-6, max_iter=None,
                     transition=None):
    """Iterate the discounted Bellman operator to the fixed point.

    Stops when the sup-norm update falls below tol; raises MaxIterExceeded
    (carrying the last residual) when the budget runs out first.  The
    monotone-decrease invariant is checked every sweep.
    """
    if lam <= 0:
        raise ValueError("discount rate lambda must be positive")
    if transition is None:
        transition = build_transition(grid, velocity_set)
    h = grid.h
    L = lagrangian_table(model, grid.coords, velocity_set.vectors)
    stage = h * L
    denom = 1.0 + lam * h
    u = np.full(grid.num_nodes, upper_start(model, grid, velocity_set, lam))
    scale = 1.0 + float(np.max(np.abs(u)))
    if max_iter is None:
        max_iter = int(math.log(max(scale / max(tol, 1e-300), 10.0)) / math.log1p(lam * h)) + 200
    trace = []
    residual = np.inf
    for it in range(1, max_iter + 1):
        cont = interpolate(transition, u)
        new = np.min(stage + cont, axis=1) / denom
        rise = float(np.max(new - u))
        if rise > 1e-10 * scale:
            raise WeakKAMError(f"monotone decrease violated by {rise:.3e} at sweep {it}")
        residual = float(np.max(u - new))
        u = new
        trace.append((it, residual))
        if residual <= tol:
            return DiscountedSolve(lam=lam, field=ValueField(grid, u, name=f"u_{lam:g}"),
                                   iterations=it, residual=residual, trace=trace)
    raise MaxIterExceeded(f"no convergence to {tol} within {max_iter} sweeps",
                          residual=residual, iterations=max_iter)


# ---------------------------------------------------------------------------
# closed-form oracles
# ---------------------------------------------------------------------------

def oracle_abs(lam, x):
    """Bounded-below solution of lambda u + |u'| = |x| on the line."""
    ax = np.abs(np.asarray(x, dtype=float))
    out = ax / lam + (np.exp(-lam * ax) - 1.0) / lam ** 2
    return out if out.size > 1 else float(out)


def quadratic_rate(lam):
    return (-lam + math.sqrt(lam * lam + 4.0)) / 4.0


def oracle_quadratic(lam, x):
    """Solution alpha x^2 of lambda u + (u')^2/2 = x^2/2."""
    out = quadratic_rate(lam) * np.asarray(x, dtype=float) ** 2
    return out if out.size > 1 else float(out)
