"""Grid-refined brute-force solver, independent of the strategy table.

Every catalog operator is the subdifferential of a convex potential G, so the
protoresolvent point for w is the unique minimizer of
h(y) = f(y) + lam G(y) - <w, y>.  Nested grid refinement of h gives a second,
derivative-free route used to cross-check the production solvers.

The grid is array-native: each refinement round lays out its per_axis**dim
points as the rows of one (k, dim) array in itertools.product order, and the
closed-form values of f and G below reduce over the last axis, so one numpy
pass scores the whole round.  Neither the strategy table nor the LegendreFn
methods are used.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyOperatorValue
from .legendre import CoshSum, PowerEuclidean, PowerP, QuadraticForm
from .operators import (Affine, GradientOfConvex, MonotoneOp, NormalConeBox,
                        OperatorSum, Scaled, SubdiffAbs)

# largest round scored at once (dim <= 6 at the default resolution); the
# whole round is held in memory as one (k, dim) array
_MAX_GRID_POINTS = 1 << 20


def _quadratic(matrix, y):
    """(1/2) <M y, y> for each row y."""
    return 0.5 * np.sum((y @ matrix.T) * y, axis=-1)


def legendre_value(f, y):
    """Closed-form f at one row y or at each row of a (k, dim) array."""
    y = np.asarray(y, dtype=float)
    if isinstance(f, QuadraticForm):
        return _quadratic(f.metric.matrix, y)
    if isinstance(f, CoshSum):
        return np.sum(np.cosh(y), axis=-1)
    if isinstance(f, PowerEuclidean):
        return np.sqrt(np.sum(y * y, axis=-1)) ** f.rho / f.rho
    if isinstance(f, PowerP):
        return (np.sum(np.abs(y) ** f.p, axis=-1) ** (1.0 / f.p)) ** f.rho / f.rho
    raise TypeError(f"no closed-form value known for Legendre kind {f.kind!r}")


def operator_potential(op: MonotoneOp, y):
    """Convex G with A = dG at one row y or at each row; +inf outside the domain."""
    y = np.asarray(y, dtype=float)
    if isinstance(op, SubdiffAbs):
        return op.weight * np.sum(np.abs(y - op.shift), axis=-1)
    if isinstance(op, Affine):
        return _quadratic(op.matrix, y) + y @ op.offset
    if isinstance(op, NormalConeBox):
        outside = np.any((y < op.lower) | (y > op.upper), axis=-1)
        return np.where(outside, np.inf, 0.0)[()]
    if isinstance(op, GradientOfConvex):
        d = y - op.shift
        if op.profile == "logcosh":
            return op.weight * np.sum(np.log(np.cosh(d)), axis=-1)
        if op.profile == "quartic":
            return op.weight * np.sum(d ** 4, axis=-1) / 4.0
        return op.weight * np.sum(d * d, axis=-1) ** 2 / 4.0
    if isinstance(op, Scaled):
        return op.lam * operator_potential(op.inner, y)
    if isinstance(op, OperatorSum):
        return sum(operator_potential(t, y) for t in op.terms)
    raise TypeError(f"no potential known for operator kind {op.kind!r}")


def brute_force_protoresolvent(f, op, lam, w, rounds=8):
    """Minimize h over nested grids of max(9, round(81^(1/dim))) points per
    axis, the first spanning 4 + 4 ||w|| either side of 0; in 1-D the accuracy
    is ~ that span times (4/81)^rounds.

    Ties go to the first grid point in itertools.product order; points where
    h is NaN or +inf never win, and a round without a finite point raises
    EmptyOperatorValue.
    """
    w = np.asarray(w, dtype=float)
    dim = f.dim
    center = np.zeros(dim)
    half = 4.0 + 4.0 * float(np.linalg.norm(w))
    per_axis = max(9, int(round(81 ** (1.0 / dim))))
    size = per_axis ** dim
    if size > _MAX_GRID_POINTS:
        raise ValueError(f"brute force: {size} grid points per round in dim {dim} "
                         f"exceed the limit of {_MAX_GRID_POINTS}")

    for r in range(rounds):
        axes = np.linspace(center - half, center + half, per_axis)  # column i: axis i
        rows = np.stack(np.meshgrid(*axes.T, indexing="ij"), axis=-1).reshape(-1, dim)
        # points that overflow score inf or NaN; they are discarded, not reported
        with np.errstate(over="ignore", invalid="ignore"):
            vals = legendre_value(f, rows) + lam * operator_potential(op, rows) - rows @ w
        vals[np.isnan(vals)] = np.inf
        k = int(np.argmin(vals))
        if vals[k] == np.inf:
            raise EmptyOperatorValue(
                f"brute force: no grid point of round {r} has a finite objective for "
                f"operator {op.spec_string()} (grid half-width {half:g} around {center.tolist()})")
        half *= 4.0 / (per_axis - 1)
        center = rows[k].copy()
    return center
