"""Grid-refined brute-force solver, independent of the strategy table.

Every catalog operator is the subdifferential of a convex potential G, so the
protoresolvent point for w is the unique minimizer of
h(y) = f(y) + lam G(y) - <w, y>.  Nested grid refinement of h gives a second,
derivative-free route used to cross-check the production solvers.

The grid is array-native: each refinement round lays out its per_axis**dim
points as the rows of one (k, dim) array in itertools.product order, and the
closed-form values of f and G below reduce over the last axis, so one numpy
pass scores the whole round.  The layout is built once per call, as a flat
index into the round's (per_axis, dim) axes, and the formulas of f and G are
picked once per call, so a round costs one index, one objective pass and one
argmin.  Neither the strategy table nor the LegendreFn methods are used.
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

_sum = np.add.reduce  # np.sum's own reduction, without its dispatch


def _quadratic(matrix):
    """y -> (1/2) <M y, y> for each row y."""
    return lambda y: 0.5 * _sum((y @ matrix.T) * y, axis=-1)


def _legendre_formula(f):
    """The closed-form f of f's kind, over one row y or the rows of a (k, dim) array."""
    if isinstance(f, QuadraticForm):
        return _quadratic(f.metric.matrix)
    if isinstance(f, CoshSum):
        return lambda y: _sum(np.cosh(y), axis=-1)
    if isinstance(f, PowerEuclidean):
        rho = f.rho
        return lambda y: np.sqrt(_sum(y * y, axis=-1)) ** rho / rho
    if isinstance(f, PowerP):
        rho, p = f.rho, f.p
        return lambda y: (_sum(np.abs(y) ** p, axis=-1) ** (1.0 / p)) ** rho / rho
    raise TypeError(f"no closed-form value known for Legendre kind {f.kind!r}")


def _potential_formula(op: MonotoneOp):
    """Convex G with A = dG, over one row y or the rows; +inf outside the domain."""
    if isinstance(op, SubdiffAbs):
        weight, shift = op.weight, op.shift
        return lambda y: weight * _sum(np.abs(y - shift), axis=-1)
    if isinstance(op, Affine):
        quadratic, offset = _quadratic(op.matrix), op.offset
        return lambda y: quadratic(y) + y @ offset
    if isinstance(op, NormalConeBox):
        lower, upper = op.lower, op.upper
        return lambda y: np.where(np.any((y < lower) | (y > upper), axis=-1), np.inf, 0.0)[()]
    if isinstance(op, GradientOfConvex):
        weight, shift = op.weight, op.shift
        if op.profile == "logcosh":
            return lambda y: weight * _sum(np.log(np.cosh(y - shift)), axis=-1)
        if op.profile == "quartic":
            return lambda y: weight * _sum((y - shift) ** 4, axis=-1) / 4.0

        def norm4(y):
            d = y - shift
            return weight * _sum(d * d, axis=-1) ** 2 / 4.0
        return norm4
    if isinstance(op, Scaled):
        lam, inner = op.lam, _potential_formula(op.inner)
        return lambda y: lam * inner(y)
    if isinstance(op, OperatorSum):
        terms = [_potential_formula(t) for t in op.terms]
        return lambda y: sum(term(y) for term in terms)
    raise TypeError(f"no potential known for operator kind {op.kind!r}")


def legendre_value(f, y):
    """Closed-form f at one row y or at each row of a (k, dim) array."""
    return _legendre_formula(f)(np.asarray(y, dtype=float))


def operator_potential(op: MonotoneOp, y):
    """Convex G with A = dG at one row y or at each row; +inf outside the domain."""
    return _potential_formula(op)(np.asarray(y, dtype=float))


def brute_force_protoresolvent(f, op, lam, w, rounds=8):
    """Minimize h over nested grids of max(9, round(81^(1/dim))) points per
    axis, the first spanning 4 + 4 ||w|| either side of 0; in 1-D the accuracy
    is ~ that span times (4/81)^rounds.

    Ties go to the first grid point in itertools.product order; points where
    h is NaN or +inf never win, and a round without a finite point raises
    EmptyOperatorValue.  A w whose norm overflows raises ValueError.

    The rows are gathered through one C-contiguous index built per call: an
    F-ordered (k, dim) array sends rows @ w down another BLAS path, whose
    rounding can move a round's argmin.
    """
    w = np.asarray(w, dtype=float)
    dim = f.dim
    center = np.zeros(dim)
    with np.errstate(over="ignore"):
        half = 4.0 + 4.0 * float(np.linalg.norm(w))
    if not np.isfinite(half):
        raise ValueError(f"brute force: the grid half-width 4 + 4 ||w|| is {half} "
                         "because ||w|| overflows or is not finite")
    per_axis = max(9, int(round(81 ** (1.0 / dim))))
    size = per_axis ** dim
    if size > _MAX_GRID_POINTS:
        raise ValueError(f"brute force: {size} grid points per round in dim {dim} "
                         f"exceed the limit of {_MAX_GRID_POINTS}")
    div = per_axis - 1
    steps = np.arange(per_axis, dtype=float)[:, None]
    # row p, column i -> flat position of (digit i of p, axis i) in the axes array
    digits = np.stack(np.unravel_index(np.arange(size), (per_axis,) * dim), axis=-1)
    index = digits * dim + np.arange(dim)
    f_value, potential = _legendre_formula(f), _potential_formula(op)

    for r in range(rounds):
        # np.linspace(start, stop, per_axis), column i for axis i; its fallback
        # for a zero step, k / div * (stop - start), gives the same doubles here:
        # a zero step has stop == start in 1-D, and in dims >= 2 div = 8 is a power of 2
        start, stop = center - half, center + half
        axes = steps * ((stop - start) / div) + start
        axes[-1] = stop
        rows = axes.ravel()[index]
        # points that overflow score inf or NaN; they are discarded, not reported
        with np.errstate(over="ignore", invalid="ignore"):
            vals = f_value(rows) + lam * potential(rows) - rows @ w
        vals[np.isnan(vals)] = np.inf
        k = int(np.argmin(vals))
        if vals[k] == np.inf:
            raise EmptyOperatorValue(
                f"brute force: no grid point of round {r} has a finite objective for "
                f"operator {op.spec_string()} (grid half-width {half:g} around {center.tolist()})")
        half *= 4.0 / div
        center = rows[k].copy()
    return center
