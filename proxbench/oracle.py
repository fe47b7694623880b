"""The benchmark's own closed forms for the proxlab catalog.

Correctness checks use these instead of the program's value boxes, membership
residuals or potentials: each catalog object is read only for its data
(matrices, shifts, weights) and every gradient, operator value and objective
is recomputed here from its textbook formula.
"""

from __future__ import annotations

import numpy as np

from proxlab.legendre import CoshSum, PowerEuclidean, PowerP, QuadraticForm
from proxlab.operators import (Affine, GradientOfConvex, NormalConeBox, OperatorSum,
                               Scaled, SubdiffAbs)

CLASSES = ("affine_solve", "grad_inverse", "soft_threshold", "newton", "separable")


#  Legendre functions

def f_value(f, x) -> float:
    x = np.asarray(x, dtype=float)
    if isinstance(f, QuadraticForm):
        return 0.5 * float(x @ f.metric.matrix @ x)
    if isinstance(f, CoshSum):
        return float(np.sum(np.cosh(x)))
    if isinstance(f, PowerEuclidean):
        return float(np.sqrt(x @ x)) ** f.rho / f.rho
    if isinstance(f, PowerP):
        return float(np.sum(np.abs(x) ** f.p)) ** (f.rho / f.p) / f.rho
    raise TypeError(f"no closed form for {type(f).__name__}")


def f_grad(f, x):
    x = np.asarray(x, dtype=float)
    if isinstance(f, QuadraticForm):
        return f.metric.matrix @ x
    if isinstance(f, CoshSum):
        return np.sinh(x)
    if isinstance(f, PowerEuclidean):
        n = float(np.sqrt(x @ x))
        return np.zeros_like(x) if n == 0.0 else n ** (f.rho - 2.0) * x
    if isinstance(f, PowerP):
        n = float(np.sum(np.abs(x) ** f.p)) ** (1.0 / f.p)
        if n == 0.0:
            return np.zeros_like(x)
        return n ** (f.rho - f.p) * np.sign(x) * np.abs(x) ** (f.p - 1.0)
    raise TypeError(f"no closed form for {type(f).__name__}")


def bregman(f, y, x) -> float:
    """D_f(y, x) = f(y) - f(x) - <grad f(x), y - x>."""
    return f_value(f, y) - f_value(f, x) - float(f_grad(f, x) @ (np.asarray(y) - np.asarray(x)))


#  operators

def op_box(op, y):
    """(lo, hi) with A(y) = [lo, hi] coordinatewise, or None when A(y) is empty."""
    y = np.asarray(y, dtype=float)
    if isinstance(op, SubdiffAbs):
        w, s = op.weight, op.shift
        lo = np.where(y > s, w, -w)
        hi = np.where(y < s, -w, w)
        return lo, hi
    if isinstance(op, Affine):
        v = op.matrix @ y + op.offset
        return v, v
    if isinstance(op, NormalConeBox):
        if np.any(y < op.lower) or np.any(y > op.upper):
            return None
        lo = np.where(y == op.lower, -np.inf, 0.0)
        hi = np.where(y == op.upper, np.inf, 0.0)
        return lo, hi
    if isinstance(op, GradientOfConvex):
        d = y - op.shift
        if op.profile == "logcosh":
            v = op.weight * np.tanh(d)
        elif op.profile == "quartic":
            v = op.weight * d ** 3
        else:
            v = op.weight * float(d @ d) * d
        return v, v
    if isinstance(op, Scaled):
        inner = op_box(op.inner, y)
        return None if inner is None else (op.lam * inner[0], op.lam * inner[1])
    if isinstance(op, OperatorSum):
        lo, hi = np.zeros_like(y), np.zeros_like(y)
        for term in op.terms:
            box = op_box(term, y)
            if box is None:
                return None
            lo, hi = lo + box[0], hi + box[1]
        return lo, hi
    raise TypeError(f"no closed form for {type(op).__name__}")


def box_distance(op, y, xi) -> float:
    """Euclidean distance from xi to A(y); inf when A(y) is empty."""
    box = op_box(op, y)
    if box is None:
        return np.inf
    return float(np.linalg.norm(xi - np.clip(xi, box[0], box[1])))


def potential(op, y) -> float:
    """Convex G with A = dG (+inf outside the domain of a normal cone)."""
    y = np.asarray(y, dtype=float)
    if isinstance(op, SubdiffAbs):
        return op.weight * float(np.sum(np.abs(y - op.shift)))
    if isinstance(op, Affine):
        return 0.5 * float(y @ op.matrix @ y) + float(op.offset @ y)
    if isinstance(op, NormalConeBox):
        return np.inf if np.any(y < op.lower) or np.any(y > op.upper) else 0.0
    if isinstance(op, GradientOfConvex):
        d = y - op.shift
        if op.profile == "logcosh":
            return op.weight * float(np.sum(np.log(np.cosh(d))))
        if op.profile == "quartic":
            return op.weight * float(np.sum(d ** 4)) / 4.0
        return op.weight * float(d @ d) ** 2 / 4.0
    if isinstance(op, Scaled):
        return op.lam * potential(op.inner, y)
    if isinstance(op, OperatorSum):
        return sum(potential(t, y) for t in op.terms)
    raise TypeError(f"no closed form for {type(op).__name__}")


#  the strategy class a pairing falls in, from the catalog's documented rules

def _affine_parts(op):
    if isinstance(op, Affine):
        return op.matrix, op.offset
    if isinstance(op, Scaled):
        inner = _affine_parts(op.inner)
        return None if inner is None else (op.lam * inner[0], op.lam * inner[1])
    if isinstance(op, OperatorSum):
        parts = [_affine_parts(t) for t in op.terms]
        if any(p is None for p in parts):
            return None
        return sum(p[0] for p in parts), sum(p[1] for p in parts)
    return None


def _innermost(op):
    return _innermost(op.inner) if isinstance(op, Scaled) else op


def _f_separable(f) -> bool:
    if isinstance(f, QuadraticForm):
        m = f.metric.matrix
        return not np.any(m - np.diag(np.diagonal(m)))
    return isinstance(f, CoshSum) or f.dim == 1


def _op_separable(op) -> bool:
    if isinstance(op, Affine):
        return not np.any(op.matrix - np.diag(np.diagonal(op.matrix)))
    if isinstance(op, GradientOfConvex):
        return op.profile != "norm4" or op.dim == 1
    if isinstance(op, Scaled):
        return _op_separable(op.inner)
    if isinstance(op, OperatorSum):
        return all(_op_separable(t) for t in op.terms)
    return True


def is_identity_quadratic(f) -> bool:
    return isinstance(f, QuadraticForm) and np.array_equal(f.metric.matrix, np.eye(f.dim))


def pairing_class(f, op):
    """Which closed-form or iterative route serves (f, A); None when none does."""
    parts = _affine_parts(op)
    if parts is not None:
        if isinstance(f, QuadraticForm):
            return "affine_solve"
        if not np.any(parts[0]):
            return "grad_inverse"
    if is_identity_quadratic(f):
        if isinstance(_innermost(op), SubdiffAbs):
            return "soft_threshold"
        if isinstance(_innermost(op), GradientOfConvex):
            return "newton"
    if _f_separable(f) and _op_separable(op):
        return "separable"
    return None
