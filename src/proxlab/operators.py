"""Catalog of maximally monotone set-valued operators.

Values are never materialized as sets: every catalog kind evaluates to an
axis-aligned box (a product of closed intervals, possibly unbounded), which
makes membership distances, min/max selections and Minkowski sums of values
exact.  All interaction goes through residual oracles.  The value
oracle takes one vector or the rows of a (k, dim) array; a row gets the bits
of the single-vector call.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .errors import DimensionMismatch, EmptyOperatorValue
from .legendre import _parse_kv_list, _parse_matrix
from .numerics import as_vector, halton_points, require_finite, residual_norm, row_dot


class ValueBox:
    """Axis-aligned box lo <= v <= hi (entries may be +-inf), or one box per
    row of a (k, dim) batch.  `empty` masks the rows where the operator value
    is empty; their lo and hi are NaN."""

    __slots__ = ("lo", "hi", "empty")

    def __init__(self, lo, hi, empty=False):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self.empty = empty

    def nearest(self, xi):
        return np.clip(xi, self.lo, self.hi)

    def distance(self, xi):
        """Distance from xi to the box, per row; +inf on empty rows."""
        d = residual_norm(xi - self.nearest(xi))
        return np.where(self.empty, np.inf, d) if np.ndim(d) else d

    def support_argmin(self, direction):
        """Minimizer of <v, direction> over the box; +-inf entries allowed."""
        return np.where(direction > 0.0, self.lo, np.where(direction < 0.0, self.hi, self.nearest(np.zeros_like(direction))))


class MonotoneOp:
    """Base class.  A subclass sets `dim` and, in its constructor, `parts`, the
    catalog parts of A = dG for G = phi + h: phi is separable and nonsmooth,
    with parts ("abs", weight, shift) and ("box", lower, upper); h is smooth,
    with parts ("affine", M, b, separable) and ("smooth", grad, hess,
    separable).  The value oracle, `separable` and `domain` (closed
    per-coordinate bounds, scalars for the whole line) follow from the parts.
    A subclass without parts defines its own `value_box`, routes only to the
    multisection, and cannot be scaled or summed.  The oracles take
    length-`dim` float vectors, or (k, dim) rows, and do not check them."""

    kind = "abstract"
    dim: int
    parts = ()
    separable = True
    domain = (-np.inf, np.inf)

    def _set_parts(self, parts):
        self.parts = tuple(parts)
        self.separable = all(p[3] for p in self.parts if p[0] in ("affine", "smooth"))
        for _, lower, upper in (p for p in self.parts if p[0] == "box"):
            lo, hi = self.domain
            self.domain = (np.maximum(lo, lower), np.minimum(hi, upper))

    #  value oracle

    def value_box(self, y) -> ValueBox:
        """A(y) as a box, or one box per row of a (k, dim) array: the sum of the
        parts' boxes, in parts order.  A single vector with an empty value
        raises EmptyOperatorValue; rows mark it in the box's `empty` mask."""
        if not self.parts:
            raise NotImplementedError(f"{type(self).__name__} has no parts to evaluate")
        y, total, empty = np.asarray(y), None, False
        for part in self.parts:
            kind, a, b = part[0], part[1], part[2]
            if kind == "abs":  # a weight, b shift
                lo, hi = np.where(y > b, a, -a), np.where(y < b, -a, a)
            elif kind == "box":  # a lower, b upper
                outside = (y < a) | (y > b)
                out = outside.any(axis=-1)
                if y.ndim == 1 and out:
                    i = int(np.argmax(outside))
                    raise EmptyOperatorValue(f"empty operator value: coordinate {i} = {y[i]} outside [{a[i]}, {b[i]}]")
                lo, hi = np.where(y == a, -np.inf, 0.0), np.where(y == b, np.inf, 0.0)
                if out.any():
                    lo[out] = hi[out] = np.nan
                empty = empty | out
            elif kind == "affine":  # one matrix-vector product per row, each with the single-vector bits
                lo = hi = (a @ y[..., None])[..., 0] + b
            else:
                lo = hi = a(y)
            total = (lo, hi) if total is None else (total[0] + lo, total[1] + hi)
        return ValueBox(*total, empty)

    def membership_residual(self, y, xi):
        """Exact distance from xi to A(y); raises if A(y) is empty (per row
        for rows, +inf on an empty row)."""
        return self.value_box(y).distance(xi)

    #  graph sampling

    def sample_graph(self, count, rng):
        """`count` random graph points of A, for monotonicity audits, as two
        (count, dim) arrays ys and xis.  y is uniform on [-3, 3]^dim, clamped
        to the domain; per coordinate, xi is uniform on a bounded A(y), lo +
        Exp(1) or hi - Exp(1) on a half-line, and normal on the whole line.
        y, the uniforms, exponentials and normals are drawn in that order."""
        ys = self._clamp_to_domain(rng.uniform(-3.0, 3.0, size=(count, self.dim)))
        box = self.value_box(ys)
        u, e, n = rng.uniform(size=ys.shape), rng.exponential(1.0, ys.shape), rng.standard_normal(ys.shape)
        has_lo, has_hi = np.isfinite(box.lo), np.isfinite(box.hi)
        lo, hi = np.where(has_lo, box.lo, 0.0), np.where(has_hi, box.hi, 0.0)  # no inf in the arithmetic
        xis = np.where(has_lo & has_hi, lo + (hi - lo) * u, np.where(has_lo, lo + e, np.where(has_hi, hi - e, n)))
        return ys, xis

    def _clamp_to_domain(self, y):
        return np.clip(np.asarray(y, dtype=float), *self.domain)

    def spec_string(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.spec_string()} dim={self.dim}>"


class SubdiffAbs(MonotoneOp):
    """Subdifferential of w ||. - s||_1: per coordinate {-w}/[-w, w]/{w}."""

    kind = "subdiff_abs"

    def __init__(self, weight, shift, dim=None):
        if not 0.0 <= weight < np.inf:
            raise ValueError("weight must be nonnegative")
        self.weight = float(weight)
        if np.isscalar(shift) and dim is not None:
            shift = np.full(dim, float(shift))
        self.shift = as_vector(shift, dim)
        self.dim = self.shift.shape[0]
        self._set_parts([("abs", self.weight, self.shift)])

    def spec_string(self):
        return f"abs:w={self.weight!r},shift=" + ",".join(repr(float(s)) for s in self.shift)


class Affine(MonotoneOp):
    """y -> M y + b for a symmetric positive semidefinite M (monotone)."""

    kind = "affine"

    def __init__(self, matrix, offset):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
        scale = max(residual_norm(m.ravel()), 1.0)
        if residual_norm((m - m.T).ravel()) > 1e-10 * scale:
            raise ValueError("affine operator matrix must be symmetric")
        m = 0.5 * (m + m.T)
        if np.min(np.linalg.eigvalsh(m)) < -1e-10 * scale:
            raise ValueError("affine operator matrix must be positive semidefinite")
        m.flags.writeable = False
        self.matrix = m
        self.offset = as_vector(offset, m.shape[0])
        self.dim = m.shape[0]
        separable = bool(np.count_nonzero(m - np.diag(np.diagonal(m))) == 0)
        self._set_parts([("affine", m, self.offset, separable)])

    def spec_string(self):
        key, m = ("diag", np.diagonal(self.matrix)) if self.separable else ("m", self.matrix.ravel())
        return (f"affine:{key}=" + ",".join(repr(float(v)) for v in m)
                + ",b=" + ",".join(repr(float(v)) for v in self.offset))


class NormalConeBox(MonotoneOp):
    """Normal cone operator of the box [lower, upper]; empty value outside."""

    kind = "normal_cone_box"

    def __init__(self, lower, upper, dim=None):
        if np.isscalar(lower) and dim is not None:
            lower = np.full(dim, float(lower))
        if np.isscalar(upper) and dim is not None:
            upper = np.full(dim, float(upper))
        self.lower = as_vector(lower, dim)
        self.upper = as_vector(upper, self.lower.shape[0])
        if np.any(self.lower > self.upper):
            raise ValueError("box requires lower <= upper")
        self.dim = self.lower.shape[0]
        self._set_parts([("box", self.lower, self.upper)])

    def spec_string(self):
        return ("box:" + ",".join(repr(float(v)) for v in self.lower)
                + ";" + ",".join(repr(float(v)) for v in self.upper))


class GradientOfConvex(MonotoneOp):
    """Gradient of a smooth convex function from a small closed catalog;
    `gradient` and `hessian` take length-`dim` float vectors unchecked, and
    `gradient` also takes (k, dim) rows.

    profiles: 'logcosh'  F = w sum log cosh(t - s)   (separable, bounded slope)
              'quartic'  F = w sum (t - s)^4 / 4      (separable)
              'norm4'    F = w ||x - s||^4 / 4        (genuinely coupled)
    """

    kind = "gradient_of_convex"
    PROFILES = ("logcosh", "quartic", "norm4")

    def __init__(self, profile, shift, dim=None, weight=1.0):
        if profile not in self.PROFILES:
            raise ValueError(f"unknown convex profile {profile!r}")
        if not 0.0 < weight < np.inf:
            raise ValueError("weight must be positive")
        self.profile = profile
        self.weight = float(weight)
        if np.isscalar(shift) and dim is not None:
            shift = np.full(dim, float(shift))
        self.shift = as_vector(shift, dim)
        self.dim = self.shift.shape[0]
        # bound to the data, not to self: a bound method in self.parts would
        # make every operator a reference cycle
        self.gradient = partial(_convex_gradient, profile, self.weight, self.shift)
        self.hessian = partial(_convex_hessian, profile, self.weight, self.shift)
        separable = profile != "norm4" or self.dim == 1
        self._set_parts([("smooth", self.gradient, self.hessian, separable)])

    def spec_string(self):
        return (f"grad:{self.profile}:w={self.weight!r},shift="
                + ",".join(repr(float(s)) for s in self.shift))


def _convex_gradient(profile, weight, shift, y):
    d = y - shift
    if profile == "logcosh":
        return weight * np.tanh(d)
    if profile == "quartic":
        return weight * d ** 3
    return weight * np.asarray(row_dot(d, d))[..., None] * d


def _convex_hessian(profile, weight, shift, y):
    d = y - shift
    if profile == "logcosh":
        return weight * np.diag(1.0 / np.cosh(d) ** 2)
    if profile == "quartic":
        return weight * np.diag(3.0 * d ** 2)
    return weight * (row_dot(d, d) * np.eye(len(d)) + 2.0 * np.outer(d, d))


class Scaled(MonotoneOp):
    """(lam A)(y) = lam A(y) for lam > 0."""

    kind = "scaled"

    def __init__(self, lam, inner):
        if not 0.0 < lam < np.inf:
            raise ValueError("scaling factor must be positive")
        if not inner.parts:
            raise TypeError(f"{type(inner).__name__} has no catalog parts to scale")
        self.lam = float(lam)
        self.inner = inner
        self.dim = inner.dim
        self._set_parts(_scaled(part, self.lam) for part in inner.parts)

    def spec_string(self):
        return f"scale:{self.lam!r}:{self.inner.spec_string()}"


class OperatorSum(MonotoneOp):
    """Pointwise Minkowski sum of compatible catalog operators."""

    kind = "shifted_sum"

    def __init__(self, terms):
        terms = list(terms)
        if not terms:
            raise ValueError("sum needs at least one term")
        self.dim = terms[0].dim
        for t in terms:
            if t.dim != self.dim:
                raise DimensionMismatch("sum terms live in different dimensions")
            if not t.parts:
                raise TypeError(f"{type(t).__name__} has no catalog parts to sum")
        self.terms = terms
        parts = [p for t in terms for p in t.parts if p[0] != "affine"]
        affine = [p for t in terms for p in t.parts if p[0] == "affine"]
        if affine:  # folded in term order from zeros
            m, b = np.zeros((self.dim, self.dim)), np.zeros(self.dim)
            for _, tm, tb, _ in affine:
                m, b = m + tm, b + tb
            parts.append(("affine", m, b, all(p[3] for p in affine)))
        self._set_parts(parts)

    def spec_string(self):
        return "sum:" + "|".join(t.spec_string() for t in self.terms)


def _scaled(part, lam):
    """The part of lam A that the part `part` of A becomes."""
    kind = part[0]
    if kind == "abs":
        return ("abs", lam * part[1], part[2])
    if kind == "affine":
        return ("affine", lam * part[1], lam * part[2], part[3])
    if kind == "smooth":
        grad, hess = part[1], part[2]
        return ("smooth", lambda y: lam * grad(y), lambda y: lam * hess(y), part[3])
    return part  # a positive multiple of a normal cone is that cone


def identity_op(dim) -> Affine:
    return Affine(np.eye(dim), np.zeros(dim))


def enlargement_residual(op: MonotoneOp, eps, y, xi, witness_budget=256):
    """Largest sampled violation of xi being in the eps-enlargement of A at y.

    Witnesses (x', y') are drawn from a deterministic low-discrepancy grid over
    the box of halfwidth 1 around y, each paired with the graph
    selection that minimizes <y' - xi, x' - y>.  A return of 0 certifies only
    that no sampled witness violates the enlargement inequality.
    """
    if not eps >= 0.0:
        raise ValueError("enlargement parameter must be nonnegative")
    y = as_vector(y, op.dim)
    xi = as_vector(xi, op.dim)
    # one witness per row of the grid
    xp = op._clamp_to_domain(y + (2.0 * halton_points(witness_budget, op.dim) - 1.0))
    box = op.value_box(xp)
    if np.any(box.empty):
        op.value_box(xp[np.argmax(box.empty)])  # raises EmptyOperatorValue for that witness
    direction = xp - y
    sel = box.support_argmin(direction)
    if not np.all(np.isfinite(sel)):
        # an unbounded ray makes the inner product arbitrarily negative
        return np.inf
    return float(np.max(-eps - row_dot(sel - xi, direction), initial=0.0))


def zero_residual(op: MonotoneOp, f, lam, x) -> float:
    """||x - Res^f_{lam A}(x)||; zero (to tolerance) exactly at zeros of A."""
    from .resolvent import _check_pairing, _zero_residual

    x = as_vector(x, op.dim)
    _check_pairing(f, op, lam)
    require_finite(f.gradient(x), "grad f(x)")
    return _zero_residual(f, op, lam, x)


CATALOG_SPECS = (
    "abs:w=1,shift=0        subdifferential of w ||. - shift||_1",
    "affine:diag=1,b=0      y -> diag(...) y + b (PSD)",
    "affine:m=2,1,1,2,b=0   y -> M y + b, M symmetric PSD given row-major",
    "box:-1,1               normal cone of the box [lower, upper]",
    "grad:logcosh:shift=0   gradient of w sum log cosh(. - shift)",
    "grad:quartic:shift=0   gradient of w sum (. - shift)^4 / 4",
    "grad:norm4:shift=0     gradient of w ||. - shift||^4 / 4",
    "scale:0.5:abs:w=1      positive rescaling of an inner operator",
    "sum:spec|spec          Minkowski sum of compatible operators, none a sum",
)


def parse_operator(spec: str, dim: int) -> MonotoneOp:
    """Build a catalog operator from a CLI string (see CATALOG_SPECS)."""
    spec = spec.strip()
    head, _, rest = spec.partition(":")
    head = head.lower()
    if head == "abs":
        kv = _parse_kv_list(rest) if rest else {}
        weight = kv.get("w", [1.0])[0]
        shift = kv.get("shift", [0.0])
        shift = np.full(dim, shift[0]) if len(shift) == 1 else np.asarray(shift)
        return SubdiffAbs(weight, shift, dim)
    if head == "affine":
        kv = _parse_kv_list(rest) if rest else {}
        b = kv.get("b", [0.0])
        b = np.full(dim, b[0]) if len(b) == 1 else np.asarray(b)
        return Affine(_parse_matrix(kv, dim, spec, diag=[1.0]), b)
    if head == "box":
        if ";" not in rest:
            parts = [float(v) for v in rest.split(",")]
            if len(parts) != 2:
                raise ValueError(f"box spec needs 'lo,hi' or 'lo,..;hi,..': {spec!r}")
            return NormalConeBox(parts[0], parts[1], dim)
        lower_s, _, upper_s = rest.partition(";")
        lower = [float(v) for v in lower_s.split(",")]
        upper = [float(v) for v in upper_s.split(",")]
        lower = lower * dim if len(lower) == 1 else lower
        upper = upper * dim if len(upper) == 1 else upper
        if len(lower) != dim or len(upper) != dim:
            raise DimensionMismatch(f"box bounds do not match dim {dim}: {spec!r}")
        return NormalConeBox(np.asarray(lower), np.asarray(upper))
    if head == "grad":
        profile, _, tail = rest.partition(":")
        kv = _parse_kv_list(tail) if tail else {}
        weight = kv.get("w", [1.0])[0]
        shift = kv.get("shift", [0.0])
        shift = np.full(dim, shift[0]) if len(shift) == 1 else np.asarray(shift)
        return GradientOfConvex(profile.strip().lower(), shift, dim, weight)
    if head == "scale":
        factor_s, _, inner = rest.partition(":")
        return Scaled(float(factor_s), parse_operator(inner, dim))
    if head == "sum":
        if "sum:" in rest.lower():  # the '|' grammar cannot nest
            raise ValueError(f"a sum term cannot itself hold a sum: {spec!r}")
        return OperatorSum([parse_operator(part, dim) for part in rest.split("|")])
    raise ValueError(f"unknown operator spec {spec!r}")
