"""Catalog of maximally monotone set-valued operators.

Values are never materialized as sets: every catalog kind evaluates to an
axis-aligned box (a product of closed intervals, possibly unbounded), which
makes membership distances, min/max selections and Minkowski sums of values
exact.  All interaction goes through residual oracles.  The value
oracle takes one vector or the rows of a (k, dim) array; a row gets the bits
of the single-vector call.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, EmptyOperatorValue
from .legendre import _parse_kv_list
from .numerics import as_vector, halton_points, row_dot, row_norm


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
        d = row_norm(xi - self.nearest(xi))
        return np.where(self.empty, np.inf, d) if np.ndim(d) else d

    def support_argmin(self, direction):
        """Minimizer of <v, direction> over the box; +-inf entries allowed."""
        return np.where(direction > 0.0, self.lo, np.where(direction < 0.0, self.hi, self.nearest(np.zeros_like(direction))))


class MonotoneOp:
    """Base class. Subclasses fill in value boxes and the structure the
    solvers route on.  The oracles take length-`dim` float vectors, or
    (k, dim) rows, and do not check them."""

    kind = "abstract"
    dim: int

    #  value oracle

    def value_box(self, y) -> ValueBox:
        """A(y) as a box, or one box per row of a (k, dim) array.  A single
        vector with an empty value raises EmptyOperatorValue; rows report
        empty values in the box's `empty` mask."""
        raise NotImplementedError

    def membership_residual(self, y, xi):
        """Exact distance from xi to A(y); raises if A(y) is empty (per row
        for rows, +inf on an empty row)."""
        return self.value_box(y).distance(xi)

    #  structure used by the inclusion solvers

    @property
    def separable(self) -> bool:
        return True

    @property
    def domain(self):
        """Per-coordinate bounds (lo, hi) of the admissible points, closed;
        scalars when every coordinate ranges over the whole line."""
        return (-np.inf, np.inf)

    def as_affine(self):
        """(M, b) when the operator is y -> M y + b, else None."""
        return None

    def as_subdiff_abs(self):
        """(weight, shift) when the operator is d(w ||. - s||_1), else None."""
        return None

    def as_box(self):
        """(lower, upper) when the operator is the normal cone of that box, else None."""
        return None

    def smooth_gradient(self):
        """(grad, hess) callables when the operator is a smooth convex gradient."""
        return None

    #  graph sampling

    def sample_graph(self, count, rng):
        """Random graph points (y, xi), y drawn from [-3, 3]^dim, for monotonicity audits."""
        pts = []
        while len(pts) < count:
            y = rng.uniform(-3.0, 3.0, size=self.dim)
            y = self._clamp_to_domain(y)
            box = self.value_box(y)
            xi = np.empty(self.dim)
            for i in range(self.dim):
                lo, hi = box.lo[i], box.hi[i]
                if np.isfinite(lo) and np.isfinite(hi):
                    xi[i] = rng.uniform(lo, hi) if hi > lo else lo
                elif np.isfinite(lo):
                    xi[i] = lo + rng.exponential(1.0)
                elif np.isfinite(hi):
                    xi[i] = hi - rng.exponential(1.0)
                else:
                    xi[i] = rng.standard_normal()
            pts.append((y, xi))
        return pts

    def _clamp_to_domain(self, y):
        lo, hi = self.domain
        return np.clip(np.asarray(y, dtype=float), lo, hi)

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

    def value_box(self, y):
        w = self.weight
        return ValueBox(np.where(y > self.shift, w, -w), np.where(y < self.shift, -w, w))

    def as_subdiff_abs(self):
        return (self.weight, self.shift)

    def spec_string(self):
        return f"abs:w={self.weight!r},shift=" + ",".join(repr(float(s)) for s in self.shift)


class Affine(MonotoneOp):
    """y -> M y + b for a symmetric positive semidefinite M (monotone)."""

    kind = "affine"

    def __init__(self, matrix, offset):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
        scale = max(np.linalg.norm(m), 1.0)
        if np.linalg.norm(m - m.T) > 1e-10 * scale:
            raise ValueError("affine operator matrix must be symmetric")
        m = 0.5 * (m + m.T)
        if np.min(np.linalg.eigvalsh(m)) < -1e-10 * scale:
            raise ValueError("affine operator matrix must be positive semidefinite")
        m.flags.writeable = False
        self.matrix = m
        self.offset = as_vector(offset, m.shape[0])
        self.dim = m.shape[0]
        self._separable = bool(np.count_nonzero(m - np.diag(np.diagonal(m))) == 0)

    def value_box(self, y):
        # one matrix-vector product per row, each with the single-vector bits
        v = (self.matrix @ np.asarray(y)[..., None])[..., 0] + self.offset
        return ValueBox(v, v)

    @property
    def separable(self):
        return self._separable

    def as_affine(self):
        return (self.matrix, self.offset)

    def spec_string(self):
        if not self.separable:
            return f"affine:dense[{self.dim}x{self.dim}]"
        d = np.diagonal(self.matrix)
        return ("affine:diag=" + ",".join(repr(float(v)) for v in d)
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

    def value_box(self, y):
        y = np.asarray(y)
        outside = (y < self.lower) | (y > self.upper)
        empty = outside.any(axis=-1)
        if y.ndim == 1 and empty:
            i = int(np.argmax(outside))
            raise EmptyOperatorValue(f"empty operator value: coordinate {i} = {y[i]} "
                                     f"outside [{self.lower[i]}, {self.upper[i]}]")
        lo = np.where(y == self.lower, -np.inf, 0.0)
        hi = np.where(y == self.upper, np.inf, 0.0)
        if empty.any():
            lo[empty] = hi[empty] = np.nan
        return ValueBox(lo, hi, empty)

    @property
    def domain(self):
        return (self.lower, self.upper)

    def as_box(self):
        return (self.lower, self.upper)

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

    def gradient(self, y):
        d = y - self.shift
        if self.profile == "logcosh":
            return self.weight * np.tanh(d)
        if self.profile == "quartic":
            return self.weight * d ** 3
        return self.weight * np.asarray(row_dot(d, d))[..., None] * d

    def hessian(self, y):
        d = y - self.shift
        if self.profile == "logcosh":
            return self.weight * np.diag(1.0 / np.cosh(d) ** 2)
        if self.profile == "quartic":
            return self.weight * np.diag(3.0 * d ** 2)
        return self.weight * (float(np.dot(d, d)) * np.eye(self.dim) + 2.0 * np.outer(d, d))

    def value_box(self, y):
        v = self.gradient(y)
        return ValueBox(v, v)

    @property
    def separable(self):
        return self.profile != "norm4" or self.dim == 1

    def smooth_gradient(self):
        return (self.gradient, self.hessian)

    def spec_string(self):
        return (f"grad:{self.profile}:w={self.weight!r},shift="
                + ",".join(repr(float(s)) for s in self.shift))


class Scaled(MonotoneOp):
    """(lam A)(y) = lam A(y) for lam > 0."""

    kind = "scaled"

    def __init__(self, lam, inner):
        if not 0.0 < lam < np.inf:
            raise ValueError("scaling factor must be positive")
        self.lam = float(lam)
        self.inner = inner
        self.dim = inner.dim

    def value_box(self, y):
        box = self.inner.value_box(y)
        return ValueBox(self.lam * box.lo, self.lam * box.hi, box.empty)

    @property
    def separable(self):
        return self.inner.separable

    @property
    def domain(self):
        return self.inner.domain

    def as_affine(self):
        base = self.inner.as_affine()
        if base is None:
            return None
        return (self.lam * base[0], self.lam * base[1])

    def as_subdiff_abs(self):
        base = self.inner.as_subdiff_abs()
        if base is None:
            return None
        return (self.lam * base[0], base[1])

    def as_box(self):
        return self.inner.as_box()  # a positive multiple of a normal cone is that cone

    def smooth_gradient(self):
        base = self.inner.smooth_gradient()
        if base is None:
            return None
        grad, hess = base
        return (lambda y: self.lam * grad(y), lambda y: self.lam * hess(y))

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
        self.terms = terms
        lo, hi = np.full(self.dim, -np.inf), np.full(self.dim, np.inf)
        for t in terms:
            tlo, thi = t.domain
            lo, hi = np.maximum(lo, tlo), np.minimum(hi, thi)
        self._domain = (lo, hi)

    def value_box(self, y):
        lo = np.zeros(self.dim)
        hi = np.zeros(self.dim)
        empty = False
        for term in self.terms:
            box = term.value_box(y)
            lo, hi, empty = lo + box.lo, hi + box.hi, empty | box.empty
        return ValueBox(lo, hi, empty)

    @property
    def separable(self):
        return all(t.separable for t in self.terms)

    @property
    def domain(self):
        return self._domain

    def as_affine(self):
        m = np.zeros((self.dim, self.dim))
        b = np.zeros(self.dim)
        for t in self.terms:
            base = t.as_affine()
            if base is None:
                return None
            m, b = m + base[0], b + base[1]
        return (m, b)

    def spec_string(self):
        return "sum:" + "|".join(t.spec_string() for t in self.terms)


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
    from .resolvent import protoresolvent

    x = as_vector(x, op.dim)
    y = protoresolvent(f, op, lam, f.gradient(x))
    return float(np.linalg.norm(x - y))


CATALOG_SPECS = (
    "abs:w=1,shift=0        subdifferential of w ||. - shift||_1",
    "affine:diag=1,b=0      y -> diag(...) y + b (PSD)",
    "box:-1,1               normal cone of the box [lower, upper]",
    "grad:logcosh:shift=0   gradient of w sum log cosh(. - shift)",
    "grad:quartic:shift=0   gradient of w sum (. - shift)^4 / 4",
    "grad:norm4:shift=0     gradient of w ||. - shift||^4 / 4",
    "scale:0.5:abs:w=1      positive rescaling of an inner operator",
    "sum:spec|spec          Minkowski sum of compatible operators",
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
        diag = kv.get("diag", [1.0])
        diag = diag * dim if len(diag) == 1 else diag
        b = kv.get("b", [0.0])
        b = np.full(dim, b[0]) if len(b) == 1 else np.asarray(b)
        if len(diag) != dim:
            raise DimensionMismatch(f"diag has {len(diag)} entries for dim {dim}")
        return Affine(np.diag(diag), b)
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
        return OperatorSum([parse_operator(part, dim) for part in rest.split("|")])
    raise ValueError(f"unknown operator spec {spec!r}")
