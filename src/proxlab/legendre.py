"""Catalog of fully Legendre functions.

Every entry is finite, differentiable and strictly convex on the whole space,
super-coercive, and ships a certified gradient inverse; the conjugate is
evaluated through the gradient inverse and cross-checked against closed forms
where the catalog has them.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch
from .numerics import MAX_DIM, SpdMetric, as_vector, pairing, residual_norm


class LegendreFn:
    """Base class: value/gradient/gradient-inverse plus conjugacy helpers.
    The methods take length-`dim` float vectors and do not check them;
    `gradient` and `grad_inverse` also take (k, dim) rows, one result per row,
    and a row gets the bits of the single-vector call."""

    kind = "abstract"
    dim: int

    def value(self, x) -> float:
        raise NotImplementedError

    def gradient(self, x):
        raise NotImplementedError

    def grad_inverse(self, u):
        raise NotImplementedError

    def conj_hessian(self, u):
        """The Hessian of f* at one vector u: the Jacobian of `grad_inverse`."""
        raise NotImplementedError

    def conjugate_value(self, u) -> float:
        """f*(u) = <u, (grad f)^{-1}(u)> - f((grad f)^{-1}(u))."""
        x = self.grad_inverse(u)
        return pairing(u, x) - self.value(x)

    def closed_form_conjugate(self, u):
        """Closed-form f*(u) when the catalog provides one, else None."""
        return None

    @property
    def separable(self) -> bool:
        """Whether coordinate i of grad f depends on x_i alone."""
        return self.dim == 1

    def spec_string(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.spec_string()} dim={self.dim}>"


class QuadraticForm(LegendreFn):
    """f(x) = (1/2) <M x, x> for an SPD metric M; grad f = M, grad f* = M^{-1}."""

    kind = "quadratic_form"

    def __init__(self, metric):
        self.metric = metric
        self.dim = metric.dim

    def value(self, x) -> float:
        return 0.5 * pairing(self.metric.apply(x), x)

    def gradient(self, x):
        return self.metric.apply(x)

    def grad_inverse(self, u):
        return self.metric.solve(u)

    def conj_hessian(self, u):
        return self.metric.inverse

    def closed_form_conjugate(self, u):
        return 0.5 * pairing(self.metric.solve(u), u)

    @property
    def is_identity(self) -> bool:
        return self.metric.is_identity

    @property
    def separable(self) -> bool:
        return self.metric.is_diagonal

    def spec_string(self):
        if self.is_identity:
            return "quadratic"
        if self.metric.is_diagonal:
            return "quadratic:diag=" + ",".join(repr(float(v)) for v in np.diagonal(self.metric.matrix))
        return "quadratic:m=" + ",".join(repr(float(v)) for v in self.metric.matrix.ravel())


class CoshSum(LegendreFn):
    """f(x) = sum_i cosh(x_i); f*(u) = sum_i (u_i asinh(u_i) - sqrt(1 + u_i^2))."""

    kind = "cosh_sum"
    separable = True

    def __init__(self, dim):
        self.dim = int(dim)

    def value(self, x) -> float:
        return float(np.sum(np.cosh(x)))

    def gradient(self, x):
        return np.sinh(x)

    def grad_inverse(self, u):
        return np.arcsinh(u)

    def conj_hessian(self, u):
        return np.diag(1.0 / np.hypot(1.0, u))

    def closed_form_conjugate(self, u):
        u = np.asarray(u, dtype=float)
        return float(np.sum(u * np.arcsinh(u) - np.sqrt(1.0 + u * u)))

    def spec_string(self):
        return "cosh"


class PowerP(LegendreFn):
    """f(x) = (1/rho) ||x||_p^rho for the finite-dimensional p-norm, p, rho > 1.

    The gradient N^{rho-1} sign(x_i)(|x_i|/N)^{p-1} (N = ||x||_p) is continuous
    for p > 1 and vanishes at the origin; its inverse comes from the dual-norm
    identity ||grad f(x)||_q = N^{rho-1} with q = p/(p-1).
    """

    kind = "power_p"

    def __init__(self, p, rho, dim):
        if not (1.0 < p < np.inf and 1.0 < rho < np.inf):
            raise ValueError("power_p requires p > 1 and rho > 1")
        self.p = float(p)
        self.rho = float(rho)
        self.dim = int(dim)

    def value(self, x) -> float:
        return float(_norm(x, self.p)[0] ** self.rho / self.rho)

    def gradient(self, x):
        return _radial(x, self.p, self.rho - 1.0)

    def grad_inverse(self, u):
        # ||x||_p = ||u||_q^(1/(rho-1)), and x / ||x||_p = sign(u)(|u| / ||u||_q)^(q-1)
        return _radial(u, self.p / (self.p - 1.0), 1.0 / (self.rho - 1.0))

    def conj_hessian(self, u):
        """N^(r-2) ((q-1) diag t^(q-2) + (r-q) s s^T) with q = p/(p-1),
        r = rho/(rho-1), N = ||u||_q, t = |u|/N, s = sign(u) t^(q-1); each |u_i|
        is floored at the smallest normal float, so a zero entry gives a finite
        model."""
        q = self.p / (self.p - 1.0)
        r = self.rho / (self.rho - 1.0)
        au = np.maximum(np.abs(u), _TINY)
        n = _norm(au, q)[0]
        t = au / n
        s = np.where(u < 0.0, -1.0, 1.0) * t ** (q - 1.0)
        return n ** (r - 2.0) * ((q - 1.0) * np.diag(t ** (q - 2.0)) + (r - q) * np.outer(s, s))

    def closed_form_conjugate(self, u):
        q = self.p / (self.p - 1.0)
        rho_star = self.rho / (self.rho - 1.0)
        return float(_norm(u, q)[0] ** rho_star / rho_star)

    def spec_string(self):
        return f"powerp:p={self.p!r},rho={self.rho!r}"


class PowerEuclidean(PowerP):
    """f(x) = (1/rho) ||x||^rho with the Euclidean norm, rho > 1: PowerP with
    p = 2, whose gradient ||x||^{rho-2} x is the radial rescaling with inverse
    u -> ||u||^{(2-rho)/(rho-1)} u."""

    kind = "power_euclidean"

    def __init__(self, rho, dim):
        super().__init__(2.0, rho, dim)

    def spec_string(self):
        return f"power:rho={self.rho!r}"


_TINY = np.finfo(float).tiny


def _norm(x, p):
    """||x||_p over the last axis, kept as an axis of length 1 (so that a
    vector and the rows of a stack go through the same array kernels) and
    free of overflow: by hypot for p = 2, else relative to max |x_i|."""
    ax = np.abs(x)
    if p == 2.0:
        return np.hypot.reduce(ax, axis=-1, keepdims=True)
    top = np.maximum.reduce(ax, axis=-1, keepdims=True)
    return top * np.add.reduce((ax / np.where(top > 0.0, top, 1.0)) ** p, axis=-1, keepdims=True) ** (1.0 / p)


def _radial(v, p, exponent):
    """N^exponent sign(v) (|v| / N)^(p-1) with N = ||v||_p, and 0 in each
    zero coordinate (where an overflowed N^exponent would give inf * 0): the
    power kinds' gradients and inverses, with no power that overflows or
    underflows before the result does."""
    v = np.asarray(v, dtype=float)
    n = _norm(v, p)
    nonzero = v != 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs(v) / n
        factor = ratio ** (p - 1.0)
        out = np.where(nonzero, n ** exponent * (np.sign(v) * factor), 0.0)
        # N^exponent (or N) overflowed before the entry did, or |v_i| / N or
        # its power (the smaller one, as |v_i| / N <= 1) fell below the normal
        # doubles, losing bits or all of them, where the entry may not: take
        # those entries in log form, with log N = log top + log ||v / top||_p
        small = (factor if p >= 2.0 else ratio) < _TINY
        bad = nonzero & (small | ~np.isfinite(out))
        if bad.any():
            top = np.maximum.reduce(np.abs(v), axis=-1, keepdims=True)
            log_n = np.broadcast_to(np.log(top) + np.log(_norm(v / top, p)), v.shape)[bad]
            log_v = np.log(np.abs(v[bad]))
            out[bad] = np.sign(v[bad]) * np.exp(exponent * log_n + (p - 1.0) * (log_v - log_n))
    return out


@lru_cache(maxsize=MAX_DIM)
def euclidean(dim) -> QuadraticForm:
    """The canonical f = (1/2)||.||^2: one shared instance per dimension,
    whose metric is read-only."""
    return QuadraticForm(SpdMetric.identity(dim))


def bregman_distance(f: LegendreFn, y, x) -> float:
    """D_f(y, x) = f(y) - f(x) - <grad f(x), y - x>; >= 0 for catalog entries."""
    y = as_vector(y, f.dim)
    x = as_vector(x, f.dim)
    return f.value(y) - f.value(x) - pairing(f.gradient(x), y - x)


def grad_inverse_residual(f, x) -> float:
    """||grad f*(grad f(x)) - x|| relative to 1 + ||x||: zero for a Legendre f."""
    return residual_norm(f.grad_inverse(f.gradient(x)) - x) / (1.0 + residual_norm(x))


def diagnostics(f, probe_budget=200, seed=0):
    """Sampling-based probes for the finite-dimensional characterization.

    Reports strict convexity on random segments, growth of f(tv)/t along random
    unit directions, and gradient-inverse round-trip residuals.  Advisory only:
    a pass is evidence, never a proof.
    """
    if probe_budget < 10:
        raise ValueError("probe_budget must be at least 10")
    rng = np.random.default_rng(seed)
    dim = f.dim
    report = {"kind": getattr(f, "kind", type(f).__name__), "dim": dim}

    strict_fail = 0
    for _ in range(probe_budget):
        a = rng.uniform(-3.0, 3.0, size=dim)
        b = rng.uniform(-3.0, 3.0, size=dim)
        if residual_norm(a - b) < 1e-9:
            continue
        mid = 0.5 * (a + b)
        if not f.value(mid) < 0.5 * (f.value(a) + f.value(b)) - 1e-14:
            strict_fail += 1
    report["strict_convexity"] = {"failures": strict_fail, "passed": strict_fail == 0}

    scales = (10.0, 1e2, 1e3, 1e4)
    coercive_fail = 0
    n_dirs = max(probe_budget // 10, 4)
    with np.errstate(over="ignore"):
        for _ in range(n_dirs):
            d = rng.standard_normal(dim)
            d /= residual_norm(d)
            ratios = [f.value(t * d) / t for t in scales]
            increasing = all(r2 > r1 or np.isinf(r2) for r1, r2 in zip(ratios, ratios[1:]))
            unbounded = np.isinf(ratios[-1]) or ratios[-1] > 10.0 * max(abs(ratios[0]), 1e-12)
            if not (increasing and unbounded):
                coercive_fail += 1
    report["super_coercivity"] = {"failures": coercive_fail, "passed": coercive_fail == 0}

    if hasattr(f, "grad_inverse") and hasattr(f, "gradient"):
        worst = 0.0
        for _ in range(probe_budget):
            worst = max(worst, grad_inverse_residual(f, rng.uniform(-3.0, 3.0, size=dim)))
        report["grad_inverse_roundtrip"] = {"max_relative_residual": worst, "passed": worst <= 1e-8}
    else:
        report["grad_inverse_roundtrip"] = {"max_relative_residual": None, "passed": None}

    checks = [v["passed"] for v in report.values() if isinstance(v, dict) and v["passed"] is not None]
    report["all_passed"] = all(checks)
    return report


CATALOG_SPECS = (
    "quadratic            f(x) = ||x||^2 / 2",
    "quadratic:diag=2,3   f(x) = <diag(...) x, x> / 2",
    "quadratic:m=2,1,1,2  f(x) = <M x, x> / 2, M SPD given row-major",
    "cosh                 f(x) = sum_i cosh(x_i)",
    "power:rho=4          f(x) = ||x||^rho / rho (Euclidean norm)",
    "powerp:p=4,rho=4     f(x) = ||x||_p^rho / rho",
)


def _parse_kv_list(segment):
    """Parse 'k=1,2,k2=3' into {k: [1,2], k2: [3]}; bare tokens extend the last key."""
    out = {}
    current = None
    for token in segment.split(","):
        token = token.strip()
        if not token:
            continue
        if "=" in token:
            current, head = token.split("=", 1)
            current = current.strip()
            out[current] = [float(head)]
        else:
            if current is None:
                raise ValueError(f"value {token!r} appears before any key")
            out[current].append(float(token))
    return out


def _parse_matrix(kv, dim, spec, diag=None):
    """The matrix of a parsed spec: from m= (dim^2 entries, row-major) or from
    diag= (one entry broadcasts), with `diag` standing in when it has neither."""
    given = ("diag" in kv) + ("m" in kv)
    if given > 1 or given == 0 and diag is None:
        raise ValueError(f"spec needs diag=... or m=..., not both: {spec!r}")
    if "m" in kv:
        if len(kv["m"]) != dim * dim:
            raise DimensionMismatch(f"m has {len(kv['m'])} entries for dim {dim}; it needs {dim * dim}")
        return np.reshape(kv["m"], (dim, dim))
    diag = kv.get("diag", diag)
    diag = diag * dim if len(diag) == 1 else diag
    if len(diag) != dim:
        raise DimensionMismatch(f"diag has {len(diag)} entries for dim {dim}")
    return np.diag(diag)


def parse_legendre(spec: str, dim: int) -> LegendreFn:
    """Build a catalog entry from a CLI string such as 'cosh' or 'power:rho=4'."""
    head, _, rest = spec.partition(":")
    head = head.strip().lower()
    if head == "quadratic":
        if not rest:
            return euclidean(dim)
        return QuadraticForm(SpdMetric(_parse_matrix(_parse_kv_list(rest), dim, spec)))
    if head == "cosh":
        return CoshSum(dim)
    if head == "power":
        kv = _parse_kv_list(rest)
        return PowerEuclidean(kv["rho"][0], dim)
    if head == "powerp":
        kv = _parse_kv_list(rest)
        return PowerP(kv["p"][0], kv["rho"][0], dim)
    raise ValueError(f"unknown Legendre spec {spec!r}")
