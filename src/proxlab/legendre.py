"""Catalog of fully Legendre functions.

Every entry is finite, differentiable and strictly convex on the whole space,
super-coercive, and ships a certified gradient inverse; the conjugate is
evaluated through the gradient inverse and cross-checked against closed forms
where the catalog has them.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .numerics import SpdMetric, as_vector, pairing, row_norm


class LegendreFn:
    """Base class: value/gradient/gradient-inverse plus conjugacy helpers.
    The methods take length-`dim` float vectors and do not check them;
    `gradient` and `grad_inverse` also take (k, dim) rows, one result per row.
    A row gets the bits of the single-vector call, except that the power
    kinds raise row norms to powers with numpy's array power, which can differ
    from the scalar power by an ulp."""

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

    # Coordinate interface used by the separable inclusion solver.
    @property
    def separable(self) -> bool:
        return self.dim == 1

    def coord_grad(self, i: int, t: float) -> float:
        if self.dim != 1:
            raise DimensionMismatch(f"{self.kind} has no coordinate-wise gradient")
        return float(self.gradient(np.array([t]))[0])

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
        return self.metric.solve(np.eye(self.dim))

    def closed_form_conjugate(self, u):
        return 0.5 * pairing(self.metric.solve(u), u)

    @property
    def is_identity(self) -> bool:
        return self.metric.is_identity

    @property
    def separable(self) -> bool:
        return self.metric.is_diagonal

    def coord_grad(self, i, t):
        return float(self.metric.matrix[i, i] * t)

    def spec_string(self):
        if self.is_identity:
            return "quadratic"
        if self.metric.is_diagonal:
            d = np.diagonal(self.metric.matrix)
            return "quadratic:diag=" + ",".join(repr(float(v)) for v in d)
        return f"quadratic:dense[{self.dim}x{self.dim}]"


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

    def coord_grad(self, i, t):
        return float(np.sinh(t))

    def spec_string(self):
        return "cosh"


class PowerEuclidean(LegendreFn):
    """f(x) = (1/rho) ||x||^rho with the Euclidean norm, rho > 1.

    Gradient ||x||^{rho-2} x extends continuously by 0 at the origin; the
    inverse is the radial rescaling u -> ||u||^{(2-rho)/(rho-1)} u.
    """

    kind = "power_euclidean"

    def __init__(self, rho, dim):
        if not 1.0 < rho < np.inf:
            raise ValueError("power exponent rho must exceed 1")
        self.rho = float(rho)
        self.dim = int(dim)

    def value(self, x) -> float:
        return float(np.linalg.norm(x) ** self.rho / self.rho)

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        return _radial(row_norm(x), self.rho - 2.0, x)

    def grad_inverse(self, u):
        u = np.asarray(u, dtype=float)
        return _radial(row_norm(u), (2.0 - self.rho) / (self.rho - 1.0), u)

    def conj_hessian(self, u):
        """n^(r-2) (I + (r-2) v v^T) with r = rho/(rho-1), n = ||u||, v = u/n;
        n is floored at the smallest normal float, so u = 0 gives a finite model."""
        r = self.rho / (self.rho - 1.0)
        n = max(float(np.linalg.norm(u)), _TINY)
        v = u / n
        return n ** (r - 2.0) * (np.eye(self.dim) + (r - 2.0) * np.outer(v, v))

    def closed_form_conjugate(self, u):
        rho_star = self.rho / (self.rho - 1.0)
        return float(np.linalg.norm(u) ** rho_star / rho_star)

    def coord_grad(self, i, t):
        if self.dim != 1:
            raise DimensionMismatch("power_euclidean is coordinate-wise only in 1-D")
        return float(np.sign(t) * abs(t) ** (self.rho - 1.0))

    def spec_string(self):
        return f"power:rho={self.rho!r}"


class PowerP(LegendreFn):
    """f(x) = (1/rho) ||x||_p^rho for the finite-dimensional p-norm, p, rho > 1.

    The gradient N^{rho-p} sign(x_i)|x_i|^{p-1} (N = ||x||_p) is continuous for
    p > 1 and vanishes at the origin; its inverse comes from the dual-norm
    identity ||grad f(x)||_q = N^{rho-1} with q = p/(p-1).
    """

    kind = "power_p"

    def __init__(self, p, rho, dim):
        if not (1.0 < p < np.inf and 1.0 < rho < np.inf):
            raise ValueError("power_p requires p > 1 and rho > 1")
        self.p = float(p)
        self.rho = float(rho)
        self.dim = int(dim)

    @staticmethod
    def _norm(x, p):
        """||x||_p over the last axis: a float for one vector, an array for rows."""
        s = np.sum(np.abs(x) ** p, axis=-1)
        return float(s ** (1.0 / p)) if s.ndim == 0 else s ** (1.0 / p)

    def value(self, x) -> float:
        return self._norm(x, self.p) ** self.rho / self.rho

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        return _radial(self._norm(x, self.p), self.rho - self.p, np.sign(x) * np.abs(x) ** (self.p - 1.0))

    def grad_inverse(self, u):
        u = np.asarray(u, dtype=float)
        q = self.p / (self.p - 1.0)
        # n = ||u||_q^(1/(rho-1)) enters as n^((p-rho)/(p-1))
        nq = self._norm(u, q)
        n = nq ** (1.0 / (self.rho - 1.0))
        return _radial(n, (self.p - self.rho) / (self.p - 1.0),
                       np.sign(u) * np.abs(u) ** (1.0 / (self.p - 1.0)), zero=nq)

    def conj_hessian(self, u):
        """N^(r-2) ((q-1) diag t^(q-2) + (r-q) s s^T) with q = p/(p-1),
        r = rho/(rho-1), N = ||u||_q, t = |u|/N, s = sign(u) t^(q-1); each |u_i|
        is floored at the smallest normal float, so a zero entry gives a finite
        model."""
        q = self.p / (self.p - 1.0)
        r = self.rho / (self.rho - 1.0)
        au = np.maximum(np.abs(u), _TINY)
        top = float(np.max(au))
        n = top * self._norm(au / top, q)  # ||au||_q without underflow
        t = au / n
        s = np.where(u < 0.0, -1.0, 1.0) * t ** (q - 1.0)
        return n ** (r - 2.0) * ((q - 1.0) * np.diag(t ** (q - 2.0)) + (r - q) * np.outer(s, s))

    def closed_form_conjugate(self, u):
        q = self.p / (self.p - 1.0)
        rho_star = self.rho / (self.rho - 1.0)
        return self._norm(u, q) ** rho_star / rho_star

    def coord_grad(self, i, t):
        if self.dim != 1:
            raise DimensionMismatch("power_p is coordinate-wise only in 1-D")
        return float(np.sign(t) * abs(t) ** (self.rho - 1.0))

    def spec_string(self):
        return f"powerp:p={self.p!r},rho={self.rho!r}"


_TINY = np.finfo(float).tiny


def _radial(n, exponent, v, zero=None):
    """n^exponent v for one vector (n a float) or for each row (n an array),
    and 0 where the norm `zero` (n itself by default) vanishes."""
    zero = n if zero is None else zero
    if np.ndim(n) == 0:
        return n ** exponent * v if zero != 0.0 else np.zeros_like(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((zero != 0.0)[:, None], (n ** exponent)[:, None] * v, 0.0)


def euclidean(dim) -> QuadraticForm:
    """The canonical f = (1/2)||.||^2."""
    return QuadraticForm(SpdMetric.identity(dim))


def bregman_distance(f: LegendreFn, y, x) -> float:
    """D_f(y, x) = f(y) - f(x) - <grad f(x), y - x>; >= 0 for catalog entries."""
    y = as_vector(y, f.dim)
    x = as_vector(x, f.dim)
    return f.value(y) - f.value(x) - pairing(f.gradient(x), y - x)


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
        if np.linalg.norm(a - b) < 1e-9:
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
            d /= np.linalg.norm(d)
            ratios = [f.value(t * d) / t for t in scales]
            increasing = all(r2 > r1 or np.isinf(r2) for r1, r2 in zip(ratios, ratios[1:]))
            unbounded = np.isinf(ratios[-1]) or ratios[-1] > 10.0 * max(abs(ratios[0]), 1e-12)
            if not (increasing and unbounded):
                coercive_fail += 1
    report["super_coercivity"] = {"failures": coercive_fail, "passed": coercive_fail == 0}

    if hasattr(f, "grad_inverse") and hasattr(f, "gradient"):
        worst = 0.0
        for _ in range(probe_budget):
            x = rng.uniform(-3.0, 3.0, size=dim)
            back = f.grad_inverse(f.gradient(x))
            worst = max(worst, float(np.linalg.norm(back - x) / (1.0 + np.linalg.norm(x))))
        report["grad_inverse_roundtrip"] = {"max_relative_residual": worst, "passed": worst <= 1e-8}
    else:
        report["grad_inverse_roundtrip"] = {"max_relative_residual": None, "passed": None}

    checks = [v["passed"] for v in report.values() if isinstance(v, dict) and v["passed"] is not None]
    report["all_passed"] = all(checks)
    return report


CATALOG_SPECS = (
    "quadratic            f(x) = ||x||^2 / 2",
    "quadratic:diag=2,3   f(x) = <diag(...) x, x> / 2",
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


def parse_legendre(spec: str, dim: int) -> LegendreFn:
    """Build a catalog entry from a CLI string such as 'cosh' or 'power:rho=4'."""
    head, _, rest = spec.partition(":")
    head = head.strip().lower()
    if head == "quadratic":
        if not rest:
            return QuadraticForm(SpdMetric.identity(dim))
        kv = _parse_kv_list(rest)
        if "diag" not in kv:
            raise ValueError(f"quadratic spec needs diag=...: {spec!r}")
        diag = kv["diag"]
        if len(diag) == 1:
            diag = diag * dim
        if len(diag) != dim:
            raise DimensionMismatch(f"diag has {len(diag)} entries for dim {dim}")
        return QuadraticForm(SpdMetric.diagonal(diag))
    if head == "cosh":
        return CoshSum(dim)
    if head == "power":
        kv = _parse_kv_list(rest)
        return PowerEuclidean(kv["rho"][0], dim)
    if head == "powerp":
        kv = _parse_kv_list(rest)
        return PowerP(kv["p"][0], kv["rho"][0], dim)
    raise ValueError(f"unknown Legendre spec {spec!r}")
