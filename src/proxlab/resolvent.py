"""Protoresolvent evaluation and the inexact-inclusion machinery.

The protoresolvent w -> (grad f + lam A)^{-1}(w) is single-valued and globally
defined for every catalog pairing; strict monotonicity of grad f + lam A makes
monotone bracketing sound, which is what the generic 1-D strategy relies on.
Every strategy certifies its output against the residual
||grad f(y) + lam xi_hat - w|| before returning.  The closed forms, the
certificate, the verification and the score forms also run over the rows of
a (k, dim) array, which is how a radius-search level is solved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyOperatorValue, NoStrategy, SolverError, StrongImplicitnessFailure
from .legendre import LegendreFn, QuadraticForm
from .numerics import as_vector, require_finite, row_norm, unit_directions
from .operators import MonotoneOp

INNER_RTOL = 1e-10     # certificate and linear-verification bound, relative to 1 + norm
MEMBERSHIP_TOL = 1e-8  # verification bound on the distance of xi to A(y)


@dataclass(frozen=True)
class InclusionInstance:
    """Data (f, A, lam, x, eta) of the inexact resolvent inclusion problem."""

    f: LegendreFn
    op: MonotoneOp
    lam: float
    x: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        _check_pairing(self.f, self.op, self.lam)
        object.__setattr__(self, "x", as_vector(self.x, self.f.dim))
        object.__setattr__(self, "eta", as_vector(self.eta, self.f.dim))
        require_finite(self.lam * self.eta + self.f.gradient(self.x), "lam eta + grad f(x)")


def _check_pairing(f, op, lam):
    if not 0.0 < lam < np.inf:
        raise ValueError("lam must be positive and finite")
    if op.dim != f.dim:
        raise ValueError(f"operator dim {op.dim} != function dim {f.dim}")


@dataclass(frozen=True)
class InclusionSolution:
    y: np.ndarray
    xi: np.ndarray
    inner_residual: float


@dataclass(frozen=True)
class VerificationReport:
    membership_residual: float
    linear_residual: float
    membership_pass: bool
    linear_pass: bool

    @property
    def passed(self):
        return self.membership_pass & self.linear_pass


#  scalar strategy: kink candidates + monotone bisection

def _coord_residual(f, op, i, lam, w, t):
    """Residual of the scalar inclusion at t, with the best selection from A."""
    g = f.coord_grad(i, t)
    lo, hi = op.coord_box(i, t)
    a = min(max((w - g) / lam, lo), hi)
    return g + lam * a - w


def _solve_coord(f, op, i, lam, w, dlo, dhi):
    # candidate kinks and finite domain endpoints, tested exactly
    candidates = set(op.coord_kinks(i))
    for e in (dlo, dhi):
        if np.isfinite(e):
            candidates.add(e)
    best, best_res = None, np.inf
    for k in sorted(candidates):
        if k < dlo or k > dhi:
            continue
        r = abs(_coord_residual(f, op, i, lam, w, k))
        if r < best_res:
            best, best_res = k, r
    if best is not None and best_res <= 1e-12 * (1.0 + abs(w)):
        return best

    # bracket [a, b] with the solution strictly inside; the lo selection at the
    # left end and the hi selection at the right end give valid signs, and the
    # expansion terminates because grad f is super-coercive
    def g_lo(t):
        lo, _ = op.coord_box(i, t)
        return f.coord_grad(i, t) + lam * lo - w

    def g_hi(t):
        _, hi = op.coord_box(i, t)
        return f.coord_grad(i, t) + lam * hi - w

    center = 0.0
    if np.isfinite(dlo) and np.isfinite(dhi):
        center = 0.5 * (dlo + dhi)
    elif np.isfinite(dlo):
        center = dlo + 1.0
    elif np.isfinite(dhi):
        center = dhi - 1.0
    radius = 1.0
    a = max(center - radius, dlo)
    b = min(center + radius, dhi)
    for _ in range(200):
        left_ok = a == dlo or g_lo(a) <= 0.0
        right_ok = b == dhi or g_hi(b) >= 0.0
        if left_ok and right_ok:
            break
        radius *= 2.0
        a = max(center - radius, dlo)
        b = min(center + radius, dhi)
    else:
        raise SolverError("bracket expansion failed for the scalar inclusion", residual=np.inf)

    for _ in range(200):
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            break
        lo, hi = op.coord_box(i, m)
        g = f.coord_grad(i, m)
        if g + lam * hi < w:
            a = m
        elif g + lam * lo > w:
            b = m
        else:
            return m
        if b - a <= 4.0 * np.finfo(float).eps * max(1.0, abs(a), abs(b)):
            break

    # sweep the final bracket plus any kink caught inside it
    finals = {a, b, 0.5 * (a + b)}
    pad = 8.0 * (b - a) + 1e-30
    for k in candidates:
        if a - pad <= k <= b + pad and dlo <= k <= dhi:
            finals.add(k)
    return min(finals, key=lambda t: abs(_coord_residual(f, op, i, lam, w, t)))


def _solve_separable(f, op, lam, w):
    dlo, dhi = (np.full(f.dim, bound) if np.ndim(bound) == 0 else bound for bound in op.domain)
    return np.array([_solve_coord(f, op, i, lam, w[i], dlo[i], dhi[i]) for i in range(f.dim)])


def _solve_newton(f, op, lam, w):
    """Damped Newton for y + lam gradF(y) = w (f is the identity quadratic)."""
    grad, hess = op.smooth_gradient()
    y = np.array(w, dtype=float)
    target = max(1e-14, 0.01 * INNER_RTOL) * (1.0 + float(np.linalg.norm(w)))
    g = y + lam * grad(y) - w
    for _ in range(120):
        gn = float(np.linalg.norm(g))
        if gn <= target:
            return y
        jac = np.eye(f.dim) + lam * hess(y)
        step = np.linalg.solve(jac, -g)
        t = 1.0
        while t > 1e-12:
            cand = y + t * step
            gc = cand + lam * grad(cand) - w
            if float(np.linalg.norm(gc)) <= (1.0 - 0.25 * t) * gn:
                y, g = cand, gc
                break
            t *= 0.5
        else:
            raise SolverError("Newton line search stalled", residual=gn)
    raise SolverError("Newton did not converge", residual=float(np.linalg.norm(g)))


def _certificate(f, op, lam, w, y):
    """y clamped to the domain, its value box, the residual
    ||grad f(y) + lam xi_hat - w|| (xi_hat the selection nearest
    (w - grad f(y)) / lam) and the bound it must meet; per row for rows."""
    y = op._clamp_to_domain(y)
    box = op.value_box(y)
    gy = f.gradient(y)
    residual = row_norm(gy + lam * box.nearest((w - gy) / lam) - w)
    return y, box, residual, INNER_RTOL * (1.0 + row_norm(w))


def _certify(f, op, lam, w, y):
    """(y, residual) for one vector, or SolverError if the certificate fails."""
    try:
        y, _, residual, bound = _certificate(f, op, lam, w, y)
    except EmptyOperatorValue as exc:
        raise SolverError(f"solution left the operator domain: {exc}", residual=np.inf)
    if not residual <= bound:
        raise SolverError(
            f"protoresolvent certificate failed: residual {residual:.3e} > {bound:.3e}",
            residual=residual,
        )
    return y, residual


def protoresolvent(f: LegendreFn, op: MonotoneOp, lam: float, w):
    """The unique y with w in grad f(y) + lam A(y), certified by residual."""
    _check_pairing(f, op, lam)
    return _protoresolvent(f, op, lam, as_vector(w, f.dim))


def _protoresolvent(f, op, lam, w):
    return _certify(f, op, lam, w, _strategy(f, op, lam, w))[0]


def _closed_form(f, op, lam):
    """w -> y for the closed-form pairings, over one vector or the rows of a
    (k, dim) array (each row with the bits of the single-vector call); None
    for the other pairings."""
    affine = op.as_affine()
    if affine is not None:
        m, b = affine
        if isinstance(f, QuadraticForm):
            a = f.metric.matrix + lam * m
            # a stacked solve: one LAPACK call, and per row the single-vector bits
            return lambda w: np.linalg.solve(a, (w - lam * b)[..., None])[..., 0]
        if not np.any(m):
            # constant operator: reduces to the gradient inverse
            return lambda w: f.grad_inverse(w - lam * b)

    if isinstance(f, QuadraticForm) and f.is_identity:
        abs_form = op.as_subdiff_abs()
        if abs_form is not None:
            weight, shift = abs_form

            def soft_threshold(w):
                d = w - shift
                return shift + np.sign(d) * np.maximum(np.abs(d) - lam * weight, 0.0)
            return soft_threshold
    return None


def _strategy(f, op, lam, w):
    """The first strategy that fits the pairing; its y is certified by the caller."""
    closed = _closed_form(f, op, lam)
    if closed is not None:
        return closed(w)

    if isinstance(f, QuadraticForm) and f.is_identity and op.smooth_gradient() is not None:
        return _solve_newton(f, op, lam, w)

    if f.separable and op.separable:
        return _solve_separable(f, op, lam, w)

    raise NoStrategy(
        f"no solver strategy for f={f.spec_string()} with A={op.spec_string()} in dim {f.dim}"
    )


def _strategy_rows(f, op, lam):
    """w -> (y, errors) over the rows of a (k, dim) array.  The closed forms
    take all rows in one pass; any other pairing solves row by row through
    _strategy, and a row whose solve raises SolverError is left NaN with its
    error kept under the row index."""
    closed = _closed_form(f, op, lam)
    if closed is not None:
        return lambda w: (closed(w), {})

    def by_row(w):
        y, errors = np.empty_like(w), {}
        for j, row in enumerate(w):
            try:
                y[j] = _strategy(f, op, lam, row)
            except SolverError as exc:
                y[j], errors[j] = np.nan, exc
        return y, errors
    return by_row


def solve_inclusion(inst: InclusionInstance) -> InclusionSolution:
    """Unique (y, xi): y from the shifted protoresolvent, xi reconstructed exactly."""
    return _solve(inst.f, inst.op, inst.lam, inst.eta, inst.f.gradient(inst.x))


def _solve(f, op, lam, eta, gx):
    w = lam * eta + gx  # gx = grad f(x)
    y, residual = _certify(f, op, lam, w, _strategy(f, op, lam, w))
    xi = eta - (f.gradient(y) - gx) / lam
    return InclusionSolution(y=y, xi=xi, inner_residual=residual)


def verify_solution(inst: InclusionInstance, y, xi) -> VerificationReport:
    """Report-only check of the two defining conditions of a candidate pair."""
    return _verify(inst.f, inst.op, inst.lam, inst.eta, inst.f.gradient(inst.x),
                   as_vector(y, inst.f.dim), as_vector(xi, inst.f.dim))


def _verify(f, op, lam, eta, gx, y, xi):
    """The report for one candidate, or a report of per-row arrays for rows."""
    try:
        membership = op.membership_residual(y, xi)
    except EmptyOperatorValue:
        membership = np.inf
    linear = row_norm(eta - xi - (f.gradient(y) - gx) / lam)
    return VerificationReport(
        membership_residual=membership,
        linear_residual=linear,
        membership_pass=membership <= MEMBERSHIP_TOL,
        linear_pass=linear <= INNER_RTOL * (1.0 + row_norm(eta)),
    )


def holder_certify(f, op, lam, rho, beta, samples=10_000, seed=0):
    """Sample the protoresolvent at pairs w drawn from [-3, 3]^dim against the
    Holder bound with exponent 1/(rho-1).

    The caller asserts that grad f is uniformly monotone of power type rho with
    constant beta; the certified bound is free of lam.
    """
    _check_pairing(f, op, lam)
    rng = np.random.default_rng(seed)
    exponent = 1.0 / (rho - 1.0)
    violations, max_violation = 0, -np.inf
    for _ in range(samples):
        w1 = rng.uniform(-3.0, 3.0, size=f.dim)
        w2 = rng.uniform(-3.0, 3.0, size=f.dim)
        y1 = _protoresolvent(f, op, lam, w1)
        y2 = _protoresolvent(f, op, lam, w2)
        bound = (float(np.linalg.norm(w1 - w2)) / beta) ** exponent + 1e-8
        gap = float(np.linalg.norm(y1 - y2)) - bound
        max_violation = max(max_violation, gap)
        if gap > 0.0:
            violations += 1
    return {
        "samples": samples,
        "violations": violations,
        "max_violation": max_violation,
        "exponent": exponent,
        "passed": violations == 0,
    }


#  strongly implicit score forms

@dataclass(frozen=True)
class StronglyImplicitSpec:
    """A (Phi, Psi) pair from the closed catalog of score forms.  Both take
    (eta, xi, x, y) and reduce over the last axis, so they score one
    candidate or every row of a level at once."""

    phi: callable
    psi: callable
    label: str


def ss_form(sigma, mu) -> StronglyImplicitSpec:
    """Phi = ||eta||, Psi = sigma max{||xi||, mu ||y - x||}."""
    return StronglyImplicitSpec(
        phi=lambda eta, xi, x, y: row_norm(eta),
        psi=lambda eta, xi, x, y: sigma * np.maximum(row_norm(xi), mu * row_norm(y - x)),
        label=f"ss(sigma={sigma},mu={mu})",
    )


def ips_form(nu, lam) -> StronglyImplicitSpec:
    """Phi = lam ||eta|| (the scheme-side error norm), Psi = nu ||y - x||."""
    return StronglyImplicitSpec(
        phi=lambda eta, xi, x, y: lam * row_norm(eta),
        psi=lambda eta, xi, x, y: nu * row_norm(y - x),
        label=f"ips(nu={nu},lam={lam})",
    )


def pls_form(sigma, c, metric) -> StronglyImplicitSpec:
    """Squared metric-norm form; the scheme-side error is c M xi + (y - x)."""

    def phi(eta, xi, x, y):
        return metric.inv_norm(c * metric.apply(xi) + (y - x)) ** 2

    def psi(eta, xi, x, y):
        return sigma ** 2 * (metric.inv_norm(c * metric.apply(xi)) ** 2 + metric.inv_norm(y - x) ** 2)

    return StronglyImplicitSpec(phi=phi, psi=psi, label=f"pls(sigma={sigma},c={c})")


DEFAULT_MAGNITUDES = (0.999, 0.75, 0.5, 0.25, 0.05)


def radius_search(f, op, lam, x, spec: StronglyImplicitSpec, probes=64, halving_depth=40,
                  refine_depth=24, magnitudes=DEFAULT_MAGNITUDES, seed=0):
    """Largest sampled radius r such that every probed eta with ||eta|| < r
    solves the inclusion system with Phi < Psi strictly.

    Certified by sampling only: the halving schedule from 1 + ||x|| finds the
    first passing level and a bisection sharpens the pass/fail boundary.  Each
    level solves, certifies, verifies and scores its probes x magnitudes rows
    in one batched pass and fails at its first failing row in probe order; if that row failed
    its certificate, the row's SolverError is raised.  Returns 0.0 when the
    budget is exhausted without a passing level.  In more than one
    dimension the probed directions cannot cover the sphere, so the result may
    overestimate the true uniform radius; probes are drawn over the whole
    space (no smaller open neighbourhood is modelled).
    """
    _check_pairing(f, op, lam)
    x = as_vector(x, f.dim)
    if probes < 1:
        raise ValueError("probes must be at least 1")
    if not magnitudes or not all(0.0 < m <= 1.0 for m in magnitudes):
        raise ValueError("magnitudes must be a non-empty sequence in (0, 1]")
    gx = require_finite(f.gradient(x), "grad f(x)")

    y0 = _protoresolvent(f, op, lam, gx)
    xi0 = -(f.gradient(y0) - gx) / lam
    zero = np.zeros(f.dim)
    theta0 = spec.psi(zero, xi0, x, y0) - spec.phi(zero, xi0, x, y0)
    if not theta0 > 0.0:
        raise StrongImplicitnessFailure(
            f"strong implicitness fails at 0: psi(0) - phi(0) = {theta0:.3e}"
        )

    directions = np.array(unit_directions(probes, f.dim, seed))
    scales = np.asarray(magnitudes, dtype=float)
    solve_rows = _strategy_rows(f, op, lam)

    def level_passes(r):
        # rows are direction-major, magnitude-minor: the probe order
        eta = ((scales * r)[None, :, None] * directions[:, None, :]).reshape(-1, f.dim)
        w = lam * eta + gx
        y, errors = solve_rows(w)
        y, box, residual, bound = _certificate(f, op, lam, w, y)
        certified = ~box.empty & (residual <= bound)
        xi = eta - (f.gradient(y) - gx) / lam
        ok = (certified & _verify(f, op, lam, eta, gx, y, xi).passed
              & (spec.phi(eta, xi, x, y) < spec.psi(eta, xi, x, y)))
        if ok.all():
            return True
        j = int(np.argmin(ok))  # the first failing row
        if not certified[j]:
            if j in errors:
                raise errors[j]
            _certify(f, op, lam, w[j], y[j])  # raises this row's certificate error
        return False

    r = 1.0 + float(np.linalg.norm(x))
    level = 0
    while level < halving_depth and not level_passes(r):
        r *= 0.5
        level += 1
    if level == halving_depth:
        return 0.0
    if level == 0:
        return r

    lo, hi = r, 2.0 * r
    for _ in range(refine_depth):
        mid = 0.5 * (lo + hi)
        if level_passes(mid):
            lo = mid
        else:
            hi = mid
    return lo
