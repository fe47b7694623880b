"""Protoresolvent evaluation and the inexact-inclusion machinery.

The protoresolvent w -> (grad f + lam A)^{-1}(w) is single-valued and globally
defined for every catalog pairing.  It is solved by a closed form, by damped
Newton, or, when f and A act coordinate by coordinate, by a multisection on
the ordered doubles, which strict monotonicity of grad f + lam A makes sound.
Each strategy, the residual certificate ||grad f(y) + lam xi_hat - w||, the
verification and the score forms take one vector or the rows of a (k, dim)
array (a row with the bits of the single-vector call), which is how a
radius-search level and a Holder certification are solved.
"""

from __future__ import annotations

from contextlib import suppress
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


#  separable strategy: multisection over the ordered doubles

_SIGN = np.uint64(1 << 63)
_MAGNITUDE = np.int64((1 << 63) - 1)
_MAX = np.finfo(float).max
# trial points per row and pass, shared among the coordinates, with at least 8
# parts per coordinate; a pass costs mostly its fixed numpy overhead at these
# sizes, and this split measured fastest over dims 1-64
_TRIALS = 128
_BLOCK = 64        # rows per multisection block, which bounds its arrays


def _key(x):
    """The order-preserving map of doubles onto uint64 (-0 just below +0):
    negative doubles flip their magnitude bits, then the sign bit flips."""
    bits = np.asarray(x, dtype=float).view(np.int64)
    return (bits ^ ((bits >> 63) & _MAGNITUDE)).view(np.uint64) ^ _SIGN


def _double(key):
    """The double of a key: the inverse of _key."""
    bits = (key ^ _SIGN).view(np.int64)
    return (bits ^ ((bits >> 63) & _MAGNITUDE)).view(np.float64)


def _solve_separable(f, op, lam, w):
    """Per coordinate, the least double y with grad f(y) + lam hi(A(y)) >= w:
    the solution when it is a double (a kink, a box face), else the next
    double above it.  Each coordinate keeps a key a strictly left of y and a
    key b at or right of it; a pass splits (a, b] into parts that depend on
    dim only, and the trial points left of y, a prefix by strict
    monotonicity, are counted.
    """
    rows = np.atleast_2d(w)
    dim = rows.shape[1]
    parts = max(8, _TRIALS // dim)
    j = np.arange(1, parts, dtype=np.uint64)[:, None]
    lo, hi = (np.clip(np.broadcast_to(bound, dim), -_MAX, _MAX) for bound in op.domain)
    y = np.empty_like(rows)
    for start in range(0, len(rows), _BLOCK):
        target = rows[start:start + _BLOCK, None]
        a = np.broadcast_to(_key(lo) - 1, (len(target), dim))  # never evaluated
        width = _key(hi) - a  # b = a + width
        passes, top = 0, int(width.max())  # a pass leaves at most ceil(width / parts)
        while top > 1:
            passes, top = passes + 1, -(-top // parts)
        # the probes span the whole double range, where f and A overflow
        with np.errstate(all="ignore"):
            for _ in range(passes):
                # trial k of the pass is a + k step + min(k, rem): k = 0 is a, k = parts is b
                step, rem = np.divmod(width, parts)
                trial = _double(a[:, None] + j * step[:, None] + np.minimum(j, rem[:, None]))
                t = trial.reshape(-1, dim)
                value = (f.gradient(t) + lam * op.value_box(t).hi).reshape(trial.shape)
                count = np.count_nonzero(value < target, axis=1).astype(np.uint64)
                a = a + count * step + np.minimum(count, rem)
                width = step + (count < rem)
        y[start:start + _BLOCK] = _double(a + width) + 0.0  # + 0.0 turns -0 into 0
    return y if np.ndim(w) == 2 else y[0]


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
    return _certify(f, op, lam, w, _solver(f, op, lam)(w))[0]


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

    if not f.separable:
        return None
    abs_form = op.as_subdiff_abs()
    if abs_form is not None:
        weight, shift = abs_form
        if isinstance(f, QuadraticForm) and f.is_identity:
            def soft_threshold(w):
                d = w - shift
                return shift + np.sign(d) * np.maximum(np.abs(d) - lam * weight, 0.0)
            return soft_threshold

        gs = f.gradient(shift)

        def shrink(w):
            # y = s while |w - grad f(s)| <= lam weight, else past the threshold crossed
            d = w - gs
            excess = np.abs(d) - lam * weight
            return np.where(excess <= 0.0, shift, f.grad_inverse(gs + np.sign(d) * excess))
        return shrink

    box = op.as_box()
    if box is not None:
        return lambda w: np.clip(f.grad_inverse(w), *box)
    return None


def _solver(f, op, lam):
    """w -> y, over one vector or the rows of a (k, dim) array, for the first
    strategy that fits the pairing; each row gets the bits of the
    single-vector call, and the caller certifies y.  Newton solves rows one
    at a time and leaves a row whose solve raises SolverError NaN, so that
    the row fails its certificate."""
    closed = _closed_form(f, op, lam)
    if closed is not None:
        return closed

    if isinstance(f, QuadraticForm) and f.is_identity and op.smooth_gradient() is not None:
        def newton(w):
            if w.ndim == 1:
                return _solve_newton(f, op, lam, w)
            y = np.full_like(w, np.nan)
            for j, row in enumerate(w):
                with suppress(SolverError):
                    y[j] = _solve_newton(f, op, lam, row)
            return y
        return newton

    if f.separable and op.separable:
        return lambda w: _solve_separable(f, op, lam, w)

    raise NoStrategy(
        f"no solver strategy for f={f.spec_string()} with A={op.spec_string()} in dim {f.dim}"
    )


def solve_inclusion(inst: InclusionInstance) -> InclusionSolution:
    """Unique (y, xi): y from the shifted protoresolvent, xi reconstructed exactly."""
    return _solve(inst.f, inst.op, inst.lam, inst.eta, inst.f.gradient(inst.x))


def _solve(f, op, lam, eta, gx):
    w = lam * eta + gx  # gx = grad f(x)
    y, residual = _certify(f, op, lam, w, _solver(f, op, lam)(w))
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
    exponent = 1.0 / (rho - 1.0)
    # one row per w, pair-major: the stream order of drawing w1 then w2 per pair
    w = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(samples, 2, f.dim))
    rows = w.reshape(-1, f.dim)
    y, certified = _certified_rows(_solver(f, op, lam), f, op, lam, rows)
    if not certified.all():
        _protoresolvent(f, op, lam, rows[np.argmin(certified)])  # raises that row's error
    y = y.reshape(w.shape)
    bound = (row_norm(w[:, 0] - w[:, 1]) / beta) ** exponent + 1e-8
    gap = row_norm(y[:, 0] - y[:, 1]) - bound
    violations = int(np.sum(gap > 0.0))
    return {
        "samples": samples,
        "violations": violations,
        "max_violation": float(np.max(gap, initial=-np.inf)),
        "exponent": exponent,
        "passed": violations == 0,
    }


def _certified_rows(solve, f, op, lam, w):
    """y = solve(w) for each row of w, clamped to the domain, and the mask of
    the rows whose residual certificate holds."""
    y, box, residual, bound = _certificate(f, op, lam, w, solve(w))
    return y, ~box.empty & (residual <= bound)


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
    solve = _solver(f, op, lam)

    def level_passes(r):
        # rows are direction-major, magnitude-minor: the probe order
        eta = ((scales * r)[None, :, None] * directions[:, None, :]).reshape(-1, f.dim)
        w = lam * eta + gx
        y, certified = _certified_rows(solve, f, op, lam, w)
        xi = eta - (f.gradient(y) - gx) / lam
        ok = (certified & _verify(f, op, lam, eta, gx, y, xi).passed
              & (spec.phi(eta, xi, x, y) < spec.psi(eta, xi, x, y)))
        if ok.all():
            return True
        j = int(np.argmin(ok))  # the first failing row
        if not certified[j]:
            _protoresolvent(f, op, lam, w[j])  # raises this row's error
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
