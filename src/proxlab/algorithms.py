"""Iteration drivers for the five inexact proximal schemes.

Each per-step operation computes its iterate through the closed forms of the
inclusion machinery, re-checks the scheme's own acceptance condition on the
supplied perturbation (Reject), and detects the scheme's stop clause
(Terminate).  One run loop drives all five schemes through small per-scheme
adapters.  It draws the perturbation (scaled by the sampled acceptance radius
under the radius_fraction policy), halves draws that violate a relative
condition up to 59 times and then replaces them by zero, which is always
accepted, takes the step and records one row per step.  When a closed form
solves the step's inclusion, the halvings are scored as the rows of one or
two batched passes, each row with the bits of its single step, so the trace
does not depend on the batching.  A Terminate step is recorded as a step to
y: only the stop residual at the new iterate ends a run as converged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, DimensionMismatch, InfeasibleProjection, SolverError,
                     StrongImplicitnessFailure, UpdateUndefined)
from .legendre import LegendreFn, QuadraticForm, euclidean
from .numerics import (SpdMetric, _unit_normal, as_vector, pairing, random_spd_matrix,
                       require_finite, residual_norm)
from .operators import MonotoneOp
from .resolvent import (_certified_rows, _certify, _check_pairing, _protoresolvent, _route, _solve,
                        _zero_residual, ips_form, pls_form, protoresolvent, radius_search, ss_form)

SCHEMES = ("eckstein", "ss", "ips", "pls", "rs")


#  schedules and perturbation policies

@dataclass(frozen=True)
class Schedule:
    """Strictly positive step-parameter sequence."""

    kind: str
    value: float = 1.0
    c: float = 1.0
    q: float = 1.0

    def __post_init__(self):
        if self.kind == "constant":
            if not 0.0 < self.value < np.inf:
                raise ConfigError("constant schedule needs value > 0")
        elif self.kind == "geometric":
            if not (0.0 < self.c < np.inf and 0.0 < self.q < np.inf):
                raise ConfigError("geometric schedule needs c > 0 and q > 0")
        else:
            raise ConfigError(f"unknown schedule kind {self.kind!r}")

    @classmethod
    def constant(cls, value):
        return cls(kind="constant", value=float(value))

    @classmethod
    def geometric(cls, c, q):
        return cls(kind="geometric", c=float(c), q=float(q))

    def at(self, n: int) -> float:
        if self.kind == "constant":
            return self.value
        return self.c * self.q ** n


@dataclass(frozen=True)
class MetricSchedule:
    """Per-iteration SPD metric source for the variable-metric scheme."""

    kind: str = "identity"
    eig_lo: float = 0.5
    eig_hi: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("identity", "random_spd"):
            raise ConfigError(f"unknown metric schedule kind {self.kind!r}")
        if not 0.0 < self.eig_lo <= self.eig_hi < np.inf:
            raise ConfigError("metric schedule needs 0 < eig_min <= eig_max")

    def at(self, n: int, dim: int) -> SpdMetric:
        if self.kind == "identity":
            return euclidean(dim).metric
        rng = np.random.default_rng([self.seed, 7, n])
        return SpdMetric(random_spd_matrix(dim, self.eig_lo, self.eig_hi, rng))


@dataclass(frozen=True)
class PerturbationPolicy:
    """How error vectors are drawn: magnitude law plus a seeded direction stream."""

    kind: str
    c: float = 0.0
    q: float = 0.5
    fraction: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("zero", "summable_geometric", "constant_norm", "radius_fraction"):
            raise ConfigError(f"unknown policy kind {self.kind!r}")
        if self.kind == "summable_geometric" and not (0.0 < self.q < 1.0):
            raise ConfigError("summable_geometric needs q in (0, 1)")
        if self.kind == "radius_fraction" and not (0.0 < self.fraction < 1.0):
            raise ConfigError("radius_fraction needs fraction in (0, 1)")
        if not 0.0 <= self.c < np.inf:
            raise ConfigError("perturbation magnitude c must be nonnegative")

    @classmethod
    def zero(cls):
        return cls(kind="zero")

    @classmethod
    def summable_geometric(cls, c, q, seed=0):
        return cls(kind="summable_geometric", c=float(c), q=float(q), seed=seed)

    @classmethod
    def constant_norm(cls, c, seed=0):
        return cls(kind="constant_norm", c=float(c), seed=seed)

    @classmethod
    def radius_fraction(cls, fraction, seed=0):
        return cls(kind="radius_fraction", fraction=float(fraction), seed=seed)

    @property
    def needs_radius(self) -> bool:
        return self.kind == "radius_fraction"

    def magnitude(self, n: int, radius=None) -> float:
        if self.kind == "zero":
            return 0.0
        if self.kind == "summable_geometric":
            return self.c * self.q ** n
        if self.kind == "constant_norm":
            return self.c
        return self.fraction * (radius or 0.0)

    def direction(self, n: int, dim: int, stream: int = 0):
        rng = np.random.default_rng([self.seed, stream, n])
        if dim == 1:
            return np.array([1.0 if rng.random() < 0.5 else -1.0])
        return _unit_normal(rng, dim)

    def draw(self, n: int, dim: int, stream: int = 0, radius=None):
        mag = self.magnitude(n, radius=radius)
        if mag == 0.0:
            return np.zeros(dim)
        return mag * self.direction(n, dim, stream=stream)


#  trace containers

@dataclass
class TraceRecord:
    n: int
    x: np.ndarray
    zero_residual: float
    y: np.ndarray | None = None
    xi: np.ndarray | None = None
    eta: np.ndarray | None = None
    step_param: float = 0.0
    note: str = ""
    extra: dict = field(default_factory=dict)

    @property
    def eta_norm(self) -> float:
        return 0.0 if self.eta is None else residual_norm(self.eta)


@dataclass
class IterateTrace:
    scheme: str
    records: list
    termination_reason: str = "max_iters"
    converged: bool = False
    partial_sums: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def iterations(self) -> int:
        return len(self.records) - 1

    @property
    def final_x(self):
        return self.records[-1].x

    @property
    def final_residual(self) -> float:
        return self.records[-1].zero_residual


@dataclass(frozen=True)
class StopRule:
    max_iters: int = 500
    zero_detect: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 1:
            raise ConfigError("max_iters must be at least 1")
        if not 0.0 < self.zero_detect < np.inf:
            raise ConfigError("zero_detect must be positive")


#  per-step operations

@dataclass
class StepResult:
    status: str  # accepted | reject | terminate
    y: np.ndarray | None = None
    xi: np.ndarray | None = None
    x_next: np.ndarray | None = None
    certified_zero: bool = False
    extra: dict = field(default_factory=dict)


def eckstein_step(f: LegendreFn, op: MonotoneOp, lam: float, x, eta_next):
    """x_{n+1} = (grad f + lam A)^{-1}(eta_{n+1} + grad f(x_n)); any eta accepted."""
    x = as_vector(x, f.dim)
    eta_next = as_vector(eta_next, f.dim)
    return protoresolvent(f, op, lam, eta_next + f.gradient(x))


class _Step:
    """A relative-error step at one iterate.  Its trial solves w(eta) in
    grad f(y) + lam A(y), and score(eta, y) gives xi and whether the
    scheme's form rejects eta; accept(eta, y, xi) finishes an error the form
    does not reject.  The trial takes one error, or in `scan` the rows of a
    stack of errors, each row with the bits of the single error.  The
    constructor routes the pairing: `solve` maps w to y, and `batches` is
    True when a closed form routes it, so that a pass over many errors costs
    about what one costs.  The run loop calls the step with one error row per
    operator (ss, ips and pls have one)."""

    def __init__(self, f, op, lam, w, score, accept):
        self.f, self.op, self.lam, self.w, self.score, self.accept = f, op, lam, w, score, accept
        self.solve, self.batches = _route(f, op, lam)

    def step(self, eta):
        """The step for one error; a failed certificate raises SolverError."""
        w = self.w(eta)
        y = _certify(self.f, self.op, self.lam, w, self.solve(w))[0]
        xi, reject = self.score(eta, y)
        return StepResult(status="reject", y=y, xi=xi) if reject else self.accept(eta, y, xi)

    def __call__(self, etas):
        return self.step(etas[0])

    def scan(self, candidates):
        """(j, result) over the (k, 1, dim) candidates: row j is the first
        that the form does not reject or whose certificate fails, and result
        is the step at row j if the form accepts it, else None; j = k when
        every row is rejected."""
        etas = candidates[:, 0]
        y, certified, *_ = _certified_rows(self.solve, self.f, self.op, self.lam, self.w(etas))
        xi, reject = self.score(etas, y)
        stops = ~(reject & certified)
        if not stops.any():
            return len(etas), None
        j = int(np.argmax(stops))
        return j, self.accept(etas[j], y[j], xi[j]) if certified[j] else None


def ss_step(op: MonotoneOp, mu: float, sigma: float, x, eta,
            zero_detect: float = StopRule.zero_detect) -> StepResult:
    """Hybrid projection step: prox at x - eta/mu, then project onto the cut."""
    if not 0.0 < mu < np.inf:
        raise ValueError("mu must be positive")
    if not 0.0 <= sigma < np.inf:
        raise ValueError("sigma must be nonnegative")
    if not 0.0 < zero_detect < np.inf:
        raise ValueError("zero_detect must be positive and finite")
    return _ss_step(op, mu, sigma, as_vector(x, op.dim), zero_detect).step(as_vector(eta, op.dim))


def _ss_step(op, mu, sigma, x, zero_detect):
    form = ss_form(sigma, mu)

    def score(eta, y):
        xi = -eta - mu * (y - x)
        return xi, form.gap(eta, xi, x, y) > 0.0

    def accept(eta, y, xi):
        xi_norm = residual_norm(xi)
        if residual_norm(y - x) <= zero_detect:  # a zero only if the stop residual passes
            return StepResult(status="terminate", y=y, xi=xi,
                              certified_zero=_stop_residual([op], y) <= zero_detect)
        if xi_norm <= zero_detect:
            if sigma >= 1.0:
                raise UpdateUndefined("update undefined: xi vanished away from the iterate with sigma >= 1")
            return StepResult(status="terminate", y=y, xi=xi, certified_zero=True)

        x_next = x - (pairing(xi, x - y) / xi_norm ** 2) * xi
        return StepResult(status="accepted", y=y, xi=xi, x_next=x_next)

    return _Step(euclidean(op.dim), op, 1.0 / mu, lambda eta: x - eta / mu, score, accept)


def ips_nu(sigma: float, rho: float, lam_hat: float) -> float:
    """Relative-error coefficient from (sigma, rho, lambda_hat)."""
    if not 0.0 < lam_hat < np.inf:
        raise ValueError("lam_hat must be positive")
    if not (0.0 <= sigma < np.inf and 0.0 <= rho < np.inf):
        raise ValueError("sigma and rho must be nonnegative")
    ratio = 2.0 * rho / lam_hat
    radicand = sigma + (1.0 - sigma) * ratio ** 2
    if not radicand >= 0.0:
        raise ValueError(f"negative radicand {radicand} in nu formula")
    nu = (np.sqrt(radicand) - ratio) / (1.0 + ratio)
    if nu < 0.0:
        raise ValueError(f"nu = {nu:.4g} < 0 for sigma={sigma}, rho={rho}, lambda_hat={lam_hat}: "
                         "no error would be accepted")
    return nu


def ips_step(op: MonotoneOp, lam: float, nu: float, x, eta) -> StepResult:
    """Subspace-constrained relative-error step; caller projects eta onto Z."""
    if not 0.0 < lam < np.inf:
        raise ValueError("lam must be positive")
    if not 0.0 <= nu < np.inf:
        raise ValueError("nu must be nonnegative and finite")
    return _ips_step(op, lam, nu, as_vector(x, op.dim)).step(as_vector(eta, op.dim))


def _ips_step(op, lam, nu, x):
    form = ips_form(nu, lam)

    def score(eta, y):
        xi = (eta - (y - x)) / lam
        return xi, form.gap(eta / lam, xi, x, y) > 0.0  # the form scores the inclusion's error

    def accept(eta, y, xi):
        return StepResult(status="accepted", y=y, xi=xi, x_next=y - eta)

    return _Step(euclidean(op.dim), op, lam, lambda eta: x + eta, score, accept)


def pls_step(op: MonotoneOp, c: float, metric: SpdMetric, sigma: float, tau: float,
             x, eta, zero_detect: float = StopRule.zero_detect) -> StepResult:
    """Variable-metric step with the squared metric-norm error criterion."""
    if not 0.0 < c < np.inf:
        raise ValueError("c must be positive")
    if not (0.0 <= sigma < np.inf and np.isfinite(tau)):
        raise ValueError("sigma must be nonnegative and tau finite")
    if metric.dim != op.dim:
        raise DimensionMismatch(f"metric dim {metric.dim} != operator dim {op.dim}")
    if not 0.0 < zero_detect < np.inf:
        raise ValueError("zero_detect must be positive and finite")
    return _pls_step(op, c, metric, _pls_geometry(metric), sigma, tau, as_vector(x, op.dim),
                     zero_detect).step(as_vector(eta, op.dim))


def _pls_geometry(metric):
    """f(x) = <M^{-1} x, x> / 2, the Legendre function of a pls step in metric M."""
    return QuadraticForm(SpdMetric(np.linalg.inv(metric.matrix)))


def _pls_step(op, c, metric, f, sigma, tau, x, zero_detect):
    form = pls_form(sigma, c, metric)

    def score(eta, y):
        xi = metric.solve(eta - (y - x)) / c
        return xi, form.gap(eta, xi, x, y) > 0.0

    def accept(eta, y, xi):  # the record keeps the step's metric
        if residual_norm(y - x) <= zero_detect:
            return StepResult(status="terminate", y=y, xi=xi, extra={"metric": metric},
                              certified_zero=_stop_residual([op], y) <= zero_detect)

        denom = pairing(xi, metric.apply(xi))
        if denom <= 0.0:
            raise UpdateUndefined("update undefined: M xi vanished away from the iterate")
        a = pairing(xi, x - y) / denom
        x_next = x - tau * a * metric.apply(xi)
        return StepResult(status="accepted", y=y, xi=xi, x_next=x_next, extra={"metric": metric})

    return _Step(f, op, c, lambda eta: metric.solve(x + eta), score, accept)


#  Bregman projection onto an intersection of halfspaces

_KKT_RTOL = 1e-12  # the projection's one tolerance, relative to its data


def bregman_project(f: LegendreFn, halfspaces, x):
    """argmin of D_f(., x) over the intersection of <a_i, z> <= b_i.

    Pass halfspaces as (a, b) pairs; an empty list returns x itself.  Rows are
    rescaled to unit normals so feasibility slacks mean signed distances.
    """
    x = as_vector(x, f.dim)
    checked = [(as_vector(a, f.dim), float(b)) for a, b in halfspaces]
    for a, b in checked:
        if residual_norm(a) == 0.0 or not np.isfinite(b):
            raise ValueError("halfspace needs a nonzero normal and a finite offset")
    require_finite(f.gradient(x), "grad f(x)")
    return _bregman_project(f, checked, x)


def _bregman_project(f, halfspaces, x):
    """Active-set Newton method on the dual  max_{mu >= 0} -f*(grad f(x) - A^T mu) - <b, mu>.

    Each step models f* to second order at u = grad f(x) - A^T mu, takes the
    support S of the model's multipliers and solves the model's equality system
    on S, halved until the natural KKT residual max|min(mu, b - Az)| falls; it
    stops at _KKT_RTOL times the size of b and z.  For f = ||.||^2 / 2 the model
    is exact: one step, z = x - A_S^T (A_S A_S^T)^{-1} (A_S x - b_S)."""
    if not halfspaces:
        return np.array(x)
    a_mat = np.array([a / residual_norm(a) for a, _ in halfspaces])
    b_vec = np.array([float(b) / residual_norm(a) for a, b in halfspaces])

    def state(u, mu):
        z = f.grad_inverse(u)
        g = a_mat @ z - b_vec
        return z, g, float(np.max(np.abs(np.minimum(mu, -g))))

    u, mu = f.gradient(x), np.zeros(len(b_vec))
    z, g, res = state(u, mu)
    scale = max(float(np.max(np.abs(b_vec))), residual_norm(z))
    for _ in range(500):
        if res <= _KKT_RTOL * max(scale, residual_norm(z)):
            return z
        try:
            rows = a_mat @ np.linalg.cholesky(f.conj_hessian(u))  # rows rows^T = A H A^T
            on, floor = _model_support(rows, g + rows @ (rows.T @ mu))
            s, off = np.flatnonzero(on), np.flatnonzero(~on)
            d = -mu  # the step drops the multipliers off S
            d[s] = np.linalg.solve(rows[s] @ rows[s].T,
                                   a_mat[s] @ z - b_vec[s] + rows[s] @ (rows[off].T @ mu[off]))
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular Newton model in the Bregman projection: {exc}") from exc
        for alpha in 0.5 ** np.arange(40.0):
            # u moves by the step itself, which may lie far below the ulp of mu
            u_t, trial = u - a_mat[d != 0.0].T @ (alpha * d[d != 0.0]), mu + alpha * d
            z_t, g_t, res_t = state(u_t, trial)
            if res_t < res:
                break
        else:  # no step helps: z stands if the model cannot resolve its residual
            if res <= floor:
                return z
            break
        u, mu, z, g, res = u_t, trial, z_t, g_t, res_t
    raise SolverError(f"Bregman projection stalled at KKT residual {res:.3e}", residual=res)


def _model_support(rows, h):
    """Support of argmin_{nu >= 0} <P nu, nu>/2 - <h, nu>, P = rows rows^T, and the
    violation below which a constraint does not enter it.  This is the dual of a
    least-distance problem, solved as in Lawson and Hanson (1974, ch. 23) by NNLS
    on ||E w - e||, E = [-rows^T; h^T] scaled to unit rows and h, e the last unit
    vector; 1 - <h, w> = 0 certifies infeasibility.  A column (numerically) in the
    span of the passive ones is skipped until the passive set changes."""
    nrm = residual_norm(rows)
    h = h / nrm
    top = float(np.max(np.abs(h))) or 1.0
    e_mat = np.vstack([-(rows / nrm[:, None]).T, h / top])
    m, target = e_mat.shape[1], np.eye(e_mat.shape[0])[-1]
    w, passive, skip = np.zeros(m), np.zeros(m, dtype=bool), np.zeros(m, dtype=bool)
    for _ in range(3 * m + 3):
        grad = e_mat.T @ (target - e_mat @ w)
        free = ~passive & ~skip & (grad > _KKT_RTOL)
        if not free.any():
            rr = 1.0 - float(e_mat[-1] @ w)
            if not rr > _KKT_RTOL:
                raise InfeasibleProjection("no common point: the least-distance residual vanished")
            return w > 0.0, _KKT_RTOL * top * float(np.max(nrm)) / rr
        j = int(np.argmax(np.where(free, grad, -np.inf)))
        passive[j] = True
        while True:
            idx = np.flatnonzero(passive)
            s = np.zeros(m)
            s[idx] = np.linalg.lstsq(e_mat[:, idx], target, rcond=None)[0]
            # grad_j / s_j is the squared distance of column j to the others
            if j >= 0 and not 0.0 < _KKT_RTOL ** 2 * (e_mat[:, j] @ e_mat[:, j]) * s[j] < grad[j]:
                passive[j], skip[j] = False, True
                break
            j = -1
            if np.all(s[idx] > 0.0):
                w, skip = s, np.zeros(m, dtype=bool)
                break
            neg = idx[s[idx] <= 0.0]
            ratio = w[neg] / (w[neg] - s[neg])
            w = w + float(np.min(ratio)) * (s - w)
            w[neg[np.argmin(ratio)]] = 0.0  # the blocking index leaves even if rounding keeps it > 0
            passive &= w > 0.0
            w[~passive] = 0.0
    raise SolverError("least-distance NNLS did not terminate")


#  common-zero scheme (one inclusion per operator, then project)

@dataclass
class RsIterate:
    ws: list
    ys: list
    xis: list
    etas: list
    c_halfspaces: list   # per-operator (a, b) or None for the whole space
    q_halfspace: object  # (a, b) or None
    x_next: np.ndarray
    zero_margins: list = field(default_factory=list)

    def halfspaces(self):
        out = [h for h in self.c_halfspaces if h is not None]
        if self.q_halfspace is not None:
            out.append(self.q_halfspace)
        return out


def rs_step(f: LegendreFn, ops, lams, etas, x0, x, common_zero=None) -> RsIterate:
    """One round of the common-zero scheme.

    Each cut set reduces to the halfspace
    <grad f(w) - grad f(y), z> <= f(y) - f(w) - <grad f(y), y> + <grad f(w), w>
    (the whole space when grad f(w) = grad f(y)), and the new iterate is the
    Bregman projection of the anchor x0 onto the intersection of the cuts.
    """
    if not len(ops) == len(lams) == len(etas):
        raise ValueError(f"rs_step needs one lam and one eta per operator: {len(ops)} "
                         f"operators, {len(lams)} lams, {len(etas)} etas")
    for op, lam in zip(ops, lams):
        _check_pairing(f, op, lam)
    x0, x = as_vector(x0, f.dim), as_vector(x, f.dim)
    etas = [as_vector(eta, f.dim) for eta in etas]
    require_finite(f.gradient(x0), "grad f(x0)")
    require_finite(f.gradient(x), "grad f(x)")
    if common_zero is not None:
        common_zero = as_vector(common_zero, f.dim)
    return _rs_step(f, ops, lams, etas, x0, x, common_zero)


def _degenerate_cut(a, g1, g2):
    """Whether the cut normal a = g1 - g2 is lost in the rounding of its own
    two terms, relative to their size (so at every scale of the iterates)."""
    return residual_norm(a) <= 1e-14 * (residual_norm(g1) + residual_norm(g2))


def _rs_step(f, ops, lams, etas, x0, x, common_zero):
    gx = f.gradient(x)
    ws, ys, xis, cuts = [], [], [], []
    for op, lam, eta in zip(ops, lams, etas):
        w = f.grad_inverse(lam * eta + gx)
        sol = _solve(f, op, lam, eta, gx)
        gw, gy = f.gradient(w), f.gradient(sol.y)
        a = gw - gy
        b = f.value(sol.y) - f.value(w) - pairing(gy, sol.y) + pairing(gw, w)
        cuts.append(None if _degenerate_cut(a, gw, gy) else (a, b))
        ws.append(w)
        ys.append(sol.y)
        xis.append(sol.xi)

    g0 = f.gradient(x0)
    aq = g0 - gx
    q_cut = None if _degenerate_cut(aq, g0, gx) else (aq, pairing(aq, x))

    it = RsIterate(ws=ws, ys=ys, xis=xis, etas=[np.array(e) for e in etas],
                   c_halfspaces=cuts, q_halfspace=q_cut, x_next=x)

    if common_zero is not None:
        for a, b in it.halfspaces():
            margin = (pairing(a, common_zero) - b) / residual_norm(a)
            it.zero_margins.append(margin)
            if margin > 1e-9:
                raise InfeasibleProjection(f"certified common zero violates a recorded cut by "
                                           f"{margin:.3e}")

    it.x_next = _bregman_project(f, it.halfspaces(), x0)
    return it


#  run loop

@dataclass
class RunSpec:
    """Problem description consumed by run(); fields are scheme-specific.

    Construction checks every field that run() hands to the trusted step cores.
    """

    scheme: str
    x0: np.ndarray
    op: MonotoneOp | None = None
    ops: list | None = None
    f: LegendreFn | None = None
    lam: Schedule = field(default_factory=lambda: Schedule.constant(1.0))
    mu: Schedule = field(default_factory=lambda: Schedule.constant(1.0))
    c: Schedule = field(default_factory=lambda: Schedule.constant(1.0))
    sigma: float = 0.5
    nu: float = 0.0
    tau: float = 1.0
    metric: MetricSchedule = field(default_factory=MetricSchedule)
    z_basis: np.ndarray | None = None
    common_zero: np.ndarray | None = None
    radius_probes: int = 16
    radius_seed: int = 0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        self.x0 = as_vector(self.x0)
        if self.scheme == "rs":
            if not self.ops:
                raise ConfigError("rs needs a list of operators")
        elif self.op is None:
            raise ConfigError(f"{self.scheme} needs an operator")
        if self.f is None:
            self.f = euclidean(self.dim)
        elif self.scheme in ("ss", "ips", "pls") and not (isinstance(self.f, QuadraticForm)
                                                           and self.f.is_identity):
            raise ConfigError(f"{self.scheme} runs in its own Euclidean or metric geometry; "
                              "only 'quadratic' is allowed", field="legendre")
        for part in [self.f, *self.all_ops]:
            if part.dim != self.dim:
                raise DimensionMismatch(f"x0 has dimension {self.dim} but {part!r} has {part.dim}")
        if not (0.0 <= self.sigma < np.inf and 0.0 <= self.nu < np.inf and np.isfinite(self.tau)):
            raise ConfigError("sigma and nu must be nonnegative and finite, tau finite")
        if self.radius_probes < 1:
            raise ConfigError("radius_probes must be at least 1")
        if self.z_basis is not None:
            self.z_basis = require_finite(np.atleast_2d(np.asarray(self.z_basis, dtype=float)),
                                          "z_basis")
            if self.z_basis.ndim != 2 or self.z_basis.shape[1] != self.dim:
                raise DimensionMismatch(f"z_basis rows must have dimension {self.dim}")
        if self.common_zero is not None:
            self.common_zero = as_vector(self.common_zero, self.dim)

    @property
    def dim(self) -> int:
        return self.x0.shape[0]

    @property
    def all_ops(self):
        return self.ops if self.scheme == "rs" else [self.op]


def _stop_residual(ops, x):
    """max over ops of zero_residual(op, f, 1, x) with f = ||.||^2 / 2, on trusted x."""
    f = euclidean(x.shape[0])
    return max(_zero_residual(f, op, 1.0, x) for op in ops)


def _subspace_projector(z_basis):
    if z_basis is None:
        return None
    basis = z_basis.T  # columns span Z
    q, _ = np.linalg.qr(basis)
    return q @ q.T


def _shrink_until_accepted(step_fn, eta, max_shrink=60, expect=0):
    """Try eta, then halve it until the step accepts, at most max_shrink - 1
    times, then fall back to the zero error: (result, error, shrinks).

    A step whose pairing batches scores these errors as the rows of at most
    two passes and takes the first row it does not reject, which is where
    the one-at-a-time loop stops: each row is the loop's 0.5 * current, with
    the single call's bits.  `expect` is the previous iteration's count, and
    streaks drift slowly along a run: the first pass holds the errors up to
    two halvings past it, and the second the rest.  After a streak of 0 the
    drawn error is tried alone first, as the loop tries it, since a pass
    costs more than one error.  From a row whose certificate failed on,
    errors go one at a time again, so that row raises the single step's
    error.
    """
    current = np.array(eta)
    batches = getattr(step_fn, "batches", False)
    first = 0
    if not (batches and expect):
        result = step_fn(current)
        if result.status != "reject":
            return result, current, 0
        first = 1
    # row k holds the error after k halvings, the last row the zero error
    halves = np.concatenate([current[None], np.full((max_shrink - 1, *current.shape), 0.5)])
    candidates = np.concatenate([np.multiply.accumulate(halves), np.zeros((1, *current.shape))])
    if batches:
        for stop in sorted({min(expect + 3, max_shrink + 1), max_shrink + 1}):
            j, result = step_fn.scan(candidates[first:stop])
            if result is not None:
                return result, candidates[first + j], first + j
            first += j
            if first < stop:  # that row failed its certificate
                break
    for k in range(first, max_shrink + 1):
        result = step_fn(candidates[k])
        if result.status != "reject":
            return result, candidates[k], k
    raise SolverError("the step rejects even the zero error")


#  per-scheme adapters.  For iteration n at x each returns the step parameter,
#  a radius thunk and the step.  The thunk gives radius_search's (f, lam, form)
#  and the factor that maps its radius to the scheme-side error; it is None
#  where the scheme accepts any error.  The step takes an error array with one
#  row per operator and returns a StepResult; ss and pls end at the stop rule's
#  zero_detect.

def _eckstein(spec, stop, n, x):
    lam = spec.lam.at(n)

    def step(etas):
        gx = spec.f.gradient(x)
        x_new, gy = _protoresolvent(spec.f, spec.op, lam, etas[0] + gx)
        xi = etas[0] / lam - (gy - gx) / lam
        return StepResult(status="accepted", y=np.array(x_new), xi=xi, x_next=x_new)
    return lam, None, step


def _ss(spec, stop, n, x):
    mu = spec.mu.at(n)
    return (mu, lambda: (euclidean(spec.dim), 1.0 / mu, ss_form(spec.sigma, mu), 1.0),
            _ss_step(spec.op, mu, spec.sigma, x, stop.zero_detect))


def _ips(spec, stop, n, x):
    lam = spec.lam.at(n)
    return (lam, lambda: (euclidean(spec.dim), lam, ips_form(spec.nu, lam), lam),
            _ips_step(spec.op, lam, spec.nu, x))


def _pls(spec, stop, n, x):
    c, metric = spec.c.at(n), spec.metric.at(n, spec.dim)
    f_n = _pls_geometry(metric)

    def radius_args():
        # the scheme-side error is cM times the generic one
        scale = c * float(np.min(np.linalg.eigvalsh(metric.matrix)))
        return f_n, c, pls_form(spec.sigma, c, metric), scale

    return c, radius_args, _pls_step(spec.op, c, metric, f_n, spec.sigma, spec.tau, x,
                                     stop.zero_detect)


def _rs(spec, stop, n, x):
    lam = spec.lam.at(n)

    def step(etas):
        it = _rs_step(spec.f, spec.ops, [lam] * len(spec.ops), etas, spec.x0, x, spec.common_zero)
        return StepResult(status="accepted", y=it.ys[0], xi=it.xis[0], x_next=it.x_next,
                          extra={"rs": it})
    return lam, None, step


_ADAPTERS = {"eckstein": _eckstein, "ss": _ss, "ips": _ips, "pls": _pls, "rs": _rs}


def run(spec: RunSpec, policy: PerturbationPolicy, stop: StopRule) -> IterateTrace:
    """Drive a scheme from x0 until the zero residual passes or budgets expire."""
    if policy.needs_radius and spec.scheme in ("eckstein", "rs"):
        raise ConfigError(
            f"radius_fraction is undefined for {spec.scheme}: the scheme accepts "
            "arbitrary perturbations, so no acceptance radius exists")
    require_finite(spec.f.gradient(spec.x0), "grad f(x0)")
    x = np.array(spec.x0)
    zr = _stop_residual(spec.all_ops, x)
    trace = IterateTrace(scheme=spec.scheme, meta={"dim": spec.dim},
                         records=[TraceRecord(n=0, x=x, zero_residual=zr, note="init")],
                         termination_reason="zero detected")
    if zr > stop.zero_detect:
        try:
            trace.termination_reason = _iterate(spec, policy, stop, trace, x)
        except (SolverError, UpdateUndefined) as exc:
            # per-step failures abort the run but keep the partial trace
            trace.termination_reason = "solver failure"
            trace.meta["error"] = str(exc)
    trace.converged = trace.termination_reason == "zero detected"
    return trace


def _iterate(spec, policy, stop, trace, x):
    """One loop for every scheme: draw, shrink, step, stop."""
    adapter = _ADAPTERS[spec.scheme]
    projector = _subspace_projector(spec.z_basis) if spec.scheme == "ips" else None
    running_sum, shrinks = 0.0, 0
    for n in range(stop.max_iters):
        row = n + 1
        param, radius_args, step = adapter(spec, stop, n, x)
        note, radius = "", None
        if policy.needs_radius:  # run() admits it only where radius_args exists
            try:
                f_r, lam_r, form, scale = radius_args()
                radius = scale * radius_search(f_r, spec.op, lam_r, x, form,
                                               probes=spec.radius_probes, seed=spec.radius_seed)
            except StrongImplicitnessFailure:
                radius, note = 0.0, "radius unavailable;"
        # one error row per operator, each from its own stream
        etas = [policy.draw(row, spec.dim, stream=i, radius=radius)
                for i in range(len(spec.all_ops))]
        if projector is not None:
            etas = [projector @ e for e in etas]
        result, etas, shrinks = _shrink_until_accepted(step, etas, expect=shrinks)
        if shrinks:
            note += f"shrunk:{shrinks}"
        if result.status == "terminate":
            # the clause only says y is near x: step there, the stop residual decides
            tag = "terminate(certified)" if result.certified_zero else "terminate"
            note = ";".join(filter(None, (note.rstrip(";"), tag)))
            x = result.y
        else:
            x = result.x_next
        eta = max(etas, key=residual_norm)  # the row records the largest error
        if spec.scheme == "eckstein":  # partial sums of <eta_n, x_n>, for the sidecar
            running_sum += pairing(eta, x)
            trace.partial_sums.append(running_sum)
        rec = TraceRecord(n=row, x=x, zero_residual=_stop_residual(spec.all_ops, x),
                          y=result.y, xi=result.xi, eta=eta, step_param=param, note=note,
                          extra=result.extra)
        trace.records.append(rec)
        if rec.zero_residual <= stop.zero_detect:
            return "zero detected"
    return "max_iters"
