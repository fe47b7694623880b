"""Independent oracles used to derive expected values for the tests.

These deliberately avoid the production solver paths: dense grids, plain
bisection, and closed-form hand derivations only.
"""

import numpy as np


def grid_argmin_1d(objective, lo=-8.0, hi=8.0, points=4001, rounds=6):
    """Nested-grid minimizer of a scalar convex objective."""
    for _ in range(rounds):
        xs = np.linspace(lo, hi, points)
        vals = np.array([objective(float(t)) for t in xs])
        i = int(np.argmin(vals))
        step = xs[1] - xs[0]
        lo, hi = xs[i] - 2 * step, xs[i] + 2 * step
    return 0.5 * (lo + hi)


def bisect_increasing(g, lo, hi, iters=200):
    """Root of a (strictly) increasing scalar function by plain bisection."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def halton_points_scalar(count, dim, skip=20):
    """Halton points one digit at a time, one entry at a time."""
    primes = [p for p in range(2, 400) if all(p % q for q in range(2, p))][:dim]
    out = np.empty((count, dim))
    for j, base in enumerate(primes):
        for i in range(count):
            n, f, r = i + skip, 1.0, 0.0
            while n > 0:
                f /= base
                r += f * (n % base)
                n //= base
            out[i, j] = r
    return out


def soft_threshold(t, thr):
    return float(np.sign(t) * max(abs(t) - thr, 0.0))


def ss_radius_grid_oracle(x, sigma, mu, shift=0.0, r_max=2.0, points=200_000):
    """Largest symmetric radius for the max-norm form on the shifted 1-D kink
    operator, scanned on a dense grid of scheme-side perturbations."""

    def accepted(eta_n):
        w = x - eta_n / mu
        y = shift + soft_threshold(w - shift, 1.0 / mu)
        xi = -eta_n - mu * (y - x)
        return abs(eta_n) <= sigma * max(abs(xi), mu * abs(y - x))

    for r in np.linspace(1e-6, r_max, points):
        probe = r * 0.999999
        if not (accepted(probe) and accepted(-probe)):
            return r
    return r_max


def radius_search_scalar(f, op, lam, x, spec, probes=64, halving_depth=40,
                         refine_depth=24, magnitudes=(0.999, 0.75, 0.5, 0.25, 0.05), seed=0):
    """radius_search with its levels run one probe at a time through the
    single-vector cores, stopping at the first failing probe."""
    from proxlab.errors import StrongImplicitnessFailure
    from proxlab.numerics import unit_directions
    from proxlab.resolvent import _protoresolvent, _solve, _verify

    gx = f.gradient(x)
    y0 = _protoresolvent(f, op, lam, gx)
    xi0 = -(f.gradient(y0) - gx) / lam
    zero = np.zeros(f.dim)
    theta0 = spec.psi(zero, xi0, x, y0) - spec.phi(zero, xi0, x, y0)
    if not theta0 > 0.0:
        raise StrongImplicitnessFailure(f"psi(0) - phi(0) = {theta0:.3e}")
    directions = unit_directions(probes, f.dim, seed)

    def level_passes(r):
        for d in directions:
            for m in magnitudes:
                eta = (m * r) * d
                sol = _solve(f, op, lam, eta, gx)
                if not _verify(f, op, lam, eta, gx, sol.y, sol.xi).passed:
                    return False
                if not spec.phi(eta, sol.xi, x, sol.y) < spec.psi(eta, sol.xi, x, sol.y):
                    return False
        return True

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


def coord_value_box(op, y):
    """(lo, hi) of A(y) assembled one coordinate at a time from coord_box."""
    lo, hi = np.empty(op.dim), np.empty(op.dim)
    for i in range(op.dim):
        lo[i], hi[i] = op.coord_box(i, y[i])
    return lo, hi


def enlargement_residual_scalar(op, eps, y, xi, witness_budget=256, halfwidth=1.0):
    """enlargement_residual one witness at a time, with coordinate-wise
    clamping and value boxes (separable operators only)."""
    from proxlab.numerics import halton_points, pairing
    from proxlab.operators import ValueBox

    lo, hi = (np.broadcast_to(bound, op.dim) for bound in op.domain)
    worst = 0.0
    for row in halton_points(witness_budget, op.dim):
        xp = y + halfwidth * (2.0 * row - 1.0)
        for i in range(op.dim):
            xp[i] = min(max(xp[i], lo[i]), hi[i])
        direction = xp - y
        sel = ValueBox(*coord_value_box(op, xp)).support_argmin(direction)
        if not np.all(np.isfinite(sel)):
            return np.inf
        worst = max(worst, -eps - pairing(sel - xi, direction))
    return worst


def euclidean_project_enumeration(halfspaces, x):
    """Euclidean projection onto unit-normal halfspaces by trying all 2^m
    active sets, keeping the nearest KKT point (the pre-Newton kernel)."""
    from proxlab.errors import InfeasibleProjection

    m = len(halfspaces)
    a_mat = np.array([a for a, _ in halfspaces], dtype=float)
    b_vec = np.array([b for _, b in halfspaces], dtype=float)
    slack = 1e-12 * (1.0 + float(np.linalg.norm(x)))
    if np.all(a_mat @ x <= b_vec + slack):
        return np.array(x, dtype=float)

    best, best_dist = None, np.inf
    for mask in range(1, 1 << m):
        idx = [i for i in range(m) if mask >> i & 1]
        a_s = a_mat[idx]
        gram = a_s @ a_s.T
        if np.linalg.cond(gram) > 1e12:
            continue
        nu = np.linalg.solve(gram, a_s @ x - b_vec[idx])
        if np.any(nu < -1e-10):
            continue
        z = x - a_s.T @ nu
        if np.all(a_mat @ z <= b_vec + slack):
            d = float(np.linalg.norm(z - x))
            if d < best_dist:
                best, best_dist = z, d
    if best is None:
        raise InfeasibleProjection("no KKT point found; halfspace system looks infeasible")
    return best


def dual_project_bisection(f, halfspaces, x, kkt_tol=1e-8, max_cycles=5000):
    """Bregman projection onto unit-normal halfspaces by cyclic exact
    maximization of the dual, one multiplier at a time by bisection on its
    complementarity condition (the pre-Newton kernel); stalls raise."""
    from proxlab.errors import InfeasibleProjection

    a_mat = np.array([a for a, _ in halfspaces], dtype=float)
    b_vec = np.array([b for _, b in halfspaces], dtype=float)
    gx = f.gradient(x)
    mu = np.zeros(len(halfspaces))

    def primal(mu_vec):
        return f.grad_inverse(gx - a_mat.T @ mu_vec)

    for _ in range(max_cycles):
        for i in range(len(halfspaces)):
            def slack(t):
                trial = mu.copy()
                trial[i] = t
                return float(a_mat[i] @ primal(trial) - b_vec[i])

            if slack(0.0) <= 0.0:
                mu[i] = 0.0
                continue
            hi = max(1.0, 2.0 * mu[i])
            while slack(hi) > 0.0:
                hi *= 2.0
                if hi > 1e12:
                    raise InfeasibleProjection("dual multiplier diverged; system looks infeasible")
            mu[i] = bisect_increasing(lambda t: -slack(t), 0.0, hi, iters=100)
        z = primal(mu)
        g = a_mat @ z - b_vec
        kkt = max(float(np.max(g, initial=0.0)), float(np.max(np.abs(mu * g), initial=0.0)))
        if kkt <= kkt_tol:
            return z
    raise InfeasibleProjection(f"dual coordinate ascent stalled at KKT residual {kkt:.2e}")
