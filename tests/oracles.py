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


#  coordinate view of the separable catalog, from each kind's data alone

def coord_box(op, i, t):
    """(lo, hi) of coordinate i of A at the scalar t (separable operators only)."""
    from proxlab.errors import EmptyOperatorValue
    from proxlab.operators import Affine, GradientOfConvex, NormalConeBox, OperatorSum, Scaled, SubdiffAbs

    if isinstance(op, SubdiffAbs):
        s, w = op.shift[i], op.weight
        return (-w, -w) if t < s else (w, w) if t > s else (-w, w)
    if isinstance(op, Affine):
        v = op.matrix[i, i] * t + op.offset[i]
        return (v, v)
    if isinstance(op, NormalConeBox):
        lo, hi = op.lower[i], op.upper[i]
        if t < lo or t > hi:
            raise EmptyOperatorValue(f"coordinate {i} = {t} outside [{lo}, {hi}]")
        return (-np.inf if t == lo else 0.0, np.inf if t == hi else 0.0)
    if isinstance(op, GradientOfConvex):  # logcosh, quartic, or norm4 in 1-D
        d = t - op.shift[i]
        v = op.weight * (np.tanh(d) if op.profile == "logcosh" else d ** 3)
        return (v, v)
    if isinstance(op, Scaled):
        lo, hi = coord_box(op.inner, i, t)
        return (op.lam * lo, op.lam * hi)
    if isinstance(op, OperatorSum):
        lo = hi = 0.0
        for term in op.terms:
            tlo, thi = coord_box(term, i, t)
            lo, hi = lo + tlo, hi + thi
        return (lo, hi)
    raise TypeError(f"no coordinate view for {op!r}")


def coord_kinks(op, i):
    """Points where coordinate i of A is set-valued."""
    from proxlab.operators import NormalConeBox, OperatorSum, Scaled, SubdiffAbs

    if isinstance(op, SubdiffAbs):
        return (op.shift[i],)
    if isinstance(op, NormalConeBox):
        return (op.lower[i], op.upper[i])
    if isinstance(op, Scaled):
        return coord_kinks(op.inner, i)
    if isinstance(op, OperatorSum):
        return tuple(sorted({k for term in op.terms for k in coord_kinks(term, i)}))
    return ()


def coord_domain(op, i):
    """Closed bounds of coordinate i where A is nonempty."""
    from proxlab.operators import NormalConeBox, OperatorSum, Scaled

    if isinstance(op, NormalConeBox):
        return (op.lower[i], op.upper[i])
    if isinstance(op, Scaled):
        return coord_domain(op.inner, i)
    if isinstance(op, OperatorSum):
        bounds = [coord_domain(term, i) for term in op.terms]
        return (max(b[0] for b in bounds), min(b[1] for b in bounds))
    return (-np.inf, np.inf)


def coord_grad(f, i, t):
    """Coordinate i of grad f at the scalar t (separable f only)."""
    from proxlab.legendre import CoshSum, QuadraticForm

    if isinstance(f, QuadraticForm):
        return f.metric.matrix[i, i] * t
    if isinstance(f, CoshSum):
        return np.sinh(t)
    return np.sign(t) * abs(t) ** (f.rho - 1.0)  # a power kind in 1-D


def coord_value_box(op, y):
    """(lo, hi) of A(y) assembled one coordinate at a time from coord_box."""
    lo, hi = np.empty(op.dim), np.empty(op.dim)
    for i in range(op.dim):
        lo[i], hi[i] = coord_box(op, i, y[i])
    return lo, hi


def _coord_residual(f, op, i, lam, w, t):
    """Residual of the scalar inclusion at t, with the best selection from A."""
    g = coord_grad(f, i, t)
    lo, hi = coord_box(op, i, t)
    a = min(max((w - g) / lam, lo), hi)
    return g + lam * a - w


def solve_coord(f, op, i, lam, w):
    """Coordinate i of the separable protoresolvent at the scalar w: kink
    candidates tested exactly, then a bracket and bisection to a relative
    width of 4 eps, then the best of the final bracket and the kinks in it."""
    dlo, dhi = coord_domain(op, i)
    candidates = set(coord_kinks(op, i))
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

    # bracket [a, b] with the solution strictly inside: the lo selection at the
    # left end and the hi selection at the right end give valid signs
    def g_lo(t):
        return coord_grad(f, i, t) + lam * coord_box(op, i, t)[0] - w

    def g_hi(t):
        return coord_grad(f, i, t) + lam * coord_box(op, i, t)[1] - w

    center = 0.0
    if np.isfinite(dlo) and np.isfinite(dhi):
        center = 0.5 * (dlo + dhi)
    elif np.isfinite(dlo):
        center = dlo + 1.0
    elif np.isfinite(dhi):
        center = dhi - 1.0
    radius = 1.0
    a, b = max(center - radius, dlo), min(center + radius, dhi)
    for _ in range(200):
        if (a == dlo or g_lo(a) <= 0.0) and (b == dhi or g_hi(b) >= 0.0):
            break
        radius *= 2.0
        a, b = max(center - radius, dlo), min(center + radius, dhi)
    else:
        raise ArithmeticError("bracket expansion failed for the scalar inclusion")

    for _ in range(200):
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            break
        lo, hi = coord_box(op, i, m)
        g = coord_grad(f, i, m)
        if g + lam * hi < w:
            a = m
        elif g + lam * lo > w:
            b = m
        else:
            return m
        if b - a <= 4.0 * np.finfo(float).eps * max(1.0, abs(a), abs(b)):
            break

    finals = {a, b, 0.5 * (a + b)}
    pad = 8.0 * (b - a) + 1e-30
    finals.update(k for k in candidates if a - pad <= k <= b + pad and dlo <= k <= dhi)
    return min(finals, key=lambda t: abs(_coord_residual(f, op, i, lam, w, t)))


def solve_separable_scalar(f, op, lam, w):
    """The separable protoresolvent one coordinate at a time."""
    return np.array([solve_coord(f, op, i, lam, w[i]) for i in range(f.dim)])


def enlargement_residual_scalar(op, eps, y, xi, witness_budget=256, halfwidth=1.0):
    """enlargement_residual one witness at a time, with coordinate-wise
    clamping and value boxes (separable operators only)."""
    from proxlab.numerics import halton_points, pairing
    from proxlab.operators import ValueBox

    worst = 0.0
    for row in halton_points(witness_budget, op.dim):
        xp = y + halfwidth * (2.0 * row - 1.0)
        for i in range(op.dim):
            lo, hi = coord_domain(op, i)
            xp[i] = min(max(xp[i], lo), hi)
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
