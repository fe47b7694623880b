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
