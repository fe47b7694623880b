"""Known defects as seeded sweeps.  Each sweep counts its failures and asserts
the count is at most the pinned one; a mend lowers the pin."""

import numpy as np

from proxlab import algorithms as alg
from proxlab.errors import SolverError
from proxlab.legendre import CoshSum
from proxlab.numerics import residual_norm, row_norm
from proxlab.operators import Affine, SubdiffAbs

RS_FAR_FAILURES = 4          # of 4 runs
NORM_OVERFLOWS = 327         # of 500 rows, for each of the two norms
COSH_PROJECTION_STALLS = 11  # of 1,000 draws


def test_rs_far_from_zero_sweep():
    # the cut offset f(y) - f(w) - <grad f(y), y> + <grad f(w), w> differences
    # f-values of size ~s^2, so the certified zero seems to violate a cut
    failures = 0
    for s in (1e6, 1e8):
        for dim in (2, 3):
            z = s * np.linspace(1.0, 2.0, dim)
            spec = alg.RunSpec(scheme="rs", x0=z + np.linspace(0.5, 1.5, dim),
                               ops=[SubdiffAbs(1.0, z), Affine(np.eye(dim), -z)], common_zero=z)
            trace = alg.run(spec, alg.PerturbationPolicy.summable_geometric(0.05, 0.5),
                            alg.StopRule(zero_detect=1e-8 * s))
            failures += trace.termination_reason == "solver failure"
    assert failures <= RS_FAR_FAILURES


def test_norm_overflow_sweep():
    # both norms square before the square root, so a row with an entry above
    # ~1.3e154 reads inf although its norm is a finite double
    rng = np.random.default_rng(9)
    rows = np.zeros((500, 8))
    for i in range(len(rows)):
        d = int(rng.integers(1, 9))
        rows[i, :d] = rng.choice([-1.0, 1.0], d) * 10.0 ** rng.uniform(-300.0, 300.0, d)
    top = np.max(np.abs(rows), axis=1)
    finite = np.isfinite(top * np.sqrt(np.sum((rows / top[:, None]) ** 2, axis=1)))
    with np.errstate(over="ignore"):
        for norm in (row_norm, residual_norm):
            assert np.count_nonzero(np.isinf(norm(rows)) & finite) <= NORM_OVERFLOWS
            assert sum(np.isinf(norm(r)) for r in rows[finite]) <= NORM_OVERFLOWS


def test_cosh_projection_stall_sweep():
    # the line search drops a large multiplier of a now-inactive cut and no
    # step length lowers the KKT residual
    rng = np.random.default_rng(21)
    stalls = 0
    for _ in range(1000):
        dim, m = int(rng.integers(1, 5)), int(rng.integers(1, 7))
        p = rng.normal(size=dim)
        a = rng.normal(size=(m, dim))
        b = a @ p + rng.uniform(0.1, 1.0, m)
        x = p + 5.0 * rng.normal(size=dim)
        try:
            alg.bregman_project(CoshSum(dim), list(zip(a, b)), x)
        except SolverError as exc:
            assert "stalled" in str(exc)
            stalls += 1
    assert stalls <= COSH_PROJECTION_STALLS
