"""The Bregman projection kernel: Euclidean bits against the 2^m enumeration,
cosh geometry against cyclic bisection, the runs that once stalled, typed
infeasibility, exact scaling, and the conjugate Hessians it models f* with."""

import time

import numpy as np
import pytest

from oracles import dual_project_bisection, euclidean_project_enumeration
from proxlab import algorithms as alg
from proxlab.errors import InfeasibleProjection
from proxlab.legendre import CoshSum, PowerEuclidean, PowerP, QuadraticForm, euclidean
from proxlab.numerics import SpdMetric, random_spd_matrix
from proxlab.operators import Affine, SubdiffAbs, identity_op


def _system(rng, m, dim, near_parallel=0.0):
    """m random halfspaces around a common interior point, and a point to project."""
    a = rng.standard_normal((m, dim))
    if near_parallel and m > 1:
        a[1] = a[0] + near_parallel * rng.standard_normal(dim)
    p = rng.standard_normal(dim)
    b = np.maximum(rng.standard_normal(m) * 0.3 - 0.5, a @ p + 0.01)
    return [(a[i], b[i]) for i in range(m)], p + 2.0 * rng.standard_normal(dim)


def _unit(halfspaces):
    return [(a / np.linalg.norm(a), float(b) / np.linalg.norm(a)) for a, b in halfspaces]


@pytest.mark.parametrize("m", range(1, 11))
def test_euclidean_matches_enumeration_bit_for_bit(m):
    rng = np.random.default_rng([11, m])
    for k in range(12):
        dim = int(rng.integers(1, 7))
        halfspaces, x = _system(rng, m, dim, near_parallel=(0.0, 1e-4, 1e-7)[k % 3])
        z = alg.bregman_project(euclidean(dim), halfspaces, x)
        assert np.array_equal(z, euclidean_project_enumeration(_unit(halfspaces), x))


def test_euclidean_sixteen_cuts_is_fast_and_optimal():
    rng = np.random.default_rng(16)
    halfspaces, x = _system(rng, 16, 6)
    a = np.array([h[0] / np.linalg.norm(h[0]) for h in halfspaces])
    b = np.array([h[1] / np.linalg.norm(h[0]) for h in halfspaces])
    f = euclidean(6)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        z = alg.bregman_project(f, halfspaces, x)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.05
    assert np.all(a @ z <= b + 1e-12)
    # variational inequality: <x - z, p - z> <= 0 at every feasible p
    for p in z + 0.5 * rng.standard_normal((4000, 6)):
        if np.all(a @ p <= b):
            assert (x - z) @ (p - z) <= 1e-12


def test_cosh_matches_bisection_oracle():
    rng = np.random.default_rng(5)
    compared = 0
    for _ in range(40):
        dim, m = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        halfspaces, x = _system(rng, m, dim)
        f = CoshSum(dim)
        try:
            ref = dual_project_bisection(f, _unit(halfspaces), x)
        except InfeasibleProjection:  # the oracle stalled
            continue
        assert np.max(np.abs(alg.bregman_project(f, halfspaces, x) - ref)) <= 1e-8
        compared += 1
    assert compared >= 30


def test_cosh_three_dimensional_run_converges():
    # the cyclic-bisection kernel stalled here at iteration 26 ("KKT residual 1.19e-08")
    spec = alg.RunSpec(scheme="rs", x0=np.ones(3), ops=[SubdiffAbs(1.0, np.zeros(3)), identity_op(3)],
                       f=CoshSum(3), common_zero=np.zeros(3))
    trace = alg.run(spec, alg.PerturbationPolicy.zero(), alg.StopRule(max_iters=100, zero_detect=1e-8))
    assert trace.termination_reason == "zero detected" and trace.iterations == 27
    assert np.linalg.norm(trace.final_x) <= 1e-8


@pytest.mark.parametrize("seed", [6, 24])
def test_cosh_run_with_nearly_coincident_cuts(seed):
    # abs at two weights sharing a shift cuts along nearly the same plane, so
    # no step can lower the last ~1e-12 of the KKT residual; the
    # cyclic-bisection kernel failed both runs within 10 iterations
    rng = np.random.default_rng([99, seed])
    dim = int(rng.integers(2, 5))
    zero = rng.uniform(-1.0, 1.0, dim)
    d = rng.standard_normal(dim)
    diag = rng.permutation(np.linspace(0.5, 2.0, dim))
    ops = [SubdiffAbs(1.0, zero), Affine(np.diag(diag), -diag * zero), SubdiffAbs(0.5, zero)]
    spec = alg.RunSpec(scheme="rs", x0=zero + 1.5 * d / np.linalg.norm(d), ops=ops,
                       f=CoshSum(dim), common_zero=zero)
    policy = alg.PerturbationPolicy.summable_geometric(0.05, 0.5, seed=seed)
    trace = alg.run(spec, policy, alg.StopRule(max_iters=40, zero_detect=1e-8))
    assert trace.termination_reason == "max_iters" and "error" not in trace.meta


def test_power_one_dimensional_run_does_not_fail_in_the_projection():
    # the cyclic-bisection kernel stalled here at iteration 29
    spec = alg.RunSpec(scheme="rs", x0=np.ones(1), ops=[SubdiffAbs(1.0, np.zeros(1)), identity_op(1)],
                       f=PowerEuclidean(4.0, 1))
    trace = alg.run(spec, alg.PerturbationPolicy.zero(), alg.StopRule(max_iters=40, zero_detect=1e-8))
    assert trace.termination_reason == "max_iters" and "error" not in trace.meta
    xs = [float(rec.x[0]) for rec in trace.records]
    assert all(0.0 < b <= a for a, b in zip(xs, xs[1:])) and xs[-1] < 1e-4


@pytest.mark.parametrize("f", [euclidean(1), CoshSum(1)], ids=["euclidean", "cosh"])
def test_infeasible_system_raises_1d(f):
    with pytest.raises(InfeasibleProjection):
        alg.bregman_project(f, [([1.0], 0.0), ([-1.0], -1.0)], [2.0])  # z <= 0 and z >= 1


@pytest.mark.parametrize("f", [euclidean(2), CoshSum(2)], ids=["euclidean", "cosh"])
def test_infeasible_triangle_raises(f):
    # every pair of these halfspaces meets, all three do not
    halfspaces = [([1.0, 0.0], -1.0), ([0.0, 1.0], -1.0), ([-1.0, -1.0], 1.0)]
    with pytest.raises(InfeasibleProjection):
        alg.bregman_project(f, halfspaces, [0.5, 0.5])


@pytest.mark.parametrize("t", [1e-6, 1e6])
def test_euclidean_projection_scales(t):
    rng = np.random.default_rng(7)
    for _ in range(20):
        dim = int(rng.integers(1, 5))
        halfspaces, x = _system(rng, int(rng.integers(1, 7)), dim)
        z = alg.bregman_project(euclidean(dim), halfspaces, x)
        zt = alg.bregman_project(euclidean(dim), [(a, t * b) for a, b in halfspaces], t * x)
        assert np.allclose(zt, t * z, rtol=1e-10, atol=1e-10 * t * np.linalg.norm(x))


def _catalog():
    rng = np.random.default_rng(3)
    return [euclidean(3), QuadraticForm(SpdMetric(random_spd_matrix(3, 0.5, 2.0, rng))),
            CoshSum(3), PowerEuclidean(4.0, 3), PowerEuclidean(1.5, 3), PowerP(4.0, 3.0, 3),
            PowerP(1.5, 4.0, 3)]


@pytest.mark.parametrize("f", _catalog(),  # a dense metric's spec lists all its entries
                         ids=lambda f: "quadratic:dense" if ":m=" in f.spec_string() else f.spec_string())
def test_conj_hessian_is_the_jacobian_of_grad_inverse(f):
    rng = np.random.default_rng(4)
    for u in rng.uniform(-2.0, 2.0, size=(5, f.dim)):
        h = 1e-6
        jac = np.column_stack([(f.grad_inverse(u + h * e) - f.grad_inverse(u - h * e)) / (2 * h)
                               for e in np.eye(f.dim)])
        hess = f.conj_hessian(u)
        assert np.allclose(hess, hess.T)
        assert np.max(np.abs(hess - jac)) <= 1e-7 * np.max(np.abs(jac))
    # a zero entry keeps the model finite
    assert np.all(np.isfinite(f.conj_hessian(np.zeros(f.dim))))
