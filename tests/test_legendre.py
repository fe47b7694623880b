import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import bisect_increasing, power_gradient_decimal
from proxlab import checks
from proxlab.legendre import (CoshSum, PowerEuclidean, PowerP, QuadraticForm, bregman_distance,
                              diagnostics, euclidean, grad_inverse_residual, parse_legendre)
from proxlab.numerics import SpdMetric

CATALOG = [
    euclidean(2),
    QuadraticForm(SpdMetric.diagonal([2.0, 3.0])),
    CoshSum(3),
    PowerEuclidean(4.0, 2),
    PowerP(4.0, 4.0, 2),
    PowerP(3.0, 2.5, 1),
]


def test_value_examples():
    assert CoshSum(3).value([0.0, 0.0, 0.0]) == pytest.approx(3.0)
    assert euclidean(2).value([3.0, 4.0]) == pytest.approx(12.5)
    # (1/4) * (sqrt(2))^4 = 1
    assert PowerEuclidean(4.0, 2).value([1.0, 1.0]) == pytest.approx(1.0)


def test_gradient_examples():
    assert_allclose(CoshSum(2).gradient([0.0, 0.0]), [0.0, 0.0])
    f = QuadraticForm(SpdMetric.diagonal([2.0, 3.0]))
    assert_allclose(f.gradient([1.0, 1.0]), [2.0, 3.0])
    # grad of ||x||^4/4 is ||x||^2 x
    assert_allclose(PowerEuclidean(4.0, 2).gradient([1.0, 0.0]), [1.0, 0.0])


def test_grad_inverse_examples():
    assert_allclose(CoshSum(2).grad_inverse([0.0, 0.0]), [0.0, 0.0])
    assert_allclose(QuadraticForm(SpdMetric.diagonal([2.0, 4.0])).grad_inverse([2.0, 4.0]),
                    [1.0, 1.0])
    # oracle: bisection root of t^3 - 8
    root = bisect_increasing(lambda t: t ** 3 - 8.0, 0.0, 10.0)
    assert root == pytest.approx(2.0, abs=1e-12)
    assert PowerEuclidean(4.0, 1).grad_inverse([8.0])[0] == pytest.approx(2.0, abs=1e-12)


def test_conjugate_examples():
    cosh1 = CoshSum(1)
    assert cosh1.conjugate_value([0.0]) == pytest.approx(-1.0, abs=1e-12)
    assert euclidean(2).conjugate_value([3.0, 4.0]) == pytest.approx(12.5)
    # (3/4) * 8^(4/3) = 12, cross-checked by 8*2 - 16/4 = 12
    f = PowerEuclidean(4.0, 1)
    assert f.conjugate_value([8.0]) == pytest.approx(12.0, abs=1e-10)
    assert f.closed_form_conjugate([8.0]) == pytest.approx(12.0, abs=1e-10)


def test_conjugate_agrees_with_closed_forms():
    rng = np.random.default_rng(5)
    for f in CATALOG:
        for _ in range(100):
            u = rng.uniform(-4.0, 4.0, size=f.dim)
            closed = f.closed_form_conjugate(u)
            assert closed is not None
            assert f.conjugate_value(u) == pytest.approx(closed, rel=1e-9, abs=1e-9)


def test_cosh_conjugate_grid():
    for u in np.arange(-5.0, 5.0 + 1e-9, 0.1):
        assert checks.conjugate_gap(CoshSum(1), np.array([u])) <= 1e-10


def test_bregman_examples():
    for f in CATALOG:
        x = np.full(f.dim, 0.7)
        assert bregman_distance(f, x, x) == pytest.approx(0.0, abs=1e-14)
    assert bregman_distance(euclidean(2), [1.0, 0.0], [0.0, 0.0]) == pytest.approx(0.5)
    # cosh(1) - 1, direct arithmetic
    assert bregman_distance(CoshSum(1), [1.0], [0.0]) == pytest.approx(0.5430806348152437,
                                                                       abs=1e-12)


def test_bregman_properties_sampled():
    rng = np.random.default_rng(11)
    for f in CATALOG:
        for _ in range(200):
            x = rng.uniform(-3.0, 3.0, size=f.dim)
            y = rng.uniform(-3.0, 3.0, size=f.dim)
            negative, unseparated = checks.bregman_separation_gaps(f, y, x)
            assert negative <= 1e-12 and unseparated <= 1e-6


def test_fenchel_young_equality_sampled():
    rng = np.random.default_rng(2)
    for f in CATALOG:
        for _ in range(300):
            assert checks.fenchel_young_gap(f, rng.uniform(-3.0, 3.0, size=f.dim)) <= 1e-8


def test_grad_inverse_roundtrip_sampled():
    rng = np.random.default_rng(4)
    for f in CATALOG:
        for _ in range(300):
            assert grad_inverse_residual(f, rng.uniform(-3.0, 3.0, size=f.dim)) <= 1e-8


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    for f in CATALOG:
        for _ in range(100):
            x = rng.uniform(-3.0, 3.0, size=f.dim)
            if np.linalg.norm(x) >= 0.3:
                assert checks.finite_difference_gap(f, x) <= 1e-6


def test_power_gradient_at_origin():
    assert_allclose(PowerEuclidean(1.5, 2).gradient([0.0, 0.0]), [0.0, 0.0])
    assert_allclose(PowerP(1.5, 2.0, 2).gradient([0.0, 0.0]), [0.0, 0.0])


def test_power_kinds_overflow_only_with_their_result():
    # the unscaled norm overflowed first: the powerp gradient read 0 at 1e90
    # and NaN at 1e150, its inverse NaN at 1e300, and the rho = 1.5 power
    # gradient 0 at 1e200
    f = PowerP(3.44, 2.6, 1)
    assert_allclose(f.gradient(np.array([1e90])), [1e144], rtol=1e-12)
    assert_allclose(f.gradient(np.array([[1e90], [-1e150]])), [[1e144], [-1e240]], rtol=1e-12)
    g = PowerP(1.5, 4.0, 1)
    assert_allclose(g.grad_inverse(np.array([1e300])), [1e100], rtol=1e-12)
    assert_allclose(g.grad_inverse(np.array([[-1e300], [0.0]])), [[-1e100], [0.0]], rtol=1e-12)
    assert_allclose(PowerEuclidean(1.5, 1).gradient(np.array([1e200])), [1e100], rtol=1e-12)
    assert_allclose(PowerEuclidean(1.5, 2).gradient(np.array([3e-200, 4e-200])),
                    np.sqrt(5e-200) * np.array([0.6, 0.8]), rtol=1e-12)


def test_power_gradient_is_zero_in_zero_coordinates_past_overflow():
    # N^(rho-1) overflowed to inf, and inf * 0 made the zero coordinate NaN
    with np.errstate(over="ignore"):
        assert np.array_equal(PowerEuclidean(4.0, 2).gradient(np.array([1e200, 0.0])), [np.inf, 0.0])
        g = PowerP(4.0, 4.0, 2).gradient(np.array([[1e200, -0.0]]))
    assert np.array_equal(g, [[np.inf, 0.0]]) and not np.signbit(g[0, 1])


def test_power_gradient_is_finite_in_tiny_coordinates_past_overflow():
    # N^(rho-1) overflowed to inf while (|x_i| / N)^(p-1) underflowed to 0,
    # and inf * 0 made the coordinate NaN (or inf * 1e-300 made it inf)
    with np.errstate(over="ignore"):
        g = PowerP(3.0, 4.0, 3).gradient(np.array([1e200, 0.0, -1.0]))
        rows = PowerEuclidean(4.0, 2).gradient(np.array([[1e200, 1e-200], [3.0, 4.0],
                                                         [1e200, 1e-100]]))
        u = PowerP(1.5, 1.5, 2).grad_inverse(np.array([1e200, 1e-150]))
        top = PowerEuclidean(1.5, 2).gradient(np.array([1.7e308, 1.7e308]))  # N overflows
    assert np.array_equal(g[:2], [np.inf, 0.0])
    assert_allclose(g[2], -1e200, rtol=1e-12)
    assert rows[0, 0] == np.inf
    assert_allclose(rows[0, 1], 1e200, rtol=1e-12)
    assert np.array_equal(rows[1], PowerEuclidean(4.0, 2).gradient(np.array([3.0, 4.0])))
    assert rows[2, 0] == np.inf
    assert_allclose(rows[2, 1], 1e300, rtol=1e-12)
    assert u[0] == np.inf
    assert_allclose(u[1], 1e-300, rtol=1e-12)
    assert_allclose(top, 1.7e308 / (np.sqrt(np.sqrt(2.0) * 1.7) * 1e154), rtol=1e-12)


def test_power_gradient_keeps_entries_whose_factor_underflows():
    # |x_i| / N or its power (|x_i| / N)^(p-1) fell to 0 or below the normal
    # doubles while N^(rho-1) times it is a normal double: the entry read
    # -0.0 and 8.807e-131, or lost all but a few digits
    assert_allclose(PowerEuclidean(3.8, 2).gradient([6.6e89, -1.35e-235])[1],
                    -6.3901764809707615e-74, rtol=1e-13)
    assert_allclose(PowerEuclidean(1.85, 2).gradient([1e227, 1.1e-96])[1],
                    9.803760319471657e-131, rtol=1e-13)
    rng = np.random.default_rng(18)
    checked = 0
    for _ in range(300):
        dim = int(rng.integers(2, 4))
        p, rho = rng.uniform(1.3, 4.0, size=2)
        v = rng.choice([-1.0, 1.0], size=dim) * 10.0 ** rng.uniform(-300.0, 300.0, size=dim)
        ref = power_gradient_decimal(v, p, rho)
        normal = (np.abs(ref) >= np.finfo(float).tiny) & np.isfinite(ref)
        with np.errstate(over="ignore"):
            got = PowerP(p, rho, dim).gradient(v)
        assert_allclose(got[normal], ref[normal], rtol=1e-12)
        checked += int(np.sum(normal))
    assert checked > 300


@pytest.mark.parametrize("f", [PowerEuclidean(1.5, 1), PowerEuclidean(4.0, 8), PowerP(1.5, 3.0, 1),
                               PowerP(4.0, 1.5, 3), PowerP(2.7, 3.0, 64)])
def test_power_rows_match_single_vectors(f):
    rng = np.random.default_rng(f.dim)
    rows = rng.uniform(-3.0, 3.0, size=(40, f.dim)) * 10.0 ** rng.integers(-100, 100, size=(40, 1))
    for method in (f.gradient, f.grad_inverse):
        many = method(rows)
        assert all(np.array_equal(method(row), one) for row, one in zip(rows, many))


class _FlatTail:
    """sqrt(1 + x^2): convex and smooth but not super-coercive."""

    dim = 1
    kind = "flat_tail_probe"

    def value(self, x):
        return float(np.sqrt(1.0 + float(np.asarray(x)[0]) ** 2))


def test_diagnostics():
    assert diagnostics(CoshSum(2), probe_budget=100)["all_passed"]
    assert diagnostics(euclidean(2), probe_budget=100)["all_passed"]
    report = diagnostics(_FlatTail(), probe_budget=100)
    assert not report["super_coercivity"]["passed"]
    with pytest.raises(ValueError):
        diagnostics(CoshSum(1), probe_budget=5)


def test_parse_legendre():
    assert parse_legendre("quadratic", 3).is_identity
    f = parse_legendre("quadratic:diag=2,3", 2)
    assert_allclose(np.diagonal(f.metric.matrix), [2.0, 3.0])
    assert parse_legendre("cosh", 4).dim == 4
    assert parse_legendre("power:rho=4", 2).rho == 4.0
    fp = parse_legendre("powerp:p=4,rho=4", 2)
    assert (fp.p, fp.rho) == (4.0, 4.0)
    with pytest.raises(ValueError):
        parse_legendre("mystery", 2)
    with pytest.raises(ValueError):
        parse_legendre("power:rho=0.5", 2)
