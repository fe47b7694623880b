import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import bisect_increasing
from proxlab.legendre import (CoshSum, PowerEuclidean, PowerP, QuadraticForm,
                              bregman_distance, diagnostics, euclidean, parse_legendre)
from proxlab.numerics import SpdMetric, pairing

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
    f = CoshSum(1)
    for u in np.arange(-5.0, 5.0 + 1e-9, 0.1):
        uu = np.array([u])
        expected = u * np.arcsinh(u) - np.sqrt(1.0 + u * u)
        assert abs(f.conjugate_value(uu) - expected) <= 1e-10


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
            d = bregman_distance(f, y, x)
            assert d >= -1e-12
            if d <= 1e-12:
                assert np.linalg.norm(y - x) <= 1e-6


def test_fenchel_young_equality_sampled():
    rng = np.random.default_rng(2)
    for f in CATALOG:
        for _ in range(300):
            x = rng.uniform(-3.0, 3.0, size=f.dim)
            g = f.gradient(x)
            gap = abs(f.value(x) + f.conjugate_value(g) - pairing(g, x))
            assert gap <= 1e-8 * (1.0 + abs(f.value(x)))


def test_grad_inverse_roundtrip_sampled():
    rng = np.random.default_rng(4)
    for f in CATALOG:
        for _ in range(300):
            x = rng.uniform(-3.0, 3.0, size=f.dim)
            back = f.grad_inverse(f.gradient(x))
            assert np.linalg.norm(back - x) <= 1e-8 * (1.0 + np.linalg.norm(x))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    for f in CATALOG:
        for _ in range(100):
            x = rng.uniform(-3.0, 3.0, size=f.dim)
            if np.linalg.norm(x) < 0.3:
                continue
            h = 1e-5 * (1.0 + np.linalg.norm(x))
            fd = np.empty(f.dim)
            for i in range(f.dim):
                e = np.zeros(f.dim)
                e[i] = h
                fd[i] = (f.value(x + e) - f.value(x - e)) / (2 * h)
            g = f.gradient(x)
            assert np.linalg.norm(fd - g) <= 1e-6 * (1.0 + np.linalg.norm(g))


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
