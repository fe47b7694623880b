import math
import re
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import proxlab
from proxlab import checks
from proxlab.algorithms import ss_step
from proxlab.errors import DimensionMismatch, NotSpd
from proxlab.legendre import euclidean
from proxlab.operators import SubdiffAbs
from proxlab.resolvent import (InclusionInstance, protoresolvent, radius_search, solve_inclusion,
                               ss_form, verify_solution)
from oracles import halton_points_scalar, spd_inv_norm_dense, spd_solve_dense
from proxlab.numerics import (SpdMetric, as_vector, halton_points, pairing, random_spd_matrix,
                              residual_norm, row_dot, row_norm)


def test_pairing_values():
    assert pairing([1.0, 2.0], [3.0, 4.0]) == 11.0
    assert pairing([0.0, 0.0], [5.0, -1.0]) == 0.0
    assert pairing([1.0, 1.0, 1.0], [2.0, 2.0, 2.0]) == 6.0


def test_pairing_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        pairing([1.0, 2.0], [1.0, 2.0, 3.0])


def test_pairing_symmetry_sampled():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = rng.standard_normal(4)
        b = rng.standard_normal(4)
        assert checks.pairing_asymmetry(a, b) <= 1e-14


def test_metric_norm_values():
    eye = SpdMetric.identity(2)
    assert eye.norm([3.0, 4.0]) == pytest.approx(5.0)
    assert SpdMetric.diagonal([4.0, 1.0]).norm([1.0, 0.0]) == pytest.approx(2.0)
    assert SpdMetric.diagonal([3.0, 7.0]).norm([0.0, 0.0]) == 0.0


def test_spd_solve_values():
    assert_allclose(SpdMetric.identity(2).solve([7.0, -2.0]), [7.0, -2.0])
    assert_allclose(SpdMetric.diagonal([2.0, 4.0]).solve([2.0, 4.0]), [1.0, 1.0])
    m = SpdMetric([[2.0, 1.0], [1.0, 2.0]])
    x = m.solve([3.0, 3.0])
    assert_allclose(x, [1.0, 1.0], atol=1e-12)
    assert_allclose(m.apply(x), [3.0, 3.0], atol=1e-12)  # multiply-back oracle


def test_spd_solve_roundtrip_sampled():
    rng = np.random.default_rng(7)
    for _ in range(500):
        dim = int(rng.integers(1, 9))
        m = SpdMetric(random_spd_matrix(dim, 0.2, 4.0, rng))
        assert checks.solve_roundtrip_residual(m, rng.standard_normal(dim)) <= 1e-10


def test_metric_norm_matches_pairing():
    rng = np.random.default_rng(3)
    for _ in range(200):
        m = SpdMetric(random_spd_matrix(3, 0.5, 2.0, rng))
        assert checks.metric_norm_gap(m, rng.standard_normal(3)) <= 1e-12


def test_spd_rejects_bad_matrices():
    with pytest.raises(NotSpd):
        SpdMetric([[1.0, 2.0], [0.0, 1.0]])  # not symmetric
    with pytest.raises(NotSpd):
        SpdMetric([[1.0, 0.0], [0.0, -1.0]])  # indefinite
    with pytest.raises(NotSpd):
        SpdMetric(np.zeros((2, 2)))  # singular


def test_inv_norm_consistency():
    m = SpdMetric.diagonal([4.0, 1.0])
    # ||w||_{M^{-1}} with M = diag(4, 1): sqrt(w0^2/4 + w1^2)
    assert m.inv_norm([2.0, 1.0]) == pytest.approx(np.sqrt(2.0))


def test_as_vector_validation():
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError):
        as_vector([np.inf])
    with pytest.raises(DimensionMismatch):
        as_vector([1.0, 2.0], dim=3)


def test_halton_extension_keeps_low_dims():
    # one prime per coordinate up to MAX_DIM; the first eight columns are unchanged
    assert_allclose(halton_points(32, 64)[:, :8], halton_points(32, 8), rtol=0, atol=0)
    with pytest.raises(DimensionMismatch):
        halton_points(4, 65)


@pytest.mark.parametrize("count, dim", [(256, 64), (64, 1)])
def test_halton_matches_scalar_digit_expansion(count, dim):
    assert np.array_equal(halton_points(count, dim), halton_points_scalar(count, dim))


def test_halton_covers_every_coordinate():
    # the witness grid of enlargement_residual at dim 64: plain Halton leaves
    # coordinate 63 inside [0.064, 0.884] and 24 pairs above |r| = 0.9
    points = halton_points(256, 64)
    assert np.all(points.max(axis=0) - points.min(axis=0) >= 0.9)
    corr = np.corrcoef(points.T)
    np.fill_diagonal(corr, 0.0)
    assert np.max(np.abs(corr)) < 0.3


@pytest.mark.parametrize("matrix, identity, diagonal", [
    (np.eye(3), True, True),
    (np.diag([1.0, 2.0, 3.0]), False, True),
    (np.diag([1.0, 1.0, 1.0 + 1e-15]), False, True),
    (random_spd_matrix(3, 0.5, 2.0, np.random.default_rng(0)), False, False),
])
def test_metric_structure_flags(matrix, identity, diagonal):
    # cached on first read, from the read-only matrix
    m = SpdMetric(matrix)
    assert m.is_identity is identity and m.is_diagonal is diagonal
    assert vars(m)["is_identity"] is identity and vars(m)["is_diagonal"] is diagonal
    assert m.is_identity == bool(np.array_equal(m.matrix, np.eye(3)))
    assert m.is_diagonal == bool(np.count_nonzero(m.matrix - np.diag(np.diagonal(m.matrix))) == 0)


@pytest.mark.parametrize("ratio", [4.0, 1e3, 1e6])
@pytest.mark.parametrize("dim", [1, 2, 8, 64])
def test_metric_solves_match_dense_solve(dim, ratio):
    # solve and inv_norm run through the cached inverse factor; a plain LU
    # solve of M agrees to a few ulps times the condition number
    rng = np.random.default_rng(dim)
    eps = np.finfo(float).eps
    for _ in range(4):
        m = SpdMetric(random_spd_matrix(dim, 1.0, ratio, rng))
        kappa = np.linalg.cond(m.matrix)
        for b in rng.standard_normal((5, dim)):
            ref = spd_solve_dense(m.matrix, b)
            assert np.linalg.norm(m.solve(b) - ref) <= 8.0 * kappa * eps * np.linalg.norm(ref)
            ref_sq = spd_inv_norm_dense(m.matrix, b) ** 2
            assert abs(m.inv_norm(b) ** 2 - ref_sq) <= 8.0 * kappa * eps * ref_sq


def test_metric_inverse_factor_is_lazy_and_read_only():
    m = SpdMetric(random_spd_matrix(4, 0.5, 2.0, np.random.default_rng(5)))
    assert "inv_chol" not in vars(m) and "inverse" not in vars(m)  # nothing computed up front
    m.solve(np.ones(4))
    assert vars(m)["inv_chol"] is m.inv_chol and "inverse" not in vars(m)
    assert np.array_equal(np.tril(m.inv_chol), m.inv_chol)
    assert np.array_equal(m.inverse, m.inverse.T)
    for cached in (m.inv_chol, m.inverse):
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0, 0] = 1.0


def test_metric_rows_match_single_vectors():
    rng = np.random.default_rng(2)
    for dim in (1, 3, 8):
        m = SpdMetric(random_spd_matrix(dim, 0.5, 2.0, rng))
        rows = rng.standard_normal((7, dim))
        for method in (m.apply, m.solve, m.inv_norm):
            assert np.array_equal(method(rows), np.array([method(r) for r in rows]))
        assert np.array_equal(row_norm(rows), [np.linalg.norm(r) for r in rows])
        assert np.array_equal(row_dot(rows, rows[::-1]), [np.dot(a, b) for a, b in zip(rows, rows[::-1])])


def test_tiny_error_is_rejected_by_the_ips_test():
    # squaring 3e-290 underflowed to 0, so Phi = Psi = 0 accepted an error
    # with Phi = 3e-290 > Psi = 4.5e-291
    from proxlab.algorithms import _ips_step
    from proxlab.operators import Affine
    step = _ips_step(Affine(np.eye(1), np.zeros(1)), 1.0, 0.3, np.array([1e-300]))
    assert step.step(np.array([3e-290])).status == "reject"


def _extreme_rows(rng, count, dim):
    """Rows whose entries range from the subnormals to 1e150, zeros and NaNs among them."""
    rows = np.sign(rng.standard_normal((count, dim))) * 10.0 ** rng.uniform(-323.5, 150.0, (count, 1))
    rows *= 10.0 ** rng.uniform(-20.0, 0.0, (count, dim))
    rows[rng.random((count, dim)) < 0.2] = 0.0
    rows[:3] = [[0.0] * dim, [5e-324] * dim, [1e-146] * dim]
    rows[3, 0] = np.nan
    return rows


@pytest.mark.parametrize("dim", [1, 2, 8])
def test_row_norm_extreme_rows_match_hypot(dim):
    rng = np.random.default_rng([13, dim])
    rows = _extreme_rows(rng, 400, dim)
    norms = row_norm(rows)
    assert norms.tobytes() == np.array([row_norm(r) for r in rows]).tobytes()
    assert row_norm(rows.reshape(20, 20, dim)).tobytes() == norms.tobytes()
    ref = np.array([math.hypot(*r) for r in rows])
    assert np.isnan(norms[3]) and np.isnan(ref[3]) and norms[0] == 0.0
    ok = np.abs(norms - ref) <= 4e-16 * (dim + 1) * ref + 5e-324
    assert ok[4:].all() and ok[:3].all()
    # a sum of squares above tiny / eps keeps np.linalg.norm's bits
    big = row_dot(rows, rows) >= np.finfo(float).tiny / np.finfo(float).eps
    assert big.sum() > 100
    assert norms[big].tobytes() == np.array([np.linalg.norm(r) for r in rows[big]]).tobytes()
    # residual_norm keeps them on every row
    np.testing.assert_array_equal(residual_norm(rows), [np.linalg.norm(r) for r in rows])


def test_only_numerics_reduces_vectors():
    # every norm and pairing goes through numerics (reference.py is the
    # independent oracle), so a change of kernel is a change to numerics alone
    direct = re.compile(r"\b(np|numpy)\.(dot|linalg\.norm)\b|\.dot\(")
    src = Path(proxlab.__file__).parent
    hits = [f"{path.name}:{n}: {line.strip()}"
            for path in sorted(src.glob("*.py")) if path.name not in ("numerics.py", "reference.py")
            for n, line in enumerate(path.read_text().splitlines(), 1) if direct.search(line)]
    assert hits == []


def _outputs(x, eta):
    """The bits of every public entry point that reduces its input vectors."""
    dim = x.shape[0]
    f, op = euclidean(dim), SubdiffAbs(0.5, np.linspace(-1.0, 1.0, dim))
    inst = InclusionInstance(f=f, op=op, lam=0.7, x=x, eta=eta)
    sol = solve_inclusion(inst)
    step = ss_step(op, 1.5, 0.5, x, 0.01 * eta)
    return (as_vector(x).tobytes(), protoresolvent(f, op, 0.7, x).tobytes(), sol.y.tobytes(),
            sol.xi.tobytes(), repr(verify_solution(inst, sol.y, sol.xi)),
            repr(radius_search(f, op, 0.7, x, ss_form(0.5, 1.0 / 0.7), probes=4)),
            step.status, step.y.tobytes(), step.xi.tobytes(), repr(step.x_next))


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 64])
def test_column_views_keep_the_bits_of_their_copies(dim):
    # np.dot of a strided view takes BLAS's strided kernel, which may round
    # apart from the contiguous one: as_vector hands on contiguous copies
    big = np.random.default_rng([17, dim]).uniform(-3.0, 3.0, size=(dim, 6))
    for j in range(0, 6, 2):
        x, eta = big[:, j], big[:, j + 1]
        assert not x.flags.c_contiguous or dim == 1
        assert as_vector(x).flags.c_contiguous
        assert _outputs(x, eta) == _outputs(x.copy(), eta.copy())
