import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import grid_argmin_1d, solve_separable_scalar
from proxlab import resolvent
from proxlab.errors import EmptyOperatorValue, NoStrategy, StrongImplicitnessFailure
from proxlab.legendre import CoshSum, PowerEuclidean, PowerP, QuadraticForm, euclidean
from proxlab.numerics import SpdMetric
from proxlab.operators import (Affine, GradientOfConvex, NormalConeBox, OperatorSum,
                               Scaled, SubdiffAbs, identity_op)
from proxlab.reference import (brute_force_protoresolvent, legendre_value,
                               operator_potential)
from proxlab.resolvent import (InclusionInstance, holder_certify, ips_form,
                               protoresolvent, radius_search, solve_inclusion,
                               ss_form, verify_solution)


def test_protoresolvent_soft_threshold():
    # oracle: argmin of 0.5 (y - 2)^2 + |y| over a refined grid is 1.0
    oracle = grid_argmin_1d(lambda y: 0.5 * (y - 2.0) ** 2 + abs(y))
    assert oracle == pytest.approx(1.0, abs=1e-6)
    y = protoresolvent(euclidean(1), SubdiffAbs(1.0, np.zeros(1)), 1.0, [2.0])
    assert y[0] == pytest.approx(1.0, abs=1e-12)


def test_protoresolvent_affine_and_cosh():
    assert protoresolvent(euclidean(1), identity_op(1), 1.0, [4.0])[0] == pytest.approx(2.0)
    assert protoresolvent(CoshSum(1), identity_op(1), 1.0, [0.0])[0] == pytest.approx(0.0)


def test_protoresolvent_normal_cone_is_projection():
    box = NormalConeBox(-1.0, 1.0, 2)
    y = protoresolvent(euclidean(2), box, 1.0, [3.0, -0.5])
    assert_allclose(y, [1.0, -0.5], atol=1e-12)


def test_protoresolvent_newton_path():
    op = GradientOfConvex("norm4", np.zeros(2), 2)
    w = np.array([2.0, -1.0])
    y = protoresolvent(euclidean(2), op, 0.7, w)
    # residual of y + 0.7 ||y||^2 y - w must vanish
    g = y + 0.7 * float(np.dot(y, y)) * y - w
    assert np.linalg.norm(g) <= 1e-10 * (1 + np.linalg.norm(w))


def test_no_strategy_error():
    with pytest.raises(NoStrategy):
        protoresolvent(PowerEuclidean(4.0, 3), SubdiffAbs(1.0, np.zeros(3)), 1.0,
                       [1.0, 2.0, 3.0])


def _multisection_pairings(dim, rng):
    """Seeded separable pairings over the catalog kinds the multisection meets."""
    def shift():
        return rng.uniform(-1.0, 1.0, size=dim)

    def diag():
        return np.diag(rng.uniform(0.0, 2.0, size=dim))

    def box():
        return NormalConeBox(-1.0 - rng.uniform(0.0, 1.0, size=dim), 1.0 + rng.uniform(0.0, 1.0, size=dim))

    fs = [CoshSum(dim), QuadraticForm(SpdMetric.diagonal(rng.uniform(0.5, 2.0, size=dim)))]
    if dim == 1:
        fs += [PowerEuclidean(1.5, 1), PowerEuclidean(3.0, 1), PowerP(1.5, 4.0, 1)]
    ops = [Affine(diag(), shift()), GradientOfConvex("logcosh", shift(), weight=1.5),
           GradientOfConvex("quartic", shift()),
           OperatorSum([SubdiffAbs(0.7, shift()), Affine(diag(), shift())]),
           OperatorSum([box(), SubdiffAbs(0.5, shift())]), Scaled(2.0, OperatorSum([box()]))]
    return [(f, op) for f in fs for op in ops]


@pytest.mark.parametrize("dim", [1, 8, 64])
def test_multisection_matches_scalar_bisection(dim):
    rng = np.random.default_rng([11, dim])
    eps = np.finfo(float).eps
    for f, op in _multisection_pairings(dim, rng):
        lam = float(rng.uniform(0.3, 2.0))
        w = rng.uniform(-4.0, 4.0, size=(3, dim))
        y = resolvent._solve_separable(f, op, lam, w)
        for row, y_row in zip(w, y):
            ref = solve_separable_scalar(f, op, lam, row)
            # the bisection stops at a relative width of 4 eps
            assert np.all(np.abs(y_row - ref) <= 8.0 * eps * np.maximum(1.0, np.abs(ref))), (f, op)
            assert np.array_equal(resolvent._solve_separable(f, op, lam, row), y_row)


@pytest.mark.parametrize("t", [1e-6, 1e-9])
@pytest.mark.parametrize("route", [lambda op: op, lambda op: OperatorSum([op])],
                         ids=["closed_form", "multisection"])
def test_small_separable_solutions_are_exact_relative(t, route):
    # an absolute stopping width used to leave errors of 4.8e-8 t (box) and
    # 8.3e-8 relative (cosh + abs) at t = 1e-9
    w = t * np.array([0.3, -0.7, 1.9])
    y = protoresolvent(euclidean(3), route(NormalConeBox(-t, t, 3)), 1.0, w)
    assert_allclose(y, np.clip(w, -t, t), rtol=1e-15, atol=0.0)
    y = protoresolvent(CoshSum(3), route(SubdiffAbs(0.5 * t, np.zeros(3))), 1.0, w)
    assert_allclose(y, np.arcsinh(np.sign(w) * np.maximum(np.abs(w) - 0.5 * t, 0.0)),
                    rtol=1e-15, atol=0.0)


def test_coupled_quartic_collapses_to_scalar_in_1d():
    # in 1-D the coupled quartic profile equals the separable one, so any
    # catalog f can drive it through the coordinate solver
    op = GradientOfConvex("norm4", np.zeros(1), 1)
    y = protoresolvent(CoshSum(1), op, 1.0, [2.0])
    assert np.sinh(y[0]) + y[0] ** 3 == pytest.approx(2.0, abs=1e-10)


def test_solve_inclusion_examples():
    f = euclidean(1)
    inst = InclusionInstance(f=f, op=identity_op(1), lam=1.0, x=np.zeros(1), eta=np.zeros(1))
    sol = solve_inclusion(inst)
    assert sol.y[0] == pytest.approx(0.0) and sol.xi[0] == pytest.approx(0.0)

    abs1 = SubdiffAbs(1.0, np.zeros(1))
    inst = InclusionInstance(f=f, op=abs1, lam=1.0, x=np.array([2.0]), eta=np.zeros(1))
    sol = solve_inclusion(inst)
    assert sol.y[0] == pytest.approx(1.0) and sol.xi[0] == pytest.approx(1.0)

    inst = InclusionInstance(f=f, op=abs1, lam=1.0, x=np.array([2.0]), eta=np.array([0.25]))
    sol = solve_inclusion(inst)
    assert sol.y[0] == pytest.approx(1.25) and sol.xi[0] == pytest.approx(1.0)


def test_verify_solution_reports():
    f = euclidean(1)
    abs1 = SubdiffAbs(1.0, np.zeros(1))
    inst = InclusionInstance(f=f, op=abs1, lam=1.0, x=np.array([2.0]), eta=np.zeros(1))
    sol = solve_inclusion(inst)
    assert verify_solution(inst, sol.y, sol.xi).passed

    rep = verify_solution(inst, sol.y + 0.1, sol.xi)
    assert not rep.passed
    assert rep.linear_residual == pytest.approx(0.1, abs=1e-12)

    rep = verify_solution(inst, [1.0], [2.0])
    assert not rep.membership_pass
    assert rep.membership_residual == pytest.approx(1.0)


def test_two_strategies_agree_1d():
    rng = np.random.default_rng(12)
    f_pool = [euclidean(1), CoshSum(1), PowerEuclidean(3.0, 1)]
    op_pool = [SubdiffAbs(1.0, np.zeros(1)), identity_op(1),
               NormalConeBox(-1.0, 1.0, 1), GradientOfConvex("quartic", np.zeros(1), 1)]
    for _ in range(40):
        f = f_pool[rng.integers(len(f_pool))]
        op = op_pool[rng.integers(len(op_pool))]
        lam = float(rng.uniform(0.3, 2.0))
        w = rng.uniform(-4.0, 4.0, size=1)
        y = protoresolvent(f, op, lam, w)
        ref = brute_force_protoresolvent(f, op, lam, w)
        assert np.linalg.norm(y - ref) <= 1e-6


_DIAG_F = QuadraticForm(SpdMetric.diagonal([2.0, 3.0]))
_DIAG_A = Affine(np.diag([1.0, 0.5]), np.array([0.4, -0.2]))


@pytest.mark.parametrize("f, op, lam, w, expected", [
    # soft threshold: sign(w) max(|w| - lam, 0)
    (euclidean(2), SubdiffAbs(1.0, np.zeros(2)), 0.8, [2.5, -0.3], [1.7, 0.0]),
    # projection onto the box: clamp
    (euclidean(2), NormalConeBox(-1.0, 1.0, 2), 1.3, [3.0, -0.5], [1.0, -0.5]),
    # linear solve (D + lam M) y = w - lam b
    (_DIAG_F, _DIAG_A, 0.7, [1.0, -2.0],
     np.linalg.solve(np.diag([2.0, 3.0]) + 0.7 * np.diag([1.0, 0.5]),
                     np.array([1.0, -2.0]) - 0.7 * np.array([0.4, -0.2]))),
])
def test_two_strategies_agree_2d_closed_forms(f, op, lam, w, expected):
    w = np.asarray(w)
    ref = brute_force_protoresolvent(f, op, lam, w, rounds=30)
    assert np.linalg.norm(ref - expected) <= 1e-6
    assert np.linalg.norm(protoresolvent(f, op, lam, w) - expected) <= 1e-6


def test_brute_force_rowwise_values_match_single_rows():
    rng = np.random.default_rng(5)
    rows = rng.uniform(-2.0, 2.0, size=(7, 2))
    fs = [euclidean(2), _DIAG_F, CoshSum(2), PowerEuclidean(3.0, 2), PowerP(4.0, 3.0, 2)]
    ops = [SubdiffAbs(0.5, np.ones(2)), _DIAG_A, NormalConeBox(-1.0, 1.0, 2),
           GradientOfConvex("norm4", np.zeros(2), 2), Scaled(2.0, identity_op(2)),
           OperatorSum([SubdiffAbs(1.0, np.zeros(2)), GradientOfConvex("logcosh", np.zeros(2), 2)])]
    for f in fs:
        assert_allclose(legendre_value(f, rows), [f.value(r) for r in rows], rtol=1e-13)
    for op in ops:
        many = operator_potential(op, rows)
        assert many.shape == (7,)
        assert_allclose(many, [operator_potential(op, r) for r in rows], rtol=1e-13)
    assert operator_potential(NormalConeBox(-1.0, 1.0, 2), np.array([2.0, 0.0])) == np.inf


def test_brute_force_skips_nan_points():
    # at the far end of this grid f(y) and <w, y> both overflow, so h is NaN there
    ref = brute_force_protoresolvent(euclidean(1), identity_op(1), 1.0, np.array([1e154]))
    assert ref[0] == pytest.approx(5e153, rel=1e-6)


def test_brute_force_without_finite_grid_point_raises():
    # the box [0.01, 0.05] falls between the 81 points of the first round
    with pytest.raises(EmptyOperatorValue, match="round 0.*box"):
        brute_force_protoresolvent(euclidean(1), NormalConeBox(0.01, 0.05, 1), 1.0, np.zeros(1))


def test_brute_force_rejects_oversized_rounds():
    # 9**7 points per round in dim 7 would not fit one array; nothing is allocated
    with pytest.raises(ValueError, match="grid points per round"):
        brute_force_protoresolvent(euclidean(7), identity_op(7), 1.0, np.zeros(7))


def test_exact_case_degeneration():
    f = CoshSum(2)
    op = SubdiffAbs(1.0, np.zeros(2))
    x = np.array([1.5, -0.4])
    sol = solve_inclusion(InclusionInstance(f=f, op=op, lam=0.8, x=x, eta=np.zeros(2)))
    direct = protoresolvent(f, op, 0.8, f.gradient(x))
    assert np.linalg.norm(sol.y - direct) <= 1e-10


def test_continuous_dependence_modulus():
    f = euclidean(2)
    op = SubdiffAbs(1.0, np.zeros(2))
    inst = InclusionInstance(f=f, op=op, lam=1.0, x=np.array([2.0, -1.0]),
                             eta=np.array([0.1, 0.2]))
    base = solve_inclusion(inst)
    rng = np.random.default_rng(3)
    moves = []
    for delta in (1e-2, 1e-3, 1e-4):
        worst = 0.0
        for _ in range(8):
            dx = rng.standard_normal(2)
            dx *= delta / np.linalg.norm(dx)
            de = rng.standard_normal(2)
            de *= delta / np.linalg.norm(de)
            pert = solve_inclusion(InclusionInstance(
                f=f, op=op, lam=1.0, x=inst.x + dx, eta=inst.eta + de))
            worst = max(worst, float(np.linalg.norm(pert.y - base.y)
                                     + np.linalg.norm(pert.xi - base.xi)))
        moves.append(worst)
    assert moves[0] >= moves[1] >= moves[2]


def test_holder_certify():
    f = euclidean(1)
    # coincident inputs satisfy the bound trivially: both sides vanish
    w = np.array([0.7])
    y1 = protoresolvent(f, SubdiffAbs(1.0, np.zeros(1)), 1.0, w)
    y2 = protoresolvent(f, SubdiffAbs(1.0, np.zeros(1)), 1.0, w)
    assert np.linalg.norm(y1 - y2) <= (0.0 / 1.0) ** 1.0 + 1e-8
    rep = holder_certify(f, SubdiffAbs(1.0, np.zeros(1)), 1.0, 2.0, 1.0, samples=50, seed=0)
    assert rep["passed"] and rep["exponent"] == 1.0
    rep = holder_certify(PowerEuclidean(4.0, 1), SubdiffAbs(1.0, np.zeros(1)), 1.0,
                         4.0, 0.25, samples=200, seed=1)
    assert rep["passed"] and rep["exponent"] == pytest.approx(1.0 / 3.0)


def test_radius_search_soft_threshold_instance():
    f = euclidean(1)
    abs1 = SubdiffAbs(1.0, np.zeros(1))
    r = radius_search(f, abs1, 1.0, np.array([2.0]), ss_form(0.5, 1.0))
    assert 0.4 <= r <= 0.55


def test_radius_search_failure_modes():
    f = euclidean(1)
    abs1 = SubdiffAbs(1.0, np.zeros(1))
    with pytest.raises(StrongImplicitnessFailure):
        radius_search(f, abs1, 1.0, np.zeros(1), ss_form(0.5, 1.0))  # x is a zero
    with pytest.raises(StrongImplicitnessFailure):
        radius_search(f, abs1, 1.0, np.array([2.0]), ss_form(0.0, 1.0))  # sigma = 0


def test_radius_search_ips_form():
    f = euclidean(1)
    abs1 = SubdiffAbs(1.0, np.zeros(1))
    r = radius_search(f, abs1, 1.0, np.array([2.0]), ips_form(0.3, 1.0))
    assert r > 0.0


def test_quadratic_metric_affine_closed_form():
    metric = SpdMetric([[2.0, 0.5], [0.5, 1.0]])
    from proxlab.legendre import QuadraticForm
    f = QuadraticForm(metric)
    m_a = np.array([[1.0, 0.2], [0.2, 0.5]])
    op = Affine(m_a, np.array([0.1, -0.3]))
    lam = 0.7
    w = np.array([1.0, 2.0])
    y = protoresolvent(f, op, lam, w)
    assert_allclose(metric.matrix @ y + lam * (m_a @ y + op.offset), w, atol=1e-10)


def test_verify_requires_positive_lambda():
    with pytest.raises(ValueError):
        InclusionInstance(f=euclidean(1), op=identity_op(1), lam=0.0,
                          x=np.zeros(1), eta=np.zeros(1))


def test_radius_search_needs_a_probe():
    # without probes the search returned its unprobed start r0 = 1 + ||x|| = 3.236;
    # 16 probes find about 0.59 for this 2-D case
    f = euclidean(2)
    op = SubdiffAbs(1.0, np.zeros(2))
    x = np.array([1.0, -2.0])
    for bad in ({"probes": 0}, {"probes": -1}, {"magnitudes": ()},
                {"magnitudes": (0.5, 1.5)}, {"magnitudes": (0.0,)}):
        with pytest.raises(ValueError):
            radius_search(f, op, 1.0, x, ss_form(0.5, 1.0), **bad)
    assert radius_search(f, op, 1.0, x, ss_form(0.5, 1.0), probes=16) < 1.0


@pytest.mark.parametrize("lam", [np.nan, np.inf, 0.0, -1.0])
def test_lambda_guards_reject_nan_and_inf(lam):
    f, op = euclidean(1), SubdiffAbs(1.0, np.zeros(1))
    with pytest.raises(ValueError):
        InclusionInstance(f=f, op=op, lam=lam, x=np.ones(1), eta=np.zeros(1))
    with pytest.raises(ValueError):
        protoresolvent(f, op, lam, np.ones(1))
    with pytest.raises(ValueError):
        radius_search(f, op, lam, np.ones(1), ss_form(0.5, 1.0))


def test_certificate_rejects_nan_residual():
    # a NaN candidate must fail the certificate, not pass it by comparison
    from proxlab.errors import SolverError
    from proxlab.resolvent import _certify
    with pytest.raises(SolverError):
        _certify(euclidean(1), SubdiffAbs(1.0, np.zeros(1)), 1.0, np.ones(1), np.array([np.nan]))


def test_radius_search_nan_form_is_not_strongly_implicit():
    f, op = euclidean(1), SubdiffAbs(1.0, np.zeros(1))
    with pytest.raises(StrongImplicitnessFailure):
        radius_search(f, op, 1.0, np.array([2.0]), ss_form(np.nan, 1.0))
