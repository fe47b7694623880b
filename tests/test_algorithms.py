import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import grid_argmin_1d
from proxlab import algorithms as alg
from proxlab import checks
from proxlab.errors import (ConfigError, DimensionMismatch, InfeasibleProjection,
                            SolverError, UpdateUndefined)
from proxlab.legendre import CoshSum, PowerEuclidean, QuadraticForm, bregman_distance, euclidean
from proxlab.numerics import SpdMetric
from proxlab.operators import Affine, SubdiffAbs, identity_op


def test_eckstein_step_examples():
    f = euclidean(1)
    ident = identity_op(1)
    assert alg.eckstein_step(f, ident, 1.0, [1.0], [0.0])[0] == pytest.approx(0.5)
    assert alg.eckstein_step(f, ident, 1.0, [1.0], [0.5])[0] == pytest.approx(0.75)
    abs1 = SubdiffAbs(1.0, np.zeros(1))
    assert alg.eckstein_step(f, abs1, 1.0, [0.0], [0.0])[0] == pytest.approx(0.0)


def test_ss_step_examples():
    abs1 = SubdiffAbs(1.0, np.zeros(1))
    res = alg.ss_step(abs1, 1.0, 0.5, [2.0], [0.0])
    assert res.status == "accepted"
    assert res.y[0] == pytest.approx(1.0)
    assert res.xi[0] == pytest.approx(1.0)
    assert res.x_next[0] == pytest.approx(1.0)

    res = alg.ss_step(abs1, 1.0, 0.5, [0.0], [0.0])
    assert res.status == "terminate" and res.certified_zero

    res = alg.ss_step(abs1, 1.0, 0.5, [2.0], [0.25])
    assert res.status == "accepted"
    assert res.y[0] == pytest.approx(0.75)
    assert res.xi[0] == pytest.approx(1.0)
    assert res.x_next[0] == pytest.approx(0.75)


def test_ss_step_reject_and_update_undefined():
    abs1 = SubdiffAbs(1.0, np.zeros(1))
    # eta too large relative to the residuals
    res = alg.ss_step(abs1, 1.0, 0.1, [2.0], [0.9])
    assert res.status == "reject"
    # constant-zero operator: xi vanishes while y != x
    zero_op = Affine(np.zeros((1, 1)), np.zeros(1))
    with pytest.raises(UpdateUndefined):
        alg.ss_step(zero_op, 1.0, 1.0, [2.0], [1.0])


def test_ss_projection_geometry():
    abs1 = SubdiffAbs(1.0, np.zeros(1))
    x = np.array([3.0])
    res = alg.ss_step(abs1, 2.0, 0.5, x, [0.2])
    # x_next is the orthogonal projection onto {z : <xi, z - y> = 0}
    assert np.dot(res.xi, res.x_next - res.y) == pytest.approx(0.0, abs=1e-10)


def test_ips_nu_examples():
    assert alg.ips_nu(0.0, 0.25, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert alg.ips_nu(0.25, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert alg.ips_nu(0.0, 0.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        alg.ips_nu(2.0, 1.0, 1.0)  # radicand 2 + (1-2)*4 < 0


def test_ips_step_examples():
    abs1 = SubdiffAbs(1.0, np.zeros(1))
    res = alg.ips_step(abs1, 1.0, 0.3, [2.0], [0.0])
    assert res.status == "accepted"
    assert res.y[0] == pytest.approx(1.0)
    assert res.x_next[0] == pytest.approx(1.0)

    res = alg.ips_step(abs1, 1.0, 0.3, [0.0], [0.0])
    assert res.status == "accepted" and res.x_next[0] == pytest.approx(0.0)

    # y = (1 + eta)/2; the bound nu |y - x| = 0.5 (1 - eta)/2 is crossed once
    # eta > 0.2, so 0.1 is accepted and 0.3 is rejected
    res = alg.ips_step(identity_op(1), 1.0, 0.5, [1.0], [0.1])
    assert res.status == "accepted"
    res = alg.ips_step(identity_op(1), 1.0, 0.5, [1.0], [0.3])
    assert res.status == "reject"


def test_pls_step_examples():
    ident = identity_op(1)
    res = alg.pls_step(ident, 1.0, SpdMetric.identity(1), 0.3, 1.0, [1.0], [0.0])
    assert res.status == "accepted"
    assert res.y[0] == pytest.approx(0.5, abs=1e-12)
    assert res.xi[0] == pytest.approx(0.5, abs=1e-12)
    assert res.x_next[0] == pytest.approx(0.5, abs=1e-12)

    res = alg.pls_step(ident, 1.0, SpdMetric.identity(1), 0.3, 1.0, [0.0], [0.0])
    assert res.status == "terminate" and res.certified_zero

    res = alg.pls_step(ident, 1.0, SpdMetric.diagonal([2.0]), 0.3, 1.0, [1.0], [0.0])
    assert res.y[0] == pytest.approx(1.0 / 3.0)
    assert res.xi[0] == pytest.approx(1.0 / 3.0)


def test_terminate_clause_defers_to_stop_residual():
    # a huge mu (ss) or a tiny c (pls) keeps y within zero_detect of x far from
    # any zero: the step's terminate clause fires, but the stop residual decides
    stop = alg.StopRule(max_iters=20, zero_detect=1e-8)
    specs = [alg.RunSpec(scheme="ss", x0=np.array([2.0]), op=SubdiffAbs(1.0, np.array([1.0])),
                         mu=alg.Schedule.constant(1e9), sigma=0.5),
             alg.RunSpec(scheme="pls", x0=np.array([1.0]), op=identity_op(1),
                         c=alg.Schedule.constant(1e-9))]
    for spec in specs:
        trace = alg.run(spec, alg.PerturbationPolicy.zero(), stop)
        assert not trace.converged and trace.termination_reason == "max_iters"
        assert trace.iterations == 20
        assert all(rec.note == "terminate" for rec in trace.records[1:])
        assert trace.final_residual > 0.49  # the iterate creeps by ~1e-9 a step


def test_terminate_clause_near_zero_converges():
    spec = alg.RunSpec(scheme="ss", x0=np.array([1.0 + 1.05e-8]), op=SubdiffAbs(1.0, np.array([1.0])),
                       mu=alg.Schedule.constant(1e9), sigma=0.5)
    trace = alg.run(spec, alg.PerturbationPolicy.zero(), alg.StopRule(max_iters=20, zero_detect=1e-8))
    assert trace.records[0].zero_residual > 1e-8
    assert trace.converged and trace.iterations == 1
    assert trace.records[1].note == "terminate(certified)"
    assert trace.final_residual <= 1e-8


def test_terminate_clause_reads_the_run_zero_detect():
    # a growing mu (ss) or a shrinking c (pls) shortens each step about tenfold;
    # the clause must fire at the first step shorter than the run's zero_detect
    # of 1e-3, which the 1e-8 default of the public steps would let pass
    stop = alg.StopRule(max_iters=4, zero_detect=1e-3)
    specs = [alg.RunSpec(scheme="ss", x0=np.array([1.0]), op=identity_op(1),
                         mu=alg.Schedule.geometric(100.0, 10.0), sigma=0.5),
             alg.RunSpec(scheme="pls", x0=np.array([1.0]), op=identity_op(1),
                         c=alg.Schedule.geometric(0.01, 0.1))]
    for spec in specs:
        trace = alg.run(spec, alg.PerturbationPolicy.zero(), stop)
        moves = [abs(b.x[0] - a.x[0]) for a, b in zip(trace.records, trace.records[1:])]
        first = next(k for k, move in enumerate(moves) if move < 1e-3)
        assert first == 1
        assert [rec.note for rec in trace.records[1:first + 2]] == ["", "terminate"]


def test_bregman_project_examples():
    f = euclidean(1)
    assert alg.bregman_project(f, [([1.0], 0.0)], [1.0])[0] == pytest.approx(0.0)
    assert alg.bregman_project(f, [([1.0], 0.75)], [1.0])[0] == pytest.approx(0.75)
    assert alg.bregman_project(f, [], [1.0])[0] == pytest.approx(1.0)


def test_bregman_project_euclidean_2d():
    f = euclidean(2)
    z = alg.bregman_project(f, [([1.0, 0.0], 0.0), ([0.0, 1.0], 0.0)], [2.0, 1.0])
    assert_allclose(z, [0.0, 0.0], atol=1e-12)
    z = alg.bregman_project(f, [([1.0, 1.0], 0.0)], [1.0, 1.0])
    assert_allclose(z, [0.0, 0.0], atol=1e-12)


def test_bregman_project_dual_path():
    # frozen grid oracle: argmin of D_f(., x) for f = cosh-sum, x = (1, -0.5)
    # subject to z0 + z1 <= 0 and z0 <= 0.2, refined to (0.2, -0.5)
    f = CoshSum(2)
    z = alg.bregman_project(f, [([1.0, 1.0], 0.0), ([1.0, 0.0], 0.2)], [1.0, -0.5])
    assert_allclose(z, [0.2, -0.5], atol=1e-6)
    # 1-D clamp against the grid oracle
    f1 = CoshSum(1)
    oracle = grid_argmin_1d(lambda t: bregman_distance(f1, [min(t, 0.25)], [1.5]))
    z = alg.bregman_project(f1, [([1.0], 0.25)], [1.5])
    assert z[0] == pytest.approx(min(oracle, 0.25), abs=1e-6)
    assert z[0] == pytest.approx(0.25, abs=1e-8)


def test_bregman_project_infeasible():
    f = euclidean(1)
    with pytest.raises(InfeasibleProjection):
        alg.bregman_project(f, [([1.0], 0.0), ([-1.0], -1.0)], [2.0])  # z <= 0 and z >= 1


def test_rs_step_worked_example():
    f = euclidean(1)
    it = alg.rs_step(f, [identity_op(1)], [1.0], [np.zeros(1)],
                     np.array([1.0]), np.array([1.0]), common_zero=np.zeros(1))
    assert it.ws[0][0] == pytest.approx(1.0)
    assert it.ys[0][0] == pytest.approx(0.5)
    assert it.xis[0][0] == pytest.approx(0.5)
    a, b = it.c_halfspaces[0]
    assert b / a[0] == pytest.approx(0.75)  # the cut is z <= 0.75
    assert it.q_halfspace is None
    assert it.x_next[0] == pytest.approx(0.75, abs=1e-10)


def test_rs_step_at_common_zero():
    f = euclidean(1)
    ops = [SubdiffAbs(1.0, np.zeros(1)), identity_op(1)]
    it = alg.rs_step(f, ops, [1.0, 1.0], [np.zeros(1), np.zeros(1)],
                     np.array([1.0]), np.zeros(1), common_zero=np.zeros(1))
    # all cuts degenerate to the whole space except the anchor cut
    assert all(h is None for h in it.c_halfspaces)


def test_rs_two_dimensional_invariants():
    # off-axis anchors can make progress slow, but the anchor distance is
    # nondecreasing, bounded by the distance to the common zero, and every cut
    # keeps the zero; the exact run contracts along the anchor ray
    ops = [SubdiffAbs(1.0, np.zeros(2)), identity_op(2)]
    x0 = np.array([1.0, 0.5])
    spec = alg.RunSpec(scheme="rs", x0=x0, ops=ops, common_zero=np.zeros(2))
    trace = alg.run(spec, alg.PerturbationPolicy.summable_geometric(0.05, 0.5, seed=9),
                    alg.StopRule(max_iters=300, zero_detect=1e-7))
    dists = [float(np.linalg.norm(x0 - rec.x)) for rec in trace.records]
    assert all(b >= a - 1e-10 for a, b in zip(dists, dists[1:]))
    assert all(d <= np.linalg.norm(x0) + 1e-10 for d in dists)
    assert np.all(checks.cut_margins(trace) <= 1e-10)

    exact = alg.run(spec, alg.PerturbationPolicy.zero(),
                    alg.StopRule(max_iters=300, zero_detect=1e-7))
    assert exact.converged and exact.iterations <= 60


def test_rs_under_cosh_geometry():
    f = CoshSum(1)
    spec = alg.RunSpec(scheme="rs", x0=np.array([1.0]), ops=[SubdiffAbs(1.0, np.zeros(1))],
                       f=f, common_zero=np.zeros(1))
    trace = alg.run(spec, alg.PerturbationPolicy.zero(),
                    alg.StopRule(max_iters=500, zero_detect=1e-7))
    assert trace.converged
    assert abs(trace.final_x[0]) <= 1e-6


def test_rs_keeps_small_cuts_in_power_geometry():
    # in power:rho=4 geometry the operator cuts have ||a|| ~ |x|^3; a cut is
    # degenerate only relative to its own gradient terms, so the cuts survive
    # near the zero and the run does not creep at |x| ~ 2e-5
    spec = alg.RunSpec(scheme="rs", x0=np.array([1.0]), f=PowerEuclidean(4.0, 1),
                       ops=[SubdiffAbs(1.0, np.zeros(1)), identity_op(1)])
    trace = alg.run(spec, alg.PerturbationPolicy.zero(), alg.StopRule(max_iters=80))
    assert trace.converged and trace.iterations <= 70
    assert abs(trace.final_x[0]) <= 1e-8


def test_protoresolvent_sum_with_box_member():
    from proxlab.resolvent import protoresolvent
    from proxlab.operators import NormalConeBox, OperatorSum
    op = OperatorSum([SubdiffAbs(1.0, np.zeros(1)), NormalConeBox(-0.5, 0.5, 1)])
    y = protoresolvent(euclidean(1), op, 1.0, np.array([3.0]))
    # soft threshold would give 2, but the box clamps the solution at 0.5
    assert y[0] == pytest.approx(0.5, abs=1e-12)


def test_schedules_and_policies_validate():
    assert alg.Schedule.constant(2.0).at(5) == 2.0
    geo = alg.Schedule.geometric(0.1, 0.5)
    assert geo.at(3) == pytest.approx(0.1 * 0.5 ** 3)
    with pytest.raises(ConfigError):
        alg.Schedule.constant(0.0)
    with pytest.raises(ConfigError):
        alg.Schedule.geometric(-1.0, 0.5)
    with pytest.raises(ConfigError):
        alg.PerturbationPolicy.summable_geometric(0.1, 1.0)  # q >= 1
    with pytest.raises(ConfigError):
        alg.PerturbationPolicy(kind="mystery")
    pol = alg.PerturbationPolicy.summable_geometric(0.1, 0.5, seed=3)
    assert np.linalg.norm(pol.draw(2, 3)) == pytest.approx(0.1 * 0.25)
    assert_allclose(pol.draw(2, 3), pol.draw(2, 3))  # deterministic per index


def test_run_reject_shrink_falls_back():
    # constant draws far beyond the relative bound must shrink but still step
    abs1 = SubdiffAbs(1.0, np.array([1.0]))
    spec = alg.RunSpec(scheme="ips", x0=np.array([3.0]), op=abs1, nu=0.1)
    trace = alg.run(spec, alg.PerturbationPolicy.constant_norm(5.0, seed=0),
                    alg.StopRule(max_iters=50, zero_detect=1e-8))
    assert trace.converged
    accepted = [rec for rec in trace.records[1:]]
    assert all("shrunk" in rec.note or rec.eta_norm == 0.0 for rec in accepted)
    _, _, gap = checks.ips_residuals(trace, abs1, 0.1)
    assert np.all(gap <= 1e-12)


def test_run_validates_spec():
    with pytest.raises(ConfigError):
        alg.RunSpec(scheme="nope", x0=np.zeros(1), op=identity_op(1))
    with pytest.raises(ConfigError):
        alg.RunSpec(scheme="rs", x0=np.zeros(1))  # missing operator list
    with pytest.raises(ConfigError):
        alg.RunSpec(scheme="ss", x0=np.zeros(1))


def test_run_trace_rows_are_contiguous():
    spec = alg.RunSpec(scheme="eckstein", x0=np.array([2.0, -1.0]),
                       op=Affine(np.eye(2), -np.array([0.5, 0.5])))
    trace = alg.run(spec, alg.PerturbationPolicy.zero(),
                    alg.StopRule(max_iters=80, zero_detect=1e-9))
    assert [rec.n for rec in trace.records] == list(range(len(trace.records)))
    assert trace.converged


def test_pls_radius_fraction_policy():
    op = Affine(np.eye(2), -np.array([0.4, -0.6]))
    spec = alg.RunSpec(scheme="pls", x0=np.zeros(2), op=op, sigma=0.4, tau=1.0,
                       metric=alg.MetricSchedule(kind="random_spd", seed=5))
    trace = alg.run(spec, alg.PerturbationPolicy.radius_fraction(0.5, seed=5),
                    alg.StopRule(max_iters=200, zero_detect=1e-7))
    assert trace.converged
    # drawn errors were accepted without shrinking: the mapped radius is valid
    for rec in trace.records[1:]:
        assert "shrunk" not in rec.note


def test_radius_fraction_rejected_for_unconditional_schemes():
    spec = alg.RunSpec(scheme="eckstein", x0=np.ones(1), op=identity_op(1))
    with pytest.raises(ConfigError):
        alg.run(spec, alg.PerturbationPolicy.radius_fraction(0.5),
                alg.StopRule(max_iters=5, zero_detect=1e-8))


def test_eckstein_with_cosh_geometry():
    # basic scheme under a non-Euclidean fully Legendre geometry
    f = CoshSum(1)
    op = SubdiffAbs(1.0, np.array([0.5]))
    spec = alg.RunSpec(scheme="eckstein", x0=np.array([2.0]), op=op, f=f)
    trace = alg.run(spec, alg.PerturbationPolicy.summable_geometric(0.05, 0.5, seed=4),
                    alg.StopRule(max_iters=200, zero_detect=1e-8))
    assert trace.converged
    assert trace.final_x[0] == pytest.approx(0.5, abs=1e-6)


def test_ips_subspace_projection():
    # perturbations constrained to span{(1, 0)}: the second component stays zero
    op = Affine(np.eye(2), -np.array([1.0, 1.0]))
    spec = alg.RunSpec(scheme="ips", x0=np.zeros(2), op=op, nu=0.4,
                       z_basis=np.array([[1.0, 0.0]]))
    trace = alg.run(spec, alg.PerturbationPolicy.constant_norm(0.05, seed=2),
                    alg.StopRule(max_iters=100, zero_detect=1e-8))
    assert trace.converged
    for rec in trace.records[1:]:
        assert abs(rec.eta[1]) <= 1e-12


def test_step_scalar_guards_reject_nan():
    abs1 = SubdiffAbs(1.0, np.zeros(1))
    # sigma = NaN used to pass every comparison, so the step was accepted
    with pytest.raises(ValueError):
        alg.ss_step(abs1, 1.0, np.nan, [2.0], [0.9])
    with pytest.raises(ValueError):
        alg.ss_step(abs1, np.nan, 0.5, [2.0], [0.0])
    with pytest.raises(ValueError):
        alg.ips_step(abs1, 1.0, np.nan, [2.0], [0.0])
    with pytest.raises(ValueError):
        alg.pls_step(abs1, 1.0, SpdMetric.identity(1), np.nan, 1.0, [2.0], [0.0])
    for zero_detect in (np.nan, 0.0, np.inf):
        with pytest.raises(ValueError):
            alg.ss_step(abs1, 1.0, 0.5, [2.0], [0.0], zero_detect=zero_detect)
        with pytest.raises(ValueError):
            alg.pls_step(abs1, 1.0, SpdMetric.identity(1), 0.5, 1.0, [2.0], [0.0],
                         zero_detect=zero_detect)
    with pytest.raises(ConfigError):
        alg.RunSpec(scheme="ss", x0=np.ones(1), op=abs1, sigma=np.nan)
    with pytest.raises(ConfigError):
        alg.StopRule(zero_detect=np.nan)
    with pytest.raises(ConfigError):
        alg.Schedule.constant(np.nan)


def test_rs_step_rejects_mismatched_lists():
    # zip used to drop the second operator while recording both errors
    f = euclidean(1)
    ops = [SubdiffAbs(1.0, np.zeros(1)), identity_op(1)]
    with pytest.raises(ValueError, match="one lam and one eta per operator"):
        alg.rs_step(f, ops, [1.0], [np.zeros(1), np.zeros(1)], np.ones(1), np.ones(1))
    with pytest.raises(ValueError, match="one lam and one eta per operator"):
        alg.rs_step(f, ops, [1.0, 1.0], [np.zeros(1)], np.ones(1), np.ones(1))
    it = alg.rs_step(f, ops, [1.0, 1.0], [np.zeros(1), np.zeros(1)], np.ones(1), np.ones(1))
    assert len(it.ys) == len(it.etas) == 2


def test_run_spec_checks_dimensions():
    with pytest.raises(DimensionMismatch):
        alg.RunSpec(scheme="ss", x0=np.ones(2), op=SubdiffAbs(1.0, np.zeros(3)))
    with pytest.raises(DimensionMismatch):
        alg.RunSpec(scheme="eckstein", x0=np.ones(2), op=identity_op(2), f=euclidean(3))
    with pytest.raises(DimensionMismatch):
        alg.RunSpec(scheme="rs", x0=np.ones(2), ops=[identity_op(2), identity_op(1)])
    with pytest.raises(DimensionMismatch):
        alg.RunSpec(scheme="ips", x0=np.ones(2), op=identity_op(2), z_basis=np.ones((1, 3)))
    with pytest.raises(ConfigError):
        alg.RunSpec(scheme="ss", x0=np.ones(2), op=identity_op(2), radius_probes=0)


def test_run_spec_rejects_a_foreign_geometry_for_ss_ips_pls():
    # these schemes run in their own geometry and used to ignore a given f
    abs1 = SubdiffAbs(1.0, np.zeros(1))
    for scheme in ("ss", "ips", "pls"):
        for f in (CoshSum(1), QuadraticForm(SpdMetric.diagonal([2.0]))):
            with pytest.raises(ConfigError) as info:
                alg.RunSpec(scheme=scheme, x0=[2.0], op=abs1, f=f)
            assert info.value.field == "legendre"
        alg.RunSpec(scheme=scheme, x0=[2.0], op=abs1, f=QuadraticForm(SpdMetric.identity(1)))
    alg.RunSpec(scheme="eckstein", x0=[2.0], op=abs1, f=CoshSum(1))


def test_euclidean_geometry_is_built_once_per_dimension(monkeypatch):
    f = euclidean(4)
    assert f is euclidean(4) and alg.MetricSchedule().at(3, 4) is f.metric
    assert not f.metric.matrix.flags.writeable and not f.metric._chol.flags.writeable
    built = []
    init = SpdMetric.__init__

    def counting(self, matrix):
        built.append(matrix)
        init(self, matrix)

    z = np.array([0.5, -0.25, 1.0, -0.75])
    d = np.array([0.5, 1.0, 1.5, 2.0])
    for scheme, op in (("ss", SubdiffAbs(1.0, z)), ("ips", Affine(np.diag(d), -d * z))):
        spec = alg.RunSpec(scheme=scheme, x0=z + 1.5, op=op, nu=0.3)
        with monkeypatch.context() as patch:
            patch.setattr(SpdMetric, "__init__", counting)
            trace = alg.run(spec, alg.PerturbationPolicy.constant_norm(0.05, seed=1),
                            alg.StopRule(max_iters=500, zero_detect=1e-8))
        assert trace.converged and trace.iterations >= 10 and built == []


def test_negative_ips_nu_is_a_typed_error():
    # sigma = 0.5, rho = 1, lambda_hat = 1 gives nu = -0.14, which rejected even
    # the zero error and ended run() in an AttributeError
    with pytest.raises(ValueError, match="sigma=0.5, rho=1.0, lambda_hat=1.0"):
        alg.ips_nu(0.5, 1.0, 1.0)
    abs1 = SubdiffAbs(1.0, np.zeros(1))
    for nu in (-0.1, np.inf):
        with pytest.raises(ValueError):
            alg.ips_step(abs1, 1.0, nu, [2.0], [0.0])
        with pytest.raises(ConfigError):
            alg.RunSpec(scheme="ips", x0=[2.0], op=abs1, nu=nu)


def test_shrink_fallback_rejecting_zero_is_a_solver_error():
    def step(eta):
        return alg.StepResult(status="reject", y=np.zeros(1))
    with pytest.raises(SolverError, match="zero error"):
        alg._shrink_until_accepted(step, [np.ones(1)], max_shrink=3)
