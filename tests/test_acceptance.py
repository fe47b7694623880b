"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on a passing suite.
"""

import json

import numpy as np
import pytest

from oracles import ss_radius_grid_oracle
from proxlab import algorithms as alg
from proxlab import checks, cli
from proxlab.legendre import CoshSum, PowerEuclidean, euclidean
from proxlab.operators import Affine, SubdiffAbs, identity_op
from proxlab.resolvent import holder_certify, radius_search, solve_inclusion, ss_form, verify_solution


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_prop42_roundtrip():
    rng = np.random.default_rng(1)
    total, oned = 10_000, 0
    for _ in range(total):
        inst = checks.random_instance(rng)
        sol = solve_inclusion(inst)
        rep = verify_solution(inst, sol.y, sol.xi)
        assert rep.membership_residual <= 1e-8, f"membership {rep.membership_residual} on {inst}"
        assert rep.linear_residual <= 1e-10, f"linear identity {rep.linear_residual} on {inst}"
        if inst.f.dim == 1:
            oned += 1
            assert checks.reference_gap(inst, sol.y) <= 1e-6, f"strategy disagreement on {inst}"
    _report(1, f"{total} random inclusions re-verified; "
               f"two solver strategies agree on all {oned} 1-D instances")


def test_criterion_2_conjugacy_suite():
    rng = np.random.default_rng(2)
    for f in checks.legendre_catalog():
        for _ in range(1000):
            x = rng.uniform(-3.0, 3.0, size=f.dim)
            assert checks.fenchel_young_gap(f, x) <= 1e-8
            assert checks.grad_inverse_residual(f, x) <= 1e-8
    for u in np.arange(-5.0, 5.0 + 1e-9, 0.1):
        assert checks.conjugate_gap(CoshSum(1), np.array([u])) <= 1e-10
    _report(2, "Fenchel-Young, gradient-inverse round trip, and the closed-form "
               "conjugate grid all hold at stated tolerances")


def test_criterion_3_holder_certification():
    rep1 = holder_certify(euclidean(2), SubdiffAbs(1.0, np.zeros(2)), 0.8, 2.0, 1.0,
                          samples=10_000, seed=3)
    assert rep1["violations"] == 0, rep1
    rep2 = holder_certify(PowerEuclidean(4.0, 1), SubdiffAbs(1.0, np.zeros(1)), 1.0,
                          4.0, 0.25, samples=10_000, seed=3)
    assert rep2["violations"] == 0, rep2
    _report(3, "0 violations on 10^4 pairs for the nonexpansive case and the "
               "exponent-1/3 power case")


def test_criterion_4_eckstein_convergence():
    z_star = np.array([1.0, 2.0])
    spec = alg.RunSpec(scheme="eckstein", x0=np.zeros(2),
                       op=Affine(np.eye(2), -z_star), lam=alg.Schedule.constant(1.0))
    trace = alg.run(spec, alg.PerturbationPolicy.summable_geometric(0.1, 0.5, seed=4),
                    alg.StopRule(max_iters=200, zero_detect=1e-14))
    err = float(np.linalg.norm(trace.final_x - z_star))
    assert trace.iterations <= 200 and err <= 1e-6, (trace.iterations, err)
    sums = trace.partial_sums
    assert len(sums) >= 30
    tail = sums[30:]
    assert max(tail) - min(tail) <= 1e-8, "partial sums are not Cauchy to 1e-8"
    _report(4, f"||x_n - z*|| = {err:.2e} after {trace.iterations} iterations; "
               f"perturbation pairing sums Cauchy to 1e-8")


def test_criterion_5_hybrid_projection_scheme():
    # the 1-D run converges in two steps, the 2-D one takes more
    iterations = []
    for x0, shift in (([2.0], [1.0]), ([3.0, 2.0], [1.0, -0.5])):
        shift = np.array(shift)
        op = SubdiffAbs(1.0, shift)
        spec = alg.RunSpec(scheme="ss", x0=np.array(x0), op=op,
                           mu=alg.Schedule.constant(1.0), sigma=0.5)
        trace = alg.run(spec, alg.PerturbationPolicy.radius_fraction(0.5, seed=5),
                        alg.StopRule(max_iters=500, zero_detect=1e-6))
        assert trace.converged and trace.iterations <= 500
        assert trace.final_residual <= 1e-6

        member, identity, gap = checks.ss_residuals(trace, op, 0.5)
        assert np.all(member <= 1e-8) and np.all(identity <= 1e-10) and np.all(gap <= 1e-12)
        assert np.all(checks.fejer_steps(trace, shift) <= 1e-10)
        iterations.append(trace.iterations)

    op = SubdiffAbs(1.0, np.array([1.0]))
    r = radius_search(euclidean(1), op, 1.0, np.array([2.0]), ss_form(0.5, 1.0))
    assert 0.4 <= r <= 0.55, r
    oracle = ss_radius_grid_oracle(2.0, 0.5, 1.0, shift=1.0)
    assert abs(r - oracle) <= 0.05, (r, oracle)
    _report(5, f"converged in {' and '.join(map(str, iterations))} iterations with all "
               f"conditions and Fejer monotonicity; radius {r:.4f} matches grid oracle {oracle:.4f}")


def test_criterion_6_ips():
    assert alg.ips_nu(0.0, 0.25, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert alg.ips_nu(0.25, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)

    op = SubdiffAbs(1.0, np.array([1.0]))
    spec = alg.RunSpec(scheme="ips", x0=np.array([2.0]), op=op, nu=0.3,
                       lam=alg.Schedule.constant(1.0))
    trace = alg.run(spec, alg.PerturbationPolicy.constant_norm(0.05, seed=6),
                    alg.StopRule(max_iters=500, zero_detect=1e-6))
    assert trace.converged and trace.iterations <= 500
    member, update, gap = checks.ips_residuals(trace, op, 0.3)
    assert np.all(member <= 1e-8) and np.all(gap <= 1e-12) and np.all(update <= 1e-12)
    _report(6, f"nu formula reproduced to 1e-12; converged in {trace.iterations} "
               f"iterations with the inclusion and relative-error conditions at "
               f"every accepted iterate")


def test_criterion_7_pls():
    z_star = np.array([0.5, -0.25, 1.0])
    op = Affine(np.eye(3), -z_star)
    spec = alg.RunSpec(scheme="pls", x0=np.zeros(3), op=op, sigma=0.3, tau=1.0,
                       c=alg.Schedule.constant(1.0),
                       metric=alg.MetricSchedule(kind="random_spd", eig_lo=0.5,
                                                 eig_hi=2.0, seed=7))
    trace = alg.run(spec, alg.PerturbationPolicy.summable_geometric(0.05, 0.7, seed=7),
                    alg.StopRule(max_iters=1000, zero_detect=1e-6))
    assert trace.converged and trace.iterations <= 1000
    assert trace.final_residual <= 1e-6

    from proxlab.numerics import SpdMetric
    res = alg.pls_step(identity_op(1), 1.0, SpdMetric.identity(1), 0.3, 1.0,
                       np.array([1.0]), np.zeros(1))
    assert abs(res.y[0] - 0.5) <= 1e-12
    assert abs(res.xi[0] - 0.5) <= 1e-12
    assert abs(res.x_next[0] - 0.5) <= 1e-12
    _report(7, f"variable-metric run converged in {trace.iterations} iterations; "
               f"1-D worked example exact to 1e-12")


def test_criterion_8_common_zero_scheme():
    f = euclidean(1)
    it = alg.rs_step(f, [identity_op(1)], [1.0], [np.zeros(1)],
                     np.array([1.0]), np.array([1.0]), common_zero=np.zeros(1))
    assert abs(it.x_next[0] - 0.75) <= 1e-10

    ops = [SubdiffAbs(1.0, np.zeros(1)), identity_op(1)]
    iters = {}
    for label, policy in (("exact", alg.PerturbationPolicy.zero()),
                          ("geometric", alg.PerturbationPolicy.summable_geometric(0.05, 0.5, seed=8))):
        spec = alg.RunSpec(scheme="rs", x0=np.array([1.0]), ops=ops,
                           common_zero=np.zeros(1))
        trace = alg.run(spec, policy, alg.StopRule(max_iters=2000, zero_detect=1e-8))
        assert trace.iterations <= 2000
        assert abs(trace.final_x[0]) <= 1e-4, trace.final_x
        assert np.all(checks.cut_margins(trace) <= 1e-10)
        iters[label] = trace.iterations
    _report(8, f"first step reproduces 0.75 to 1e-10; runs reach proj_Z(x0) = 0 in "
               f"{iters['exact']} (exact) and {iters['geometric']} (perturbed) iterations "
               f"with the common zero inside every recorded cut")


def test_criterion_9_degenerate_start():
    zero1 = np.zeros(1)
    cases = [
        ("eckstein", alg.RunSpec(scheme="eckstein", x0=zero1,
                                 op=SubdiffAbs(1.0, np.zeros(1)))),
        ("ss", alg.RunSpec(scheme="ss", x0=np.array([1.0]),
                           op=SubdiffAbs(1.0, np.array([1.0])), sigma=0.5)),
        ("ips", alg.RunSpec(scheme="ips", x0=zero1, op=SubdiffAbs(1.0, np.zeros(1)),
                            nu=0.3)),
        ("pls", alg.RunSpec(scheme="pls", x0=np.array([0.5]),
                            op=Affine(np.eye(1), -np.array([0.5])), sigma=0.3)),
        ("rs", alg.RunSpec(scheme="rs", x0=zero1,
                           ops=[SubdiffAbs(1.0, np.zeros(1)), identity_op(1)],
                           common_zero=zero1)),
    ]
    for name, spec in cases:
        trace = alg.run(spec, alg.PerturbationPolicy.zero(),
                        alg.StopRule(max_iters=50, zero_detect=1e-8))
        assert trace.iterations == 0, name
        assert trace.termination_reason == "zero detected", name
        assert trace.final_residual <= 1e-8, name
    _report(9, "all five schemes terminate at iteration 0 with the zero certified")


def test_criterion_10_determinism(tmp_path):
    cfg = {
        "space_dim": 2,
        "scheme": "eckstein",
        "x0": [0.0, 0.0],
        "operator": "affine:diag=1,b=-1,-2",
        "scheme_params": {"lambda": {"kind": "constant", "value": 1.0}},
        "policy": {"kind": "summable_geometric", "c": 0.1, "q": 0.5},
        "stop": {"max_iters": 200, "zero_detect": 1e-10},
        "seed": 42,
        "output_path": str(tmp_path / "det.csv"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path)]) == 0
    first = (tmp_path / "det.csv").read_bytes()
    assert cli.main(["run", str(path)]) == 0
    second = (tmp_path / "det.csv").read_bytes()
    assert first == second
    _report(10, f"two executions produced bit-identical CSV bodies "
                f"({len(first)} bytes)")
