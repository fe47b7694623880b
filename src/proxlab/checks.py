"""Executable invariant suites behind the `check` subcommand, and the one
measure of each invariant, which returns residuals that the suites and the
tests bound.  A measure the library needs itself stays next to it.

Suites are grouped as legendre (conjugacy and numerics), resolvent (inclusion
round trips, operator oracles, continuity), and algorithms (scheme-condition
audits).  Each check reports a pass flag plus counters; nothing here proves a
property, it samples it at a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algorithms as alg
from .legendre import (CoshSum, PowerEuclidean, PowerP, QuadraticForm,
                       bregman_distance, euclidean, grad_inverse_residual)
from .numerics import SpdMetric, pairing, random_spd_matrix, residual_norm
from .operators import (Affine, GradientOfConvex, NormalConeBox, OperatorSum, Scaled,
                        SubdiffAbs, enlargement_residual, identity_op, zero_residual)
from .reference import brute_force_protoresolvent
from .resolvent import (InclusionInstance, holder_certify, ips_form, pls_form, protoresolvent,
                        solve_inclusion, ss_form, verify_solution)

SUITES = ("legendre", "resolvent", "algorithms")


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


#  sample catalogs

def legendre_catalog():
    return [
        euclidean(2),
        QuadraticForm(SpdMetric.diagonal([2.0, 3.0])),
        QuadraticForm(SpdMetric([[2.0, 0.5], [0.5, 1.5]])),
        CoshSum(3),
        PowerEuclidean(4.0, 2),
        PowerEuclidean(3.0, 1),
        PowerP(4.0, 4.0, 2),
        PowerP(3.0, 2.5, 1),
    ]


def operator_catalog(dim):
    ops = [
        SubdiffAbs(1.0, np.zeros(dim)),
        SubdiffAbs(0.5, np.linspace(-1.0, 1.0, dim)),
        Affine(np.diag(np.linspace(0.5, 2.0, dim)), np.zeros(dim)),
        identity_op(dim),
        NormalConeBox(-np.ones(dim), np.ones(dim)),
        GradientOfConvex("logcosh", np.zeros(dim), dim),
        GradientOfConvex("quartic", np.full(dim, 0.5), dim),
        Scaled(0.5, SubdiffAbs(1.0, np.zeros(dim))),
        OperatorSum([SubdiffAbs(1.0, np.zeros(dim)),
                     Affine(np.diag(np.full(dim, 0.5)), np.zeros(dim))]),
    ]
    if dim > 1:
        ops.append(GradientOfConvex("norm4", np.zeros(dim), dim))
    return ops


def _separable_ops(rng, dim):
    """Separable operator pool used when f is separable but not Euclidean."""
    choices = [
        lambda: SubdiffAbs(rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0, size=dim)),
        lambda: Affine(np.diag(rng.uniform(0.1, 2.0, size=dim)), rng.uniform(-1.0, 1.0, size=dim)),
        lambda: NormalConeBox(rng.uniform(-3.0, -0.5, size=dim), rng.uniform(0.5, 3.0, size=dim)),
        lambda: GradientOfConvex("logcosh", rng.uniform(-1.0, 1.0, size=dim), dim),
        lambda: GradientOfConvex("quartic", rng.uniform(-1.0, 1.0, size=dim), dim),
        lambda: Scaled(rng.uniform(0.3, 2.0), SubdiffAbs(1.0, rng.uniform(-1.0, 1.0, size=dim))),
        lambda: OperatorSum([
            SubdiffAbs(rng.uniform(0.2, 1.0), rng.uniform(-1.0, 1.0, size=dim)),
            Affine(np.diag(rng.uniform(0.1, 1.5, size=dim)), rng.uniform(-0.5, 0.5, size=dim)),
        ]),
    ]
    return choices[rng.integers(len(choices))]()


def random_instance(rng) -> InclusionInstance:
    """Random solvable (f, A, lam, x, eta) over the catalog, dims <= 5."""
    dim = int(rng.integers(1, 6))
    lam = float(rng.uniform(0.25, 2.5))
    kind = rng.integers(6)
    if kind == 0:
        f = euclidean(dim)
        roll = rng.integers(3)
        if roll == 0:
            op = _separable_ops(rng, dim)
        elif roll == 1:
            op = Affine(random_spd_matrix(dim, 0.1, 2.0, rng), rng.uniform(-1.0, 1.0, size=dim))
        else:
            op = GradientOfConvex("norm4", rng.uniform(-1.0, 1.0, size=dim), dim)
    elif kind == 1:
        f = QuadraticForm(SpdMetric.diagonal(rng.uniform(0.5, 3.0, size=dim)))
        op = _separable_ops(rng, dim)
    elif kind == 2:
        f = QuadraticForm(SpdMetric(random_spd_matrix(dim, 0.5, 3.0, rng)))
        op = Affine(random_spd_matrix(dim, 0.1, 2.0, rng), rng.uniform(-1.0, 1.0, size=dim))
    elif kind == 3:
        f = CoshSum(dim)
        op = _separable_ops(rng, dim)
    elif kind == 4:
        # constant operator in a non-separable geometry: gradient-inverse route
        f = PowerEuclidean(float(rng.uniform(2.0, 4.0)), dim)
        op = Affine(np.zeros((dim, dim)), rng.uniform(-1.0, 1.0, size=dim))
    else:
        dim = 1
        f = PowerEuclidean(float(rng.uniform(2.0, 5.0)), 1) if rng.random() < 0.5 \
            else PowerP(float(rng.uniform(1.5, 4.0)), float(rng.uniform(2.0, 4.0)), 1)
        op = _separable_ops(rng, 1)
    x = rng.uniform(-3.0, 3.0, size=dim)
    eta = rng.uniform(-2.0, 2.0, size=dim)
    return InclusionInstance(f=f, op=op, lam=lam, x=x, eta=eta)


#  invariant measures

def pairing_asymmetry(a, b):
    """|<a, b> - <b, a>| relative to 1 + |<a, b>|: 0 for the symmetric pairing."""
    ab = pairing(a, b)
    return abs(ab - pairing(b, a)) / (1.0 + abs(ab))


def metric_norm_gap(m, w):
    """| ||w||_M^2 - <M w, w> | relative to 1 + <M w, w>."""
    mww = pairing(m.apply(w), w)
    return abs(m.norm(w) ** 2 - mww) / (1.0 + abs(mww))


def solve_roundtrip_residual(m, b):
    """||M (M^{-1} b) - b|| relative to 1 + ||b||."""
    return residual_norm(m.apply(m.solve(b)) - b) / (1.0 + residual_norm(b))


def fenchel_young_gap(f, x):
    """|f(x) + f*(grad f(x)) - <grad f(x), x>| relative to 1 + |f(x)| (Fenchel-Young)."""
    g, fx = f.gradient(x), f.value(x)
    return abs(fx + f.conjugate_value(g) - pairing(g, x)) / (1.0 + abs(fx))


def conjugate_gap(f, u):
    """|f*(u) through the gradient inverse - the closed-form f*(u)|."""
    return abs(f.conjugate_value(u) - f.closed_form_conjugate(u))


def bregman_separation_gaps(f, y, x):
    """-D_f(y, x), and ||y - x|| if D_f(y, x) <= 1e-12 else 0: small, as D_f > 0 off y = x."""
    d = bregman_distance(f, y, x)
    return -d, residual_norm(y - x) if d <= 1e-12 else 0.0


def finite_difference_gap(f, x):
    """||grad f(x) - central differences with step 1e-5 (1 + ||x||)|| relative to 1 + ||grad f(x)||."""
    h = 1e-5 * (1.0 + residual_norm(x))
    g = f.gradient(x)
    fd = np.array([(f.value(x + e) - f.value(x - e)) / (2.0 * h) for e in h * np.eye(f.dim)])
    return residual_norm(fd - g) / (1.0 + residual_norm(g))


def monotonicity_gap(op, count, rng):
    """min <xi_i - xi_j, y_i - y_j> over `count` sampled graph points: >= 0 if A is monotone."""
    ys, xis = op.sample_graph(count, rng)
    s = np.einsum("ij,ij->i", xis, ys)
    cross = xis @ ys.T
    return float(np.min(s[:, None] + s[None, :] - cross - cross.T))


def enlargement_eps_rise(op, y, xi, eps_levels, witness_budget):
    """Largest rise of the finite sampled enlargement residuals from one eps level to the next: <= 0."""
    vals = [enlargement_residual(op, e, y, xi, witness_budget=witness_budget) for e in eps_levels]
    finite = [v for v in vals if np.isfinite(v)]
    return max((b - a for a, b in zip(finite, finite[1:])), default=0.0)


def scaling_law_sides(op, lam, y, xi):
    """dist(xi, (lam A)(y)) and lam dist(xi / lam, A(y)), equal by the scaling law."""
    return Scaled(lam, op).membership_residual(y, xi), lam * op.membership_residual(y, xi / lam)


def reference_gap(inst, y):
    """Distance of y to the brute-force protoresolvent at the instance's shifted point."""
    w = inst.lam * inst.eta + inst.f.gradient(inst.x)
    return residual_norm(brute_force_protoresolvent(inst.f, inst.op, inst.lam, w) - y)


def exact_case_gap(f, op, lam, x):
    """Distance of the inclusion's y at eta = 0 to its equal, the protoresolvent of grad f(x)."""
    exact = solve_inclusion(InclusionInstance(f=f, op=op, lam=lam, x=x, eta=np.zeros(f.dim)))
    return residual_norm(exact.y - protoresolvent(f, op, lam, f.gradient(x)))


def perturbation_moves(inst, rng, deltas, draws):
    """Per delta, the largest ||y' - y|| + ||xi' - xi|| over `draws` moves of x and eta
    by norm delta: it shrinks with delta, as the solution depends continuously on them."""
    base = solve_inclusion(inst)
    moves = []
    for d in deltas:
        worst = 0.0
        for _ in range(draws):
            dx, de = (v * (d / residual_norm(v)) for v in rng.standard_normal((2, inst.f.dim)))
            pert = solve_inclusion(InclusionInstance(
                f=inst.f, op=inst.op, lam=inst.lam, x=inst.x + dx, eta=inst.eta + de))
            worst = max(worst, residual_norm(pert.y - base.y) + residual_norm(pert.xi - base.xi))
        moves.append(worst)
    return moves


def _per_step(trace, residuals):
    """The three residuals(prev, rec) of each step of a trace, as three arrays."""
    rows = [residuals(prev, rec) for prev, rec in zip(trace.records, trace.records[1:])]
    return np.array(rows, dtype=float).reshape(-1, 3).T


def ss_residuals(trace, op, sigma):
    """Per step of an ss trace: dist(xi, A(y)), ||xi + mu (y - x) + eta|| and
    Phi - Psi of the ss form, which the step keeps nonpositive."""
    return _per_step(trace, lambda prev, rec: (
        op.membership_residual(rec.y, rec.xi),
        residual_norm(rec.xi + rec.step_param * (rec.y - prev.x) + rec.eta),
        ss_form(sigma, rec.step_param).gap(rec.eta, rec.xi, prev.x, rec.y)))


def ips_residuals(trace, op, nu):
    """Per step of an ips trace: dist(xi, A(y)) for xi = (eta - (y - x)) / lam,
    ||x_next - (y - eta)|| and Phi - Psi of the ips form."""
    def step(prev, rec):
        lam = rec.step_param
        xi = (rec.eta - (rec.y - prev.x)) / lam
        return (op.membership_residual(rec.y, xi), residual_norm(rec.x - (rec.y - rec.eta)),
                ips_form(nu, lam).gap(rec.eta / lam, xi, prev.x, rec.y))
    return _per_step(trace, step)


def pls_residuals(trace, op, sigma):
    """Per step of a pls trace: dist(xi, A(y)), ||eta - (c M xi + y - x)|| and
    Phi - Psi of the pls form in the step's metric M."""
    def step(prev, rec):
        c, metric = rec.step_param, rec.extra["metric"]
        return (op.membership_residual(rec.y, rec.xi),
                residual_norm(rec.eta - (c * metric.apply(rec.xi) + rec.y - prev.x)),
                pls_form(sigma, c, metric).gap(rec.eta, rec.xi, prev.x, rec.y))
    return _per_step(trace, step)


def fejer_steps(trace, z):
    """||x_n - z|| - ||x_{n-1} - z|| per step: <= 0 while no step moves away from the zero z."""
    return np.diff([residual_norm(rec.x - z) for rec in trace.records])


def cut_margins(trace):
    """Per rs step, the largest signed distance of the common zero past one of
    the step's cuts (-inf without cuts): nonpositive while every cut keeps it."""
    return np.array([np.max(rec.extra["rs"].zero_margins, initial=-np.inf)
                     for rec in trace.records[1:]])


#  legendre suite (includes the shared numerics invariants)

def _check_numerics(rng):
    ok_pair, ok_norm, ok_solve = True, True, True
    for _ in range(1000):
        dim = int(rng.integers(1, 9))
        a = rng.uniform(-5.0, 5.0, size=dim)
        b = rng.uniform(-5.0, 5.0, size=dim)
        ok_pair &= pairing_asymmetry(a, b) <= 1e-12
        m = SpdMetric(random_spd_matrix(dim, 0.2, 3.0, rng))
        ok_norm &= metric_norm_gap(m, rng.uniform(-5.0, 5.0, size=dim)) <= 1e-12
        ok_solve &= solve_roundtrip_residual(m, b) <= 1e-10
    return [
        CheckResult("numerics.pairing_symmetry", ok_pair, "1000 random pairs"),
        CheckResult("numerics.metric_norm_identity", ok_norm, "1000 random metrics"),
        CheckResult("numerics.spd_solve_roundtrip", ok_solve, "1000 random SPD solves"),
    ]


def legendre_suite(seed=1):
    rng = np.random.default_rng(seed)
    results = _check_numerics(rng)

    fenchel_bad = roundtrip_bad = 0
    for f in legendre_catalog():
        for _ in range(1000):
            x = rng.uniform(-3.0, 3.0, size=f.dim)
            fenchel_bad += fenchel_young_gap(f, x) > 1e-8
            roundtrip_bad += grad_inverse_residual(f, x) > 1e-8
    results.append(CheckResult("legendre.fenchel_young", fenchel_bad == 0,
                               f"{fenchel_bad} failures over catalog x 1000"))
    results.append(CheckResult("legendre.grad_inverse_roundtrip", roundtrip_bad == 0,
                               f"{roundtrip_bad} failures over catalog x 1000"))

    grid_bad = sum(conjugate_gap(CoshSum(1), np.array([u])) > 1e-10
                   for u in np.arange(-5.0, 5.0 + 1e-9, 0.1))
    results.append(CheckResult("legendre.conjugate_vs_closed_form", grid_bad == 0,
                               f"{grid_bad} grid failures on [-5, 5]"))

    breg_bad = 0
    for f in legendre_catalog():
        for _ in range(300):
            x = rng.uniform(-3.0, 3.0, size=f.dim)
            y = rng.uniform(-3.0, 3.0, size=f.dim)
            negative, unseparated = bregman_separation_gaps(f, y, x)
            breg_bad += (negative > 1e-12) + (unseparated > 1e-6)
    results.append(CheckResult("legendre.bregman_nonnegativity", breg_bad == 0,
                               f"{breg_bad} failures over catalog x 300"))

    fd_bad = 0
    for f in legendre_catalog():
        for _ in range(200):
            x = rng.uniform(-3.0, 3.0, size=f.dim)
            if residual_norm(x) >= 0.3:  # nonsmooth-looking origins are excluded from the stencil
                fd_bad += finite_difference_gap(f, x) > 1e-6
    results.append(CheckResult("legendre.gradient_vs_finite_differences", fd_bad == 0,
                               f"{fd_bad} failures over catalog x 200"))
    return results


#  resolvent suite (includes the operator-oracle invariants)

def _check_operators(rng):
    results = []
    mono_bad = sum(monotonicity_gap(op, 150, rng) < -1e-10
                   for dim in (1, 3) for op in operator_catalog(dim))
    results.append(CheckResult("operators.monotonicity_audit", mono_bad == 0,
                               f"{mono_bad} operators failed the pairwise audit"))

    scale_bad = 0
    for _ in range(300):
        dim = int(rng.integers(1, 4))
        base = _separable_ops(rng, dim)
        lam = float(rng.uniform(0.2, 3.0))
        y = base._clamp_to_domain(rng.uniform(-2.0, 2.0, size=dim))
        lhs, rhs = scaling_law_sides(base, lam, y, rng.uniform(-2.0, 2.0, size=dim))
        scale_bad += abs(lhs - rhs) > 1e-12 * (1.0 + abs(rhs))
    results.append(CheckResult("operators.scaling_law", scale_bad == 0,
                               f"{scale_bad} failures over 300 samples"))

    enl_bad = 0
    for _ in range(40):
        dim = int(rng.integers(1, 3))
        op = _separable_ops(rng, dim)
        y = op._clamp_to_domain(rng.uniform(-1.5, 1.5, size=dim))
        xi = rng.uniform(-2.0, 2.0, size=dim)
        enl_bad += enlargement_eps_rise(op, y, xi, (0.0, 0.25, 0.5, 1.0), 64) > 1e-12
    results.append(CheckResult("operators.enlargement_monotone_in_eps", enl_bad == 0,
                               f"{enl_bad} failures over 40 samples"))

    f1 = euclidean(1)
    zero_ok = (
        zero_residual(SubdiffAbs(1.0, np.array([1.0])), f1, 1.0, np.array([1.0])) <= 1e-8
        and zero_residual(SubdiffAbs(1.0, np.array([1.0])), f1, 1.0, np.array([2.5])) > 1e-8
        and zero_residual(identity_op(2), euclidean(2), 1.0, np.zeros(2)) <= 1e-8
        and zero_residual(NormalConeBox(-1.0, 1.0, 1), f1, 1.0, np.array([0.3])) <= 1e-8
        and zero_residual(NormalConeBox(-1.0, 1.0, 1), f1, 1.0, np.array([1.8])) > 1e-8
    )
    results.append(CheckResult("operators.zero_residual_zero_sets", zero_ok,
                               "analytic zero sets of three catalog instances"))
    return results


def resolvent_suite(seed=1, instances=10_000):
    rng = np.random.default_rng(seed)
    results = _check_operators(rng)

    round_bad = strategy_bad = exact_bad = 0
    checked_1d = 0
    for k in range(instances):
        inst = random_instance(rng)
        sol = solve_inclusion(inst)
        round_bad += not verify_solution(inst, sol.y, sol.xi).passed
        if inst.f.dim == 1 and k % 5 == 0:
            checked_1d += 1
            strategy_bad += reference_gap(inst, sol.y) > 1e-6
        if k % 10 == 0:
            exact_bad += exact_case_gap(inst.f, inst.op, inst.lam, inst.x) > 1e-10
    results.append(CheckResult("resolvent.prop42_roundtrip", round_bad == 0,
                               f"{round_bad} failures over {instances} instances"))
    results.append(CheckResult("resolvent.two_strategy_agreement_1d", strategy_bad == 0,
                               f"{strategy_bad} disagreements over {checked_1d} 1-D instances"))
    results.append(CheckResult("resolvent.exact_case_degeneration", exact_bad == 0,
                               f"{exact_bad} failures"))

    cont_bad = 0
    for _ in range(20):
        moves = perturbation_moves(random_instance(rng), rng, (1e-2, 1e-3, 1e-4), 5)
        cont_bad += not (moves[0] >= moves[1] - 1e-12 and moves[1] >= moves[2] - 1e-12)
    results.append(CheckResult("resolvent.continuous_dependence", cont_bad == 0,
                               f"{cont_bad} non-monotone moduli over 20 instances"))

    h1 = holder_certify(euclidean(2), SubdiffAbs(1.0, np.zeros(2)), 0.7, 2.0, 1.0,
                        samples=2000, seed=seed)
    h2 = holder_certify(PowerEuclidean(4.0, 1), SubdiffAbs(1.0, np.zeros(1)), 1.0, 4.0, 0.25,
                        samples=2000, seed=seed)
    results.append(CheckResult("resolvent.holder_nonexpansive", h1["passed"],
                               f"max violation {h1['max_violation']:.2e}"))
    results.append(CheckResult("resolvent.holder_power_type", h2["passed"],
                               f"max violation {h2['max_violation']:.2e}"))
    return results


#  algorithms suite

def algorithms_suite(seed=1):
    rng = np.random.default_rng(seed)
    results = []

    shift = np.array([1.0])
    op_abs = SubdiffAbs(1.0, shift)

    # exactness degeneration: zero-perturbation hybrid step reproduces the
    # classical resolvent used by the basic scheme
    exact_bad = 0
    for _ in range(50):
        lam = float(rng.uniform(0.3, 2.0))
        x = rng.uniform(-4.0, 4.0, size=1)
        y_classic = protoresolvent(euclidean(1), op_abs, lam, x)
        res = alg.ss_step(op_abs, 1.0 / lam, 0.5, x, np.zeros(1))
        y_eck = alg.eckstein_step(euclidean(1), op_abs, lam, x, np.zeros(1))
        if residual_norm(res.y - y_classic) > 1e-10 or residual_norm(y_eck - y_classic) > 1e-10:
            exact_bad += 1
    results.append(CheckResult("algorithms.exactness_degeneration", exact_bad == 0,
                               f"{exact_bad} mismatches over 50 draws"))

    # every accepted record of two ss runs against the scheme's three
    # conditions: the 1-D run converges in two steps, the 2-D one takes more
    audit_bad = geom_bad = fejer_bad = iterations = 0
    for x0, zero in ((np.array([2.0]), shift), (np.array([3.0, 2.0]), np.array([1.0, -0.5]))):
        op = SubdiffAbs(1.0, zero)
        spec = alg.RunSpec(scheme="ss", x0=x0, op=op, mu=alg.Schedule.constant(1.0), sigma=0.5)
        trace = alg.run(spec, alg.PerturbationPolicy.radius_fraction(0.5, seed=seed),
                        alg.StopRule(max_iters=200, zero_detect=1e-8))
        member, identity, gap = ss_residuals(trace, op, 0.5)
        xi_scale = 1.0 + np.array([residual_norm(rec.xi) for rec in trace.records[1:]])
        audit_bad += int(np.sum(member > 1e-8) + np.sum(identity > 1e-10 * xi_scale)
                         + np.sum(gap > 1e-12))
        geom_bad += sum(abs(pairing(rec.xi, rec.x - rec.y)) > 1e-10 * scale
                        for rec, scale in zip(trace.records[1:], xi_scale))
        fejer_bad += int(np.sum(fejer_steps(trace, zero) > 1e-10))
        iterations += trace.iterations
    results.append(CheckResult("algorithms.ss_condition_audit", audit_bad == 0,
                               f"{audit_bad} violations in {iterations} iterations"))
    results.append(CheckResult("algorithms.projection_geometry", geom_bad == 0,
                               f"{geom_bad} hyperplane violations"))
    results.append(CheckResult("algorithms.fejer_monotonicity", fejer_bad == 0,
                               f"{fejer_bad} expansions toward the known zero"))

    # termination soundness at a true zero
    term = alg.ss_step(op_abs, 1.0, 0.5, shift, np.zeros(1))
    sound = term.status == "terminate" and term.certified_zero and \
        zero_residual(op_abs, euclidean(1), 1.0, shift) <= alg.StopRule.zero_detect
    results.append(CheckResult("algorithms.termination_soundness", sound,
                               "hybrid stop clause certifies the zero"))

    # eckstein audit via the inclusion verifier
    op_vec = Affine(np.eye(2), -np.array([1.0, 2.0]))
    spec_e = alg.RunSpec(scheme="eckstein", x0=np.zeros(2), op=op_vec)
    trace_e = alg.run(spec_e, alg.PerturbationPolicy.summable_geometric(0.1, 0.5, seed=seed),
                      alg.StopRule(max_iters=100, zero_detect=1e-10))
    eck_bad = 0
    for prev, rec in zip(trace_e.records, trace_e.records[1:]):
        inst = InclusionInstance(f=euclidean(2), op=op_vec, lam=rec.step_param,
                                 x=prev.x, eta=rec.eta / rec.step_param)
        if not verify_solution(inst, rec.x, rec.xi).passed:
            eck_bad += 1
    results.append(CheckResult("algorithms.eckstein_condition_audit", eck_bad == 0,
                               f"{eck_bad} violations in {trace_e.iterations} iterations"))

    # IPS audit
    spec_i = alg.RunSpec(scheme="ips", x0=np.array([2.0]), op=op_abs, nu=0.3,
                         lam=alg.Schedule.constant(1.0))
    trace_i = alg.run(spec_i, alg.PerturbationPolicy.constant_norm(0.05, seed=seed),
                      alg.StopRule(max_iters=200, zero_detect=1e-8))
    member, update, gap = ips_residuals(trace_i, op_abs, spec_i.nu)
    ips_bad = int(np.sum(member > 1e-8) + np.sum(gap > 1e-12) + np.sum(update > 1e-12))
    results.append(CheckResult("algorithms.ips_condition_audit", ips_bad == 0,
                               f"{ips_bad} violations in {trace_i.iterations} iterations"))

    # PLS audit with random metrics
    op3 = Affine(np.eye(3), -np.array([0.5, -0.25, 1.0]))
    spec_p = alg.RunSpec(scheme="pls", x0=np.zeros(3), op=op3, sigma=0.3, tau=1.0,
                         metric=alg.MetricSchedule(kind="random_spd", seed=seed))
    trace_p = alg.run(spec_p, alg.PerturbationPolicy.summable_geometric(0.05, 0.7, seed=seed),
                      alg.StopRule(max_iters=300, zero_detect=1e-8))
    member, identity, gap = pls_residuals(trace_p, op3, spec_p.sigma)
    pls_bad = int(np.sum(member > 1e-8) + np.sum(gap > 1e-12) + np.sum(identity > 1e-9))
    results.append(CheckResult("algorithms.pls_condition_audit", pls_bad == 0,
                               f"{pls_bad} violations in {trace_p.iterations} iterations"))

    # RS: every recorded cut contains the certified common zero
    ops = [SubdiffAbs(1.0, np.zeros(1)), identity_op(1)]
    spec_r = alg.RunSpec(scheme="rs", x0=np.array([1.0]), ops=ops,
                         common_zero=np.zeros(1))
    trace_r = alg.run(spec_r, alg.PerturbationPolicy.summable_geometric(0.05, 0.5, seed=seed),
                      alg.StopRule(max_iters=300, zero_detect=1e-8))
    rs_bad = int(np.sum(cut_margins(trace_r) > 1e-10))
    results.append(CheckResult("algorithms.rs_zero_containment", rs_bad == 0,
                               f"{rs_bad} violated cuts in {trace_r.iterations} iterations"))

    # RS in 3-D cosh geometry, a run whose projections once stalled: it must
    # converge, and every cut must keep the zero
    spec_c = alg.RunSpec(scheme="rs", x0=np.ones(3), ops=[SubdiffAbs(1.0, np.zeros(3)), identity_op(3)],
                         f=CoshSum(3), common_zero=np.zeros(3))
    trace_c = alg.run(spec_c, alg.PerturbationPolicy.zero(),
                      alg.StopRule(max_iters=100, zero_detect=1e-8))
    cosh_bad = int(np.sum(cut_margins(trace_c) > 1e-10))
    results.append(CheckResult("algorithms.rs_cosh_projection", trace_c.converged and cosh_bad == 0,
                               f"{trace_c.termination_reason} after {trace_c.iterations} iterations, "
                               f"{cosh_bad} violated cuts"))

    return results


def run_suite(name, seed=1):
    if name == "legendre":
        return legendre_suite(seed)
    if name == "resolvent":
        return resolvent_suite(seed)
    if name == "algorithms":
        return algorithms_suite(seed)
    if name == "all":
        return legendre_suite(seed) + resolvent_suite(seed) + algorithms_suite(seed)
    raise ValueError(f"unknown suite {name!r}")
