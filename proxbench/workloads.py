"""The four seeded workloads: inputs, the timed operation, and its check.

Each builder turns a key (seed, draw) into a fixed list of cases.  The
list's make-up (pairings, dimensions, forms, schemes) never depends on the
key, only the numbers in each case do, so every pass is a whole round of the
same operations.  The worker asks for a new draw every pass (every second
pass for schemes), so one run samples many inputs and its figures move little
from seed to seed.  A case's `run` is the timed operation; its `check`
compares the output with the benchmark's own computation (see oracle.py) and
returns a problem string or None.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from proxlab import algorithms as alg
from proxlab import cli, reference, resolvent
from proxlab.legendre import CoshSum, PowerEuclidean, PowerP, QuadraticForm, euclidean
from proxlab.numerics import SpdMetric, random_spd_matrix
from proxlab.operators import (Affine, GradientOfConvex, NormalConeBox, OperatorSum,
                               Scaled, SubdiffAbs)
from proxlab.resolvent import InclusionInstance, ips_form, pls_form, ss_form

from oracle import (box_distance, bregman, f_grad, f_value, pairing_class, potential)


@dataclass
class Case:
    label: str
    run: Callable[[], object]
    check: Callable[[object], object]
    warm: bool = False           # part of the warm-up before the timed passes
    meta: dict = field(default_factory=dict)


def _sub_rng(key, *tags):
    return np.random.default_rng([*key, *tags])


#  catalog instances

F_KINDS = ("eucl", "diagq", "denseq", "cosh", "power", "powerp")
OP_KINDS = ("abs", "affdiag", "affdense", "const", "box", "logcosh", "quartic", "norm4",
            "sabs", "sum")


def make_f(kind, dim, rng):
    if kind == "eucl":
        return euclidean(dim)
    if kind == "diagq":
        return QuadraticForm(SpdMetric.diagonal(rng.uniform(0.5, 3.0, size=dim)))
    if kind == "denseq":
        return QuadraticForm(SpdMetric(random_spd_matrix(dim, 0.5, 3.0, rng)))
    if kind == "cosh":
        return CoshSum(dim)
    if kind == "power":
        return PowerEuclidean(float(rng.uniform(2.0, 4.0)), dim)
    return PowerP(float(rng.uniform(1.5, 4.0)), float(rng.uniform(2.0, 4.0)), dim)


def make_op(kind, dim, rng):
    shift = rng.uniform(-1.0, 1.0, size=dim)
    if kind == "abs":
        return SubdiffAbs(float(rng.uniform(0.2, 2.0)), shift)
    if kind == "affdiag":
        return Affine(np.diag(rng.uniform(0.1, 2.0, size=dim)), shift)
    if kind == "affdense":
        return Affine(random_spd_matrix(dim, 0.1, 2.0, rng), shift)
    if kind == "const":
        return Affine(np.zeros((dim, dim)), shift)
    if kind == "box":
        return NormalConeBox(rng.uniform(-3.0, -0.5, size=dim), rng.uniform(0.5, 3.0, size=dim))
    if kind in ("logcosh", "quartic", "norm4"):
        return GradientOfConvex(kind, shift, dim, weight=float(rng.uniform(0.5, 2.0)))
    if kind == "sabs":
        return Scaled(float(rng.uniform(0.3, 2.0)), SubdiffAbs(1.0, shift))
    return OperatorSum([SubdiffAbs(float(rng.uniform(0.2, 1.0)), shift),
                        Affine(np.diag(rng.uniform(0.1, 1.5, size=dim)),
                               rng.uniform(-0.5, 0.5, size=dim))])


def inclusion_linear(inst, y, xi):
    """grad f(y) + lam xi = grad f(x) + lam eta, with f's closed-form gradient."""
    f, lam = inst.f, inst.lam
    rhs = f_grad(f, inst.x) + lam * inst.eta
    linear = float(np.linalg.norm(f_grad(f, y) + lam * xi - rhs))
    if not linear <= 1e-9 * (1.0 + float(np.linalg.norm(rhs))):
        return f"linear residual {linear:.3e}"
    return None


def inclusion_membership(inst, y, xi):
    """xi lies in A(y), with A's closed-form value."""
    member = box_distance(inst.op, y, xi)
    if not member <= 1e-8 * (1.0 + float(np.linalg.norm(xi))):
        return f"xi is {member:.3e} away from A(y)"
    return None


#  inclusions: solve_inclusion then verify_solution, every certifying pairing

INCLUSION_DIMS = (1, 8, 64)


def build_inclusions(key):
    cases = []
    for dim in INCLUSION_DIMS:
        for fi, fk in enumerate(F_KINDS):
            for oi, ok in enumerate(OP_KINDS):
                rng = _sub_rng(key, dim, fi, oi)
                f, op = make_f(fk, dim, rng), make_op(ok, dim, rng)
                if pairing_class(f, op) is None:
                    continue  # no route for this pairing today (see CHANGES.md)
                inst = InclusionInstance(f=f, op=op, lam=float(rng.uniform(0.25, 2.5)),
                                         x=rng.uniform(-3.0, 3.0, size=dim),
                                         eta=rng.uniform(-2.0, 2.0, size=dim))
                cases.append(_inclusion_case(f"{fk}+{ok}/d{dim}", inst, warm=dim == 1))
    return cases


def _inclusion_case(label, inst, warm):
    def run():
        sol = resolvent.solve_inclusion(inst)
        return sol, resolvent.verify_solution(inst, sol.y, sol.xi)

    def check(out):
        sol, report = out
        if not report.passed:
            return "verify_solution reports failure"
        return inclusion_linear(inst, sol.y, sol.xi) or inclusion_membership(inst, sol.y, sol.xi)

    return Case(label, run, check, warm=warm, meta={"inst": inst})


#  radius: radius_search for the ss, ips and pls forms

RADIUS_MAGNITUDES = (0.999, 0.75, 0.5, 0.25, 0.05)
REFINE_DEPTH = 24
RADIUS_DIMS = (1, 1, 1, 1, 1, 1, 2, 4, 8)
RADIUS_PROBES = alg.RunSpec.radius_probes  # the count the ss, ips and pls schemes search with


def probe_directions(count, dim, seed):
    """The probe set radius_search documents: the two signs in 1-D, otherwise
    `count` normalized standard-normal draws from default_rng(seed)."""
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    rng = np.random.default_rng(seed)
    dirs = []
    while len(dirs) < count:
        d = rng.standard_normal(dim)
        n = np.linalg.norm(d)
        if n > 1e-12:
            dirs.append(d / n)
    return np.array(dirs)


def _solve_closed(f, op, lam, x, eta):
    """y solving grad f(y) + lam A(y) = grad f(x) + lam eta for the radius pairings."""
    w = f_grad(f, x) + lam * eta
    if isinstance(op, SubdiffAbs):  # f is (1/2)||.||^2 here
        d = w - op.shift
        return op.shift + np.sign(d) * np.maximum(np.abs(d) - lam * op.weight, 0.0)
    m = f.metric.matrix if isinstance(f, QuadraticForm) else np.eye(len(x))
    return np.linalg.solve(m + lam * op.matrix, w - lam * op.offset)


def _scores(case, eta):
    """(Phi, Psi) of the case's form at the exact solution for eta."""
    f, op, lam, x = case["f"], case["op"], case["lam"], case["x"]
    y = _solve_closed(f, op, lam, x, eta)
    xi = eta - (f_grad(f, y) - f_grad(f, x)) / lam
    form = case["form"]
    if form == "ss":
        phi = float(np.linalg.norm(eta))
        psi = case["sigma"] * max(float(np.linalg.norm(xi)), case["mu"] * float(np.linalg.norm(y - x)))
    elif form == "ips":
        phi = lam * float(np.linalg.norm(eta))
        psi = case["nu"] * float(np.linalg.norm(y - x))
    else:
        metric = case["metric"].matrix

        def inv_sq(v):
            return float(v @ np.linalg.solve(metric, v))

        cmxi = lam * (metric @ xi)
        phi = inv_sq(cmxi + (y - x))
        psi = case["sigma"] ** 2 * (inv_sq(cmxi) + inv_sq(y - x))
    return phi, psi


def level_passes(case, r) -> bool:
    for d in case["dirs"]:
        for m in RADIUS_MAGNITUDES:
            phi, psi = _scores(case, (m * r) * d)
            if not phi < psi:
                return False
    return True


def bracket_top(r, r0):
    """Top of radius_search's final bisection bracket for a returned radius r < r0."""
    passing = r0
    while passing > r:
        passing *= 0.5
    return r + passing * 2.0 ** -REFINE_DEPTH


def ss_grid_radius(case, points=200_001):
    """Largest R with every |eta| < R accepted, by a dense scan (1-D ss form only)."""
    op, lam, x = case["op"], case["lam"], case["x"][0]
    grid = np.linspace(0.0, case["r0"], points)
    ok = np.ones(points, dtype=bool)
    for sign in (1.0, -1.0):
        eta = sign * grid
        d = x + lam * eta - op.shift[0]
        y = op.shift[0] + np.sign(d) * np.maximum(np.abs(d) - lam * op.weight, 0.0)
        xi = eta - (y - x) / lam
        ok &= np.abs(eta) < case["sigma"] * np.maximum(np.abs(xi), case["mu"] * np.abs(y - x))
    ok[0] = True
    bad = np.flatnonzero(~ok)
    return grid[bad[0]] if bad.size else grid[-1], grid[1] - grid[0]


def probes_pass_at(case, r):
    if not (np.isfinite(r) and r > 0.0):
        return f"radius {r!r} is not positive"
    if not level_passes(case, r):
        return f"a probe fails at the returned radius {r!r}"
    return None


def bracket_top_fails(case, r):
    if r < case["r0"] and level_passes(case, bracket_top(r, case["r0"])):
        return f"no probe fails at the bracket top above {r!r}"
    return None


def grid_agrees(case, r):
    """The 1-D ss radius matches the grid scan up to the largest probe magnitude."""
    if "grid" not in case:
        case["grid"] = ss_grid_radius(case)
    grid_r, step = case["grid"]
    if abs(RADIUS_MAGNITUDES[0] * r - grid_r) > 2.0 * step:
        return f"radius {r!r} disagrees with the grid scan {grid_r!r}"
    return None


def check_radius(case, r):
    problem = probes_pass_at(case, r) or bracket_top_fails(case, r)
    if problem is None and case["form"] == "ss" and len(case["x"]) == 1:
        problem = grid_agrees(case, r)
    return problem


def build_radius(key):
    cases = []
    for form_i, form in enumerate(("ss", "ips", "pls")):
        for k, dim in enumerate(RADIUS_DIMS):
            rng = _sub_rng(key, 101, form_i, k)
            x = rng.uniform(-3.0, 3.0, size=dim)
            case = {"form": form, "x": x, "r0": 1.0 + float(np.linalg.norm(x)),
                    "sigma": float(rng.uniform(0.3, 0.7))}
            if form == "ss":
                case["mu"] = float(rng.uniform(0.5, 2.0))
                case.update(f=euclidean(dim), lam=1.0 / case["mu"],
                            op=SubdiffAbs(float(rng.uniform(0.5, 1.5)), rng.uniform(-1.0, 1.0, size=dim)))
                spec = ss_form(case["sigma"], case["mu"])
            elif form == "ips":
                case["nu"] = float(rng.uniform(0.2, 0.5))
                case.update(f=euclidean(dim), lam=float(rng.uniform(0.5, 2.0)),
                            op=Affine(np.diag(rng.uniform(0.5, 2.0, size=dim)), rng.uniform(-1.0, 1.0, size=dim)))
                spec = ips_form(case["nu"], case["lam"])
            else:
                metric = alg.MetricSchedule(kind="random_spd", seed=int(rng.integers(2**31))).at(k, dim)
                case.update(metric=metric, f=QuadraticForm(SpdMetric(np.linalg.inv(metric.matrix))),
                            lam=float(rng.uniform(0.5, 2.0)),
                            op=Affine(random_spd_matrix(dim, 0.2, 2.0, rng), rng.uniform(-1.0, 1.0, size=dim)))
                spec = pls_form(case["sigma"], case["lam"], metric)
            probe_seed = int(rng.integers(2**31))
            case["dirs"] = probe_directions(RADIUS_PROBES, dim, probe_seed)
            cases.append(_radius_case(f"{form}/d{dim}#{k}", case, spec, probe_seed,
                                      warm=dim == 1 and k == 0))
    return cases


def _radius_case(label, case, spec, probe_seed, warm):
    def run():
        return resolvent.radius_search(case["f"], case["op"], case["lam"], case["x"], spec,
                                       probes=RADIUS_PROBES, seed=probe_seed,
                                       refine_depth=REFINE_DEPTH, magnitudes=RADIUS_MAGNITUDES)

    return Case(label, run, lambda r: check_radius(case, r), warm=warm,
                meta={"case": case})


#  schemes: `proxlab run` in-process, from config file to trace CSV and sidecar

def _fmt(v):
    return ",".join(repr(float(t)) for t in np.atleast_1d(v))


def _scheme_configs(key):
    """(name, config, zero, budgeted) for every scheme case of a round."""
    out = []

    def rng_for(k):
        return _sub_rng(key, 202, k)

    # The seed moves the zero, the direction of x0 from it and the order of a
    # fixed spectrum; the distance and the spectrum, which set the iteration
    # count, stay the same for every seed.
    def affine_spec(rng, z):
        diag = rng.permutation(np.linspace(0.5, 2.0, len(z)))
        return f"affine:diag={_fmt(diag)},b={_fmt(-diag * z)}"

    def base(scheme, z, rng, **extra):
        direction = rng.standard_normal(len(z))
        cfg = {"space_dim": len(z), "scheme": scheme,
               "x0": list(z + 1.5 * direction / np.linalg.norm(direction)),
               "stop": {"max_iters": 500, "zero_detect": 1e-8}, "seed": int(rng.integers(2**31))}
        cfg.update(extra)
        return cfg

    k = 0
    summable = {"kind": "summable_geometric", "c": 0.1, "q": 0.5}
    for legendre, dim, op_kind in (("quadratic", 1, "affine"), ("quadratic", 8, "affine"),
                                   ("quadratic", 64, "affine"), ("quadratic", 64, "abs"),
                                   ("cosh", 1, "affine"), ("cosh", 8, "abs"), ("cosh", 64, "abs")):
        rng = rng_for(k)
        z = rng.uniform(-1.0, 1.0, size=dim)
        op = affine_spec(rng, z) if op_kind == "affine" else f"abs:w=1,shift={_fmt(z)}"
        out.append((f"eckstein/{legendre}/{op_kind}/d{dim}",
                    base("eckstein", z, rng, legendre=legendre, operator=op, policy=summable),
                    z, False))
        k += 1
    for dim, policy in ((1, {"kind": "radius_fraction", "fraction": 0.5}),
                        (4, {"kind": "constant_norm", "c": 0.05}),
                        (8, {"kind": "constant_norm", "c": 0.05})):
        rng = rng_for(k)
        z = rng.uniform(-1.0, 1.0, size=dim)
        out.append((f"ss/d{dim}", base("ss", z, rng, operator=f"abs:w=1,shift={_fmt(z)}",
                                       scheme_params={"sigma": 0.5}, policy=policy), z, False))
        k += 1
    for dim in (1, 4, 8):
        rng = rng_for(k)
        z = rng.uniform(-1.0, 1.0, size=dim)
        out.append((f"ips/d{dim}", base("ips", z, rng, operator=affine_spec(rng, z),
                                        scheme_params={"nu": 0.3},
                                        policy={"kind": "constant_norm", "c": 0.05}), z, False))
        k += 1
    for dim in (1, 4, 8):
        rng = rng_for(k)
        z = rng.uniform(-1.0, 1.0, size=dim)
        out.append((f"pls/d{dim}", base("pls", z, rng, operator=affine_spec(rng, z),
                                        scheme_params={"sigma": 0.3, "metric": {"kind": "random_spd"}},
                                        policy={"kind": "summable_geometric", "c": 0.05, "q": 0.7}),
                    z, False))
        k += 1
    # rs in Euclidean geometry: 7 operators with a common zero plus the anchor
    # cut make m = 8 halfspaces for the active-set projection
    for dim in (2, 3, 3, 4):
        rng = rng_for(k)
        z = rng.uniform(-1.0, 1.0, size=dim)
        ops = [f"abs:w=1,shift={_fmt(z)}", affine_spec(rng, z), f"grad:logcosh:shift={_fmt(z)}",
               f"grad:quartic:shift={_fmt(z)}", f"abs:w=0.5,shift={_fmt(z)}",
               f"grad:logcosh:w=2,shift={_fmt(z)}", f"box:{_fmt(z - 1.0)};{_fmt(z + 1.0)}"]
        out.append((f"rs/euclidean/d{dim}#{k}",
                    base("rs", z, rng, operators=ops,
                         policy={"kind": "summable_geometric", "c": 0.05, "q": 0.5},
                         stop={"max_iters": 10, "zero_detect": 1e-8}), z, True))
        k += 1
    # rs in cosh geometry runs the dual projection.  Its inputs are fixed:
    # seeded starts stall that projection (see CHANGES.md).
    out.append(("rs/cosh/d2", {"space_dim": 2, "scheme": "rs", "x0": [1.0, 1.0], "legendre": "cosh",
                               "operators": ["abs:w=1,shift=0", "affine:diag=1,b=0"],
                               "policy": {"kind": "zero"},
                               "stop": {"max_iters": 60, "zero_detect": 1e-8}, "seed": 0},
                np.zeros(2), True))
    return out


def _final_x(csv_text, dim):
    last = csv_text.rstrip("\n").rsplit("\n", 1)[-1].split(",")
    return np.array([float(v) for v in last[1:1 + dim]])


def csv_repeats(state, csv_text):
    digest = hashlib.sha256(csv_text.encode()).hexdigest()
    if state.setdefault("csv", digest) != digest:
        return "trace CSV body differs from the first pass"
    return None


def lands_on_zero(trace, csv_text, dim, zero):
    """A converged run's last CSV row is within tolerance of the analytic zero."""
    if not trace.converged:
        return f"did not converge: {trace.termination_reason} {trace.meta.get('error', '')}"
    dist = float(np.linalg.norm(_final_x(csv_text, dim) - zero))
    if not dist <= 1e-6 * (1.0 + float(np.linalg.norm(zero))):
        return f"final iterate is {dist:.3e} from the analytic zero"
    return None


def cuts_hold_zero(records, zero):
    for rec in records[1:]:
        for a, b in rec.extra["rs"].halfspaces():
            margin = (float(a @ zero) - b) / float(np.linalg.norm(a))
            if margin > 1e-9 * (1.0 + float(np.linalg.norm(zero))):
                return f"iteration {rec.n}: a cut excludes the common zero by {margin:.3e}"
    return None


def bregman_monotone(f, x0, zero, records):
    """D_f(x_n, x0) never falls and stays below D_f(zero, x0); in Euclidean
    geometry that is ||x_n - x0|| nondecreasing and at most ||zero - x0||."""
    cap = bregman(f, zero, x0)
    slack = 1e-9 * (1.0 + cap)
    prev = 0.0
    for rec in records[1:]:
        dist = bregman(f, rec.x, x0)
        if dist < prev - slack:
            return f"iteration {rec.n}: D_f(x_n, x0) fell from {prev:.6e} to {dist:.6e}"
        if dist > cap + slack:
            return f"iteration {rec.n}: D_f(x_n, x0) = {dist:.6e} passed D_f(zero, x0) = {cap:.6e}"
        prev = dist
    return None


def check_scheme(state, zero, budgeted, out):
    trace, spec, csv_text = out
    problem = csv_repeats(state, csv_text)
    if problem:
        return problem
    if not budgeted:
        return lands_on_zero(trace, csv_text, spec.dim, zero)
    if trace.termination_reason == "solver failure":
        return f"solver failure: {trace.meta.get('error')}"
    problem = cuts_hold_zero(trace.records, zero) or bregman_monotone(spec.f, spec.x0, zero, trace.records)
    if problem is None and trace.converged:
        problem = lands_on_zero(trace, csv_text, spec.dim, zero)
    return problem


def build_schemes(key, scratch):
    cases = []
    for i, (name, cfg, zero, budgeted) in enumerate(_scheme_configs(key)):
        cfg = dict(cfg, output_path=os.path.join(scratch, f"trace{i:02d}.csv"))
        path = os.path.join(scratch, f"config{i:02d}.json")
        with open(path, "w") as handle:
            json.dump(cfg, handle)
        cases.append(_scheme_case(name, path, zero, budgeted, warm=cfg["space_dim"] == 1))
    return cases


def run_config(path):
    """The `proxlab run` path without its console report: config file to trace files."""
    with open(path) as handle:
        raw = json.load(handle)
    cfg = cli.parse_config(raw)
    spec, policy, stop = cli.build_run_inputs(cfg)
    trace = alg.run(spec, policy, stop)
    cli.write_trace(trace, cfg)
    return trace, spec, cfg.output_path


def _scheme_case(label, path, zero, budgeted, warm):
    state = {}

    def check(out):
        trace, spec, csv_path = out
        with open(csv_path) as handle:
            csv_text = handle.read()
        return check_scheme(state, zero, budgeted, (trace, spec, csv_text))

    return Case(label, lambda: run_config(path), check, warm=warm,
                meta={"zero": zero, "budgeted": budgeted})


#  cross_check: solve_inclusion against the grid-refined brute force

CROSS_1D = (("eucl", "abs"), ("eucl", "affdiag"), ("diagq", "affdiag"), ("eucl", "logcosh"),
            ("eucl", "quartic"), ("power", "const"), ("powerp", "const"), ("cosh", "abs"),
            ("cosh", "box"), ("diagq", "sum"), ("power", "abs"), ("powerp", "logcosh"))
# 2-D pairings whose objective is a sum over coordinates, so the 9 x 9 nested
# grid keeps the minimizer inside each refined window
CROSS_2D = (("eucl", "abs"), ("diagq", "affdiag"), ("eucl", "logcosh"), ("cosh", "abs"),
            ("cosh", "box"), ("diagq", "sum"))
BRUTE_ROUNDS_2D = 30


def objective(f, op, lam, w, y) -> float:
    return f_value(f, y) + lam * potential(op, y) - float(w @ y)


def solvers_agree(sol_y, grid_y):
    gap = float(np.linalg.norm(sol_y - grid_y))
    if not gap <= 1e-6:
        return f"solvers disagree by {gap:.3e}"
    return None


def objective_no_worse(inst, w, sol_y, grid_y):
    h_sol = objective(inst.f, inst.op, inst.lam, w, sol_y)
    h_grid = objective(inst.f, inst.op, inst.lam, w, grid_y)
    if not h_sol <= h_grid + 1e-12 * (1.0 + abs(h_grid)):
        return f"objective at the solver's point {h_sol!r} exceeds the grid's {h_grid!r}"
    return None


def check_cross(inst, w, out):
    sol, grid_y = out
    return solvers_agree(sol.y, grid_y) or objective_no_worse(inst, w, sol.y, grid_y)


def build_cross_check(key):
    cases = []
    for dim, pairs in ((1, CROSS_1D), (2, CROSS_2D)):
        for k, (fk, ok) in enumerate(pairs):
            rng = _sub_rng(key, 303, dim, k)
            f = make_f(fk, dim, rng)
            op = make_op(ok, dim, rng)
            inst = InclusionInstance(f=f, op=op, lam=float(rng.uniform(0.25, 2.5)),
                                     x=rng.uniform(-3.0, 3.0, size=dim),
                                     eta=rng.uniform(-2.0, 2.0, size=dim))
            cases.append(_cross_case(f"{fk}+{ok}/d{dim}", inst, warm=dim == 1 and k < 8))
    return cases


def _cross_case(label, inst, warm):
    w = inst.lam * inst.eta + f_grad(inst.f, inst.x)
    rounds = 8 if inst.f.dim == 1 else BRUTE_ROUNDS_2D

    def run():
        sol = resolvent.solve_inclusion(inst)
        return sol, reference.brute_force_protoresolvent(inst.f, inst.op, inst.lam, w, rounds=rounds)

    return Case(label, run, lambda out: check_cross(inst, w, out), warm=warm,
                meta={"inst": inst, "w": w})


WORKLOADS = ("inclusions", "radius", "schemes", "cross_check")


# passes per input draw; schemes runs each draw twice so that the trace CSV
# can be compared across passes
PASSES_PER_DRAW = {"schemes": 2}


def build(workload, key, scratch):
    if workload == "inclusions":
        return build_inclusions(key)
    if workload == "radius":
        return build_radius(key)
    if workload == "schemes":
        return build_schemes(key, scratch)
    if workload == "cross_check":
        return build_cross_check(key)
    raise ValueError(f"unknown workload {workload!r}")
