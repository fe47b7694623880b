"""Self-test of the benchmark's correctness checks.

    python3 proxbench/selftest.py

Runs a few cases of each workload, confirms that every check accepts the
program's real answer, then feeds each check a corrupted answer and confirms
that it is rejected.  Also confirms that the per-layer metric names agree with
BENCHMARK.json.  Exits non-zero if any check lets a wrong answer through or rejects a
right one.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from worker import PER_LAYER  # noqa: E402

FAILURES = []


def expect(label, problem, should_fail):
    ok = bool(problem) == should_fail
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {problem or 'accepted'}")
    if not ok:
        FAILURES.append(label)


def pick(cases, *labels):
    by_label = {c.label: c for c in cases}
    return [by_label[label] for label in labels]


def test_inclusions():
    for case in pick(wl.build_inclusions((7, 0)), "cosh+sum/d8", "eucl+abs/d8", "diagq+box/d8",
                     "denseq+affdense/d8", "power+const/d8"):
        inst = case.meta["inst"]
        sol, report = case.run()
        expect(f"inclusions {case.label} real answer", case.check((sol, report)), False)
        bump = 1e-3 * np.ones_like(sol.y)
        expect(f"inclusions {case.label} linear, y moved",
               wl.inclusion_linear(inst, sol.y + bump, sol.xi), True)
        # keep the linear equation exact and move y: xi no longer lies in A(y)
        y_bad = sol.y + 0.5
        xi_bad = inst.eta - (wl.f_grad(inst.f, y_bad) - wl.f_grad(inst.f, inst.x)) / inst.lam
        expect(f"inclusions {case.label} membership, y moved",
               wl.inclusion_linear(inst, y_bad, xi_bad) or wl.inclusion_membership(inst, y_bad, xi_bad),
               True)
        failed_report = type(report)(report.membership_residual, report.linear_residual, False, True)
        expect(f"inclusions {case.label} verify flag", case.check((sol, failed_report)), True)


def test_radius():
    cases = wl.build_radius((7, 0))
    for case in (cases[0], cases[8], cases[9 + 7], cases[18 + 6]):
        r = case.run()
        data = case.meta["case"]
        expect(f"radius {case.label} real answer", case.check(r), False)
        expect(f"radius {case.label} probes, radius doubled", wl.probes_pass_at(data, 2.0 * r), True)
        expect(f"radius {case.label} probes, radius zero", wl.probes_pass_at(data, 0.0), True)
        expect(f"radius {case.label} bracket, radius halved", wl.bracket_top_fails(data, 0.5 * r), True)
        if data["form"] == "ss" and len(data["x"]) == 1:
            expect(f"radius {case.label} grid, radius +0.1%", wl.grid_agrees(data, 1.001 * r), True)


def test_schemes():
    with tempfile.TemporaryDirectory(dir=HERE) as scratch:
        cases = wl.build_schemes((7, 0), scratch)
        for case in pick(cases, "eckstein/quadratic/affine/d8", "ips/d4", "rs/euclidean/d3#18",
                         "rs/cosh/d2"):
            out = case.run()
            expect(f"schemes {case.label} real answer", case.check(out), False)
            expect(f"schemes {case.label} real answer, second pass", case.check(case.run()), False)
            trace, spec, csv_path = out
            with open(csv_path) as handle:
                csv_text = handle.read()
            zero = case.meta["zero"]
            expect(f"schemes {case.label} CSV changed",
                   wl.csv_repeats({"csv": "0" * 64}, csv_text), True)
            if not case.meta["budgeted"]:
                expect(f"schemes {case.label} final row moved",
                       wl.lands_on_zero(trace, _move_last_row(csv_text), spec.dim, zero), True)
                expect(f"schemes {case.label} wrong zero",
                       wl.lands_on_zero(trace, csv_text, spec.dim, zero + 1e-3), True)
                continue
            if trace.converged:
                # converged within its budget: the run must also land on the zero
                expect(f"schemes {case.label} final row moved",
                       wl.check_scheme({}, zero, True, (trace, spec, _move_last_row(csv_text))), True)
                expect(f"schemes {case.label} wrong zero",
                       wl.lands_on_zero(trace, csv_text, spec.dim, zero + 1e-3), True)
            # the anchor cut of every iteration leaves x0 outside
            expect(f"schemes {case.label} cuts, zero moved to x0",
                   wl.cuts_hold_zero(trace.records, spec.x0), True)
            records = list(trace.records)
            records[1], records[-1] = records[-1], records[1]
            expect(f"schemes {case.label} D_f order reversed",
                   wl.bregman_monotone(spec.f, spec.x0, zero, records), True)
            expect(f"schemes {case.label} D_f cap, zero at x0",
                   wl.bregman_monotone(spec.f, spec.x0, spec.x0, trace.records), True)


def _move_last_row(csv_text):
    head, last = csv_text.rstrip("\n").rsplit("\n", 1)
    cells = last.split(",")
    cells[1] = repr(float(cells[1]) + 1e-3)
    return head + "\n" + ",".join(cells) + "\n"


def test_cross_check():
    cases = wl.build_cross_check((7, 0))
    for case in (cases[0], cases[7], cases[12], cases[15]):
        sol, grid_y = case.run()
        inst, w = case.meta["inst"], case.meta["w"]
        expect(f"cross_check {case.label} real answer", case.check((sol, grid_y)), False)
        expect(f"cross_check {case.label} agreement, y moved 1e-5",
               wl.solvers_agree(sol.y + 1e-5, grid_y), True)
        expect(f"cross_check {case.label} objective, y moved 1e-3",
               wl.objective_no_worse(inst, w, sol.y + 1e-3, grid_y), True)


def test_metric_names():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    expect("per-layer metrics match BENCHMARK.json",
           None if declared == list(PER_LAYER) else "names or units differ", False)


if __name__ == "__main__":
    test_inclusions()
    test_radius()
    test_schemes()
    test_cross_check()
    test_metric_names()
    print(f"{len(FAILURES)} check(s) let a wrong answer through or rejected a right one")
    sys.exit(1 if FAILURES else 0)
