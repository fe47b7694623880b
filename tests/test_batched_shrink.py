"""The batched reject-and-shrink scan against the one-error-at-a-time loop."""

import numpy as np
import pytest

from oracles import shrink_until_accepted_sequential
from proxlab import algorithms as alg
from proxlab import cli
from test_batched_radius import _fail_certificate_at
from proxlab.errors import SolverError
from proxlab.numerics import random_spd_matrix
from proxlab.operators import Affine, GradientOfConvex, SubdiffAbs

STOP = alg.StopRule(max_iters=500, zero_detect=1e-8)


def _spec(scheme, dim, rng):
    z = rng.uniform(-1.0, 1.0, size=dim)
    x0 = z + rng.uniform(0.5, 1.5, size=dim) * rng.choice([-1.0, 1.0], size=dim)
    m = random_spd_matrix(dim, 0.5, 2.0, rng)
    op = Affine(m, -m @ z)
    if scheme == "ss":  # the abs operator takes the shrink route to its zero in 1-D
        return alg.RunSpec(scheme="ss", x0=x0, op=SubdiffAbs(1.0, z) if dim > 1 else op, sigma=0.5)
    if scheme == "ips":
        return alg.RunSpec(scheme="ips", x0=x0, op=op, nu=0.3)
    return alg.RunSpec(scheme="pls", x0=x0, op=op, sigma=0.3,
                       metric=alg.MetricSchedule(kind="random_spd", seed=int(rng.integers(100))))


def _run(spec, policy, monkeypatch, shrink=None):
    """(CSV body, termination, error, notes) of a run, through `shrink` if given."""
    with monkeypatch.context() as m:
        if shrink is not None:
            m.setattr(alg, "_shrink_until_accepted", shrink)
        trace = alg.run(spec, policy, STOP)
    notes = [rec.note for rec in trace.records]
    return cli.trace_csv(trace, spec.dim), trace.termination_reason, trace.meta.get("error"), notes


def _shrinks(notes):
    return [int(part[7:]) for note in notes for part in note.split(";") if part.startswith("shrunk:")]


@pytest.mark.parametrize("dim", [1, 2, 8])
@pytest.mark.parametrize("scheme", ["ss", "ips", "pls"])
def test_batched_shrinks_give_the_oracle_trace(scheme, dim, monkeypatch):
    rng = np.random.default_rng([5, dim, len(scheme)])
    spec = _spec(scheme, dim, rng)
    assert alg._ADAPTERS[scheme](spec, STOP, 0, spec.x0)[2].batches
    policy = alg.PerturbationPolicy.constant_norm(0.5, seed=int(rng.integers(100)))
    batched = _run(spec, policy, monkeypatch)
    assert max(_shrinks(batched[3])) >= 10
    assert batched[1] == "zero detected"
    assert batched == _run(spec, policy, monkeypatch, shrink_until_accepted_sequential)


def _count_trials(monkeypatch):
    """Record the rows of each trial pass: 1 for a single error, k for k rows."""
    passes = []
    step, scan = alg._Step.step, alg._Step.scan

    def counted_step(self, eta):
        passes.append(1)
        return step(self, eta)

    def counted_scan(self, candidates):
        passes.append(len(candidates))
        return scan(self, candidates)

    monkeypatch.setattr(alg._Step, "step", counted_step)
    monkeypatch.setattr(alg._Step, "scan", counted_scan)
    return passes


def _ips_step_at(x, nu=0.3, dim=1):
    return alg._ips_step(Affine(np.eye(dim), np.zeros(dim)), 1.0, nu, np.full(dim, x))


@pytest.mark.parametrize("expect", [0, 5, 10, 11, 40, 59])
def test_scan_matches_the_loop_for_every_split(expect, monkeypatch):
    """Whichever pass the streak ends in, the scan returns the loop's step."""
    step, eta = _ips_step_at(1e-3), np.array([[1.0]])  # 13 halvings reach nu ||y - x||
    result, err, shrinks = alg._shrink_until_accepted(step, eta, expect=expect)
    ref, ref_err, ref_shrinks = shrink_until_accepted_sequential(step, eta)
    assert shrinks == ref_shrinks == 13
    assert err.tobytes() == ref_err.tobytes()
    for name in ("status", "y", "xi", "x_next"):
        assert np.array_equal(getattr(result, name), getattr(ref, name))
    passes = _count_trials(monkeypatch)
    alg._shrink_until_accepted(step, eta, expect=expect)
    # after a streak of 0 the drawn error goes alone; the first scan ends
    # two halvings past `expect`, the second holds the rest
    assert passes[0] == (1 if expect == 0 else min(expect + 3, 61))
    assert len(passes) == (expect == 0) + (1 if 13 <= expect + 2 else 2)


def _threshold_step(limit):
    """A batching step that rejects every error above `limit` and accepts it as is."""
    def score(eta, y):
        return eta, eta[..., 0] > limit

    def accept(eta, y, xi):
        return alg.StepResult(status="accepted", y=y, xi=xi, x_next=y)

    return alg._Step(alg.euclidean(1), Affine(np.zeros((1, 1)), np.zeros(1)), 1.0,
                     lambda eta: eta, score, accept)


def test_halvings_keep_the_loop_bits_into_subnormals():
    step, eta = _threshold_step(1e-320), np.array([[3e-300]])  # halvings 29-59 are subnormal
    assert step.batches
    batched = alg._shrink_until_accepted(step, eta)
    ref = shrink_until_accepted_sequential(step, eta)
    assert batched[2] == ref[2] == 60  # past 59 halvings: the zero error
    # 35 halvings of 3e-300 round differently from one product 3e-300 * 2^-35
    step, eta = _threshold_step(1e-310), np.array([[3e-300]])
    batched = alg._shrink_until_accepted(step, eta)
    ref = shrink_until_accepted_sequential(step, eta)
    assert batched[2] == ref[2] == 35
    assert batched[1].tobytes() == ref[1].tobytes() and 0.0 < batched[1][0, 0] < 2.3e-308
    assert batched[1][0, 0] != 3e-300 * 0.5 ** 35


def test_zero_error_fallback(monkeypatch):
    step, eta = _ips_step_at(1.0, nu=1e-30), np.array([[1.0]])
    result, err, shrinks = alg._shrink_until_accepted(step, eta)
    ref = shrink_until_accepted_sequential(step, eta)
    assert shrinks == ref[2] == 60
    assert err.tobytes() == ref[1].tobytes() == np.zeros((1, 1)).tobytes()
    assert np.array_equal(result.x_next, ref[0].x_next)


def test_batched_scan_rejecting_zero_is_a_solver_error():
    def reject_all(eta, y):
        return eta, np.full(eta.shape[:-1], True)
    step = alg._Step(alg.euclidean(1), Affine(np.eye(1), np.zeros(1)), 1.0, lambda eta: eta,
                     reject_all, accept=None)
    assert step.batches
    with pytest.raises(SolverError, match="zero error"):
        alg._shrink_until_accepted(step, np.ones((1, 1)))


# ss at x = 3 with A the subdifferential of |.| (mu = 1, sigma = 0.5): the
# error 30 and its halvings 15, 7.5, 3.75 and 1.875 are rejected, 0.9375 is
# accepted; the row of the halving eta has w = x - eta
SS_X = np.array([3.0])


def _ss_case():
    return alg._ss_step(SubdiffAbs(1.0, np.zeros(1)), 1.0, 0.5, SS_X, 1e-8), np.array([[30.0]])


def test_certificate_failure_on_the_path_raises_the_oracle_error(monkeypatch):
    step, eta = _ss_case()
    _fail_certificate_at(monkeypatch, float(SS_X[0] - 7.5))  # the second halving
    messages = []
    for shrink in (alg._shrink_until_accepted, shrink_until_accepted_sequential):
        with pytest.raises(SolverError, match="certificate failed") as exc:
            shrink(step, eta)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def test_certificate_failure_off_the_path_is_ignored(monkeypatch):
    step, eta = _ss_case()
    ref = shrink_until_accepted_sequential(step, eta)
    assert ref[2] == 5
    hits = _fail_certificate_at(monkeypatch, float(SS_X[0] - 0.46875))  # the sixth halving
    result, err, shrinks = alg._shrink_until_accepted(step, eta, expect=10)
    assert sum(hits) == 1  # solved in the scan, failed its certificate, not raised
    assert shrinks == ref[2] and np.array_equal(result.x_next, ref[0].x_next)


def test_certificate_failure_gives_the_oracle_failure_trace(monkeypatch):
    spec = alg.RunSpec(scheme="ss", x0=SS_X, op=SubdiffAbs(1.0, np.zeros(1)), sigma=0.5)
    policy = alg.PerturbationPolicy.constant_norm(30.0, seed=0)
    assert policy.direction(1, 1)[0] == 1.0  # iteration 1 is the case above
    _fail_certificate_at(monkeypatch, float(SS_X[0] - 3.75))  # the third halving
    batched = _run(spec, policy, monkeypatch)
    assert batched[1] == "solver failure" and "certificate failed" in batched[2]
    assert batched == _run(spec, policy, monkeypatch, shrink_until_accepted_sequential)


def test_newton_route_solves_one_row_per_candidate(monkeypatch):
    """Newton solves rows one at a time, so a streak of s shrinks solves
    exactly the s + 1 errors the loop tries."""
    op = GradientOfConvex("logcosh", np.zeros(2))
    step = alg._ss_step(op, 1.0, 0.5, np.array([2.0, -1.0]), 1e-8)
    assert not step.batches
    eta = np.array([[4.0, 3.0]])
    passes = _count_trials(monkeypatch)
    _, _, shrinks = alg._shrink_until_accepted(step, eta)
    assert shrinks >= 2
    assert passes == [1] * (shrinks + 1)
    assert shrinks == shrink_until_accepted_sequential(step, eta)[2]


@pytest.mark.parametrize("scheme", ["ss", "ips", "pls"])
def test_closed_form_streaks_take_two_passes_in_a_run(scheme, monkeypatch):
    """In a run every closed-form streak of s >= 2 shrinks that is at most
    two longer than the streak before it takes one trial pass, or two after
    a streak of 0, and any streak three at most."""
    rng = np.random.default_rng([9, len(scheme)])
    spec = _spec(scheme, 4, rng)
    policy = alg.PerturbationPolicy.constant_norm(0.5, seed=3)
    shrink, seen, passes = alg._shrink_until_accepted, [], _count_trials(monkeypatch)

    def counted(step_fn, eta, max_shrink=60, expect=0):
        start = len(passes)
        out = shrink(step_fn, eta, max_shrink, expect)
        seen.append((expect, out[2], len(passes) - start))
        return out

    _run(spec, policy, monkeypatch, counted)
    streaks = [(e, s, p) for e, s, p in seen if s >= 2]
    assert len(streaks) >= 5
    assert all(p == 1 + (e == 0) for e, s, p in streaks if s <= e + 2)
    assert all(p <= 3 for e, s, p in streaks)
