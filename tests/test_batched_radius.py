"""The batched radius-search levels against the one-probe-at-a-time oracle."""

import numpy as np
import pytest

from oracles import radius_search_scalar
from proxlab import resolvent
from proxlab.errors import SolverError, StrongImplicitnessFailure
from proxlab.legendre import CoshSum, QuadraticForm, euclidean
from proxlab.numerics import SpdMetric, random_spd_matrix, unit_directions
from proxlab.operators import Affine, GradientOfConvex, NormalConeBox, OperatorSum, SubdiffAbs
from proxlab.resolvent import ips_form, pls_form, radius_search, ss_form

PAIRINGS = ("eucl+abs", "eucl+box", "eucl+logcosh", "eucl+abs_affine", "diagq+affine",
            "denseq+affine", "cosh+abs")


def _pairing(name, dim, rng):
    shift = rng.uniform(-1.0, 1.0, size=dim)
    diag = np.diag(rng.uniform(0.5, 2.0, size=dim))
    f = {"eucl": euclidean(dim), "cosh": CoshSum(dim),
         "diagq": QuadraticForm(SpdMetric.diagonal(rng.uniform(0.5, 2.0, size=dim))),
         "denseq": QuadraticForm(SpdMetric(random_spd_matrix(dim, 0.5, 2.0, rng)))}[name.split("+")[0]]
    op = {"abs": lambda: SubdiffAbs(rng.uniform(0.5, 1.5), shift),
          "box": lambda: NormalConeBox(-1.0 - rng.uniform(0.0, 1.0, size=dim),
                                       1.0 + rng.uniform(0.0, 1.0, size=dim)),
          "logcosh": lambda: GradientOfConvex("logcosh", shift),
          "abs_affine": lambda: OperatorSum([SubdiffAbs(rng.uniform(0.5, 1.5), shift),
                                             Affine(diag, rng.uniform(-1.0, 1.0, size=dim))]),
          "affine": lambda: Affine(random_spd_matrix(dim, 0.2, 2.0, rng),
                                   rng.uniform(-1.0, 1.0, size=dim))}[name.split("+")[1]]()
    return f, op


def _form(name, dim, lam, rng):
    if name == "ss":
        return ss_form(rng.uniform(0.3, 0.7), 1.0 / lam)
    if name == "ips":
        return ips_form(rng.uniform(0.2, 0.5), lam)
    metric = SpdMetric(random_spd_matrix(dim, 0.5, 2.0, rng))
    return pls_form(rng.uniform(0.3, 0.7), lam, metric)


@pytest.mark.parametrize("dim", [1, 2, 8])
@pytest.mark.parametrize("pairing", PAIRINGS)
@pytest.mark.parametrize("form", ["ss", "ips", "pls"])
def test_batched_levels_match_scalar_oracle(form, pairing, dim, monkeypatch):
    rng = np.random.default_rng([7, dim, PAIRINGS.index(pairing), len(form)])
    f, op = _pairing(pairing, dim, rng)
    lam = float(rng.uniform(0.5, 2.0))
    spec = _form(form, dim, lam, rng)
    kwargs = {"probes": 6, "seed": 3}
    # the matrix exercises the search, so x is redrawn where eta = 0 already
    # fails strong implicitness (a zero of A, or a form that fails at x)
    for _ in range(20):
        x = rng.uniform(-3.0, 3.0, size=dim)
        try:
            scalar = radius_search_scalar(f, op, lam, x, spec, **kwargs)
            break
        except StrongImplicitnessFailure:
            continue
    else:
        pytest.fail("no x with a strongly implicit start")
    passes = _count_rows(monkeypatch)
    assert radius_search(f, op, lam, x, spec, **kwargs) == scalar
    # a closed form solves 15 levels of 10 rows (1-D) or 3 of 30 in its first pass
    rows = len(unit_directions(6, dim, 3)) * 5
    closed = resolvent._closed_form(f, op, lam) is not None
    assert max(passes) == ({10: 150, 30: 90}[rows] if closed else rows)


def _count_rows(monkeypatch):
    """Record the rows of each _certified_rows pass."""
    original = resolvent._certified_rows
    passes = []

    def certified_rows(solve, f, op, lam, w):
        passes.append(len(w))
        return original(solve, f, op, lam, w)

    monkeypatch.setattr(resolvent, "_certified_rows", certified_rows)
    return passes


def _sequential_rows(x, r, rows_per_level, refine_depth=24):
    """Rows a one-level-per-pass search solves to return r > 0: the halvings
    up to the first passing level, then the whole bisection."""
    level, top = 0, 1.0 + float(np.linalg.norm(x))
    while top > r:
        top, level = 0.5 * top, level + 1
    return rows_per_level * (level + 1 + (refine_depth if level else 0))


def _fail_certificate_at(monkeypatch, w_target):
    """Make the certificate fail wherever w equals w_target (1-D); the
    returned list counts the rows hit."""
    original = resolvent._certificate
    hits = []

    def certificate(f, op, lam, w, y):
        y, box, gy, residual, bound = original(f, op, lam, w, y)
        hit = w[..., 0] == w_target
        hits.append(int(np.sum(hit)))
        residual = np.where(hit, np.inf, residual)
        return y, box, gy, residual if residual.ndim else float(residual), bound

    monkeypatch.setattr(resolvent, "_certificate", certificate)
    return hits


# at r0 = 1 + |x| = 3 the rows run eta = 3 m for m in the magnitudes, then -3 m;
# the first row (eta = 2.997) fails Phi < Psi for this ss instance
SS_CASE = (euclidean(1), SubdiffAbs(1.0, np.zeros(1)), 1.0, np.array([2.0]), ss_form(0.5, 1.0))


@pytest.mark.parametrize("search", [radius_search, radius_search_scalar])
def test_earlier_score_failure_hides_a_later_certificate_failure(monkeypatch, search):
    f, op, lam, x, spec = SS_CASE
    eta = np.array([0.999 * 3.0])
    sol = resolvent._solve(f, op, lam, eta, f.gradient(x))
    assert not spec.phi(eta, sol.xi, x, sol.y) < spec.psi(eta, sol.xi, x, sol.y)
    hits = _fail_certificate_at(monkeypatch, float(x[0] + lam * (-0.05 * 3.0)))  # the last row
    assert search(f, op, lam, x, spec, halving_depth=1) == 0.0
    # the batched level certifies the failing row; the scalar loop never reaches it
    assert sum(hits) == (1 if search is radius_search else 0)


@pytest.mark.parametrize("search", [radius_search, radius_search_scalar])
def test_first_row_certificate_failure_raises(monkeypatch, search):
    f, op, lam, x, spec = SS_CASE
    _fail_certificate_at(monkeypatch, float(x[0] + lam * (0.999 * 3.0)))  # the first row
    with pytest.raises(SolverError, match="certificate failed: residual inf"):
        search(f, op, lam, x, spec, halving_depth=1)


def test_closed_form_search_batches_its_levels(monkeypatch):
    f, op, lam, x, spec = SS_CASE
    passes = _count_rows(monkeypatch)
    r = radius_search(f, op, lam, x, spec)
    # one pass per level would be 28 passes (3 failing halvings, a passing
    # one, 24 bisection steps); batched, one halving pass and six subtrees
    assert _sequential_rows(x, r, 10) == 280
    assert len(passes) <= 8
    assert r == radius_search_scalar(f, op, lam, x, spec)


@pytest.mark.parametrize("dim", [1, 8])
@pytest.mark.parametrize("pairing", ["eucl+logcosh", "eucl+abs_affine"])
def test_row_by_row_routes_solve_one_level_per_pass(pairing, dim, monkeypatch):
    """Newton solves rows one at a time and the multisection pays per row,
    so their searches solve exactly the sequential schedule's rows."""
    rng = np.random.default_rng([11, dim])
    f, op = _pairing(pairing, dim, rng)
    assert resolvent._closed_form(f, op, 1.0) is None
    x, spec = np.full(dim, 2.0), ss_form(0.5, 1.0)
    passes = _count_rows(monkeypatch)
    r = radius_search(f, op, 1.0, x, spec, probes=4)
    rows = len(unit_directions(4, dim, 0)) * 5
    assert set(passes) == {rows}
    assert sum(passes) == _sequential_rows(x, r, rows)


def _levels(monkeypatch, search, *args, **kwargs):
    """The first-row w of each level the search solves (1-D, 10 rows a level
    for the batched search, one row a call for the scalar oracle)."""
    seen = []
    with monkeypatch.context() as m:
        if search is radius_search:
            original = resolvent._certified_rows

            def certified_rows(solve, f, op, lam, w):
                seen.extend(w[::10, 0])
                return original(solve, f, op, lam, w)

            m.setattr(resolvent, "_certified_rows", certified_rows)
        else:
            original = resolvent._certificate

            def certificate(f, op, lam, w, y):
                seen.append(float(w[0]))
                return original(f, op, lam, w, y)

            m.setattr(resolvent, "_certificate", certificate)
        search(*args, **kwargs)
    return seen


def test_certificate_failure_off_the_path_is_not_raised(monkeypatch):
    f, op, lam, x, spec = SS_CASE
    path = set(_levels(monkeypatch, radius_search_scalar, f, op, lam, x, spec))
    off_path = [w for w in _levels(monkeypatch, radius_search, f, op, lam, x, spec) if w not in path]
    assert off_path  # the subtrees solve levels the sequential path never reaches
    expected = radius_search_scalar(f, op, lam, x, spec)
    hits = _fail_certificate_at(monkeypatch, off_path[-1])
    assert radius_search(f, op, lam, x, spec) == expected
    assert sum(hits) == 1  # solved, failed its certificate, not raised


def test_certificate_failure_on_the_path_raises_the_oracle_error(monkeypatch):
    f, op, lam, x, spec = SS_CASE
    path = set(_levels(monkeypatch, radius_search_scalar, f, op, lam, x, spec))
    on_path = [w for w in _levels(monkeypatch, radius_search, f, op, lam, x, spec) if w in path]
    _fail_certificate_at(monkeypatch, on_path[-1])  # a level deep in the last subtree
    messages = []
    for search in (radius_search, radius_search_scalar):
        with pytest.raises(SolverError, match="certificate failed") as exc:
            search(f, op, lam, x, spec)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def test_no_passing_level_within_the_halving_depth(monkeypatch):
    f, op, lam, x, spec = SS_CASE  # levels 0-2 fail, level 3 (r = 0.375) passes
    passes = _count_rows(monkeypatch)
    assert radius_search(f, op, lam, x, spec, halving_depth=3) == 0.0
    assert passes == [30]  # the three levels in one pass, none past the third
    assert radius_search_scalar(f, op, lam, x, spec, halving_depth=3) == 0.0


def test_passing_first_level_returns_the_start_radius(monkeypatch):
    f, op, lam, x, _ = SS_CASE
    spec = ss_form(0.9, 4.0)
    passes = _count_rows(monkeypatch)
    assert radius_search(f, op, lam, x, spec) == 1.0 + float(np.linalg.norm(x))
    assert passes == [150]
    assert radius_search_scalar(f, op, lam, x, spec) == 3.0
