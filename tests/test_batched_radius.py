"""The batched radius-search levels against the one-probe-at-a-time oracle."""

import numpy as np
import pytest

from oracles import radius_search_scalar
from proxlab import resolvent
from proxlab.errors import SolverError, StrongImplicitnessFailure
from proxlab.legendre import CoshSum, QuadraticForm, euclidean
from proxlab.numerics import SpdMetric, random_spd_matrix
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
def test_batched_levels_match_scalar_oracle(form, pairing, dim):
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
    assert radius_search(f, op, lam, x, spec, **kwargs) == scalar


def _fail_certificate_at(monkeypatch, w_target):
    """Make the certificate fail wherever w equals w_target (1-D); the
    returned list counts the rows hit."""
    original = resolvent._certificate
    hits = []

    def certificate(f, op, lam, w, y):
        y, box, residual, bound = original(f, op, lam, w, y)
        hit = w[..., 0] == w_target
        hits.append(int(np.sum(hit)))
        residual = np.where(hit, np.inf, residual)
        return y, box, residual if residual.ndim else float(residual), bound

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
