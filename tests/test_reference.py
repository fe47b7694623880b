"""The brute-force oracle: the same bits as the per-round linspace grid, a clear
error for a w whose norm overflows, and independence from the production
solvers."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from oracles import grid_brute_force
from proxlab import reference
from proxlab.errors import EmptyOperatorValue
from proxlab.legendre import CoshSum, PowerEuclidean, PowerP, QuadraticForm, euclidean
from proxlab.numerics import SpdMetric, random_spd_matrix
from proxlab.operators import (Affine, GradientOfConvex, NormalConeBox, OperatorSum, Scaled,
                               SubdiffAbs)
from proxlab.reference import brute_force_protoresolvent


def _fs(dim, rng):
    return [euclidean(dim), QuadraticForm(SpdMetric.diagonal(rng.uniform(0.5, 2.0, dim))),
            QuadraticForm(SpdMetric(random_spd_matrix(dim, 0.5, 2.0, rng))), CoshSum(dim),
            PowerEuclidean(3.0, dim), PowerP(1.5, 2.5, dim)]


def _ops(dim, rng):
    s = rng.uniform(-1.0, 1.0, dim)
    return [SubdiffAbs(0.7, s), NormalConeBox(-1.0 - 0.1 * np.arange(dim), 1.0 + 0.2 * np.arange(dim)),
            Affine(np.diag(rng.uniform(0.5, 2.0, dim)), s),
            Affine(random_spd_matrix(dim, 0.2, 2.0, rng), -s), Affine(np.zeros((dim, dim)), s),
            GradientOfConvex("logcosh", s), GradientOfConvex("quartic", s),
            GradientOfConvex("norm4", s, weight=0.5), Scaled(1.5, SubdiffAbs(1.0, s)),
            OperatorSum([SubdiffAbs(0.5, s), GradientOfConvex("logcosh", -s)])]


def _outcome(solver, f, op, lam, w, rounds):
    try:
        return solver(f, op, lam, w, rounds=rounds).tobytes()
    except EmptyOperatorValue as exc:
        return re.search(r"round \d+", str(exc)).group()


@pytest.mark.parametrize("dim, rounds", [(1, 8), (1, 30), (2, 8), (2, 30), (3, 5)])
def test_brute_force_keeps_the_grid_oracle_bits(dim, rounds):
    rng = np.random.default_rng(100 + 10 * dim + rounds)
    for f in _fs(dim, rng):
        for op in _ops(dim, rng):
            lam = float(rng.uniform(0.3, 2.0))
            w = rng.uniform(-4.0, 4.0, dim) * 10.0 ** rng.integers(-3, 4)
            expected = _outcome(grid_brute_force, f, op, lam, w, rounds)
            assert _outcome(brute_force_protoresolvent, f, op, lam, w, rounds) == expected, \
                (f.spec_string(), op.spec_string(), lam, w.tolist())


def test_brute_force_rows_are_c_ordered():
    # F-ordered rows send rows @ w down another BLAS path, which rounds this
    # instance differently at round 8 and moves the answer to
    # [-1.18360056, 1.21431385]
    args = (CoshSum(2), SubdiffAbs(1.4353533261015725, np.array([-0.8742790525548518, 0.9445504005835252])),
            0.8862986952671751, np.array([-2.7521210499974122, 2.807686059699133]))
    y = brute_force_protoresolvent(*args, rounds=30)
    assert y.tobytes() == grid_brute_force(*args, rounds=30).tobytes()
    assert y == pytest.approx([-1.18360059, 1.21431381], abs=5e-9)


@pytest.mark.parametrize("w", [1e160, 1e200])
def test_brute_force_names_an_overflowing_w(w):
    # y = 1 is well defined here; the grid's half-width 4 + 4 ||w|| is not
    with pytest.raises(ValueError, match=r"\|\|w\|\| overflows"):
        brute_force_protoresolvent(euclidean(1), NormalConeBox(-1.0, 1.0, 1), 1.0, np.array([w]))


PRODUCTION_MODULES = {"resolvent", "algorithms", "checks"}
PRODUCTION_ATTRIBUTES = {"gradient", "value", "value_box", "grad_inverse", "parts"}
PRODUCTION_NAMES = {"_route", "protoresolvent", "_protoresolvent"}


def test_reference_stays_independent():
    # the oracle cross-checks the production solvers, so it must not reach them
    tree = ast.parse(Path(reference.__file__).read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules = {(node.module or "").split(".")[-1]} | {a.name for a in node.names}
            found += sorted(modules & PRODUCTION_MODULES)
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[-1] in PRODUCTION_MODULES]
        elif isinstance(node, ast.Attribute) and (node.attr in PRODUCTION_ATTRIBUTES
                                                  or node.attr in PRODUCTION_NAMES):
            found.append(f".{node.attr}")
        elif isinstance(node, ast.Name) and node.id in PRODUCTION_NAMES:
            found.append(node.id)
    assert not found, f"reference.py reaches the production solvers through {found}"
