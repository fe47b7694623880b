"""Malformed vectors at every public entry point.

Each entry point takes a bad vector in one of its vector slots: one of the
wrong dimension, a 2-D array, one with a NaN entry, and x = 800 in 1-D cosh
geometry, where grad f(x) = sinh(800) overflows to inf.  The pinned outcome
is the exception type the entry point raises (None: it returns normally).
"""

import numpy as np
import pytest

from proxlab import cli
from proxlab.algorithms import (PerturbationPolicy, RunSpec, StopRule, bregman_project,
                                eckstein_step, ips_step, pls_step, rs_step, run, ss_step)
from proxlab.errors import DimensionMismatch
from proxlab.legendre import CoshSum, bregman_distance, euclidean
from proxlab.numerics import SpdMetric
from proxlab.operators import SubdiffAbs, enlargement_residual, zero_residual
from proxlab.resolvent import (InclusionInstance, protoresolvent, radius_search,
                               solve_inclusion, ss_form, verify_solution)


def _op(f):
    return SubdiffAbs(1.0, np.zeros(f.dim))


def _zeros(f):
    return np.zeros(f.dim)


def _inst(f, x):
    return InclusionInstance(f=f, op=_op(f), lam=1.0, x=x, eta=_zeros(f))


ENTRY_POINTS = {
    "protoresolvent": lambda f, v: protoresolvent(f, _op(f), 1.0, v),
    "solve_inclusion": lambda f, v: solve_inclusion(_inst(f, v)),
    "verify_solution.y": lambda f, v: verify_solution(_inst(f, np.ones(f.dim)), v, _zeros(f)),
    "verify_solution.xi": lambda f, v: verify_solution(_inst(f, np.ones(f.dim)), _zeros(f), v),
    "radius_search": lambda f, v: radius_search(f, _op(f), 1.0, v, ss_form(0.5, 1.0), probes=2),
    "bregman_project": lambda f, v: bregman_project(f, [(np.ones(f.dim), -1.0)], v),
    "eckstein_step.x": lambda f, v: eckstein_step(f, _op(f), 1.0, v, _zeros(f)),
    "eckstein_step.eta": lambda f, v: eckstein_step(f, _op(f), 1.0, _zeros(f), v),
    "ss_step.x": lambda f, v: ss_step(_op(f), 1.0, 0.5, v, _zeros(f)),
    "ss_step.eta": lambda f, v: ss_step(_op(f), 1.0, 0.5, _zeros(f), v),
    "ips_step.x": lambda f, v: ips_step(_op(f), 1.0, 0.3, v, _zeros(f)),
    "ips_step.eta": lambda f, v: ips_step(_op(f), 1.0, 0.3, _zeros(f), v),
    "pls_step.x": lambda f, v: pls_step(_op(f), 1.0, SpdMetric.identity(f.dim), 0.5, 1.0, v,
                                        _zeros(f)),
    "pls_step.eta": lambda f, v: pls_step(_op(f), 1.0, SpdMetric.identity(f.dim), 0.5, 1.0,
                                          _zeros(f), v),
    "rs_step.x": lambda f, v: rs_step(f, [_op(f)], [1.0], [_zeros(f)], np.ones(f.dim), v),
    "rs_step.eta": lambda f, v: rs_step(f, [_op(f)], [1.0], [v], np.ones(f.dim), _zeros(f)),
    "run": lambda f, v: run(RunSpec(scheme="eckstein", x0=v, op=_op(f), f=f),
                            PerturbationPolicy.zero(), StopRule(max_iters=3)),
    "zero_residual": lambda f, v: zero_residual(_op(f), f, 1.0, v),
    "enlargement_residual": lambda f, v: enlargement_residual(_op(f), 0.0, v, _zeros(f)),
    "bregman_distance.y": lambda f, v: bregman_distance(f, v, _zeros(f)),
    "bregman_distance.x": lambda f, v: bregman_distance(f, _zeros(f), v),
    "parse_config": lambda f, v: cli.parse_config({
        "space_dim": f.dim, "scheme": "eckstein", "x0": np.asarray(v).tolist(),
        "legendre": f.spec_string(), "operator": "abs:w=1"}),
}

CASES = {
    "wrong_dim": (lambda: euclidean(2), np.ones(3)),
    "matrix": (lambda: euclidean(2), np.ones((2, 2))),
    "nan": (lambda: euclidean(2), np.array([np.nan, 1.0])),
    "cosh_overflow": (lambda: CoshSum(1), np.array([800.0])),
}

# grad f(x) overflows on the way to the solver at these entry points; the
# others never form grad f(800) or only report on it
OVERFLOW_RAISES = {"bregman_project", "eckstein_step.x", "radius_search", "rs_step.x", "run",
                   "solve_inclusion", "zero_residual"}


def _expected(entry, case):
    if case == "cosh_overflow":
        return ValueError if entry in OVERFLOW_RAISES else None
    return ValueError if case == "nan" else DimensionMismatch


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_entry_point_rejects_bad_vector(entry, case):
    make_f, v = CASES[case]
    expected = _expected(entry, case)
    with np.errstate(over="ignore", invalid="ignore"):
        if expected is None:
            ENTRY_POINTS[entry](make_f(), v)
        else:
            with pytest.raises(expected) as info:
                ENTRY_POINTS[entry](make_f(), v)
            assert type(info.value) is expected
