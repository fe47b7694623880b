"""The strategy `resolvent._route` picks for every catalog f and operator
shape, read from the rules the README states; a one-term sum solves as its
term does."""

import numpy as np
import pytest

from proxlab import resolvent
from proxlab.errors import NoStrategy
from proxlab.legendre import CoshSum, PowerEuclidean, PowerP, QuadraticForm, euclidean
from proxlab.numerics import SpdMetric, random_spd_matrix
from proxlab.operators import (Affine, GradientOfConvex, MonotoneOp, NormalConeBox, OperatorSum,
                               Scaled, SubdiffAbs, ValueBox)

DIMS = (1, 2, 8)
F_KINDS = ("euclidean", "diag_quadratic", "dense_quadratic", "cosh", "power", "powerp")
# leaf -> the routing form of its one part
LEAVES = {"abs": "abs", "box": "box", "affine": "affine", "affine_dense": "affine",
          "constant": "constant", "logcosh": "smooth", "quartic": "smooth", "norm4": "smooth"}
COUPLED = ("affine_dense", "norm4")  # the leaves that couple coordinates past 1-D
LAM = 0.8


def _f(kind, dim):
    rng = np.random.default_rng(dim)
    return {"euclidean": lambda: euclidean(dim),
            "diag_quadratic": lambda: QuadraticForm(SpdMetric.diagonal(np.linspace(0.5, 2.0, dim))),
            "dense_quadratic": lambda: QuadraticForm(SpdMetric(random_spd_matrix(dim, 0.5, 2.0, rng))),
            "cosh": lambda: CoshSum(dim), "power": lambda: PowerEuclidean(3.0, dim),
            "powerp": lambda: PowerP(1.5, 2.5, dim)}[kind]()


def _leaf(name, dim):
    s = np.linspace(-0.5, 0.5, dim)
    return {"abs": lambda: SubdiffAbs(0.7, s),
            "box": lambda: NormalConeBox(-1.0 - 0.1 * np.arange(dim), 1.0 + 0.2 * np.arange(dim)),
            "affine": lambda: Affine(np.diag(np.linspace(1.0, 2.0, dim)), s),
            "affine_dense": lambda: Affine(random_spd_matrix(dim, 0.2, 2.0, np.random.default_rng(dim)), -s),
            "constant": lambda: Affine(np.zeros((dim, dim)), s),
            "logcosh": lambda: GradientOfConvex("logcosh", s),
            "quartic": lambda: GradientOfConvex("quartic", s),
            "norm4": lambda: GradientOfConvex("norm4", s, weight=0.5)}[name]()


class Undeclared(MonotoneOp):
    """y -> 2 y with no declared parts."""

    kind = "undeclared"

    def __init__(self, dim):
        self.dim = dim

    def value_box(self, y):
        v = 2.0 * np.asarray(y)
        return ValueBox(v, v)

    def spec_string(self):
        return "undeclared"


def _shapes():
    """name -> (build(dim), routing form, leaves used)."""
    shapes = {}
    for name, form in LEAVES.items():
        shapes[name] = (lambda d, n=name: _leaf(n, d), form, (name,))
        shapes[f"scale({name})"] = (lambda d, n=name: Scaled(1.5, _leaf(n, d)), form, (name,))
        shapes[f"sum({name})"] = (lambda d, n=name: OperatorSum([_leaf(n, d)]), form, (name,))
    for name in ("abs", "box", "affine_dense", "logcosh"):
        shapes[f"scale(scale({name}))"] = (
            lambda d, n=name: Scaled(0.5, Scaled(3.0, _leaf(n, d))), LEAVES[name], (name,))
    for names, form in ((("abs", "affine"), "multi"), (("box", "logcosh"), "multi"),
                        (("logcosh", "quartic"), "multi"), (("abs", "norm4"), "multi"),
                        (("affine", "affine_dense"), "affine"), (("constant", "constant"), "constant")):
        shapes[f"sum({','.join(names)})"] = (
            lambda d, ns=names: OperatorSum([_leaf(n, d) for n in ns]), form, names)
    shapes["sum(scale(sum(affine,constant)),affine_dense)"] = (
        lambda d: OperatorSum([Scaled(2.0, OperatorSum([_leaf("affine", d), _leaf("constant", d)])),
                               _leaf("affine_dense", d)]), "affine", ("affine", "affine_dense"))
    shapes["sum(box,box)"] = (
        lambda d: OperatorSum([_leaf("box", d), NormalConeBox(-0.5, 3.0, d)]), "multi", ("box",))
    shapes["undeclared"] = (Undeclared, "multi", ())
    shapes["scale(sum(scale(sum(logcosh))))"] = (
        lambda d: Scaled(2.0, OperatorSum([Scaled(0.5, OperatorSum([_leaf("logcosh", d)]))])),
        "smooth", ("logcosh",))
    return shapes


SHAPES = _shapes()


def _expected(f, form, separable):
    """The README's routing rules, first match wins."""
    quadratic = isinstance(f, QuadraticForm)
    identity = quadratic and f.is_identity
    if form in ("affine", "constant") and quadratic:
        return "linear_solve"
    if form == "constant":
        return "gradient_inverse"
    if form == "abs" and f.separable:
        return "soft_threshold" if identity else "shrink"
    if form == "box" and f.separable:
        return "clamp"
    if form == "smooth" and identity:
        return "newton"
    if f.separable and separable:
        return "multisection"
    return "NoStrategy"


def _solvers():
    """The code of each strategy's solve, taken from the simplest pairing the
    README routes to it; every closure a strategy returns shares that code."""
    e, c = euclidean(1), CoshSum(1)
    pairings = {"linear_solve": (e, Affine(np.eye(1), [0.0])),
                "gradient_inverse": (c, Affine(np.zeros((1, 1)), [0.0])),
                "soft_threshold": (e, SubdiffAbs(1.0, [0.0])), "shrink": (c, SubdiffAbs(1.0, [0.0])),
                "clamp": (e, NormalConeBox(-1.0, 1.0, 1)),
                "newton": (e, GradientOfConvex("logcosh", [0.0])),
                "multisection": (c, GradientOfConvex("logcosh", [0.0]))}
    codes = {resolvent._route(f, op, 1.0)[0].__code__: name for name, (f, op) in pairings.items()}
    assert len(codes) == len(pairings)
    return codes


SOLVERS = _solvers()


def _strategy(f, op):
    try:
        solve, batches = resolvent._route(f, op, LAM)
    except NoStrategy:
        return "NoStrategy"
    name = SOLVERS[solve.__code__]
    assert batches == (name not in ("newton", "multisection"))
    return name


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_route_matrix(shape, dim):
    build, form, leaves = SHAPES[shape]
    separable = dim == 1 or not set(leaves) & set(COUPLED)
    for kind in F_KINDS:
        f = _f(kind, dim)
        assert _strategy(f, build(dim)) == _expected(f, form, separable), kind


def test_undeclared_operator_routes_as_the_base_class():
    op = Undeclared(2)
    assert op.parts == () and op.separable and op.domain == (-np.inf, np.inf)
    y = resolvent.protoresolvent(CoshSum(2), op, 1.0, np.array([1.0, -2.0]))
    assert np.all(np.abs(np.sinh(y) + 2.0 * y - [1.0, -2.0]) <= 1e-12)
    with pytest.raises(NoStrategy):
        resolvent._route(PowerEuclidean(3.0, 2), op, 1.0)


def test_operators_without_parts_are_not_scaled_or_summed():
    with pytest.raises(TypeError, match="Undeclared has no catalog parts to scale"):
        Scaled(2.0, Undeclared(2))
    for terms in ([Undeclared(2), _leaf("affine", 2)], [_leaf("affine", 2), Undeclared(2)]):
        with pytest.raises(TypeError, match="Undeclared has no catalog parts to sum"):
            OperatorSum(terms)
    with pytest.raises(NotImplementedError):
        MonotoneOp.value_box(Undeclared(2), np.zeros(2))


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("leaf", sorted(LEAVES))
def test_one_term_sum_solves_as_its_term(leaf, dim):
    w = np.random.default_rng([5, dim]).uniform(-3.0, 3.0, size=(6, dim))
    for kind in F_KINDS:
        f = _f(kind, dim)
        term = _leaf(leaf, dim)
        strategy = _strategy(f, term)
        assert _strategy(f, OperatorSum([term])) == strategy, kind
        if strategy == "NoStrategy":
            continue
        y_sum, y_term = (resolvent._route(f, op, LAM)[0](w) for op in (OperatorSum([term]), term))
        assert y_sum.tobytes() == y_term.tobytes(), kind
        for row in w:
            y_sum, y_term = (resolvent.protoresolvent(f, op, LAM, row) for op in (OperatorSum([term]), term))
            assert y_sum.tobytes() == y_term.tobytes(), kind
