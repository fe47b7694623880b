import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import coord_box, coord_kinks, coord_value_box, enlargement_residual_scalar
from test_routing import F_KINDS, SHAPES, _f
from proxlab import checks
from proxlab.errors import DimensionMismatch, EmptyOperatorValue
from proxlab.legendre import euclidean, parse_legendre
from proxlab.numerics import random_spd_matrix
from proxlab.operators import (Affine, GradientOfConvex, NormalConeBox, OperatorSum,
                               Scaled, SubdiffAbs, enlargement_residual, identity_op,
                               parse_operator, zero_residual)


def test_membership_examples():
    abs1 = SubdiffAbs(1.0, np.zeros(1))
    assert abs1.membership_residual([0.0], [0.3]) == 0.0
    assert abs1.membership_residual([2.0], [0.5]) == pytest.approx(0.5)
    ident = identity_op(2)
    assert ident.membership_residual([1.0, 2.0], [1.0, 2.0]) == 0.0


def test_normal_cone_membership():
    box = NormalConeBox(-1.0, 1.0, 2)
    assert box.membership_residual([0.2, -0.3], [0.0, 0.0]) == 0.0
    assert box.membership_residual([0.2, 0.0], [0.4, 0.1]) == pytest.approx(np.hypot(0.4, 0.1))
    # boundary rays absorb one-signed candidates exactly
    assert box.membership_residual([1.0, 0.0], [3.0, 0.0]) == 0.0
    assert box.membership_residual([-1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)
    with pytest.raises(EmptyOperatorValue):
        box.membership_residual([2.0, 0.0], [0.0, 0.0])


def test_enlargement_examples():
    abs1 = SubdiffAbs(1.0, np.zeros(1))
    # exact membership certifies every enlargement level
    assert enlargement_residual(abs1, 0.0, [2.0], [1.0]) == 0.0
    # slack absorbs a candidate just outside the kink interval on the default box
    assert enlargement_residual(abs1, 0.5, [0.0], [1.2]) == 0.0
    # oracle (dense grid): worst witness x' = 0.5 with violation 0.25
    v = enlargement_residual(identity_op(1), 0.0, [0.0], [1.0], witness_budget=4096)
    assert v == pytest.approx(0.25, abs=1e-3)


@pytest.mark.parametrize("dim", [9, 64])
def test_enlargement_beyond_eight_dims(dim):
    abs_d = SubdiffAbs(1.0, np.zeros(dim))
    assert enlargement_residual(abs_d, 0.1, np.zeros(dim), np.zeros(dim)) == 0.0
    # a candidate far outside A(0) = [-1, 1]^dim is caught along the first axis
    # (base 2) and along the last, which uses the largest Halton prime
    for axis in (0, dim - 1):
        xi = np.zeros(dim)
        xi[axis] = 100.0
        assert enlargement_residual(abs_d, 0.1, np.zeros(dim), xi) > 0.0


def test_affine_matrix_is_read_only():
    # the cached separable flag cannot go stale
    assert not Affine(np.array([[1.0, 0.5], [0.5, 1.0]]), np.zeros(2)).separable
    op = Affine(np.diag([1.0, 2.0]), np.zeros(2))
    assert op.separable
    with pytest.raises(ValueError):
        op.matrix[0, 1] = 1.0


def test_enlargement_monotone_in_eps():
    abs1 = SubdiffAbs(1.0, np.zeros(1))
    y, xi = np.zeros(1), np.array([1.4])
    assert checks.enlargement_eps_rise(abs1, y, xi, (0.0, 0.1, 0.2, 0.4), 512) <= 1e-12
    # 1.4 is outside the subdifferential at the kink
    assert enlargement_residual(abs1, 0.0, y, xi, witness_budget=512) > 0.0


def test_zero_residual_examples():
    f = euclidean(1)
    abs1 = SubdiffAbs(1.0, np.zeros(1))
    assert zero_residual(abs1, f, 1.0, [0.0]) == pytest.approx(0.0, abs=1e-12)
    assert zero_residual(abs1, f, 1.0, [2.0]) == pytest.approx(1.0, abs=1e-10)
    assert zero_residual(identity_op(1), f, 1.0, [4.0]) == pytest.approx(2.0, abs=1e-10)


def test_scaling_law():
    rng = np.random.default_rng(0)
    base = SubdiffAbs(1.0, np.zeros(2))
    for _ in range(100):
        lam = float(rng.uniform(0.2, 3.0))
        y = rng.uniform(-2.0, 2.0, size=2)
        lhs, rhs = checks.scaling_law_sides(base, lam, y, rng.uniform(-2.0, 2.0, size=2))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_monotonicity_sampled():
    rng = np.random.default_rng(1)
    ops = [
        SubdiffAbs(1.0, np.zeros(2)),
        Affine(np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([0.3, -0.2])),
        NormalConeBox(-1.0, 1.0, 2),
        GradientOfConvex("logcosh", np.zeros(2), 2),
        GradientOfConvex("norm4", np.zeros(2), 2),
        OperatorSum([SubdiffAbs(0.5, np.zeros(2)), identity_op(2)]),
    ]
    for op in ops:
        assert checks.monotonicity_gap(op, 60, rng) >= -1e-10


def test_affine_validation():
    with pytest.raises(ValueError):
        Affine(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.zeros(2))  # skew
    with pytest.raises(ValueError):
        Affine(-np.eye(2), np.zeros(2))  # negative definite
    Affine(np.zeros((2, 2)), np.ones(2))  # constant operator is fine


def test_sum_and_scale_structure():
    inner = SubdiffAbs(1.0, np.array([0.5]))
    s = Scaled(2.0, inner)
    assert coord_kinks(s, 0) == (0.5,)
    assert coord_box(s, 0, 0.5) == (-2.0, 2.0)
    assert np.array_equal(np.stack(coord_value_box(s, [0.5])), [[-2.0], [2.0]])
    (kind, weight, shift), = s.parts
    assert kind == "abs" and weight == 2.0 and np.array_equal(shift, [0.5])
    total = OperatorSum([inner, identity_op(1)])
    assert coord_box(total, 0, 0.5) == (-0.5, 1.5)
    box = total.value_box(np.array([0.5]))
    assert (box.lo[0], box.hi[0]) == (-0.5, 1.5)
    assert coord_kinks(total, 0) == (0.5,)
    # two parts: neither the abs nor the box closed form applies
    assert [p[0] for p in total.parts] == ["abs", "affine"]
    cone = NormalConeBox(-1.0, 2.0, 1)
    (kind, lower, upper), = Scaled(3.0, cone).parts
    assert kind == "box" and [lower.tolist(), upper.tolist()] == [[-1.0], [2.0]]
    # the affine parts of a sum fold into one, the domain is the boxes' intersection
    (_, m, b, separable), = OperatorSum([identity_op(2), Affine(np.diag([1.0, 2.0]), [1.0, -1.0])]).parts
    assert m.tolist() == [[2.0, 0.0], [0.0, 3.0]] and b.tolist() == [1.0, -1.0] and separable
    boxes = OperatorSum([cone, NormalConeBox(0.0, 3.0, 1)])
    assert [d.tolist() for d in boxes.domain] == [[0.0], [2.0]] and len(boxes.parts) == 2
    with pytest.raises(DimensionMismatch):
        OperatorSum([identity_op(1), identity_op(2)])


def test_parse_operator():
    op = parse_operator("abs:w=1,shift=1", 1)
    assert isinstance(op, SubdiffAbs) and op.weight == 1.0 and op.shift[0] == 1.0
    op = parse_operator("affine:diag=1,b=0", 2)
    assert isinstance(op, Affine)
    assert_allclose(op.matrix, np.eye(2))
    op = parse_operator("box:-1,1", 3)
    assert isinstance(op, NormalConeBox) and op.lower[0] == -1.0 and op.upper[2] == 1.0
    op = parse_operator("scale:0.5:abs:w=1", 1)
    assert isinstance(op, Scaled) and op.lam == 0.5
    op = parse_operator("sum:abs:w=1|affine:diag=0.5,b=0", 2)
    assert isinstance(op, OperatorSum) and len(op.terms) == 2
    op = parse_operator("grad:logcosh:shift=0", 2)
    assert isinstance(op, GradientOfConvex) and op.profile == "logcosh"
    with pytest.raises(ValueError):
        parse_operator("unknown:1", 1)
    with pytest.raises(ValueError):
        parse_operator("grad:cubic:shift=0", 1)


def _same_parts(a, b):
    """The parts of a and b hold the same bits; smooth parts compare their values on rows."""
    rows = np.random.default_rng(a.dim).uniform(-2.0, 2.0, size=(5, a.dim))
    assert [p[0] for p in a.parts] == [p[0] for p in b.parts]
    for pa, pb in zip(a.parts, b.parts):
        if pa[0] == "smooth":
            pa, pb = ((p[1](rows), p[2](rows[0]), p[3]) for p in (pa, pb))
        for u, v in zip(pa, pb):
            assert np.asarray(u).tobytes() == np.asarray(v).tobytes(), (pa[0], a)


def test_spec_strings_reparse():
    # the '|' grammar cannot nest a sum in a sum
    shapes = [(name, build) for name, (build, _, leaves) in sorted(SHAPES.items())
              if leaves and name.count("sum(") < 2]
    rows = np.random.default_rng(0).uniform(-2.0, 2.0, size=(5, 8))
    for dim in (1, 2, 8):
        for name, build in shapes:
            op = build(dim)
            clone = parse_operator(op.spec_string(), dim)
            assert clone.spec_string() == op.spec_string(), name
            _same_parts(clone, op)
        for kind in F_KINDS:
            f = _f(kind, dim)
            clone = parse_legendre(f.spec_string(), dim)
            assert type(clone) is type(f) and clone.spec_string() == f.spec_string(), kind
            assert clone.gradient(rows[:, :dim]).tobytes() == f.gradient(rows[:, :dim]).tobytes(), kind
            if hasattr(f, "metric"):  # a symmetric matrix keeps its bits through 0.5 (M + M^T)
                assert clone.metric.matrix.tobytes() == f.metric.matrix.tobytes(), kind


def test_dense_spec_needs_d_squared_entries():
    op = parse_operator("affine:m=2,1,1,2,b=1,0", 2)
    assert np.array_equal(op.matrix, [[2.0, 1.0], [1.0, 2.0]]) and np.array_equal(op.offset, [1.0, 0.0])
    f = parse_legendre("quadratic:m=2,1,1,2", 2)
    assert np.array_equal(f.metric.matrix, [[2.0, 1.0], [1.0, 2.0]])
    for parse, spec in ((parse_operator, "affine:m=2,1,1,b=0"), (parse_legendre, "quadratic:m=2,1,1,2,0")):
        with pytest.raises(ValueError, match="it needs 4"):
            parse(spec, 2)
    for parse, spec in ((parse_operator, "affine:diag=1,m=1,b=0"), (parse_legendre, "quadratic:diag=1,m=1"),
                        (parse_legendre, "quadratic:b=1")):
        with pytest.raises(ValueError, match="needs diag=... or m=..., not both"):
            parse(spec, 1)


def test_nested_sum_spec_is_refused():
    op = OperatorSum([Scaled(2.0, OperatorSum([SubdiffAbs(1.0, [0.0]), identity_op(1)])),
                      Affine(np.diag([2.0]), [1.0])])
    assert op.value_box(np.array([0.5])).lo[0] == 5.0
    with pytest.raises(ValueError, match="cannot itself hold a sum"):
        parse_operator(op.spec_string(), 1)  # it split at every '|' into a different operator
    with pytest.raises(ValueError, match="cannot itself hold a sum"):
        parse_operator("sum:abs:w=1|sum:abs:w=2", 1)
    top = parse_operator("scale:2:sum:abs:w=1,shift=0|affine:diag=1,b=0", 1)
    assert isinstance(top, Scaled) and len(top.inner.terms) == 2
    assert top.value_box(np.array([0.5])).lo[0] == 3.0


def test_box_spec_broadcast():
    op = parse_operator("box:-1;1", 3)
    assert op.dim == 3 and op.lower[2] == -1.0 and op.upper[0] == 1.0
    with pytest.raises(DimensionMismatch):
        parse_operator("box:-1,-1;1,1", 3)


def _row_catalog(dim, rng):
    box = NormalConeBox(-np.ones(dim), np.ones(dim))
    return [
        SubdiffAbs(0.7, rng.uniform(-1.0, 1.0, size=dim)),
        Affine(np.diag(rng.uniform(0.5, 2.0, size=dim)), rng.uniform(-1.0, 1.0, size=dim)),
        Affine(random_spd_matrix(dim, 0.5, 2.0, rng), rng.uniform(-1.0, 1.0, size=dim)),
        box,
        GradientOfConvex("logcosh", rng.uniform(-1.0, 1.0, size=dim), weight=1.5),
        GradientOfConvex("quartic", rng.uniform(-1.0, 1.0, size=dim)),
        GradientOfConvex("norm4", rng.uniform(-1.0, 1.0, size=dim)),
        Scaled(0.5, box),
        OperatorSum([SubdiffAbs(1.0, np.zeros(dim)), identity_op(dim), Scaled(2.0, box)]),
    ]


# lam (M y + b) and M1 y + b1 + M2 y + b2 round apart from the parts'
# (lam M) y + lam b and (M1 + M2) y + (b1 + b2)
AFFINE_SCALED_OR_FOLDED = {"scale(affine)", "scale(affine_dense)", "scale(scale(affine_dense))",
                           "sum(affine,affine_dense)", "sum(scale(sum(affine,constant)),affine_dense)"}


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_row_value_box_stacks_single_vector_boxes(dim):
    rng = np.random.default_rng(dim)
    rows = rng.uniform(-1.5, 1.5, size=(12, dim))
    rows[0] = 0.0                      # inside the box, on every abs kink
    rows[1] = np.ones(dim)             # on the box's upper face
    rows[2, 0] = -1.0                  # on a lower face
    rows[3, -1] = 4.0                  # outside the box
    rows[4] = rng.uniform(-0.9, 0.9, size=dim)  # strictly inside
    xi = rng.uniform(-2.0, 2.0, size=rows.shape)
    ops = [(type(op).__name__, op) for op in _row_catalog(dim, rng)]
    ops += [(name, build(dim)) for name, (build, _, leaves) in sorted(SHAPES.items()) if leaves]
    for name, op in ops:
        box = op.value_box(rows)
        empty = np.broadcast_to(box.empty, len(rows))
        dist = op.membership_residual(rows, xi)
        for j, row in enumerate(rows):
            try:
                single = op.value_box(row)
            except EmptyOperatorValue:
                assert empty[j] and dist[j] == np.inf, name
                continue
            assert not empty[j], name
            assert np.array_equal(box.lo[j], single.lo) and np.array_equal(box.hi[j], single.hi), name
            assert dist[j] == op.membership_residual(row, xi[j]), name
            if not op.separable:
                continue
            coord = np.stack(coord_value_box(op, row))
            if name in AFFINE_SCALED_OR_FOLDED:
                assert_allclose(np.stack((single.lo, single.hi)), coord, rtol=1e-15, atol=1e-15, err_msg=name)
            else:
                assert np.array_equal(np.stack((single.lo, single.hi)), coord), name
    # a single vector outside the box still raises, naming the first coordinate outside
    outside = np.zeros(dim)
    outside[-1] = 4.0
    with pytest.raises(EmptyOperatorValue, match=f"coordinate {dim - 1} = 4.0 outside"):
        NormalConeBox(-np.ones(dim), np.ones(dim)).value_box(outside)


@pytest.mark.parametrize("dim", [1, 8, 64])
def test_enlargement_matches_per_witness_loop(dim):
    ops = [SubdiffAbs(1.0, np.zeros(dim)), NormalConeBox(-0.5 * np.ones(dim), np.ones(dim)),
           OperatorSum([SubdiffAbs(0.5, np.zeros(dim)), identity_op(dim)])]
    y = np.linspace(-0.4, 0.4, dim)
    for op in ops:
        for axis in sorted({0, dim - 1}):
            xi = np.zeros(dim)
            xi[axis] = 100.0
            for eps in (0.0, 0.3):
                v = enlargement_residual(op, eps, y, xi)
                assert v == enlargement_residual_scalar(op, eps, y, xi)
            assert enlargement_residual(op, 0.0, y, xi) > 0.0
