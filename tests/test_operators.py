import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import coord_box, coord_kinks, coord_value_box, enlargement_residual_scalar
from proxlab import checks
from proxlab.errors import DimensionMismatch, EmptyOperatorValue
from proxlab.legendre import euclidean
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
    vals = [enlargement_residual(abs1, e, [0.0], [1.4], witness_budget=512)
            for e in (0.0, 0.1, 0.2, 0.4)]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[0] > 0.0  # 1.4 is outside the subdifferential at the kink


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


def test_spec_strings_reparse():
    ops = [
        SubdiffAbs(0.5, np.array([1.0, -1.0])),
        Affine(np.diag([1.0, 2.0]), np.array([0.1, 0.2])),
        NormalConeBox(np.array([-1.0, -2.0]), np.array([0.5, 2.0])),
        Scaled(0.5, SubdiffAbs(1.0, np.zeros(2))),
        GradientOfConvex("quartic", np.zeros(2), 2),
    ]
    for op in ops:
        clone = parse_operator(op.spec_string(), 2)
        y = np.array([0.3, -0.7])
        xi = np.array([0.2, 0.4])
        assert clone.membership_residual(y, xi) == pytest.approx(
            op.membership_residual(y, xi), abs=1e-14)


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


@pytest.mark.parametrize("dim", [1, 3, 8])
def test_row_value_box_stacks_single_vector_boxes(dim):
    rng = np.random.default_rng(dim)
    rows = rng.uniform(-1.5, 1.5, size=(12, dim))
    rows[0] = 0.0                      # inside the box, on every abs kink
    rows[1] = np.ones(dim)             # on the box's upper face
    rows[2, 0] = -1.0                  # on a lower face
    rows[3, -1] = 4.0                  # outside the box
    rows[4] = rng.uniform(-0.9, 0.9, size=dim)  # strictly inside
    xi = rng.uniform(-2.0, 2.0, size=rows.shape)
    for op in _row_catalog(dim, rng):
        box = op.value_box(rows)
        empty = np.broadcast_to(box.empty, len(rows))
        dist = op.membership_residual(rows, xi)
        for j, row in enumerate(rows):
            try:
                single = op.value_box(row)
            except EmptyOperatorValue:
                assert empty[j] and dist[j] == np.inf
                continue
            assert not empty[j]
            assert np.array_equal(box.lo[j], single.lo) and np.array_equal(box.hi[j], single.hi)
            assert dist[j] == op.membership_residual(row, xi[j])
            if isinstance(op, (SubdiffAbs, NormalConeBox)):  # their boxes were assembled by coordinate
                assert np.array_equal(np.stack(coord_value_box(op, row)), np.stack((single.lo, single.hi)))
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
