import itertools
import random
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from ybnichols.exact import CycloElement, PrimeFieldElement, cyclotomic_root, specialize
from ybnichols.linalg import (
    _INT64_GUARD,
    CycloCtx,
    DimensionMismatch,
    ExactIntRows,
    ModRows,
    MonomialOperator,
    RowSpace,
    apply,
    lone_rows,
    mul_rows_by_scalar,
    mul_rows_elementwise,
    rank,
)
from ybnichols.nichols import OrbitRows

ONE = Fraction(1)
ZERO = Fraction(0)


def test_apply_identity_and_swap():
    ident = MonomialOperator.identity(3, ONE)
    v = [Fraction(2), Fraction(-1), Fraction(5)]
    assert apply(ident, v) == v
    swap = MonomialOperator([1, 0, 2], [ONE] * 3)
    assert apply(swap, [ONE, ZERO, ZERO]) == [ZERO, ONE, ZERO]


def test_apply_braiding_on_two_points():
    # c(w0 (x) w0) = a w1 (x) w1 on the two-point shift solution, a = 1
    from ybnichols.catalog import build_entry
    from ybnichols.nichols import braiding_ops

    entry = build_entry("z2-shift")
    c1 = braiding_ops(entry.system, 2)[0]
    one = CycloElement.one(2)
    zero = CycloElement.zero(2)
    image = apply(c1, [one, zero, zero, zero])
    assert image[3] == entry.params["a"] and not any(image[:3])


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        apply(MonomialOperator.identity(2, ONE), [ONE])


def test_apply_accumulates_on_collisions():
    squash = MonomialOperator([0, 0], [ONE, ONE])
    assert apply(squash, [Fraction(2), Fraction(3)]) == [Fraction(5), ZERO]


def test_rowspace_insert_examples():
    rs = RowSpace(3)
    assert rs.insert([ZERO, ZERO, ZERO]) and rs.rank == 0
    assert not rs.insert([ONE, ZERO, ZERO]) and rs.rank == 1
    assert rs.insert([ONE, ZERO, ZERO]) and rs.rank == 1


def test_rowspace_reduced_echelon_invariants():
    rs = RowSpace(4)
    rng = random.Random(5)
    for _ in range(8):
        rs.insert([Fraction(rng.randint(-3, 3)) for _ in range(4)])
    assert rs.pivots == sorted(rs.pivots)
    for i, (row, piv) in enumerate(zip(rs.rows, rs.pivots)):
        assert row[piv] == 1
        for other_idx, other in enumerate(rs.rows):
            if other_idx != i:
                assert other[piv] == 0


def test_symmetrizer_images_rank_one():
    # inserting the four images of (id + c) on the two-point shift at q = -1
    from ybnichols.catalog import build_entry
    from ybnichols.nichols import braiding_ops

    entry = build_entry("z2-shift")
    c1 = braiding_ops(entry.system, 2)[0]
    one = CycloElement.one(2)
    zero = CycloElement.zero(2)
    rs = RowSpace(4)
    images = []
    for b in range(4):
        e = [zero] * 4
        e[b] = one
        img = [x + y for x, y in zip(e, apply(c1, e))]
        images.append(img)
        rs.insert(img)
    assert rs.rank == 1
    assert rank(images) == 1  # batch agrees


def test_rank_examples():
    assert rank([]) == 0
    assert rank([[ONE, ZERO], [ZERO, ONE], [ONE, ONE]]) == 2


def test_insert_matches_batch_on_random_matrices():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [
            [Fraction(rng.randint(-2, 2)) for _ in range(n)]
            for _ in range(rng.randint(1, 6))
        ]
        rs = RowSpace(n)
        for row in rows:
            rs.insert(row)
        assert rs.rank == rank(rows)


def test_compose_respects_application():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 6)
        perm1 = list(range(n)); rng.shuffle(perm1)
        perm2 = list(range(n)); rng.shuffle(perm2)
        op1 = MonomialOperator(perm1, [Fraction(rng.randint(1, 4)) for _ in range(n)])
        op2 = MonomialOperator(perm2, [Fraction(rng.randint(1, 4)) for _ in range(n)])
        v = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        assert apply(op2, apply(op1, v)) == apply(op2.compose(op1), v)


def mat_rank_exact_int(ctx, rows):
    space = ExactIntRows(ctx, rows.shape[1])
    for row in rows:
        space.insert(row.reshape(-1, ctx.phi) if ctx.phi > 1 else row.reshape(-1, 1))
    return space.rank


def test_exact_int_rows_match_generic_rank():
    rng = random.Random(13)
    ctx = CycloCtx(1)
    for _ in range(100):
        n = rng.randint(1, 6)
        nrows = rng.randint(1, 7)
        data = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(nrows)]
        generic = rank([[Fraction(x) for x in row] for row in data])
        space = ExactIntRows(ctx, n)
        for row in data:
            space.insert(np.array(row, dtype=np.int64).reshape(n, 1))
        assert space.rank == generic


def test_exact_int_rows_cyclotomic():
    rng = random.Random(17)
    ctx = CycloCtx(3)
    z = cyclotomic_root(3)
    for _ in range(40):
        n = rng.randint(1, 4)
        nrows = rng.randint(1, 5)
        elements = [
            [
                CycloElement(3, [rng.randint(-2, 2), rng.randint(-2, 2)])
                for _ in range(n)
            ]
            for _ in range(nrows)
        ]
        generic = rank(elements)
        space = ExactIntRows(ctx, n)
        for row in elements:
            arr = np.array([ctx.to_int_vec(e)[0] for e in row], dtype=np.int64)
            space.insert(arr)
        assert space.rank == generic


def test_modular_rank_never_exceeds_exact():
    rng = random.Random(19)
    p = 1073741827
    ctx = CycloCtx(3)
    for _ in range(40):
        n = rng.randint(1, 4)
        nrows = rng.randint(1, 5)
        elements = [
            [CycloElement(3, [rng.randint(-2, 2), rng.randint(-2, 2)]) for _ in range(n)]
            for _ in range(nrows)
        ]
        exact_rank = rank(elements)
        mod = ModRows(p, n)
        for row in elements:
            mod.insert(np.array([specialize(e, p).value for e in row], dtype=np.int64))
        assert mod.rank <= exact_rank
        # with entries this small the specialization is faithful
        assert mod.rank == exact_rank


def test_modular_rowspace_over_prime_field_elements():
    p = 1073741827
    rows = [[PrimeFieldElement(1, p), PrimeFieldElement(2, p)],
            [PrimeFieldElement(2, p), PrimeFieldElement(4, p)]]
    assert rank(rows) == 1


def test_object_promotion_on_overflow():
    ctx = CycloCtx(1)
    space = ExactIntRows(ctx, 2)
    big = 2 ** 40
    assert not space.insert(np.array([[big], [1]], dtype=np.int64))
    # cross-multiplied elimination against the first row would overflow int64
    assert not space.insert(np.array([[1], [big]], dtype=np.int64))
    assert space.rank == 2
    huge = np.empty((2, 1), dtype=object)
    huge[0, 0] = 2 ** 80
    huge[1, 0] = 1
    assert not space.insert(huge) or space.rank == 2


def test_mul_bound_is_the_attained_product_bound():
    # over all coefficient vectors of height 1, the largest product
    # coefficient is exactly mul_bound; for orders 3, 5 and 12 that exceeds
    # phi * max|S|, so a bound counting phi products would be too small
    for order in (1, 2, 3, 4, 5, 8, 12):
        ctx = CycloCtx(order)
        units = np.array(list(itertools.product((-1, 0, 1), repeat=ctx.phi)), dtype=np.int64)
        products = mul_rows_elementwise(units[:, None, :], units[None, :, :], ctx)
        assert int(np.abs(products).max()) == ctx.mul_bound, order
    assert [CycloCtx(n).mul_bound for n in (3, 5, 12)] == [3, 7, 6]


def _loop_product(arr, s_arr, ctx):
    """The cyclotomic entry-wise product as a sum over the structure
    constants, one term at a time (the oracle for the contraction)."""
    phi = ctx.phi
    out = np.zeros(
        np.broadcast_shapes(arr.shape, s_arr.shape),
        dtype=np.result_type(arr.dtype, s_arr.dtype),
    )
    for a in range(phi):
        for b in range(phi):
            tmp = arr[..., a] * s_arr[..., b]
            for c in range(phi):
                coeff = int(ctx.struct[a, b, c])
                if coeff:
                    out[..., c] += tmp * coeff
    return out


def _random_rows(rng, shape, height, dtype):
    arr = np.empty(shape, dtype=dtype)
    flat = arr.reshape(-1)
    for i in range(flat.size):
        flat[i] = rng.randint(-height, height)
    return arr


def test_contraction_matches_structure_constant_loop():
    # int64 at a height the products cannot overflow, object far past int64;
    # leading axes broadcast, and an object operand makes the product object
    rng = random.Random(23)
    for order in (1, 2, 3, 4, 5, 8, 12):
        ctx = CycloCtx(order)
        phi = ctx.phi
        for dtype, height in ((np.int64, 2 ** 20), (object, 2 ** 80)):
            for left, right in (
                ((7, phi), (7, phi)),
                ((3, 1, phi), (1, 4, phi)),
                ((2, 5, phi), (5, phi)),
                ((6, phi), (phi,)),
                ((0, phi), (0, phi)),
            ):
                a = _random_rows(rng, left, height, dtype)
                b = _random_rows(rng, right, height, dtype)
                got = mul_rows_elementwise(a, b, ctx)
                expected = _loop_product(a, b, ctx)
                assert got.dtype == expected.dtype and got.shape == expected.shape, order
                assert got.tolist() == expected.tolist(), (order, dtype, left, right)
            rows = _random_rows(rng, (9, phi), height, dtype)
            svec = _random_rows(rng, (phi,), height, dtype)
            got = mul_rows_by_scalar(rows, svec, ctx)
            assert got.dtype == rows.dtype
            assert got.tolist() == _loop_product(rows, svec[None, :], ctx).tolist(), order
        # mixed operands: the object side decides, and nothing wraps
        a = _random_rows(rng, (4, phi), 2 ** 40, np.int64)
        b = _random_rows(rng, (4, phi), 2 ** 70, object)
        got = mul_rows_elementwise(a, b, ctx)
        assert got.dtype == object
        assert got.tolist() == _loop_product(a.astype(object), b, ctx).tolist(), order


def test_to_int_array_matches_to_int_vec():
    import math
    from functools import reduce

    rng = random.Random(37)
    for order in (1, 2, 3, 4, 5, 12):
        ctx = CycloCtx(order)
        for _ in range(20):
            elements = [
                CycloElement(
                    order,
                    [Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(ctx.phi)],
                )
                for _ in range(rng.randint(1, 6))
            ]
            nums, den = ctx.to_int_array(elements)
            vecs = [ctx.to_int_vec(e) for e in elements]
            assert den == reduce(math.lcm, (d for _, d in vecs), 1)
            assert nums.dtype == np.int64 and nums.shape == (len(elements), ctx.phi)
            assert nums.tolist() == [[c * (den // d) for c in vec] for vec, d in vecs]
            assert [ctx.to_element(row, den) for row in nums] == elements


def test_to_int_array_is_int64_exactly_below_the_guard():
    ctx = CycloCtx(3)
    guard = 2 ** 62
    for top, dtype in (
        (guard - 1, np.int64),
        (-(guard - 1), np.int64),
        (guard, object),
        (-guard, object),
        (2 ** 80, object),
    ):
        nums, den = ctx.to_int_array([CycloElement(3, [1, top]), CycloElement.one(3)])
        assert nums.dtype == dtype, top
        assert den == 1 and nums.tolist() == [[1, top], [1, 0]]
    # the common denominator scales numerators past the guard
    nums, den = ctx.to_int_array(
        [CycloElement(3, [2 ** 61, 0]), CycloElement(3, [Fraction(1, 2), 0])]
    )
    assert den == 2 and nums.dtype == object
    assert nums.tolist() == [[2 ** 62, 0], [1, 0]]


def _lone_arrays(rng, shape):
    """int64 and object arrays of one shape: zero, negative, with a common
    factor, near the int64 guard, and far beyond int64."""
    count = int(np.prod(shape))

    def ints(bound):
        return [rng.randint(-bound, bound) for _ in range(count)]

    def arr(values, dtype=np.int64):
        return np.array(values, dtype=dtype).reshape(shape)

    near = _INT64_GUARD - 1
    cases = [
        np.zeros(shape, dtype=np.int64),
        arr(ints(5)),
        -6 * arr(ints(4)),
        arr([rng.choice((near, -near, 0, 7 * 2 ** 59)) for _ in range(count)]),
        2 ** 40 * arr(ints(3)),
    ]
    cases += [a.astype(object) for a in cases]
    cases += [
        arr([v * 3 ** 50 for v in ints(9)], object),
        arr([v * 2 ** 70 + (t == 0) for t, v in enumerate(ints(9))], object),
    ]
    rng.shuffle(cases)
    return cases


def _same_row(got, expected):
    assert (got is None) == (expected is None)
    if got is not None:
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tolist() == expected.tolist()


@pytest.mark.parametrize("order", [1, 3, 5])
def test_lone_rows_match_exact_insert(order):
    # the batched primitive parts against one insert into an empty space,
    # bit for bit, over a mix of dtypes and sizes in one call, and alone
    rng = random.Random(order)
    ctx = CycloCtx(order)
    arrays = [a for size in (1, 3, 8) for a in _lone_arrays(rng, (size, ctx.phi))]
    for arr, got in zip(arrays, lone_rows(arrays)):
        space = ExactIntRows(ctx, arr.shape[0])
        space.insert(arr)
        expected = space.rows[0] if space.rank else None
        _same_row(got, expected)
        _same_row(lone_rows([arr])[0], expected)
    assert any(got is None for got in lone_rows(arrays))


@pytest.mark.parametrize("p", [2, 7, 2 ** 31 - 1])
def test_lone_rows_match_mod_insert(p):
    # mod-p accumulators hold sums of k terms below p, and negatives too
    rng = random.Random(p)
    arrays = []
    for size in (1, 4, 9):
        arrays.append(np.zeros(size, dtype=np.int64))
        arrays.append(p * np.array([rng.randint(-3, 3) for _ in range(size)], dtype=np.int64))
        for _ in range(4):
            values = [rng.randint(-5 * p, 5 * p) for _ in range(size)]
            arrays.append(np.array(values, dtype=np.int64))
    rng.shuffle(arrays)
    for arr, got in zip(arrays, lone_rows(arrays, p)):
        space = ModRows(p, arr.size)
        space.insert(arr)
        expected = space.rows[0] if space.rank else None
        _same_row(got, expected)
        _same_row(lone_rows([arr], p)[0], expected)
    assert lone_rows([]) == [] and lone_rows([], p) == []


def _sparse_seeds(rng, count, size, trailing, low, high, dtype=np.int64):
    """count seed rows over ``size`` positions of shape ``trailing``, nonzero
    on a few positions only: random rows on a random support, and
    combinations of earlier rows, so that some seeds reduce to zero."""
    support = rng.sample(range(size), rng.randint(0, min(size, 5)))
    seeds = np.zeros((count, size) + trailing, dtype=object)
    for t in range(count):
        if t >= 2 and rng.random() < 0.4:
            a, b = rng.sample(range(t), 2)
            seeds[t] = rng.randint(-3, 3) * seeds[a] + rng.randint(-3, 3) * seeds[b]
            continue
        for c in support:
            if rng.random() < 0.7:
                seeds[t, c] = [rng.randint(low, high) for _ in range(trailing[0])]
    return seeds if dtype == object else seeds.astype(dtype)


def _support_and_dense_spans(seeds, space):
    """The rows OrbitRows.add_span keeps, and those of inserting every full
    seed row into one space of the orbit's size."""
    got = OrbitRows()
    got.add_span(5, seeds, space)
    dense = space(seeds.shape[1])
    for seed in seeds:
        dense.insert(seed)
    assert got.orbits == [5] * dense.rank
    return got, dense


@pytest.mark.parametrize("order", [2, 3])
def test_support_span_matches_dense_exact_insert(order):
    # elimination on the positions some seed reaches gives the dense insert's
    # rows bit for bit (values, dtypes, pivots) at phi 1 and 2, on int64 seeds,
    # on seeds whose elimination promotes to object, and on object seeds
    rng = random.Random(order)
    ctx = CycloCtx(order)
    promoted = 0
    for trial in range(120):
        count, size = rng.randint(1, 7), rng.randint(1, 30)
        kind = trial % 3
        if kind == 0:
            seeds = _sparse_seeds(rng, count, size, (ctx.phi,), -9, 9)
        elif kind == 1:
            seeds = _sparse_seeds(rng, count, size, (ctx.phi,), -2 ** 31, 2 ** 31)
        else:
            seeds = _sparse_seeds(rng, count, size, (ctx.phi,), -3 ** 45, 3 ** 45, object)
        got, dense = _support_and_dense_spans(seeds, partial(ExactIntRows, ctx))
        promoted += kind == 1 and dense._object_mode
        assert len(got) == dense.rank
        for row, expected, pivot in zip(got, dense.rows, dense.pivots):
            assert row.dtype == expected.dtype and row.shape == expected.shape
            assert row.tolist() == expected.tolist()
            assert int(np.flatnonzero((row != 0).any(axis=1))[0]) == pivot
    assert promoted >= 5, promoted


@pytest.mark.parametrize("p", [2, 7, 2 ** 31 - 1])
def test_support_span_matches_dense_mod_insert(p):
    # mod-p seeds hold unreduced sums, so a position can be nonzero in a seed
    # and zero mod p in all of them
    rng = random.Random(p)
    for _ in range(120):
        count, size = rng.randint(1, 7), rng.randint(1, 30)
        seeds = _sparse_seeds(rng, count, size, (1,), 0, 3 * p)[:, :, 0]
        got, dense = _support_and_dense_spans(seeds, partial(ModRows, p))
        for row, expected in zip(got, dense.rows):
            assert row.dtype == expected.dtype and row.tolist() == expected.tolist()
