"""The elimination kernel against a dense Gaussian elimination written here."""

import random
from fractions import Fraction

import pytest

from gfsheaf.complexes import apply_d, class_coordinates, cohomology_basis
from gfsheaf.grids import (BoxGrid, SampledFunction, circle_grid, empty_set,
                           full_set, relative_cochain_complex, sublevel_set)
from gfsheaf.linalg import (GF2, QQ, kernel_of_columns, rank_of_columns,
                            solve_columns)

FIELDS = [GF2, QQ]


def scalar(field, v):
    return Fraction(v) if field is QQ else v % 2


def dense_rank(cols, nrows, field):
    """Rank by textbook row reduction of the dense matrix with these columns."""
    m = [[scalar(field, c.get(i, 0)) for c in cols] for i in range(nrows)]
    rank = 0
    for j in range(len(cols)):
        piv = next((i for i in range(rank, nrows) if m[i][j] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(nrows):
            if i != rank and m[i][j] != 0:
                if field is QQ:
                    f = m[i][j] / m[rank][j]
                    m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
                else:
                    m[i] = [a ^ b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def combine(cols, coeffs, field):
    """sum_j coeffs[j] * cols[j] as a sparse dict without zeros."""
    out = {}
    for j, c in coeffs.items():
        for i, v in cols[j].items():
            out[i] = scalar(field, out.get(i, 0) + c * v)
    return {i: v for i, v in out.items() if v != 0}


def random_entry(rng, field):
    if field is GF2:
        return 1
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))


def random_columns(rng, field):
    """Sparse columns with empty, duplicate and (over Q) scaled copies mixed in."""
    nrows = rng.randint(0, 8)
    cols = []
    for _ in range(rng.randint(0, 10)):
        roll = rng.random()
        if cols and roll < 0.15:
            cols.append(dict(rng.choice(cols)))
        elif cols and roll < 0.25:
            c = random_entry(rng, field)
            cols.append({i: c * v for i, v in rng.choice(cols).items()})
        else:
            cols.append({i: random_entry(rng, field) for i in range(nrows)
                         if rng.random() < 0.3})
    return nrows, cols


def cases():
    for field in FIELDS:
        for seed in range(60):
            rng = random.Random(seed)
            nrows, cols = random_columns(rng, field)
            yield field, rng, nrows, cols


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_rank_matches_dense(field):
    for f, _, nrows, cols in cases():
        if f is field:
            snapshot = [dict(c) for c in cols]
            assert rank_of_columns(cols, field) == dense_rank(cols, nrows, field)
            assert cols == snapshot  # inputs are left alone


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_kernel_maps_to_zero_with_full_dimension(field):
    for f, _, nrows, cols in cases():
        if f is not field:
            continue
        kernel = kernel_of_columns(cols, field)
        assert len(kernel) == len(cols) - dense_rank(cols, nrows, field)
        for combo in kernel:
            assert combo and combine(cols, combo, field) == {}
        assert dense_rank(kernel, len(cols), field) == len(kernel)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_solve_reproduces_consistent_targets(field):
    for f, rng, _, cols in cases():
        if f is not field:
            continue
        x = {j: random_entry(rng, field) for j in range(len(cols))
             if rng.random() < 0.5}
        target = combine(cols, x, field)
        sol = solve_columns(cols, target, field)
        assert sol is not None and len(sol) == len(cols)
        assert combine(cols, dict(enumerate(sol)), field) == target


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_solve_rejects_inconsistent_targets(field):
    for f, rng, nrows, cols in cases():
        if f is not field:
            continue
        # a row that no column reaches
        assert solve_columns(cols, {nrows: field.one()}, field) is None
        target = {i: random_entry(rng, field) for i in range(nrows)
                  if rng.random() < 0.5}
        consistent = (dense_rank(cols + [target], nrows, field)
                      == dense_rank(cols, nrows, field))
        assert (solve_columns(cols, target, field) is not None) == consistent


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_edge_cases(field):
    one = field.one()
    assert rank_of_columns([], field) == 0
    assert kernel_of_columns([], field) == []
    assert solve_columns([], {}, field) == []
    assert solve_columns([], {0: one}, field) is None
    assert rank_of_columns([{}, {}], field) == 0
    assert kernel_of_columns([{}, {}], field) == [{0: one}, {1: one}]
    assert solve_columns([{}], {}, field) == [field.zero()]
    dup = [{0: one, 2: one}, {0: one, 2: one}]
    assert rank_of_columns(dup, field) == 1
    [combo] = kernel_of_columns(dup, field)
    assert combine(dup, combo, field) == {}
    assert solve_columns(dup, {0: one, 2: one}, field) == [one, field.zero()]


def complexes_under_test(field):
    torus = BoxGrid((circle_grid(4), circle_grid(5)))
    yield relative_cochain_complex(full_set(torus), empty_set(torus), field)
    circle = BoxGrid((circle_grid(16),))
    f = SampledFunction.from_expr(circle, "cos(4*pi*x) + 0.3*sin(2*pi*x)")
    yield relative_cochain_complex(sublevel_set(f, 2.0),
                                   sublevel_set(f, -0.5), field)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_cohomology_basis_gives_unit_coordinates(field):
    for C in complexes_under_test(field):
        basis = cohomology_basis(C)
        assert len(basis) == sum(C.cohomology_ranks().values()) > 0
        vecs = [vec for _, vec in basis]
        for i, vec in enumerate(vecs):
            assert apply_d(C, vec) == {}
            unit = [field.one() if j == i else field.zero()
                    for j in range(len(vecs))]
            assert class_coordinates(C, vecs, vec) == unit
