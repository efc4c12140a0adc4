"""The elimination kernel against a dense Gaussian elimination written here."""

import random
import signal
from fractions import Fraction

import numpy as np
import pytest

from gfsheaf.complexes import (ChainComplex, apply_d, class_coordinates,
                               cohomology_basis)
from gfsheaf.grids import (BoxGrid, SampledFunction, circle_grid,
                           relative_cochain_complex, sublevel_set)
from gfsheaf.linalg import (GF2, QQ, IntegerReducer, Reducer, integer_column,
                            kernel_of_columns, rank_of_columns, solve_columns)

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
        [sol] = solve_columns(cols, [target], field)
        assert sol is not None and len(sol) == len(cols)
        assert combine(cols, dict(enumerate(sol)), field) == target


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_solve_rejects_inconsistent_targets(field):
    for f, rng, nrows, cols in cases():
        if f is not field:
            continue
        # a row that no column reaches
        assert solve_columns(cols, [{nrows: field.one()}], field) == [None]
        target = {i: random_entry(rng, field) for i in range(nrows)
                  if rng.random() < 0.5}
        consistent = (dense_rank(cols + [target], nrows, field)
                      == dense_rank(cols, nrows, field))
        [sol] = solve_columns(cols, [target], field)
        assert (sol is not None) == consistent


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_batched_solve_equals_one_target_at_a_time(field):
    for f, rng, nrows, cols in cases():
        if f is not field:
            continue
        targets, consistent = [], []
        for _ in range(rng.randint(1, 6)):
            roll = rng.random()
            if roll < 0.4:  # a combination of the columns
                x = {j: random_entry(rng, field) for j in range(len(cols))
                     if rng.random() < 0.5}
                targets.append(combine(cols, x, field))
            elif roll < 0.6:  # a row that no column reaches
                targets.append({nrows: field.one()})
            else:  # either
                targets.append({i: random_entry(rng, field)
                                for i in range(nrows) if rng.random() < 0.5})
            consistent.append(dense_rank(cols + [targets[-1]], nrows + 1,
                                         field)
                              == dense_rank(cols, nrows + 1, field))
        snapshot = [dict(t) for t in targets]
        batched = solve_columns(cols, targets, field)
        assert targets == snapshot  # targets are left alone
        assert batched == [solve_columns(cols, [t], field)[0]
                           for t in targets]
        for sol, t, ok in zip(batched, targets, consistent):
            assert (sol is not None) == ok
            assert sol is None or combine(cols, dict(enumerate(sol)),
                                          field) == t
        assert solve_columns(cols, [], field) == []


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_edge_cases(field):
    one = field.one()
    assert rank_of_columns([], field) == 0
    assert kernel_of_columns([], field) == []
    assert solve_columns([], [], field) == []
    assert solve_columns([], [{}], field) == [[]]
    assert solve_columns([], [{0: one}], field) == [None]
    assert rank_of_columns([{}, {}], field) == 0
    assert kernel_of_columns([{}, {}], field) == [{0: one}, {1: one}]
    assert solve_columns([{}], [{}], field) == [[field.zero()]]
    dup = [{0: one, 2: one}, {0: one, 2: one}]
    assert rank_of_columns(dup, field) == 1
    [combo] = kernel_of_columns(dup, field)
    assert combine(dup, combo, field) == {}
    assert solve_columns(dup, [{0: one, 2: one}, {1: one}], field) == \
        [[one, field.zero()], None]


@pytest.fixture
def alarm():
    """Fail a test that runs past 5 s instead of letting it hang."""
    def timeout(signum, frame):
        raise TimeoutError("elimination did not terminate")
    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_even_f2_entries_are_zero(alarm):
    assert rank_of_columns([{0: 2}], GF2) == 0
    assert rank_of_columns([{0: 1}, {0: 2}], GF2) == 1
    assert kernel_of_columns([{0: 2}], GF2) == [{0: 1}]
    assert solve_columns([{0: 1}, {0: 2}], [{0: 3}], GF2) == [[1, 0]]
    assert solve_columns([{0: 2}], [{0: 1}], GF2) == [None]
    assert solve_columns([{0: 1}], [{0: 2, 1: 4}], GF2) == [[0]]


def test_stored_zeros_over_q_are_dropped(alarm):
    zero = Fraction(0)
    assert rank_of_columns([{0: zero}, {0: Fraction(1), 1: zero}], QQ) == 1
    assert kernel_of_columns([{0: zero}], QQ) == [{0: Fraction(1)}]


# ---------------------------------------------------------------------------
# the fraction-free kernel of ranks and barcodes over Q against Reducer(QQ)

NON_UNITS = [-3, -2, -1, 1, 2, 3, 6]


def assert_fraction_pivots(cols):
    """Feed cols to IntegerReducer (through integer_column) and to
    Reducer(QQ): every column gets the same pivot row (or none) from both,
    and each stored integer column is a nonzero multiple of the column
    Reducer(QQ) stores.  Returns the IntegerReducer."""
    red, ref = IntegerReducer(), Reducer(QQ)
    for col in cols:
        snapshot = dict(col)
        assert red.add(integer_column(col)) == \
            ref.add({i: Fraction(v) for i, v in col.items() if v})
        assert col == snapshot
    assert red.pivots.keys() == ref.pivots.keys()
    for p, (want, _) in ref.pivots.items():
        got = red.pivots[p]
        assert got.keys() == want.keys()
        assert all(type(v) is int for v in got.values())
        assert all(got[i] * want[p] == want[i] * got[p] for i in got), p
    return red


def test_integer_kernel_keeps_the_pivots_of_the_fraction_kernel(alarm):
    """Seeded columns of non-unit integers, and of Fractions with
    denominators, with repeated and scaled columns mixed in; a kernel that
    stops terminating fails at the alarm."""
    for seed in range(300):
        rng = random.Random(seed)
        nrows = rng.randint(1, 9)
        cols = []
        for _ in range(rng.randint(1, 12)):
            roll = rng.random()
            if cols and roll < 0.2:
                c = Fraction(rng.choice(NON_UNITS), rng.randint(1, 6))
                cols.append({i: c * v for i, v in rng.choice(cols).items()})
            elif cols and roll < 0.3:
                a, b = rng.choice(cols), rng.choice(cols)
                c = rng.choice(NON_UNITS)
                col = {i: a.get(i, 0) + c * b.get(i, 0) for i in a.keys() | b}
                cols.append({i: v for i, v in col.items() if v})
            else:
                den = rng.choice([1, 1, 2, 3, 4, 6]) if seed % 2 else 1
                cols.append({i: Fraction(rng.choice(NON_UNITS), den)
                             if den > 1 else rng.choice(NON_UNITS)
                             for i in range(nrows) if rng.random() < 0.5})
        red = assert_fraction_pivots(cols)
        assert rank_of_columns(cols, QQ) == len(red.pivots) == \
            dense_rank(cols, nrows, QQ)


def test_integer_column_clears_denominators():
    col = {0: Fraction(1, 2), 3: Fraction(-2, 3), 5: 4, 7: Fraction(0)}
    assert integer_column(col) == {0: 3, 3: -4, 5: 24}
    assert integer_column({2: -6, 4: 3}) == {2: -6, 4: 3}
    assert integer_column({}) == {}


@pytest.mark.parametrize("seed", [2803, 2804, 2805, 2806])
def test_integer_kernel_growth_stays_small_and_fast(seed, alarm):
    """A 30 x 30 integer matrix with entries up to +-5, three of its columns
    integer combinations of others (rank 27), within the 5 s alarm.  A
    stored column is an integer multiple of the Reducer(QQ) column dividing
    the one whose entries are minors of the matrix (Cramer's rule), so
    every stored entry is within the Hadamard bound of a 30 x 30 minor,
    (5 sqrt 30)^30 < 2^144."""
    rng = random.Random(seed)
    cols = [{i: v for i in range(30) if (v := rng.randint(-5, 5))}
            for _ in range(27)]
    for _ in range(3):
        a, b = rng.sample(cols, 2)
        c = rng.choice([-2, 3])
        cols.insert(rng.randrange(len(cols)), {
            i: v for i in range(30) if (v := a.get(i, 0) + c * b.get(i, 0))})
    red = assert_fraction_pivots(cols)
    assert len(red.pivots) == dense_rank(cols, 30, QQ) == 27
    assert max(abs(v) for col in red.pivots.values()
               for v in col.values()).bit_length() <= 144


def complexes_under_test(field):
    torus = BoxGrid((circle_grid(4), circle_grid(5)))
    yield relative_cochain_complex(
        torus, np.ones(torus.cell_shape, dtype=bool),
        np.zeros(torus.cell_shape, dtype=bool), field)
    circle = BoxGrid((circle_grid(16),))
    f = SampledFunction.from_expr(circle, "cos(4*pi*x) + 0.3*sin(2*pi*x)")
    yield relative_cochain_complex(circle, sublevel_set(f, 2.0),
                                   sublevel_set(f, -0.5), field)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_cohomology_basis_gives_unit_coordinates(field):
    for C in map(ChainComplex.index_complex, complexes_under_test(field)):
        basis = cohomology_basis(C)
        assert len(basis) == sum(C.cohomology_ranks().values()) > 0
        vecs = [vec for _, vec in basis]
        for i, vec in enumerate(vecs):
            assert apply_d(C, vec) == {}
            unit = [field.one() if j == i else field.zero()
                    for j in range(len(vecs))]
            assert class_coordinates(C, vecs, [vec]) == [unit]
