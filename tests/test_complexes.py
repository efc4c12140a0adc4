import math
import random

import pytest

from gfsheaf import complexes
from gfsheaf.complexes import (Barcode, ChainComplex, ChainMap,
                               FilteredComplex, cohomology_ranks,
                               dual_complex, is_quasi_iso, identity_map,
                               mapping_cone, zero_map)
from gfsheaf.linalg import GF2, QQ, Reducer, add_scaled
from test_linalg import dense_rank, random_entry, scalar

INF = math.inf


def point_complex(field=GF2):
    return ChainComplex(["x"], {"x": 0}, {}, field)


def acyclic_pair(field=GF2):
    return ChainComplex(["x", "y"], {"x": 0, "y": 1}, {"x": {"y": 1}}, field)


def circle_complex(field=GF2):
    # one vertex, one edge, zero differential
    return ChainComplex(["v", "e"], {"v": 0, "e": 1}, {}, field)


def test_point_ranks():
    assert cohomology_ranks(point_complex()) == {0: 1}


def test_acyclic_cone_ranks():
    assert cohomology_ranks(acyclic_pair()) == {}


def test_circle_ranks_vs_smith_oracle():
    # Oracle: brute-force Smith-style reduction of the (empty) boundary gives
    # rank 0 in both degrees, so H^0 and H^1 are both 1-dimensional.
    assert cohomology_ranks(circle_complex()) == {0: 1, 1: 1}
    assert cohomology_ranks(circle_complex(QQ)) == {0: 1, 1: 1}


def test_d_squared_guard():
    with pytest.raises(ValueError):
        ChainComplex(["a", "b", "c"], {"a": 0, "b": 1, "c": 2},
                     {"a": {"b": 1}, "b": {"c": 1}}, GF2)


def test_stored_entry_that_is_zero_in_the_field_is_rejected():
    with pytest.raises(ValueError, match="stored zero"):
        ChainComplex(["a", "b"], {"a": 0, "b": 1}, {"a": {"b": 2}}, GF2)
    # the same entry is a unit over Q
    assert ChainComplex(["a", "b"], {"a": 0, "b": 1}, {"a": {"b": 2}},
                        QQ).cohomology_ranks() == {}


def test_d_squared_guard_reads_the_field():
    # d^2 a = 2c: zero over F2, not over Q
    gens = ["a", "b1", "b2", "c"]
    deg = {"a": 0, "b1": 1, "b2": 1, "c": 2}
    d = {"a": {"b1": 1, "b2": 1}, "b1": {"c": 1}, "b2": {"c": 1}}
    with pytest.raises(ValueError):
        ChainComplex(gens, deg, d, QQ)
    assert ChainComplex(gens, deg, d, GF2).cohomology_ranks() == {}


def test_window_full_and_empty():
    C = FilteredComplex(point_complex(), {"x": 0.0})
    assert cohomology_ranks(C.window(-INF, INF)) == {0: 1}
    assert C.window(1.0, INF).total_dim() == 0
    with pytest.raises(ValueError):
        C.window(2.0, 1.0)


def test_window_double_well():
    # 1-D double-well Morse data: two minima (0.0, 0.3), one saddle (1.0),
    # modeled by its Morse cochain complex.
    C = ChainComplex(["m1", "m2", "s"], {"m1": 0, "m2": 0, "s": 1},
                     {"m1": {"s": 1}, "m2": {"s": 1}}, GF2)
    FC = FilteredComplex(C, {"m1": 0.0, "m2": 0.3, "s": 1.0})
    # window isolating one well
    W = FC.window(-0.1, 0.2)
    assert cohomology_ranks(W) == {0: 1}
    bc = FC.barcode()
    assert bc.bars == ((0, 0.0, INF), (0, 0.3, 1.0))


def test_barcode_trivial_cases():
    single = FilteredComplex(point_complex(), {"x": 2.5})
    assert single.barcode().bars == ((0, 2.5, INF),)
    pair = FilteredComplex(acyclic_pair(), {"x": 1.0, "y": 3.0})
    assert pair.barcode().bars == ((0, 1.0, 3.0),)


def random_filtered_complex(rng, field=GF2, max_gens=40):
    """Random filtered complex: random actions, random action-respecting d.

    Built as a cone-style perturbation guaranteed to satisfy d^2 = 0 by
    pairing generators (x_i in degree k, y_i in degree k+1, d x_i = y_i)
    plus isolated generators, then conjugating by a random filtered
    automorphism. Exactness of d^2 is asserted by the constructor.
    """
    n_pairs = rng.randint(0, max_gens // 2 - 1)
    n_free = rng.randint(1, max_gens - 2 * n_pairs)
    gens, deg, action, d = [], {}, {}, {}
    for i in range(n_pairs):
        k = rng.randint(-2, 2)
        a = round(rng.uniform(0, 4), 2)
        b = a + round(rng.uniform(0.01, 2), 2)
        gens += [("p", i, 0), ("p", i, 1)]
        deg[("p", i, 0)] = k
        deg[("p", i, 1)] = k + 1
        action[("p", i, 0)] = a
        action[("p", i, 1)] = b
        d[("p", i, 0)] = {("p", i, 1): 1}
    for i in range(n_free):
        gens.append(("f", i))
        deg[("f", i)] = rng.randint(-2, 3)
        action[("f", i)] = round(rng.uniform(0, 4), 2)
    C = ChainComplex(gens, deg, d, field)
    # conjugate: add x-column of a later generator of same degree (filtered
    # base change preserves d^2=0 and the barcode is an invariant).
    for _ in range(len(gens)):
        g, h = rng.sample(gens, 2) if len(gens) >= 2 else (None, None)
        if g is None:
            break
        if deg[g] == deg[h] and action[g] <= action[h] and g != h:
            # replace h by h + g in the basis: adjust d accordingly
            newd = {}
            for s, cb in C.d.items():
                cb = dict(cb)
                if h in cb:
                    cb[g] = C.field.add(cb.get(g, 0), cb[h])
                    if cb[g] == 0:
                        del cb[g]
                if s == g:
                    for t, v in C.d.get(h, {}).items():
                        cb[t] = C.field.add(cb.get(t, 0), v)
                        if cb[t] == 0:
                            del cb[t]
                newd[s] = cb
            try:
                C2 = ChainComplex(gens, deg, newd, field)
                FilteredComplex(C2, action)
                C = C2
            except ValueError:
                pass
    return FilteredComplex(C, action)


def test_barcode_window_consistency_random():
    rng = random.Random(4711)
    for _ in range(50):
        FC = random_filtered_complex(rng)
        bc = FC.barcode()
        points = sorted({FC.action[g] for g in FC.complex.gens})
        lambdas = []
        for i, p in enumerate(points):
            lambdas.append(p + 1e-9)
            if i + 1 < len(points):
                lambdas.append((p + points[i + 1]) / 2)
        lambdas.append(points[-1] + 1.0)
        for lam in lambdas:
            direct = cohomology_ranks(FC.window(-INF, lam))
            assert direct == bc.ranks_at(lam), (direct, bc.bars, lam)


def test_barcode_window_pair_consistency_random():
    rng = random.Random(271828)
    for _ in range(25):
        FC = random_filtered_complex(rng, max_gens=20)
        bc = FC.barcode()
        pts = sorted({FC.action[g] for g in FC.complex.gens})
        cuts = [pts[0] - 1.0] + [p + 1e-9 for p in pts] + [pts[-1] + 1.0]
        for i in range(len(cuts)):
            for j in range(i + 1, len(cuts)):
                a, b = cuts[i], cuts[j]
                direct = cohomology_ranks(FC.window(a, b))
                assert direct == bc.window_ranks(a, b), (a, b, bc.bars)


def reference_barcode(FC):
    """The barcode by one left-to-right reduction of every boundary column
    in filtration order, without clearing."""
    C = FC.complex
    order = sorted(C.gens, key=lambda g: (FC.action[g], C.deg[g],
                                          C._index[g]))
    pos = {g: i for i, g in enumerate(order)}
    bdry = {g: {} for g in order}
    for g, cb in C.d.items():
        for h, v in cb.items():
            bdry[h][g] = v
    red = Reducer(C.field)
    pairs, essential = [], []
    for g in order:
        p = red.add({pos[h]: v for h, v in bdry[g].items()})
        if p is None:
            essential.append(g)
        else:
            pairs.append((order[p], g))
    killed = {b for (b, _) in pairs}
    bars = [(C.deg[b], FC.action[b], FC.action[dth]) for (b, dth) in pairs
            if FC.action[b] < FC.action[dth]]
    bars += [(C.deg[g], FC.action[g], INF) for g in essential
             if g not in killed]
    return Barcode(bars)


@pytest.mark.parametrize("field", [GF2, QQ], ids=["F2", "Q"])
def test_barcode_with_clearing_matches_reference(field):
    import numpy as np
    from gfsheaf.fixtures import random_circle_morse
    from gfsheaf.grids import (BoxGrid, SampledFunction, circle_grid,
                               sublevel_filtration)
    rng = random.Random(31337)
    cases = []
    for _ in range(30):
        FC = random_filtered_complex(rng, field, max_gens=30)
        cases.append(FC)
        # flooring is monotone, so the tie-heavy copy is filtered too
        cases.append(FilteredComplex(FC.complex, {
            g: float(math.floor(v)) for g, v in FC.action.items()}))
    torus = BoxGrid((circle_grid(5), circle_grid(4)))
    for seed in range(4):
        f = random_circle_morse(random.Random(seed), n=16)
        cases.append(sublevel_filtration(f, field))
        vals = np.array([rng.randrange(3) for _ in range(20)], dtype=float)
        cases.append(sublevel_filtration(
            SampledFunction(torus, vals.reshape(torus.vertex_shape)), field))
    for FC in cases:
        assert FC.barcode().bars == reference_barcode(FC).bars


def test_mapping_cone_identity_acyclic():
    C = circle_complex()
    assert cohomology_ranks(mapping_cone(identity_map(C))) == {}


def test_mapping_cone_zero_map():
    A = point_complex()
    B = point_complex()
    cone = mapping_cone(zero_map(A, B))
    assert cohomology_ranks(cone) == {-1: 1, 0: 1}


def test_cone_rank_formula_zero_maps():
    rng = random.Random(99)
    for _ in range(10):
        FA = random_filtered_complex(rng, max_gens=16)
        FB = random_filtered_complex(rng, max_gens=16)
        A, B = FA.complex, FB.complex
        cone = mapping_cone(zero_map(A, B))
        ra, rb, rc = (A.cohomology_ranks(), B.cohomology_ranks(),
                      cone.cohomology_ranks())
        expect = dict(rb)
        for k, v in ra.items():
            expect[k - 1] = expect.get(k - 1, 0) + v
        assert rc == {k: v for k, v in expect.items() if v}


def test_is_quasi_iso():
    C = circle_complex()
    assert is_quasi_iso(identity_map(C))
    assert not is_quasi_iso(zero_map(C, C))


def test_dual_complex_involution():
    rng = random.Random(5)
    for _ in range(10):
        FC = random_filtered_complex(rng, max_gens=14)
        C = FC.complex
        D = dual_complex(C)
        DD = dual_complex(D)
        r = C.cohomology_ranks()
        rd = D.cohomology_ranks()
        assert rd == {-k: v for k, v in r.items()}
        assert DD.cohomology_ranks() == r
    circ = circle_complex()
    assert dual_complex(circ).cohomology_ranks() == {0: 1, -1: 1}


def test_dual_of_point():
    D = dual_complex(point_complex())
    assert D.cohomology_ranks() == {0: 1}


def test_chain_map_verify():
    C = acyclic_pair()
    f = identity_map(C)
    assert f.verify()
    bad = ChainMap(C, C, {"x": {"x": 1}, "y": {}})
    with pytest.raises(AssertionError):
        bad.verify()
    Q = ChainComplex(["x", "y"], {"x": 0, "y": 1}, {"x": {"y": 2}}, QQ)
    assert ChainMap(Q, Q, {"x": {"x": 3}, "y": {"y": 3}}).verify()
    with pytest.raises(AssertionError):
        ChainMap(Q, Q, {"x": {"x": 3}, "y": {"y": 1}}).verify()


def test_filtration_violation_rejected():
    C = acyclic_pair()
    with pytest.raises(ValueError):
        FilteredComplex(C, {"x": 2.0, "y": 1.0})


def test_barcode_csv_roundtrip():
    bc = Barcode([(0, 1.0, INF), (1, 0.5, 2.0)])
    rows = bc.to_csv_rows()
    assert rows[0] == ("degree", "birth", "death")
    assert any(r[2] == "inf" for r in rows[1:])


def test_barcode_over_rationals():
    from gfsheaf.linalg import QQ
    C = ChainComplex(["m1", "m2", "s"], {"m1": 0, "m2": 0, "s": 1},
                     {"m1": {"s": 1}, "m2": {"s": -1}}, QQ)
    FC = FilteredComplex(C, {"m1": 0.0, "m2": 0.3, "s": 1.0})
    assert FC.barcode().bars == ((0, 0.0, INF), (0, 0.3, 1.0))


def test_window_consistency_over_rationals():
    rng = random.Random(99991)
    from gfsheaf.linalg import QQ
    for _ in range(10):
        FC = random_filtered_complex(rng, field=QQ, max_gens=16)
        bc = FC.barcode()
        for lam in sorted({FC.action[g] + 1e-9 for g in FC.complex.gens}):
            assert cohomology_ranks(FC.window(-INF, lam)) == bc.ranks_at(lam)


def axpy(vec, i, x, field):
    """vec[i] += x with the test's own arithmetic, dropping zeros."""
    v = scalar(field, vec.get(i, 0) + x)
    if v:
        vec[i] = v
    else:
        vec.pop(i, None)


def random_known_complex(rng, field):
    """A direct sum of pairs x -> y and lone cocycles under a random
    triangular change of basis, with the cohomology ranks it must have.

    Degree 1 holds only targets of degree 0, so every degree-1 generator is
    a pivot row of degree 0 (the whole degree is cleared); degree 2 holds
    lone cocycles only (a gap in d); degree 3 is empty.
    """
    deg, d, known = {}, {}, {}

    def gen(k):
        g = f"g{len(deg)}"
        deg[g] = k
        return g

    def pairs(k, n):
        for _ in range(n):
            d[gen(k)] = {gen(k + 1): random_entry(rng, field)}

    def lone(k, n):
        for _ in range(n):
            gen(k)
        if n:
            known[k] = known.get(k, 0) + n

    pairs(-1, rng.randint(0, 3))
    lone(-1, rng.randint(0, 2))
    pairs(0, rng.randint(1, 4))
    lone(0, rng.randint(0, 2))
    lone(2, rng.randint(1, 3))
    pairs(4, rng.randint(1, 3))
    lone(4, rng.randint(0, 2))
    lone(5, rng.randint(0, 2))
    gens = list(deg)
    rng.shuffle(gens)
    # d -> S d S^-1 for S = 1 + c E_ab, a before b in one degree
    for _ in range(4 * len(gens)):
        i, j = sorted(rng.sample(range(len(gens)), 2))
        a, b = gens[i], gens[j]
        if deg[a] != deg[b]:
            continue
        c = random_entry(rng, field)
        for col in d.values():
            if b in col:
                axpy(col, a, c * col[b], field)
        for h, v in list(d.get(a, {}).items()):
            axpy(d.setdefault(b, {}), h, -c * v, field)
    return ChainComplex(gens, deg, d, field), known


def dense_cohomology_ranks(C):
    by_deg = {}
    for g in C.gens:
        by_deg.setdefault(C.deg[g], []).append(g)
    rk = {}
    for k, gens_k in by_deg.items():
        rows = {h: i for i, h in enumerate(by_deg.get(k + 1, []))}
        cols = [{rows[h]: v for h, v in C.d.get(g, {}).items()}
                for g in gens_k]
        rk[k] = dense_rank(cols, len(rows), C.field)
    ranks = {k: len(gens_k) - rk[k] - rk.get(k - 1, 0)
             for k, gens_k in by_deg.items()}
    return {k: r for k, r in ranks.items() if r}


@pytest.mark.parametrize("field", [GF2, QQ], ids=str)
def test_cohomology_ranks_match_dense_with_clearing(field, monkeypatch):
    reduced = []

    class CountingReducer(Reducer):
        def add(self, col, combo=None):
            reduced.append(bool(col))
            return super().add(col, combo)

    monkeypatch.setattr(complexes, "Reducer", CountingReducer)
    nonzero = 0
    for seed in range(40):
        C, known = random_known_complex(random.Random(seed), field)
        assert C.cohomology_ranks() == dense_cohomology_ranks(C) == known
        assert not any(C.deg[g] in (1, 2, 3) for g in C.d)
        nonzero += len(C.d)
    # clearing skipped nonzero columns, so it was exercised
    assert len(reduced) < nonzero


@pytest.mark.parametrize("c", [0, 1, 2, 3])
def test_add_scaled_over_f2_reads_entries_mod_2(c):
    rng = random.Random(c)
    for _ in range(50):
        vec = {i: rng.choice([1, 3]) for i in range(12) if rng.random() < 0.4}
        other = {i: rng.choice([1, 2, 3]) for i in range(12)
                 if rng.random() < 0.4}
        expect = {i: (vec.get(i, 0) + c * other.get(i, 0)) % 2
                  for i in set(vec) | set(other)}
        snapshot = dict(other)
        add_scaled(vec, other, c, GF2)
        assert other == snapshot
        assert {i: v % 2 for i, v in vec.items()} == \
            {i: v for i, v in expect.items() if v}


# ---------------------------------------------------------------------------
# barcodes through an acyclic matching (Morse pre-reduction)

def gradient_order(C, matching):
    """The pairs of matching listed so that no lower generator's coboundary
    reaches the upper generator of an earlier pair, or None on a cycle."""
    upper = {t: s for s, t in matching.items()}
    after = {s: [upper[h] for h in C.d.get(s, {}) if h in upper and h != t]
             for s, t in matching.items()}
    order, state = [], {}

    def visit(s):
        if state.get(s) == "done":
            return True
        if state.get(s) == "open":
            return False
        state[s] = "open"
        if not all(visit(s2) for s2 in after[s]):
            return False
        state[s] = "done"
        order.append(s)
        return True

    if not all(visit(s) for s in matching):
        return None
    return {s: matching[s] for s in reversed(order)}


def random_acyclic_matching(rng, FC):
    """Equal-value coface pairs drawn greedily in random order, each kept
    when the matching stays acyclic; listed in a gradient order."""
    C, action = FC.complex, FC.action
    cand = [(s, t) for s, cb in C.d.items() for t in cb
            if action[s] == action[t]]
    rng.shuffle(cand)
    matching, used = {}, set()
    for s, t in cand:
        if s in used or t in used:
            continue
        trial = gradient_order(C, {**matching, s: t})
        if trial is not None:
            matching = trial
            used.update((s, t))
    return matching


def random_matched_cases(field):
    """(FC, K, value, (lower, upper)) per case of the matching sweep: 40
    random filtered complexes with floored actions and 6 torus sublevel
    filtrations, each with a random acyclic matching in a gradient order;
    K is the IndexComplex of FC on the ids of its generators, value its
    actions, and (lower, upper) the matching on ids."""
    import numpy as np
    from gfsheaf.grids import (BoxGrid, SampledFunction, circle_grid,
                               sublevel_filtration)
    rng = random.Random(4242)
    cases = []
    for _ in range(40):
        FC = random_filtered_complex(rng, field, max_gens=30)
        cases.append(FilteredComplex(FC.complex, {
            g: float(math.floor(v)) for g, v in FC.action.items()}))
    torus = BoxGrid((circle_grid(5), circle_grid(4)))
    for _ in range(6):
        vals = np.array([rng.randrange(3) for _ in range(20)], dtype=float)
        cases.append(sublevel_filtration(
            SampledFunction(torus, vals.reshape(torus.vertex_shape)), field))
    for FC in cases:
        matching = random_acyclic_matching(rng, FC)
        C = FC.complex
        assert all(v == int(v) for cb in C.d.values() for v in cb.values())
        K = index_complex(list(C.gens), C.deg, {
            g: {h: int(v) for h, v in cb.items()} for g, cb in C.d.items()},
            field)
        value = np.array([FC.action[g] for g in C.gens])
        yield FC, K, value, _id_pairs(C._index.__getitem__, matching)


@pytest.mark.parametrize("field", [GF2, QQ], ids=["F2", "Q"])
def test_barcode_through_a_random_acyclic_matching(field):
    cases = list(random_matched_cases(field))
    matched = 0
    for FC, K, value, pairs in cases:
        matched += bool(len(pairs[0]))
        got = K.barcode(value, pairs)
        assert got.bars == FC.barcode().bars, pairs
    assert matched > len(cases) // 2


def _tied_square(field=GF2):
    """a, b in degree 0 and x, y in degree 1 with d a = x + y = d b, all of
    action 0; c of degree 1 at action 1 has no face."""
    C = ChainComplex(["a", "b", "x", "y", "c"],
                     {"a": 0, "b": 0, "x": 1, "y": 1, "c": 1},
                     {"a": {"x": 1, "y": 1}, "b": {"x": 1, "y": 1}}, field)
    return FilteredComplex(C, {"a": 0.0, "b": 0.0, "x": 0.0, "y": 0.0,
                               "c": 1.0})


# ---------------------------------------------------------------------------
# the index-array form: checks and matched barcodes on generator ids

def index_complex(names, deg, d, field=GF2):
    """The IndexComplex of generators names (ids in list order) with
    degrees deg and coboundaries d = {name: {name: integer}}."""
    import numpy as np
    from gfsheaf.complexes import IndexComplex
    index = {g: i for i, g in enumerate(names)}
    rows = [d.get(g, {}) for g in names]
    return IndexComplex(
        np.array([deg[g] for g in names], dtype=np.int64),
        np.cumsum([0] + [len(r) for r in rows], dtype=np.int64),
        np.array([index[h] for r in rows for h in r], dtype=np.int64),
        np.array([v for r in rows for v in r.values()], dtype=np.int64),
        field, lambda i: names[int(i)])


def _tied_square_ids():
    """The tied square of _tied_square on the ids 0..4, with its values."""
    import numpy as np
    names = ["a", "b", "x", "y", "c"]
    C = index_complex(names, {"a": 0, "b": 0, "x": 1, "y": 1, "c": 1},
                      {"a": {"x": 1, "y": 1}, "b": {"x": 1, "y": 1}})
    return C, np.array([0.0, 0.0, 0.0, 0.0, 1.0]), names.index


def _id_pairs(index, matching):
    import numpy as np
    return (np.array([index(s) for s in matching], dtype=np.int64),
            np.array([index(t) for t in matching.values()], dtype=np.int64))


def test_an_id_matching_of_the_tied_square_keeps_the_bars():
    C, value, index = _tied_square_ids()
    got = C.barcode(value, _id_pairs(index, {"a": "x"}))
    assert got == C.barcode(value) == _tied_square().barcode()


@pytest.mark.parametrize("matching, message", [
    ({"a": "c"}, "not a coface"),
    ({"a": "b"}, "not a coface"),
    ({"a": "x", "b": "x"}, "matched twice"),
    ({"a": "x", "x": "c"}, "matched twice"),
    ({"a": "x", "b": "y"}, "cycle"),
    ({"b": "y", "a": "x"}, "cycle"),
])
def test_an_id_matching_that_is_no_acyclic_matching_is_refused(matching,
                                                               message):
    C, value, index = _tied_square_ids()
    with pytest.raises(ValueError, match=message):
        C.barcode(value, _id_pairs(index, matching))


def test_an_id_pair_of_unequal_values_is_refused():
    import numpy as np
    C = index_complex(["x", "y"], {"x": 0, "y": 1}, {"x": {"y": 1}})
    with pytest.raises(ValueError, match=r"'x' -> 'y' has unequal values "
                                         r"1\.0 and 3\.0"):
        C.barcode(np.array([1.0, 3.0]), (np.array([0]), np.array([1])))


def test_an_id_entry_that_decreases_the_value_is_refused():
    import numpy as np
    C = index_complex(["x", "y"], {"x": 0, "y": 1}, {"x": {"y": 1}})
    with pytest.raises(ValueError, match="differential decreases action: "
                                         "'x' -> 'y'"):
        C.barcode(np.array([3.0, 1.0]))


def test_the_d_squared_check_on_ids_is_exact_in_the_field():
    # d a = x + y, d x = d y = z: d^2 a = 2 z, zero over F2 only
    names = ["a", "x", "y", "z"]
    deg = {"a": 0, "x": 1, "y": 1, "z": 2}
    d = {"a": {"x": 1, "y": 1}, "x": {"z": 1}, "y": {"z": 1}}
    index_complex(names, deg, d, GF2).check()
    with pytest.raises(ValueError, match=r"d\^2 != 0 at generator 'a'"):
        index_complex(names, deg, d, QQ).check()
    with pytest.raises(ValueError, match=r"d\^2 != 0 at generator 'a'"):
        ChainComplex(names, deg, d, QQ)
    d["y"] = {"z": -1}
    index_complex(names, deg, d, QQ).check()


def _squares(k, field, drop=(), flip=()):
    """k copies of a -> x, y -> z with d a = x + y, d x = z, d y = -z, on
    the ids a0 x0 y0 z0 a1 ...: copy i loses its entry y -> z when i is in
    drop and has it as +z when i is in flip."""
    names, deg, d = [], {}, {}
    for i in range(k):
        a, x, y, z = (f"{g}{i}" for g in "axyz")
        names += [a, x, y, z]
        deg.update({a: 0, x: 1, y: 1, z: 2})
        d[a] = {x: 1, y: 1}
        d[x] = {z: 1}
        if i not in drop:
            d[y] = {z: 1 if i in flip else -1}
    return index_complex(names, deg, d, field)


@pytest.mark.parametrize("budget", [None, 1, 2, 5])
@pytest.mark.parametrize("field, integral, bad", [
    (GF2, False, "drop"), (QQ, False, "flip"), (GF2, True, "flip")],
    ids=["F2", "Q", "integral"])
def test_the_blocked_d_squared_check_names_the_first_failing_generator(
        monkeypatch, budget, field, integral, bad):
    # the two-step paths start at the a_i, two each: a budget of 1 path
    # makes a block of each a_i alone and one of each x_i y_i z_i, 2 one
    # block per copy, 5 one per two copies
    if budget is not None:
        monkeypatch.setattr(complexes, "PATH_BUDGET", budget)
    blocks = []
    check_paths = complexes.IndexComplex._check_paths
    monkeypatch.setattr(complexes.IndexComplex, "_check_paths",
                        lambda *args: blocks.append(args[3:5])
                        or check_paths(*args))
    _squares(12, field).check(integral=integral)
    assert len(blocks) == {None: 1, 1: 24, 2: 12, 5: 6}[budget]
    assert blocks[0][0] == 0 and blocks[-1][1] == 12 * 4
    assert all(e1 == e0 for (_, e1), (e0, _) in zip(blocks, blocks[1:]))
    for broken, first in [((1, 10), "a1"), ((10,), "a10"), ((0, 11), "a0"),
                          ((11,), "a11")]:
        C = _squares(12, field, **{bad: broken})
        with pytest.raises(ValueError, match=rf"d\^2 != 0 at generator "
                                             rf"'{first}'"):
            C.check(integral=integral)
    if bad == "flip":
        # parity cannot see a flipped sign
        _squares(12, GF2, flip=(1, 10)).check()


def test_the_degree_check_on_ids_names_the_entry():
    C = index_complex(["x", "y"], {"x": 0, "y": 0}, {"x": {"y": 1}})
    with pytest.raises(ValueError, match="differential not degree "
                                         r"\+1 at x -> y"):
        C.check()


def test_an_id_cycle_names_the_first_pair_that_reaches_back():
    # pairs in order 0: e -> z, 1: a -> x, 2: b -> y.  d b reaches x (pair
    # 1) and d a reaches z (pair 0); b's entries come first, but pair 1 is
    # the first pair that reaches the upper generator of an earlier one
    import numpy as np
    names = ["b", "a", "e", "x", "y", "z"]
    C = index_complex(names, {"a": 0, "b": 0, "e": 0, "x": 1, "y": 1, "z": 1},
                      {"b": {"y": 1, "x": 1}, "a": {"x": 1, "z": 1},
                       "e": {"z": 1}})
    with pytest.raises(ValueError, match="'a' -> 'x' reaches the upper"):
        C.barcode(np.zeros(6), (np.array([2, 1, 0]), np.array([5, 3, 4])))


# ---------------------------------------------------------------------------
# class coordinates against the coboundaries of the touched degrees only

def reference_class_coordinates(C, basis_cocycles, zs):
    """class_coordinates against the coboundaries of every degree."""
    from gfsheaf.linalg import solve_columns
    F = C.field
    idx = C._index
    cols = []
    for b in basis_cocycles:
        cols.append({idx[g]: v for g, v in b.items()})
    nb = len(cols)
    for g in C.gens:
        cb = C.d.get(g)
        if cb:
            cols.append({idx[h]: v for h, v in cb.items()})
    sols = solve_columns(cols, [{idx[g]: v for g, v in z.items()}
                                for z in zs], F)
    return [None if sol is None else sol[:nb] for sol in sols]


def class_problem(rng, C):
    """(basis, targets) over C: its cohomology basis with dependent vectors
    shuffled in (a sum of two basis vectors, a basis vector plus a
    coboundary, a coboundary), and targets that mix degrees (combinations
    of basis vectors and coboundaries), the zero vector, and vectors that
    are no cocycles (inconsistent)."""
    from gfsheaf.complexes import apply_d, cohomology_basis
    F = C.field
    basis = [v for _, v in cohomology_basis(C)]

    def combo(vecs):
        out = {}
        for v in vecs:
            add_scaled(out, v, random_entry(rng, F), F)
        return out

    def boundary():
        return apply_d(C, {rng.choice(C.gens): random_entry(rng, F)})

    dependent = [combo(rng.sample(basis, min(2, len(basis)))),
                 combo(rng.sample(basis, min(1, len(basis))) + [boundary()]),
                 boundary()]
    basis += dependent
    rng.shuffle(basis)
    loose = [g for g in C.gens if g in C.d]
    targets = [combo(basis + [boundary(), boundary()]),
               combo(rng.sample(basis, len(basis) // 2) + [boundary()]),
               {}, {rng.choice(loose): F.one()},
               combo([basis[0], {rng.choice(loose): F.one()}])]
    return basis, targets


def as_index_complex(C):
    """The IndexComplex of C (integer entries) on the ids of C.gens, and
    a converter of generator-keyed vectors to id-keyed ones."""
    names = list(C.gens)
    K = index_complex(names, C.deg,
                      {g: {h: int(v) for h, v in cb.items()}
                       for g, cb in C.d.items()}, C.field)
    return K, lambda vec: {C._index[g]: v for g, v in vec.items()}


def class_problem_complexes(field):
    from test_linalg import complexes_under_test
    rng = random.Random(71)
    for _ in range(40):
        C, _ = random_known_complex(rng, field)
        yield C, field is GF2    # over Q its entries are fractions
    for C in complexes_under_test(field):
        yield C, True


@pytest.mark.parametrize("field", [GF2, QQ], ids=str)
def test_class_coordinates_match_the_unrestricted_solve(field):
    from gfsheaf.complexes import class_coordinates
    rng = random.Random(72)
    inconsistent = 0
    for C, integral in class_problem_complexes(field):
        basis, targets = class_problem(rng, C)
        want = reference_class_coordinates(C, basis, targets)
        assert class_coordinates(C, basis, targets) == want
        assert want[2] == [field.zero()] * len(basis)
        assert want[3] is None and want[4] is None
        inconsistent += want.count(None)
        if integral:
            K, ids = as_index_complex(C)
            got = class_coordinates(K, [ids(b) for b in basis],
                                    [ids(z) for z in targets])
            assert got == want
    assert inconsistent >= 2 * 40


def test_class_coordinates_solves_against_the_touched_degrees(monkeypatch):
    from gfsheaf.complexes import class_coordinates, cohomology_basis
    solve, seen = complexes.solve_columns, []

    def recorded(cols, targets, field):
        seen.append(cols)
        return solve(cols, targets, field)

    monkeypatch.setattr(complexes, "solve_columns", recorded)
    rng = random.Random(73)
    for _ in range(20):
        C, _ = random_known_complex(rng, GF2)
        for k in sorted({C.deg[g] for g in C.gens}):
            basis = [v for d, v in cohomology_basis(C) if d == k]
            zs = [{g: 1} for g in C.gens if C.deg[g] == k]
            assert class_coordinates(C, basis, zs) == \
                reference_class_coordinates(C, basis, zs)
            cols = seen.pop()[len(basis):]
            assert all(C.deg[C.gens[i]] == k for col in cols for i in col)
            assert len(cols) == sum(1 for g in C.gens
                                    if C.deg[g] == k - 1 and g in C.d)


@pytest.mark.parametrize("field", [GF2, QQ], ids=str)
def test_apply_d_on_ids_matches_the_tuple_complex(field):
    from fractions import Fraction
    from gfsheaf.complexes import apply_d
    from test_linalg import complexes_under_test
    rng = random.Random(74)
    for C in complexes_under_test(field):
        K, ids = as_index_complex(C)
        for _ in range(20):
            vec = {g: rng.choice([-2, -1, 1, 2, 3])
                   for g in rng.sample(C.gens, 6)}
            want = apply_d(C, {g: field.coerce(c) for g, c in vec.items()})
            assert apply_d(K, ids(vec)) == ids(want)
        with pytest.raises(ValueError, match="integer entries"):
            apply_d(K, {0: Fraction(1, 2)})
