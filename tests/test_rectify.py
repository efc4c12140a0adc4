import itertools
import math
import random

import numpy as np
import pytest

from gfsheaf.complexes import (ChainComplex, class_coordinates,
                               cohomology_basis, cohomology_ranks,
                               is_quasi_iso)
from gfsheaf.fixtures import circle_function, random_circle_morse
from gfsheaf.floer import StabilizationError, clamp_schedule
from gfsheaf.grids import BaseRegion, sublevel_filtration
from gfsheaf.linalg import GF2, QQ, rank_of_columns
from gfsheaf.rectify import (CoherentDiagram, FunPoset, RectifiedComplex,
                             _e2_direct, index_complex_homology,
                             check_coherence, coherence_residual,
                             differential_D, e2_page, mirrored_rectified,
                             perturb_coherent, rectify_at, restriction_map,
                             sheafify_limit, strict_geometric_diagram,
                             strict_synthetic_diagram)

INF = math.inf


def geometric_diagram(rng=None, n_funs=3, n=8):
    rng = rng or random.Random(0)
    target = random_circle_morse(rng, n=n)
    grid = target.grid
    offsets = sorted(rng.uniform(0.1, 0.5) for _ in range(n_funs - 1))
    funs = [circle_function("0*x", n=n)]
    for c in offsets:
        funs.append(circle_function("0*x", n=n) + (-c))
    funs = list(reversed(funs))  # increasing order: most negative first
    return strict_geometric_diagram(funs, target)


def test_strict_diagram_passes_coherence():
    diagram = geometric_diagram()
    ok, report = check_coherence(diagram)
    assert ok, report


def test_broken_two_simplex_located():
    diagram = geometric_diagram()
    # break one pair map by a non-chain-map perturbation
    (i, j) = next(c for c in diagram.maps if len(c) == 2)
    V = diagram.V[j]
    gs = [g for g in V.complex.gens if g in V.complex.d]
    g0 = gs[0]
    h0 = next(iter(V.complex.d[g0]))
    bad = dict(diagram.maps)
    m = {g: dict(c) for g, c in bad[(i, j)].items()}
    m.setdefault(g0, {})[h0] = 1  # degree-violating junk would be caught
    m[g0] = {k: v for k, v in m[g0].items()
             if diagram.V[i].complex.deg[k] == V.complex.deg[g0]}
    m.setdefault(g0, {})
    # instead: zero out one entry of a genuine chain map
    m[g0] = {}
    bad[(i, j)] = m
    broken = CoherentDiagram(diagram.poset, diagram.V, bad)
    ok, report = check_coherence(broken)
    assert not ok
    assert any(v for k, v in report.items() if k == (i, j))


def test_differential_D_on_pairs():
    diagram = geometric_diagram()
    V0 = diagram.V[0]
    closed = [g for g in V0.complex.gens if g not in V0.complex.d]
    x = closed[0]
    out = differential_D(diagram, (0, 0), x)
    assert out == {}  # (f<=f) tensor closed x is closed
    gs = [g for g in V0.complex.gens if g in V0.complex.d]
    y = gs[0]
    out2 = differential_D(diagram, (0, 0), y)
    assert all(key[0] == (0, 0) for key in out2)


def test_differential_D_on_triples():
    diagram = geometric_diagram()
    poset = diagram.poset
    triple = next(c for i in range(len(poset))
                  for c in poset.chains_from(i) if len(c) == 3)
    V = diagram.V[triple[-1]]
    x = V.complex.gens[0]
    out = differential_D(diagram, triple, x)
    # the action term lands on the length-2 prefix, the face term on the
    # chain with its middle vertex dropped
    assert any(key[0] == triple[:2] for key in out)
    assert any(key[0] == (triple[0], triple[2]) for key in out)


def test_rectified_one_function_poset():
    rng = random.Random(5)
    target = random_circle_morse(rng, n=8)
    diagram = strict_geometric_diagram([circle_function("0*x", n=8)], target)
    R, inc = rectify_at(diagram, 0)
    assert R.cohomology_ranks() == \
        cohomology_ranks(diagram.V[0].complex)
    assert is_quasi_iso(inc)


def test_rectified_quasi_iso_chain_poset():
    for seed in range(4):
        diagram = geometric_diagram(random.Random(seed))
        for i in range(len(diagram.poset)):
            R, inc = rectify_at(diagram, i)
            assert is_quasi_iso(inc), (seed, i)
        # windowed version
        R, inc = rectify_at(diagram, 0, lam=0.5)
        assert is_quasi_iso(inc)


def test_restriction_strict_functoriality():
    diagram = geometric_diagram(random.Random(9))
    order = sorted(range(len(diagram.poset)),
                   key=lambda i: float(diagram.poset.functions[i].values[0]))
    h, g, f = order[0], order[1], order[2]  # h <= g <= f
    Rf = RectifiedComplex(diagram, f)
    Rg = RectifiedComplex(diagram, g)
    Rh = RectifiedComplex(diagram, h)
    r_fg = restriction_map(diagram, Rf, Rg)
    r_gh = restriction_map(diagram, Rg, Rh)
    r_fh = restriction_map(diagram, Rf, Rh)
    for x in Rf.complex.gens:
        step = {}
        for y, v in r_fg.comp.get(x, {}).items():
            for z, w in r_gh.comp.get(y, {}).items():
                step[z] = step.get(z, 0) ^ (v & w)
        step = {k: v for k, v in step.items() if v}
        assert step == r_fh.comp.get(x, {}), x


def test_sublemma_small_sizes():
    for m in (2, 3, 4, 5):
        out = index_complex_homology(m)
        assert out["delta_squared_zero"]
        assert all(r == 0 for r in out["delta_ranks"].values()), \
            (m, out["delta_ranks"])
        tw = out["twisted_ranks"]
        assert tw.get(0, 0) == 1, (m, tw)
        assert all(r == 0 for k, r in tw.items() if k != 0), (m, tw)


def test_perturb_identity_with_zero_homotopies():
    diagram = geometric_diagram(random.Random(2))
    out = perturb_coherent(diagram, seed=0, density=0.0)
    for c in diagram.maps:
        if len(c) == 2:
            assert out.maps[c] == diagram.maps[c]
    for c, m in out.maps.items():
        if len(c) >= 3:
            assert not m


def test_perturb_coherent_properties():
    rng = random.Random(13)
    diagram = strict_synthetic_diagram(rng, n_functions=3, max_gens=8)
    ok, _ = check_coherence(diagram)
    assert ok
    out = perturb_coherent(diagram, seed=4, density=0.35)
    ok2, report = check_coherence(out)
    assert ok2, report
    # nonzero higher map appears for a generic draw
    has_higher = any(len(c) >= 3 and out.maps[c] for c in out.maps)
    assert has_higher
    # rectified cohomology unchanged
    for i in range(3):
        before = RectifiedComplex(diagram, i).cohomology_ranks()
        after = RectifiedComplex(out, i).cohomology_ranks()
        assert before == after, i


@pytest.fixture(scope="module")
def rectify_check_draws():
    """The diagrams of the rectify-check task at its seeds 0-299, six each:
    (seed, instance, strict diagram, perturbed diagram)."""
    draws = []
    for seed in range(300):
        rng = random.Random(seed)
        for i in range(6):
            diagram = strict_synthetic_diagram(
                rng, n_functions=rng.choice([2, 3]),
                max_gens=rng.randint(6, 10))
            draws.append((seed, i, diagram,
                          perturb_coherent(diagram, seed=seed + i,
                                           density=0.3)))
    return draws


def test_perturbed_strict_diagrams_stay_coherent(rectify_check_draws):
    # the closed-form triple homotopy must carry H_ik H_kj d_j, without
    # which program seeds 7, 10, 27 and 287 failed the coherence check
    failures = []
    for seed, i, _strict, perturbed in rectify_check_draws:
        ok, report = check_coherence(perturbed)
        if not ok:
            failures.append((seed, i, report))
    assert not failures


def test_d_squared_zero_on_many_random_diagrams():
    count = 0
    seed = 0
    while count < 100:
        seed += 1
        rng = random.Random(seed)
        diagram = strict_synthetic_diagram(rng, n_functions=rng.choice([2, 3, 4]),
                                           max_gens=rng.randint(6, 12))
        perturbed = perturb_coherent(diagram, seed=seed, density=0.3)
        # the constructor asserts D^2 = 0 on the nose
        R = RectifiedComplex(perturbed, rng.randrange(len(perturbed.poset)))
        count += 1
        # filtration respect: D never decreases action
        for (ch, g), cb in R.complex.d.items():
            a = R.filtered.action[(ch, g)]
            for key in cb:
                assert R.filtered.action[key] >= a - 1e-12


def test_e2_page_strict():
    diagram = geometric_diagram(random.Random(21))
    e2 = e2_page(diagram, 0)
    fh = cohomology_ranks(diagram.V[0].complex)
    got_p0 = {q: r for (p, q), r in e2.items() if p == 0}
    assert got_p0 == fh
    assert all(p == 0 for (p, q) in e2)


def test_sheafify_limit_three_routes():
    from gfsheaf.genfun import graph_genfun
    from gfsheaf.grids import BaseRegion, sublevel_filtration
    from gfsheaf.rectify import sheafify_limit
    from gfsheaf.sheaves import quantize, sections
    rng = random.Random(101)
    g = random_circle_morse(rng, n=8)
    Sh = sheafify_limit(g, ks=(1, 2, 3))
    F = quantize(graph_genfun(g))
    bc = sublevel_filtration(g).barcode()
    vals = bc.breakpoints()
    cuts = [vals[0] - 0.4] + [
        (a + b) / 2 for a, b in zip(vals, vals[1:])] + [vals[-1] + 0.4]
    for i in range(len(cuts)):
        for j in range(i + 1, len(cuts)):
            a, b = cuts[i], cuts[j]
            want = sections(F, None, a, b, check_regular=False)
            assert sections(Sh, None, a, b) == want == \
                bc.window_ranks(a, b), (a, b)
    # arcs too
    reg = BaseRegion.interval_arc(g.grid, 2, 7)
    for a, b in zip(cuts, cuts[1:]):
        assert sections(Sh, reg, a, b) == \
            sections(F, reg, a, b, check_regular=False)


def test_sheafify_limit_non_stabilizing_schedule():
    from gfsheaf.grids import BaseRegion
    from gfsheaf.floer import StabilizationError
    from gfsheaf.rectify import sheafify_limit
    from gfsheaf.sheaves import sections
    rng = random.Random(103)
    g = random_circle_morse(rng, n=8)
    Sh = sheafify_limit(g, ks=(0.001,))
    reg = BaseRegion.from_cells(g.grid, [(0,)])
    with pytest.raises(StabilizationError) as err:
        sections(Sh, reg, -4.0, 4.0)
    assert err.value.last_tables is not None


def test_mirrored_rectified_dual_ranks():
    diagram = geometric_diagram(random.Random(31))
    i = 0
    R = RectifiedComplex(diagram, i)
    M = mirrored_rectified(diagram, i)
    ranks = R.cohomology_ranks()
    dual_ranks = {-k: v for k, v in ranks.items()}
    assert M.cohomology_ranks() == dual_ranks


def test_diagram_serialization_roundtrip():
    from gfsheaf.rectify import (check_coherence, deserialize_diagram,
                                 perturb_coherent, serialize_diagram)
    rng = random.Random(71)
    diagram = perturb_coherent(
        strict_synthetic_diagram(rng, n_functions=3, max_gens=8), seed=5,
        density=0.3)
    text = serialize_diagram(diagram)
    back = deserialize_diagram(text)
    ok, report = check_coherence(back)
    assert ok, report
    assert serialize_diagram(back) == text
    for i in range(3):
        assert RectifiedComplex(back, i).cohomology_ranks() == \
            RectifiedComplex(diagram, i).cohomology_ranks()


def test_diagrams_run_over_f2_only():
    target = random_circle_morse(random.Random(0), n=8)
    with pytest.raises(ValueError, match="F2"):
        CoherentDiagram(FunPoset([target]), [sublevel_filtration(target, QQ)],
                        {})


def reference_index_complex_homology(m):
    """The hand-built coboundary columns that index_complex_homology
    replaced, kept as the reference: ranks per tuple length by
    rank_of_columns, and a delta^2 loop of its own."""
    max_len = m + 3
    tuples = {}
    for L in range(2, max_len + 1):
        tuples[L] = [(0,) + t for t in
                     itertools.combinations_with_replacement(range(m), L - 1)]
    idx = {L: {t: i for i, t in enumerate(tuples[L])} for L in tuples}

    def cols(L, twisted):
        out = []
        for t in tuples[L]:
            col = {}
            for l in range(1, L - 1):
                j = idx[L - 1][t[:l] + t[l + 1:]]
                col[j] = col.get(j, 0) ^ 1
            if twisted and len(t) >= 3:
                j = idx[L - 1][t[:-1]]
                col[j] = col.get(j, 0) ^ 1
            out.append({k: v for k, v in col.items() if v})
        return out

    ranks_d = {L: rank_of_columns(cols(L, False))
               for L in range(3, max_len + 1)}
    ranks_t = {L: rank_of_columns(cols(L, True))
               for L in range(3, max_len + 1)}
    for L in range(4, max_len + 1):
        lower = cols(L - 1, False)
        for c in cols(L, False):
            acc = {}
            for j in c:
                for kk in lower[j]:
                    acc[kk] = acc.get(kk, 0) ^ 1
            assert not any(acc.values()), "delta^2 != 0"
    out_delta, out_twisted = {}, {}
    for k in range(0, m + 1):
        L = k + 2
        dim = len(tuples[L])
        out_delta[k] = dim - ranks_d.get(L, 0) - ranks_d.get(L + 1, 0)
        out_twisted[k] = dim - ranks_t.get(L, 0) - ranks_t.get(L + 1, 0)
    return {"delta_ranks": out_delta, "twisted_ranks": out_twisted,
            "delta_squared_zero": True}


def test_index_complex_matches_the_hand_built_columns():
    for m in range(2, 8):
        # equal dicts in equal key order, zero ranks included
        assert repr(index_complex_homology(m)) == \
            repr(reference_index_complex_homology(m)), m


def reference_e2(R):
    """The per-page loop that _e2_direct replaced, kept as the reference:
    pages restricted by hand, every d1 computed twice (out of its page and
    into the page below) and ranked per (p, q)."""
    by_p = {}
    for gkey in R.complex.gens:
        by_p.setdefault(len(gkey[0]) - 2, []).append(gkey)
    pages = {}
    for p, gens in by_p.items():
        genset = set(gens)
        sub_d = {g: {k: v for k, v in R.complex.d.get(g, {}).items()
                     if k in genset} for g in gens}
        C0 = ChainComplex(gens, {g: R.complex.deg[g] for g in gens},
                          {g: cb for g, cb in sub_d.items() if cb}, GF2,
                          check=False)
        pages[p] = (C0, cohomology_basis(C0))

    def d1_cols(p_from, basis_from, page_to):
        imgs = []
        for (_q, vec) in basis_from:
            img = {}
            for gkey in vec:
                for k2 in R.complex.d.get(gkey, {}):
                    if len(k2[0]) - 2 == p_from - 1:
                        img[k2] = img.get(k2, 0) ^ 1
            imgs.append({k: v for k, v in img.items() if v})
        if page_to is None:
            assert not any(imgs)
            return [(q, {}) for (q, _vec) in basis_from]
        C_low, basis_low = page_to
        coords = class_coordinates(C_low, [b for _, b in basis_low], imgs)
        assert None not in coords
        return [(q, {r: c for r, c in enumerate(cs) if c})
                for (q, _vec), cs in zip(basis_from, coords)]

    e2 = {}
    for p, (C0, basis) in pages.items():
        out_cols = d1_cols(p, basis, pages.get(p - 1))
        upper = pages.get(p + 1)
        in_cols = [] if upper is None else d1_cols(p + 1, upper[1], pages[p])
        degs = {}
        for (q, _vec) in basis:
            degs[q] = degs.get(q, 0) + 1
        for q in degs:
            rk_out = rank_of_columns([c for (qq, c) in out_cols if qq == q])
            rk_in = rank_of_columns([c for (qq, c) in in_cols
                                     if qq == q - 1])
            r = degs[q] - rk_out - rk_in
            if r:
                e2[(p, q)] = r
    return e2


def test_e2_matches_the_per_page_reference(rectify_check_draws):
    # every start of the strict and the perturbed rectify-check diagrams
    for seed, i, strict, perturbed in rectify_check_draws:
        for diagram in (strict, perturbed):
            for start in range(len(diagram.poset)):
                R = RectifiedComplex(diagram, start)
                # equal pages in equal key order
                assert repr(_e2_direct(R)) == repr(reference_e2(R)), \
                    (seed, i, start)


def reference_limit_sections(limit, region, a, b):
    """The per-window loop that LimitSheaf.sections replaced, kept as the
    reference: one rectified complex per (window, rung), truncated at the
    top of the window.  None when the schedule does not stabilize."""
    grid = limit.target.grid
    region = region if region is not None else BaseRegion(grid)
    clamps = clamp_schedule(BaseRegion(grid, region.membership), limit.span,
                            limit.ks)
    if a == -INF:
        a = float(limit.target.values.min()) - 2 * limit.span
    lam = float(limit.target.values.max()) + 0.5 if b == INF else b
    prev = None
    for rung in range(len(limit.ks)):
        diagram = strict_geometric_diagram(
            list(reversed(clamps[: rung + 1])), limit.target)
        R = RectifiedComplex(diagram, 0, lam=lam)
        table = cohomology_ranks(R.filtered.window(a, lam))
        if table == prev:
            return table
        prev = table
    return None


def test_limit_sections_match_the_per_window_reference():
    from gfsheaf.sheaves import sections
    rng = random.Random(211)
    checked = 0
    for _ in range(16):
        g = random_circle_morse(rng, n=8)
        Sh = sheafify_limit(g)
        vals = sublevel_filtration(g).barcode().breakpoints()
        cuts = [vals[0] - 0.4] + [(x + y) / 2 for x, y in
                                  zip(vals, vals[1:])] + [vals[-1] + 0.4]
        ends = [-INF] + cuts + [INF]
        lo = rng.randrange(12)
        regions = [None, BaseRegion.interval_arc(g.grid, lo, lo + 4),
                   BaseRegion.from_cells(g.grid, [(rng.randrange(16),)])]
        for region in regions:
            for a, b in itertools.combinations(ends, 2):
                want = reference_limit_sections(Sh.limit, region, a, b)
                assert want is not None
                assert sections(Sh, region, a, b) == want, (region, a, b)
                checked += 1
    assert checked > 700
