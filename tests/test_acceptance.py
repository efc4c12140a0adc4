"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every assertion is an exact rank equality at the stated desk scale; the only
tolerances are the declared geometric collars (front resolution for the cusp
table, grid cells for the cone estimate, carrier resolution for the cellular
cross-checks, which always accompany an exact generating-family route).
"""

import math
import random

import numpy as np
import pytest

from gfsheaf.complexes import apply_d, class_coordinates, cohomology_basis, \
    cohomology_ranks, is_quasi_iso
from gfsheaf.fixtures import (circle_function, cusp_front, cusp_genfun,
                              random_circle_morse, smoothed_clamp,
                              stabilized_graph_genfun, torus_function)
from gfsheaf.floer import (GraphBrane, SuperlevelHome, pant_product,
                           unit_class, conormal_limit_ranks)
from gfsheaf.genfun import (brane_of, cerf_diagram, gf_cohomology,
                            graph_brane, graph_genfun)
from gfsheaf.grids import BaseRegion, sublevel_filtration
from gfsheaf.products import (ProductHome, class_table, cup_product,
                              decoupled_superlevel_complex, dualize,
                              floer_to_product_classes, pushforward_barcode,
                              restricted_unit, rhom_tensor, tensor, unit,
                              unit_morphisms, verify_unit_composition)
from gfsheaf.rectify import (RectifiedComplex, index_complex_homology,
                             check_coherence, perturb_coherent, rectify_at,
                             strict_synthetic_diagram)
from gfsheaf.scenarios import _carrier_safe_cuts
from gfsheaf.sheaves import (conify, front_interior_table, microstalk,
                             quantize, sections, singular_support,
                             to_cellular, _as_cellsheaf)

INF = math.inf


def report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    line = f"{status} criterion-{number}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


# ---------------------------------------------------------------------------

def test_criterion_1_cusp_front_table():
    gf = cusp_genfun(n_base=32, n_fiber=64)
    F = quantize(gf)
    g = gf.grid.base[0]
    # front resolution: strand-value sampling error plus one base cell of
    # front variation
    delta = max(cp.val_tol for j in range(g.n_vertices)
                for cp in gf.fiber_critical_data((j,))[:2])
    delta = max(delta, g.spacing)  # |d front / dx| <= 1 on [0.1, 1]
    checked_inside = checked_outside = 0
    ok = True
    for j in range(1, g.n_vertices - 1, 3):
        x = g.vertex_coords()[j]
        lo_t, hi_t = cusp_front(x)
        band_top = hi_t + 0.4
        cell = (2 * j,)
        for t in np.linspace(-hi_t + 2 * delta, hi_t - 2 * delta, 5):
            if hi_t - 2 * delta <= 0:
                continue
            val = front_interior_table(F, cell, float(t), band_top,
                                       eps=delta / 2)
            checked_inside += 1
            ok = ok and val == 1
        for t in (hi_t + 2 * delta, -hi_t - 2 * delta):
            if abs(t) > 2.0:
                continue
            val = front_interior_table(F, cell, float(t),
                                       band_top + 2 * delta + 0.1,
                                       eps=delta / 2)
            checked_outside += 1
            ok = ok and val == 0
        # supporting invariant: the two-sided pair detects exactly the
        # sampled strand crossings
        cps = gf.fiber_critical_data((j,))
        ok = ok and sum(microstalk(F, cell, cps[0].value,
                                   eps=delta / 2).values()) == 1
        if hi_t > delta:
            ok = ok and microstalk(F, cell, 0.0,
                                   eps=min(delta, hi_t) / 2) == {}
    report(1, "cusp front interior/exterior table", ok and
           checked_inside >= 20 and checked_outside >= 10,
           f"{checked_inside} interior and {checked_outside} exterior points,"
           f" collar {2 * delta:.3f}")


def test_criterion_2_unit_monoid_laws():
    rng = random.Random(20260808)
    failures = []
    n_boxes = 20

    def boxes(grid, count):
        g1 = grid.base[0]
        out = []
        for _ in range(count):
            start = rng.randrange(g1.n_cells)
            width = rng.randrange(1, max(2, g1.n_cells // 2))
            mask = np.zeros(grid.base_cell_shape, dtype=bool)
            for k in range(width):
                mask[((start + k) % g1.n_cells,)] = True
            out.append(BaseRegion(grid, mask))
        return out

    # (a) sum of graph quantizations
    f = random_circle_morse(rng, n=16)
    g = random_circle_morse(rng, n=16)
    Ff, Fg = quantize(graph_genfun(f)), quantize(graph_genfun(g))
    Fsum = quantize(graph_genfun(f + g))
    T = tensor(Ff, Fg)
    vals = sorted(set(np.round((f + g).cell_max().ravel(), 9)))
    cuts = [vals[0] - 0.51] + [(x + y) / 2 for x, y in zip(vals, vals[1:])
                               if y - x > 1e-6] + [vals[-1] + 0.49]
    for region in [None] + boxes(f.grid, n_boxes):
        for a, b in list(zip(cuts, cuts[1:]))[::3] + [(cuts[0], cuts[-1])]:
            want = sections(Fsum, region, a, b, check_regular=False)
            got = sections(T, region, a, b, check_regular=False)
            if got != want:
                failures.append(("sum", a, b))
    # carrier cross-check on collar-cleared windows
    T_cell = tensor(Ff, Fg, strategy="cell")
    for region in [None] + boxes(f.grid, 3):
        for a, b in zip(_carrier_safe_cuts(f, g), _carrier_safe_cuts(f, g)[1:]):
            want = sections(Fsum, region, a, b, check_regular=False)
            if sections(T_cell, region, a, b) != want:
                failures.append(("sum-carrier", a, b))
    # (b) shifted units add their entry levels
    grid = f.grid
    lam, mu = 0.7, -0.2
    A = restricted_unit(grid, BaseRegion(grid), lam)
    B = restricted_unit(grid, BaseRegion(grid), mu)
    TAB = tensor(A, B)
    target = restricted_unit(grid, BaseRegion(grid), lam + mu)
    for region in [None] + boxes(grid, n_boxes):
        for b in (lam + mu - 0.31, lam + mu + 0.29, lam + mu + 1.3):
            for a in (-INF, lam + mu - 0.61):
                if not a < b:
                    continue
                if sections(TAB, region, a, b) != \
                        sections(target, region, a, b):
                    failures.append(("shifted-units", a, b))
    # (c) the dual conormal object against its clamp realization
    reg = BaseRegion.interval_arc(grid, 5, 21)
    clamp = smoothed_clamp(reg, depth=2.0, ramp_cells=4)
    Fc = quantize(graph_genfun(clamp))
    Tc = tensor(dualize(Fc), Fc)
    U = unit(grid)
    for region in [None] + boxes(grid, n_boxes):
        for lam2 in (0.8, 1.3, 2.6):
            if sections(Tc, region, -INF, lam2, check_regular=False) != \
                    sections(U, region, -INF, lam2):
                failures.append(("dual-conormal", lam2, region))
    # (d) neutrality
    TU = tensor(Ff, U)
    bcf = sublevel_filtration(f).barcode()
    valsf = bcf.breakpoints()
    cutsf = [valsf[0] - 0.51] + [(x + y) / 2 for x, y in
                                 zip(valsf, valsf[1:])] + [valsf[-1] + 0.49]
    for region in [None] + boxes(grid, n_boxes):
        for a, b in zip(cutsf, cutsf[1:]):
            want = sections(Ff, region, a, b, check_regular=False)
            if sections(TU, region, a, b) != want:
                failures.append(("neutral", a, b))
    report(2, "unit/monoid laws over random boxes", not failures,
           f"{len(failures)} failures" if failures else "all identities exact")


def test_criterion_3_duality():
    rng = random.Random(31415)
    failures = []
    f = random_circle_morse(rng, n=16)
    F = quantize(graph_genfun(f))
    D_gf = dualize(F)
    D_cell = dualize(to_cellular(F, spot_checks=0))
    target = quantize(graph_genfun(-f))
    bc = sublevel_filtration(-f).barcode()
    vals = bc.breakpoints()
    cuts = [vals[0] - 0.5] + [(x + y) / 2 for x, y in
                              zip(vals, vals[1:])] + [vals[-1] + 0.5]
    for i in range(len(cuts)):
        for j in range(i + 1, len(cuts)):
            a, b = cuts[i], cuts[j]
            want = sections(target, None, a, b, check_regular=False)
            if sections(D_gf, None, a, b, check_regular=False) != want:
                failures.append(("gf", a, b))
            if sections(D_cell, None, a, b) != want:
                failures.append(("cell", a, b))
    # region indicator: dual is the constant sheaf on the complement closure
    grid = f.grid
    reg = BaseRegion.interval_arc(grid, 7, 19)
    KU = restricted_unit(grid, reg)
    DK = dualize(KU)
    comp = restricted_unit(grid, reg.complement_closure())
    for lam in (0.4, 1.9):
        if sections(DK, None, -INF, lam) != sections(comp, None, -INF, lam):
            failures.append(("region", lam))
    # involution at rank level
    DD = dualize(D_gf)
    bc_f = sublevel_filtration(f).barcode()
    vals_f = bc_f.breakpoints()
    cuts_f = [vals_f[0] - 0.5] + [(x + y) / 2 for x, y in
                                  zip(vals_f, vals_f[1:])] + [vals_f[-1] + 0.5]
    for a, b in zip(cuts_f, cuts_f[1:]):
        if sections(DD, None, a, b, check_regular=False) != \
                sections(F, None, a, b, check_regular=False):
            failures.append(("involution", a, b))
    if sections(dualize(dualize(KU)), None, -INF, 0.5) != \
            sections(KU, None, -INF, 0.5):
        failures.append(("involution-region", 0.5))
    report(3, "duality: negation, complement, involution", not failures,
           f"{len(failures)} failures" if failures else "exact")


def test_criterion_4_self_pairing_pushforward():
    ok = True
    details = []
    # circle
    rng = random.Random(2718)
    f = random_circle_morse(rng, n=16)
    F = quantize(graph_genfun(f))
    bars = pushforward_barcode(rhom_tensor(F, F))
    want = sorted([(0, 0.0, INF), (1, 0.0, INF)])
    ok = ok and sorted(bars) == want
    details.append(f"circle bars {sorted(bars)}")
    # torus
    ft = torus_function(
        "0.8*cos(2*pi*x) + 0.65*sin(2*pi*y) + 0.2*cos(2*pi*x)*sin(2*pi*y)",
        n1=8, n2=8)
    Ft = quantize(graph_genfun(ft))
    bars_t = pushforward_barcode(rhom_tensor(Ft, Ft))
    want_t = sorted([(0, 0.0, INF), (1, 0.0, INF), (1, 0.0, INF),
                     (2, 0.0, INF)])
    ok = ok and sorted(bars_t) == want_t
    details.append(f"torus bars {sorted(bars_t)}")
    report(4, "self-pairing pushforward barcode (circle and torus)", ok,
           "; ".join(details))


def _ladder(vals, pad=0.4):
    cuts = [vals[0] - pad]
    for x, y in zip(vals, vals[1:]):
        if y - x > 1e-9:
            cuts.append((x + y) / 2)
    cuts.append(vals[-1] + pad)
    out = []
    for c in cuts:
        if not out or c - out[-1] > 1e-9:
            out.append(c)
    return out


def test_criterion_5_three_route_agreement():
    rng = random.Random(5050)
    mismatches = []
    instances = 0
    # graph pairs on the circle
    for _ in range(8):
        f = random_circle_morse(rng, n=16)
        g = random_circle_morse(rng, n=16)
        h = g - f
        bc = sublevel_filtration(h).barcode()
        gfn = graph_genfun(h)
        Sheaf = to_cellular(quantize(gfn), spot_checks=0)
        cuts = _ladder(bc.breakpoints())
        instances += 1
        for i in range(len(cuts)):
            for j in range(i + 1, len(cuts)):
                a, b = cuts[i], cuts[j]
                r1 = bc.window_ranks(a, b)
                r2 = gf_cohomology(gfn, None, a, b, check_regular=False)
                r3 = sections(Sheaf, None, a, b)
                if not (r1 == r2 == r3):
                    mismatches.append(("graph", a, b, r1, r2, r3))
    # the cusp generating family
    gf = cusp_genfun(n_base=10, n_fiber=32)
    instances += 1
    bc = sublevel_filtration(gf.S).barcode()
    Sheaf = to_cellular(quantize(gf), spot_checks=0)
    vals = list(cerf_diagram(gf).breakpoints)
    cuts = _ladder(vals, pad=0.3)
    windows = list(zip(cuts, cuts[1:]))
    windows += [(cuts[0], cuts[-1]), (cuts[0], cuts[len(cuts) // 2]),
                (cuts[len(cuts) // 2], cuts[-1])]
    for (a, b) in windows:
        r1 = {d - gf.i_q: r for d, r in bc.window_ranks(a, b).items() if r}
        r2 = gf_cohomology(gf, None, a, b, check_regular=False)
        r3 = sections(Sheaf, None, a, b)
        if not (r1 == r2 == r3):
            mismatches.append(("cusp", a, b, r1, r2, r3))
    # all-window agreement for the two cheap routes on the cusp
    for i in range(len(cuts)):
        for j in range(i + 1, len(cuts)):
            a, b = cuts[i], cuts[j]
            r1 = {d - gf.i_q: r
                  for d, r in bc.window_ranks(a, b).items() if r}
            r2 = gf_cohomology(gf, None, a, b, check_regular=False)
            if r1 != r2:
                mismatches.append(("cusp-2route", a, b, r1, r2))
    # a two-fiber-variable instance
    f2 = random_circle_morse(rng, n=8)
    gf2 = stabilized_graph_genfun(f2, coeffs=(1.0, -1.0), n_fiber=8)
    instances += 1
    bc2 = sublevel_filtration(gf2.S).barcode()
    Sheaf2 = to_cellular(quantize(gf2), spot_checks=0)
    cuts2 = _ladder(sorted({round(c["value"], 9) for c in
                            __import__("gfsheaf.grids",
                                       fromlist=["critical_vertices"])
                            .critical_vertices(f2)}))
    windows2 = list(zip(cuts2, cuts2[1:])) + [(cuts2[0], cuts2[-1])]
    for (a, b) in windows2:
        r1 = {d - gf2.i_q: r for d, r in bc2.window_ranks(a, b).items() if r}
        r2 = gf_cohomology(gf2, None, a, b, check_regular=False)
        r3 = sections(Sheaf2, None, a, b)
        if not (r1 == r2 == r3):
            mismatches.append(("k2", a, b, r1, r2, r3))
    report(5, "three-route agreement", not mismatches and instances >= 10,
           f"{instances} instances" if not mismatches else str(mismatches[:2]))


def test_criterion_6_rectification():
    count = 0
    seed = 0
    failures = []
    while count < 100:
        seed += 1
        rng = random.Random(seed)
        diagram = strict_synthetic_diagram(
            rng, n_functions=rng.choice([2, 3, 4]),
            max_gens=rng.randint(6, 12))
        perturbed = perturb_coherent(diagram, seed=seed, density=0.3)
        ok, rep = check_coherence(perturbed)
        if not ok:
            failures.append(("coherence", seed))
        start = rng.randrange(len(perturbed.poset))
        # the constructor asserts the squared differential vanishes
        R, inc = rectify_at(perturbed, start)
        if not is_quasi_iso(inc):
            failures.append(("quasi-iso", seed))
        count += 1
    sub_ok = True
    for m in (2, 3, 4, 5):
        out = index_complex_homology(m)
        sub_ok = sub_ok and all(r == 0 for r in out["delta_ranks"].values())
        tw = out["twisted_ranks"]
        sub_ok = sub_ok and tw.get(0, 0) == 1 and \
            all(r == 0 for k, r in tw.items() if k != 0)
    report(6, "rectification: square-zero, quasi-isomorphism, index complex",
           not failures and sub_ok and count == 100,
           f"{count} diagrams" if not failures else str(failures[:3]))


def _les_consistent(A, B, C):
    """Rank bookkeeping of ... -> A^d -> B^d -> C^d -> A^{d+1} -> ..."""
    degs = sorted(set(A) | set(B) | set(C))
    if not degs:
        return True
    lo, hi = degs[0], degs[-1]
    x = 0  # incoming im(C^{d-1} -> A^d)
    for d in range(lo, hi + 2):
        a, b, c = A.get(d, 0), B.get(d, 0), C.get(d, 0)
        y = a - x        # im(A^d -> B^d)
        if y < 0:
            return False
        z = b - y        # im(B^d -> C^d)
        if z < 0:
            return False
        x = c - z        # im(C^d -> A^{d+1})
        if x < 0:
            return False
    return x == 0


def test_criterion_7_window_induction_bookkeeping():
    gf = cusp_genfun(n_base=12, n_fiber=32)
    bc = sublevel_filtration(gf.S).barcode()
    vals = list(cerf_diagram(gf).breakpoints)
    cuts = _ladder(vals, pad=0.3)
    ok = True
    rungs = 0
    for lam, mu in zip(cuts[1:], cuts[2:]):
        A1 = {d - gf.i_q: r for d, r in
              bc.window_ranks(cuts[0], lam).items() if r}
        B1 = {d - gf.i_q: r for d, r in
              bc.window_ranks(cuts[0], mu).items() if r}
        C1 = {d - gf.i_q: r for d, r in bc.window_ranks(lam, mu).items() if r}
        A2 = gf_cohomology(gf, None, cuts[0], lam, check_regular=False)
        B2 = gf_cohomology(gf, None, cuts[0], mu, check_regular=False)
        C2 = gf_cohomology(gf, None, lam, mu, check_regular=False)
        ok = ok and A1 == A2 and B1 == B2 and C1 == C2
        # with quotient windows the exact triangle runs C -> B -> A -> C[1]
        ok = ok and _les_consistent(C2, B2, A2)
        rungs += 1
    report(7, "window induction bookkeeping closes", ok and rungs >= 10,
           f"{rungs} rungs, both routes equal at every rung")


def _cup_tables_for_triple(f, g, h, lam, mu):
    """(pant tables, cup tables, degree lists) for one triple of functions."""
    h1, h2, h3 = g - f, h - g, h - f
    home1 = SuperlevelHome(h1, lam)
    home2 = SuperlevelHome(h2, mu)
    target = SuperlevelHome(h3, lam + mu)
    B1 = home1.canonical_basis()
    B2 = home2.canonical_basis()
    B3 = target.canonical_basis()
    if not (B1 and B2 and B3):
        raise ValueError("empty bases; move the thresholds")
    pant = []
    for (d1, v1) in B1:
        pant.append(class_coordinates(
            target.complex, [v for _, v in B3],
            [pant_product(home1, v1, home2, v2, target) for (d2, v2) in B2]))
    # product route through the two-axis carriers
    CA1 = _as_cellsheaf(dualize(quantize(graph_genfun(f))))
    CB2 = _as_cellsheaf(quantize(graph_genfun(g)))
    CA2 = _as_cellsheaf(dualize(quantize(graph_genfun(g))))
    CB3 = _as_cellsheaf(quantize(graph_genfun(h)))
    out_home = ProductHome(CA1, CB3, lam + mu)
    alpha = floer_to_product_classes(ProductHome(CA1, CB2, lam), B1)
    beta = floer_to_product_classes(ProductHome(CA2, CB3, mu), B2)
    pushed_B3 = floer_to_product_classes(out_home, B3)
    cup = []
    for a_cls in alpha:
        cup.append(class_table(
            out_home, [cup_product(a_cls, b_cls, out_home) for b_cls in beta],
            pushed_B3))
    return pant, cup, [d for d, _ in B1], [d for d, _ in B2], \
        [d for d, _ in B3]


def test_criterion_8_product_compatibility():
    rng = random.Random(8888)
    triples_done = 0
    failures = []
    attempts = 0
    while triples_done < 5 and attempts < 40:
        attempts += 1
        f = random_circle_morse(rng, n=12)
        g = random_circle_morse(rng, n=12)
        h = random_circle_morse(rng, n=12)
        h1, h2 = g - f, h - g
        lam = float(h1.values.min()) - rng.uniform(0.3, 0.8)
        mu = float(h2.values.min()) - rng.uniform(0.3, 0.8)
        try:
            pant, cup, d1, d2, d3 = _cup_tables_for_triple(f, g, h, lam, mu)
        except (ValueError, AssertionError):
            continue  # thresholds hit the value spectrum; redraw
        triples_done += 1
        if pant != cup:
            failures.append((lam, mu, pant, cup))
    ok = triples_done == 5 and not failures
    # unit action and the ring of the circle through the same pipeline
    zero = circle_function("0*x", n=12)
    F0 = to_cellular(quantize(graph_genfun(zero)), spot_checks=0)
    CA = _as_cellsheaf(dualize(F0))
    CB = _as_cellsheaf(F0)
    lam0 = -0.51
    D = decoupled_superlevel_complex(CA, CB, lam0)
    basis = cohomology_basis(D)
    cls = floer_to_product_classes(ProductHome(CA, CB, lam0), basis)
    by_deg = {c.degree: c for c in cls}
    one, theta = by_deg[0], by_deg[1]
    home2 = ProductHome(CA, CB, 2 * lam0)
    basis2 = floer_to_product_classes(
        home2,
        cohomology_basis(decoupled_superlevel_complex(CA, CB, 2 * lam0)))
    idx = {c.degree: i for i, c in enumerate(basis2)}
    t11, t1t = class_table(home2, [cup_product(one, one, home2),
                                   cup_product(one, theta, home2)], basis2)
    ttt = cup_product(theta, theta, home2)
    ring_ok = (t11[idx[0]] == 1 and t11[idx[1]] == 0 and
               t1t[idx[1]] == 1 and t1t[idx[0]] == 0 and ttt.rep == {})
    # unit acting on a nontrivial class table: the identity matrix
    f = random_circle_morse(rng, n=12)
    g2 = random_circle_morse(rng, n=12)
    h1 = g2 - f
    lam = float(h1.values.min()) - 0.57
    B1 = SuperlevelHome(h1, lam).canonical_basis()
    CA1 = _as_cellsheaf(dualize(quantize(graph_genfun(f))))
    CB2 = _as_cellsheaf(quantize(graph_genfun(g2)))
    CA2 = _as_cellsheaf(dualize(quantize(graph_genfun(g2))))
    alpha = floer_to_product_classes(ProductHome(CA1, CB2, lam), B1)
    ucls = floer_to_product_classes(
        ProductHome(CA2, CB2, -0.53),
        [(0, unit_class(SuperlevelHome(g2 - g2, -0.53)))])[0]
    out_home = ProductHome(CA1, CB2, lam - 0.53)
    pushed = floer_to_product_classes(out_home, B1)
    table = class_table(
        out_home, [cup_product(a_cls, ucls, out_home) for a_cls in alpha],
        pushed)
    unit_ok = True
    for i, coords in enumerate(table):
        expect = [1 if j == i else 0 for j in range(len(pushed))]
        if coords != expect:
            unit_ok = False
    report(8, "product tables: two routes entry-for-entry", ok and ring_ok
           and unit_ok,
           f"{triples_done} random triples; circle ring and unit action hold"
           if ok and ring_ok and unit_ok else f"{len(failures)} mismatches")


def test_criterion_9_cone_estimate_fidelity():
    instances = []
    f = circle_function("0.3*cos(2*pi*x)", n=16)
    curv = 0.3 * (2 * math.pi) ** 2
    instances.append((quantize(graph_genfun(f)), graph_brane(f),
                      f.grid.base[0], curv))
    rng = random.Random(909)
    f2 = random_circle_morse(rng, n=16)
    curv2 = float(np.abs(np.diff(f2.values, 2)).max()) / \
        f2.grid.base[0].spacing ** 2
    instances.append((quantize(graph_genfun(f2)), graph_brane(f2),
                      f2.grid.base[0], curv2))
    for n_base in (16, 32):
        gf = cusp_genfun(n_base=n_base, n_fiber=64)
        instances.append((quantize(gf), brane_of(gf), gf.grid.base[0], 5.0))
    ok = True
    dists = []
    for (F, brane, g, curv) in instances:
        ss = singular_support(F, p_samples=9)
        cone = conify(brane)
        # codirection axis graded in detector-resolution units: the
        # tangency tolerance is 1.5x the sampled front curvature per cell
        scales = (g.spacing, 2 * _tval(F) + 1e-9,
                  1.5 * max(curv, 1.0) * g.spacing, 1.0)
        dist = ss.hausdorff(cone, scales)
        dists.append(round(float(dist), 2))
        ok = ok and dist <= 2.0
    report(9, "cone estimate within two grid cells of the conified front",
           ok, f"distances {dists}")


def _tval(F):
    return F.gf.tau_val()


def test_criterion_10_reduction():
    ok = True
    details = []
    # a point of the circle
    rng = random.Random(1010)
    f = random_circle_morse(rng, n=16)
    F = quantize(graph_genfun(f))
    Z = BaseRegion.from_cells(f.grid, [(4,)])
    vals = sorted({round(float(v), 9) for v in f.cell_max().ravel()})
    windows = [(vals[0] - 0.37, vals[-1] + 0.41)]
    point_val = float(f.values[2])
    gaps = [v for v in vals if v > point_val] + [vals[-1] + 1.0]
    windows.append((point_val - 0.003, point_val + 0.003))
    for (a, b) in windows:
        direct = sections(F, Z, a, b, check_regular=False)
        limit, cert = conormal_limit_ranks(Z, GraphBrane(f), a, b)
        if direct != limit:
            ok = False
        details.append(f"point window [{a:.3f},{b:.3f}): {dict(direct)} == "
                       f"{dict(limit)} at k={cert.stabilized_at}")
    # a sub-circle of the two-torus
    ft = torus_function(
        "0.8*cos(2*pi*x) + 0.6*sin(2*pi*y) + 0.15*cos(2*pi*(x+y))",
        n1=8, n2=8)
    Ft = quantize(graph_genfun(ft))
    mask = np.zeros(ft.grid.base_cell_shape, dtype=bool)
    mask[:, 4] = True  # the sub-circle {y = const}: all cells in one column
    Zt = BaseRegion(ft.grid, mask)
    lo, hi = ft.range()
    for (a, b) in [(lo - 0.43, hi + 0.39), (lo - 0.43, 0.0137),
                   (0.0137, hi + 0.39)]:
        direct = sections(Ft, Zt, a, b, check_regular=False)
        limit, cert = conormal_limit_ranks(Zt, GraphBrane(ft), a, b)
        if direct != limit:
            ok = False
        details.append(f"sub-circle [{a:.2f},{b:.2f}): {dict(direct)} == "
                       f"{dict(limit)} at k={cert.stabilized_at}")
    report(10, "restriction equals the stabilized tubular limit", ok,
           "; ".join(details[:3]) + " ...")
