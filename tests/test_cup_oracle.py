"""The cup route on index homes against the tuple route it replaced.

The reference below is the tuple route unchanged: a home holds the tuple
product section complex (product_section_complex), classes are dicts keyed
by tuple generators, pushed classes read one stalk per vertex pair (_only)
and the corner tables, and class tables are solved against the coboundaries
of every degree.  Tables, pushed supports and cup supports must agree with
the index route on the products scenario's triples, the circle ring, the
unit action and associativity.
"""

import random
from dataclasses import dataclass

import pytest

from gfsheaf.complexes import apply_d, class_coordinates, cohomology_basis
from gfsheaf.fixtures import circle_function, random_circle_morse
from gfsheaf.floer import SuperlevelHome, pant_product, unit_class
from gfsheaf.genfun import graph_genfun
from gfsheaf.grids import _front_back_faces
from gfsheaf.linalg import GF2, solve_columns
from gfsheaf.products import (ProductHome, class_table, cup_product,
                              decoupled_superlevel_complex, dualize,
                              floer_to_product_classes)
from gfsheaf.sheaves import (TAxis, _as_cellsheaf, corner_table,
                             product_section_complex, quantize, to_cellular)


# ---------------------------------------------------------------------------
# the tuple route (reference)

def reference_class_coordinates(C, basis_cocycles, zs):
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


class RefHome:
    def __init__(self, CA, CB, lam):
        self.CA = CA
        self.CB = CB
        self.lam = lam
        ceil = CA.taxis.breaks[-1] + CB.taxis.breaks[-1] + 1.0
        self.complex = product_section_complex(CA, CB, True, None, lam, ceil)


@dataclass
class RefClass:
    home: RefHome
    degree: int
    rep: dict


def ref_floer_to_product_classes(home, n_level_basis):
    CA, CB, lam, C = home.CA, home.CB, home.lam, home.complex
    corner_a, _ = corner_table(CA)
    corner_b, _ = corner_table(CB)
    one = GF2.one()
    out = []
    genset = set(C.gens)
    for (deg, vec) in n_level_basis:
        push = {}
        for bc, coeff in vec.items():
            ca, cb = corner_a[tuple(bc)], corner_b[tuple(bc)]
            if ca is None or cb is None:
                raise ValueError("class supported where a stalk never opens")
            for i, b1 in enumerate(CA.taxis.breaks):
                if b1 < ca:
                    continue
                for j, b2 in enumerate(CB.taxis.breaks):
                    if b2 < cb or b1 + b2 < lam:
                        continue
                    g = (tuple(bc), ("v", i), ("v", j), _only(CA, bc, b1),
                         _only(CB, bc, b2))
                    if g in genset:
                        push[g] = one
        if apply_d(C, push):
            raise AssertionError("pushed class is not closed; thresholds "
                                 "sit too close to the value spectrum")
        out.append(RefClass(home, deg, push))
    return out


def _only(cell, bc, brk):
    st = cell.stalk(tuple(bc), brk + _half_gap(cell.taxis, brk))
    if len(st.gens) != 1:
        raise ValueError("rank-one stalk expected")
    return st.gens[0][0]


def _half_gap(taxis: TAxis, brk):
    bigger = [b for b in taxis.breaks if b > brk + 1e-12]
    nxt = bigger[0] if bigger else brk + 1.0
    return (nxt - brk) / 2


def ref_cup_product(alpha, beta, home, check_closed=True):
    ha, hb = alpha.home, beta.home
    base = ha.CA.base
    if base != hb.CB.base or ha.CB.base != hb.CA.base:
        raise ValueError("homes are not composable: base grids differ")
    if home.CA is not ha.CA or home.CB is not hb.CB or \
            home.lam != ha.lam + hb.lam:
        raise ValueError("the output home is not the home of "
                         "(alpha's CA, beta's CB, lam + mu)")
    if check_closed:
        if apply_d(ha.complex, alpha.rep) or apply_d(hb.complex, beta.rep):
            raise ValueError("representatives must be closed")
    b_star = len(ha.CB.taxis.breaks) - 1
    c_star = len(hb.CA.taxis.breaks) - 1
    C_out = home.complex
    genset = set(C_out.gens)
    alpha_at = {}
    for g, c in alpha.rep.items():
        (bc, t1, t2, la, lb) = g
        if t2 == ("v", b_star):
            alpha_at.setdefault(bc, {})[(t1, la)] = c
    beta_at = {}
    for g, c in beta.rep.items():
        (bc, t1, t2, la, lb) = g
        if t1 == ("v", c_star):
            beta_at.setdefault(bc, {})[(t2, lb)] = c
    out = {}
    for cell in base.all_cells():
        for front, back in _front_back_faces(base, cell, range(len(cell) + 1)):
            fa = alpha_at.get(front)
            fb = beta_at.get(back)
            if not fa or not fb:
                continue
            for (t1, la), c1 in fa.items():
                for (t2, lb), c2 in fb.items():
                    g = (cell, t1, t2, la, lb)
                    if g in genset:
                        w = GF2.mul(c1, c2)
                        if w:
                            out[g] = GF2.add(out.get(g, 0), w)
    out = {k: v for k, v in out.items() if v}
    if apply_d(C_out, out):
        raise AssertionError("cup product output is not closed; window "
                             "endpoints sit too close to the value spectrum")
    return RefClass(home, alpha.degree + beta.degree, out)


def ref_class_table(home, classes, basis_classes):
    if any(c.home is not home for c in list(classes) + list(basis_classes)):
        raise ValueError("class table mixes classes of different homes")
    if not classes:
        return []
    out = reference_class_coordinates(
        home.complex, [b.rep for b in basis_classes],
        [z.rep for z in classes])
    if None in out:
        raise AssertionError("class does not lie in the pushed basis "
                             "span; presentation mismatch")
    return out


# ---------------------------------------------------------------------------
# the two routes side by side

INDEX = (ProductHome, floer_to_product_classes, cup_product, class_table,
         class_coordinates)
TUPLE = (RefHome, ref_floer_to_product_classes, ref_cup_product,
         ref_class_table, reference_class_coordinates)


def support(cls):
    """The tuple generators of a class's representative, on either route."""
    if isinstance(cls.home, ProductHome):
        gens = cls.home.complex.generators()
        return {gens[i] for i in cls.rep}
    return set(cls.rep)


def triple_tables(route, f, g, h, lam, mu):
    """(pant table, cup table, supports of the pushed and cup classes) of
    one triple, as the products scenario's cup task computes them."""
    Home, push, cup, table, coordinates = route
    h1, h2, h3 = g - f, h - g, h - f
    home1 = SuperlevelHome(h1, lam)
    home2 = SuperlevelHome(h2, mu)
    target = SuperlevelHome(h3, lam + mu)
    B1 = home1.canonical_basis()
    B2 = home2.canonical_basis()
    B3 = target.canonical_basis()
    CA1 = _as_cellsheaf(dualize(quantize(graph_genfun(f))))
    CB2 = _as_cellsheaf(quantize(graph_genfun(g)))
    CA2 = _as_cellsheaf(dualize(quantize(graph_genfun(g))))
    CB3 = _as_cellsheaf(quantize(graph_genfun(h)))
    out_home = Home(CA1, CB3, lam + mu)
    alpha = push(Home(CA1, CB2, lam), B1)
    beta = push(Home(CA2, CB3, mu), B2)
    pushed = push(out_home, B3)
    entries = [(i, j) for i in range(len(B1)) for j in range(len(B2))]
    pant = coordinates(
        target.complex, [v for _, v in B3],
        [pant_product(home1, B1[i][1], home2, B2[j][1], target)
         for i, j in entries])
    cups = [cup(alpha[i], beta[j], out_home) for i, j in entries]
    return (pant, table(out_home, cups, pushed),
            [support(c) for c in alpha + beta + pushed + cups])


def scenario_triples(seed, triples=2, n=12):
    """The (f, g, h, lam, mu) the products scenario's cup task draws at a
    program seed, when no triple is redrawn."""
    rng = random.Random(seed)
    for _ in range(triples):
        f = random_circle_morse(rng, n=n)
        g = random_circle_morse(rng, n=n)
        h = random_circle_morse(rng, n=n)
        lam = float((g - f).values.min()) - rng.uniform(0.3, 0.8)
        mu = float((h - g).values.min()) - rng.uniform(0.3, 0.8)
        yield f, g, h, lam, mu


@pytest.mark.parametrize("seed", range(1, 13))
def test_scenario_tables_and_supports_match_the_tuple_route(seed):
    for f, g, h, lam, mu in scenario_triples(seed):
        pant, cup, supports = triple_tables(INDEX, f, g, h, lam, mu)
        ref_pant, ref_cup, ref_supports = triple_tables(TUPLE, f, g, h,
                                                        lam, mu)
        assert (pant, cup) == (ref_pant, ref_cup)
        assert pant == cup
        assert supports == ref_supports
        for row in pant + cup:
            assert all(type(c) is int for c in row)


def circle_carriers(n):
    zero = circle_function("0*x", n=n)
    F = to_cellular(quantize(graph_genfun(zero)), spot_checks=0)
    return _as_cellsheaf(dualize(F)), _as_cellsheaf(F)


def ring_case(route, n, lam):
    """The circle ring: 1 * 1, 1 * theta, theta * 1 and theta * theta."""
    Home, push, cup, table, _ = route
    CA, CB = circle_carriers(n)
    cls = push(Home(CA, CB, lam),
               cohomology_basis(decoupled_superlevel_complex(CA, CB, lam)))
    by_deg = {c.degree: c for c in cls}
    one, theta = by_deg[0], by_deg[1]
    home2 = Home(CA, CB, 2 * lam)
    basis2 = push(home2, cohomology_basis(
        decoupled_superlevel_complex(CA, CB, 2 * lam)))
    products = [cup(a, b, home2) for a, b in
                ((one, one), (one, theta), (theta, one))]
    return (table(home2, products, basis2), [c.degree for c in basis2],
            [support(c) for c in cls + basis2 + products],
            support(cup(theta, theta, home2)))


def associativity_case(route, n, lam):
    Home, push, cup, table, _ = route
    CA, CB = circle_carriers(n)
    homes = {k: Home(CA, CB, v)
             for k, v in ((1, lam), (2, lam + lam), (3, lam + (lam + lam)))}

    def classes_at(k):
        return push(homes[k], cohomology_basis(
            decoupled_superlevel_complex(CA, CB, homes[k].lam)))

    def prod(a, b):
        return cup(a, b, homes[2 if a.home is b.home else 3])

    cls = {c.degree: c for c in classes_at(1)}
    one, theta = cls[0], cls[1]
    basis3 = classes_at(3)
    out = []
    for trip in [(one, one, theta), (one, theta, one), (theta, one, one),
                 (one, one, one), (theta, theta, one)]:
        left = prod(prod(trip[0], trip[1]), trip[2])
        right = prod(trip[0], prod(trip[1], trip[2]))
        out.append((table(homes[3], [left], basis3)
                    if left.rep else support(left),
                    table(homes[3], [right], basis3)
                    if right.rep else support(right),
                    support(left), support(right)))
    return out


def unit_case(route, seed):
    """The unit acting on the classes of a random graph pair: the table is
    the identity."""
    Home, push, cup, table, _ = route
    rng = random.Random(seed)
    f = random_circle_morse(rng, n=12)
    g = random_circle_morse(rng, n=12)
    lam = float((g - f).values.min()) - 0.57
    B1 = SuperlevelHome(g - f, lam).canonical_basis()
    CA1 = _as_cellsheaf(dualize(quantize(graph_genfun(f))))
    CB2 = _as_cellsheaf(quantize(graph_genfun(g)))
    CA2 = _as_cellsheaf(dualize(quantize(graph_genfun(g))))
    alpha = push(Home(CA1, CB2, lam), B1)
    unit = push(Home(CA2, CB2, -0.53),
                [(0, unit_class(SuperlevelHome(g - g, -0.53)))])[0]
    out_home = Home(CA1, CB2, lam - 0.53)
    pushed = push(out_home, B1)
    products = [cup(a, unit, out_home) for a in alpha]
    return (table(out_home, products, pushed),
            [support(c) for c in alpha + [unit] + pushed + products])


@pytest.mark.parametrize("n, lam", [(12, -0.51), (16, -0.51)])
def test_circle_ring_matches_the_tuple_route(n, lam):
    got, want = ring_case(INDEX, n, lam), ring_case(TUPLE, n, lam)
    assert got == want
    tables, degrees, _, theta_theta = got
    at = {d: i for i, d in enumerate(degrees)}
    assert [row[at[0]] for row in tables] == [1, 0, 0]
    assert [row[at[1]] for row in tables] == [0, 1, 1]
    assert theta_theta == set()


def test_associativity_matches_the_tuple_route():
    got = associativity_case(INDEX, 12, -0.51)
    assert got == associativity_case(TUPLE, 12, -0.51)
    for left, right, _, _ in got:
        assert left == right


@pytest.mark.parametrize("seed", [8888, 3])
def test_unit_action_matches_the_tuple_route(seed):
    got = unit_case(INDEX, seed)
    assert got == unit_case(TUPLE, seed)
    table = got[0]
    assert table == [[int(i == j) for j in range(len(table))]
                     for i in range(len(table))]


def push_outcome(route, CA, CB, lam, basis):
    """The supports of the classes basis pushes into the home (CA, CB,
    lam) on a route, or the type and message of the error it raises."""
    Home, push = route[:2]
    try:
        return [support(c) for c in push(Home(CA, CB, lam), basis)]
    except (ValueError, AssertionError) as e:
        return type(e).__name__, str(e)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_push_across_the_window_floor_is_a_threshold_refusal(seed):
    # vertex pairs of the support whose sum lies below lam are no generators
    # of the home; the push without them is no cocycle, which both routes
    # refuse as a threshold too close to the value spectrum (a refusal the
    # cup task redraws on)
    f, g, _, lam, _ = next(scenario_triples(seed))
    basis = SuperlevelHome(g - f, lam).canonical_basis()
    CA = _as_cellsheaf(dualize(quantize(graph_genfun(f))))
    CB = _as_cellsheaf(quantize(graph_genfun(g)))
    corner_a, _ = corner_table(CA)
    corner_b, _ = corner_table(CB)
    sums = sorted(corner_a[bc] + corner_b[bc] for bc in corner_a)
    outcomes = []
    for floor in (lam, sums[0] + 1e-3, sums[len(sums) // 2] + 1e-3,
                  sums[-1] + 1e-3):
        got = push_outcome(INDEX, CA, CB, floor, basis)
        assert got == push_outcome(TUPLE, CA, CB, floor, basis), floor
        outcomes.append(got)
    assert isinstance(outcomes[0], list) and all(outcomes[0])
    refused = [o for o in outcomes[1:] if o[0] == "AssertionError"]
    assert refused and all("too close to the value spectrum" in o[1]
                           for o in refused), outcomes
