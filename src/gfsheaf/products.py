"""Convolution calculus on tame sheaves: the sum-pushforward product, its
diagonal tensor, duality, internal hom, unit morphisms, and the threshold-
additive cup product.

Two evaluation strategies coexist and are cross-checked: generating-function
algebra (stacked sums / negation; fast and exact) and the cellular product
carrier (general; exact at desk scale).  Cup products are implemented for
sheaves whose stalks have rank at most one in a single degree, over F2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexes import apply_d, class_coordinates, index_ranges
from .genfun import GenFun, box_sum, graph_genfun, negate
from .grids import (BaseRegion, BoxGrid, SampledFunction, cubical_complex,
                    _front_back_faces)
from .linalg import GF2
from .sheaves import (CellSheaf, SectionArrays, TAxis, TameSheaf,
                      _as_cellsheaf, _band_floor, _product_factors, _same_cell,
                      _total_complex, corner_table, quantize, section_barcode,
                      sections, to_cellular, unit_sheaf)

INF = math.inf


# ---------------------------------------------------------------------------
# products

def external_box_sum(g0: GenFun, g1: GenFun) -> GenFun:
    """S0(x, xi0) + S1(y, xi1) on the product base."""
    grid = BoxGrid(g0.grid.base + g1.grid.base, g0.grid.fiber + g1.grid.fiber)
    n0b = len(g0.grid.base)
    n1b = len(g1.grid.base)
    s0 = g0.S.values
    s1 = g1.S.values
    v0 = s0.reshape(s0.shape[:n0b] + (1,) * n1b + s0.shape[n0b:]
                    + (1,) * g1.k)
    v1 = s1.reshape((1,) * n0b + s1.shape[:n1b] + (1,) * g0.k
                    + s1.shape[n1b:])
    vals = np.broadcast_to(v0 + v1, grid.vertex_shape).copy()
    from .genfun import block_quad
    return GenFun(SampledFunction(grid, vals), block_quad(g0.Q, g1.Q),
                  tau_q=g0.tau_q + g1.tau_q, check_collar=False)


# how tensor and convolve build a product: "auto" through the generating
# families when both factors have one, else (and always for "cell") as the
# product carrier of the two factors
STRATEGIES = ("auto", "cell")


def _through_gf(F: TameSheaf, G: TameSheaf, strategy):
    """Whether the product of F and G goes through their generating families.
    A strategy outside STRATEGIES, or a factor with no finite support band,
    is refused."""
    if strategy not in STRATEGIES:
        raise ValueError(
            f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    _band_floor(F)  # raises when no finite support band exists
    _band_floor(G)
    return strategy == "auto" and F.kind == "gf" and G.kind == "gf"


def convolve(F: TameSheaf, G: TameSheaf, strategy="auto") -> TameSheaf:
    """Sum-pushforward of the external product, on the product base."""
    if _through_gf(F, G, strategy):
        return quantize(external_box_sum(F.gf, G.gf))
    return TameSheaf("prod", factors=(F, G), diagonal=False,
                     label=f"({F.label})*({G.label})")


def tensor(F: TameSheaf, G: TameSheaf, strategy="auto") -> TameSheaf:
    """Diagonal pullback of the convolution; same base grid required."""
    if F.base_grid != G.base_grid:
        raise ValueError("tensor requires a shared base grid")
    if _through_gf(F, G, strategy):
        return quantize(box_sum(F.gf, G.gf))
    return TameSheaf("prod", factors=(F, G), diagonal=True,
                     label=f"({F.label})(x)({G.label})")


def unit(grid: BoxGrid) -> TameSheaf:
    """The neutral element: the constant sheaf on N x [0, oo)."""
    return unit_sheaf(grid)


def restricted_unit(grid: BoxGrid, region: BaseRegion, t0=0.0) -> TameSheaf:
    """k on (closed region) x [t0, oo)."""
    return unit_sheaf(grid, region, t0)


# ---------------------------------------------------------------------------
# duality

def dualize(F: TameSheaf) -> TameSheaf:
    """The dual within the translation-invariant class.

    GF presentations are negated (L -> -L at the generating-family level).
    Cellular presentations are supported for the two indicator families the
    construction produces (constant sheaves on region x [t0, oo), and graph
    quantizations), where the dual is the reflected indicator; both families
    are cross-validated against the GF route in the test suite.
    """
    if F.kind == "gf":
        return quantize(negate(F.gf))
    if F.kind == "cell":
        cell = F.cell
        ind = cell.indicator
        if ind is None:
            raise ValueError(
                "cellular dualize is implemented for indicator presentations "
                "(region constants and graph quantizations); rebuild the "
                "sheaf from its generating data")
        kind = ind[0]
        if kind == "region":
            _, mask, t0 = ind
            grid = cell.base
            if mask is None:
                # dual of the full unit is the full unit (reflected level)
                out = unit_sheaf(grid, None, -t0)
            else:
                comp = BaseRegion(grid, ~np.asarray(mask))
                out = unit_sheaf(grid, comp, -t0)
            out.label = f"dual({F.label})"
            return out
        if kind == "graph":
            f = ind[1]
            return to_cellular(quantize(graph_genfun(-f)), spot_checks=0)
        raise ValueError(f"unknown indicator kind {kind!r}")
    if F.kind != "prod":
        raise ValueError(f"a {F.kind} presentation ({F.label}) has no dual")
    A, B = F.factors
    dA, dB = dualize(A), dualize(B)
    if F.diagonal:
        return tensor(dA, dB)
    return convolve(dA, dB)


def rhom_tensor(F: TameSheaf, G: TameSheaf) -> TameSheaf:
    """The hom-from-F-to-G object: (dual of F) tensor G."""
    return tensor(dualize(F), G)


# ---------------------------------------------------------------------------
# pushforward to R (barcode over the t-axis)

def pushforward_barcode(F: TameSheaf):
    """Bars (degree, birth, death) of lambda -> H^*(N x (-oo, lambda), F),
    death possibly inf: the bars of F's section barcode over all of N.

    The windows (-oo, lambda) are subquotients of one filtered section
    complex, so its persistence pairs are the pushforward's bars
    (Kashiwara-Schapira, arXiv:1705.00955); a birth and a death on one
    breakpoint pair as the reduction pairs them.
    """
    return section_barcode(F).bars


# ---------------------------------------------------------------------------
# rank-one stalk calculus (corners), unit morphisms, cup product

def _require_rank_one(cell: CellSheaf):
    for bc in cell.base.base_cells():
        st = cell.stalk(bc, cell.taxis.breaks[-1] + 0.5)
        if len(st.gens) > 1:
            raise ValueError(
                "unit/cup morphisms are implemented for sheaves with rank-one "
                "stalks (unit-type and graph quantizations)")


@dataclass
class UnitMorphisms:
    """The coevaluation u: unit -> W and evaluation v: W -> unit for
    W = (dual F) tensor F, acting on window section complexes."""

    F: TameSheaf
    W: TameSheaf
    CA: CellSheaf
    CB: CellSheaf
    corner_a: dict
    corner_b: dict
    top_corner: tuple  # (b*, c*) global evaluation breaks

    @property
    def collar(self):
        """Resolution collar: the largest per-cell corner sum.  Section-rank
        identities with the unit hold for thresholds beyond it."""
        worst = 0.0
        for bc, ca in self.corner_a.items():
            cb = self.corner_b.get(bc)
            if ca is not None and cb is not None:
                worst = max(worst, ca + cb)
        return worst

    def u_cocycle(self, W: SectionArrays):
        """The corner cocycle representing u in W, the section complex of
        CA (x) CB on the diagonal over all of N: the degree-0 generators
        over vertex pairs (('v', i), ('v', j)) at or above the corners of
        their base cell, as a dict id -> 1."""
        (_, cell), (_, ta), (_, tb), _, _ = W.columns
        ia, ib = self.CA.corners.opens[cell], self.CB.corners.opens[cell]
        keep = ((W.deg == 0) & (ta & 1 == 1) & (tb & 1 == 1) & (ia >= 0)
                & (ib >= 0) & (ta // 2 >= ia) & (tb // 2 >= ib))
        return dict.fromkeys(np.flatnonzero(keep).tolist(), 1)

    def v_apply(self, vec, W: SectionArrays, U: SectionArrays,
                unit_taxis: TAxis):
        """Evaluation at the fixed top corner of vec, an F2 cochain of W
        (as u_cocycle), into U, the unit's section complex over all of N on
        unit_taxis (a refinement of its own axis, which has 0 as a break),
        as a dict id -> 1."""
        b1s, b2s = self.top_corner
        i0 = next(i for i, b in enumerate(unit_taxis.breaks)
                  if abs(b) < 1e-12)
        (_, cell), (_, ta), (_, tb), _, _ = W.columns
        ids = _odd(vec)
        ids = ids[(ta[ids] == 2 * b1s + 1) & (tb[ids] == 2 * b2s + 1)]
        tgt = U.find((cell[ids], np.full_like(ids, 2 * i0 + 1),
                      np.full_like(ids, U.columns[2][0].index(("k",)))))
        if (tgt < 0).any():
            raise AssertionError("an evaluated generator is missing from "
                                 "the unit complex")
        odd = np.bincount(tgt, minlength=len(U.deg)) & 1
        return dict.fromkeys(np.flatnonzero(odd).tolist(), 1)


def unit_morphisms(F: TameSheaf) -> UnitMorphisms:
    """u: unit -> (dual F) tensor F and v back, with v o u the identity on
    degree-0 sections over (-oo, lambda) for every lambda > 0 (verified by
    the caller or the test suite on a threshold ladder)."""
    CA = _as_cellsheaf(dualize(F))
    CB = _as_cellsheaf(F)
    _require_rank_one(CA)
    _require_rank_one(CB)
    corner_a, _ = corner_table(CA)
    corner_b, _ = corner_table(CB)
    W = tensor(TameSheaf("cell", cell=CA, label="dualF"),
               TameSheaf("cell", cell=CB, label="F"), strategy="cell")
    top = (len(CA.taxis.breaks) - 1, len(CB.taxis.breaks) - 1)
    return UnitMorphisms(F, W, CA, CB, corner_a, corner_b, top)


def verify_unit_composition(F: TameSheaf, lambdas):
    """Certify Prop-style unit composition data:

    * v o u is the identity on H^0 of the [-eps, oo) window, where the unit
      class lives and the corner evaluation is defined (eps is half the
      least nonzero |corner sum|, or 1/2 when every sum is zero);
    * the composite object (dual F) tensor F has the unit's section ranks
      over (-oo, lam) for every lam in the given positive ladder.
    """
    um = unit_morphisms(F)
    grid = F.base_grid
    U = unit(grid)
    sums = [um.CA.taxis.breaks[i] + um.CB.taxis.breaks[j]
            for i in range(len(um.CA.taxis.breaks))
            for j in range(len(um.CB.taxis.breaks))]
    below = [abs(s) for s in sums if abs(s) > 1e-9]
    eps = min(below) / 2 if below else 0.5
    ceil = max(sums) + 1.0
    WC = _total_complex(*_product_factors(um.CA, um.CB, True), None, -eps,
                        ceil, um.CA.field)
    z = um.u_cocycle(WC)
    if not z or apply_d(WC, z):
        raise AssertionError("u image is missing or not closed")
    unit_taxis = U.cell.taxis.with_breaks([-eps, ceil])
    UC = _total_complex(U.cell.base, [(U.cell, unit_taxis, _same_cell)],
                        None, -eps, ceil, U.cell.field)
    img = um.v_apply(z, WC, UC, unit_taxis)
    if apply_d(UC, img):
        raise AssertionError("v o u image is not closed")
    if UC.barcode(UC.value, UC.matching).essential_ranks().get(0) != 1:
        raise AssertionError("unit degree-0 sections not rank one")
    # over F2 a closed image that is not exact is the generator of H^0
    if class_coordinates(UC, [], [img]) != [None]:
        raise AssertionError("v o u is not the identity on degree-0 sections")
    for lam in lambdas:
        if not lam > 0:
            raise ValueError("rank ladder needs lambda > 0")
        if lam <= um.collar:
            raise ValueError(
                f"threshold {lam} sits inside the pairing resolution collar "
                f"({um.collar:.4g}); refine the grid or raise the threshold")
        want = sections(U, None, -INF, lam)
        got = sections(um.W, None, -INF, lam)
        if got != want:
            raise AssertionError(
                f"(dual F) tensor F deviates from the unit at {lam}: "
                f"{got} != {want}")
    return True


# ---------------------------------------------------------------------------
# cohomology classes and the cup product

class ProductHome:
    """The home of the classes of (dual F_i) tensor F_j at threshold lam:
    the product section complex of CA (x) CB on the diagonal over the window
    [lam, ceiling), as the index arrays of _total_complex (which checks d^2
    = 0), built once per (CA, CB, lam) and shared by every class, cup
    product and class table landing there.

    A class is a dict generator id -> integer.  The parts of generator i
    are read off the complex's columns: cell[i], its flat base cell (the
    window covers the whole base, so this is also its index among the base
    cells in C order); ta[i] and tb[i], its t-cell on each factor's axis as
    an index into TAxis.cells(), where ('v', k) is 2 k + 1; la[i] and
    lb[i], its label id on each factor, into labels[0] and labels[1].  The
    label ids of a factor are those of its stalk table over all base cells
    (CellSheaf.strata_stalks), the same in every home of the factor and in
    its CellSheaf.corners.
    """

    def __init__(self, CA: CellSheaf, CB: CellSheaf, lam):
        self.CA = CA
        self.CB = CB
        self.lam = lam
        ceil = CA.taxis.breaks[-1] + CB.taxis.breaks[-1] + 1.0
        self.complex = _total_complex(*_product_factors(CA, CB, True), None,
                                      lam, ceil, CA.field)
        (_, self.cell), (_, self.ta), (_, self.tb), (la_of, self.la), \
            (lb_of, self.lb) = self.complex.columns
        self.labels = (la_of, lb_of)


@dataclass
class CohomologyClass:
    """A class in H^*(N x [lam, oo), W) for W = (dual F_i) tensor F_j in
    product form with rank-one factors; the representative is an F2 cocycle
    of its home's product section complex, a dict generator id -> 1."""

    home: ProductHome
    degree: int
    rep: dict


def floer_to_product_classes(home: ProductHome, n_level_basis):
    """Push base-level canonical cocycles into the product model.

    n_level_basis: list of (degree, cochain on base cells) from the
    decoupled superlevel complex; each pushed class spreads over the
    vertex pairs (('v', i), ('v', j)) above the per-cell corners whose sum
    b_i + b_j reaches lam, each with the one label of its rank-one stalks.
    """
    CA, CB, C = home.CA, home.CB, home.complex
    ka, kb = CA.corners, CB.corners
    if (ka.labels, kb.labels) != home.labels:
        raise AssertionError("the home numbers the stalk labels otherwise")
    ba, bb = np.array(CA.taxis.breaks), np.array(CB.taxis.breaks)
    shape = CA.base.base_cell_shape
    one = GF2.one()
    out = []
    for (deg, vec) in n_level_basis:
        cells = np.array([np.ravel_multi_index(tuple(bc), shape)
                          for bc in vec], dtype=np.int64)
        ia, ib = ka.opens[cells], kb.opens[cells]
        # candidate vertex pairs per cell, in (cell, i, j) order
        k, i, j = np.nonzero(
            (np.arange(len(ba))[:, None] >= ia[:, None, None])
            & (np.arange(len(bb)) >= ib[:, None, None])
            & (ba[:, None] + bb >= home.lam))
        c = cells[k]
        sa, sb = ka.size[c, i + 1], kb.size[c, j + 1]
        wide = np.bincount(k[(sa != 1) | (sb != 1)], minlength=len(cells))
        fail = np.flatnonzero((ia < 0) | (ib < 0) | (wide > 0))
        if fail.size:
            if ia[fail[0]] < 0 or ib[fail[0]] < 0:
                raise ValueError("class supported where a stalk never opens")
            raise ValueError("rank-one stalk expected")
        ids = C.find((c, 2 * i + 1, 2 * j + 1, ka.label[c, i + 1],
                      kb.label[c, j + 1]))
        if (ids < 0).any():
            raise AssertionError("a pushed generator is missing from its "
                                 "home")
        push = dict.fromkeys(ids.tolist(), one)
        if apply_d(C, push):
            raise AssertionError("pushed class is not closed; thresholds "
                                 "sit too close to the value spectrum")
        out.append(CohomologyClass(home, deg, push))
    return out


def decoupled_superlevel_complex(CA: CellSheaf, CB: CellSheaf, lam,
                                 field=GF2):
    """Base-level compression of the [lam, oo) product sections: cochains on
    cells whose corner sum reaches lam."""
    corner_a, _ = corner_table(CA)
    corner_b, _ = corner_table(CB)
    keep = np.zeros(CA.base.cell_shape, dtype=bool)
    for bc, ca in corner_a.items():
        cb = corner_b[bc]
        keep[bc] = ca is not None and cb is not None and ca + cb >= lam
    return cubical_complex(CA.base, keep, field)


def cup_product(alpha: CohomologyClass, beta: CohomologyClass,
                home: ProductHome) -> CohomologyClass:
    """The threshold-additive product: contract the middle factors at the
    fixed top corner, restrict to the diagonal by the front/back splitting,
    and view the result above lam + mu in home, which must be the home of
    (alpha's CA, beta's CB, lam + mu)."""
    ha, hb = alpha.home, beta.home
    base = ha.CA.base
    if base != hb.CB.base or ha.CB.base != hb.CA.base:
        raise ValueError("homes are not composable: base grids differ")
    if home.CA is not ha.CA or home.CB is not hb.CB or \
            home.lam != ha.lam + hb.lam:
        raise ValueError("the output home is not the home of "
                         "(alpha's CA, beta's CB, lam + mu)")
    if apply_d(ha.complex, alpha.rep) or apply_d(hb.complex, beta.rep):
        raise ValueError("representatives must be closed")
    # alpha over its front cells at the top corner ('v', b*) of its second
    # axis, beta over its back cells at the top corner ('v', c*) of its first
    a = _odd(alpha.rep)
    a = a[ha.tb[a] == 2 * len(ha.CB.taxis.breaks) - 1]
    b = _odd(beta.rep)
    b = b[hb.ta[b] == 2 * len(hb.CA.taxis.breaks) - 1]
    cell, front, back = _front_back_table(base)
    t, x, y = _meet(ha.cell[a], hb.cell[b], front, back,
                    int(np.prod(base.cell_shape)))
    x, y = a[x], b[y]
    if (ha.labels[0], hb.labels[1]) != home.labels:
        raise AssertionError("the homes number the stalk labels otherwise")
    ids = home.complex.find((cell[t], ha.ta[x], hb.tb[y], ha.la[x],
                             hb.lb[y]))
    odd = np.bincount(ids[ids >= 0], minlength=len(home.complex.deg)) & 1
    out = dict.fromkeys(np.flatnonzero(odd).tolist(), GF2.one())
    if apply_d(home.complex, out):
        raise AssertionError("cup product output is not closed; window "
                             "endpoints sit too close to the value spectrum")
    return CohomologyClass(home, alpha.degree + beta.degree, out)


def _odd(rep):
    """The ids of the entries of rep that are nonzero over F2."""
    return np.array([i for i, c in rep.items() if c & 1], dtype=np.int64)


def _front_back_table(base: BoxGrid):
    """(cell, front, back) flat cell arrays over every cell of base and
    every front/back splitting of it (grids._front_back_faces)."""
    shape = base.cell_shape
    rows = [(cell, front, back) for cell in base.all_cells()
            for front, back in _front_back_faces(base, cell,
                                                 range(len(cell) + 1))]
    return tuple(np.ravel_multi_index(np.array(part, dtype=np.int64).T,
                                      shape)
                 for part in zip(*rows))


def _meet(at_front, at_back, front, back, n_cells):
    """(t, i, j) over every splitting t and every i with at_front[i] ==
    front[t] and j with at_back[j] == back[t], in (t, i, j) order; cells
    are flat ids below n_cells."""
    ia, ib = np.argsort(at_front, kind="stable"), np.argsort(at_back,
                                                            kind="stable")
    na = np.bincount(at_front, minlength=n_cells)
    nb = np.bincount(at_back, minlength=n_cells)
    count = na[front] * nb[back]
    t = np.repeat(np.arange(len(front)), count)
    r = index_ranges(np.zeros_like(count), count)
    first_a, first_b = np.cumsum(na) - na, np.cumsum(nb) - nb
    return (t, ia[first_a[front[t]] + r // nb[back[t]]],
            ib[first_b[back[t]] + r % nb[back[t]]])


def class_table(home: ProductHome, classes, basis_classes):
    """Coordinates of each class in the pushed canonical basis, all classes
    of home, solved against one reduction of its complex."""
    if any(c.home is not home for c in list(classes) + list(basis_classes)):
        raise ValueError("class table mixes classes of different homes")
    if not classes:
        return []
    out = class_coordinates(home.complex, [b.rep for b in basis_classes],
                            [z.rep for z in classes])
    if None in out:
        raise AssertionError("class does not lie in the pushed basis "
                             "span; presentation mismatch")
    return out
