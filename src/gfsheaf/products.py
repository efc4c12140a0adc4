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

from .complexes import apply_d, class_coordinates, index_ranges, odd_ids
from .genfun import GenFun, box_sum, graph_genfun, negate, stacked_sum
from .grids import BoxGrid, ThresholdRefusal
from .linalg import GF2
from .sheaves import (CellSheaf, ProductSheaf, Quantization, SectionArrays,
                      TameSheaf, _full_axes, _product_factors, _same_cell,
                      _total_complex, quantize, section_barcode, sections,
                      to_cellular, unit_sheaf)

INF = math.inf


# ---------------------------------------------------------------------------
# products

def external_box_sum(g0: GenFun, g1: GenFun) -> GenFun:
    """S0(x, xi0) + S1(y, xi1) on the product base."""
    return stacked_sum(g0, g1, 1.0, shared_base=False)


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
    F.band_floor()  # raises when no finite support band exists
    G.band_floor()
    return strategy == "auto" and isinstance(F, Quantization) and \
        isinstance(G, Quantization)


def convolve(F: TameSheaf, G: TameSheaf, strategy="auto") -> TameSheaf:
    """Sum-pushforward of the external product, on the product base."""
    if _through_gf(F, G, strategy):
        return quantize(external_box_sum(F.gf, G.gf))
    return ProductSheaf(F, G, False)


def tensor(F: TameSheaf, G: TameSheaf, strategy="auto") -> TameSheaf:
    """Diagonal pullback of the convolution; same base grid required."""
    if F.base_grid != G.base_grid:
        raise ValueError("tensor requires a shared base grid")
    if _through_gf(F, G, strategy):
        return quantize(box_sum(F.gf, G.gf))
    return ProductSheaf(F, G, True)


def unit(grid: BoxGrid) -> TameSheaf:
    """The neutral element: the constant sheaf on N x [0, oo)."""
    return unit_sheaf(grid)


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
    if isinstance(F, Quantization):
        return quantize(negate(F.gf))
    if isinstance(F, CellSheaf):
        ind = F.indicator
        if ind is None:
            raise ValueError(
                "cellular dualize is implemented for indicator presentations "
                "(region constants and graph quantizations); rebuild the "
                "sheaf from its generating data")
        kind = ind[0]
        if kind == "region":
            _, region, t0 = ind
            # the dual of the full unit is the full unit (reflected level)
            comp = None if region is None else region.complement_closure()
            out = unit_sheaf(F.base, comp, -t0)
            out.label = f"dual({F.label})"
            return out
        if kind == "graph":
            f = ind[1]
            return to_cellular(quantize(graph_genfun(-f)), spot_checks=0)
        raise ValueError(f"unknown indicator kind {kind!r}")
    if not isinstance(F, ProductSheaf):
        raise ValueError(f"{F!r} has no dual")
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

@dataclass
class UnitMorphisms:
    """The coevaluation u: unit -> W and evaluation v: W -> unit for
    W = (dual F) tensor F, acting on window section complexes."""

    W: TameSheaf
    CA: CellSheaf
    CB: CellSheaf
    top_corner: tuple  # (b*, c*) global evaluation breaks

    @property
    def collar(self):
        """Resolution collar: the largest per-cell corner sum, and 0 when
        none is positive.  Section-rank identities with the unit hold for
        thresholds beyond it."""
        ia, ib = self.CA.corners.opens, self.CB.corners.opens
        both = (ia >= 0) & (ib >= 0)
        sums = (np.array(self.CA.taxis.breaks)[ia[both]]
                + np.array(self.CB.taxis.breaks)[ib[both]])
        return max([0.0] + sums.tolist())

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

    def v_apply(self, vec, W: SectionArrays, U: SectionArrays):
        """Evaluation at the fixed top corner of vec, an F2 cochain of W
        (as u_cocycle), into U, the unit's section complex over all of N on
        its own t-axis, landing over its one break ('v', 0), as a dict
        id -> 1."""
        b1s, b2s = self.top_corner
        (_, cell), (_, ta), (_, tb), _, _ = W.columns
        ids = odd_ids(vec)
        ids = ids[(ta[ids] == 2 * b1s + 1) & (tb[ids] == 2 * b2s + 1)]
        tgt = U.find((cell[ids], np.ones_like(ids),
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
    CA = dualize(F).cellular
    CB = F.cellular
    CA.corners, CB.corners      # refuse stalks that are not rank one
    W = tensor(CA, CB, strategy="cell")
    top = (len(CA.taxis.breaks) - 1, len(CB.taxis.breaks) - 1)
    return UnitMorphisms(W, CA, CB, top)


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
    WC = ProductHome(um.CA, um.CB, -eps).complex
    z = um.u_cocycle(WC)
    if not z or apply_d(WC, z):
        raise AssertionError("u image is missing or not closed")
    UC = _total_complex(U.base, _full_axes([(U, _same_cell)]), None, -eps,
                        max(sums) + 1.0, U.field)
    img = um.v_apply(z, WC, UC)
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
    [lam, ceiling), on the full axes of both, as the index arrays of
    _total_complex (which checks d^2 = 0), built once per (CA, CB, lam) and
    shared by every class, cup product and class table landing there.

    A class is a dict generator id -> integer.  The parts of generator i
    are read off the complex's columns: cell[i], its flat base cell (the
    window covers the whole base, so this is also its index among the base
    cells in C order); ta[i] and tb[i], its t-cell on each factor's axis as
    an index into TAxis.cells(), where ('v', k) is 2 k + 1; la[i] and
    lb[i], its label id on each factor, into labels[0] and labels[1].  The
    label ids of a factor are those of its stalk record (CellSheaf.strata),
    the same in every home of the factor and in its CellSheaf.corners.
    """

    def __init__(self, CA: CellSheaf, CB: CellSheaf, lam):
        self.CA = CA
        self.CB = CB
        self.lam = lam
        ceil = CA.taxis.breaks[-1] + CB.taxis.breaks[-1] + 1.0
        base, pairs = _product_factors(CA, CB, True)
        self.complex = _total_complex(base, _full_axes(pairs), None, lam,
                                      ceil, CA.field)
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


def floer_to_product_classes(home: ProductHome, floer_home, basis):
    """Push base-level canonical cocycles into the product model.

    basis: list of (degree, cocycle) on the ids of floer_home (the cup task
    takes the canonical basis of a floer.SuperlevelHome), whose flat base
    cells are floer_home.cells; each pushed class spreads over the vertex
    pairs (('v', i), ('v', j)) above the per-cell corners whose sum b_i +
    b_j reaches lam, each with the one label of its rank-one stalks.
    """
    CA, CB, C = home.CA, home.CB, home.complex
    ka, kb = CA.corners, CB.corners
    if (ka.labels, kb.labels) != home.labels:
        raise AssertionError("the home numbers the stalk labels otherwise")
    ba, bb = np.array(CA.taxis.breaks), np.array(CB.taxis.breaks)
    one = GF2.one()
    out = []
    for (deg, vec) in basis:
        cells = floer_home.cells[np.fromiter(vec, np.int64, len(vec))]
        ia, ib = ka.opens[cells], kb.opens[cells]
        if ((ia < 0) | (ib < 0)).any():
            raise ThresholdRefusal("class supported where a stalk never "
                                   "opens")
        # candidate vertex pairs per cell, in (cell, i, j) order
        k, i, j = np.nonzero(
            (np.arange(len(ba))[:, None] >= ia[:, None, None])
            & (np.arange(len(bb)) >= ib[:, None, None])
            & (ba[:, None] + bb >= home.lam))
        c = cells[k]
        ids = C.find((c, 2 * i + 1, 2 * j + 1, ka.label[c], kb.label[c]))
        if (ids < 0).any():
            raise AssertionError("a pushed generator is missing from its "
                                 "home")
        push = dict.fromkeys(ids.tolist(), one)
        if apply_d(C, push):
            raise ThresholdRefusal("pushed class is not closed; thresholds "
                                   "sit too close to the value spectrum")
        out.append(CohomologyClass(home, deg, push))
    return out


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
    a = odd_ids(alpha.rep)
    a = a[ha.tb[a] == 2 * len(ha.CB.taxis.breaks) - 1]
    b = odd_ids(beta.rep)
    b = b[hb.ta[b] == 2 * len(hb.CA.taxis.breaks) - 1]
    cell, front, back = base.base_only().splitting_table
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
        raise ThresholdRefusal("cup product output is not closed; window "
                               "endpoints sit too close to the value "
                               "spectrum")
    return CohomologyClass(home, alpha.degree + beta.degree, out)


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
