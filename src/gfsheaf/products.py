"""Convolution calculus on tame sheaves: the sum-pushforward product, its
diagonal tensor, duality, internal hom, unit morphisms, and the threshold-
additive cup product.

Two evaluation strategies coexist and are cross-checked: generating-function
algebra (stacked sums / negation; fast and exact) and the cellular product
carrier (general; exact at desk scale).  Cup products are implemented for
sheaves whose stalks have rank at most one in a single degree, over F2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .complexes import (ChainComplex, apply_d, class_coordinates,
                        cohomology_basis)
from .genfun import GenFun, box_sum, graph_genfun, negate
from .grids import BaseRegion, BoxGrid, SampledFunction
from .linalg import GF2
from .sheaves import (CellSheaf, TAxis, TameSheaf, corner_table,
                      product_section_complex, quantize, sections,
                      to_cellular, unit_sheaf)

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


def _assert_bounded_below(F: TameSheaf):
    from .sheaves import _band_floor
    _band_floor(F)  # raises when no finite support band exists


def convolve(F: TameSheaf, G: TameSheaf, strategy="auto") -> TameSheaf:
    """Sum-pushforward of the external product, on the product base."""
    _assert_bounded_below(F)
    _assert_bounded_below(G)
    if strategy in ("auto", "gf") and F.kind == "gf" and G.kind == "gf":
        return quantize(external_box_sum(F.gf, G.gf))
    if strategy == "gf":
        raise ValueError("gf strategy needs two GF presentations")
    return TameSheaf("prod", factors=(F, G), diagonal=False,
                     label=f"({F.label})*({G.label})")


def tensor(F: TameSheaf, G: TameSheaf, strategy="auto") -> TameSheaf:
    """Diagonal pullback of the convolution; same base grid required."""
    if F.base_grid != G.base_grid:
        raise ValueError("tensor requires a shared base grid")
    _assert_bounded_below(F)
    _assert_bounded_below(G)
    if strategy in ("auto", "gf") and F.kind == "gf" and G.kind == "gf":
        return quantize(box_sum(F.gf, G.gf))
    if strategy == "gf":
        raise ValueError("gf strategy needs two GF presentations")
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
        ind = getattr(cell, "indicator", None)
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
    A, B = F.factors
    dA, dB = dualize(A), dualize(B)
    if F.diagonal:
        return tensor(dA, dB)
    return convolve(dA, dB)


def rhom_tensor(F: TameSheaf, G: TameSheaf, strategy="auto") -> TameSheaf:
    """The hom-from-F-to-G object: (dual of F) tensor G."""
    return tensor(dualize(F), G, strategy=strategy)


# ---------------------------------------------------------------------------
# pushforward to R (barcode over the t-axis)

def pushforward_barcode(F: TameSheaf, thresholds=None):
    """Bars of lambda -> H^*(N x (-oo, lambda), F) over a threshold ladder.

    Returns a list of (degree, birth, death) with death possibly inf,
    assembled from section ranks between consecutive breakpoints.
    """
    from .sheaves import _breaks_of
    breaks = sorted(set(_breaks_of(F)))
    if thresholds is None:
        lo = breaks[0] - 1.0
        hi = breaks[-1] + 1.0
        thresholds = [lo]
        for a, b in zip(breaks, breaks[1:]):
            thresholds.append((a + b) / 2)
        thresholds.append(hi)
    tables = []
    for lam in thresholds:
        tables.append(sections(F, None, -INF, lam, check_regular=False))
    bars = []
    open_bars = {}  # degree -> list of birth values
    for i, lam in enumerate(thresholds):
        cur = tables[i]
        prev = tables[i - 1] if i else {}
        degs = set(cur) | set(prev)
        for d in degs:
            delta = cur.get(d, 0) - prev.get(d, 0)
            if delta > 0:
                birth = breaks[i - 1] if i else -INF
                open_bars.setdefault(d, []).extend([birth] * delta)
            elif delta < 0:
                for _ in range(-delta):
                    births = open_bars.get(d, [])
                    if not births:
                        raise AssertionError(
                            "pushforward table is not an interval module; "
                            "a rank dropped without a matching birth")
                    birth = births.pop()  # youngest-first pairing
                    bars.append((d, birth, breaks[i - 1]))
    for d, births in open_bars.items():
        for b in births:
            bars.append((d, b, INF))
    return sorted(bars)


# ---------------------------------------------------------------------------
# rank-one stalk calculus (corners), unit morphisms, cup product

_corner_table = corner_table


def _require_rank_one(cell: CellSheaf):
    for bc in cell.base.base_cells():
        st = cell.stalk(bc, cell.taxis.breaks[-1] + 0.5)
        if len(st.gens) > 1:
            raise ValueError(
                "unit/cup morphisms are implemented for sheaves with rank-one "
                "stalks (unit-type and graph quantizations)")


def _cellify(F: TameSheaf) -> CellSheaf:
    if F.kind == "cell":
        return F.cell
    if F.kind == "gf":
        return to_cellular(F, spot_checks=0).cell
    raise ValueError("need a GF or cellular presentation")


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

    def u_cocycle(self, complex_: ChainComplex):
        """The corner cocycle representing u in a W-section complex."""
        one = GF2.one()
        vec = {}
        for g in complex_.gens:
            (bc, t1, t2, la, lb) = g
            if complex_.deg[g] != 0:
                continue
            if t1[0] != "v" or t2[0] != "v":
                continue
            b1 = self.CA.taxis.breaks[t1[1]]
            b2 = self.CB.taxis.breaks[t2[1]]
            ca = self.corner_a[bc]
            cb = self.corner_b[bc]
            if ca is not None and cb is not None and b1 >= ca and b2 >= cb:
                vec[g] = one
        return vec

    def v_apply(self, vec, unit_taxis: TAxis, t0=0.0):
        """Evaluation at the fixed top corner; lands in unit sections whose
        t-axis is the given (possibly refined) one."""
        b1s, b2s = self.top_corner
        i0 = next(i for i, b in enumerate(unit_taxis.breaks)
                  if abs(b - t0) < 1e-12)
        out = {}
        for g, c in vec.items():
            (bc, t1, t2, la, lb) = g
            if t1 == ("v", b1s) and t2 == ("v", b2s):
                tgt = (bc, ("v", i0), ("k",))
                out[tgt] = GF2.add(out.get(tgt, 0), c)
        return {k: v for k, v in out.items() if v}


def unit_morphisms(F: TameSheaf) -> UnitMorphisms:
    """u: unit -> (dual F) tensor F and v back, with v o u the identity on
    degree-0 sections over (-oo, lambda) for every lambda > 0 (verified by
    the caller or the test suite on a threshold ladder)."""
    CA = _cellify(dualize(F))
    CB = _cellify(F)
    _require_rank_one(CA)
    _require_rank_one(CB)
    corner_a, _ = _corner_table(CA)
    corner_b, _ = _corner_table(CB)
    W = tensor(TameSheaf("cell", cell=CA, label="dualF"),
               TameSheaf("cell", cell=CB, label="F"), strategy="cell")
    top = (len(CA.taxis.breaks) - 1, len(CB.taxis.breaks) - 1)
    return UnitMorphisms(F, W, CA, CB, corner_a, corner_b, top)


def verify_unit_composition(F: TameSheaf, lambdas, eps=None):
    """Certify Prop-style unit composition data:

    * v o u is the identity on H^0 of the [-eps, oo) window, where the unit
      class lives and the corner evaluation is defined;
    * the composite object (dual F) tensor F has the unit's section ranks
      over (-oo, lam) for every lam in the given positive ladder.
    """
    um = unit_morphisms(F)
    grid = F.base_grid
    U = unit(grid)
    sums = [um.CA.taxis.breaks[i] + um.CB.taxis.breaks[j]
            for i in range(len(um.CA.taxis.breaks))
            for j in range(len(um.CB.taxis.breaks))]
    if eps is None:
        below = [abs(s) for s in sums if abs(s) > 1e-9]
        eps = min(below) / 2 if below else 0.5
    ceil = max(sums) + 1.0
    WC = product_section_complex(um.CA, um.CB, True, None, -eps, ceil)
    z = um.u_cocycle(WC)
    if not z or apply_d(WC, z):
        raise AssertionError("u image is missing or not closed")
    unit_taxis = U.cell.taxis.with_breaks([-eps, ceil])
    UC = U.cell.section_complex(None, -eps, ceil, taxis=unit_taxis)
    img = um.v_apply(z, unit_taxis)
    if apply_d(UC, img):
        raise AssertionError("v o u image is not closed")
    basis = [vec for d, vec in cohomology_basis(UC) if d == 0]
    if len(basis) != 1:
        raise AssertionError("unit degree-0 sections not rank one")
    coords = class_coordinates(UC, basis, img)
    if coords != [GF2.one()]:
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

@dataclass
class CohomologyClass:
    """A class in H^*(N x [lam, oo), W) for W = (dual F_i) tensor F_j in
    product form with rank-one factors; the representative lives in the
    product section complex over the stated window."""

    CA: CellSheaf
    CB: CellSheaf
    lam: float
    degree: int
    rep: dict          # cocycle in the [lam, ceiling) product complex
    complex: ChainComplex

    @staticmethod
    def home_complex(CA, CB, lam):
        ceil = CA.taxis.breaks[-1] + CB.taxis.breaks[-1] + 1.0
        return product_section_complex(CA, CB, True, None, lam, ceil)


def floer_to_product_classes(CA: CellSheaf, CB: CellSheaf, lam,
                             n_level_basis):
    """Push base-level canonical cocycles into the product model.

    n_level_basis: list of (degree, cochain on base cells) from the
    decoupled superlevel complex; each pushed class spreads over the
    vertex-pairs above the per-cell corners.
    """
    corner_a, _ = _corner_table(CA)
    corner_b, _ = _corner_table(CB)
    C = CohomologyClass.home_complex(CA, CB, lam)
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
        out.append(CohomologyClass(CA, CB, lam, deg, push, C))
    return out


def _only(cell: CellSheaf, bc, brk):
    st = cell.stalk(tuple(bc), brk + _half_gap(cell.taxis, brk))
    if len(st.gens) != 1:
        raise ValueError("rank-one stalk expected")
    return st.gens[0][0]


def _half_gap(taxis: TAxis, brk):
    bigger = [b for b in taxis.breaks if b > brk + 1e-12]
    nxt = bigger[0] if bigger else brk + 1.0
    return (nxt - brk) / 2


def decoupled_superlevel_complex(CA: CellSheaf, CB: CellSheaf, lam,
                                 field=GF2):
    """Base-level compression of the [lam, oo) product sections: cochains on
    cells whose corner sum reaches lam."""
    corner_a, _ = _corner_table(CA)
    corner_b, _ = _corner_table(CB)
    base = CA.base
    gens = []
    for bc in base.base_cells():
        ca, cb = corner_a[tuple(bc)], corner_b[tuple(bc)]
        if ca is not None and cb is not None and ca + cb >= lam:
            gens.append(tuple(bc))
    genset = set(gens)
    deg = {g: base.cell_dim(g) for g in gens}
    d = {}
    for g in gens:
        cbnd = {}
        for cf, s in base.cofaces(g):
            if tuple(cf) in genset:
                v = field.coerce(s)
                if v != field.zero():
                    cbnd[tuple(cf)] = v
        if cbnd:
            d[g] = cbnd
    return ChainComplex(gens, deg, d, field, check=False)


def cup_product(alpha: CohomologyClass, beta: CohomologyClass,
                check_closed=True) -> CohomologyClass:
    """The threshold-additive product: contract the middle factors at the
    fixed top corner, restrict to the diagonal by the front/back splitting,
    and view the result above lam + mu."""
    base = alpha.CA.base
    if base != beta.CB.base or alpha.CB.base != beta.CA.base:
        raise ValueError("homes are not composable: base grids differ")
    if check_closed:
        if apply_d(alpha.complex, alpha.rep) or apply_d(beta.complex,
                                                        beta.rep):
            raise ValueError("representatives must be closed")
    b_star = len(alpha.CB.taxis.breaks) - 1
    c_star = len(beta.CA.taxis.breaks) - 1
    lam_out = alpha.lam + beta.lam
    C_out = CohomologyClass.home_complex(alpha.CA, beta.CB, lam_out)
    genset = set(C_out.gens)
    # index alpha by (front cell, Ja) at Jb = top corner; beta likewise
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
        cell = tuple(cell)
        edge_axes = [i for i, c in enumerate(cell) if c & 1]
        for r in range(len(edge_axes) + 1):
            for A in itertools.combinations(edge_axes, r):
                Aset = set(A)
                front, back = [], []
                for i, c in enumerate(cell):
                    gax = base.axes[i]
                    if c & 1 == 0:
                        front.append(c)
                        back.append(c)
                    elif i in Aset:
                        front.append(c)
                        lo, hi = gax.edge_vertices(c >> 1)
                        back.append(2 * hi)
                    else:
                        lo, hi = gax.edge_vertices(c >> 1)
                        front.append(2 * lo)
                        back.append(c)
                fa = alpha_at.get(tuple(front))
                fb = beta_at.get(tuple(back))
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
    return CohomologyClass(alpha.CA, beta.CB, lam_out,
                           alpha.degree + beta.degree, out, C_out)


def class_table(classes, basis_classes):
    """Coordinates of each class in the pushed canonical basis."""
    if not classes:
        return []
    C = classes[0].complex
    basis = [b.rep for b in basis_classes]
    out = []
    for z in classes:
        coords = class_coordinates(C, basis, z.rep)
        if coords is None:
            raise AssertionError("class does not lie in the pushed basis "
                                 "span; presentation mismatch")
        out.append(coords)
    return out
