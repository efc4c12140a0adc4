"""The independent comparison route: filtered complexes of graph branes,
sublevel-inclusion continuation maps, conormal limits by clamp schedules,
the cup product on superlevel classes, and restriction to closed subgrids.

Every quantity here is computed from sublevel/superlevel data of sampled
functions on the base grid only, so it can cross-check the generating-function
and sheaf routes without sharing their code paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexes import (ChainMap, FilteredComplex, apply_d, cohomology_basis,
                        cohomology_ranks)
from .genfun import GenFun, gf_cohomology
from .grids import (BaseRegion, BoxGrid, SampledFunction, critical_vertices,
                    cubical_complex, cup_product_cochain, sublevel_filtration)
from .linalg import GF2

INF = math.inf


@dataclass(frozen=True)
class GraphBrane:
    """Graph of df with primitive f (grading: Morse index, no offset)."""

    f: SampledFunction

    def __post_init__(self):
        if self.f.grid.fiber:
            raise ValueError("graph branes live over the base grid")

    @property
    def grid(self) -> BoxGrid:
        return self.f.grid


@dataclass(frozen=True)
class FloerDatum:
    generator: tuple    # critical vertex of g - f
    action: float       # g(x) - f(x)
    degree: int         # Morse index of g - f
    degenerate: bool


def zero_brane(grid: BoxGrid) -> GraphBrane:
    return GraphBrane(SampledFunction(grid, np.zeros(grid.vertex_shape)))


def floer_data(L0: GraphBrane, L1: GraphBrane):
    """Generators of the pair complex: critical points of f_{L1} - f_{L0}."""
    return [FloerDatum(rec["vertex"], rec["value"], rec["index"],
                       rec["degenerate"])
            for rec in critical_vertices(L1.f - L0.f)]


def floer_complex(L0: GraphBrane, L1: GraphBrane, a=-INF, b=INF,
                  field=GF2) -> FilteredComplex:
    """Windowed filtered complex of the pair (sublevel model of f_{L1}-f_{L0}).

    Degenerate critical data or a window boundary on a critical value is
    rejected; the action convention is second argument minus first.
    """
    if not a < b:
        raise ValueError("window requires a < b")
    h = L1.f - L0.f
    data = floer_data(L0, L1)
    for d in data:
        if d.degenerate:
            raise ValueError(f"degenerate critical cell at {d.generator}")
        for c in (a, b):
            if c not in (-INF, INF) and abs(d.action - c) < 1e-9:
                raise ValueError(f"window boundary {c} hits critical value "
                                 f"{d.action}")
    return sublevel_filtration(h, field).window_filtered(a, b)


def floer_ranks(L0: GraphBrane, L1: GraphBrane, a, b, field=GF2):
    return cohomology_ranks(floer_complex(L0, L1, a, b, field).complex)


def continuation_map(f0: SampledFunction, f1: SampledFunction, L: GraphBrane,
                     a, b, field=GF2) -> ChainMap:
    """Map FC(L, graph f0; a,b) -> FC(L, graph f1; a,b) for f0 <= f1.

    Induced by the inclusion of f1-side sublevel sets into f0-side ones;
    cells whose action slides past b map to zero.  Monotonicity at every
    vertex is required; a strand crossing a or b downward cannot occur for
    monotone data and non-monotone input is rejected outright.
    """
    if not np.all(f1.values >= f0.values - 1e-12):
        raise ValueError("family must be monotone: f0 <= f1 at every vertex")
    h0 = f0 - L.f
    h1 = f1 - L.f
    F0 = sublevel_filtration(h0, field).window_filtered(a, b)
    F1 = sublevel_filtration(h1, field).window_filtered(a, b)
    one = field.one()
    gens1 = set(F1.complex.gens)
    comp = {g: {g: one} for g in F0.complex.gens if g in gens1}
    T = ChainMap(F0.complex, F1.complex, comp)
    T.verify()
    return T


def clamp_schedule(region: BaseRegion, scale, ks=(4, 8, 16, 32, 64)):
    """Decreasing functions equal to 0 over the region, -k*scale outside.
    The inside vertices are the vertex cells of the closed region."""
    base_only = region.grid.base_only()
    inside = region.membership[(slice(None, None, 2),) * len(base_only.base)]
    return [SampledFunction(base_only, np.where(inside, 0.0, -float(k) * scale))
            for k in ks]


@dataclass(frozen=True)
class StabilizationCertificate:
    k_values: tuple
    tables: tuple
    stabilized_at: int


class StabilizationError(RuntimeError):
    def __init__(self, msg, last_tables):
        super().__init__(msg)
        self.last_tables = last_tables


def stabilize(tables, ks):
    """The first of the rank tables, one per rung of the clamp schedule ks,
    that equals the table before it, with its certificate.

    tables is read lazily, so no table after the stabilized one is
    computed.  Raises StabilizationError with the last two tables when no
    two consecutive tables agree."""
    seen = []
    for k, table in zip(ks, tables):
        seen.append(table)
        if len(seen) > 1 and table == seen[-2]:
            cert = StabilizationCertificate(tuple(ks[: len(seen)]),
                                            tuple(map(repr, seen)), k)
            return table, cert
    raise StabilizationError(
        f"clamp schedule did not stabilize by k={ks[-1]}", tuple(seen[-2:]))


def conormal_limit_ranks(region: BaseRegion, L, a, b, field=GF2,
                  ks=(4, 8, 16, 32, 64)):
    """Stabilized conormal-limit ranks along a clamp schedule.

    L is a GraphBrane or a GenFun.  Returns (ranks, certificate); raises
    StabilizationError when the last two tables still differ.
    """
    if isinstance(L, GraphBrane):
        f = L.f

        def table(fk):
            h = L.f - fk  # action of (graph f_k, L) pairs: f_L - f_k
            return sublevel_filtration(h, field).barcode().window_ranks(a, b)
    elif isinstance(L, GenFun):
        f = L.S
        region = BaseRegion(L.base_grid, region.membership)

        def table(fk):
            shifted = GenFun(L.S - fk.lift_to(L.grid), L.Q, tau_q=INF,
                             check_collar=False)
            return gf_cohomology(shifted, None, a, b, field,
                                 check_regular=False)
    else:
        raise TypeError("L must be a GraphBrane or a GenFun")
    lo, hi = f.range()
    span = max(1.0, hi - lo, abs(a) if a != -INF else 0.0,
               abs(b) if b != INF else 0.0)
    return stabilize(map(table, clamp_schedule(region, span, ks)), ks)


# ---------------------------------------------------------------------------
# superlevel class calculus (the cup-product side of the comparison)

class SuperlevelHome:
    """Relative cochain complex C^*(N, {h < lam}): cochains supported on
    cells whose max vertex value is >= lam (an up-set subcomplex)."""

    def __init__(self, h: SampledFunction, lam, field=GF2):
        self.h = h
        self.lam = lam
        self.field = field
        self.complex = cubical_complex(h.grid, h.cell_max() >= lam, field)

    def ranks(self):
        return self.complex.cohomology_ranks()

    def canonical_basis(self):
        """Deterministic cohomology basis: persistence-style representatives
        ordered by (action, dim, cell id)."""
        return cohomology_basis(self.complex, order_key=self._order_key)

    def _order_key(self, g):
        return (float(self.h.cell_max()[g]), self.complex.deg[g], g)


def pant_product(home1: SuperlevelHome, rep1, home2: SuperlevelHome, rep2,
                 target: SuperlevelHome):
    """Cup product of superlevel classes, landing in the target home.

    home1 = (h1, lam), home2 = (h2, mu); the target must be the superlevel
    home of h1 + h2 at lam + mu.  The product cochain must be supported on
    target cells (a genericity condition on the thresholds, asserted).
    """
    if home1.field is not home2.field or home1.field is not target.field:
        raise ValueError("field mismatch")
    if home1.h.grid != home2.h.grid:
        raise ValueError("filtration mismatch: different grids")
    if apply_d(home1.complex, rep1) or apply_d(home2.complex, rep2):
        raise ValueError("representatives must be closed")
    z = cup_product_cochain(home1.h.grid, rep1, rep2)
    tgt = set(target.complex.gens)
    for cell in z:
        if cell not in tgt:
            raise ValueError(
                "product support leaked below the target threshold; "
                "thresholds too close to the value spectrum at this "
                "resolution")
    if apply_d(target.complex, z):
        raise AssertionError("cup product of cocycles is not closed")
    return z


def unit_class(home: SuperlevelHome):
    """The unit: sum of all vertex cells (requires lam below min h)."""
    grid = home.h.grid
    one = home.field.one()
    vec = {}
    for c in home.complex.gens:
        if grid.cell_dim(c) == 0:
            vec[c] = one
    if apply_d(home.complex, vec):
        raise ValueError("unit class undefined: threshold above some value")
    return vec


def restrict_classes(home: SuperlevelHome, reps, Z: BaseRegion):
    """Restriction to a closed subgrid Z: drop components outside Z-cells.

    Returns (restricted home complex, list of restricted class vectors).
    Genericity (always checked): no critical vertex of h on the boundary
    ring of Z.
    """
    zmask = Z.membership
    ring = _boundary_ring(Z)
    for rec in critical_vertices(home.h):
        if ring[tuple(2 * j for j in rec["vertex"])]:
            raise ValueError(
                f"critical vertex {rec['vertex']} sits on the boundary "
                f"ring of Z; restriction not generic")
    keep = [c for c in home.complex.gens if zmask[c]]
    sub = home.complex.restricted(keep)
    out = []
    for rep in reps:
        out.append({c: v for c, v in rep.items() if zmask[c]})
        if apply_d(sub, out[-1]):
            raise AssertionError("restricted representative not closed")
    return sub, out


def _boundary_ring(Z: BaseRegion):
    """Mask over the base cells: the cells of Z with a direct coface outside
    Z (their star leaves Z; the candidate non-generic locus)."""
    cof = Z.grid.base_only().coface_table.cof
    inside = np.append(Z.membership.ravel(), True)  # slot -1 reads inside
    return Z.membership & ~inside[cof].all(axis=1).reshape(Z.membership.shape)


def reduce_to_Z(h: SampledFunction, lam, Z: BaseRegion, field=GF2):
    """Restriction of superlevel classes to a closed subgrid, with the
    tubular-limit cross-check.

    Returns (restricted ranks, tubular-limit ranks, certificate); the two
    tables must agree when the reduction is generic.
    """
    home = SuperlevelHome(h, lam, field)
    basis = home.canonical_basis()
    sub, reps = restrict_classes(home, [v for _, v in basis], Z)
    restricted = cohomology_ranks(sub)
    lo, hi = h.range()
    limit, cert = conormal_limit_ranks(Z, GraphBrane(h), lam, hi + 1.0 + (hi - lo),
                                field)
    return restricted, limit, cert


def duality_bridge_ranks(L0: GraphBrane, L1: GraphBrane, a, b, field=GF2):
    """Window ranks of the pair alongside the reversed-dual window of the
    swapped pair: rank_d FH(L0, L1; a, b) vs rank_{n-d} FH(L1, L0; -b, -a)."""
    n = len(L0.grid.base)
    direct = floer_ranks(L0, L1, a, b, field)
    swapped = floer_ranks(L1, L0, -b, -a, field)
    mirrored = {n - d: r for d, r in swapped.items()}
    return direct, mirrored
