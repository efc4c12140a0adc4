"""Base-level checks: conormal limits along clamp schedules (the pair route
of a generating family, a graph being the family graph_genfun(f) with no
fiber variable), superlevel homes with their pant product, and reduce_to_Z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexes import apply_d, cohomology_basis, odd_ids
from .genfun import GenFun, gf_cohomology, graph_genfun
from .grids import (BaseRegion, SampledFunction, ThresholdRefusal,
                    critical_vertices, cubical_index_complex,
                    cup_product_cochain)
from .linalg import GF2

INF = math.inf


def clamp_schedule(region: BaseRegion, scale, ks=(4, 8, 16, 32, 64)):
    """Decreasing functions equal to 0 over the region, -k*scale outside.
    The inside vertices are the vertex cells of the closed region."""
    grid = region.grid
    inside = region.membership[(slice(None, None, 2),) * len(grid.base)]
    return [SampledFunction(grid, np.where(inside, 0.0, -float(k) * scale))
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


def conormal_limit_ranks(region: BaseRegion, L: GenFun, a, b, field=GF2,
                         ks=(4, 8, 16, 32, 64)):
    """Stabilized conormal-limit ranks along a clamp schedule: the pair
    route of L.S minus each clamp, lifted over the fiber.

    Returns (ranks, certificate); raises StabilizationError when the last
    two tables still differ.
    """
    def table(fk):
        shifted = GenFun(L.S - fk.lift_to(L.grid), L.Q, tau_q=INF,
                         check_collar=False)
        return gf_cohomology(shifted, None, a, b, field, check_regular=False)

    lo, hi = L.S.range()
    span = max(1.0, hi - lo, abs(a) if a != -INF else 0.0,
               abs(b) if b != INF else 0.0)
    return stabilize(map(table, clamp_schedule(region, span, ks)), ks)


# ---------------------------------------------------------------------------
# superlevel class calculus (the cup-product side of the comparison)

class SuperlevelHome:
    """Relative cochain complex C^*(N, {h < lam}) on the cells whose max
    vertex value is >= lam (an up-set), as the IndexComplex of
    cubical_index_complex: cells[i] is the flat cell of id i (C order)."""

    def __init__(self, h: SampledFunction, lam, field=GF2):
        self.h = h
        self.lam = lam
        self.field = field
        keep = h.cell_max() >= lam
        self.complex = cubical_index_complex(h.grid, keep, field)
        self.cells = np.flatnonzero(keep)

    def ranks(self):
        return self.complex.cohomology_ranks()

    def canonical_basis(self):
        """Deterministic cohomology basis: persistence-style representatives
        ordered by (action, dim, id); the ids run in C order of the cells."""
        key = list(zip(self.h.cell_max().ravel()[self.cells].tolist(),
                       self.complex.deg.tolist(), range(len(self.cells))))
        return cohomology_basis(self.complex, order_key=key.__getitem__)


def pant_product(home1: SuperlevelHome, rep1, home2: SuperlevelHome, rep2,
                 target: SuperlevelHome):
    """Cup product of superlevel classes, landing in the target home.

    home1 = (h1, lam), home2 = (h2, mu); the target must be the superlevel
    home of h1 + h2 at lam + mu.  The product cochain must be supported on
    target cells (a genericity condition on the thresholds, refused with
    ThresholdRefusal).
    """
    if any(home.field is not GF2 for home in (home1, home2, target)):
        raise ValueError("pant_product needs three homes over F2: the "
                         "cubical cup product is unsigned")
    if home1.h.grid != home2.h.grid:
        raise ValueError("filtration mismatch: different grids")
    if apply_d(home1.complex, rep1) or apply_d(home2.complex, rep2):
        raise ValueError("representatives must be closed")
    z = cup_product_cochain(home1.h.grid, home1.cells[odd_ids(rep1)],
                            home2.cells[odd_ids(rep2)])
    at = np.searchsorted(target.cells, z)
    if (np.append(target.cells, -1)[at] != z).any():
        raise ThresholdRefusal(
            "product support leaked below the target threshold; "
            "thresholds too close to the value spectrum at this "
            "resolution")
    out = dict.fromkeys(at.tolist(), 1)
    if apply_d(target.complex, out):
        raise AssertionError("cup product of cocycles is not closed")
    return out


def restrict_classes(home: SuperlevelHome, reps, Z: BaseRegion):
    """Restriction to a closed subgrid Z: drop components outside Z-cells.

    Returns (restricted complex, list of restricted class vectors): the
    cubical IndexComplex on the home's cells in Z, and each rep on its ids.
    Genericity (always checked): no critical vertex of h on the boundary
    ring of Z.
    """
    ring = _boundary_ring(Z)
    for rec in critical_vertices(home.h):
        if ring[tuple(2 * j for j in rec["vertex"])]:
            raise ValueError(
                f"critical vertex {rec['vertex']} sits on the boundary "
                f"ring of Z; restriction not generic")
    sub = cubical_index_complex(
        home.h.grid, (home.h.cell_max() >= home.lam) & Z.membership,
        home.field)
    inside = Z.membership.ravel()[home.cells]
    new = (np.cumsum(inside) - 1).tolist()
    out = []
    for rep in reps:
        out.append({new[i]: v for i, v in rep.items() if inside[i]})
        if apply_d(sub, out[-1]):
            raise AssertionError("restricted representative not closed")
    return sub, out


def _boundary_ring(Z: BaseRegion):
    """Mask over the base cells: the cells of Z with a direct coface outside
    Z (their star leaves Z; the candidate non-generic locus)."""
    cof = Z.grid.coface_table.cof
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
    restricted = sub.cohomology_ranks()
    lo, hi = h.range()
    limit, cert = conormal_limit_ranks(Z, graph_genfun(h), lam,
                                       hi + 1.0 + (hi - lo), field)
    return restricted, limit, cert
