"""The tuple class calculus that the id calculus replaced, kept unchanged as
an exact reference.

Classes were dicts keyed by the generators of a tuple ChainComplex: apply_d
and class_coordinates had a ChainComplex branch, cohomology_basis took a
ChainComplex, and a superlevel home held cubical_complex, whose generators
are cell tuples, with its pant product through the tuple cup cochain.
dual_complex and the unit class of a home left the library with no caller
there; unit_class here is its id form, and tuple_unit_class the old one.
"""

import numpy as np

from gfsheaf.complexes import ChainComplex, apply_d
from gfsheaf.grids import cubical_complex
from gfsheaf.linalg import (GF2, Reducer, add_scaled, kernel_of_columns,
                            solve_columns)
from tuple_cells import cell_dim


# ---------------------------------------------------------------------------
# the ChainComplex branches of the class calculus

def tuple_apply_d(C, vec):
    """d(vec) for vec a dict generator -> scalar, zeros dropped."""
    out = {}
    for g, c in vec.items():
        add_scaled(out, C.d.get(g, {}), c, C.field)
    return out


def tuple_class_coordinates(C, basis_cocycles, zs):
    """class_coordinates on a ChainComplex: rows in generator order, the
    coboundary columns of the degrees the vectors touch."""
    basis, zs = list(basis_cocycles), list(zs)
    idx, deg = C._index, C.deg
    degrees = {deg[g] for v in basis + zs for g in v}
    cobound = [{idx[h]: v for h, v in C.d[g].items()} for g in C.gens
               if deg[g] + 1 in degrees and g in C.d]
    basis, zs = ([{idx[g]: v for g, v in vec.items()} for vec in vecs]
                 for vecs in (basis, zs))
    sols = solve_columns(basis + cobound, zs, C.field)
    return [None if sol is None else sol[:len(basis)] for sol in sols]


def tuple_cohomology_basis(C, order_key=None):
    """Deterministic representative cocycles spanning H^*(C) of a
    ChainComplex: per degree, kernel of d modulo image of d from below,
    echelon-reduced in the given generator order."""
    F = C.field
    order = sorted(C.gens, key=order_key) if order_key else list(C.gens)
    pos = {g: i for i, g in enumerate(order)}
    by_deg = {}
    for g in order:
        by_deg.setdefault(C.deg[g], []).append(g)
    basis = []
    for k in sorted(by_deg):
        gens_k = by_deg[k]
        cols = [{pos[h]: v for h, v in C.d.get(g, {}).items()}
                for g in gens_k]
        kernel = kernel_of_columns(cols, F)
        # reduce kernel vectors modulo the coboundary image from degree k-1
        red = Reducer(F)
        for g in by_deg.get(k - 1, []):
            red.add({pos[h]: v for h, v in C.d.get(g, {}).items()})
        for combo in kernel:
            vec = {pos[gens_k[j]]: v for j, v in combo.items()}
            if red.add(vec) is not None:
                basis.append((k, {order[i]: v for i, v in vec.items()}))
    return basis


def dual_complex(C):
    """Dual: generator of degree p becomes degree -p; differential
    transposed."""
    gens = [("dual", g) for g in C.gens]
    deg = {("dual", g): -C.deg[g] for g in C.gens}
    d = {}
    for g, cb in C.d.items():
        for h, v in cb.items():
            d.setdefault(("dual", h), {})[("dual", g)] = v
    return ChainComplex(gens, deg, d, C.field, check=False)


# ---------------------------------------------------------------------------
# the tuple superlevel home and its pant product

def tuple_cup_product_cochain(grid, a, b):
    """Cubical cup product of F2 cochains (dicts cell tuple -> 1) on a
    base-only grid, through the splitting table, as a dict in C order of
    its cells."""
    if grid.fiber:
        raise ValueError("cup product lives on base-only grids")
    if not a or not b:
        return {}
    deg_a = {cell_dim(c) for c in a}
    deg_b = {cell_dim(c) for c in b}
    if len(deg_a) != 1 or len(deg_b) != 1:
        raise ValueError("cup product needs homogeneous cochains")
    table = grid.base_only().splitting_table
    shape = grid.cell_shape
    n = int(np.prod(shape))
    in_a, in_b = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    for mask, vec in ((in_a, a), (in_b, b)):
        cells = [c for c, v in vec.items() if v & 1]
        if cells:
            mask[np.ravel_multi_index(tuple(np.array(cells).T), shape)] = True
    hit = table.cell[in_a[table.front] & in_b[table.back]]
    odd = np.bincount(hit, minlength=n) & 1
    return dict.fromkeys(
        [tuple(c) for c in np.argwhere(odd.reshape(shape)).tolist()], 1)


class TupleSuperlevelHome:
    """The superlevel home on cubical_complex: classes keyed by cell
    tuples, the canonical basis ordered by (action, dim, cell tuple)."""

    def __init__(self, h, lam, field=GF2):
        self.h = h
        self.lam = lam
        self.field = field
        self.complex = cubical_complex(h.grid, h.cell_max() >= lam, field)

    def ranks(self):
        return self.complex.cohomology_ranks()

    def canonical_basis(self):
        return tuple_cohomology_basis(self.complex, order_key=self._order_key)

    def _order_key(self, g):
        return (float(self.h.cell_max()[g]), self.complex.deg[g], g)


def tuple_pant_product(home1, rep1, home2, rep2, target):
    """pant_product on tuple homes."""
    if home1.field is not home2.field or home1.field is not target.field:
        raise ValueError("field mismatch")
    if home1.h.grid != home2.h.grid:
        raise ValueError("filtration mismatch: different grids")
    if tuple_apply_d(home1.complex, rep1) or \
            tuple_apply_d(home2.complex, rep2):
        raise ValueError("representatives must be closed")
    z = tuple_cup_product_cochain(home1.h.grid, rep1, rep2)
    tgt = set(target.complex.gens)
    for cell in z:
        if cell not in tgt:
            raise ValueError(
                "product support leaked below the target threshold; "
                "thresholds too close to the value spectrum at this "
                "resolution")
    if tuple_apply_d(target.complex, z):
        raise AssertionError("cup product of cocycles is not closed")
    return z


def tuple_unit_class(home):
    """The unit of a tuple home: the sum of all vertex cells."""
    vec = {c: home.field.one() for c in home.complex.gens
           if cell_dim(c) == 0}
    if tuple_apply_d(home.complex, vec):
        raise ValueError("unit class undefined: threshold above some value")
    return vec


def unit_class(home):
    """The unit of a superlevel home: the sum of all vertex cells, by id
    (requires lam below min h)."""
    vec = dict.fromkeys(np.flatnonzero(home.complex.deg == 0).tolist(), 1)
    if apply_d(home.complex, vec):
        raise ValueError("unit class undefined: threshold above some value")
    return vec


def cell_keyed(home, vec):
    """An id-keyed vector of a superlevel home keyed by cell tuples, as on
    the tuple home of the same (h, lam)."""
    shape = home.h.grid.cell_shape
    return {tuple(int(x) for x in np.unravel_index(home.cells[i], shape)): v
            for i, v in vec.items()}
