"""Rectification of homotopy-coherent diagrams over a function poset.

A coherent diagram assigns a filtered complex V(f) to each function and a
degree-(2 - L) map to each weakly increasing chain of length L, subject to
the face/composition identity (checked exactly).  The rectified complex is
spanned by chain-tensor generators with the twisting differential D; its
windowed cohomology recovers the windowed cohomology of any single V(f)
through the inclusion x -> (f <= f) (x) x, which is a quasi-isomorphism.
"""

from __future__ import annotations

import itertools
import math
import random as _random

import numpy as np

from .complexes import (ChainComplex, ChainMap, FilteredComplex,
                        cohomology_basis, cohomology_ranks)
from .grids import SampledFunction
from .linalg import GF2, solve_columns

INF = math.inf


class FunPoset:
    """Finitely many sampled functions ordered pointwise at the vertices."""

    def __init__(self, functions):
        self.functions = list(functions)
        n = len(self.functions)
        self._leq = np.zeros((n, n), dtype=bool)
        for i, f in enumerate(self.functions):
            for j, g in enumerate(self.functions):
                self._leq[i, j] = bool(np.all(f.values <= g.values + 1e-12))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self._leq[i, j] and self._leq[j, k]:
                        assert self._leq[i, k], "order not transitive"

    def __len__(self):
        return len(self.functions)

    def leq(self, i, j):
        return bool(self._leq[i, j])

    def chains_from(self, i, max_extra=None):
        """Strict chains (i < j1 < j2 < ...) in the poset order."""
        n = len(self.functions)

        def strictly_less(a, b):
            return a != b and self.leq(a, b) and not self.leq(b, a)

        out = [(i,)]
        frontier = [(i,)]
        while frontier:
            new = []
            for ch in frontier:
                if max_extra is not None and len(ch) - 1 >= max_extra:
                    continue
                for j in range(n):
                    if strictly_less(ch[-1], j):
                        new.append(ch + (j,))
            frontier = [c for c in new if c not in out]
            out.extend(frontier)
        return out


class CoherentDiagram:
    """V-valued diagram with chain maps and higher homotopies.

    maps: dict chain-tuple (length >= 2, strictly increasing) -> sparse map
    {gen -> {gen: coeff}} from V(last) to V(first), of degree 2 - length.
    Degenerate chunks are evaluated by convention: an (f <= f) pair acts as
    the differential, a triple (f <= f <= f) as the identity, and longer
    constant chains as zero.
    """

    def __init__(self, poset: FunPoset, complexes, maps, field=GF2):
        self.poset = poset
        self.V = list(complexes)  # FilteredComplex per poset index
        self.maps = {tuple(k): {g: dict(c) for g, c in m.items()}
                     for k, m in maps.items()}
        self.field = field

    def chunk_map(self, chain):
        """The stored or conventional map of a chain (V(last) -> V(first)).

        Constant chains act by the differential (length 2), the identity
        (length 3), or zero; mixed chains with repeated vertices act by
        their stored value, zero when absent (the strict extension over
        the degenerate part of the nerve).
        """
        chain = tuple(chain)
        if len(set(chain)) == 1:
            if len(chain) == 2:
                return dict(self.V[chain[0]].complex.d)  # the differential
            if len(chain) == 3:
                one = self.field.one()
                return {g: {g: one} for g in self.V[chain[0]].complex.gens}
            return {}
        return self.maps.get(chain, {})

    def compose(self, m2, m1):
        """m2 after m1 (sparse map composition)."""
        F = self.field
        out = {}
        for g, c1 in m1.items():
            acc = {}
            for h, v in c1.items():
                for k, w in m2.get(h, {}).items():
                    acc[k] = F.add(acc.get(k, F.zero()), F.mul(v, w))
            acc = {k: v for k, v in acc.items() if v != F.zero()}
            if acc:
                out[g] = acc
        return out

    def add_maps(self, *maps):
        F = self.field
        out = {}
        for m in maps:
            for g, c in m.items():
                for h, v in c.items():
                    cur = out.setdefault(g, {})
                    w = F.add(cur.get(h, F.zero()), v)
                    if w == F.zero():
                        cur.pop(h, None)
                    else:
                        cur[h] = w
        return {g: c for g, c in out.items() if c}


def coherence_residual(diagram: CoherentDiagram, chain):
    """Residual of the face/composition identity at one stored chain.

    sum_j (prefix_j)_* o (suffix_j)_* over all cut points (with the two
    degenerate end cuts acting by the differential) minus the inner-face sum.
    Over F2 the signs are immaterial; the residual must vanish exactly.
    """
    chain = tuple(chain)
    L = len(chain)
    k = L - 2
    F = diagram.field
    terms = []
    # j = 0: sigma_* o d  (suffix = degenerate pair at the last vertex)
    terms.append(diagram.compose(diagram.chunk_map(chain),
                                 diagram.V[chain[-1]].complex.d))
    # inner cuts j = 1..k: prefix (v0..v_{k+1-j}) after suffix chunk
    for j in range(1, k + 1):
        cut = L - 1 - j
        prefix = chain[: cut + 1]
        suffix = chain[cut:]
        terms.append(diagram.compose(diagram.chunk_map(prefix),
                                     diagram.chunk_map(suffix)))
    # j = k+1: d o sigma_*
    terms.append(diagram.compose(diagram.V[chain[0]].complex.d,
                                 diagram.chunk_map(chain)))
    # inner faces
    for l in range(1, L - 1):
        face = chain[:l] + chain[l + 1:]
        terms.append(diagram.chunk_map(face))
    return diagram.add_maps(*terms)


def check_coherence(diagram: CoherentDiagram, max_len=None):
    """Per-chain residual report; passes iff every residual vanishes and
    every stored map respects the action filtration."""
    report = {}
    ok = True
    for chain in sorted(diagram.maps):
        if max_len is not None and len(chain) > max_len:
            continue
        res = coherence_residual(diagram, chain)
        size = sum(len(c) for c in res.values())
        report[chain] = size
        if size:
            ok = False
        src = diagram.V[chain[-1]]
        tgt = diagram.V[chain[0]]
        for g, c in diagram.chunk_map(chain).items():
            for h in c:
                if tgt.action[h] < src.action[g] - 1e-12:
                    report[chain] = f"filtration violated at {g!r}->{h!r}"
                    ok = False
    return ok, report


# ---------------------------------------------------------------------------
# the rectified complex

def rectified_basis(diagram: CoherentDiagram, i, max_extra=None, repeats=2):
    """Chains starting at i with the closing degeneracies.

    Basis chains are (i^a, strict tail) with 1 <= a <= repeats and total
    length >= 2, including the constant pair (i, i).  The first-slot
    degeneracies close the contraction that identifies every class with one
    of the form (i <= i) (x) x; a repeat depth of two suffices exactly (the
    telescope of deeper degeneracies cancels pairwise).
    """
    tails = [c[1:] for c in diagram.poset.chains_from(i, max_extra)]
    chains = set()
    for tail in tails:
        for a in range(1, repeats + 1):
            ch = (i,) * a + tail
            if len(ch) >= 2:
                chains.add(ch)
    chains.add((i, i))
    return sorted(chains, key=lambda c: (len(c), c))


def differential_D(diagram: CoherentDiagram, chain, x):
    """D(sigma (x) x) for a basis chain and a generator x of V(last).

    Returns a dict (chain, gen) -> coeff: the inner-face terms, the internal
    differential term, and the prefix-tensor-suffix-action terms.
    """
    F = diagram.field
    chain = tuple(chain)
    L = len(chain)
    k = L - 2
    out = {}

    def acc(key, val):
        w = F.add(out.get(key, F.zero()), val)
        if w == F.zero():
            out.pop(key, None)
        else:
            out[key] = w

    # inner faces (vanish for pairs)
    for l in range(1, L - 1):
        face = chain[:l] + chain[l + 1:]
        acc((face, x), F.one())
    # internal differential
    for h, v in diagram.V[chain[-1]].complex.d.get(x, {}).items():
        acc((chain, h), v)
    # suffix actions
    for j in range(1, k + 1):
        cut = L - 1 - j
        prefix = chain[: cut + 1]
        suffix = chain[cut:]
        m = diagram.chunk_map(suffix)
        for h, v in m.get(x, {}).items():
            acc((prefix, h), v)
    return out


class RectifiedComplex:
    """The windowed twisting complex at (start function, action < lam)."""

    def __init__(self, diagram: CoherentDiagram, i, lam=INF, max_extra=None):
        self.diagram = diagram
        self.start = i
        self.lam = lam
        chains = rectified_basis(diagram, i, max_extra)
        gens, deg, action = [], {}, {}
        for ch in chains:
            V = diagram.V[ch[-1]]
            for g in V.complex.gens:
                a = V.action[g]
                if a < lam:
                    key = (ch, g)
                    gens.append(key)
                    deg[key] = V.complex.deg[g] - (len(ch) - 2)
                    action[key] = a
        genset = set(gens)
        d = {}
        for (ch, g) in gens:
            cb = {}
            for key, v in differential_D(diagram, ch, g).items():
                if key in genset:
                    cb[key] = v
            if cb:
                d[(ch, g)] = cb
        self.complex = ChainComplex(gens, deg, d, diagram.field, check=False)
        self.complex.assert_d_squared_zero()
        self.filtered = FilteredComplex(self.complex, action, check=True)

    def inclusion(self) -> ChainMap:
        """x -> (i <= i) (x) x from the windowed V(start)."""
        V = self.diagram.V[self.start]
        keep = [g for g in V.complex.gens if V.action[g] < self.lam]
        sub = V.complex.restricted(keep)
        one = self.diagram.field.one()
        comp = {g: {(((self.start, self.start)), g): one} for g in keep}
        return ChainMap(sub, self.complex, comp)

    def cohomology_ranks(self):
        return self.complex.cohomology_ranks()


def rectify_at(diagram: CoherentDiagram, i, lam=INF, max_extra=None):
    R = RectifiedComplex(diagram, i, lam, max_extra)
    inc = R.inclusion()
    inc.verify()
    return R, inc


def restriction_map(diagram: CoherentDiagram, R_f: RectifiedComplex,
                    R_g: RectifiedComplex) -> ChainMap:
    """rho_{f,g} for g <= f: replace the first vertex of every chain."""
    f, g = R_f.start, R_g.start
    if not diagram.poset.leq(g, f):
        raise ValueError("restriction needs g <= f")
    one = diagram.field.one()
    comp = {}
    tgt = set(R_g.complex.gens)
    for (ch, x) in R_f.complex.gens:
        if len(ch) == 2 and ch[0] == ch[1]:
            new = (g, f) if g != f else (g, g)
        else:
            new = (g,) + ch[1:]
        key = (new, x)
        if key in tgt:
            comp[(ch, x)] = {key: one}
    T = ChainMap(R_f.complex, R_g.complex, comp)
    T.verify()
    return T


# ---------------------------------------------------------------------------
# the chain-level vanishing pattern of the index complex

def index_complex_homology(m):
    """Homology of the weakly-increasing index tuples on {0..m-1} under the
    inner-face differential, and under its twist by last-vertex truncation
    with a strict rank-one coefficient system.

    Returns {'delta_ranks': {k: rank}, 'twisted_ranks': {k: rank},
    'delta_squared_zero': True} computed exactly over F2; the inner-face
    homology vanishes in every degree while the twisted homology is one-
    dimensional in degree 0.
    """
    if m < 2:
        raise ValueError("need at least two indices")
    max_len = m + 3
    tuples = {}
    for L in range(2, max_len + 1):
        tuples[L] = [(0,) + t for t in
                     itertools.combinations_with_replacement(range(m), L - 1)]
    idx = {L: {t: i for i, t in enumerate(tuples[L])} for L in tuples}

    def delta_cols(L):
        """delta: length L -> length L-1 (drop one inner vertex, F2)."""
        cols = []
        for t in tuples[L]:
            col = {}
            for l in range(1, L - 1):
                face = t[:l] + t[l + 1:]
                j = idx[L - 1][face]
                col[j] = col.get(j, 0) ^ 1
            cols.append({k: v for k, v in col.items() if v})
        return cols

    def twisted_cols(L):
        cols = []
        for t in tuples[L]:
            col = {}
            for l in range(1, L - 1):
                face = t[:l] + t[l + 1:]
                j = idx[L - 1][face]
                col[j] = col.get(j, 0) ^ 1
            trunc = t[:-1]
            if len(trunc) >= 2:
                j = idx[L - 1][trunc]
                col[j] = col.get(j, 0) ^ 1
            cols.append({k: v for k, v in col.items() if v})
        return cols

    from .linalg import rank_of_columns
    out_delta, out_twisted = {}, {}
    ranks_d = {L: rank_of_columns(delta_cols(L)) for L in range(3, max_len + 1)}
    ranks_t = {L: rank_of_columns(twisted_cols(L))
               for L in range(3, max_len + 1)}
    # check delta^2 = 0 en route
    for L in range(4, max_len + 1):
        colsL = delta_cols(L)
        colsL1 = delta_cols(L - 1)
        for c in colsL:
            acc = {}
            for j, v in c.items():
                for kk, w in colsL1[j].items():
                    acc[kk] = acc.get(kk, 0) ^ (v & w)
            assert not any(acc.values()), "delta^2 != 0"
    for k in range(0, m + 1):
        L = k + 2
        dim = len(tuples[L])
        rk_out = ranks_d.get(L + 1, 0) if L + 1 <= max_len else None
        rk_in = ranks_d.get(L, 0) if L >= 3 else 0
        if rk_out is None:
            continue  # boundary of the truncation: skip unstable degree
        out_delta[k] = dim - rk_in - rk_out
        rk_out_t = ranks_t.get(L + 1, 0)
        rk_in_t = ranks_t.get(L, 0) if L >= 3 else 0
        out_twisted[k] = dim - rk_in_t - rk_out_t
    return {"delta_ranks": out_delta, "twisted_ranks": out_twisted,
            "delta_squared_zero": True}


# ---------------------------------------------------------------------------
# generators and perturbation

def strict_geometric_diagram(functions, target: SampledFunction,
                             field=GF2, cells=None) -> CoherentDiagram:
    """The sublevel diagram of a fixed target over a poset of comparison
    functions: V(f) is the grid cochain complex with action target - f and
    the chain maps are the identity on cells (strict composition).

    With cells given, every V(f) is restricted to that cell subset (an
    open-star germ model); the subset must be closed under cofaces.
    """
    from .grids import sublevel_filtration
    poset = FunPoset(functions)
    complexes = []
    for f in functions:
        FC = sublevel_filtration(target - f, field)
        if cells is not None:
            keep = [c for c in FC.complex.gens if c in cells]
            sub = FC.complex.restricted(keep)
            FC = FilteredComplex(sub, {c: FC.action[c] for c in keep},
                                 check=False)
        complexes.append(FC)
    maps = {}
    one = field.one()
    n = len(functions)
    for i in range(n):
        for j in range(n):
            if i != j and poset.leq(i, j):
                gens = complexes[j].complex.gens
                maps[(i, j)] = {g: {g: one} for g in gens}
    return CoherentDiagram(poset, complexes, maps, field)


def strict_synthetic_diagram(rng, n_functions=3, max_gens=10,
                             field=GF2) -> CoherentDiagram:
    """A strict chain-poset diagram on windowed versions of one random
    filtered complex, with projection continuation maps."""
    from .grids import BoxGrid, circle_grid
    base = BoxGrid((circle_grid(4),))
    offsets = sorted(rng.uniform(0, 1.5) for _ in range(n_functions))
    functions = [SampledFunction(base, np.full(base.vertex_shape, -c))
                 for c in offsets]
    gens = []
    deg, action, d = {}, {}, {}
    n_pairs = rng.randint(1, max_gens // 2 - 1)
    for i in range(n_pairs):
        k = rng.randint(-1, 2)
        a = round(rng.uniform(0, 2), 2)
        b = a + round(rng.uniform(0.05, 1.5), 2)
        gens += [("p", i, 0), ("p", i, 1)]
        deg[("p", i, 0)] = k
        deg[("p", i, 1)] = k + 1
        action[("p", i, 0)] = a
        action[("p", i, 1)] = b
        d[("p", i, 0)] = {("p", i, 1): 1}
    for i in range(rng.randint(1, max_gens - 2 * n_pairs)):
        gens.append(("e", i))
        deg[("e", i)] = rng.randint(-1, 2)
        action[("e", i)] = round(rng.uniform(0, 2), 2)
    C = ChainComplex(gens, deg, d, field)
    poset = FunPoset(functions)
    complexes = []
    one = field.one()
    for c in offsets:
        complexes.append(FilteredComplex(
            C, {g: action[g] + c for g in gens}, check=False))
    maps = {}
    for i in range(n_functions):
        for j in range(n_functions):
            if i != j and poset.leq(i, j):
                maps[(i, j)] = {g: {g: one} for g in gens}
    return CoherentDiagram(poset, complexes, maps, field)


def random_filtered_homotopy(rng, V_src: FilteredComplex,
                             V_tgt: FilteredComplex, density=0.3, field=GF2):
    """A degree -1 action-non-decreasing sparse map V_src -> V_tgt."""
    H = {}
    for g in V_src.complex.gens:
        for h in V_tgt.complex.gens:
            if V_tgt.complex.deg[h] == V_src.complex.deg[g] - 1 and \
                    V_tgt.action[h] >= V_src.action[g] and \
                    rng.random() < density:
                H.setdefault(g, {})[h] = field.one()
    return H


def perturb_coherent(diagram: CoherentDiagram, seed=0, density=0.25,
                     attempts=8) -> CoherentDiagram:
    """Gauge-transform a strict diagram by random filtered homotopies.

    Pair maps move within their chain-homotopy class; the induced triple
    homotopies have a closed form, and longer corrections are solved
    linearly in the filtered-map space (resampling the homotopies when a
    draw is obstructed there).  The output passes the coherence check by
    construction (asserted) and has unchanged rectified cohomology.
    """
    last = None
    for k in range(attempts):
        try:
            return _perturb_once(diagram, seed + 1000 * k, density)
        except RuntimeError as e:
            last = e
    raise RuntimeError(f"no filtered gauge transform found after "
                       f"{attempts} draws: {last}")


def _perturb_once(diagram: CoherentDiagram, seed, density):
    rng = _random.Random(seed)
    ok, _ = check_coherence(diagram)
    if not ok:
        raise ValueError("perturbation needs a coherent input")
    poset = diagram.poset
    n = len(poset)
    F = diagram.field
    homos = {}
    for i in range(n):
        for j in range(n):
            if i != j and poset.leq(i, j):
                homos[(i, j)] = random_filtered_homotopy(
                    rng, diagram.V[j], diagram.V[i], density, F)
    new_maps = {}
    pair_keys = [c for c in diagram.maps if len(c) == 2]
    for (i, j) in pair_keys:
        T = diagram.chunk_map((i, j))
        H = homos[(i, j)]
        dH = diagram.compose(diagram.V[i].complex.d, H)
        Hd = diagram.compose(H, diagram.V[j].complex.d)
        new_maps[(i, j)] = diagram.add_maps(T, dH, Hd)
    # triples: closed-form correction
    triple_keys = sorted({(i, k2, j)
                          for (i, k2) in pair_keys for (kk, j) in pair_keys
                          if kk == k2 and (i, j) in pair_keys})
    out = CoherentDiagram(poset, diagram.V, new_maps, F)
    for (i, k2, j) in triple_keys:
        T_ik = diagram.chunk_map((i, k2))
        T_kj = diagram.chunk_map((k2, j))
        H_ij = homos[(i, j)]
        H_ik = homos[(i, k2)]
        H_kj = homos[(k2, j)]
        X = diagram.add_maps(
            H_ij,
            diagram.compose(T_ik, H_kj),
            diagram.compose(H_ik, T_kj),
            diagram.compose(H_ik,
                            diagram.compose(diagram.V[k2].complex.d, H_kj)))
        new_maps[(i, k2, j)] = X
    out = CoherentDiagram(poset, diagram.V, new_maps, F)
    # longer chains: solve the coherence identity in the filtered-map space
    all_chains = sorted({c for i in range(n)
                         for c in poset.chains_from(i) if len(c) >= 4},
                        key=len)
    for chain in all_chains:
        res = coherence_residual(out, chain)
        if not res:
            continue
        X = _solve_homotopy(out, chain, res)
        if X is None:
            raise RuntimeError(f"no filtered correction for {chain}; "
                               f"resample the homotopies")
        new_maps[tuple(chain)] = X
        out = CoherentDiagram(poset, out.V, new_maps, F)
    ok, report = check_coherence(out)
    assert ok, f"perturbation failed coherence: {report}"
    return out


def _solve_homotopy(diagram: CoherentDiagram, chain, residual):
    """Solve d X + X d = residual among filtered maps of the right degree."""
    F = diagram.field
    V_src = diagram.V[chain[-1]]
    V_tgt = diagram.V[chain[0]]
    degree = 2 - len(chain)
    unknowns = []
    for g in V_src.complex.gens:
        for h in V_tgt.complex.gens:
            if V_tgt.complex.deg[h] == V_src.complex.deg[g] + degree and \
                    V_tgt.action[h] >= V_src.action[g] - 1e-12:
                unknowns.append((g, h))
    rows = {}

    def row_index(g, h):
        return rows.setdefault((g, h), len(rows))

    cols = []
    for (g, h) in unknowns:
        col = {}
        # d o X contribution: X[g] = h adds d(h) at source g
        for h2, v in V_tgt.complex.d.get(h, {}).items():
            col[row_index(g, h2)] = v
        # X o d contribution: for every g0 with g in d(g0)
        for g0, cb in V_src.complex.d.items():
            if g in cb:
                r = row_index(g0, h)
                col[r] = F.add(col.get(r, F.zero()), cb[g])
        cols.append({k: v for k, v in col.items() if v != F.zero()})
    target = {}
    for g, c in residual.items():
        for h, v in c.items():
            target[row_index(g, h)] = v
    sol = solve_columns(cols, target, F)
    if sol is None:
        return None
    X = {}
    for coeff, (g, h) in zip(sol, unknowns):
        if coeff != F.zero():
            X.setdefault(g, {})[h] = coeff
    return X


# ---------------------------------------------------------------------------
# spectral shadow and the mirrored variant

def e2_page(diagram: CoherentDiagram, i, lam=INF):
    """Ranks of the two-step page of the chain-length filtration: the
    internal-differential cohomology per chain length, then the induced
    length-lowering differential.  Returns {(p, total degree): rank}."""
    R = RectifiedComplex(diagram, i, lam)
    return _e2_direct(R, diagram.field)


def _e2_direct(R: RectifiedComplex, F):
    """E2 of the chain-length filtration, computed per (p, total degree)."""
    by_p = {}
    for gkey in R.complex.gens:
        by_p.setdefault(len(gkey[0]) - 2, []).append(gkey)
    pages = {}
    for p, gens in by_p.items():
        genset = set(gens)
        sub_d = {g: {k: v for k, v in R.complex.d.get(g, {}).items()
                     if k in genset} for g in gens}
        sub_d = {g: cb for g, cb in sub_d.items() if cb}
        C0 = ChainComplex(gens, {g: R.complex.deg[g] for g in gens}, sub_d,
                          F, check=False)
        pages[p] = (C0, cohomology_basis(C0))
    from .complexes import class_coordinates
    from .linalg import rank_of_columns
    e2 = {}
    for p, (C0, basis) in pages.items():
        # d1 out of p
        def d1_cols(p_from, basis_from, page_to):
            cols = []
            for (q, vec) in basis_from:
                img = {}
                for gkey, v in vec.items():
                    for k2, w in R.complex.d.get(gkey, {}).items():
                        if len(k2[0]) - 2 == p_from - 1:
                            img[k2] = F.add(img.get(k2, F.zero()),
                                            F.mul(v, w))
                img = {k: v for k, v in img.items() if v != F.zero()}
                if page_to is None:
                    assert not img
                    cols.append((q, {}))
                else:
                    C_low, basis_low = page_to
                    coords = class_coordinates(
                        C_low, [b for _, b in basis_low], img)
                    assert coords is not None
                    cols.append((q, {r: c for r, c in enumerate(coords)
                                     if c != F.zero()}))
            return cols
        out_cols = d1_cols(p, basis, pages.get(p - 1))
        in_cols = []
        upper = pages.get(p + 1)
        if upper is not None:
            in_cols = d1_cols(p + 1, upper[1], pages.get(p))
        degs = {}
        for (q, _vec) in basis:
            degs[q] = degs.get(q, 0) + 1
        for q in degs:
            outs = [c for (qq, c) in out_cols if qq == q]
            rk_out = rank_of_columns(outs, F) if outs else 0
            # incoming d1 lands in our (p, q) coordinates: collect columns
            ins = []
            if upper is not None:
                # d1 raises total degree by one: sources of degree q - 1
                for (qq, col) in in_cols:
                    if qq == q - 1:
                        ins.append(col)
            rk_in = rank_of_columns(ins, F) if ins else 0
            r = degs[q] - rk_out - rk_in
            if r:
                e2[(p, q)] = r
    return e2


class ScheduleError(RuntimeError):
    def __init__(self, msg, last_tables):
        super().__init__(msg)
        self.last_tables = last_tables


class LimitSheaf:
    """The conormal-limit sheaf of a graph brane, evaluated lazily.

    A section query over a region runs the decreasing clamp schedule of that
    region, rectifies each rung's sublevel diagram over the clamp chain, and
    returns the first stabilized windowed rank table (two consecutive rungs
    equal); non-stabilizing schedules raise a ScheduleError carrying the
    last two tables.  Every returned number is computed through the twisting
    differential, so route-independence tests against the direct
    quantization have genuine content.
    """

    def __init__(self, target: SampledFunction, ks=(1, 2, 3, 4)):
        if target.grid.fiber:
            raise ValueError("limit sheaves are assembled over base grids")
        self.target = target
        self.ks = tuple(ks)
        lo, hi = target.range()
        self.span = (hi - lo) + 1.0
        self._cache = {}

    def breakpoints(self):
        cm = self.target.cell_max()
        return tuple(sorted({round(float(v), 9) for v in cm.ravel()}))

    def sections(self, region, a, b):
        from .floer import clamp_schedule
        from .grids import BaseRegion
        grid = self.target.grid
        region = region if region is not None else BaseRegion(grid)
        key = (region.membership.tobytes(), a, b)
        if key in self._cache:
            return self._cache[key]
        clamps = clamp_schedule(BaseRegion(grid, region.membership),
                                self.span, self.ks)
        if a == -INF:
            a = float(self.target.values.min()) - 2 * self.span
        prev = None
        tables = []
        for rung in range(len(self.ks)):
            functions = list(reversed(clamps[: rung + 1]))
            diagram = strict_geometric_diagram(functions, self.target)
            lam = (float(self.target.values.max()) + 0.5 if b == INF else b)
            R = RectifiedComplex(diagram, 0, lam=lam)
            table = cohomology_ranks(R.filtered.window(a, lam))
            tables.append(table)
            if prev is not None and table == prev:
                self._cache[key] = table
                return table
            prev = table
        raise ScheduleError("clamp schedule did not stabilize by "
                            f"k={self.ks[-1]}", tuple(tables[-2:]))


def sheafify_limit(L, ks=(1, 2, 3, 4)):
    """The lazily-evaluated conormal-limit sheaf of a graph brane."""
    from .floer import GraphBrane
    from .sheaves import TameSheaf
    if isinstance(L, GraphBrane):
        target = L.f
    elif isinstance(L, SampledFunction):
        target = L
    else:
        raise TypeError("sheafify_limit expects a graph brane or function")
    out = TameSheaf("limit", label="sheafify_limit")
    out.limit = LimitSheaf(target, ks)
    return out


def serialize_diagram(diagram: CoherentDiagram):
    """Textual fixture format: generators with degrees and actions per
    poset index, then one line per stored chain map entry."""
    lines = ["diagram v1"]
    for i, V in enumerate(diagram.V):
        lines.append(f"object {i}")
        for g in V.complex.gens:
            lines.append(f"  gen {g!r} deg={V.complex.deg[g]} "
                         f"action={V.action[g]!r}")
        for g, cb in sorted(V.complex.d.items(), key=repr):
            for h, v in sorted(cb.items(), key=repr):
                lines.append(f"  d {g!r} -> {h!r} * {v}")
    for chain in sorted(diagram.maps):
        lines.append(f"chain {list(chain)}")
        for g, cb in sorted(diagram.maps[chain].items(), key=repr):
            for h, v in sorted(cb.items(), key=repr):
                lines.append(f"  map {g!r} -> {h!r} * {v}")
    return "\n".join(lines) + "\n"


def deserialize_diagram(text, field=GF2) -> CoherentDiagram:
    import ast
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "diagram v1":
        raise ValueError("unknown diagram format")
    objects = []
    maps = {}
    cur_obj = None
    cur_chain = None
    for ln in lines[1:]:
        s = ln.strip()
        if s.startswith("object "):
            cur_obj = {"gens": [], "deg": {}, "action": {}, "d": {}}
            objects.append(cur_obj)
            cur_chain = None
        elif s.startswith("gen "):
            body = s[4:]
            gpart, rest = body.rsplit(" deg=", 1)
            dpart, apart = rest.split(" action=")
            g = ast.literal_eval(gpart)
            cur_obj["gens"].append(g)
            cur_obj["deg"][g] = int(dpart)
            cur_obj["action"][g] = float(ast.literal_eval(apart))
        elif s.startswith("d "):
            body = s[2:]
            left, rest = body.split(" -> ")
            right, coeff = rest.rsplit(" * ", 1)
            g, h = ast.literal_eval(left), ast.literal_eval(right)
            cur_obj["d"].setdefault(g, {})[h] = field.coerce(
                ast.literal_eval(coeff))
        elif s.startswith("chain "):
            cur_chain = tuple(ast.literal_eval(s[6:]))
            maps[cur_chain] = {}
        elif s.startswith("map "):
            body = s[4:]
            left, rest = body.split(" -> ")
            right, coeff = rest.rsplit(" * ", 1)
            g, h = ast.literal_eval(left), ast.literal_eval(right)
            maps[cur_chain].setdefault(g, {})[h] = field.coerce(
                ast.literal_eval(coeff))
        else:
            raise ValueError(f"bad line in diagram fixture: {s!r}")
    # rebuild a constant-function poset skeleton ordered by object index
    from .grids import BoxGrid, circle_grid
    base = BoxGrid((circle_grid(4),))
    funs = [SampledFunction(base, np.full(base.vertex_shape, -float(i)))
            for i in reversed(range(len(objects)))]
    complexes = []
    for ob in objects:
        C = ChainComplex(ob["gens"], ob["deg"], ob["d"], field, check=False)
        complexes.append(FilteredComplex(C, ob["action"], check=False))
    return CoherentDiagram(FunPoset(funs), complexes, maps, field)


def e2_csv_rows(e2):
    rows = [("p", "q", "rank")]
    for (p, q) in sorted(e2):
        rows.append((p, q, e2[(p, q)]))
    return rows


def mirrored_rectified(diagram: CoherentDiagram, i, lam=INF):
    """The homological variant on decreasing chains: rectify the opposite
    diagram (dual complexes, reversed order, transposed maps)."""
    from .complexes import dual_complex
    poset = diagram.poset
    n = len(poset)
    rev = FunPoset([-f for f in poset.functions])
    duals = []
    for V in diagram.V:
        D = dual_complex(V.complex)
        action = {("dual", g): -V.action[g] for g in V.complex.gens}
        duals.append(FilteredComplex(D, action, check=False))
    maps = {}
    for chain, m in diagram.maps.items():
        rchain = tuple(reversed(chain))
        out = {}
        for g, c in m.items():
            for h, v in c.items():
                out.setdefault(("dual", h), {})[("dual", g)] = v
        maps[rchain] = out
    mirror = CoherentDiagram(rev, duals, maps, diagram.field)
    return RectifiedComplex(mirror, i, lam if lam == INF else INF)
