"""Rectification of homotopy-coherent diagrams over a function poset.

A coherent diagram assigns a filtered complex V(f) to each function and a
degree-(2 - L) map to each weakly increasing chain of length L, subject to
the face/composition identity (checked exactly).  The rectified complex is
spanned by chain-tensor generators with the twisting differential D; its
windowed cohomology recovers the windowed cohomology of any single V(f)
through the inclusion x -> (f <= f) (x) x, which is a quasi-isomorphism.

Rectification runs over F2 by construction: the coherence identity, D, the
closed-form triple correction of perturb_coherent and _solve_homotopy add
every term with sign +1, which is right only in characteristic 2.  A
CoherentDiagram rejects complexes over any other field.
"""

from __future__ import annotations

import itertools
import math
import random as _random

import numpy as np

from .complexes import (ChainComplex, ChainMap, FilteredComplex, apply_d,
                        class_coordinates, cohomology_basis)
from .floer import GraphBrane, clamp_schedule, stabilize
from .grids import (BaseRegion, BoxGrid, SampledFunction, circle_grid,
                    sublevel_filtration)
from .linalg import GF2, add_scaled, rank_of_columns, solve_columns

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

    def chains_from(self, i):
        """Strict chains (i < j1 < j2 < ...) in the poset order."""
        n = len(self.functions)

        def strictly_less(a, b):
            return a != b and self.leq(a, b) and not self.leq(b, a)

        out = [(i,)]
        frontier = [(i,)]
        while frontier:
            new = []
            for ch in frontier:
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
    constant chains as zero.  Every complex is over F2.
    """

    def __init__(self, poset: FunPoset, complexes, maps):
        self.poset = poset
        self.V = list(complexes)  # FilteredComplex per poset index
        if any(V.field is not GF2 for V in self.V):
            raise ValueError("rectification runs over F2 only")
        self.maps = {tuple(k): {g: dict(c) for g, c in m.items()}
                     for k, m in maps.items()}

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
                return {g: {g: 1} for g in self.V[chain[0]].complex.gens}
            return {}
        return self.maps.get(chain, {})

    def compose(self, m2, m1):
        """m2 after m1 (sparse map composition)."""
        out = {}
        for g, c1 in m1.items():
            acc = {}
            for h, v in c1.items():
                add_scaled(acc, m2.get(h, {}), v, GF2)
            if acc:
                out[g] = acc
        return out

    def add_maps(self, *maps):
        out = {}
        for m in maps:
            for g, c in m.items():
                add_scaled(out.setdefault(g, {}), c, 1, GF2)
        return {g: c for g, c in out.items() if c}


def coherence_residual(diagram: CoherentDiagram, chain):
    """Residual of the face/composition identity at one stored chain.

    sum_j (prefix_j)_* o (suffix_j)_* over all cut points (with the two
    degenerate end cuts acting by the differential) plus the inner-face sum,
    every term with sign +1 (the F2 identity); it must vanish exactly.
    """
    chain = tuple(chain)
    L = len(chain)
    k = L - 2
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


def check_coherence(diagram: CoherentDiagram):
    """Per-chain residual report; passes iff every residual vanishes and
    every stored map respects the action filtration."""
    report = {}
    ok = True
    for chain in sorted(diagram.maps):
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

def rectified_basis(diagram: CoherentDiagram, i):
    """Chains starting at i with the closing degeneracies.

    Basis chains are (i^a, strict tail) with a = 1 or 2 and total length
    >= 2, including the constant pair (i, i).  The first-slot degeneracies
    close the contraction that identifies every class with one of the form
    (i <= i) (x) x; a repeat depth of two suffices exactly (the telescope of
    deeper degeneracies cancels pairwise).
    """
    chains = {(i,) * a + c[1:] for c in diagram.poset.chains_from(i)
              for a in (1, 2)}
    chains.discard((i,))
    return sorted(chains, key=lambda c: (len(c), c))


def differential_D(diagram: CoherentDiagram, chain, x):
    """D(sigma (x) x) for a basis chain and a generator x of V(last).

    Returns a dict (chain, gen) -> coeff: the inner-face terms, the internal
    differential term, and the prefix-tensor-suffix-action terms.
    """
    chain = tuple(chain)
    L = len(chain)
    out = {}
    # inner faces (vanish for pairs)
    for l in range(1, L - 1):
        add_scaled(out, {(chain[:l] + chain[l + 1:], x): 1}, 1, GF2)
    # internal differential
    dx = diagram.V[chain[-1]].complex.d.get(x, {})
    add_scaled(out, {(chain, h): v for h, v in dx.items()}, 1, GF2)
    # suffix actions, prefix (v0..v_cut) tensor the suffix from v_cut on
    for cut in range(L - 2, 0, -1):
        m = diagram.chunk_map(chain[cut:])
        add_scaled(out, {(chain[: cut + 1], h): v
                         for h, v in m.get(x, {}).items()}, 1, GF2)
    return out


class RectifiedComplex:
    """The windowed twisting complex at (start function, action < lam)."""

    def __init__(self, diagram: CoherentDiagram, i, lam=INF):
        self.diagram = diagram
        self.start = i
        self.lam = lam
        chains = rectified_basis(diagram, i)
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
        self.complex = ChainComplex(gens, deg, d, GF2)  # checks D^2 = 0
        self.filtered = FilteredComplex(self.complex, action, check=True)

    def inclusion(self) -> ChainMap:
        """x -> (i <= i) (x) x from the windowed V(start)."""
        V = self.diagram.V[self.start]
        keep = [g for g in V.complex.gens if V.action[g] < self.lam]
        sub = V.complex.restricted(keep)
        comp = {g: {((self.start, self.start), g): 1} for g in keep}
        return ChainMap(sub, self.complex, comp)

    def cohomology_ranks(self):
        return self.complex.cohomology_ranks()


def rectify_at(diagram: CoherentDiagram, i, lam=INF):
    R = RectifiedComplex(diagram, i, lam)
    inc = R.inclusion()
    inc.verify()
    return R, inc


def restriction_map(diagram: CoherentDiagram, R_f: RectifiedComplex,
                    R_g: RectifiedComplex) -> ChainMap:
    """rho_{f,g} for g <= f: replace the first vertex of every chain."""
    f, g = R_f.start, R_g.start
    if not diagram.poset.leq(g, f):
        raise ValueError("restriction needs g <= f")
    comp = {}
    tgt = set(R_g.complex.gens)
    for (ch, x) in R_f.complex.gens:
        if len(ch) == 2 and ch[0] == ch[1]:
            new = (g, f) if g != f else (g, g)
        else:
            new = (g,) + ch[1:]
        key = (new, x)
        if key in tgt:
            comp[(ch, x)] = {key: 1}
    T = ChainMap(R_f.complex, R_g.complex, comp)
    T.verify()
    return T


# ---------------------------------------------------------------------------
# the chain-level vanishing pattern of the index complex

def index_complex_homology(m):
    """Homology of the weakly-increasing index tuples on {0..m-1} under the
    inner-face differential, and under its twist by last-vertex truncation
    with a strict rank-one coefficient system.

    Tuples of lengths 2..m + 3 starting at 0 sit in degree -length, so both
    differentials raise the degree by one; each is a ChainComplex, whose
    construction checks its square.  Returns {'delta_ranks': {k: rank},
    'twisted_ranks': {k: rank}, 'delta_squared_zero': True} for the tuples
    of length k + 2, k = 0..m (length m + 3 is the truncation's edge),
    exactly over F2; the inner-face homology vanishes in every degree while
    the twisted homology is one-dimensional in degree 0.
    """
    if m < 2:
        raise ValueError("need at least two indices")
    tuples = [(0,) + t for n in range(1, m + 3)
              for t in itertools.combinations_with_replacement(range(m), n)]
    deg = {t: -len(t) for t in tuples}
    delta, twisted = {}, {}
    for t in tuples:
        faces = {}
        for l in range(1, len(t) - 1):
            add_scaled(faces, {t[:l] + t[l + 1:]: 1}, 1, GF2)
        delta[t], twisted[t] = faces, dict(faces)
        if len(t) >= 3:
            add_scaled(twisted[t], {t[:-1]: 1}, 1, GF2)
    ranks_d, ranks_t = (ChainComplex(tuples, deg, d).cohomology_ranks()
                        for d in (delta, twisted))
    return {"delta_ranks": {k: ranks_d.get(-k - 2, 0) for k in range(m + 1)},
            "twisted_ranks": {k: ranks_t.get(-k - 2, 0)
                              for k in range(m + 1)},
            "delta_squared_zero": True}


# ---------------------------------------------------------------------------
# generators and perturbation

def strict_geometric_diagram(functions,
                             target: SampledFunction) -> CoherentDiagram:
    """The sublevel diagram of a fixed target over a poset of comparison
    functions: V(f) is the grid cochain complex with action target - f and
    the chain maps are the identity on cells (strict composition)."""
    poset = FunPoset(functions)
    complexes = [sublevel_filtration(target - f) for f in functions]
    n = len(functions)
    maps = {(i, j): {g: {g: 1} for g in complexes[j].complex.gens}
            for i in range(n) for j in range(n)
            if i != j and poset.leq(i, j)}
    return CoherentDiagram(poset, complexes, maps)


def strict_synthetic_diagram(rng, n_functions=3,
                             max_gens=10) -> CoherentDiagram:
    """A strict chain-poset diagram on windowed versions of one random
    filtered complex, with projection continuation maps."""
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
    C = ChainComplex(gens, deg, d)
    poset = FunPoset(functions)
    complexes = [FilteredComplex(C, {g: action[g] + c for g in gens},
                                 check=False) for c in offsets]
    maps = {(i, j): {g: {g: 1} for g in gens}
            for i in range(n_functions) for j in range(n_functions)
            if i != j and poset.leq(i, j)}
    return CoherentDiagram(poset, complexes, maps)


def random_filtered_homotopy(rng, V_src: FilteredComplex,
                             V_tgt: FilteredComplex, density=0.3):
    """A degree -1 action-non-decreasing sparse map V_src -> V_tgt."""
    H = {}
    for g in V_src.complex.gens:
        for h in V_tgt.complex.gens:
            if V_tgt.complex.deg[h] == V_src.complex.deg[g] - 1 and \
                    V_tgt.action[h] >= V_src.action[g] and \
                    rng.random() < density:
                H.setdefault(g, {})[h] = 1
    return H


def perturb_coherent(diagram: CoherentDiagram, seed=0,
                     density=0.25) -> CoherentDiagram:
    """Gauge-transform a strict diagram by random filtered homotopies.

    Pair maps move within their chain-homotopy class; the induced triple
    homotopies have a closed form, and longer corrections are solved
    linearly in the filtered-map space (resampling the homotopies, up to
    eight draws, when a draw is obstructed there).  The output passes the
    coherence check by construction (asserted) and has unchanged rectified
    cohomology.
    """
    last = None
    for k in range(8):
        try:
            return _perturb_once(diagram, seed + 1000 * k, density)
        except RuntimeError as e:
            last = e
    raise RuntimeError(f"no filtered gauge transform found after "
                       f"8 draws: {last}")


def _perturb_once(diagram: CoherentDiagram, seed, density):
    rng = _random.Random(seed)
    ok, _ = check_coherence(diagram)
    if not ok:
        raise ValueError("perturbation needs a coherent input")
    poset = diagram.poset
    n = len(poset)
    homos = {}
    for i in range(n):
        for j in range(n):
            if i != j and poset.leq(i, j):
                homos[(i, j)] = random_filtered_homotopy(
                    rng, diagram.V[j], diagram.V[i], density)
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
                            diagram.compose(diagram.V[k2].complex.d, H_kj)),
            diagram.compose(diagram.compose(H_ik, H_kj),
                            diagram.V[j].complex.d))
        new_maps[(i, k2, j)] = X
    out = CoherentDiagram(poset, diagram.V, new_maps)
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
        out = CoherentDiagram(poset, out.V, new_maps)
    ok, report = check_coherence(out)
    assert ok, f"perturbation failed coherence: {report}"
    return out


def _solve_homotopy(diagram: CoherentDiagram, chain, residual):
    """Solve d X + X d = residual among filtered maps of the right degree.

    The unknowns are the entries X[g] = h; their rows are numbered in the
    order the columns first meet them, so the reduction's choice among the
    solutions is fixed by the order of the unknowns and of the two
    differentials."""
    V_src = diagram.V[chain[-1]]
    V_tgt = diagram.V[chain[0]]
    degree = 2 - len(chain)
    unknowns = []
    for g in V_src.complex.gens:
        for h in V_tgt.complex.gens:
            if V_tgt.complex.deg[h] == V_src.complex.deg[g] + degree and \
                    V_tgt.action[h] >= V_src.action[g] - 1e-12:
                unknowns.append((g, h))
    # the transposed source differential, in the insertion order of d
    faces = {}
    for g0, cb in V_src.complex.d.items():
        for g in cb:
            faces.setdefault(g, []).append(g0)
    rows = {}

    def row_index(g, h):
        return rows.setdefault((g, h), len(rows))

    cols = []
    for (g, h) in unknowns:
        # d o X: X[g] = h adds d(h) at source g; X o d: adds h at every g0
        # with g in d(g0).  The two row sets are disjoint (g0 != g).
        col = {row_index(g, h2): 1 for h2 in V_tgt.complex.d.get(h, {})}
        for g0 in faces.get(g, ()):
            col[row_index(g0, h)] = 1
        cols.append(col)
    target = {row_index(g, h): 1 for g, c in residual.items() for h in c}
    [sol] = solve_columns(cols, [target])
    if sol is None:
        return None
    X = {}
    for coeff, (g, h) in zip(sol, unknowns):
        if coeff:
            X.setdefault(g, {})[h] = 1
    return X


# ---------------------------------------------------------------------------
# spectral shadow and the mirrored variant

def e2_page(diagram: CoherentDiagram, i):
    """Ranks of the two-step page of the chain-length filtration: the
    internal-differential cohomology per chain length, then the induced
    length-lowering differential.  Returns {(p, total degree): rank}."""
    return _e2_direct(RectifiedComplex(diagram, i))


def _e2_direct(R: RectifiedComplex):
    """E2 of the chain-length filtration, computed per (p, total degree).

    Page p is the subquotient on the chains of length p + 2; d1 sends a
    basis cocycle of page p to the length p + 1 part of its D, read in the
    cohomology basis of page p - 1."""
    by_p = {}
    for key in R.complex.gens:
        by_p.setdefault(len(key[0]) - 2, []).append(key)
    pages = {p: R.complex.restricted(gens) for p, gens in by_p.items()}
    bases = {p: cohomology_basis(C) for p, C in pages.items()}
    d1 = {}  # (p, q) -> coordinates of d1 of the page-p classes of degree q
    for p, basis in bases.items():
        imgs = [{k: v for k, v in apply_d(R.complex, vec).items()
                 if len(k[0]) == p + 1} for _q, vec in basis]
        if p - 1 in pages:
            coords = class_coordinates(pages[p - 1],
                                       [vec for _q, vec in bases[p - 1]],
                                       imgs)
            assert None not in coords
        else:
            assert not any(imgs)
            coords = [[] for _ in imgs]
        for (q, _vec), c in zip(basis, coords):
            d1.setdefault((p, q), []).append(
                {r: v for r, v in enumerate(c) if v})
    e2 = {}
    for (p, q), cols in d1.items():
        # d1 raises the total degree by one: into (p, q) from (p + 1, q - 1)
        r = len(cols) - rank_of_columns(cols) - \
            rank_of_columns(d1.get((p + 1, q - 1), []))
        if r:
            e2[(p, q)] = r
    return e2


class LimitSheaf:
    """The conormal-limit sheaf of a graph brane, evaluated lazily.

    A section query over a region runs the decreasing clamp schedule of that
    region: each rung's sublevel diagram over the clamp chain is rectified
    once, without truncation, and the barcode of that rectified complex
    answers every window of the region.  The first windowed rank table equal
    to the previous rung's is returned; a schedule that does not stabilize
    raises StabilizationError carrying the last two tables.  Every returned
    number is computed through the twisting differential, so
    route-independence tests against the direct quantization have genuine
    content.
    """

    def __init__(self, target: SampledFunction, ks=(1, 2, 3, 4)):
        if target.grid.fiber:
            raise ValueError("limit sheaves are assembled over base grids")
        self.target = target
        self.ks = tuple(ks)
        lo, hi = target.range()
        self.span = (hi - lo) + 1.0
        self._barcodes = {}  # (region membership bytes, rung) -> Barcode

    def breakpoints(self):
        cm = self.target.cell_max()
        return tuple(sorted({round(float(v), 9) for v in cm.ravel()}))

    def sections(self, region, a, b):
        grid = self.target.grid
        region = region if region is not None else BaseRegion(grid)
        if a == -INF:
            a = float(self.target.values.min()) - 2 * self.span
        lam = float(self.target.values.max()) + 0.5 if b == INF else b
        if not a < lam:
            raise ValueError("window requires a < b")
        tables = (self._barcode(region.membership, rung).window_ranks(a, lam)
                  for rung in range(len(self.ks)))
        return stabilize(tables, self.ks)[0]

    def _barcode(self, membership, rung):
        """The barcode of the rectified complex of one rung over a region."""
        key = (membership.tobytes(), rung)
        if key not in self._barcodes:
            clamps = clamp_schedule(BaseRegion(self.target.grid, membership),
                                    self.span, self.ks[: rung + 1])
            diagram = strict_geometric_diagram(clamps[::-1], self.target)
            self._barcodes[key] = \
                RectifiedComplex(diagram, 0).filtered.barcode()
        return self._barcodes[key]


def sheafify_limit(L, ks=(1, 2, 3, 4)):
    """The lazily-evaluated conormal-limit sheaf of a graph brane."""
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


def deserialize_diagram(text) -> CoherentDiagram:
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
            cur_obj["d"].setdefault(g, {})[h] = GF2.coerce(
                ast.literal_eval(coeff))
        elif s.startswith("chain "):
            cur_chain = tuple(ast.literal_eval(s[6:]))
            maps[cur_chain] = {}
        elif s.startswith("map "):
            body = s[4:]
            left, rest = body.split(" -> ")
            right, coeff = rest.rsplit(" * ", 1)
            g, h = ast.literal_eval(left), ast.literal_eval(right)
            maps[cur_chain].setdefault(g, {})[h] = GF2.coerce(
                ast.literal_eval(coeff))
        else:
            raise ValueError(f"bad line in diagram fixture: {s!r}")
    # rebuild a constant-function poset skeleton ordered by object index
    base = BoxGrid((circle_grid(4),))
    funs = [SampledFunction(base, np.full(base.vertex_shape, -float(i)))
            for i in reversed(range(len(objects)))]
    complexes = []
    for ob in objects:
        C = ChainComplex(ob["gens"], ob["deg"], ob["d"], check=False)
        complexes.append(FilteredComplex(C, ob["action"], check=False))
    return CoherentDiagram(FunPoset(funs), complexes, maps)


def e2_csv_rows(e2):
    rows = [("p", "q", "rank")]
    for (p, q) in sorted(e2):
        rows.append((p, q, e2[(p, q)]))
    return rows


def mirrored_rectified(diagram: CoherentDiagram, i):
    """The homological variant on decreasing chains: rectify the opposite
    diagram (dual complexes, reversed order, transposed maps)."""
    from .complexes import dual_complex
    rev = FunPoset([-f for f in diagram.poset.functions])
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
    mirror = CoherentDiagram(rev, duals, maps)
    return RectifiedComplex(mirror, i)
