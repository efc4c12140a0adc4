"""Constructible sheaf models on N x R.

A tame sheaf is carried in one of three presentations:

  * GF: a generating function; section queries reduce to windowed pairs of
    sublevel sets (with the canonical degree shift applied once, here).
  * Cellular: a stratification of N x R by base cells and breakpoint
    intervals, a stalk complex per stratum given by a pure function of
    (base cell, threshold), and generization maps that match generators by
    label (restrictions are projections, extensions are inclusions).
  * Product: a pair of factors on a shared or doubled base with the sum
    pushforward evaluated through the discretized two-axis model.

Sections are computed as cochain complexes over the cells of the queried
region; d^2 = 0 is asserted on every assembled complex.  A cellular sheaf
is constant on its own strata: its sections are taken on its own t-axis,
and a t-cell of a refined axis takes the stalk of the own stratum that
contains it.  The window [a, b) keeps the t-cells whose top value (in the
product carrier, the sum of the two tops) lies in [a, b), so every window
is a subquotient of one complex filtered by that value.  section_barcode
builds and reduces it once per (sheaf, region); sections() reads every
cellular and product window off it, and its bars are the pushforward
barcode.  The reduction runs on the Morse complex of the vertical matching,
which pairs a generator over ('v', i) with the same labels over ('e', i):
the assembly records the pairs, FilteredComplex.barcode checks them, and
d^2 = 0 is still asserted on the whole complex.  GF windows stay on the
pair route (gf_cohomology) and limit sheaves on their clamp schedules, so
the routes stay independent.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .complexes import Barcode, ChainComplex, FilteredComplex
from .genfun import (GenFun, cerf_diagram, gf_cohomology,
                     strand_value_range, window_ceiling, window_floor)
from .grids import BaseRegion, BoxGrid
from .linalg import GF2

INF = math.inf


# ---------------------------------------------------------------------------
# the t-axis stratification

@dataclass(frozen=True)
class TAxis:
    """R cut at breakpoints; cells are the breakpoint vertices ('v', i) and
    the open intervals ('e', i) below break i, with ('e', m) the top ray."""

    breaks: tuple

    def __post_init__(self):
        if not self.breaks:
            raise ValueError("a t-axis needs at least one breakpoint")
        if any(b >= c for b, c in zip(self.breaks, self.breaks[1:])):
            raise ValueError("breakpoints must be strictly increasing")

    @property
    def m(self):
        return len(self.breaks)

    def cells(self):
        out = []
        for i in range(self.m):
            out.append(("e", i))
            out.append(("v", i))
        out.append(("e", self.m))
        return out

    def dim(self, tc):
        return 1 if tc[0] == "e" else 0

    def span(self, i):
        """Endpoints of interval cell ('e', i), with sentinels at the ends."""
        lo = self.breaks[i - 1] if i > 0 else self.breaks[0] - 1.0
        hi = self.breaks[i] if i < self.m else self.breaks[-1] + 1.0
        return lo, hi

    def rep(self, tc):
        """From-above representative threshold of a cell."""
        if tc[0] == "e":
            lo, hi = self.span(tc[1])
            return (lo + hi) / 2
        return self.rep(("e", tc[1] + 1))

    def rep_below(self, tc):
        """From-below representative (used by the duality pullback)."""
        if tc[0] == "e":
            return self.rep(tc)
        return self.rep(("e", tc[1]))

    def cofaces(self, tc):
        """Codim-1 cofaces with incidence signs ([left:e]=-1, [right:e]=+1)."""
        if tc[0] == "e":
            return []
        i = tc[1]
        return [(("e", i), +1), (("e", i + 1), -1)]

    def top_value(self, tc):
        """Largest vertex value touched by a cell (top ray: +inf)."""
        if tc[0] == "v":
            return self.breaks[tc[1]]
        i = tc[1]
        return self.breaks[i] if i < self.m else INF

    def window_cells(self, a, b):
        """Cells of the relative window [a, b): touching >= a, not >= b."""
        out = []
        for tc in self.cells():
            top = self.top_value(tc)
            if top >= a and not top >= b:
                out.append(tc)
        return out

    def with_breaks(self, extra):
        vals = list(self.breaks)
        for x in extra:
            if x in (-INF, INF):
                continue
            if all(abs(x - v) > 1e-12 for v in vals):
                vals.append(x)
        return TAxis(tuple(sorted(vals)))


# ---------------------------------------------------------------------------
# stalks

@dataclass(frozen=True)
class Stalk:
    """Finite complex with labelled generators; maps between stalks act by
    matching labels."""

    gens: tuple          # tuple of (label, degree)
    diff: tuple = ()     # tuple of (label, label, coeff): degree +1 entries
    unit: tuple = ()     # degree-0 labels of the canonical unit cocycle

    def degrees(self):
        return dict(self.gens)

    def d_map(self):
        out = {}
        for (a, b, c) in self.diff:
            out.setdefault(a, {})[b] = c
        return out

    @property
    def size(self):
        return len(self.gens)


ZERO_STALK = Stalk(())
CONST_STALK = Stalk(((("k",), 0),), (), (("k",),))


# ---------------------------------------------------------------------------
# cellular presentation

class CellSheaf:
    """Stratified presentation: stalk_fn(base_cell, threshold) -> Stalk.

    Generization maps are label matches; this is exact for restriction maps
    (projections) and star inclusions alike, and is verified by the d^2 = 0
    assertion on every assembled section complex.
    """

    def __init__(self, base: BoxGrid, taxis: TAxis, stalk_fn, shift=0,
                 label="cell", field=GF2, indicator=None):
        if base.fiber:
            raise ValueError("cellular sheaves live over a base-only grid")
        self.base = base
        self.taxis = taxis
        self._stalk_fn = stalk_fn
        self.shift = shift
        self.label = label
        self.field = field
        self.indicator = indicator  # ('region', mask, t0) | ('graph', f) | None
        self._cache = {}

    def stalk(self, base_cell, threshold):
        key = (tuple(base_cell), round(float(threshold), 12))
        hit = self._cache.get(key)
        if hit is None:
            hit = self._stalk_fn(tuple(base_cell), float(threshold))
            self._cache[key] = hit
        return hit

    def stalk_over(self, base_cell, ax: TAxis, tc):
        """The stalk over t-cell tc of the axis ax, a refinement of the own
        axis: that of the own stratum containing the cell, sampled at the
        stratum's representative, so the sheaf is constant on its strata
        whatever axis the sections are taken on."""
        own = self.taxis
        i = bisect.bisect(own.breaks, ax.rep(tc))
        return self.stalk(base_cell, own.rep(("e", i)))

    def section_complex(self, region: BaseRegion | None, a, b,
                        taxis=None) -> ChainComplex:
        """Total complex over region x [a, b) with stalk coefficients, on
        the own t-axis unless a refinement of it is given."""
        return _total_complex(self.base, region,
                              [(self, taxis or self.taxis, _same_cell)],
                              a, b, self.field)


def _same_cell(bc):
    return bc


def _total_complex(base: BoxGrid, region: BaseRegion | None, factors, a, b,
                   field) -> ChainComplex:
    """Total complex over region x [a, b) of the tensor product of stalks.

    factors: (CellSheaf, TAxis, project) triples; project(bc) is the
    factor's base cell under bc.  The window holds the tuples of t-cells
    whose summed top value lies in [a, b).  A generator is
    (bc, t_1..t_m, label_1..label_m).  Its coboundary is, in this order:
    the base cofaces; the cofaces on t-axis i, signed by
    (-1)^(dim bc + dims of t_1..t_{i-1}); the differential of stalk j,
    signed by (-1)^(dim bc + all t dims + degrees of labels 1..j-1).  A term
    counts when its target is a generator.  Each term changes a different
    component, so no two meet: entries are stored, not summed.  The stalk
    over a t-cell is that of the factor's own stratum containing it
    (CellSheaf.stalk_over).  Generization maps match labels; d^2 = 0
    certifies that they are chain maps.

    The complex carries its vertical matching: a generator whose first
    t-cell is ('v', i) is paired with the generator that differs only by
    ('e', i) in its place, when there is one.  The two share their summed
    top value, the coface entry is +-1, and the only other upper generator
    a lower one reaches is the one over ('e', i+1): the first-axis index
    rises along every gradient path, so the matching is acyclic, and the
    pairs are recorded in a gradient order (generator order).
    """
    F = field
    m = len(factors)
    unit = {1: F.coerce(1), -1: F.coerce(-1)}
    axes = [ax for _, ax, _ in factors]
    # window: per t-cell of the first axis, the tuples that start with it,
    # each as (t-cells, their dims summed, t-axis terms by parity of dim bc)
    windows = []
    for ts in itertools.product(*(ax.cells() for ax in axes)):
        if not a <= sum(ax.top_value(tc) for ax, tc in zip(axes, ts)) < b:
            continue
        tmoves, tdim = ([], []), 0
        for i, (ax, tc) in enumerate(zip(axes, ts)):
            for tcf, s in ax.cofaces(tc):
                moved = ts[:i] + (tcf,) + ts[i + 1:]
                tmoves[0].append((moved, unit[-s if tdim & 1 else s]))
                tmoves[1].append((moved, unit[s if tdim & 1 else -s]))
            tdim += ax.dim(tc)
        if not windows or windows[-1][0] != ts[0]:
            windows.append((ts[0], []))
        windows[-1][1].append((ts, tdim, tmoves))
    cells = (region.base_cells() if region is not None
             else list(base.base_cells()))
    memos = [{} for _ in factors]   # per factor: (cell, t-cell) -> terms
    converted = {}  # id(stalk) -> (stalk, terms): ('v', i), ('e', i+1) share

    def fetch(i, bci, tc):
        cell, ax, _ = factors[i]
        st = cell.stalk_over(bci, ax, tc)
        hit = converted.get(id(st))
        if hit is None:
            hit = converted[id(st)] = (st, _stalk_terms(st, F))
        memos[i][(bci, tc)] = hit[1]
        return hit[1]

    gens, deg, blocks = [], {}, []
    for bc in cells:
        bdim = base.cell_dim(bc)
        own = [project(bc) for _, _, project in factors]
        group = []
        for tc1, entries in windows:
            first = memos[0].get((own[0], tc1)) or fetch(0, own[0], tc1)
            if not first[0]:
                continue    # an empty first stalk empties all its tuples
            for ts, tdim, tmoves in entries:
                parts = [first]
                for i in range(1, m):
                    hit = (memos[i].get((own[i], ts[i]))
                           or fetch(i, own[i], ts[i]))
                    if not hit[0]:
                        break
                    parts.append(hit)
                else:
                    items = [((bc,) + ts, bdim + tdim)]
                    for st_gens, _, _ in parts:
                        items = [(g + (lbl,), k + kl) for g, k in items
                                 for lbl, kl in st_gens]
                    group.append((ts, bdim + tdim, tmoves[bdim & 1], parts,
                                  len(items)))
                    gens.extend(g for g, _ in items)
                    deg.update(items)
        if group:
            blocks.append((bc, group))
    d, matching = {}, {}
    todo = iter(gens)
    for bc, group in blocks:
        bterms = [(cf, unit[s]) for cf, s in base.cofaces(bc)]
        for ts, bt_dim, tmoves, parts, size in group:
            # base and t-axis terms change the head (bc, t_1..t_m) only; on
            # a first t-cell ('v', i) the first t-axis term is ('e', i)
            bmoves = [((cf,) + ts, v) for cf, v in bterms]
            tmoves = [((bc,) + moved, v) for moved, v in tmoves]
            pmove = tmoves.pop(0) if ts[0][0] == "v" else None
            for g in itertools.islice(todo, size):
                labels = g[1 + m:]
                cb = {}
                for hd, v in bmoves:
                    h = hd + labels
                    if h in deg:
                        cb[h] = v
                if pmove is not None:
                    h = pmove[0] + labels
                    if h in deg:
                        cb[h] = pmove[1]
                        matching[g] = h
                for hd, v in tmoves:
                    h = hd + labels
                    if h in deg:
                        cb[h] = v
                odd = bt_dim & 1
                for j, (_, kl, dterms) in enumerate(parts, 1 + m):
                    row = dterms.get(g[j])
                    if row:
                        pre, post = g[:j], g[j + 1:]
                        for lbl2, vp, vn in row:
                            h = pre + (lbl2,) + post
                            if h in deg:
                                cb[h] = vn if odd else vp
                    odd ^= kl[g[j]] & 1
                if cb:
                    d[g] = cb
    C = ChainComplex(gens, deg, d, F, check=False, matching=matching)
    C.assert_d_squared_zero()
    return C


def _stalk_terms(st: Stalk, F):
    """A stalk's generators, its degrees by label and its differential as
    label -> [(label, c, -c)] in the field, without the zero entries."""
    dterms = {}
    for lbl, row in st.d_map().items():
        dterms[lbl] = [(lbl2, F.coerce(c), F.coerce(-c))
                       for lbl2, c in row.items()
                       if not F.is_zero(F.coerce(c))]
    return st.gens, st.degrees(), dterms


# ---------------------------------------------------------------------------
# the tame sheaf wrapper

class TameSheaf:
    """A constructible object on N x R in GF, cellular, or product form."""

    def __init__(self, kind, *, gf=None, cell=None, factors=None,
                 diagonal=True, label=""):
        self.kind = kind
        self.gf = gf
        self.cell = cell
        self.factors = factors
        self.diagonal = diagonal
        self.limit = None  # populated for kind == 'limit'
        self.label = label or kind
        self._barcodes = {}  # region mask (None: all of N) -> section_barcode
        self._cellular = None  # the CellSheaf _as_cellsheaf built, once

    @property
    def base_grid(self) -> BoxGrid:
        if self.kind == "gf":
            return self.gf.base_grid
        if self.kind == "cell":
            return self.cell.base
        if self.kind == "limit":
            return self.limit.target.grid.base_only()
        F, G = self.factors
        if self.diagonal:
            return F.base_grid
        return BoxGrid(F.base_grid.base + G.base_grid.base, ())

    def __repr__(self):
        return f"TameSheaf({self.label})"


def quantize(gf: GenFun) -> TameSheaf:
    """The pushforward sheaf of a generating function, shift recorded."""
    return TameSheaf("gf", gf=gf, label=f"quantize(k={gf.k},i={gf.i_q})")


def unit_sheaf(grid: BoxGrid, region: BaseRegion | None = None,
               t0=0.0, label=None) -> TameSheaf:
    """Constant sheaf on (closed region) x [t0, oo) as a cellular object."""
    base = grid.base_only()
    reg = region
    mask = None if reg is None else reg.membership

    def stalk_fn(bc, thr):
        if mask is not None and not mask[tuple(bc)]:
            return ZERO_STALK
        return CONST_STALK if thr > t0 else ZERO_STALK

    taxis = TAxis((t0,))
    ind = ("region", None if mask is None else np.array(mask, copy=True), t0)
    return TameSheaf("cell",
                     cell=CellSheaf(base, taxis, stalk_fn, shift=0,
                                    label=label or "unit", indicator=ind),
                     label=label or f"k_[{t0},oo)")


def to_cellular(F: TameSheaf, max_cells=250_000, spot_checks=20,
                rng=None) -> TameSheaf:
    """Cellular presentation of a GF sheaf: breakpoints at strand values,
    stalks the floored fiber complexes; spot-checked against the GF route."""
    if F.kind != "gf":
        raise ValueError("to_cellular expects a GF presentation")
    gf = F.gf
    diagram = cerf_diagram(gf)
    breaks = tuple(diagram.breakpoints)
    if not breaks:
        breaks = (0.0,)
    floor = window_floor(gf)
    base = gf.base_grid
    n_base = int(np.prod(base.base_cell_shape))
    est = n_base * (2 * len(breaks) + 1)
    if est > max_cells:
        raise ValueError(f"stratification too large ({est} strata cells); "
                         f"coarsen the grid")
    cm = gf.S.cell_max()
    fib = BoxGrid(gf.grid.fiber, ())
    if gf.k:
        fib_cells = list(fib.all_cells())   # flat cell id order
        table = fib.coface_table
        fib_dims = table.dim.tolist()

    def stalk_fn(bc, thr):
        if gf.k == 0:
            v = float(cm[tuple(bc)])
            if floor <= v < thr:
                return Stalk((((), 0),), (), ((),))
            return ZERO_STALK
        # the fiber cells with floor <= value < thr, and the coface entries
        # between them (slot -1 of the table reads the appended False)
        block = cm[tuple(bc)].ravel()
        kept = np.append((floor <= block) & (block < thr), False)
        ids = np.flatnonzero(kept)
        cof = table.cof[ids]
        row, slot = np.nonzero(kept[cof])
        gens = tuple((fib_cells[i], fib_dims[i]) for i in ids.tolist())
        diff = tuple(zip(map(fib_cells.__getitem__, ids[row].tolist()),
                         map(fib_cells.__getitem__, cof[row, slot].tolist()),
                         table.sgn[ids[row], slot].tolist()))
        return Stalk(gens, diff, ())

    ind = ("graph", gf.S) if gf.k == 0 else None
    cell = CellSheaf(base, TAxis(breaks), stalk_fn, shift=gf.i_q,
                     label=f"cellular({F.label})", indicator=ind)
    out = TameSheaf("cell", cell=cell, label=cell.label)
    _spot_check_cellular(F, out, spot_checks, rng)
    return out


def _spot_check_cellular(F_gf: TameSheaf, F_cell: TameSheaf, n, rng):
    import random as _random
    rng = rng or _random.Random(20240601)
    gf = F_gf.gf
    lo = window_floor(gf)
    hi = window_ceiling(gf)
    grid = gf.base_grid
    shape = grid.base_cell_shape
    for _ in range(n):
        # a random small box with regular window endpoints
        widths = [rng.randrange(1, max(2, s // 3)) for s in shape]
        starts = [rng.randrange(s) for s in shape]
        mask = np.zeros(shape, dtype=bool)
        for offs in itertools.product(*(range(w) for w in widths)):
            idx = tuple((st + o) % s if ggrid.topology == "circle"
                        else min(st + o, s - 1)
                        for st, o, s, ggrid in
                        zip(starts, offs, shape, grid.base))
            mask[idx] = True
        region = BaseRegion(grid, mask)
        for _try in range(40):
            a = rng.uniform(lo, hi)
            b = rng.uniform(a + (hi - lo) * 0.05, hi + 0.1)
            try:
                want = gf_cohomology(gf, _region_on(gf.grid, region), a, b)
            except ValueError:
                continue
            got = sections(F_cell, region, a, b)
            if got != want:
                raise AssertionError(
                    f"cellular presentation disagrees with the GF route on "
                    f"box {starts}x{widths} window ({a:.4g},{b:.4g}): "
                    f"{got} != {want}; stratification too coarse")
            break


def _region_on(grid: BoxGrid, region: BaseRegion) -> BaseRegion:
    return BaseRegion(grid, region.membership)


# ---------------------------------------------------------------------------
# sections / microstalk dispatch

def sections(F: TameSheaf, region: BaseRegion | None, a, b, field=GF2,
             check_regular=True):
    """H^*(region x [a, b[, F) as a map degree -> rank."""
    if not a < b:
        raise ValueError("window requires a < b")
    if F.kind != "gf" and field is not GF2:
        raise ValueError("stratified and product presentations are F2-only; "
                         "use a generating-family presentation for Q")
    if F.kind == "gf":
        reg = None if region is None else _region_on(F.gf.grid, region)
        return gf_cohomology(F.gf, reg, a, b, field, check_regular)
    if F.kind == "limit":
        return F.limit.sections(region, a, b)
    return section_barcode(F, region).window_ranks(a, b)


def section_barcode(F: TameSheaf, region: BaseRegion | None = None) -> Barcode:
    """Barcode of the sections of F over region x R, built once per (sheaf,
    region) and memoised on F.

    A cellular sheaf (a GF sheaf through its cellular presentation) gives
    one section complex over every t-cell of its own axis with a finite
    top, filtered by that top; a product gives the carrier's complex over
    every pair of such t-cells, filtered by the sum of the two tops.  The
    complex of a window [a, b) is the subquotient on the generators whose
    value lies in [a, b), and an infinite end keeps every finite value, so
    window_ranks(a, b) gives the sections over every window and the bars
    are the pushforward barcode.  The reduction runs on the Morse complex
    of the complex's vertical matching.  The degrees carry the sheaf's
    shift.
    """
    key = None if region is None else region.membership.tobytes()
    hit = F._barcodes.get(key)
    if hit is None:
        hit = F._barcodes[key] = _section_barcode(F, region)
    return hit


def _section_barcode(F: TameSheaf, region) -> Barcode:
    if F.kind == "prod":
        A, B = F.factors
        cells = (_as_cellsheaf(A), _as_cellsheaf(B))
        if F.diagonal and cells[0].base != cells[1].base:
            raise ValueError("diagonal product requires a shared base grid")
        C = product_section_complex(*cells, F.diagonal, region, -INF, INF)
    else:
        cells = (_as_cellsheaf(F),)
        C = cells[0].section_complex(region, -INF, INF)
    # the filtration value of each t-cell tuple, computed once and shared by
    # its generators (a single axis keeps its top value as it is)
    axes = [cell.taxis for cell in cells]
    m = len(axes)
    value = {}
    for ts in itertools.product(*(ax.cells() for ax in axes)):
        tops = [ax.top_value(tc) for ax, tc in zip(axes, ts)]
        value[ts] = tops[0] if m == 1 else tops[0] + tops[1]
    FC = FilteredComplex(C, {g: value[g[1:1 + m]] for g in C.gens})
    shift = sum(cell.shift for cell in cells)
    return Barcode([(k - shift, b, x)
                    for k, b, x in FC.barcode(C.matching).bars])


def behavior_at_infinity(F: TameSheaf):
    """(ranks near -infinity, ranks near +infinity) via extreme windows."""
    minus = sections(F, None, -INF, _band_floor(F), check_regular=False)
    plus = sections(F, None, -INF, INF, check_regular=False)
    return minus, plus


def _band_floor(F: TameSheaf):
    if F.kind == "gf":
        return strand_value_range(F.gf)[0] - 0.125 * (1 + F.gf.tau_val())
    if F.kind == "cell":
        return F.cell.taxis.breaks[0] - 0.25
    if F.kind != "prod":
        raise ValueError(f"a {F.kind} presentation ({F.label}) has no "
                         f"support band")
    lo1 = _band_floor(F.factors[0])
    lo2 = _band_floor(F.factors[1])
    return lo1 + lo2


def microstalk(F: TameSheaf, base_cell, t, eps=None, upper_to=None,
               field=GF2):
    """Ranks of H^*({x} x [t - eps, t + eps[, F); with upper_to set, the
    one-sided window [t - eps, upper_to[ instead (the front-interior probe).
    """
    grid = F.base_grid
    region = BaseRegion.from_cells(grid, [tuple(base_cell)])
    if eps is None:
        eps = _local_gap(F, t) / 2
    a = t - eps
    b = upper_to if upper_to is not None else t + eps
    return sections(F, region, a, b, field, check_regular=False)


def _local_gap(F: TameSheaf, t):
    breaks = _breaks_of(F)
    gaps = [abs(b - t) for b in breaks if abs(b - t) > 1e-12]
    return min(gaps) if gaps else 1.0


def _breaks_of(F: TameSheaf):
    if F.kind == "gf":
        return cerf_diagram(F.gf).breakpoints
    if F.kind == "cell":
        return F.cell.taxis.breaks
    if F.kind == "limit":
        return F.limit.breakpoints()
    b1 = _breaks_of(F.factors[0])
    b2 = _breaks_of(F.factors[1])
    return tuple(sorted({x + y for x in b1 for y in b2}))


def unit_map_section_level(F: TameSheaf, region, a, b):
    """The canonical map from unit sections into F's sections over a window,
    as a chain map between the two assembled complexes.

    Sends the constant generator over each stratum to the sum of the
    degree-0 stalk generators of F there (the unit cocycle of the stalk);
    defined for cellular presentations whose stalks have no floor cut.
    """
    from .complexes import ChainMap
    cell = _as_cellsheaf(F)
    grid = cell.base
    U = unit_sheaf(BoxGrid(grid.base, ()),
                   t0=cell.taxis.breaks[0] - 1.0)
    # share one refined t-axis so strata line up
    taxis = cell.taxis.with_breaks(list(U.cell.taxis.breaks) + [a, b])
    CU = U.cell.section_complex(region, a, b, taxis=taxis)
    CF = cell.section_complex(region, a, b, taxis=taxis)
    one = GF2.one()
    comp = {}
    genset = set(CF.gens)
    for g in CU.gens:
        (bc, tc, _lbl) = g
        st = cell.stalk_over(bc, taxis, tc)
        img = {}
        for lbl, k in st.gens:
            if k == 0 and (bc, tc, lbl) in genset:
                img[(bc, tc, lbl)] = one
        if img:
            comp[g] = img
    T = ChainMap(CU, CF, comp)
    T.verify()
    return T


def front_interior_table(F: TameSheaf, base_cell, t, band_top, eps=None):
    """Total rank of the one-sided window [t - eps, band_top[: equals 1 when
    (x, t) lies between the strands of a simple front band and 0 outside it."""
    ranks = microstalk(F, base_cell, t, eps=eps, upper_to=band_top)
    return sum(ranks.values())


# ---------------------------------------------------------------------------
# product presentation (convolution carrier)

def _as_cellsheaf(F: TameSheaf) -> CellSheaf:
    """The cellular presentation of F: its own, that of a GF sheaf, or the
    corner-sum presentation of a diagonal product of rank-one sheaves; one
    built here is kept on F."""
    if F.kind == "cell":
        return F.cell
    if F._cellular is not None:
        return F._cellular
    if F.kind == "gf":
        cell = to_cellular(F, spot_checks=0).cell
    elif F.kind != "prod":
        raise ValueError(f"a {F.kind} presentation ({F.label}) has no "
                         f"cellular form")
    elif not F.diagonal:
        raise ValueError("nested external products are not materialized; "
                         "reduce the factors first")
    else:
        A, B = F.factors
        cell = materialize_rank_one_tensor(_as_cellsheaf(A),
                                           _as_cellsheaf(B))
    F._cellular = cell
    return cell


def corner_table(cell: CellSheaf):
    """For rank-one sheaves: per base cell the entry breakpoint (None if the
    stalk never opens) and the degree of the single stalk generator."""
    taxis = cell.taxis
    table, deg_table = {}, {}
    for bc in cell.base.base_cells():
        bc = tuple(bc)
        theta = None
        deg = None
        for i, b in enumerate(taxis.breaks):
            above = cell.stalk(bc, taxis.rep(("v", i)))
            if len(above.gens) > 1:
                raise ValueError("rank-one stalks required")
            below = cell.stalk(bc, taxis.rep_below(("v", i)))
            if above.gens and not below.gens:
                theta = b
                deg = above.gens[0][1]
                break
        if theta is None and cell.stalk(bc, taxis.breaks[-1] + 0.5).gens:
            raise AssertionError("stalk opens without a breakpoint")
        table[bc] = theta
        deg_table[bc] = deg
    return table, deg_table


def materialize_rank_one_tensor(CA: CellSheaf, CB: CellSheaf) -> CellSheaf:
    """Corner-sum indicator presentation of a diagonal tensor of rank-one
    sheaves (section-exact: each base column of the product model has its
    cohomology in a single degree, so the compression is an isomorphism on
    every window)."""
    if CA.base != CB.base:
        raise ValueError("tensor factors must share the base grid")
    ta, da = corner_table(CA)
    tb, db = corner_table(CB)
    theta = {}
    deg = {}
    for bc in ta:
        if ta[bc] is None or tb[bc] is None:
            theta[bc] = None
            deg[bc] = None
        else:
            theta[bc] = ta[bc] + tb[bc]
            deg[bc] = da[bc] + db[bc]
    breaks = sorted({v for v in theta.values() if v is not None})
    if not breaks:
        breaks = [0.0]

    def stalk_fn(bc, thr):
        th = theta.get(tuple(bc))
        if th is None or thr <= th:
            return ZERO_STALK
        return Stalk(((("t",), deg[tuple(bc)]),), (), ())

    return CellSheaf(CA.base, TAxis(tuple(breaks)), stalk_fn,
                     shift=CA.shift + CB.shift,
                     label=f"({CA.label})(x)({CB.label})")


def product_section_complex(CA: CellSheaf, CB: CellSheaf, diagonal,
                            region, a, b) -> ChainComplex:
    """Total complex over base x [sum of two t-axes in [a, b)) with tensor
    stalks; the sum-sublevel convention discretizes the pushforward along
    (t1, t2) -> t1 + t2 exactly."""
    if diagonal:
        base = CA.base
        pa = pb = _same_cell
    else:
        base = BoxGrid(CA.base.base + CB.base.base, ())
        na = len(CA.base.base)
        pa = lambda bc: bc[:na]
        pb = lambda bc: bc[na:]
    factors = [(CA, CA.taxis, pa), (CB, CB.taxis, pb)]
    return _total_complex(base, region, factors, a, b, CA.field)


# ---------------------------------------------------------------------------
# conification and singular support

@dataclass(frozen=True)
class ConeSet:
    """Samples (x, t, p, tau) of a conical set, tau in {0, 1}; the tau = 0
    slice carries the base points of the front."""

    points: tuple
    resolution: float = 0.0

    def hausdorff(self, other: "ConeSet", scales):
        """Symmetric Hausdorff distance in the scaled max-norm
        max_k |p_k - q_k| / scales[k] over the coordinates (x, t, p, tau);
        inf when either set is empty.  The float operations are those of
        the pairwise loop, so the distance is the loop's to the bit."""
        ps, qs = self._coordinates(), other._coordinates()
        if not len(ps) or not len(qs):
            return INF
        return max(_one_sided(ps, qs, scales), _one_sided(qs, ps, scales))

    def _coordinates(self):
        return np.array([(x[0], t, p[0] if p else 0.0, tau)
                         for (x, t, p, tau) in self.points],
                        dtype=float).reshape(-1, 4)

    def to_csv_rows(self):
        rows = [("x", "t", "p", "tau")]
        for (x, t, p, tau) in self.points:
            rows.append((repr(x[0] if len(x) == 1 else x), repr(t),
                         repr(p[0] if len(p) == 1 else p), tau))
        return rows


# point pairs compared per numpy block of ConeSet.hausdorff
_HAUSDORFF_BLOCK = 1 << 16


def _one_sided(ps, qs, scales):
    """max over the rows p of ps of min over the rows q of qs of
    max_k |p_k - q_k| / scales[k], a block of rows of ps at a time."""
    rows = max(1, _HAUSDORFF_BLOCK // len(qs))
    worst = 0.0
    for lo in range(0, len(ps), rows):
        block = ps[lo:lo + rows]
        dist = None
        for k, s in enumerate(scales):
            dk = np.abs(block[:, k, None] - qs[None, :, k]) / s
            dist = dk if dist is None else np.maximum(dist, dk, out=dist)
        worst = max(worst, float(dist.min(axis=1).max()))
    return worst


def conify(brane) -> ConeSet:
    """Samples of the conical lift: (x, f_L, p, 1) plus the tau = 0 base."""
    pts = []
    for (x, p, t, _m) in brane.points:
        pts.append((x, t, p, 1))
        pts.append((x, t, tuple(0.0 for _ in p), 0))
    return ConeSet(tuple(sorted(set(pts))))


def conify_conormal(region: BaseRegion) -> ConeSet:
    """The conical lift of the outward conormal of a closed region (base
    points over the region at t = 0, outward codirections over the rim)."""
    grid = region.grid.base_only()
    if len(grid.base) != 1:
        raise ValueError("conormal samples implemented for 1-d bases")
    g = grid.base[0]
    pts = []
    cells = sorted(c[0] for c in region.base_cells())
    cellset = set(cells)
    for c in cells:
        x = (g.cell_coord(c),)
        pts.append((x, 0.0, (0.0,), 1))
        pts.append((x, 0.0, (0.0,), 0))
    for c in cells:
        if c & 1 == 0:
            k = c >> 1
            for e, s in g.vertex_cofaces(k):
                if e not in cellset:
                    # rim vertex: outward direction sign = +1 to the right
                    out = 1.0 if s == -1 else -1.0
                    for mult in (0.5, 1.0, 2.0):
                        pts.append(((g.cell_coord(c),), 0.0, (out * mult,), 1))
    return ConeSet(tuple(sorted(set(pts))))


def singular_support(F: TameSheaf, tau_res=None, p_samples=9) -> ConeSet:
    """Estimated codirections by the affine test: (x, t; p, 1) enters when
    the level line of slope p is tangent to a front branch at (x, t), i.e.
    when the tilted branch value s(x') = t(x') - p x' has a local extremum
    at x at the sampling resolution.  (A transverse crossing propagates
    sections; only tangencies obstruct them.)"""
    if F.kind == "gf":
        fronts = _gf_front_samples(F.gf)
        g = F.gf.grid.base[0] if len(F.gf.grid.base) == 1 else None
    elif F.kind == "cell":
        fronts = _cell_front_samples(F.cell)
        g = F.cell.base.base[0] if len(F.cell.base.base) == 1 else None
    else:
        raise ValueError("singular support needs a GF or cellular "
                         "presentation")
    if g is None:
        raise ValueError("SS estimation implemented for 1-d bases")
    tau_res = tau_res or g.spacing
    return _front_tangency_ss(fronts, g, tau_res, p_samples)


def _gf_front_samples(gf: GenFun):
    """Per base vertex: list of (t, p, tol) strand samples."""
    g = gf.grid.base[0]
    out = {}
    for j in range(g.n_vertices):
        out[j] = [(cp.value, cp.p[0], cp.val_tol)
                  for cp in gf.fiber_critical_data((j,))]
    return out


def _cell_front_samples(cell: CellSheaf):
    """Stalk-jump loci per base vertex: breaks where the stalk class jumps,
    with the slope read from the neighboring jump loci."""
    g = cell.base.base[0]
    taxis = cell.taxis

    def jumps(j):
        vals = []
        bc = (2 * j,)
        for i, b in enumerate(taxis.breaks):
            above = _stalk_rank_signature(cell, bc, taxis.rep(("v", i)))
            below = _stalk_rank_signature(cell, bc, taxis.rep_below(("v", i)))
            if above != below:
                vals.append(b)
        return vals

    cache = {j: jumps(j) for j in range(g.n_vertices)}
    tol = 1e-9 * max(1.0, abs(taxis.breaks[0]), abs(taxis.breaks[-1]))
    out = {}
    for j in range(g.n_vertices):
        recs = []
        for b in cache[j]:
            # slope from nearest jump values at the neighbor vertices
            slopes = []
            for dj in (-1, 1):
                j2 = (j + dj) % g.n_vertices if g.topology == "circle" \
                    else j + dj
                if not (0 <= j2 < g.n_vertices):
                    continue
                cand = cache[j2]
                if cand:
                    nearest = min(cand, key=lambda v: abs(v - b))
                    slopes.append((nearest - b) / (dj * g.spacing))
            p = float(np.mean(slopes)) if slopes else 0.0
            recs.append((b, p, tol))
        out[j] = recs
    return out


def _stalk_rank_signature(cell: CellSheaf, bc, thr):
    st = cell.stalk(bc, thr)
    C = ChainComplex([lbl for lbl, _ in st.gens],
                     {lbl: k for lbl, k in st.gens},
                     st.d_map(), cell.field, check=False)
    return tuple(sorted(C.cohomology_ranks().items()))


def _front_tangency_ss(fronts, g, tau_res, p_samples) -> ConeSet:
    all_ps = [p for recs in fronts.values() for (_t, p, _tol) in recs]
    if not all_ps:
        return ConeSet((), tau_res)
    pad = 0.5 * (1 + max(abs(p) for p in all_ps))
    pgrid = sorted(set(np.linspace(min(all_ps) - pad, max(all_ps) + pad,
                                   p_samples)))
    pts = []
    for j, recs in fronts.items():
        x = g.origin + g.spacing * j
        for (t, p_strand, tol) in recs:
            pts.append(((x,), t, (0.0,), 0))  # zero-codirection base point
            for p in list(pgrid) + [p_strand]:
                if _is_tangency(fronts, g, j, t, p, tol):
                    pts.append(((x,), t, (float(p),), 1))
    return ConeSet(tuple(sorted(set(pts))), tau_res)


def _is_tangency(fronts, g, j, t, p, tol):
    """Center value of the tilted branch s(x) = t(x) - p x is a one-sided
    local extremum over the 2-cell probe, at curvature resolution.

    The tie tolerance is the branch's sampled second difference (its sag),
    so linear fronts resolve slopes sharply while curved fronts keep their
    honest quadratic collar.
    """
    nv = len(fronts)
    x0 = g.origin + g.spacing * j
    s0 = t - p * x0
    center = fronts[j]
    ordinal = min(range(len(center)), key=lambda i: abs(center[i][0] - t))
    vals = {}
    for dj in (-2, -1, 1, 2):
        j2 = (j + dj) % nv if g.topology == "circle" else j + dj
        if not (0 <= j2 < nv):
            continue
        other = fronts[j2]
        if len(other) != len(center):
            return None  # strand count changes: cusp column, no verdict
        x2 = x0 + dj * g.spacing  # unwrapped coordinate for the tilt
        vals[dj] = other[ordinal][0] - p * x2  # ordinal branch matching
    if 1 not in vals or -1 not in vals:
        return None  # boundary column: no interior tangency verdict
    sag = abs(vals[1] - 2 * s0 + vals[-1])
    if 2 in vals and -2 in vals:
        sag = max(sag, abs(vals[2] - 2 * s0 + vals[-2]) / 4)
    # realized curvature-plus-noise of the matched branch; the a-priori value
    # tolerance is deliberately not added (it over-widens the cone)
    eps = 1.5 * sag + 1e-9
    side = list(vals.values())
    if all(v >= s0 - eps for v in side):
        return True
    if all(v <= s0 + eps for v in side):
        return True
    return False
