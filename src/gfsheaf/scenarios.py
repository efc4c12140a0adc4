"""Scenario files: TOML (JSON accepted too), resolved into named inputs and
a task list; every task writes artifacts and a summary row, and
oracle-compare tasks fail loudly on any rank disagreement.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import random
import tomllib

import numpy as np

from . import io as iox
from .fixtures import cusp_genfun, pure_quad_genfun, stabilized_graph_genfun
from .floer import GraphBrane, SuperlevelHome, pant_product, \
    conormal_limit_ranks
from .genfun import (GenFun, QuadForm, brane_of, cerf_diagram, gf_cohomology,
                     graph_genfun)
from .grids import BaseRegion, BoxGrid, SampledFunction, circle_grid, \
    interval_grid, sublevel_filtration
from .linalg import FIELDS, GF2
from .products import (STRATEGIES, convolve, dualize, pushforward_barcode,
                       rhom_tensor, tensor, unit)
from .rectify import (check_coherence, index_complex_homology,
                      perturb_coherent, rectify_at,
                      strict_synthetic_diagram)
from .sheaves import (conify, front_interior_table, microstalk, quantize,
                      section_barcode, sections, singular_support,
                      to_cellular)
from .complexes import is_quasi_iso

INF = math.inf


# ---------------------------------------------------------------------------
# reading a scenario file

class ScenarioParseError(ValueError):
    """A scenario file, or a value in it, that the runner cannot use."""


def load_scenario(path):
    """The scenario at path: JSON for a .json path, TOML otherwise.  A file
    its decoder refuses (duplicate keys and redeclared tables among others)
    is an input error."""
    with open(path) as fh:
        text = fh.read()
    decode = json.loads if path.endswith(".json") else tomllib.loads
    try:
        spec = decode(text)
    except (json.JSONDecodeError, tomllib.TOMLDecodeError) as e:
        raise ScenarioParseError(str(e)) from e
    _check_shape(spec)
    return spec


def _check_shape(spec):
    """Raise ScenarioParseError unless spec has the shape the runner reads:
    a table whose scenario, inputs, inputs.functions, inputs.genfuns and
    inputs.regions are tables (the last three of tables), and whose tasks
    are an array of tables."""
    if not isinstance(spec, dict):
        raise ScenarioParseError(f"a scenario must be a table, got {spec!r}")
    for key in ("scenario", "inputs"):
        if not isinstance(spec.get(key, {}), dict):
            raise ScenarioParseError(
                f"{key} must be a table, got {spec[key]!r}")
    for key, group in spec.get("inputs", {}).items():
        if key in ("functions", "genfuns", "regions") and not (
                isinstance(group, dict)
                and all(isinstance(cfg, dict) for cfg in group.values())):
            raise ScenarioParseError(
                f"inputs.{key} must be a table of tables, got {group!r}")
    tasks = spec.get("tasks", [])
    if not (isinstance(tasks, list)
            and all(isinstance(task, dict) for task in tasks)):
        raise ScenarioParseError(
            f"tasks must be an array of tables, got {tasks!r}")


# ---------------------------------------------------------------------------
# input resolution

def _is_finite_real(value):
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


# the largest grid size per axis a scenario may ask for; the bundled
# scenarios ask for at most 256 at grid scale 4
MAX_AXIS_N = 4096
# index_complex_homology(m) grows about fourfold in time per step of m (1.9
# s and 100 MB at 8); singular_support is linear in p_samples (about 1 s
# per 900 samples on the bundled cusp).
MAX_SUBLEMMA_SIZE = 8
MAX_P_SAMPLES = 1000


def _integer(value, key, lo, hi=math.inf):
    """A task's integer value in [lo, hi]; anything else is an input error."""
    if not (isinstance(value, int) and not isinstance(value, bool)
            and lo <= value <= hi):
        raise ScenarioParseError(
            f"{key} must be an integer in [{lo}, {hi}], got {value!r}")
    return value


def _real(value, key, infinite=False):
    """A task's real value as a float: finite, or also +-inf when infinite
    is set; anything else is an input error."""
    if not (_is_finite_real(value) or infinite and value in (-INF, INF)):
        raise ScenarioParseError(f"{key} must be a real number, got {value!r}")
    return float(value)


def _array(value, key):
    """An array value; anything else is an input error."""
    if not isinstance(value, list):
        raise ScenarioParseError(f"{key} must be an array, got {value!r}")
    return value


def _reals(value, key):
    """An array of finite reals as a tuple of floats; anything else is an
    input error."""
    return tuple(_real(v, key) for v in _array(value, key))


def _interval(cfg, n):
    """The interval grid of n cells on [lo, hi] of cfg, by default [0, 1];
    lo and hi must be finite with lo < hi."""
    lo, hi = _real(cfg.get("lo", 0.0), "lo"), _real(cfg.get("hi", 1.0), "hi")
    if not lo < hi:
        raise ScenarioParseError(f"lo must be below hi, got {lo!r}, {hi!r}")
    return interval_grid(n, lo, hi)


def check_grid_scale(value):
    """A grid scale as a float; anything but a finite positive number is an
    input error."""
    if not _is_finite_real(value) or value <= 0:
        raise ScenarioParseError(
            f"grid_scale must be a finite positive number, got {value!r}")
    return float(value)


class ScenarioContext:
    def __init__(self, spec, seed=None, field="f2", grid_scale=1.0):
        meta = spec.get("scenario", {})
        self.name = meta.get("name", "scenario")
        if not isinstance(self.name, str):
            raise ScenarioParseError(
                f"name must be a string, got {self.name!r}")
        file_seed = _integer(meta.get("seed", 0), "seed", -INF)
        self.seed = file_seed if seed is None else seed
        self.field = FIELDS[meta.get("field", field)]
        self.grid_scale = check_grid_scale(meta.get("grid_scale", grid_scale))
        self.functions = {}
        self.genfuns = {}
        self.regions = {}
        inputs = spec.get("inputs", {})
        for name, cfg in inputs.get("functions", {}).items():
            self.functions[name] = self._build_function(cfg)
        for name, cfg in inputs.get("genfuns", {}).items():
            self.genfuns[name] = self._build_genfun(cfg)
        for name, cfg in inputs.get("regions", {}).items():
            self.regions[name] = cfg  # resolved lazily against a grid

    def _n(self, cfg, key, default):
        """The grid size cfg[key] (or default) times the grid scale, at
        least 4.  A value that is no positive number, or a scaled size above
        MAX_AXIS_N, is an input error, raised before anything is built."""
        value = cfg.get(key, default)
        if not _is_finite_real(value):
            raise ScenarioParseError(
                f"{key} must be a finite number, got {value!r}")
        if value <= 0:
            raise ScenarioParseError(f"{key} must be positive, got {value!r}")
        scaled = value * self.grid_scale
        if not scaled < MAX_AXIS_N + 0.5:
            raise ScenarioParseError(
                f"{key} = {value!r} at grid scale {self.grid_scale:g} gives "
                f"grid size {scaled:.6g}, above the per-axis ceiling of "
                f"{MAX_AXIS_N}")
        return max(4, int(round(scaled)))

    def _build_function(self, cfg):
        kind = cfg.get("grid", "circle")
        n = self._n(cfg, "n", 32)
        if kind == "circle":
            grid = BoxGrid((circle_grid(n),))
        elif kind == "torus":
            n2 = self._n(cfg, "n2", n)
            grid = BoxGrid((circle_grid(n), circle_grid(n2)))
        elif kind == "interval":
            grid = BoxGrid((_interval(cfg, n),))
        else:
            raise ScenarioParseError(f"unknown grid kind {kind!r}")
        if "values" in cfg:
            vals = np.array(_reals(cfg["values"], "values"))
            return SampledFunction(grid, vals.reshape(grid.vertex_shape))
        return SampledFunction.from_expr(grid, cfg["expr"])

    def _build_genfun(self, cfg):
        kind = cfg.get("kind", "expr")
        if kind == "cusp":
            return cusp_genfun(n_base=self._n(cfg, "n_base", 32),
                               n_fiber=self._n(cfg, "n_fiber", 64))
        if kind == "graph":
            return graph_genfun(self.functions[cfg["function"]])
        if kind == "stabilized-graph":
            return stabilized_graph_genfun(
                self.functions[cfg["function"]],
                coeffs=_reals(cfg.get("coeffs", [1.0]), "coeffs"),
                n_fiber=self._n(cfg, "n_fiber", 16))
        if kind == "pure-quadratic":
            base = circle_grid(self._n(cfg, "n_base", 16))
            return pure_quad_genfun((base,),
                                    _reals(cfg.get("coeffs"), "coeffs"),
                                    n_fiber=self._n(cfg, "n_fiber", 16))
        if kind == "expr":
            n_base = self._n(cfg, "n_base", 32)
            base = (circle_grid(n_base) if cfg.get("base", "circle") ==
                    "circle" else _interval(cfg, n_base))
            radius = _real(cfg.get("radius", 4.0), "radius")
            if radius <= 0:
                raise ScenarioParseError(
                    f"radius must be positive, got {radius!r}")
            q = tuple(_reals(row, "q") for row in _array(cfg.get("q"), "q"))
            fibers = tuple(interval_grid(self._n(cfg, "n_fiber", 32),
                                         -radius, radius) for _ in q)
            grid = BoxGrid((base,), fibers)
            S = SampledFunction.from_expr(grid, cfg["expr"])
            return GenFun(S, QuadForm(q),
                          tau_q=_real(cfg.get("tau_q", 1e-7), "tau_q"))
        raise ScenarioParseError(f"unknown genfun kind {kind!r}")

    def region_on(self, name, grid):
        """The region name on the base of grid.  An arc [lo, hi] takes the
        cell ids 0 <= lo <= hi < n_cells of a 1-d base; cells lists cell ids,
        one integer per base axis, each in range.  Anything else is an input
        error."""
        cfg = self.regions[name]
        shape = grid.base_cell_shape
        if "arc" in cfg:
            arc = cfg["arc"]
            if len(shape) != 1:
                raise ScenarioParseError(
                    f"region {name!r}: an arc needs a 1-d base, this base "
                    f"has {len(shape)} axes")
            if not (isinstance(arc, list) and len(arc) == 2):
                raise ScenarioParseError(
                    f"region {name!r}: arc must be [lo, hi], got {arc!r}")
            lo = _integer(arc[0], f"region {name!r} arc lo", 0, shape[0] - 1)
            hi = _integer(arc[1], f"region {name!r} arc hi", lo, shape[0] - 1)
            return BaseRegion.interval_arc(grid, lo, hi)
        if "cells" in cfg:
            cells = []
            for c in _array(cfg.get("cells", []), "cells"):
                if not (isinstance(c, list) and len(c) == len(shape)):
                    raise ScenarioParseError(
                        f"region {name!r}: a cell must be an array of "
                        f"{len(shape)} integers, got {c!r}")
                cells.append(tuple(_integer(v, f"region {name!r} cell id", 0,
                                            n - 1) for v, n in zip(c, shape)))
            return BaseRegion.from_cells(grid, cells)
        raise ScenarioParseError(f"region {name!r} needs arc or cells")

    def sheaf_for(self, ref):
        if ref in self.genfuns:
            return quantize(self.genfuns[ref])
        if ref in self.functions:
            return quantize(graph_genfun(self.functions[ref]))
        if ref == "unit":
            grid = next(iter(self.functions.values())).grid
            return unit(grid)
        raise ScenarioParseError(f"unresolved sheaf reference {ref!r}")


# ---------------------------------------------------------------------------
# task runners

def _window(task):
    return (_real(task.get("a", -INF), "a", infinite=True),
            _real(task.get("b", INF), "b", infinite=True))


def run_task(ctx: ScenarioContext, task, out_dir):
    op = task["op"]
    runner = _RUNNERS.get(op)
    if runner is None:
        raise ScenarioParseError(f"unknown task op {op!r}")
    return runner(ctx, task, out_dir)


def _out(task, out_dir, default):
    return os.path.join(out_dir, task.get("out", default))


def _window_sections(task, out_dir, default, F, region=None, field=GF2,
                     check_regular=False):
    """A single-window op: the sections of F over region x [a, b) of the
    task's window, written as one rank table."""
    a, b = _window(task)
    ranks = sections(F, region, a, b, field=field,
                     check_regular=check_regular)
    iox.write_csv(_out(task, out_dir, default),
                  iox.ranks_to_rows([(f"[{a},{b})", ranks)]))
    return {"status": "done", "ranks": {str(k): v for k, v in ranks.items()}}


def _task_sections(ctx, task, out_dir):
    F = ctx.sheaf_for(task["sheaf"])
    region = None
    if "region" in task:
        region = ctx.region_on(task["region"], F.base_grid)
    return _window_sections(
        task, out_dir, "sections.csv", F, region, field=ctx.field,
        check_regular=bool(task.get("check_regular", False)))


def _task_quantize(ctx, task, out_dir):
    gf = ctx.genfuns[task["genfun"]]
    F = quantize(gf)
    diagram = cerf_diagram(gf)
    iox.write_csv(_out(task, out_dir, "cerf.csv"), diagram.to_csv_rows())
    if task.get("svg"):
        iox.write_front_svg(os.path.join(out_dir, task["svg"]),
                            diagram.strands)
    return {"status": "done", "strands": len(diagram.strands),
            "breakpoints": len(diagram.breakpoints)}


def _task_microstalk(ctx, task, out_dir):
    F = ctx.sheaf_for(task["sheaf"])
    grid1 = F.base_grid.base[0]
    rows = [("x", "t", "total_rank")]
    tables = []
    for cell in range(0, grid1.n_cells, 2):
        x = grid1.cell_coord(cell)
        for t in _array(task.get("t_values", [0.0]), "t_values"):
            r = microstalk(F, (cell,), _real(t, "t_values"))
            rows.append((x, t, sum(r.values())))
            tables.append(sum(r.values()))
    iox.write_csv(_out(task, out_dir, "microstalk.csv"), rows)
    return {"status": "done", "nonzero": sum(1 for t in tables if t)}


def _task_front_table(ctx, task, out_dir):
    gf = ctx.genfuns[task["genfun"]]
    F = quantize(gf)
    grid1 = gf.grid.base[0]
    band_top = _real(task.get("band_top", 1.0), "band_top")
    rows = [("x", "t", "inside_rank")]
    for cell in range(0, grid1.n_cells, max(2, grid1.n_cells // 16)):
        if cell & 1:
            continue
        x = grid1.cell_coord(cell)
        for t in _array(task.get("t_values", [0.0]), "t_values"):
            if _real(t, "t_values") >= band_top:
                continue
            val = front_interior_table(F, (cell,), float(t), band_top)
            rows.append((x, t, val))
    iox.write_csv(_out(task, out_dir, "front_table.csv"), rows)
    return {"status": "done"}


def _task_ss(ctx, task, out_dir):
    p_samples = _integer(task.get("p_samples", 9), "p_samples", 1,
                         MAX_P_SAMPLES)
    p_scale = _real(task.get("p_scale", 5.0), "p_scale")
    gf = ctx.genfuns[task["genfun"]]
    ss = singular_support(quantize(gf), p_samples=p_samples)
    cone = conify(brane_of(gf))
    iox.write_csv(_out(task, out_dir, "ss.csv"), ss.to_csv_rows())
    if task.get("svg"):
        iox.write_front_svg(os.path.join(out_dir, task["svg"]),
                            [(x, t) + ((), 0) for (x, t, _p, tau)
                             in cone.points if tau == 0],
                            cone_points=ss.points)
    g = gf.grid.base[0]
    scales = (g.spacing, 2 * gf.tau_val() + 1e-6,
              p_scale * g.spacing, 1.0)
    dist = ss.hausdorff(cone, scales)
    status = "pass" if dist <= 2.0 else "fail"
    return {"status": status, "hausdorff_cells": dist}


def _task_barcode(ctx, task, out_dir):
    f = ctx.functions[task["function"]]
    bc = sublevel_filtration(f, ctx.field).barcode()
    iox.write_csv(_out(task, out_dir, "barcode.csv"), bc.to_csv_rows())
    if task.get("svg"):
        iox.write_barcode_svg(os.path.join(out_dir, task["svg"]), bc.bars)
    return {"status": "done", "bars": len(bc.bars)}


def _task_product(ctx, task, out_dir):
    """The sections of the tensor or convolve product of two sheaves."""
    op = task["op"]
    strategy = task.get("strategy", "auto")
    if strategy not in STRATEGIES:
        raise ScenarioParseError(
            f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    product = tensor if op == "tensor" else convolve
    P = product(ctx.sheaf_for(task["left"]), ctx.sheaf_for(task["right"]),
                strategy=strategy)
    return _window_sections(task, out_dir, f"{op}.csv", P)


def _task_dual(ctx, task, out_dir):
    F = ctx.sheaf_for(task["sheaf"])
    D = dualize(F)
    return _window_sections(task, out_dir, "dual.csv", D)


def _task_rhom(ctx, task, out_dir):
    F = ctx.sheaf_for(task["left"])
    G = ctx.sheaf_for(task["right"])
    R = rhom_tensor(F, G)
    bars = pushforward_barcode(R)
    iox.write_csv(_out(task, out_dir, "rhom_pushforward.csv"),
                  [("degree", "birth", "death")] +
                  [(d, b2, "inf" if math.isinf(x) else x)
                   for (d, b2, x) in bars])
    if task.get("svg"):
        iox.write_barcode_svg(os.path.join(out_dir, task["svg"]), bars)
    return {"status": "done", "bars": len(bars)}


def _carrier_safe_cuts(f, g):
    """Window cuts clear of the product carrier's resolution collar.

    The two-axis carrier can move rank jumps anywhere within the pairwise
    sums of the factors' value spectra; exact agreement with the one-axis
    model is guaranteed on windows whose endpoints clear that whole spectrum
    by more than the largest per-cell value spread.  Returns the midpoints
    of those of the ten widest spectrum gaps that are wide enough, with a
    cut below and a cut above everything."""
    fb = sorted(set(np.round(f.cell_max().ravel(), 9)))
    gb = sorted(set(np.round(g.cell_max().ravel(), 9)))
    spectrum = sorted({round(x + y, 9) for x in fb for y in gb} |
                      set(np.round((f + g).cell_max().ravel(), 9)))
    spread = float((f.cell_max() - f.cell_min()).max()
                   + (g.cell_max() - g.cell_min()).max())
    cuts = [spectrum[0] - 0.51 - spread]
    gaps = sorted(((y - x, x, y) for x, y in zip(spectrum, spectrum[1:])),
                  reverse=True)
    for (w, x, y) in gaps[:10]:
        if w > 2.2 * spread:
            cuts.append((x + y) / 2)
    cuts.append(spectrum[-1] + 0.49 + spread)
    return sorted(cuts)


def _task_unit_laws(ctx, task, out_dir):
    """Neutrality, shifted-unit addition, sum-of-graphs, and clamp duality."""
    rng = random.Random(ctx.seed)
    from .fixtures import random_circle_morse
    n = _integer(task.get("n", 12), "n", 4, MAX_AXIS_N)
    f = random_circle_morse(rng, n=n)
    g = random_circle_morse(rng, n=n)
    grid = f.grid
    failures = []
    Ff, Fg = quantize(graph_genfun(f)), quantize(graph_genfun(g))
    Fsum = quantize(graph_genfun(f + g))
    U = unit(grid)
    boxes = _integer(task.get("boxes", 8), "boxes", 0)
    regions = [None]
    g1 = grid.base[0]
    for _ in range(boxes):
        start = rng.randrange(g1.n_cells)
        width = rng.randrange(1, g1.n_cells // 2)
        mask = np.zeros(grid.base_cell_shape, dtype=bool)
        for k in range(width):
            mask[((start + k) % g1.n_cells,)] = True
        regions.append(BaseRegion(grid, mask))
    # exact route: the sum generating family against the pointwise sum
    vals = sorted(set(np.round((f + g).cell_max().ravel(), 9)))
    cuts_exact = [vals[0] - 0.51] + [
        (x + y) / 2 for x, y in zip(vals, vals[1:]) if y - x > 1e-6] + \
        [vals[-1] + 0.49]
    T_gf = tensor(Ff, Fg)  # generating-family strategy
    for region in regions:
        for a, b in zip(cuts_exact, cuts_exact[2:]):
            want = sections(Fsum, region, a, b, check_regular=False)
            got = sections(T_gf, region, a, b, check_regular=False)
            if got != want:
                failures.append(("sum", a, b, str(got), str(want)))
    # carrier cross-check on collar-cleared windows
    T = tensor(Ff, Fg, strategy="cell")
    cuts = _carrier_safe_cuts(f, g)
    for region in regions[:3]:
        for a, b in zip(cuts, cuts[1:]):
            want = sections(Fsum, region, a, b, check_regular=False)
            got = sections(T, region, a, b)
            if got != want:
                failures.append(("sum-carrier", a, b, str(got), str(want)))
    # neutrality: the unit contributes no collar (its corner is exact)
    bcf = sublevel_filtration(f).barcode()
    valsf = bcf.breakpoints()
    cutsf = [valsf[0] - 0.51] + [(x + y) / 2 for x, y in
                                 zip(valsf, valsf[1:])] + [valsf[-1] + 0.49]
    TU = tensor(Ff, U)
    for region in regions:
        for a, b in zip(cutsf, cutsf[1:]):
            want = sections(Ff, region, a, b, check_regular=False)
            got = sections(TU, region, a, b)
            if got != want:
                failures.append(("neutral", a, b, str(got), str(want)))
    status = "pass" if not failures else "fail"
    iox.write_csv(_out(task, out_dir, "unit_laws.csv"),
                  [("identity", "a", "b", "got", "want")] + failures
                  if failures else [("identity", "a", "b", "got", "want"),
                                    ("all", "-", "-", "equal", "equal")])
    return {"status": status, "failures": len(failures)}


def _task_oracle_compare(ctx, task, out_dir):
    """Three-route rank comparison on a graph pair or a generating family;
    the sheaf route reads every window off one section barcode."""
    mismatches = []
    if "pair" in task:
        fname, gname = task["pair"]
        f, g = ctx.functions[fname], ctx.functions[gname]
        h = g - f
        bc = sublevel_filtration(h).barcode()
        gfn = graph_genfun(h)
        sheaf_bc = section_barcode(to_cellular(quantize(gfn), spot_checks=0))
        vals = bc.breakpoints()
        cuts = [vals[0] - 0.5] + [(x + y) / 2 for x, y in
                                  zip(vals, vals[1:])] + [vals[-1] + 0.5]
        for i in range(len(cuts)):
            for j in range(i + 1, len(cuts)):
                a, b = cuts[i], cuts[j]
                r1 = bc.window_ranks(a, b)
                r2 = gf_cohomology(gfn, None, a, b, check_regular=False)
                r3 = sheaf_bc.window_ranks(a, b)
                if not (r1 == r2 == r3):
                    mismatches.append((a, b, str(r1), str(r2), str(r3)))
    else:
        gf = ctx.genfuns[task["genfun"]]
        bc = sublevel_filtration(gf.S).barcode()
        sheaf_bc = section_barcode(to_cellular(quantize(gf), spot_checks=0))
        diagram = cerf_diagram(gf)
        vals = list(diagram.breakpoints)
        cuts = [vals[0] - 0.3] + [(x + y) / 2 for x, y in
                                  zip(vals, vals[1:])] + [vals[-1] + 0.3]
        windows = list(zip(cuts, cuts[1:]))
        windows += [(cuts[0], cuts[-1])]
        for (a, b) in windows:
            r1 = {d - gf.i_q: r
                  for d, r in bc.window_ranks(a, b).items()}
            r1 = {d: r for d, r in r1.items() if r}
            r2 = gf_cohomology(gf, None, a, b, check_regular=False)
            r3 = sheaf_bc.window_ranks(a, b)
            if not (r1 == r2 == r3):
                mismatches.append((a, b, str(r1), str(r2), str(r3)))
    rows = [("a", "b", "filtered", "pair", "sheaf")] + mismatches
    iox.write_csv(_out(task, out_dir, "oracle_compare.csv"), rows)
    return {"status": "pass" if not mismatches else "fail",
            "mismatches": len(mismatches)}


def _task_rectify_check(ctx, task, out_dir):
    from .rectify import e2_csv_rows, e2_page, serialize_diagram
    rng = random.Random(ctx.seed)
    count = _integer(task.get("count", 10), "count", 1)
    rows = [("instance", "coherent", "quasi_iso")]
    ok_all = True
    last = None
    for i in range(count):
        diagram = strict_synthetic_diagram(rng, n_functions=rng.choice([2, 3]),
                                           max_gens=rng.randint(6, 10))
        perturbed = perturb_coherent(diagram, seed=ctx.seed + i, density=0.3)
        ok, _rep = check_coherence(perturbed)
        R, inc = rectify_at(perturbed, 0)
        qi = is_quasi_iso(inc)
        rows.append((i, ok, qi))
        ok_all = ok_all and ok and qi
        last = (diagram, perturbed)
    iox.write_csv(_out(task, out_dir, "rectify_check.csv"), rows)
    if last is not None:
        iox._atomic_write(os.path.join(out_dir, "last_diagram.txt"),
                          serialize_diagram(last[1]))
        iox.write_csv(os.path.join(out_dir, "e2_page.csv"),
                      e2_csv_rows(e2_page(last[0], 0)))
    return {"status": "pass" if ok_all else "fail"}


# The refusals on which a cup triple is redrawn: a threshold that sits too
# close to the value spectrum (a pushed class, a cup product or a pant
# product that is not a cocycle there), or a class over a cell where a
# stalk never opens.  Any other error fails the task.
CUP_REFUSALS = ("too close to the value spectrum", "stalk never opens")


def _task_cup(ctx, task, out_dir):
    """Multiplication tables of the threshold-additive product against the
    base-level cup product, entry for entry.  Each triple builds its three
    product homes once and solves each of its two tables against one
    reduction; its rows count only when the whole triple succeeds, and a
    triple is redrawn only on a refusal of CUP_REFUSALS."""
    from .complexes import class_coordinates
    from .fixtures import random_circle_morse
    from .products import (ProductHome, class_table, cup_product,
                           floer_to_product_classes)
    from .sheaves import _as_cellsheaf
    rng = random.Random(ctx.seed)
    n = _integer(task.get("n", 12), "n", 4, MAX_AXIS_N)
    rows = [("triple", "entry", "pant", "sum_product")]
    mismatches = 0
    done = 0
    attempts = 0
    triples = _integer(task.get("triples", 3), "triples", 1)
    while done < triples and attempts < 30:
        attempts += 1
        f = random_circle_morse(rng, n=n)
        g = random_circle_morse(rng, n=n)
        h = random_circle_morse(rng, n=n)
        h1, h2, h3 = g - f, h - g, h - f
        lam = float(h1.values.min()) - rng.uniform(0.3, 0.8)
        mu = float(h2.values.min()) - rng.uniform(0.3, 0.8)
        try:
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
            out_home = ProductHome(CA1, CB3, lam + mu)
            alpha = floer_to_product_classes(ProductHome(CA1, CB2, lam), B1)
            beta = floer_to_product_classes(ProductHome(CA2, CB3, mu), B2)
            pushed = floer_to_product_classes(out_home, B3)
            entries = [(i, j) for i in range(len(B1)) for j in range(len(B2))]
            pant = class_coordinates(
                target.complex, [v for _, v in B3],
                [pant_product(home1, B1[i][1], home2, B2[j][1], target)
                 for i, j in entries])
            cup = class_table(
                out_home, [cup_product(alpha[i], beta[j], out_home)
                           for i, j in entries], pushed)
        except (ValueError, AssertionError) as e:
            if not any(refusal in str(e) for refusal in CUP_REFUSALS):
                raise
            continue
        for (i, j), row_p, row_c in zip(entries, pant, cup):
            rows.append((done, f"({i},{j})", str(row_p), str(row_c)))
            if row_p != row_c:
                mismatches += 1
        done += 1
    iox.write_csv(_out(task, out_dir, "cup_tables.csv"), rows)
    status = "pass" if done and not mismatches else "fail"
    return {"status": status, "triples": done, "mismatches": mismatches}


def _task_sublemma(ctx, task, out_dir):
    rows = [("m", "delta_ranks", "twisted_ranks")]
    ok = True
    sizes = [_integer(m, "sizes", 2, MAX_SUBLEMMA_SIZE)
             for m in _array(task.get("sizes", [2, 3, 4, 5]), "sizes")]
    for m in sizes:
        out = index_complex_homology(m)
        rows.append((m, str(out["delta_ranks"]), str(out["twisted_ranks"])))
        ok = ok and all(r == 0 for r in out["delta_ranks"].values())
        tw = out["twisted_ranks"]
        ok = ok and tw.get(0, 0) == 1 and \
            all(r == 0 for k, r in tw.items() if k != 0)
    iox.write_csv(_out(task, out_dir, "sublemma.csv"), rows)
    return {"status": "pass" if ok else "fail"}


def _task_reduce(ctx, task, out_dir):
    f = ctx.functions[task["function"]]
    F = quantize(graph_genfun(f))
    region = ctx.region_on(task["region"], f.grid)
    a, b = _window(task)
    direct = sections(F, region, a, b, check_regular=False)
    limit, cert = conormal_limit_ranks(region, GraphBrane(f), a, b)
    status = "pass" if direct == limit else "fail"
    iox.write_csv(_out(task, out_dir, "reduce.csv"),
                  [("route", "ranks"), ("restriction", str(direct)),
                   ("tubular-limit", str(limit)),
                   ("stabilized_at", cert.stabilized_at)])
    return {"status": status, "stabilized_at": cert.stabilized_at}


_RUNNERS = {
    "cup": _task_cup,
    "sections": _task_sections,
    "quantize": _task_quantize,
    "microstalk": _task_microstalk,
    "front-table": _task_front_table,
    "ss": _task_ss,
    "barcode": _task_barcode,
    "tensor": _task_product,
    "convolve": _task_product,
    "dual": _task_dual,
    "rhom": _task_rhom,
    "unit-laws": _task_unit_laws,
    "oracle-compare": _task_oracle_compare,
    "rectify-check": _task_rectify_check,
    "sublemma": _task_sublemma,
    "reduce": _task_reduce,
}


def run_scenario(path, out_dir=None, seed=None, field="f2", grid_scale=1.0,
                 fail_fast=False):
    """Execute a scenario file; returns (exit_code, summary dict)."""
    try:
        spec = load_scenario(path)
        ctx = ScenarioContext(spec, seed=seed, field=field,
                              grid_scale=grid_scale)
    except (ValueError, KeyError, OSError) as e:
        # ScenarioParseError and ExprError are ValueErrors too
        return 2, {"error": str(e), "scenario": str(path)}
    out_dir = out_dir or (ctx.name + "-out")
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as e:
        # a regular file at out_dir or on the way to it
        return 2, {"error": f"cannot use {out_dir!r} as output directory: "
                            f"{e.strerror or e}", "scenario": str(path)}
    summary = {"scenario": ctx.name, "seed": ctx.seed, "tasks": []}
    code = 0
    for index, task in enumerate(spec.get("tasks", [])):
        entry = {"index": index, "op": task.get("op", "?"),
                 "certifies": task.get("certifies", "")}
        try:
            result = run_task(ctx, task, out_dir)
            entry.update(result)
        except (ScenarioParseError, KeyError) as e:
            entry["status"] = "input-error"
            entry["message"] = f"unresolved reference or bad field: {e}"
            code = max(code, 2)
        except (ValueError, RuntimeError, AssertionError) as e:
            entry["status"] = "fail"
            entry["message"] = str(e)
        summary["tasks"].append(entry)
        if entry.get("status") == "fail":
            code = max(code, 1)
            if fail_fast:
                break
    iox.write_json(os.path.join(out_dir, "summary.json"), summary)
    return code, summary
