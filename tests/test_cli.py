import json
import math
import os
import subprocess
import sys

import pytest

from gfsheaf.cli import bundled_scenarios, main
from gfsheaf.scenarios import ScenarioParseError, load_scenario, run_scenario

INF = math.inf


def test_toml_subset_parser(tmp_path):
    path = tmp_path / "s.toml"
    path.write_text("""
# comment
[scenario]
name = "demo"
seed = 3
scale = 1.5
flag = true

[inputs.functions.f]
expr = "cos(2*pi*x)"
n = 16

[[tasks]]
op = "barcode"
function = "f"
values = [1, 2.5, -3]

[[tasks]]
op = "sections"
a = -inf
b = 0.25
name = "x"   # a trailing comment after a string
label = "a # b"
words = ["a,b", "c]", "[d"]
""")
    spec = load_scenario(str(path))
    assert spec["scenario"]["name"] == "demo"
    assert spec["scenario"]["seed"] == 3
    assert spec["scenario"]["flag"] is True
    assert spec["inputs"]["functions"]["f"]["n"] == 16
    assert len(spec["tasks"]) == 2
    assert spec["tasks"][0]["values"] == [1, 2.5, -3]
    assert spec["tasks"][1]["a"] == -INF
    assert spec["tasks"][1]["name"] == "x"
    assert spec["tasks"][1]["label"] == "a # b"
    assert spec["tasks"][1]["words"] == ["a,b", "c]", "[d"]


def test_toml_parse_error_carries_line(tmp_path):
    path = tmp_path / "s.toml"
    # ends in a newline: on an unterminated last line tomllib reports the
    # position as "at end of document"
    path.write_text("[scenario]\noops\n")
    with pytest.raises(ScenarioParseError) as err:
        load_scenario(str(path))
    assert "line 2" in str(err.value)


def test_bundled_scenarios_exist():
    names = [os.path.basename(p) for p in bundled_scenarios()]
    assert "cusp.toml" in names
    assert "unit-laws.toml" in names


def test_empty_task_list_succeeds(tmp_path):
    path = tmp_path / "empty.toml"
    path.write_text('[scenario]\nname = "empty"\nseed = 1\n')
    code, summary = run_scenario(str(path), out_dir=str(tmp_path / "out"))
    assert code == 0
    assert summary["tasks"] == []


def test_parse_error_exit_code(tmp_path):
    path = tmp_path / "bad.toml"
    path.write_text("[scenario\nname=3\n")
    code, summary = run_scenario(str(path), out_dir=str(tmp_path / "out"))
    assert code == 2
    assert "error" in summary


def test_unknown_reference_is_input_error(tmp_path):
    path = tmp_path / "s.toml"
    path.write_text(
        '[scenario]\nname = "s"\nseed = 1\n'
        '[[tasks]]\nop = "barcode"\nfunction = "missing"\n')
    code, summary = run_scenario(str(path), out_dir=str(tmp_path / "out"))
    assert code >= 1  # surfaced, not swallowed


def test_run_scenario_determinism(tmp_path):
    path = tmp_path / "det.toml"
    path.write_text("""
[scenario]
name = "det"
seed = 5

[inputs.functions.f]
expr = "0.5*cos(2*pi*x) + 0.25*sin(4*pi*x)"
grid = "circle"
n = 16

[[tasks]]
op = "barcode"
function = "f"
out = "bars.csv"
svg = "bars.svg"

[[tasks]]
op = "sections"
sheaf = "f"
a = -2.017
b = 2.013
out = "sections.csv"
""")
    outs = []
    for run in (1, 2):
        out = tmp_path / f"out{run}"
        code, _ = run_scenario(str(path), out_dir=str(out))
        assert code == 0
        outs.append({name: (out / name).read_bytes()
                     for name in os.listdir(out)})
    assert outs[0] == outs[1]


def test_cli_main_list(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    assert "cusp.toml" in out


def test_cli_run_exit_codes(tmp_path, capsys):
    bad = tmp_path / "nope.toml"
    bad.write_text("[scenario\n")
    assert main(["run", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
    good = tmp_path / "ok.toml"
    good.write_text('[scenario]\nname = "ok"\nseed = 1\n')
    assert main(["run", str(good), "--out-dir", str(tmp_path / "o2")]) == 0


def test_summary_lists_check_ids(tmp_path):
    src = [p for p in bundled_scenarios() if p.endswith("rectify.toml")][0]
    code, summary = run_scenario(src, out_dir=str(tmp_path / "out"), seed=19)
    assert code == 0
    ids = [t["certifies"] for t in summary["tasks"]]
    assert all(ids)
    data = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert data["scenario"] == "rectify"


def test_sampled_function_serialization(tmp_path):
    from gfsheaf.fixtures import circle_function, cusp_genfun
    from gfsheaf.io import write_sampled_function_csv
    f = circle_function("0.4*cos(2*pi*x)", n=8)
    path = tmp_path / "fn.csv"
    write_sampled_function_csv(str(path), f)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("header,base:circle:8:")
    assert len(lines[1].split(",")) == 1 + f.values.size
    gf = cusp_genfun(n_base=8, n_fiber=48)
    path2 = tmp_path / "gf.csv"
    write_sampled_function_csv(str(path2), gf.S, quad=gf.Q)
    assert "q:-1.0" in path2.read_text().splitlines()[0]


def test_expression_genfun_scenario(tmp_path):
    path = tmp_path / "gf.toml"
    path.write_text("""
[scenario]
name = "exprgf"
seed = 2

[inputs.genfuns.stab]
kind = "expr"
expr = "0.2*cos(2*pi*x) + xi^2"
base = "circle"
n_base = 12
n_fiber = 12
radius = 3.0
q = [[1.0]]

[[tasks]]
op = "sections"
sheaf = "stab"
a = -0.451
b = 0.453
out = "sections.csv"
""")
    code, summary = run_scenario(str(path), out_dir=str(tmp_path / "out"))
    assert code == 0
    assert summary["tasks"][0]["ranks"] == {"0": 1, "1": 1}


def test_convolve_task(tmp_path):
    path = tmp_path / "c.toml"
    path.write_text("""
[scenario]
name = "conv"
seed = 4

[inputs.functions.f]
expr = "0.4*cos(2*pi*x)"
grid = "circle"
n = 8

[inputs.functions.g]
expr = "0.3*sin(2*pi*x)"
grid = "circle"
n = 12

[[tasks]]
op = "convolve"
left = "f"
right = "g"
a = -inf
b = inf
out = "convolve.csv"
""")
    code, summary = run_scenario(str(path), out_dir=str(tmp_path / "out"))
    assert code == 0
    assert summary["tasks"][0]["ranks"] == {"0": 1, "1": 2, "2": 1}


def test_tensor_task(tmp_path):
    path = tmp_path / "t.toml"
    path.write_text("""
[scenario]
name = "tensor"
seed = 4

[inputs.functions.f]
expr = "0.4*cos(2*pi*x)"
grid = "circle"
n = 8

[inputs.functions.g]
expr = "0.3*sin(2*pi*x)"
grid = "circle"
n = 8

[[tasks]]
op = "tensor"
left = "f"
right = "g"
a = -inf
b = 0.2
out = "tensor_gf.csv"

[[tasks]]
op = "tensor"
left = "f"
right = "g"
strategy = "cell"
a = -inf
b = 0.2
""")
    out = tmp_path / "out"
    code, summary = run_scenario(str(path), out_dir=str(out))
    assert code == 0
    # f + g = 0.5 cos(2 pi x - phi): an arc below 0.2
    assert [t["ranks"] for t in summary["tasks"]] == [{"0": 1}, {"0": 1}]
    want = "key,degree,rank\n[-inf,0.2),0,1\n"
    assert (out / "tensor_gf.csv").read_text() == want
    assert (out / "tensor.csv").read_text() == want


def test_reduction_ranks_are_plain_ints(tmp_path):
    path = next(p for p in bundled_scenarios()
                if os.path.basename(p) == "reduction.toml")
    code, _ = run_scenario(path, out_dir=str(tmp_path))
    assert code == 0
    rows = dict(line.split(",", 1) for line in
                (tmp_path / "reduce.csv").read_text().splitlines())
    assert rows["restriction"] == "{0: 1}"
    assert rows["restriction"] == rows["tubular-limit"]


@pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
def test_bad_grid_scale_flag_exits_2(tmp_path, capsys, scale):
    good = tmp_path / "ok.toml"
    good.write_text('[scenario]\nname = "ok"\nseed = 1\n')
    with pytest.raises(SystemExit) as err:
        main(["run", str(good), "--grid-scale", scale])
    assert err.value.code == 2
    assert "finite positive number" in capsys.readouterr().err


@pytest.mark.parametrize("name, text", [
    ("nan.json", '{"scenario": {"name": "s", "grid_scale": NaN}}'),
    ("inf.toml", '[scenario]\nname = "s"\ngrid_scale = inf\n'),
    ("zero.toml", '[scenario]\nname = "s"\ngrid_scale = 0\n'),
    ("minus.toml", '[scenario]\nname = "s"\ngrid_scale = -1\n'),
])
def test_bad_grid_scale_in_file_is_input_error(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text)
    code, summary = run_scenario(str(path), out_dir=str(tmp_path / "out"))
    assert code == 2
    assert "grid_scale must be a finite positive number" in summary["error"]
    assert main(["run", str(path), "--out-dir", str(tmp_path / "o")]) == 2
    assert "[input-error]" in capsys.readouterr().out


# the body of [inputs.functions.f], where a genfun g follows a good f.  A
# reversed or infinite interval, a negative radius and tau_q = inf ran,
# q = [1.0] raised TypeError with a traceback, and nan (which TOML reads)
# was refused only because the hand-written reader could not parse it
GENFUN = 'expr = "cos(2*pi*x)"\nn = 8\n[inputs.genfuns.g]\n'
EXPR_GENFUN = GENFUN + 'kind = "expr"\nexpr = "xi^2"\nq = [[1.0]]\n'
BAD_FUNCTIONS = {
    "unbalanced": ('expr = "cos(2*pi*x"\nn = 12\n', "expected ), found end"),
    "short-values": ("values = [1.0, 2.0, 3.0]\nn = 12\n",
                     "cannot reshape array of size 3"),
    "word-n": ('expr = "cos(2*pi*x)"\nn = "twelve"\n',
               "n must be a finite number, got 'twelve'"),
    "values-nan": ("values = [nan, 1.0, 2.0, 3.0]\nn = 4\n",
                   "values must be a real number, got nan"),
    "interval-reversed": ('grid = "interval"\nlo = 1.0\nhi = 0.0\n'
                          'expr = "x"\nn = 12\n',
                          "lo must be below hi, got 1.0, 0.0"),
    "interval-hi-inf": ('grid = "interval"\nhi = inf\nexpr = "x"\nn = 12\n',
                        "hi must be a real number, got inf"),
    "genfun-radius-negative": (EXPR_GENFUN + "radius = -1.0\n",
                               "radius must be positive, got -1.0"),
    "genfun-tau-q-inf": (EXPR_GENFUN + "tau_q = inf\n",
                         "tau_q must be a real number, got inf"),
    "genfun-q-row": (GENFUN + 'kind = "expr"\nexpr = "xi^2"\nq = [1.0]\n',
                     "q must be an array, got 1.0"),
    "genfun-q-word": (GENFUN + 'kind = "expr"\nexpr = "xi^2"\n'
                      'q = [["x"]]\n', "q must be a real number, got 'x'"),
    "genfun-coeffs-nan": (GENFUN + 'kind = "stabilized-graph"\n'
                          'function = "f"\ncoeffs = [nan]\n',
                          "coeffs must be a real number, got nan"),
}


@pytest.mark.parametrize("name", sorted(BAD_FUNCTIONS))
def test_bad_function_input_exits_2_without_traceback(tmp_path, name):
    body, message = BAD_FUNCTIONS[name]
    path = tmp_path / f"{name}.toml"
    path.write_text('[scenario]\nname = "s"\nseed = 1\n'
                    "[inputs.functions.f]\n" + body)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-m", "gfsheaf", "run", str(path), "--out-dir",
         str(tmp_path / "out")], capture_output=True, text=True, env=env,
        timeout=120)
    assert proc.returncode == 2
    assert "[input-error]" in proc.stdout and message in proc.stdout
    assert "Traceback" not in proc.stdout + proc.stderr


def test_oversize_grid_scale_is_refused_before_building(tmp_path, capsys):
    # 32 * 1e9 grid points per axis: refused by size, never allocated
    path = next(p for p in bundled_scenarios()
                if os.path.basename(p) == "cusp.toml")
    assert main(["run", path, "--grid-scale", "1e9", "--out-dir",
                 str(tmp_path / "out")]) == 2
    out = capsys.readouterr().out
    assert "[input-error]" in out
    assert "n_base = 32 at grid scale 1e+09 gives grid size 3.2e+10, " \
           "above the per-axis ceiling of 4096" in out


@pytest.mark.parametrize("value, message", [
    ("1e12", "n_base = 1000000000000.0 at grid scale 1 gives grid size "
             "1e+12, above the per-axis ceiling of 4096"),
    ("1e308", "above the per-axis ceiling"),
    ("-3", "n_base must be positive, got -3"),
    ("0", "n_base must be positive, got 0"),
])
def test_bad_grid_size_in_file_exits_2(tmp_path, capsys, value, message):
    path = tmp_path / "size.toml"
    path.write_text('[scenario]\nname = "s"\nseed = 1\n'
                    f'[inputs.genfuns.g]\nkind = "cusp"\nn_base = {value}\n')
    assert main(["run", str(path), "--grid-scale", "1", "--out-dir",
                 str(tmp_path / "out")]) == 2
    out = capsys.readouterr().out
    assert "[input-error]" in out and message in out
    assert main(["run", str(path), "--grid-scale", "2", "--out-dir",
                 str(tmp_path / "out")]) == 2


# one bad task parameter per probe: each was refused with exit 1 or ran
# (unit-laws truncated n = 12.7 to 12 and passed; strategy "gf" was a third
# strategy; p_scale = nan was refused only as a value the hand-written
# reader could not parse)
BAD_TASK_PARAMETERS = {
    "sublemma-size": ('op = "sublemma"\nsizes = [1]\n',
                      "sizes must be an integer in [2, 8], got 1"),
    "sublemma-size-above": ('op = "sublemma"\nsizes = [2, 9]\n',
                            "sizes must be an integer in [2, 8], got 9"),
    "ss-p-samples": ('op = "ss"\ngenfun = "g"\np_samples = 1001\n',
                     "p_samples must be an integer in [1, 1000], got 1001"),
    "ss-p-samples-zero": ('op = "ss"\ngenfun = "g"\np_samples = 0\n',
                          "p_samples must be an integer in [1, 1000], got 0"),
    "cup-n": ('op = "cup"\nn = 2\n',
              "n must be an integer in [4, 4096], got 2"),
    "rectify-count": ('op = "rectify-check"\ncount = "x"\n',
                      "count must be an integer in [1, inf], got 'x'"),
    "microstalk-t": ('op = "microstalk"\nsheaf = "f"\nt_values = ["abc"]\n',
                     "t_values must be a real number, got 'abc'"),
    "ss-p-scale": ('op = "ss"\ngenfun = "g"\np_scale = nan\n',
                   "p_scale must be a real number, got nan"),
    "convolve-strategy": ('op = "convolve"\nleft = "f"\nright = "f"\n'
                          'strategy = "gf"\n', "strategy must be one of "
                          "('auto', 'cell'), got 'gf'"),
    # read as TOML reads them: a multi-line array, an escaped quote and a
    # multi-line string
    "sublemma-size-multiline": ('op = "sublemma"\nsizes = [\n  2,\n  9,\n]\n',
                                "sizes must be an integer in [2, 8], got 9"),
    "rectify-count-escaped": ('op = "rectify-check"\ncount = "x\\"y"\n',
                              "count must be an integer in [1, inf], "
                              "got 'x\"y'"),
    "rectify-count-triple-quoted": (
        'op = "rectify-check"\ncount = """x"""\n',
        "count must be an integer in [1, inf], got 'x'"),
    "unit-laws-n": ('op = "unit-laws"\nn = 12.7\n',
                    "n must be an integer in [4, 4096], got 12.7"),
}


@pytest.mark.parametrize("name", sorted(BAD_TASK_PARAMETERS))
def test_bad_task_parameter_exits_2(tmp_path, capsys, name):
    task, message = BAD_TASK_PARAMETERS[name]
    path = tmp_path / f"{name}.toml"
    path.write_text('[scenario]\nname = "s"\nseed = 1\n'
                    '[inputs.functions.f]\nexpr = "cos(2*pi*x)"\nn = 8\n'
                    "[[tasks]]\n" + task)
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    out = capsys.readouterr().out
    assert "[input-error]" in out and message in out


@pytest.mark.parametrize("verb", ["run", "verify-all"])
@pytest.mark.parametrize("where", ["file", "under-file"])
def test_an_unusable_out_dir_exits_2_without_traceback(tmp_path, verb,
                                                       where):
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file\n")
    out = blocker if where == "file" else blocker / "x"
    args = [verb] + ([next(p for p in bundled_scenarios()
                           if os.path.basename(p) == "duality.toml")]
                     if verb == "run" else [])
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-m", "gfsheaf", *args, "--out-dir", str(out)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 2
    assert "[input-error]" in proc.stdout
    assert "as output directory" in proc.stdout
    assert "Traceback" not in proc.stdout + proc.stderr
    assert blocker.read_text() == "a regular file\n"


# scenario files the runner cannot use.  The first five, of the wrong
# shape, raised TypeError or AttributeError with a traceback and exit 1.
# The hand-written TOML reader took the duplicate key (last value wins), the
# table declared twice (merged), the key with a space and the dotted key (as
# the literal key "inputs.functions"); name = 3, seed = 1.7 (as seed 1), the
# NaN radius and the strategy typo (as the product carrier) ran; lo = "abc"
# and coeffs = ["x"] raised with a traceback
BAD_SHAPES = {
    "tasks-number.toml": ('tasks = 3\n[scenario]\nname = "s"\n', "must be a"),
    "task-number.toml": ('tasks = [1]\n[scenario]\nname = "s"\n',
                         "must be a"),
    "scenario-number.toml": ("scenario = 3\n", "must be a"),
    "top-level-array.json": ("[1, 2]", "must be a"),
    "tasks-table.json": ('{"tasks": {"op": "barcode"}}', "must be a"),
    "duplicate-key.toml": ("[scenario]\nseed = 1\nseed = 2\n",
                           "Cannot overwrite a value (at line 3, column 9)"),
    "table-twice.toml": ('[inputs.functions.f]\nexpr = "x"\n'
                         "[inputs.functions.f]\nn = 8\n",
                         "Cannot declare ('inputs', 'functions', 'f') twice"),
    "key-with-space.toml": ("[scenario]\nx y = 3\n", "(at line 2, column 3)"),
    "dotted-key.toml": ("inputs.functions = 3\n",
                        "inputs.functions must be a table of tables, got 3"),
    "name-number.toml": ("[scenario]\nname = 3\n",
                         "name must be a string, got 3"),
    "seed-real.toml": ("[scenario]\nseed = 1.7\n",
                       "seed must be an integer in [-inf, inf], got 1.7"),
    "interval-lo-word.toml": ('[inputs.functions.f]\ngrid = "interval"\n'
                              'lo = "abc"\nexpr = "x"\n',
                              "lo must be a real number, got 'abc'"),
    "coeffs-word.toml": ('[inputs.genfuns.g]\nkind = "pure-quadratic"\n'
                         'coeffs = ["x"]\n',
                         "coeffs must be a real number, got 'x'"),
    "radius-nan.json": ('{"inputs": {"genfuns": {"g": {"kind": "expr", '
                        '"expr": "xi^2", "q": [[1.0]], "radius": NaN}}}}',
                        "radius must be a real number, got nan"),
    "strategy-typo.toml": ('[inputs.functions.f]\nexpr = "cos(2*pi*x)"\n'
                           'n = 8\n[[tasks]]\nop = "tensor"\nleft = "f"\n'
                           'right = "f"\nstrategy = "cel"\n',
                           "strategy must be one of ('auto', 'cell'), "
                           "got 'cel'"),
}


@pytest.mark.parametrize("verb", ["run", "verify-all"])
@pytest.mark.parametrize("name", sorted(BAD_SHAPES))
def test_a_scenario_of_the_wrong_shape_exits_2_without_traceback(
        tmp_path, verb, name):
    scenarios = tmp_path / "scenarios"
    scenarios.mkdir()
    text, message = BAD_SHAPES[name]
    path = scenarios / name
    path.write_text(text)
    # verify-all runs the scenarios of the bundled directory, here this one
    script = ("import sys; from gfsheaf import cli; "
              "cli.BUNDLED_DIR = sys.argv[1]; sys.exit(cli.main(sys.argv[2:]))")
    args = [verb] + ([str(path)] if verb == "run" else [])
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(scenarios), *args, "--out-dir",
         str(tmp_path / "out")], capture_output=True, text=True, env=env,
        timeout=120)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "[input-error]" in proc.stdout
    assert message in proc.stdout
    assert "Traceback" not in proc.stdout + proc.stderr


# region inputs out of range: [[99]] raised IndexError with a traceback,
# [[-1]] took the last cell, the bad arcs gave an empty region, and an arc
# on a 2-d base failed the task
BAD_REGIONS = {
    "cell-above": ("circle", "cells = [[99]]", "must be an integer in [0, 15]"),
    "cell-negative": ("circle", "cells = [[-1]]",
                      "must be an integer in [0, 15], got -1"),
    "cell-short": ("torus", "cells = [[1]]", "an array of 2 integers"),
    "cell-real": ("circle", "cells = [[1.5]]", "got 1.5"),
    "arc-negative": ("circle", "arc = [-3, 2]",
                     "arc lo must be an integer in [0, 15], got -3"),
    "arc-reversed": ("circle", "arc = [5, 2]",
                     "arc hi must be an integer in [5, 15], got 2"),
    "arc-long": ("circle", "arc = [1, 2, 3]", "arc must be [lo, hi]"),
    "arc-2d": ("torus", "arc = [1, 2]", "an arc needs a 1-d base"),
}


@pytest.mark.parametrize("name", sorted(BAD_REGIONS))
def test_a_bad_region_exits_2_without_traceback(tmp_path, name):
    grid, region, message = BAD_REGIONS[name]
    path = tmp_path / f"{name}.toml"
    path.write_text('[scenario]\nname = "s"\nseed = 1\n'
                    "[inputs.functions.f]\n"
                    f'expr = "cos(2*pi*x)"\ngrid = "{grid}"\nn = 8\n'
                    f"[inputs.regions.Z]\n{region}\n"
                    '[[tasks]]\nop = "sections"\nsheaf = "f"\nregion = "Z"\n'
                    "a = -2.0\nb = 2.0\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-m", "gfsheaf", "run", str(path), "--out-dir",
         str(tmp_path / "out")], capture_output=True, text=True, env=env,
        timeout=120)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "[input-error]" in proc.stdout and message in proc.stdout
    assert "Traceback" not in proc.stdout + proc.stderr
