import json
import math
import os

import pytest

from gfsheaf.cli import bundled_scenarios, main
from gfsheaf.scenarios import (ScenarioParseError, load_scenario,
                               parse_toml_subset, run_scenario)

INF = math.inf


def test_toml_subset_parser():
    text = """
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
"""
    spec = parse_toml_subset(text)
    assert spec["scenario"]["name"] == "demo"
    assert spec["scenario"]["seed"] == 3
    assert spec["scenario"]["flag"] is True
    assert spec["inputs"]["functions"]["f"]["n"] == 16
    assert len(spec["tasks"]) == 2
    assert spec["tasks"][0]["values"] == [1, 2.5, -3]
    assert spec["tasks"][1]["a"] == -INF


def test_toml_parse_error_carries_line():
    with pytest.raises(ScenarioParseError) as err:
        parse_toml_subset("[scenario]\noops")
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


def test_reduction_ranks_are_plain_ints(tmp_path):
    path = next(p for p in bundled_scenarios()
                if os.path.basename(p) == "reduction.toml")
    code, _ = run_scenario(path, out_dir=str(tmp_path))
    assert code == 0
    rows = dict(line.split(",", 1) for line in
                (tmp_path / "reduce.csv").read_text().splitlines())
    assert rows["restriction"] == "{0: 1}"
    assert rows["restriction"] == rows["tubular-limit"]
