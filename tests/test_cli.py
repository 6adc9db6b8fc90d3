import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from weakkam.cli import load_config, main, unknown_settings

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

TINY_STUDY = {
    "model": {"family": "eikonal", "potential": {"name": "abs"}},
    "grid": {"box": [[-2.0, 2.0]], "h": 0.1},
    "velocity": {"q_max": 1.5, "per_axis_count": 7},
    "solver": {"tol": 1e-6},
    "schedule": {"lambdas": [0.5, 0.25]},
    "probes": [[0.0]],
    "measures": {"n_objectives": 2},
    "study": {"sub_box": [[-1.0, 1.0]], "agreement_count": 5},
    "seeds": {"master": 0},
}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def test_study_end_to_end(tmp_path):
    cfg = write_cfg(tmp_path, TINY_STUDY)
    out = tmp_path / "out"
    assert main(["study", "--config", cfg, "--out", str(out)]) == 0
    for name in ("study.csv", "w.csv", "gaps.svg", "study.json", "manifest.json"):
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "study"
    assert {a["name"] for a in manifest["artifacts"]} == {
        "study.csv", "w.csv", "gaps.svg", "study.json"}
    study = json.loads((out / "study.json").read_text())
    gaps = study["sup_gaps"]["value"]
    assert len(gaps) == 2 and all(np.isfinite(g) for g in gaps)
    assert study["sup_gaps"]["tolerance"] is None
    assert not study["failures"]


def test_study_determinism(tmp_path):
    cfg = write_cfg(tmp_path, TINY_STUDY)
    out = tmp_path / "det"
    assert main(["study", "--config", cfg, "--out", str(out), "--seed", "3"]) == 0
    first = (out / "manifest.json").read_bytes()
    assert main(["study", "--config", cfg, "--out", str(out), "--seed", "3"]) == 0
    assert (out / "manifest.json").read_bytes() == first


def test_missing_key_exit_2(tmp_path, capsys):
    bad = {k: v for k, v in TINY_STUDY.items()}
    bad = json.loads(json.dumps(bad))
    del bad["grid"]["h"]
    cfg = write_cfg(tmp_path, bad)
    assert main(["critical", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "grid.h: required" in capsys.readouterr().err


def test_bad_family_exit_2(tmp_path, capsys):
    bad = json.loads(json.dumps(TINY_STUDY))
    bad["model"]["family"] = "cubic"
    cfg = write_cfg(tmp_path, bad)
    assert main(["critical", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "model.family" in capsys.readouterr().err


GEOMETRIC = 'schedule={"geometric":{"start":1.0,"ratio":0.5,"count":3}}'
BOX_2D = "grid.box=[[-2.0,2.0],[-2.0,2.0]]"


# each case applies its overrides in order; the last one is malformed
@pytest.mark.parametrize("overrides", [
    ['model.potential="foo"'],
    ["grid.h=0.3"],
    [BOX_2D, "probes=[0.0]"],
    ['probes=[["a"]]'],
    [GEOMETRIC, "schedule.geometric.start=-1"],
    [GEOMETRIC, 'schedule.geometric.start="x"'],
    [GEOMETRIC, "schedule.geometric.count=0"],
    [GEOMETRIC, "schedule.geometric.count=2.5"],
    ["ergodic.bisection_tol=-1"],
    ['measures.n_objectives="x"'],
    ["measures.n_objectives=-1"],
    ["study.agreement_count=-1"],
    ['measures.mass_tol="x"'],
    ['ergodic.eps_aubry="x"'],
    ['seeds.master="x"'],
    ['solver.tol="x"'],
    ['model.normalization_shift="x"'],
    ['study.sub_box="x"'],
    ["study.sub_box=[[5,6]]"],
    ["measures.slack=-1"],
    ['solver.max_iter="x"'],
    ["solver.max_iter=0"],
    ['model.superlinearize="x"'],
    ["grid.h=true"],
    ["velocity.q_max=true"],
    ["model.dimension=true"],
], ids=" ".join)
def test_bad_value_exit_2(tmp_path, capsys, overrides):
    cfg = write_cfg(tmp_path, TINY_STUDY)
    sets = [arg for o in overrides for arg in ("--set", o)]
    assert main(["critical", "--config", cfg, "--out", str(tmp_path / "o"), *sets]) == 2
    assert overrides[-1].split("=")[0] in capsys.readouterr().err


def test_bad_output_directory_exit_2(tmp_path, capsys):
    # --out would override the configured directory
    bad = json.loads(json.dumps(TINY_STUDY))
    bad["outputs"] = {"directory": 5}
    assert main(["critical", "--config", write_cfg(tmp_path, bad)]) == 2
    assert "outputs.directory" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--lambda", "-1"],
    ["solve", "--lambda", "0"],
    ["mather", "--lambda", "-1"],
    ["mather", "--lambda", "0"],
    ["mather", "--lambda", "0.5", "--z", "0,0"],
    ["mather", "--z", "abc"],
    ["distance", "--source", "abc"],
], ids=" ".join)
def test_bad_argument_exit_2(tmp_path, capsys, argv):
    cfg = write_cfg(tmp_path, TINY_STUDY)
    assert main([argv[0], "--config", cfg, "--out", str(tmp_path / "o"), *argv[1:]]) == 2
    assert f"error: {argv[-2]}: " in capsys.readouterr().err


def test_dimension_follows_box(tmp_path):
    cfg = write_cfg(tmp_path, {
        "model": {"family": "quadratic", "potential": "half_square"},
        "grid": {"box": [[-1.0, 1.0], [-1.0, 1.0]], "h": 0.25},
        "velocity": {"q_max": 1.0, "per_axis_count": 3},
    })
    out = tmp_path / "o"
    assert main(["critical", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "critical.json").read_text())
    assert abs(rep["c"]["value"]) <= 1e-3


def test_limit_matches_study_double_well(tmp_path):
    # the limit subcommand is the study's limit w without a discount schedule
    cfg = str(CONFIGS / "quadratic.json")
    well = ["--set", 'model.potential="double_well"']
    assert main(["limit", "--config", cfg, "--out", str(tmp_path / "limit"), *well]) == 0
    assert main(["study", "--config", cfg, "--out", str(tmp_path / "study"), *well]) == 0
    assert ((tmp_path / "limit" / "w.csv").read_bytes()
            == (tmp_path / "study" / "w.csv").read_bytes())
    rep = json.loads((tmp_path / "limit" / "limit.json").read_text())
    assert rep["estimator_agreement"]["value"] <= 0.03


@pytest.mark.parametrize("overrides,tolerance", [([], 1e-3 + 2 * 0.1),
                                                 (["--set", "measures.mass_tol=0.05"], 0.05)],
                         ids=["default", "set"])
def test_mather_reports_applied_support_tolerance(tmp_path, overrides, tolerance):
    cfg = str(CONFIGS / "quadratic.json")
    out = tmp_path / "m"
    assert main(["mather", "--config", cfg, "--out", str(out), "--set", "grid.h=0.1",
                 *overrides]) == 0
    rep = json.loads((out / "mather.json").read_text())
    claim = rep["support_outside_mass"]
    assert claim["tolerance"] == pytest.approx(tolerance, abs=1e-15)
    assert rep["support_passed"] == (claim["value"] <= claim["tolerance"])


def test_auto_normalization_shift(tmp_path, capsys):
    # H = p^2/2 - x^2/2 - 0.3 has critical value -0.3; "auto" shifts it to 0
    cfg = str(CONFIGS / "quadratic.json")
    base = ["--set", "grid.h=0.1", "--set", 'model.potential={"name": "half_square", '
            '"offset": 0.3}']
    auto = tmp_path / "auto"
    assert main(["critical", "--config", cfg, "--out", str(auto), *base,
                 "--set", 'model.normalization_shift="auto"']) == 0
    assert "warning: normalization_shift auto-set to -0.3\n" in capsys.readouterr().err
    assert json.loads((auto / "critical.json").read_text())["c"]["value"] == 0.0
    raw = tmp_path / "raw"
    assert main(["critical", "--config", cfg, "--out", str(raw), *base]) == 0
    assert "normalization_shift" not in capsys.readouterr().err
    assert json.loads((raw / "critical.json").read_text())["c"]["value"] == -0.3


def test_set_override(tmp_path):
    cfg = write_cfg(tmp_path, TINY_STUDY)
    out = tmp_path / "o"
    assert main(["critical", "--config", cfg, "--out", str(out),
                 "--set", "grid.h=0.05", "--set", "ergodic.bisection_tol=1e-4"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["grid"]["h"] == 0.05
    assert manifest["config"]["ergodic"]["bisection_tol"] == 1e-4


def test_unknown_setting_warns_and_runs(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY_STUDY)
    out = tmp_path / "o"
    assert main(["critical", "--config", cfg, "--out", str(out),
                 "--set", "measures.n_objectivs=3"]) == 0
    line = "unknown setting measures.n_objectivs ignored"
    assert f"warning: {line}\n" in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["warnings"] == [line]


def _readme_schema():
    """The README's config schema block as {section: {key: None}}, with None
    for a section that is not an object."""
    readme = (CONFIGS.parent / "README.md").read_text(encoding="utf-8")
    block = re.sub(r"//.*", "", re.search(r"```jsonc\n(.*?)```", readme, re.S).group(1))
    schema, depth, section = {}, 0, None
    for key, brace in re.findall(r'"(\w+)"\s*:|([{}])', block):
        if brace:
            depth += 1 if brace == "{" else -1
        elif depth == 1:
            section, schema[key] = key, None
        elif depth == 2:
            schema[section] = {**(schema[section] or {}), key: None}
    return schema


def test_committed_configs_and_readme_schema_have_no_unknown_settings():
    for path in sorted(CONFIGS.glob("*.json")):
        assert unknown_settings(load_config(path)) == [], path.name
    schema = _readme_schema()
    assert len(schema) == 11 and "p_grid" in schema["model"] and schema["probes"] is None
    assert unknown_settings(schema) == []
    assert unknown_settings({**schema, "measure": {"n_objectives": 4}, "notes": "x"}) == [
        "measure.n_objectives", "notes"]


def test_critical_values(tmp_path):
    cfg = write_cfg(tmp_path, TINY_STUDY)
    out = tmp_path / "crit"
    assert main(["critical", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "critical.json").read_text())
    assert abs(rep["c"]["value"]) <= 1e-3
    lo, hi = rep["bracket"]
    assert hi - lo <= 1e-3
    assert rep["aubry_count"] >= 1


def test_validate_failing_model_exit_2(tmp_path):
    bad = json.loads(json.dumps(TINY_STUDY))
    bad["model"]["potential"] = {"name": "inverse_bump"}
    bad["model"]["superlinearize"] = False
    cfg = write_cfg(tmp_path, bad)
    out = tmp_path / "val"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 2
    rep = json.loads((out / "assumptions.json").read_text())
    assert not rep["verdicts"]["A3"]["passed"]


def test_solve_and_distance_and_aubry(tmp_path):
    cfg = write_cfg(tmp_path, TINY_STUDY)
    out1 = tmp_path / "s"
    assert main(["solve", "--config", cfg, "--out", str(out1), "--lambda", "0.5"]) == 0
    with open(out1 / "field.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["node", "x0", "value"]
    assert len(rows) == 1 + 41
    out2 = tmp_path / "d"
    assert main(["distance", "--config", cfg, "--out", str(out2),
                 "--source", "0.0"]) == 0
    with open(out2 / "distance.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    vals = {float(r[1]): float(r[2]) for r in rows[1:]}
    assert vals[0.0] == 0.0
    assert vals[1.0] == pytest.approx(0.5, abs=0.15)
    out3 = tmp_path / "a"
    assert main(["aubry", "--config", cfg, "--out", str(out3)]) == 0
    rep = json.loads((out3 / "aubry.json").read_text())
    assert any(abs(c[0]) <= 0.1 for c in rep["coordinates"])


def test_mather_subcommands(tmp_path):
    cfg = write_cfg(tmp_path, TINY_STUDY)
    out = tmp_path / "m"
    assert main(["mather", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "mather.json").read_text())
    assert rep["kind"] == "ergodic"
    assert rep["closedness_residual"]["value"] <= 1e-8
    with open(out / "measure.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["node_index", "velocity_index", "mass"]
    out2 = tmp_path / "md"
    assert main(["mather", "--config", cfg, "--out", str(out2),
                 "--lambda", "0.5", "--z", "1.0"]) == 0
    rep2 = json.loads((out2 / "mather.json").read_text())
    assert rep2["kind"] == "discounted"
    assert rep2["duality_gap"]["value"] <= 0.03


def test_csv_is_rfc4180_with_full_precision(tmp_path):
    cfg = write_cfg(tmp_path, TINY_STUDY)
    out = tmp_path / "prec"
    assert main(["solve", "--config", cfg, "--out", str(out), "--lambda", "0.5"]) == 0
    raw = (out / "field.csv").read_bytes()
    assert b"\r\n" in raw
    text = raw.decode()
    assert "0.1" in text  # '.' decimal separator
    # round-trip: 17 significant digits reproduce the float exactly
    row = text.splitlines()[5].split(",")
    assert float(row[2]) == float(format(float(row[2]), ".17g"))


def test_probe_warning_recorded(tmp_path):
    cfg_dict = json.loads(json.dumps(TINY_STUDY))
    cfg_dict["probes"] = [[1.8]]  # outside the central half-box [-1, 1]
    cfg = write_cfg(tmp_path, cfg_dict)
    out = tmp_path / "warn"
    assert main(["critical", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert any("central half-box" in w for w in manifest["warnings"])


def test_sampled_family_csv_roundtrip(tmp_path):
    import numpy as np
    # tabulate |p| - x^2/2 on the config grid and solve for its critical value
    box, h = [-2.0, 2.0], 0.5
    nodes = np.arange(box[0], box[1] + h / 2, h)
    p_grid = np.linspace(-3.0, 3.0, 61)
    lines = ["node_index,p_index,value"]
    for i, x in enumerate(nodes):
        for j, p in enumerate(p_grid):
            lines.append(f"{i},{j},{abs(p) - 0.5 * x * x}")
    table = tmp_path / "H.csv"
    table.write_text("\n".join(lines))
    cfg = {
        "model": {"family": "sampled", "sampled_csv": str(table),
                  "p_grid": list(p_grid), "superlinearize": False},
        "grid": {"box": [box], "h": h},
        "velocity": {"q_max": 1.0, "per_axis_count": 3},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["critical", "--config", str(cfg_path), "--out", str(out)]) == 0
    rep = json.loads((out / "critical.json").read_text())
    assert abs(rep["c"]["value"]) <= 1e-3


def test_mather_exports_duals(tmp_path):
    cfg = write_cfg(tmp_path, TINY_STUDY)
    out = tmp_path / "duals"
    assert main(["mather", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "duals.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["row", "dual"]
    assert len(rows) > 10


def test_a3_violation_exits_2(tmp_path, capsys):
    bad = json.loads(json.dumps(TINY_STUDY))
    bad["model"]["potential"] = {"name": "inverse_bump"}
    cfg = write_cfg(tmp_path, bad)
    # superlinearize (default for the eikonal family) must refuse the model
    assert main(["critical", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "A3Violated" in capsys.readouterr().err


def test_solver_failure_exits_3_without_traceback(tmp_path, capsys, monkeypatch):
    # a start below the fixed point breaks the monotone-decrease guard
    import weakkam.discounted
    monkeypatch.setattr(weakkam.discounted, "upper_start", lambda *args: -1e3)
    cfg = write_cfg(tmp_path, TINY_STUDY)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--lambda", "0.5"]) == 3
    err = capsys.readouterr().err
    assert "error[WeakKAMError]: monotone decrease violated" in err
    assert "Traceback" not in err


def test_trace_csv_has_one_row_per_policy_step(tmp_path):
    cfg = write_cfg(tmp_path, TINY_STUDY)
    out = tmp_path / "s"
    assert main(["solve", "--config", cfg, "--out", str(out), "--lambda", "0.25"]) == 0
    with open(out / "trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "residual", "policy_changes"]
    iterations = json.loads((out / "solve.json").read_text())["iterations"]
    assert 1 <= iterations == len(rows) - 1
    assert [int(r[0]) for r in rows[1:]] == list(range(1, iterations + 1))


def test_distance_runs_only_the_bisection(tmp_path, monkeypatch):
    import weakkam.cli

    def refuse(*args, **kwargs):
        raise AssertionError("distance must not build the Aubry data")

    monkeypatch.setattr(weakkam.cli, "build_aubry_data", refuse)
    cfg = write_cfg(tmp_path, TINY_STUDY)
    out = tmp_path / "d"
    assert main(["distance", "--config", cfg, "--out", str(out), "--source", "0.0"]) == 0
    assert (out / "distance.csv").exists()


@pytest.mark.parametrize("command,artifact", [("aubry", "aubry.csv"),
                                              ("critical", "aubry.csv"),
                                              ("mather", "measure.csv")],
                         ids=["aubry", "critical", "mather"])
def test_aubry_and_critical_skip_the_weak_kam_fields(tmp_path, monkeypatch, command,
                                                     artifact):
    import weakkam.critical

    def refuse(*args, **kwargs):
        raise AssertionError("the S_from batch is read by no output of this command")

    # the reversed edge costs feed only the S_from relaxation batch
    monkeypatch.setattr(weakkam.critical, "reverse_edge_costs", refuse)
    cfg = write_cfg(tmp_path, TINY_STUDY)
    out = tmp_path / command
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    assert (out / artifact).exists()


def test_singular_simplex_basis_exits_3_without_traceback(tmp_path, capsys,
                                                          monkeypatch):
    import weakkam.simplex

    def singular(matrix):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(weakkam.simplex.np.linalg, "inv", singular)
    cfg = write_cfg(tmp_path, TINY_STUDY)
    assert main(["mather", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "SingularBasis" in err
    assert "Traceback" not in err
