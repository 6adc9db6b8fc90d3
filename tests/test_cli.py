import csv
import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import weakkam
from weakkam import io
from weakkam.cli import load_config, main, unknown_settings

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

TINY_STUDY = {
    "model": {"family": "eikonal", "potential": {"name": "abs"}},
    "grid": {"box": [[-2.0, 2.0]], "h": 0.1},
    "velocity": {"q_max": 1.5, "per_axis_count": 7},
    "schedule": {"lambdas": [0.5, 0.25]},
    "probes": [[0.0]],
}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def assert_one_error(err, text):
    """A config or argument error: one `error:` line naming it, no traceback."""
    lines = [line for line in err.splitlines() if line.startswith("error")]
    assert len(lines) == 1 and lines[0].startswith("error: ") and text in lines[0], err
    assert "Traceback" not in err


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
    assert study["sup_gaps"]["op"] == "sup |u_lambda - w| on the central half-box"
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


BOX_2D = "grid.box=[[-2.0,2.0],[-2.0,2.0]]"


# each case applies its overrides in order; the last one is malformed.  They
# run `study`, which reads every setting
@pytest.mark.parametrize("overrides", [
    ['model.potential="foo"'],
    ["grid.h=0.3"],
    [BOX_2D, "probes=[0.0]"],
    ['probes=[["a"]]'],
    ["probes=1"],
    ["grid.box=[[1,0]]"],
    ["schedule.lambdas=[0.25,0.5]"],
    ['ergodic.eps_aubry="x"'],
    ['model.normalization_shift="x"'],
    ["grid.h=true"],
    ["velocity.q_max=true"],
    ["foo"],
    ["grid.h.x=1"],
    ['model.potential={"name":"abs","scale":null}'],
    ['model.potential={"name":"abs","scale":[1]}'],
    ['model.potential={"name":"abs","scale":1e400}'],
    ['model.potential={"name":["abs"]}'],
], ids=" ".join)
def test_bad_value_exit_2(tmp_path, capsys, overrides):
    cfg = write_cfg(tmp_path, TINY_STUDY)
    sets = [arg for o in overrides for arg in ("--set", o)]
    assert main(["study", "--config", cfg, "--out", str(tmp_path / "o"), *sets]) == 2
    assert_one_error(capsys.readouterr().err, overrides[-1].split("=")[0])


@pytest.mark.parametrize("make,message", [
    (None, "config: file not found"),
    (lambda p: p.write_text("{"), "config: not valid JSON"),
    (lambda p: p.write_text("[]"), "config: top level must be an object"),
    (Path.mkdir, "config: cannot read"),
    (lambda p: p.write_bytes(b"\xff{}"), "is not UTF-8 text"),
], ids=["missing", "not JSON", "a list", "a directory", "not UTF-8"])
def test_bad_config_file_exit_2(tmp_path, capsys, make, message):
    path = tmp_path / "cfg.json"
    if make is not None:
        make(path)
    assert main(["critical", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert_one_error(capsys.readouterr().err, message)


def test_geometric_schedule_exit_2(tmp_path, capsys):
    # the schedule is a list of lambdas; a geometric block is not read
    cfg = write_cfg(tmp_path, TINY_STUDY)
    geometric = 'schedule={"geometric":{"start":1.0,"ratio":0.5,"count":3}}'
    assert main(["study", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--set", geometric]) == 2
    assert "error: schedule.lambdas: required" in capsys.readouterr().err


# a 2D run of a 1D config, as in CI
SET_2D = ["grid.box=[[-2,2],[-2,2]]", "grid.h=0.25",
          "velocity.q_max=1.5", "velocity.per_axis_count=5", "probes=[[0,0],[1,0]]"]


@pytest.mark.parametrize("argv", [["aubry"], ["distance", "--source", "0,0"]],
                         ids=["aubry", "distance"])
def test_commands_that_ignore_the_sub_box_accept_one_of_another_dimension(tmp_path,
                                                                          argv):
    sets = [arg for o in SET_2D for arg in ("--set", o)]
    assert main([argv[0], "--config", str(CONFIGS / "quadratic.json"),
                 "--out", str(tmp_path / "o"), *sets, *argv[1:]]) == 0


def test_negative_coordinate_lists_are_read_as_values(tmp_path):
    # argparse alone reads `-0.5,0.25` as an option, not as a value: the
    # distance from the source is 0 at the node (-0.5, 0.25)
    sets = [arg for o in SET_2D for arg in ("--set", o)]
    cfg = str(CONFIGS / "quadratic.json")
    out = tmp_path / "d"
    assert main(["distance", "--config", cfg, "--out", str(out), *sets,
                 "--source", "-0.5,0.25"]) == 0
    with open(out / "distance.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [float(r[3]) for r in rows if (float(r[1]), float(r[2])) == (-0.5, 0.25)] == [0.0]
    out = tmp_path / "m"
    assert main(["mather", "--config", cfg, "--out", str(out), *sets,
                 "--lambda", "0.5", "--z", "-1,0.5"]) == 0
    assert json.loads((out / "mather.json").read_text())["z"] == [-1.0, 0.5]


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
    ["mather", "--z", "1.0"],
    ["distance", "--source", "abc"],
    # a value that starts with '-' is the flag's, malformed or not
    ["distance", "--source", "-0.5,abc"],
    ["mather", "--lambda", "0.5", "--z", "-1,0.5"],
    # the flag writes through the section --set walks
    ["study", "--set", "outputs=1", "--out", "o"],
], ids=" ".join)
def test_bad_argument_exit_2(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, TINY_STUDY)
    assert main([argv[0], "--config", cfg, "--out", str(tmp_path / "o"), *argv[1:]]) == 2
    assert_one_error(capsys.readouterr().err, f"error: {argv[-2]}: ")


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


DOUBLE_WELL = ["--set", 'model.potential="double_well"']
# the 2D double well at h = 0.25 with 13 velocities: a face of 4 rest columns
DOUBLE_WELL_2D = [*DOUBLE_WELL, "--set", "grid.box=[[-2,2],[-2,2]]", "--set", "grid.h=0.25",
                  "--set", "velocity.q_max=1.5", "--set", "velocity.per_axis_count=5",
                  "--set", "probes=[[0,0],[1,0]]"]


def test_limit_matches_study_double_well(tmp_path, capsys):
    # the limit subcommand is the study's limit w without a discount
    # schedule: on the 1D and the 2D double well both commands write every
    # artifact and the manifest, exit 0 with the estimators within their
    # tolerance, and write the same w.csv
    cfg = str(CONFIGS / "quadratic.json")
    for case, extra in (("1d", DOUBLE_WELL), ("2d", DOUBLE_WELL_2D)):
        for command in ("limit", "study"):
            out = tmp_path / f"{command}{case}"
            assert main([command, "--config", cfg, "--out", str(out), *extra]) == 0, (
                command, case)
            assert "error" not in capsys.readouterr().err
            claim = json.loads((out / f"{command}.json").read_text())["estimator_agreement"]
            assert claim["value"] <= claim["tolerance"] == 0.03
            manifest = json.loads((out / "manifest.json").read_text())
            assert f"{command}.json" in {a["name"] for a in manifest["artifacts"]}
        assert ((tmp_path / f"limit{case}" / "w.csv").read_bytes()
                == (tmp_path / f"study{case}" / "w.csv").read_bytes())


def test_seed_is_retired_and_warns(tmp_path, capsys):
    # nothing is drawn at random: --seed still parses, sets nothing, and
    # warns as a retired setting does; the manifest records no seed
    cfg = write_cfg(tmp_path, TINY_STUDY)
    plain, seeded = tmp_path / "plain", tmp_path / "seeded"
    assert main(["limit", "--config", cfg, "--out", str(plain)]) == 0
    assert "warning" not in capsys.readouterr().err
    assert main(["limit", "--config", cfg, "--out", str(seeded), "--seed", "5"]) == 0
    assert "warning: retired option --seed ignored\n" in capsys.readouterr().err
    for name in ("w.csv", "limit.json"):
        assert (plain / name).read_bytes() == (seeded / name).read_bytes(), name
    manifest = json.loads((seeded / "manifest.json").read_text())
    assert "seed" not in manifest
    assert manifest["warnings"] == ["retired option --seed ignored"]


@pytest.mark.parametrize("tolerance", [1e-3 + 2 * 0.1], ids=["default"])
def test_mather_reports_applied_support_tolerance(tmp_path, tolerance):
    cfg = str(CONFIGS / "quadratic.json")
    out = tmp_path / "m"
    assert main(["mather", "--config", cfg, "--out", str(out), "--set", "grid.h=0.1"]) == 0
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
                 "--set", "grid.h=0.05", "--set", "ergodic.eps_aubry=0.01"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["grid"]["h"] == 0.05
    assert manifest["config"]["ergodic"]["eps_aubry"] == 0.01
    assert json.loads((out / "critical.json").read_text())["eps_aubry"] == 0.01


def test_unknown_setting_warns_and_runs(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY_STUDY)
    out = tmp_path / "o"
    assert main(["critical", "--config", cfg, "--out", str(out),
                 "--set", "measures.n_objectivs=3"]) == 0
    line = "unknown setting measures.n_objectivs ignored"
    assert f"warning: {line}\n" in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["warnings"] == [line]


# the retired settings, each at a value the old code would have read
# differently, with the command that read it
@pytest.mark.parametrize("command,setting", [
    ("study", "study.sub_box=[[-0.5,0.5]]"),
    ("study", "study.agreement_count=3"),
    ("study", "measures.slack=0.1"),
    ("study", "solver.max_iter=1"),
    ("mather", "measures.mass_tol=0"),
    ("critical", "ergodic.bisection_tol=0.1"),
    ("solve", "solver.tol=1"),
    ("solve", "model.superlinearize=false"),
    ("critical", "model.dimension=2"),
], ids=lambda v: v.split("=")[0])
def test_retired_setting_warns_and_changes_no_artifact(tmp_path, capsys, command, setting):
    cfg = write_cfg(tmp_path, TINY_STUDY)
    plain, retired = tmp_path / "plain", tmp_path / "retired"
    assert main([command, "--config", cfg, "--out", str(plain)]) == 0
    capsys.readouterr()
    assert main([command, "--config", cfg, "--out", str(retired), "--set", setting]) == 0
    line = f"unknown setting {setting.split('=')[0]} ignored"
    assert f"warning: {line}\n" in capsys.readouterr().err
    names = sorted(p.name for p in plain.iterdir() if p.name != "manifest.json")
    assert names == sorted(p.name for p in retired.iterdir() if p.name != "manifest.json")
    for name in names:
        assert (plain / name).read_bytes() == (retired / name).read_bytes(), name


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
    assert len(schema) == 7 and "p_grid" in schema["model"] and schema["probes"] is None
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


def test_validate_failing_model_exit_2(tmp_path, capsys):
    # validate reports on the raw model: the superlinearization that the
    # other commands apply to the eikonal family refuses this one
    bad = json.loads(json.dumps(TINY_STUDY))
    bad["model"]["potential"] = {"name": "inverse_bump"}
    cfg = write_cfg(tmp_path, bad)
    out = tmp_path / "val"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 2
    rep = json.loads((out / "assumptions.json").read_text())
    assert not rep["verdicts"]["A3"]["passed"]
    assert capsys.readouterr().err == (f"error: validate: A3 failed "
                                       f"({rep['verdicts']['A3']['detail']})\n")


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


def test_manifest_checksums_are_the_sha256_of_each_artifact(tmp_path):
    cfg = write_cfg(tmp_path, TINY_STUDY)
    out = tmp_path / "s"
    assert main(["solve", "--config", cfg, "--out", str(out), "--lambda", "0.5"]) == 0
    artifacts = json.loads((out / "manifest.json").read_text())["artifacts"]
    assert len(artifacts) >= 2
    for a in artifacts:
        data = (out / a["name"]).read_bytes()
        assert a["sha256"] == hashlib.sha256(data).hexdigest(), a["name"]
        assert a["bytes"] == len(data)


def test_checksums_come_from_the_interpreters_own_sha256():
    own = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
    assert io.sha256 is importlib.import_module(own).sha256


def test_a_command_loads_no_openssl(tmp_path):
    # a fresh interpreter imports the CLI and solves; hashlib's OpenSSL
    # module (_hashlib) costs every command about 3.6 MB resident
    cfg = write_cfg(tmp_path, TINY_STUDY)
    script = ("import sys\n"
              "from weakkam.cli import main\n"
              "assert main(sys.argv[1:]) == 0\n"
              "print('_hashlib' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(weakkam.__file__).resolve().parent.parent)}
    done = subprocess.run([sys.executable, "-c", script, "solve", "--config", cfg,
                           "--out", str(tmp_path / "s"), "--lambda", "0.5"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-1] == "False"


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


def test_mather_lambda_reads_no_aubry_set(tmp_path):
    # an empty Aubry set ends the ergodic program (exit 3); the discounted
    # one never reads the Aubry set
    cfg = str(CONFIGS / "quadratic.json")
    plain, strict = tmp_path / "plain", tmp_path / "strict"
    assert main(["mather", "--config", cfg, "--out", str(plain), "--lambda", "0.25"]) == 0
    assert main(["mather", "--config", cfg, "--out", str(strict), "--lambda", "0.25",
                 "--set", "ergodic.eps_aubry=1e-9"]) == 0
    for name in ("measure.csv", "mather.json"):
        assert (plain / name).read_bytes() == (strict / name).read_bytes(), name


def test_mather_lambda_starts_from_the_howard_policy(tmp_path):
    # the discounted LP is the exact dual of the scheme: started from the
    # policy solve_discounted ends on, it takes no policy step
    cfg = write_cfg(tmp_path, TINY_STUDY)
    out = tmp_path / "md"
    assert main(["mather", "--config", cfg, "--out", str(out),
                 "--lambda", "0.25", "--z", "0.5"]) == 0
    rep = json.loads((out / "mather.json").read_text())
    assert rep["iterations"] == 0
    assert rep["duality_gap"]["value"] <= 1e-9


@pytest.mark.parametrize("config", ["quadratic.json", "eikonal_abs.json"])
@pytest.mark.parametrize("lam", ["1e-6", "1e-12"])
def test_small_lambda_solve_and_mather_exit_0(tmp_path, config, lam):
    # Howard's first policy rests where min_q L peaks, where its value is
    # the constant start's: with the diagonal formed as (1 + lambda h) - 1
    # the monotone check failed there, at 1e-6 by 1.3e-2 on quadratic.json
    cfg = str(CONFIGS / config)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "s"),
                 "--lambda", lam]) == 0
    residual = json.loads((tmp_path / "s" / "solve.json").read_text())["residual"]
    assert residual["value"] <= residual["tolerance"]
    assert main(["mather", "--config", cfg, "--out", str(tmp_path / "m"),
                 "--lambda", lam]) == 0
    rep = json.loads((tmp_path / "m" / "mather.json").read_text())
    assert rep["iterations"] == 0
    assert rep["duality_gap"]["value"] <= 1e-9


@pytest.mark.parametrize("lam", ["1e-8", "1e-10"])
def test_eikonal_solve_at_small_lambda_keeps_its_steps_decreasing(tmp_path, lam):
    # started from the greedy policy of the constant U = max min L / lambda
    # (4e8 at 1e-8), a later step rose by about 10, past the monotone
    # check's 1e-10 (1 + U), and exited 3; from the rest policy it takes 3
    # steps
    cfg = str(CONFIGS / "eikonal_abs.json")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "s"),
                 "--lambda", lam]) == 0
    rep = json.loads((tmp_path / "s" / "solve.json").read_text())
    assert rep["iterations"] == 3
    assert rep["residual"]["value"] <= 1e-14
    assert main(["mather", "--config", cfg, "--out", str(tmp_path / "m"),
                 "--lambda", lam]) == 0
    rep = json.loads((tmp_path / "m" / "mather.json").read_text())
    assert rep["iterations"] == 0
    assert rep["duality_gap"]["value"] <= 1e-9


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


def test_columns_write_the_bytes_of_rows(tmp_path):
    # node fields are formatted a column at a time; the text is the one the
    # per-value formatter gives, numpy bools included
    from weakkam import io
    rng = np.random.default_rng(0)
    values = np.concatenate([rng.normal(size=20) * 10.0 ** rng.integers(-300, 300, 20),
                             [0.0, -0.0, 1e30, np.inf, -np.inf, np.nan, 0.1, 5e-324]])
    n = len(values)
    flags = rng.uniform(size=n) < 0.5
    columns = [np.arange(n), values, flags, flags.tolist()]
    rows = [[i, values[i], flags[i], bool(flags[i])] for i in range(n)]
    header = ["node", "value", "flag", "flag_py"]
    by_columns = io.write_csv(tmp_path / "c.csv", header, columns=columns).read_bytes()
    by_rows = io.write_csv(tmp_path / "r.csv", header, rows).read_bytes()
    assert by_columns == by_rows
    lines = by_columns.decode().split("\r\n")
    assert lines[1].split(",")[2] in ("true", "false")
    assert lines[1 + n - 2].split(",")[1] == "0.10000000000000001"


def test_probe_warning_recorded(tmp_path):
    cfg_dict = json.loads(json.dumps(TINY_STUDY))
    cfg_dict["probes"] = [[1.8]]  # outside the central half-box [-1, 1]
    cfg = write_cfg(tmp_path, cfg_dict)
    out = tmp_path / "warn"
    assert main(["critical", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert any("central half-box" in w for w in manifest["warnings"])


def sampled_config(tmp_path, extra_rows=()):
    """A sampled-family config whose table is |p| - x^2/2 on [-2, 2] at
    h = 0.5 and 61 momenta, followed by `extra_rows`."""
    box, h = [-2.0, 2.0], 0.5
    nodes = np.arange(box[0], box[1] + h / 2, h)
    p_grid = np.linspace(-3.0, 3.0, 61)
    lines = ["node_index,p_index,value"]
    for i, x in enumerate(nodes):
        for j, p in enumerate(p_grid):
            lines.append(f"{i},{j},{abs(p) - 0.5 * x * x}")
    table = tmp_path / "H.csv"
    table.write_text("\n".join([*lines, *extra_rows]))
    return {
        "model": {"family": "sampled", "sampled_csv": str(table),
                  "p_grid": list(p_grid)},
        "grid": {"box": [box], "h": h},
        "velocity": {"q_max": 1.0, "per_axis_count": 3},
    }


def test_sampled_family_csv_roundtrip(tmp_path):
    # tabulate |p| - x^2/2 on the config grid and solve for its critical value
    cfg_path = write_cfg(tmp_path, sampled_config(tmp_path))
    out = tmp_path / "out"
    assert main(["critical", "--config", cfg_path, "--out", str(out)]) == 0
    rep = json.loads((out / "critical.json").read_text())
    assert abs(rep["c"]["value"]) <= 1e-3


# each case breaks one input of the sampled family: a row added to the
# table, or a config override
@pytest.mark.parametrize("rows,overrides,message", [
    ([], ["model.sampled_csv=missing.csv"], "model.sampled_csv: file not found"),
    (["3,x,1.0"], [], "model.sampled_csv: line 551: expected node_index,p_index,value"),
    (["9,0,1.0"], [], "model.sampled_csv: line 551: (9, 0) outside the 9 nodes"),
    # a negative index would overwrite the last node's row
    (["-1,0,1.0"], [], "model.sampled_csv: line 551: (-1, 0) outside the 9 nodes"),
    (["3,61,1.0"], [], "model.sampled_csv: line 551: (3, 61) outside"),
    (["3,0,inf"], [], "model.sampled_csv: line 551: value inf is not finite"),
    ([], ['model.p_grid=[-1,"a",1]'], "model.p_grid: "),
    # lower_convex_envelope reads the momenta as strictly increasing
    ([], ["model.p_grid=[-1,1,1]"], "model.p_grid: "),
    ([], ["grid.box=[[-2,2],[-2,2]]"], "model.family: sampled is implemented for "
                                        "dimension 1 only"),
], ids=["missing file", "non-numeric field", "index past the grid", "negative index",
        "momentum index past the grid", "infinite value", "non-numeric p_grid",
        "p_grid not increasing", "2D box"])
def test_bad_sampled_input_exit_2(tmp_path, capsys, monkeypatch, rows, overrides, message):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, sampled_config(tmp_path, rows))
    sets = [arg for o in overrides for arg in ("--set", o)]
    assert main(["critical", "--config", cfg, "--out", str(tmp_path / "o"), *sets]) == 2
    assert_one_error(capsys.readouterr().err, message)


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
    # each policy evaluation 1e3 above the last breaks the monotone-decrease
    # guard at the second policy step
    import weakkam.discounted
    policy_solve, calls = weakkam.discounted.policy_solve, []

    def rising(*args, **kwargs):
        calls.append(1)
        return policy_solve(*args, **kwargs) + 1e3 * len(calls)

    monkeypatch.setattr(weakkam.discounted, "policy_solve", rising)
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
    assert rows[0] == ["iteration", "sup_update", "policy_changes"]
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
                                              ("mather", "measure.csv"),
                                              ("limit", "w.csv"),
                                              ("study", "w.csv")],
                         ids=["aubry", "critical", "mather", "limit", "study"])
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


def test_an_empty_aubry_set_exits_3_without_traceback(tmp_path, capsys):
    # every cycle costs more than the threshold
    assert main(["study", "--config", str(CONFIGS / "quadratic.json"),
                 "--out", str(tmp_path / "o"), "--set", "ergodic.eps_aubry=1e-9"]) == 3
    err = capsys.readouterr().err
    assert "error[EmptyAubrySet]: " in err and "eps_aubry = 1e-09" in err
    assert "Traceback" not in err


def test_singular_simplex_basis_exits_3_without_traceback(tmp_path, capsys,
                                                          monkeypatch):
    # the Aubry tree's columns are the ergodic LP's first basis, and its
    # first evaluation finds a block of the policy matrix singular
    import weakkam.discounted

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(weakkam.discounted.np.linalg, "solve", singular)
    cfg = write_cfg(tmp_path, {**TINY_STUDY,
                               "model": {"family": "quadratic", "potential": "double_well"},
                               "velocity": {"q_max": 1.5, "per_axis_count": 5}})
    assert main(["mather", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if line.startswith("error")]
    assert len(lines) == 1 and lines[0].startswith("error[SingularBasis]: block 0 "), err
    assert "Traceback" not in err


def test_policy_iteration_past_its_step_cap_exits_3_without_traceback(tmp_path, capsys,
                                                                      monkeypatch):
    # prices with fresh noise at every evaluation never settle
    import weakkam.measures
    rng = np.random.default_rng(5)
    evaluate = weakkam.measures._evaluate_ergodic

    def noisy(*args):
        y, xB = evaluate(*args)
        # the last price is an ergodic program's gain, which would shift
        # every reduced cost alike
        y[:-1] += 1e6 * rng.normal(size=y.size - 1)
        return y, xB

    monkeypatch.setattr(weakkam.measures, "_evaluate_ergodic", noisy)
    cfg = write_cfg(tmp_path, TINY_STUDY)
    assert main(["mather", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if line.startswith("error")]
    assert len(lines) == 1 and lines[0].startswith("error[MaxIterExceeded]: "), err
    assert "Traceback" not in err


def test_a_face_without_a_self_loop_exits_3_naming_it(tmp_path, capsys):
    # H(x_i, p) = (p - (-1)^i)^2/2 - x_i^2/2 pushes odd nodes right and even
    # nodes left: the face is the two-node cycle (7, 4) -> (8, 0) -> (7, 4),
    # whose Dirac measures are not closed, so the limit's shortest path to
    # the face nodes is not exact; validate still passes
    box, h = [-2.0, 2.0], 0.25
    nodes = np.arange(box[0], box[1] + h / 2, h)
    p_grid = np.linspace(-8.0, 8.0, 65)
    lines = ["node_index,p_index,value"]
    for i, x in enumerate(nodes):
        for j, p in enumerate(p_grid):
            lines.append(f"{i},{j},{float((p - (-1) ** i) ** 2 / 2 - x * x / 2)!r}")
    table = tmp_path / "H.csv"
    table.write_text("\n".join(lines))
    cfg = write_cfg(tmp_path, {
        "model": {"family": "sampled", "sampled_csv": str(table),
                  "p_grid": [float(p) for p in p_grid]},
        "grid": {"box": [box], "h": h},
        "velocity": {"q_max": 1.0, "per_axis_count": 5},
        "schedule": {"lambdas": [0.5]},
    })
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "v")]) == 0
    capsys.readouterr()
    for command in ("limit", "study"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 3
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if line.startswith("error")]
        assert len(lines) == 1 and lines[0].startswith("error[NoSelfLoop]: Mather face node 7 ")
        assert lines[0].endswith("the face is the (node, velocity) pairs (7, 4), (8, 0)")
        assert "Traceback" not in err


def test_a_model_with_no_usable_edge_exits_without_a_traceback(tmp_path, capsys):
    # every edge cost overflows, so a relaxation batch has no edge to relax
    code = main(["study", "--config", str(CONFIGS / "quadratic.json"),
                 "--out", str(tmp_path / "o"), "--set", "grid.h=0.2",
                 "--set", 'model.potential={"name":"abs","scale":1e300}'])
    assert code in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["limit", "study"])
def test_a_limit_at_the_inf_sentinel_exits_3_naming_the_node(tmp_path, capsys, command):
    # every edge cost overflows, so the min-plus sweeps leave the INF
    # sentinel off the Mather face: the estimator agreement read 1e+30
    code = main([command, "--config", str(CONFIGS / "quadratic.json"),
                 "--out", str(tmp_path / "o"), "--set", "grid.h=0.2",
                 "--set", 'model.potential={"name":"abs","scale":1e300}'])
    assert code == 3
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if line.startswith("error")]
    assert len(lines) == 1 and lines[0].startswith("error[Unreachable]: the swept limit "
                                                   "at node 10 (x = [-2.0])"), err
    assert "Traceback" not in err


def test_a_study_with_zero_gaps_writes_its_plot(tmp_path, capsys):
    # V = 0: u_lambda = w = 0, so the log-log plot keeps no point and is
    # drawn as bare axes
    out = tmp_path / "o"
    assert main(["study", "--config", str(CONFIGS / "eikonal_abs.json"), "--out", str(out),
                 "--set", 'model.potential={"name":"inverse_bump","scale":0}',
                 "--set", "grid.h=0.5", "--set", "velocity.q_max=1"]) == 0
    assert "error" not in capsys.readouterr().err
    assert json.loads((out / "study.json").read_text())["sup_gaps"]["value"] == [0.0] * 3
    assert "<circle" not in (out / "gaps.svg").read_text()


def test_a_failed_study_stage_prints_one_error_line(tmp_path, capsys, monkeypatch):
    import weakkam.limits
    from weakkam.errors import MaxIterExceeded
    solve = weakkam.limits.solve_discounted

    def failing(*args, **kwargs):
        if args[3] == 0.5:
            raise MaxIterExceeded("policy still changing after 3 steps")
        return solve(*args, **kwargs)

    monkeypatch.setattr(weakkam.limits, "solve_discounted", failing)
    out = tmp_path / "o"
    assert main(["study", "--config", str(CONFIGS / "quadratic.json"), "--out", str(out),
                 "--set", "grid.h=0.2"]) == 3
    assert_one_error(capsys.readouterr().err,
                     "error: study: solve at lambda 0.5: MaxIterExceeded(")
    assert [f["stage"] for f in json.loads((out / "study.json").read_text())["failures"]] == [
        "solve"]


def test_a_discount_lost_to_rounding_exits_3_without_traceback(tmp_path, capsys):
    # 1 + lambda h rounds to 1, so the policy matrices are singular
    cfg = str(CONFIGS / "quadratic.json")
    for argv in (["mather", "--lambda", "1e-20"], ["solve", "--lambda", "1e-20"]):
        assert main(argv + ["--config", cfg, "--out", str(tmp_path / argv[0])]) == 3
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if line.startswith("error")]
        assert len(lines) == 1 and lines[0].startswith("error[SingularBasis]: "), err
        assert "Traceback" not in err


def test_a_breached_claim_and_a_failed_stage_print_one_error_line(tmp_path, capsys,
                                                                   monkeypatch):
    # the estimators disagree (the swept limit is shifted by 0.1 off the
    # face) and the solve at lambda 1e-20 fails: one line names both.
    # Unshifted, this steep double well's estimators agree to 1e-9
    import weakkam.limits
    swept_limit = weakkam.limits.swept_limit

    def shifted(problem, ergodic, face_nodes):
        values = swept_limit(problem, ergodic, face_nodes) + 0.1
        values[face_nodes] = 0.0
        return values

    monkeypatch.setattr(weakkam.limits, "swept_limit", shifted)
    cfg = write_cfg(tmp_path, {
        "model": {"family": "eikonal", "potential": {"name": "double_well", "scale": 1e6}},
        "grid": {"box": [[0.0, 3.0]], "h": 0.2},
        "velocity": {"q_max": 1.5, "per_axis_count": 9},
        "schedule": {"lambdas": [0.5, 1e-20]},
        "probes": [[2.39]],
    })
    out = tmp_path / "o"
    assert main(["study", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert_one_error(err, "error: estimator_agreement: sup |")
    assert "exceeds its tolerance 0.03; study: solve at lambda 1e-20: SingularBasis(" in err
    claim = json.loads((out / "study.json").read_text())["estimator_agreement"]
    assert claim["value"] == pytest.approx(0.1, abs=1e-8)
    assert (out / "manifest.json").exists()


def _imports_numpy_random(tmp_path, command):
    """Whether a fresh interpreter that runs `command` on TINY_STUDY imports
    numpy.random (about 6 MB resident)."""
    cfg = write_cfg(tmp_path, TINY_STUDY)
    script = ("import sys\n"
              "from weakkam.cli import main\n"
              "assert main(sys.argv[1:]) == 0\n"
              "print('numpy.random' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(weakkam.__file__).resolve().parent.parent)}
    done = subprocess.run([sys.executable, "-c", script, command, "--config", cfg,
                           "--out", str(tmp_path / command)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()[-1] == "True"


def test_a_study_draws_nothing_at_random(tmp_path):
    assert not _imports_numpy_random(tmp_path, "study")


def test_validate_draws_nothing_at_random(tmp_path):
    # its convexity probes are a Weyl sequence
    assert not _imports_numpy_random(tmp_path, "validate")
