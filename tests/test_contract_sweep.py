"""The CLI's exit-code contract on configs drawn from fixed seeds.

Each seed draws one small config (numpy only): 1D or 2D, eikonal or
quadratic, one of the four registry potentials scaled by 0, +-1 or
+-1e+-6, and a box, step, velocity set, discount schedule (or
`--lambda`) and probes, with lambda = 1e-20 among the discounts; command
`seed % 8` runs it in-process.  Whatever the config, the run must exit 0,
2 or 3, print exactly one `error` line when it does not exit 0, raise no
exception (a traceback at the console) and emit no RuntimeWarning.

Tier-1 runs the first TIER1_COUNT seeds.  The full list runs with

    WEAKKAM_SWEEP=full PYTHONPATH=src python -m pytest -q tests/test_contract_sweep.py
"""

import json
import os
import warnings

import numpy as np
import pytest

from weakkam.cli import HANDLERS, main

COMMANDS = list(HANDLERS)
SEEDS = range(120)
TIER1_COUNT = 10

POTENTIALS = ["abs", "half_square", "double_well", "inverse_bump"]
SCALES = [0.0, 1.0, -1.0, 1e6, -1e6, 1e-6, -1e-6]
BOXES = {1: [[[-2.0, 2.0]], [[-1.0, 1.0]], [[-4.0, 4.0]], [[0.0, 3.0]], [[0.0, 1.0]]],
         2: [[[-1.0, 1.0], [-1.0, 1.0]], [[-2.0, 2.0], [-2.0, 2.0]],
             [[-1.5, 1.5], [-1.0, 1.0]]]}
STEPS = {1: [0.1, 0.2, 0.25, 0.5], 2: [0.25, 0.5]}
COUNTS = {1: [3, 5, 7, 9], 2: [3, 5]}
Q_MAX = [0.5, 1.0, 1.5, 2.0]
# 1e-20 leaves no discount in 1 + lambda h: every policy matrix is singular
LAMBDAS = [1.0, 0.5, 0.1, 1e-20]
SCHEDULES = [[0.5], [1.0, 0.25], [0.5, 0.25, 0.125], [0.5, 1e-20]]


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


def draw(seed):
    """(config, command line) of one seed; the output directory is added
    by the caller."""
    rng = np.random.default_rng(seed)
    dim = 1 if rng.uniform() < 0.7 else 2
    box = _pick(rng, BOXES[dim])
    lo = np.array([a for a, _ in box])
    hi = np.array([b for _, b in box])

    def point():
        return [float(v) for v in np.round(lo + (hi - lo) * rng.uniform(size=dim), 2)]

    cfg = {
        "model": {"family": _pick(rng, ["eikonal", "quadratic"]),
                  "potential": {"name": _pick(rng, POTENTIALS),
                                "scale": _pick(rng, SCALES)}},
        "grid": {"box": box, "h": _pick(rng, STEPS[dim])},
        "velocity": {"q_max": _pick(rng, Q_MAX),
                     "per_axis_count": _pick(rng, COUNTS[dim])},
        "schedule": {"lambdas": _pick(rng, SCHEDULES)},
        "probes": [point() for _ in range(int(rng.integers(1, 3)))],
    }
    command = COMMANDS[seed % len(COMMANDS)]
    argv = [command]
    if command == "distance":
        # two tokens: a value with a leading minus is still the flag's
        argv += ["--source", ",".join(repr(v) for v in point())]
        argv += ["--direction", _pick(rng, ["from", "to"])]
    elif command in ("solve", "mather") and rng.uniform() < 0.5:
        argv += ["--lambda", repr(_pick(rng, LAMBDAS))]
    return cfg, argv


@pytest.mark.parametrize("seed", SEEDS if os.environ.get("WEAKKAM_SWEEP") == "full"
                         else SEEDS[:TIER1_COUNT])
def test_exit_code_contract(seed, tmp_path, capsys):
    cfg, argv = draw(seed)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv + ["--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    context = f"seed {seed}: {' '.join(argv)} {json.dumps(cfg)}\n{err}"
    assert code in (0, 2, 3), context
    if code:
        assert sum(line.startswith("error") for line in err.splitlines()) == 1, context
    assert "Traceback" not in err, context
    raised = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not raised, (raised, context)


def test_the_tier1_slice_runs_every_command():
    assert {draw(seed)[1][0] for seed in SEEDS[:TIER1_COUNT]} == set(COMMANDS)
