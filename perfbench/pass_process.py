"""One pass of a workload, in a fresh process started by run.py.

Usage: python3 pass_process.py SPEC.json

The spec names the source tree, the CLI argument lists to hand to
`weakkam.cli.main` in order, and the mode:

  pass    run every command; with "trace" true, wrap the public functions
          of each module (see tracer.py) and write the spans at exit
  setup   stop each command as soon as `cli.build_context` returns
  sizes   report problem sizes from the public builders, then exit

The process writes a marks file: monotonic timestamps when it started and
when weakkam was imported, at each command's entry, at the return of its
`build_context` and at its exit, plus the exit codes.  run.py turns those
into set-up times; the first two show how set-up splits.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


class SetupDone(Exception):
    """Raised out of cli.main once set-up is complete (setup mode)."""


def _import_cli(src):
    sys.path.insert(0, src)
    from weakkam import cli
    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise ImportError(f"weakkam imported from {cli.__file__}, not from {src}")
    return cli


def _sizes(cli, argv, builds_lp):
    args = cli.make_parser().parse_args(argv)
    cfg = cli.validate_config(cli.load_config(args.config))
    ctx = cli.build_context(cfg)
    grid, vset = ctx["grid"], ctx["velocity_set"]
    out = {"nodes": grid.num_nodes, "velocities": vset.size,
           "transitions": grid.num_nodes * vset.size}
    if builds_lp:
        from weakkam import measures
        from tracer import nnz
        lam, z = cli.resolve_schedule(cfg)[0], cfg["probes"][0]
        for kind, problem in (
                ("ergodic", measures.build_ergodic_lp(ctx["model"], grid, vset,
                                                      transition=ctx["transition"])),
                ("discounted", measures.build_discounted_lp(
                    ctx["model"], grid, vset, lam, z, transition=ctx["transition"]))):
            rows, cols = problem.A.shape
            out[f"lp_{kind}"] = {"rows": rows, "cols": cols, "nnz": nnz(problem.A)}
    return out


def main(spec_path):
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    marks = {"started": time.monotonic(), "enter": [], "context": [], "exit": [],
             "codes": []}
    cli = _import_cli(spec["src"])
    marks["imported"] = time.monotonic()
    if spec["mode"] == "sizes":
        marks["sizes"] = _sizes(cli, spec["commands"][0], spec["builds_lp"])
    else:
        tracer = None
        if spec["trace"]:
            from tracer import ROOT_SPAN, Tracer
            tracer = Tracer(spec["pass_id"])
            tracer.install("weakkam")
        build_context = cli.build_context
        setup_only = spec["mode"] == "setup"

        def marked_build_context(cfg):
            ctx = build_context(cfg)
            marks["context"].append(time.monotonic())
            if setup_only:
                raise SetupDone
            return ctx

        cli.build_context = marked_build_context
        run = cli.main if tracer is None else tracer.wrap(ROOT_SPAN, cli.main)
        for argv in spec["commands"]:
            marks["enter"].append(time.monotonic())
            try:
                code = run(argv)
            except SetupDone:
                code = 0
            marks["exit"].append(time.monotonic())
            marks["codes"].append(code)
        if tracer is not None:
            tracer.dump(spec["trace_path"])
    with open(spec["marks_path"], "w", encoding="utf-8") as fh:
        json.dump(marks, fh)


if __name__ == "__main__":
    main(sys.argv[1])
