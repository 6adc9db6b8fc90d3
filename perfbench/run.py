"""End-to-end and per-layer benchmark of the weakkam CLI pipelines.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload study_1d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each pass runs a workload's CLI commands in one fresh process
(pass_process.py) with BLAS pinned to one thread.  Passes repeat until
--seconds have been measured (at least two, or one plain and one traced
pass with --trace 1).  Every command's artifacts are checked, and artifact
checksums must agree across the passes of a run.

--trace 0 reports the end-to-end metrics: wall_s (median pass wall time),
setup_s (median over set-up-only processes), peak_rss_mb.  --trace 1
alternates plain and traced passes and reports the per-layer metrics of the
traced ones (tracer.py) and trace.overhead_s.  The last line of standard
output is one JSON object: correct, attempted, failed (commands that exited
non-zero or failed a check) and metrics.  A fuller report (quartiles, pass
count, checks, output digest, environment, problem sizes, span table) is
printed on the line before it and kept under .perfbench_work/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_PLAIN_PASSES = 2          # so that every run compares two passes' artifacts
SETUP_PROBES = 7              # set-up-only processes per run, after one warm-up
SOFT_LIMIT_S = 150.0          # start no pass expected to end after this
HARD_LIMIT_S = 175.0          # kill a process still running at this point

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name == "io.bytes":
        return "bytes"
    return "count"


LAYER_UNITS = {name: layer_unit(name)
               for name in tracer.LAYER_METRICS + ["trace.overhead_s"]}


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

class Run:
    """One invocation: a workload, a seed, and its work directory."""

    def __init__(self, workload, seed, size, start):
        self.workload = workload
        self.seed = seed
        self.start = start
        self.dir = WORK / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "config.json"
        self.config.write_text(json.dumps(workload.config_for(size), indent=2))
        self.env = dict(os.environ, **BLAS_ENV)
        self.env.pop("PYTHONPATH", None)
        # set-up is timed with compiled bytecode cached, as an installed package has
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.count = 0

    def argv(self, command, out):
        sub, *extra = command.args
        return [sub, "--config", str(self.config), "--out", str(out),
                "--seed", str(self.seed), *extra]

    def spawn(self, mode, trace=False):
        """Run pass_process.py once; returns (name, marks or None, rusage, wall)."""
        name = f"{mode}{self.count}"
        self.count += 1
        base = self.dir / name
        spec = {"src": str(SRC), "mode": mode, "trace": trace, "pass_id": name,
                "builds_lp": self.workload.builds_lp,
                "commands": [self.argv(c, base / c.label) for c in self.workload.commands],
                "marks_path": f"{base}.marks.json", "trace_path": f"{base}.trace.json"}
        spec_path = Path(f"{base}.spec.json")
        spec_path.write_text(json.dumps(spec))
        timeout = max(1.0, self.start + HARD_LIMIT_S - time.monotonic())
        with open(f"{base}.log", "wb") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen([sys.executable, str(HERE / "pass_process.py"),
                                     str(spec_path)], cwd=ROOT, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                t1 = time.monotonic()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        marks = None
        if proc.returncode == 0:
            marks = json.loads(Path(spec["marks_path"]).read_text())
            marks["t0"] = t0
        return name, marks, usage, t1 - t0


def setup_seconds(marks):
    """Process start to the first build_context return, plus each later
    command's entry to its build_context return."""
    ctx, enter = marks["context"], marks["enter"]
    if len(ctx) != len(enter):
        return None
    return (ctx[0] - marks["t0"]) + sum(c - e for c, e in zip(ctx[1:], enter[1:]))


def artifact_sums(out):
    sums = {}
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            sums[str(path.relative_to(out))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return sums


def output_digest(run, pass_name):
    """sha256 over the numeric artifacts of one pass (informational)."""
    digest = hashlib.sha256()
    for command in run.workload.commands:
        for fname in command.digest:
            path = run.dir / pass_name / command.label / fname
            digest.update(f"{command.label}/{fname}\n".encode())
            digest.update(path.read_bytes() if path.is_file() else b"<missing>")
    return digest.hexdigest()


def run_pass(run, traced):
    name, marks, usage, wall = run.spawn("pass", trace=traced)
    record = {"name": name, "traced": traced, "completed": marks is not None,
              "wall_s": wall,
              "cpu_s": usage.ru_utime + usage.ru_stime,
              "peak_rss_mb": usage.ru_maxrss / 1024.0, "ops": len(run.workload.commands),
              "failed": [], "problems": {}, "sums": {}}
    codes = marks["codes"] if marks else []
    for k, command in enumerate(run.workload.commands):
        out = run.dir / name / command.label
        problems = []
        if k >= len(codes):
            problems.append("pass process died (see its .log)")
        elif codes[k] != 0:
            problems.append(f"exit code {codes[k]}")
        else:
            problems += command.check(out)
            record["sums"][command.label] = artifact_sums(out)
        if problems:
            record["failed"].append(command.label)
            record["problems"][command.label] = problems
    if marks:
        record["setup_s"] = setup_seconds(marks)
        record["command_s"] = {c.label: x - e for c, e, x in
                               zip(run.workload.commands, marks["enter"], marks["exit"])}
        record["digest"] = output_digest(run, name)
        if traced:
            trace = tracer.load(f"{run.dir / name}.trace.json")
            record["layers"], record["spans"] = tracer.layer_metrics(trace)
            record["patched"], record["missing_targets"] = trace["patched"], trace["missing"]
    return record


def compare_sums(passes):
    """Mark commands whose artifacts differ from the first pass that ran them."""
    reference = {}
    for record in passes:
        for label, sums in record["sums"].items():
            ref = reference.setdefault(label, sums)
            if sums != ref and label not in record["failed"]:
                differ = sorted(k for k in set(sums) | set(ref) if sums.get(k) != ref.get(k))
                record["failed"].append(label)
                record["problems"][label] = [f"artifacts differ from the first pass: {differ}"]


# ---------------------------------------------------------------------------
# statistics and reporting
# ---------------------------------------------------------------------------

def summary(values):
    values = [v for v in values if v is not None]
    if not values:
        return None
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "n": len(values), "values": values}


def environment():
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None
    cpu = None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "cpu_model": cpu or platform.processor(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_ENV}


def run_workload(workload, seed, seconds, trace, size):
    start = time.monotonic()
    run = Run(workload, seed, size, start)
    report = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": trace, "size": size, "environment": environment()}
    problems = []

    # warm-up (byte-compiles the sources into the checkout), set-up probes
    # (timed runs only) and the problem-size probe, all outside the passes
    name, marks, _, _ = run.spawn("setup")
    if marks is None:
        sys.stderr.write(f"error: the program could not be started; see {run.dir / name}.log\n")
        return None
    setups, interpreter, imports = [], [], []
    for _ in range(0 if trace else SETUP_PROBES):
        name, marks, _, _ = run.spawn("setup")
        if marks is None or any(marks["codes"]):
            problems.append(f"set-up probe {name} failed; see {run.dir / name}.log")
        else:
            setups.append(setup_seconds(marks))
            interpreter.append(marks["started"] - marks["t0"])
            imports.append(marks["imported"] - marks["started"])
    name, marks, _, _ = run.spawn("sizes")
    report["sizes"] = marks["sizes"] if marks else None
    if marks is None:
        problems.append(f"size probe failed; see {run.dir / name}.log")

    # timed passes; with --trace 1 plain and traced passes alternate
    kinds = [False, True] if trace else [False]
    min_passes = len(kinds) if trace else MIN_PLAIN_PASSES
    passes = []
    t_begin = time.monotonic()
    while True:
        now = time.monotonic()
        if len(passes) >= min_passes and now - t_begin >= seconds:
            break
        if passes and now + max(p["wall_s"] for p in passes) > start + SOFT_LIMIT_S:
            break
        passes.append(run_pass(run, kinds[len(passes) % len(kinds)]))
    compare_sums(passes)

    # timings come from every pass that ran to the end, checked or not
    plain = [p for p in passes if not p["traced"] and p["completed"]]
    traced = [p for p in passes if p["traced"] and p["completed"]]
    attempted = sum(p["ops"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    for p in passes:
        for label, msgs in p["problems"].items():
            problems.append(f"{p['name']}/{label}: {'; '.join(msgs)}")

    stats = {"wall_s": summary([p["wall_s"] for p in plain]),
             "setup_s": summary(setups),
             "setup_interpreter_s": summary(interpreter),
             "setup_import_s": summary(imports),
             "peak_rss_mb": summary([p["peak_rss_mb"] for p in plain]),
             "pass_setup_s": summary([p["setup_s"] for p in plain])}
    metrics = {}
    if trace:
        if traced and plain:
            layers = {k: statistics.median(p["layers"][k] for p in traced)
                      for k in tracer.LAYER_METRICS}
            layers["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                          - stats["wall_s"]["median"])
            metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layers.items()}
            stats["traced_wall_s"] = summary([p["wall_s"] for p in traced])
            report["computed"] = {"measures.lp_dense_mb":
                                  "rows x cols x 8 B of the largest LP, not measured"}
            report["spans"] = traced[0]["spans"]
            report["patched"] = traced[0]["patched"]
            report["missing_targets"] = traced[0]["missing_targets"]
    elif plain and setups:
        metrics = {k: {"value": stats[k]["median"], "unit": u} for k, u in E2E_UNITS.items()}
    if not metrics:
        problems.append("no pass ran to the end")

    report.update({
        "ops": attempted, "ops_failed": failed, "problems": problems,
        "passes": [{k: p.get(k) for k in ("name", "traced", "wall_s", "cpu_s", "setup_s",
                                          "command_s", "peak_rss_mb", "failed", "digest")}
                   for p in passes],
        "digest": sorted({p.get("digest") for p in passes if not p["failed"]} - {None}),
        "stats": stats, "elapsed_s": time.monotonic() - start,
    })
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    (run.dir / "report.json").write_text(json.dumps({"report": report, "result": result},
                                                    indent=2))
    return report, result


def describe(report, result):
    lines = []
    for key, unit in [*E2E_UNITS.items(), ("traced_wall_s", "s")]:
        s = report["stats"].get(key)
        if s:
            lines.append(f"  {key:<13} {s['median']:.4f} {unit} "
                         f"(q1 {s['q1']:.4f}, q3 {s['q3']:.4f}, n {s['n']})")
    lines.append(f"  ops_failed    {result['failed']}/{result['attempted']} ops")
    for problem in report["problems"]:
        lines.append(f"  problem: {problem}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every grid (smoke test of the harness)")
    args = parser.parse_args(argv)
    if not (SRC / "weakkam" / "__init__.py").is_file():
        sys.stderr.write(f"error: no weakkam sources under {SRC}\n")
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        out = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                           args.size)
        if out is None:
            return 1
        report, result = out
        results[name] = result
        print(f"{name}:\n{describe(report, result)}")
        print(json.dumps({"report": report}, sort_keys=True))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
