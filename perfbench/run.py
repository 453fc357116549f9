"""katoflow benchmark: run one workload in a closed loop and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--report FILE] [--smoke]

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  One caller runs the workload's katoflow CLI call in a
fresh process, waits for it, and starts the next while the next fits in
``--seconds`` (at least one run, and with ``--trace 1`` one untraced and one
traced run).  Three set-up probes (import and config validation only) come
first.  Each child runs with every BLAS/OpenMP thread variable set to 1, so
its threads are the workload's ``--workers``.

Every run of a set uses the same seed, so every artifact (``*_results.csv``
and ``records.ndjson``; ``meta.json`` holds a timestamp) must hash the same
in each; the traced runs too.  The last line of standard output is one JSON
object: ``correct``, ``attempted`` (verdicts), ``failed`` (verdicts that do
not hold, suites that raised, artifacts whose bytes differ from the first
run's) and ``metrics`` -- the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  See README.md.
"""

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing
from workloads import ALL_SUITES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3
RUN_LIMIT_S = 170.0  # every run must end within 180 s
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark itself could not measure; no result is printed."""


def child_env():
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def artifact_hashes(out):
    files = sorted(out.glob("*_results.csv")) + [out / "records.ndjson"]
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files if p.exists()}


def verdict_counts(out):
    """(verdicts, verdicts that do not hold) over every record of the run."""
    path = out / "records.ndjson"
    if not path.exists():
        return 0, 0
    verdicts = [json.loads(line).get("verdict") for line in path.read_text().splitlines()]
    verdicts = [v for v in verdicts if v is not None]
    return len(verdicts), sum(v != "holds" for v in verdicts)


class Session:
    """One benchmark run: its work directory, clock and child processes."""

    def __init__(self, workload, seed, seconds, smoke, work):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = time.monotonic()
        self.deadline = self.started + seconds
        self.env = child_env()
        self.config_path = work / "config.json"
        config = workload.smoke_config if smoke else workload.config
        self.config_path.write_text(json.dumps(config, sort_keys=True))
        self.counter = itertools.count()

    def katoflow_argv(self, out):
        return [self.workload.command, "--config", str(self.config_path),
                "--seed", str(self.seed), "--out", str(out),
                "--workers", str(self.workload.workers)]

    def child(self, extra, out):
        k = next(self.counter)
        result = self.work / f"result-{k}.json"
        spawned = time.monotonic()
        remaining = self.started + RUN_LIMIT_S - spawned
        if remaining <= 0:
            raise BenchError("out of time before the minimum number of runs")
        cmd = [sys.executable, str(HERE / "child.py"), "--spawned", repr(spawned),
               "--result", str(result), *extra, "--", *self.katoflow_argv(out)]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"a run exceeded the {RUN_LIMIT_S:.0f} s limit") from None
        if proc.returncode != 0 or not result.exists():
            raise BenchError(f"child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        rec = json.loads(result.read_text())
        result.unlink()
        if Path(rec["katoflow"]) != (ROOT / "src" / "katoflow").resolve():
            raise BenchError(f"imported katoflow from {rec['katoflow']}, not this checkout")
        return rec

    def probe(self):
        return self.child(["--setup-only"], self.work / "probe")["setup_s"]

    def iteration(self, traced):
        k = next(self.counter)
        out = self.work / f"out-{k}"
        spans_path = self.work / f"spans-{k}.json"
        started = time.monotonic()
        rec = self.child(["--spans", str(spans_path)] if traced else [], out)
        rec["traced"] = traced
        rec["elapsed_s"] = time.monotonic() - started
        rec["hashes"] = artifact_hashes(out)
        rec["tables_ok"] = all(
            (out / f"{t}_results.csv").exists() for t in self.workload.tables)
        rec["verdicts"], rec["bad_verdicts"] = verdict_counts(out)
        try:
            rec["stderr"] = self.workload.stderr_of(out)
        except (OSError, KeyError, ValueError):
            rec["stderr"] = None
        if traced:
            rec["spans"] = json.loads(spans_path.read_text())
            spans_path.unlink()
            rec["layers"] = tracing.layer_metrics(rec["spans"], ALL_SUITES)
        shutil.rmtree(out, ignore_errors=True)
        return rec

    def run(self, trace):
        """Set-up probes, then the closed loop; returns (setup samples, runs)."""
        setups = [self.probe() for _ in range(SETUP_PROBES)]
        runs = []
        need = {False, True} if trace else {False}
        for traced in itertools.cycle(sorted(need)):
            if need <= {r["traced"] for r in runs}:
                same = [r["elapsed_s"] for r in runs if r["traced"] == traced]
                next_end = time.monotonic() + (same[-1] if same else 0.0)
                if next_end > min(self.deadline, self.started + RUN_LIMIT_S):
                    break
            runs.append(self.iteration(traced))
        setups += [r["setup_s"] for r in runs]
        return setups, runs


def judge(runs):
    """(correct, attempted, failed, problems) for one set of runs."""
    problems = []
    reference = runs[0]["hashes"]
    attempted = failed = 0
    for i, r in enumerate(runs):
        raised = r["raised"] is not None or r["exit_code"] not in (0, 1)
        if raised:
            problems.append(f"run {i} raised or crashed: {r['raised'] or r['exit_code']}")
        if not r["tables_ok"] or not r["hashes"]:
            problems.append(f"run {i} is missing result tables")
        differing = [n for n in reference.keys() | r["hashes"].keys()
                     if reference.get(n) != r["hashes"].get(n)]
        if differing:
            problems.append(f"run {i} artifacts differ from run 0: {sorted(differing)}")
        attempted += r["verdicts"] + raised
        failed += r["bad_verdicts"] + raised + len(differing)
    stderr = runs[0]["stderr"]
    if stderr is None or not math.isfinite(stderr) or stderr <= 0:
        problems.append(f"no positive stderr for time_to_target_s: {stderr}")
    return not problems, max(attempted, 1), failed, problems


def coverage_problems(workload, layers):
    """Layers the workload should exercise but did not, and predicted zeros
    that were not zero."""
    out = [f"{n} is zero but the workload exercises it"
           for n in workload.exercised if not layers[n] > 0]
    out += [f"{n} is {layers[n]} but is predicted zero"
            for n in workload.predicted_zero if layers[n] != 0]
    return out


def end_to_end(workload, setups, runs):
    untraced = [r for r in runs if not r["traced"]]
    wall = statistics.median(r["wall_s"] for r in untraced)
    stderr = runs[0]["stderr"] or 0.0
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "time_to_target_s": wall * (stderr / workload.target_stderr) ** 2,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }


def per_layer(runs):
    traced = [r for r in runs if r["traced"]]
    names = traced[0]["layers"]
    layers = {n: statistics.median(r["layers"][n] for r in traced) for n in names}
    wall_traced = statistics.median(r["wall_s"] for r in traced)
    wall_plain = statistics.median(r["wall_s"] for r in runs if not r["traced"])
    layers["trace.overhead_ratio"] = wall_traced / wall_plain - 1.0
    return layers


def host_meta(workload, setups, runs):
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workers": workload.workers,
        "blas_threads": 1,
        "runs": len(runs),
        "traced_runs": sum(r["traced"] for r in runs),
        "setup_samples": len(setups),
    }


def load_catalogue():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    spec = json.loads(path.read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", help="also write runs, hashes, metrics and spans as JSON")
    p.add_argument("--smoke", action="store_true",
                   help="tiny configs, for the benchmark's own tests only")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if not (ROOT / "src" / "katoflow" / "cli.py").is_file():
        print(f"perfbench: no katoflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench-work" / f"{workload.name}-{os.getpid()}"
    try:
        e2e_units, layer_units = load_catalogue()
        work.mkdir(parents=True)
        session = Session(workload, args.seed, args.seconds, args.smoke, work)
        setups, runs = session.run(bool(args.trace))
        correct, attempted, failed, problems = judge(runs)
        if args.trace:
            values, units = per_layer(runs), layer_units
            problems += coverage_problems(workload, values)
            correct = correct and not problems
        else:
            values, units = end_to_end(workload, setups, runs), e2e_units
        if set(values) != set(units):
            raise BenchError(f"metrics {sorted(set(values) ^ set(units))} "
                             "disagree with BENCHMARK.json")
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    meta = host_meta(workload, setups, runs)
    metrics = {n: {"value": values[n], "unit": units[n]} for n in units}
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(f"# {workload.name} seed={args.seed} trace={args.trace} "
          f"failed_ratio={failed / attempted:.6g} ({failed}/{attempted})")
    for n in units:
        print(f"{n} {values[n]:.6g} {units[n]}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print("hashes " + json.dumps(runs[0]["hashes"], sort_keys=True))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.report:
        Path(args.report).write_text(json.dumps(
            {"workload": workload.name, "seed": args.seed, "trace": args.trace,
             "meta": meta, "problems": problems, "setup_samples": setups,
             "runs": runs, "result": result}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
