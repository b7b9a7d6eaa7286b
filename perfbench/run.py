#!/usr/bin/env python3
"""Benchmark of the dicesm command-line jobs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a dicesm checkout; it imports dicesm from src/.
Set-up (untimed) writes the workload's inputs from --seed into a fresh
directory under .perfbench_work/, checks the small golden job against
reference.json and, on calibrate-c2, probes a known defect. Then:

--trace 0  runs the job as a fresh `python -m dicesm ...` process, one at
           a time (closed loop, one client), until S seconds have passed
           and at least three jobs ran, and reports the median of each
           end-to-end metric in BENCHMARK.json.
--trace 1  runs the job once as a process, then alternates in-process
           `dicesm.cli.main(argv)` calls with and without span wrappers
           (see tracer.py) for S seconds, and reports the median of each
           per-layer metric in BENCHMARK.json.

Every run of a job must exit 0, pass its workload's output checks and
write byte-identical stdout and files; any run that does not counts as
failed. The last stdout line is the JSON result; a result file with the
environment record and each metric's median and quartiles is written to
.perfbench_work/results/. `--write-reference` rewrites reference.json
from the current code.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path

# This process writes no bytecode: dicesm, numpy and scipy are imported
# after this line, and the checkout must stay clean.
sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

MIN_JOBS = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s
IMPORT_MARK = "perfbench-imported"

# Child jobs are `python -m dicesm` after an import timestamp on stderr.
BOOTSTRAP = (
    "import runpy, sys, time\n"
    "import dicesm.cli\n"
    f"sys.stderr.write('{IMPORT_MARK} %r\\n' % time.clock_gettime(time.CLOCK_MONOTONIC))\n"
    "runpy.run_module('dicesm', run_name='__main__', alter_sys=True)\n"
)


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _quartiles(values):
    values = sorted(values)
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _child_env() -> dict:
    """The parent's environment with dicesm from src/ and bytecode cached
    under .perfbench_work/pycache, as an installed package would run."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


def _clear_outputs(job) -> None:
    for rel in job.outputs:
        path = job.cwd / rel
        if path.is_dir():
            shutil.rmtree(path)
        elif path.exists():
            path.unlink()


def _digest(job, stdout: bytes) -> str:
    """sha256 over stdout and every output file, by relative path."""
    h = hashlib.sha256(stdout)
    for rel in job.outputs:
        path = job.cwd / rel
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for f in files:
            h.update(str(f.relative_to(job.cwd)).encode() + b"\0")
            h.update(f.read_bytes() if f.exists() else b"<missing>")
    return h.hexdigest()


class Outcome:
    """One run of a job: exit code, parsed stdout, digest and timings."""

    def __init__(self, code, stdout: bytes, stderr: str, job, **timing):
        self.timing = timing
        self.problems = []
        self.out = None
        if code != 0:
            tail = stderr.strip().splitlines()[-1:] or [""]
            self.problems.append(f"exit code {code}: {tail[0]}")
            return
        try:
            self.out = json.loads(stdout.decode())
        except (UnicodeDecodeError, json.JSONDecodeError):
            self.problems.append(f"stdout is not one JSON object: {stdout[:200]!r}")
            return
        self.problems += job.check(self.out)
        self.digest = _digest(job, stdout)


def run_process(job, env, deadline) -> Outcome:
    """Spawn `python -m dicesm <argv>` and wait for it; wall time from spawn
    to exit, set-up time from spawn to the end of `import dicesm.cli`,
    peak RSS from the child's rusage."""
    _clear_outputs(job)
    out_path, err_path = job.cwd.parent / "stdout", job.cwd.parent / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = _now()
        proc = subprocess.Popen([sys.executable, "-c", BOOTSTRAP, *job.argv],
                                cwd=job.cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(max(1.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        end = _now()
    stdout, stderr = out_path.read_bytes(), err_path.read_text(errors="replace")
    imported = [float(line.split()[1]) for line in stderr.splitlines()
                if line.startswith(IMPORT_MARK)]
    outcome = Outcome(proc.returncode, stdout, stderr, job, wall=end - start,
                      setup=imported[0] - start if imported else None,
                      rss_mb=usage.ru_maxrss / 1024.0)
    if not imported and not outcome.problems:
        outcome.problems.append("no import timestamp from the child")
    return outcome


def run_in_process(job, tracer=None) -> Outcome:
    """Call dicesm.cli.main(argv) here, optionally under a tracer; warnings
    are recorded, not shown, in both cases so the two cost the same."""
    from dicesm import cli

    _clear_outputs(job)
    out, err = io.StringIO(), io.StringIO()
    main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
    with contextlib.chdir(job.cwd), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught, \
            tracer if tracer is not None else contextlib.nullcontext():
        warnings.simplefilter("always")
        start = time.perf_counter()
        code = main(list(job.argv))
        wall = time.perf_counter() - start
    outcome = Outcome(code, out.getvalue().encode(), err.getvalue(), job, wall=wall)
    outcome.caught = caught
    return outcome


# --------------------------------------------------------------------------
# Set-up checks: golden reference and known defects
# --------------------------------------------------------------------------

def golden_problems(name, golden_job, workloads) -> list:
    """Run the small golden job and compare its stdout numbers with the
    stored reference, within workloads.TOL."""
    outcome = run_in_process(golden_job)
    if outcome.problems:
        return [f"golden: {p}" for p in outcome.problems]
    ref = json.loads(REFERENCE.read_text())[name]
    return [f"golden: {k} = {outcome.out[k]!r}, reference {ref[k]!r}"
            for k in golden_job.reference_keys
            if abs(outcome.out[k] - ref[k]) > workloads.TOL]


def probe_known_defects(name, job, workloads) -> dict:
    if name != "calibrate-c2":
        return {}
    from dicesm import cli

    err = io.StringIO()
    with contextlib.chdir(job.cwd), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(workloads.boundary_probe_argv())
    return {"f32-simplex-roundtrip": {
        "command": "dicesm " + " ".join(workloads.boundary_probe_argv()),
        "exit_code": code,
        "exit_code_when_fixed": 0,
        "stderr": err.getvalue().strip()[:300],
    }}


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------

def mark_mismatches(outcomes) -> None:
    """Every run of a job must write what its first good run wrote; a run
    that does not is failed, so its figures never enter a median."""
    good = [o for o in outcomes if not o.problems]
    for o in good[1:]:
        if o.digest != good[0].digest:
            o.problems.append("stdout or output files differ from the first run")


def end_to_end_samples(job, outcomes) -> dict:
    samples = {k: [] for k in ("wall_s", "setup_s", "img_epochs_per_s", "peak_rss_mb")}
    for o in outcomes:
        t = o.timing
        samples["wall_s"].append(t["wall"])
        samples["setup_s"].append(t["setup"])
        samples["img_epochs_per_s"].append(job.img_epochs / (t["wall"] - t["setup"]))
        samples["peak_rss_mb"].append(t["rss_mb"])
    return samples


def environment(args, n_runs) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = "unknown"
    sha = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                 capture_output=True, text=True).stdout.strip()
    src = hashlib.sha256()
    for f in sorted((SRC / "dicesm").rglob("*.py")):
        src.update(str(f.relative_to(SRC)).encode() + b"\0" + f.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": src.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k, "default") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "runs": n_runs,
        "run_seconds": args.seconds,
    }


# --------------------------------------------------------------------------
# Main
# --------------------------------------------------------------------------

def measure(args, job, tracer_mod, deadline):
    """Timed part of a run: returns (outcomes, samples by metric name)."""
    env = _child_env()
    t0 = _now()

    def more(n):
        return _now() < deadline and (n < MIN_JOBS or _now() - t0 < args.seconds)

    if not args.trace:
        outcomes = []
        while more(len(outcomes)):
            outcomes.append(run_process(job, env, deadline))
        mark_mismatches(outcomes)
        return outcomes, end_to_end_samples(job, [o for o in outcomes if not o.problems])
    first = run_process(job, env, deadline)
    plain, traced = [], []
    while more(len(traced)):
        plain.append(run_in_process(job))
        tracer = tracer_mod.Tracer()
        traced.append(run_in_process(job, tracer))
        traced[-1].metrics = tracer_mod.layer_metrics(
            tracer.spans, 0, tracer_mod.degenerate_pixels(traced[-1].caught))
    mark_mismatches([first] + plain + traced)
    samples = {}
    for o in traced:
        for k, v in (o.metrics.items() if not o.problems else ()):
            samples.setdefault(k, []).append(v)
    plain_ok = [o.timing["wall"] for o in plain if not o.problems]
    traced_ok = [o.timing["wall"] for o in traced if not o.problems]
    if plain_ok and traced_ok:
        samples["trace.overhead_frac"] = [
            statistics.median(traced_ok) / statistics.median(plain_ok) - 1.0]
    return [first] + plain + traced, samples


def write_reference(workloads) -> int:
    ref = {}
    for name, make in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            job = make(Path(tmp), workloads.GOLDEN_SEED, True)
            outcome = run_in_process(job)
            if outcome.problems:
                print(f"{name}: {outcome.problems}", file=sys.stderr)
                return 1
            ref[name] = {k: outcome.out[k] for k in job.reference_keys}
    REFERENCE.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")
    return 0


def report(args, wanted, outcomes, samples, golden, defects) -> None:
    """Print the human-readable lines, write the result file, and print the
    JSON result as the last line."""
    good = [o for o in outcomes if not o.problems]
    attempted = len(outcomes) + 1  # the golden job is one more run
    failed = sum(1 for o in outcomes if o.problems) + bool(golden)
    problems = golden + sorted({p for o in outcomes for p in o.problems})

    stats = {}
    for m in wanted:
        values = samples.get(m["name"], [])
        if not values and not failed:
            raise RuntimeError(f"benchmark computes no value for {m['name']}")
        q1, q3 = _quartiles(values) if values else (0.0, 0.0)
        stats[m["name"]] = {"median": statistics.median(values) if values else 0.0,
                            "q1": q1, "q3": q3, "n": len(values),
                            "unit": m["unit"], "samples": values}
    correct = failed == 0
    env = environment(args, len(outcomes))
    result = {"environment": env, "correct": correct, "attempted": attempted,
              "failed": failed, "error_rate": failed / attempted,
              "problems": problems, "known_defects": defects,
              "outputs": good[0].out if good else None, "metrics": stats}
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    path = results / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                      f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    path.write_text(json.dumps(result, indent=2) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"runs={len(outcomes)} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} blas={env['blas']} nproc={env['nproc']}")
    for name, s in stats.items():
        print(f"{name:40s} {s['median']:.6g} {s['unit']}  "
              f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']}]")
    print(f"{'error_rate':40s} {failed / attempted:.6g} fraction  "
          f"[{failed} of {attempted} runs failed]")
    if good:
        print("outputs: " + json.dumps(good[0].out))
    for key, d in defects.items():
        print(f"known defect {key}: exit code {d['exit_code']} "
              f"(expected {d['exit_code_when_fixed']} once fixed)")
    for p in problems:
        print(f"problem: {p}")
    print(f"result file: {path.relative_to(ROOT)}")
    metrics = {k: {"value": s["median"], "unit": s["unit"]} for k, s in stats.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None) -> int:
    deadline = _now() + RUN_LIMIT_S
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "dicesm" / "cli.py").is_file():
        print(f"perfbench: no dicesm sources in {SRC}; run from the root of a "
              "dicesm checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer as tracer_mod
    import workloads

    WORK.mkdir(exist_ok=True)
    if args.write_reference:
        return write_reference(workloads)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        (run_dir / "job").mkdir()
        (run_dir / "golden").mkdir()
        make = workloads.WORKLOADS[args.workload]
        job = make(run_dir / "job", args.seed, False)
        golden_job = make(run_dir / "golden", workloads.GOLDEN_SEED, True)
        # warm the bytecode cache the timed children read
        subprocess.run([sys.executable, "-c", "import dicesm.cli"],
                       env=_child_env(), check=True, timeout=RUN_LIMIT_S)
        defects = probe_known_defects(args.workload, job, workloads)
        golden = golden_problems(args.workload, golden_job, workloads)
        outcomes, samples = measure(args, job, tracer_mod, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    report(args, wanted, outcomes, samples, golden, defects)
    return 0


if __name__ == "__main__":
    sys.exit(main())
