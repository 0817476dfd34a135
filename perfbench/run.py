"""coptrans benchmark: seeded pipeline workloads, checked outputs, per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload dist-m24 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

A run sets up the workload, warms up on a smoke-size copy of it, then times
repetitions of the workload body, each on fresh inputs, until the next one
(or, for a workload that alternates inputs, the next cycle) would end past
--seconds. With --trace 0 it reports the end-to-end metrics;
with --trace 1 it records spans around the program's layers instead and
reports per-layer metrics. See README.md for the workloads and metrics. The last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}. --smoke runs every
workload at tiny sizes in both modes and checks each metric that
BENCHMARK.json names is emitted with its unit.

Everything the run writes stays under the repository root: working
artifacts in .bench_work/, exact references and artifact digests in
.bench_cache/, and the full record of each run in .bench_results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# One BLAS/OpenMP thread: at or below nproc on any machine, and the library's
# output does not depend on the thread count.
THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 3
REPLAY_BUDGET_S = 6.0


def import_program():
    """Import coptrans from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import coptrans
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import coptrans from {SRC}: {exc}")
    if SRC.resolve() not in Path(coptrans.__file__).resolve().parents:
        raise SystemExit(f"perfbench: coptrans came from {coptrans.__file__}, not {SRC}")
    return coptrans


def source_digest(*dirs: Path) -> str:
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def setup_seconds(name: str, seed: int, smoke: bool) -> list[float]:
    """Time the set-up SETUP_PROBES times, each in a fresh interpreter.

    A probe imports coptrans, makes the first repetition's input (or, for the
    power workload, its TFDC targets) and prints the seconds that took.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", name, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def setup_probe(name: str, seed: int, smoke: bool) -> float:
    t0 = time.perf_counter()
    import_program()
    import workloads

    w = workloads.WORKLOADS[name](smoke)
    work = Path(tempfile.mkdtemp(prefix="probe-", dir=_work_dir()))
    try:
        w.setup(seed)
        w.prepare(0, work)
        return time.perf_counter() - t0
    finally:
        shutil.rmtree(work)


def _work_dir() -> Path:
    path = ROOT / ".bench_work"
    path.mkdir(exist_ok=True)
    return path


def metadata(seed: int, trace: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    if Path("/proc/cpuinfo").exists():
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_cap": THREAD_CAP,
        "git_commit": commit,
        "src_sha256": source_digest(SRC / "coptrans"),
        "seed": seed,
        "trace": trace,
        "trace_overhead_s": None,
    }


def measure(name: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> dict:
    import tracer as tr
    import workloads

    w = workloads.WORKLOADS[name](smoke)
    tally = workloads.Tally()
    # Cached references and digests hold only for the program and benchmark
    # sources that produced them.
    sources = source_digest(SRC / "coptrans", Path(__file__).resolve().parent)
    cache = workloads.Cache(ROOT / ".bench_cache" / sources[:16]
                            / f"{name}{'-smoke' if smoke else ''}-seed{seed}.json")
    tracer = tr.Tracer() if trace else None
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=_work_dir()))

    def traced():
        return tr.install(tracer) if trace else nullcontext()

    def attempt(what, fn, *args):
        # The boundary that keeps a run going: a crash in the program or in a
        # check is counted as a failure, with its traceback on stderr.
        try:
            return fn(*args)
        except Exception:
            tally.check(False, f"{what} raised")
            traceback.print_exc(file=sys.stderr)
            return None

    def body(inp, out):
        t0, c0 = time.perf_counter(), time.process_time()
        with traced(), (tracer.span("body", site="bench") if trace else nullcontext()):
            attempt("workload body", w.run, inp, out, tally, tracer)
        cpu.append(time.process_time() - c0)
        return time.perf_counter() - t0

    try:
        setup = [] if trace else setup_seconds(name, seed, smoke)
        with traced(), (tracer.span("setup", site="bench") if trace else nullcontext()):
            w.setup(seed)
        # Warm-up: the same code paths at smoke size, so lazy set-up is done
        # before the window opens without spending a full repetition.
        small = workloads.WORKLOADS[name](smoke=True)
        small.setup(seed)
        attempt("warm-up", small.run, small.prepare(0, work), work / "warm", tally, None)

        first = len(tracer.spans) if trace else 0
        reps, failed_reps, cpu, runs = [], [], [], []
        start, rep = time.perf_counter(), 0
        while True:
            inp = w.prepare(rep, work)
            out = work / f"rep{rep}"
            failed_before = tally.failed
            elapsed = body(inp, out)
            # A failed body is already counted; its time and outputs are left
            # out, since a run cut short by an error is not a timing sample.
            if tally.failed > failed_before:
                failed_reps.append(elapsed)
            else:
                reps.append(elapsed)
                attempt("output check", w.check, inp, out, tally)
                digest = attempt("artifact digest", workloads.artifact_digest, out)
                tally.check(digest is not None and cache.same_digest(rep, digest),
                            f"repetition {rep} artifacts differ from an earlier run of this seed")
                if rep < w.checked_reps:
                    runs.append((inp, out))
            rep += 1
            # Stop only between cycles, so a workload that alternates inputs
            # (power's cells) keeps the same mix however many repetitions fit.
            if rep % w.cycle == 0 and time.perf_counter() - start + w.cycle * elapsed > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        record = {"workload": name, "reps_s": reps, "failed_reps_s": failed_reps,
                  "reps_cpu_s": cpu, "setup_s": setup}
        if trace and runs:
            rerun = work / "rerun"
            t0 = time.perf_counter()
            attempt("workload body", w.run, runs[0][0], rerun, tally, None)
            record["untraced_rep0_s"] = time.perf_counter() - t0
            tally.check(attempt("artifact digest", workloads.artifact_digest, rerun)
                        == cache.data["digests"].get("0"),
                        "untraced rerun of repetition 0 wrote other artifacts")
            replayed = tr.replay(tracer.spans[first:], REPLAY_BUDGET_S)
            tally.attempted += len(replayed[0])
            tally.failed += replayed[2]
            if replayed[2]:
                tally.notes.append(f"{replayed[2]} replayed values differ from their batch")
        accuracy = attempt("exact reference", w.accuracy, runs, cache, tally) or {}
        cache.save()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    nan = float("nan")
    if trace:
        n_reps = len(reps) + len(failed_reps)
        replayed = replayed if runs else ([], [], 0)
        layers = tr.layer_metrics(tracer.spans, first, n_reps, sum(reps) + sum(failed_reps),
                                  replayed)
        layers["dependence.tfdc_abs_err"] = (accuracy.get("tfdc_abs_err", 0.0), "abs")
        layers["trace.overhead_s"] = (
            reps[0] - record["untraced_rep0_s"] if runs else nan, "s")
        metrics = layers
    else:
        metrics = {
            "wall_s": (statistics.median(reps) if reps else nan, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "gap_exact": (accuracy.get("gap_exact", nan), "cost"),
        }
    record.update(
        meta=metadata(seed, trace),
        accuracy=accuracy,
        attempted=tally.attempted,
        failed=tally.failed,
        failures=tally.notes,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    if trace:
        record["meta"]["trace_overhead_s"] = metrics["trace.overhead_s"][0]
    return record


def report(record: dict) -> str:
    """Human-readable lines: each metric by name and unit, timings with quartiles."""
    name, meta = record["workload"], record["meta"]
    reps = record["reps_s"]
    lines = [f"{name} seed={meta['seed']} trace={meta['trace']}: "
             f"{len(reps)} timed repetitions in {sum(reps):.2f} s, "
             f"{len(record['failed_reps_s'])} failed"]
    spreads = {"wall_s": reps, "setup_s": record["setup_s"]}
    for key, m in record["metrics"].items():
        line = f"  {key:<30} {m['value']:.6g} {m['unit']}"
        if spreads.get(key):
            q1, q2, q3 = quartiles(spreads[key])
            line += f"  (median of {len(spreads[key])}; q1 {q1:.6g}, q3 {q3:.6g})"
        lines.append(line)
    if "tfdc_abs_err" in record["accuracy"] and meta["trace"] == 0:
        lines.append(f"  {'tfdc_abs_err':<30} {record['accuracy']['tfdc_abs_err']:.6g} abs")
    frac = record["failed"] / max(record["attempted"], 1)
    lines.append(f"  {'failed_frac':<30} {frac:.6g} frac"
                 f"  ({record['failed']} of {record['attempted']} operations)")
    lines.extend(f"  FAILED: {note}" for note in record["failures"])
    lines.append("meta " + json.dumps(record["meta"], sort_keys=True))
    return "\n".join(lines)


def result_line(record: dict) -> str:
    metrics = {k: {"value": v["value"] if math.isfinite(v["value"]) else None, "unit": v["unit"]}
               for k, v in record["metrics"].items()}
    return json.dumps({"correct": record["failed"] == 0 and record["attempted"] > 0,
                       "attempted": max(record["attempted"], 1),
                       "failed": record["failed"], "metrics": metrics})


def save_record(record: dict):
    out = ROOT / ".bench_results"
    out.mkdir(exist_ok=True)
    meta = record["meta"]
    path = out / f"{record['workload']}-seed{meta['seed']}-trace{meta['trace']}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def smoke() -> int:
    """Every workload at tiny sizes, both modes; every named metric with its unit."""
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    tally = workloads.Tally()
    workloads.check_exact_from_counts(tally)
    problems += tally.notes
    for entry in spec["workloads"]:
        for trace in (0, 1):
            record = measure(entry["name"], 1, 1.0, trace, smoke=True)
            print(report(record))
            got = {k: m["unit"] for k, m in record["metrics"].items()}
            where = f"{entry['name']} trace={trace}"
            if got != wanted[trace]:
                problems.append(f"{where}: metrics {got} differ from BENCHMARK.json {wanted[trace]}")
            if record["failed"] or not record["attempted"]:
                problems.append(f"{where}: {record['failed']} failed operations")
            problems += [f"{where}: {k} is not a finite number"
                         for k, m in record["metrics"].items() if not math.isfinite(m["value"])]
    for line in problems:
        print(f"SMOKE FAILED: {line}")
    print("smoke " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, every workload, both modes; checks metric names and units")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = str(THREAD_CAP)

    if args.setup_probe:
        print(setup_probe(args.workload, args.seed, args.smoke))
        return 0
    import_program()
    if args.smoke:
        return smoke()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    record = measure(args.workload, args.seed, args.seconds, args.trace)
    save_record(record)
    print(report(record))
    print(result_line(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
