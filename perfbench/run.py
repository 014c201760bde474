"""Closed-loop benchmark of the bruhat-kit command line.

    python3 perfbench/run.py --workload finite --seed 1 --seconds 20 --trace 0

One client, one job in flight, no threads.  Each job is a bruhat-kit verb
invocation from a seeded list (bench_inputs), run in this process through
`bruhat_kit.cli.main(argv + ["--json"])` with stdout captured.  The
package is imported from src/ next to this directory; caches start cold
and fill during the run.

--trace 0 runs the reference jobs and then the seeded jobs, each once,
for --seconds, and reports the end-to-end metrics.  setup_s is the median
time to import the package in fresh interpreters; generating the job list
is the benchmark's own work and is left out of it.  --trace 1 runs
a fixed share of every cell of the seeded list, plus all reference jobs
(also those too large for the timed mix), once untraced and once traced
(caches cleared in between), and reports the per-layer metrics.  Either
way every output is checked (bench_checks), and the last line of stdout
is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import bench_checks
import bench_inputs
import bench_trace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden.json")
OUT = os.path.join(HERE, "out")

DEFAULT_SEED = 0
IMPORT_REPEATS = 9
MIN_JOBS = 100          # so that at least 10 latencies lie beyond p90
HARD_LIMIT_S = 120      # stop even if MIN_JOBS is not reached
# the traced run takes the seeded jobs in the first part of every cell,
# at least one per cell: about 50 jobs, 3 to 11 seconds untraced
TRACE_SHARE = {"finite": 0.025, "affine": 0.034, "symmetric": 0.07, "operators": 0.045}

END_TO_END = {
    "jobs_per_s": "jobs/s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_cli():
    """Import bruhat_kit.cli from src/, dropping any copy already imported."""
    for name in [n for n in sys.modules if n == "bruhat_kit" or n.startswith("bruhat_kit.")]:
        del sys.modules[name]
    import bruhat_kit.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"bruhat_kit imported from {cli.__file__}, not {SRC}")
    return cli


IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import bruhat_kit.cli
print(time.perf_counter() - start)
"""


def import_seconds() -> float:
    """Median time to import bruhat_kit.cli in a fresh interpreter.

    Each of IMPORT_REPEATS child interpreters imports the package from src/
    and reports the time; this process waits for each one to end.  The
    children keep the import's memory out of this process's peak RSS.
    """
    seconds = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], capture_output=True,
                              text=True, timeout=60, check=True)
        seconds.append(float(proc.stdout))
    return statistics.median(seconds)


def generate(workload: str, seed: int):
    """(seconds, jobs): the job list, made by the benchmark's own code."""
    start = time.perf_counter()
    jobs = bench_inputs.make_jobs(workload, seed)
    return time.perf_counter() - start, jobs


def is_reference(job) -> bool:
    return job["label"].startswith("ref:")


def run_job(cli, argv):
    """(seconds, exit code or error text, stdout) for one in-process invocation."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv + ["--json"])
    except SystemExit as exc:
        status = f"exit {exc.code}: {err.getvalue().strip()}"
    except Exception as exc:  # a job that raises is a failed job, not a failed run
        status = f"raised {exc!r}"
    return time.perf_counter() - start, status, out.getvalue()


def digest(text: str) -> str:
    """First 16 hex digits of the SHA-256 of one job's output."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_job(job, index, status, text, golden):
    """Why one job failed, or None when its output passed every check."""
    if status != 0:
        return f"status {status}"
    problems = bench_checks.check(job, text)
    if golden is not None and index < len(golden) and digest(text) != golden[index]:
        problems.append("output differs from the recorded SHA-256")
    return "; ".join(problems) or None


def run_jobs(cli, jobs, order, golden, seconds=None, tracer=None):
    """Run jobs[i] for i in order, checking each output as soon as it is made.

    Returns (latencies, failures, wall): latencies maps job index to seconds,
    failures lists (label, reason), and wall is the loop's time without the
    checks.  No output is kept past its check, so memory does not grow with
    the number of jobs run.  With `seconds`, the loop stops once that much
    wall time has passed and MIN_JOBS have run, or at HARD_LIMIT_S.
    """
    latencies, failures = {}, []
    checking = 0.0
    start = time.perf_counter()
    for index in order:
        if seconds is not None:
            elapsed = time.perf_counter() - start - checking
            if elapsed >= HARD_LIMIT_S or (elapsed >= seconds and len(latencies) >= MIN_JOBS):
                break
        if tracer is not None:
            tracer.job = index
        latency, status, text = run_job(cli, jobs[index]["argv"])
        latencies[index] = latency
        check_start = time.perf_counter()
        reason = check_job(jobs[index], index, status, text, golden)
        if reason:
            failures.append((jobs[index]["label"], reason))
        checking += time.perf_counter() - check_start
    return latencies, failures, time.perf_counter() - start - checking


def load_golden(workload: str, seed: int):
    if seed != DEFAULT_SEED or not os.path.exists(GOLDEN):
        return None
    with open(GOLDEN) as fh:
        return json.load(fh).get(workload)


def timed_run(args):
    setup_s = import_seconds()
    cli = import_cli()
    generate_s, jobs = generate(args.workload, args.seed)
    # the reference jobs run once, first; then the seeded jobs, each once,
    # until the time is up.  The list is long enough that it does not run
    # out; if it does, the run ends there.
    order = [i for i, job in enumerate(jobs) if is_reference(job) and not job.get("trace_only")]
    order += [i for i, job in enumerate(jobs) if not is_reference(job)]
    latencies, failures, wall = run_jobs(cli, jobs, order, load_golden(args.workload, args.seed),
                                         seconds=args.seconds)
    attempted = len(latencies)
    times = list(latencies.values())
    metrics = {
        "jobs_per_s": attempted / wall,
        "job_p50_s": statistics.median(times),
        "job_p90_s": statistics.quantiles(times, n=10)[8],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    ran_out = " (the job list ran out)" if attempted == len(order) else ""
    print(f"workload {args.workload}, seed {args.seed}: {attempted} of {len(order)} jobs in "
          f"{wall:.2f} s{ran_out}, closed loop, one client; inputs generated in "
          f"{generate_s:.2f} s (not in setup_s)")
    for name, value in metrics.items():
        samples = {"setup_s": f"  (median of {IMPORT_REPEATS} fresh imports)",
                   "job_p50_s": f"  (of {attempted} jobs)",
                   "job_p90_s": f"  (of {attempted} jobs)"}.get(name, "")
        print(f"  {name:<12} {value:12.6f} {END_TO_END[name]}{samples}")
    print(f"  {'fail_ratio':<12} {len(failures) / attempted:12.6f} 1  "
          f"({len(failures)} of {attempted} jobs failed)")
    return attempted, failures, {n: {"value": v, "unit": END_TO_END[n]} for n, v in metrics.items()}


def clear_caches():
    modules = {m.__name__: m for m in bench_trace.package_modules()}
    for mod, fn_name in bench_trace.CACHED:
        getattr(modules[f"bruhat_kit.{mod}"], fn_name).cache_clear()


def traced_run(args):
    cli = import_cli()
    _, jobs = generate(args.workload, args.seed)
    golden = load_golden(args.workload, args.seed)
    refs = [i for i, job in enumerate(jobs) if is_reference(job)]
    seeded = [i for i, job in enumerate(jobs) if not is_reference(job)]
    chosen = refs + [i for i in seeded if jobs[i]["slot"] < TRACE_SHARE[args.workload]]

    _, failures, wall_untraced = run_jobs(cli, jobs, chosen, golden)
    clear_caches()
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        latency, traced_failures, wall_traced = run_jobs(cli, jobs, chosen, golden, tracer=tracer)
    finally:
        tracer.uninstall()
    failures += traced_failures

    metrics = tracer.metrics(overhead_ratio=wall_untraced / wall_traced)
    attempted = 2 * len(chosen)
    path = write_spans(tracer, jobs, args)
    print(f"workload {args.workload}, seed {args.seed}: {len(chosen)} jobs untraced in "
          f"{wall_untraced:.2f} s, traced in {wall_traced:.2f} s; spans in {path}")
    for name, m in metrics.items():
        value = m["value"]
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6f}"
        print(f"  {name:<44} {shown} {m['unit']}")
    print(f"  {'fail_ratio':<44} {len(failures) / attempted:14.6f} 1  "
          f"({len(failures)} of {attempted} jobs failed)")
    print("reference jobs, traced: function, calls, total s, self s")
    for i in refs:
        print(f"  {jobs[i]['label']}: {latency[i]:.4f} s  {' '.join(jobs[i]['argv'])}")
        for name, calls, total, self_s in tracer.job_breakdown(i)[:8]:
            print(f"    {name:<36} {calls:8d} {total:10.4f} {self_s:10.4f}")
    return attempted, failures, metrics


def write_spans(tracer, jobs, args) -> str:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
    with open(path, "w") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "fields": ["span", "parent", "job", "name", "start", "end"],
                             "jobs": [" ".join(j["argv"]) for j in jobs]}) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return os.path.relpath(path, ROOT)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=bench_inputs.WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bruhat_kit", "__init__.py")):
        print(f"error: no bruhat_kit package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    attempted, failures, metrics = (traced_run if args.trace else timed_run)(args)
    for label, reason in failures[:20]:
        print(f"FAILED {label}: {reason}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
