"""Record a SHA-256 prefix of every job output for the default seed.

    python3 perfbench/record_golden.py

Runs every job of every workload once, checks it, and writes
perfbench/golden.json: for each workload, the digests in job-list order.
run.py compares against them whenever it runs the default seed, so an
answer that changes by a single byte counts as a failed job.  Record
again only when a change of output is intended.
"""

import json
import sys

import bench_checks
import bench_inputs
import run


def main() -> int:
    sys.path.insert(0, run.SRC)
    cli = run.import_cli()
    golden = {}
    for workload in bench_inputs.WORKLOADS:
        digests = []
        for job in bench_inputs.make_jobs(workload, run.DEFAULT_SEED):
            _, status, text = run.run_job(cli, job["argv"])
            problems = [f"status {status}"] if status != 0 else bench_checks.check(job, text)
            if problems:
                print(f"{workload} {job['argv']}: {problems}", file=sys.stderr)
                return 1
            digests.append(run.digest(text))
        golden[workload] = digests
        print(f"{workload}: {len(digests)} outputs recorded")
    with open(run.GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
