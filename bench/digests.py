"""Record the report digest of every job in the default seed's input set.

    python3 bench/digests.py [WORKLOAD ...]

Runs every job of each named workload (all by default) once with the default
seed, applies the exact output checks, and rewrites those workloads' entries
in `digests.json`. A run with the default seed compares each report it
produces with these digests. Re-record only when a workload's inputs or the
engine's report format change on purpose.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

DIGESTS = os.path.join(run.BENCH_DIR, "digests.json")


def main(names: list[str]) -> int:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import workloads

    names = names or list(workloads.WORKLOADS)
    with open(DIGESTS) as fp:
        recorded = json.load(fp)
    workdir = os.path.join(run.ROOT, ".bench_work", f"digests-{os.getpid()}")
    try:
        for name in names:
            inputs = workloads.WORKLOADS[name].setup(
                workloads.DEFAULT_SEED, os.path.join(workdir, name)
            )
            jobs = inputs.head + [job for block in inputs.blocks for job in block]
            check = run.Checker(None)
            digests = [check(job, *run._run_job(job)[:2]) for job in jobs]
            if check.failed:
                for problem in check.problems:
                    print(f"problem: {problem}", file=sys.stderr)
                print(f"{name}: {check.failed} jobs failed; nothing recorded", file=sys.stderr)
                return 1
            recorded[name] = {job.key: d for job, d in zip(jobs, digests)}
            print(f"{name}: {len(jobs)} digests")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(DIGESTS, "w") as fp:
        json.dump(recorded, fp, indent=1, sort_keys=True)
        fp.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
