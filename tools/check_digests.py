"""Run every candidate job and probe of every benchmark workload twice and
compare each output digest with bench/digests.json.  Run from the
repository root:

    python3 tools/check_digests.py

The second pass runs the same job objects in the same process, so every
result the package keeps on its inputs (through linalg._once and
linalg._kept) is already filled: that is what the repeated batches of a timed
benchmark run see.  Exits 1 if any job raises, fails its gate or misses its
recorded digest on either pass, or if the pool and the recorded table list
different jobs.  Unlike a timed benchmark run, which draws a sample of the
pool, this covers all of it.
"""

import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import workloads  # noqa: E402


def main():
    with open(os.path.join(ROOT, "bench", "digests.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)
    workdir = tempfile.mkdtemp(prefix="check-digests-")
    misses = 0
    try:
        for name, build in workloads.WORKLOADS.items():
            wl = build(0, workdir, full=True)
            expected = recorded.get(name, {})
            jobs = wl.jobs + wl.probes
            for run in ("first", "second"):
                for job in jobs:
                    try:
                        got = workloads.digest(job.check(job.run()))
                    except Exception as e:
                        got = "%s: %s" % (type(e).__name__, e)
                    if got != expected.get(job.id):
                        misses += 1
                        print("MISS %s (%s pass): got %s, recorded %s"
                              % (job.id, run, got, expected.get(job.id)))
            extra = set(expected) - {job.id for job in jobs}
            for job_id in sorted(extra):
                misses += 1
                print("MISS %s: recorded but not in the pool" % job_id)
            print("%s: %d jobs checked, twice" % (name, len(jobs)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("%d misses" % misses)
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
