"""Time every job of each benchmark workload three ways.  Run from the
repository root:

    python3 tools/time_jobs.py

The jobs are those of a benchmark run at seed 0 (bench/workloads.py); this
tool defines no input of its own.  One gated warm pass fills what the
package keeps on its inputs, as a benchmark batch does; then the tool
repeats batch-major passes over the jobs, as bench/run.py does.  It times
each job three ways on time.perf_counter:

  bench  the call alone, as bench/run.py times it;
  gated  the call plus the correctness gate that bench/run.py leaves
         untimed, workloads.digest(job.check(output)), which reads every
         output, so work that is only deferred to a read shows here;
  first  the gated time of the job's call in the warm pass, its first, so
         work the package keeps between calls shows here as paid once.

For each workload and job dimension it prints the sums of each job's best
bench and gated times and of its first time, in milliseconds, then the
workload's totals, and last the sums over the workloads.  It takes no
options, only prints and exits 0.
"""

import os
import shutil
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import workloads  # noqa: E402

# timed passes after the warm one; each job's best pass is kept, so a burst
# of load from other processes on a shared machine, which slows some
# passes, rarely reaches all of them
PASSES = 15


def best_times(jobs):
    """{job id: [best bench seconds, best gated seconds, first seconds]}:
    the best two over PASSES passes, after one gated warm pass that gives
    the first."""
    best = {}
    for job in jobs:
        t0 = time.perf_counter()
        workloads.digest(job.check(job.run()))
        best[job.id] = [float("inf"), float("inf"), time.perf_counter() - t0]
    for _ in range(PASSES):
        for job in jobs:
            t0 = time.perf_counter()
            out = job.run()
            t1 = time.perf_counter()
            workloads.digest(job.check(out))
            t2 = time.perf_counter()
            b = best[job.id]
            b[:2] = min(b[0], t1 - t0), min(b[1], t2 - t0)
    return best


def main():
    print("%-17s %3s %5s %9s %9s %9s" % ("workload", "dim", "jobs", "bench ms", "gated ms",
                                         "first ms"))
    total = [0.0] * 3
    workdir = tempfile.mkdtemp(prefix="time-jobs-")
    try:
        for name, build in workloads.WORKLOADS.items():
            jobs = build(0, workdir).jobs
            best = best_times(jobs)
            for dim in sorted({job.dim for job in jobs}) + ["all"]:
                times = [best[job.id] for job in jobs if dim in (job.dim, "all")]
                sums = [sum(t[way] for t in times) for way in (0, 1, 2)]
                print("%-17s %3s %5d %9.1f %9.1f %9.1f" % (name, dim, len(times),
                                                           *(x * 1e3 for x in sums)), flush=True)
            total = [t + s for t, s in zip(total, sums)]  # sums is the workload's "all"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("%-17s %3s %5s %9.1f %9.1f %9.1f" % ("total", "", "", *(x * 1e3 for x in total)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
