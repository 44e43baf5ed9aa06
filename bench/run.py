"""symplie benchmark: one command per workload, run from the repository root.

    python3 bench/run.py --workload double-chain --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py for the inputs and BENCHMARK.json for the why):
  double-chain      16 jobs: CLI Drinfeld and slsba doubles 2 -> 4, verified
  family-grid       176 jobs: hypersymplectic packages at dims 4 and 8
  coboundary-dense  100 jobs: the bialgebra layer on dense random r, dims 2-4

The 8 -> 16 Drinfeld double is left out of every workload on purpose: it takes
about 62 s per call on a 2-core machine, and each workload is run many times.
The 4 -> 8 double is not timed either (see workloads.double_chain); the traced
run of double-chain counts it as a probe.

A run imports symplie from ``src/``, builds the workload's inputs from the
seed (set-up), then repeats the job batch, closed-loop and single-threaded,
for about ``--seconds`` seconds.  Every job's output passes the correctness
gate of workloads.py; a miss counts as a failed job and the command exits 1.
Times are in reference seconds (see refclock.py): each job's time is scaled
by the speed of a fixed reference computation timed just before, during and
just after it, so that the drifting speed of a shared machine does not move
them.

--trace 0 reports the end-to-end metrics:
  wall_s       the batch time: the sum over its jobs of each job's median
               time across the run's batches (the gate is not counted)
  job_p50_s    median over the jobs of the per-job median time
  job_p90_s    90th percentile of the same (double-chain has 16 jobs, so there
               one job lies beyond it)
  setup_s      median over five fresh interpreters of importing symplie
               (including the catalog's re-verification) plus building inputs
  peak_rss_mb  peak resident memory of this process
and prints fail_ratio (failed / attempted) beside them.

--trace 1 runs the untraced batches, then one traced batch and one counting
batch, and reports the per-layer metrics: ``<module>.<function>.calls`` and
``.self_s`` for each function in tracer.LAYERS, ``fraction.new_calls`` (per
batch, from the counting pass), ``workload.nonzero_share`` and
``trace.overhead_s`` (traced minus untraced batch time).  The spans are written
to ``.bench_out/``, and for each Drinfeld double among the probes the run
prints its ``Fraction.__new__`` calls and the calls of its re-verified
preconditions.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import contextlib
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

import refclock
import tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

SETUP_PROBES = 4  # extra fresh interpreters that only time the set-up
PROBE_TIMEOUT_S = 60
MIN_BATCHES = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("double-chain", "family-grid", "coboundary-dense"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up, print it as JSON and exit")
    return p.parse_args(argv)


def setup(workload, seed, workdir):
    """Import symplie and build the inputs; returns (reference seconds,
    the workloads module, the workload)."""
    before = refclock.sample(runs=5)
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import workloads
    wl = workloads.WORKLOADS[workload](seed, workdir)
    elapsed = time.perf_counter() - t0
    k = refclock.scale([before, refclock.sample(runs=5)])
    return elapsed * k, workloads, wl


def probe_setup(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError("set-up probe failed:\n" + done.stderr)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# batches

class Batch:
    def __init__(self):
        self.times = []  # per attempted job, reference seconds
        self.scales = {}  # job id -> reference seconds per measured second
        self.measured = []  # per attempted job, measured seconds
        self.failures = []  # (job id, reason)

    @property
    def wall(self):
        return sum(self.times)


def run_batch(wm, jobs, expected, recorder=None, sampler=None):
    """Run every job once: time the call into symplie, gate its output, then
    read the reference clock.  With a sampler, a job's time is scaled by the
    median of the readings from the one before it to the one after it,
    including those the timer took while it ran.  A job that raises or
    misses the gate is counted, never fatal."""
    batch = Batch()
    with (sampler or contextlib.nullcontext()):
        if sampler is not None:
            sampler.read()
        for job in jobs:
            if recorder is not None:
                recorder.job, recorder.dim = job.id, job.dim
            first = len(sampler.readings) - 1 if sampler is not None else 0
            clock = sampler.clock if sampler is not None else time.perf_counter
            t0 = clock()
            try:
                out = recorder.run_job(job.run) if recorder is not None else job.run()
                failure = None
            except Exception as e:
                failure = "raised %s: %s" % (type(e).__name__, e)
            elapsed = clock() - t0
            if failure is None:
                try:
                    got = wm.digest(job.check(out))
                    if got != expected.get(job.id):
                        failure = "gate: digest %s, recorded %s" % (got, expected.get(job.id))
                except Exception as e:
                    failure = "gate: %s: %s" % (type(e).__name__, e)
            if failure is not None:
                batch.failures.append((job.id, failure))
            k = 1.0
            if sampler is not None:
                sampler.read()
                k = refclock.scale(sampler.readings[first:])
            batch.scales[job.id] = k
            batch.times.append(elapsed * k)
            batch.measured.append(elapsed)
    return batch


def timed_batches(wm, wl, expected, seconds, sampler):
    """Repeat the batch while the next one is expected to end within
    ``seconds``; at least three batches always run, so that one slow batch
    never sets a job's median."""
    batches = []
    start = time.perf_counter()
    while True:
        b0 = time.perf_counter()
        batches.append(run_batch(wm, wl.jobs, expected, sampler=sampler))
        now = time.perf_counter()
        if len(batches) >= MIN_BATCHES and now - start + (now - b0) > seconds:
            return batches


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least a share q
    of the values at or below it."""
    ranked = sorted(values)
    return ranked[max(0, math.ceil(q * len(ranked)) - 1)]


# ---------------------------------------------------------------------------
# environment

def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    """HEAD of the checkout when it is a git repository with the branch
    unpacked, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _src_sha256():
    """Hash of the package sources, which names the code under test even in
    a checkout without git metadata."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "symplie")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": "%s %s" % (platform.python_implementation(), platform.python_version()),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
    }


# ---------------------------------------------------------------------------
# the traced and counting passes

def traced_passes(wm, wl, expected, sampler):
    """One batch with spans timed by the sampler's clock, then one batch,
    with the timer off, whose spans are measured in Fraction.__new__ calls,
    then the workload's probes counted the same way; all pass the same
    gate."""
    timed = tracer.Tracer(clock=sampler.clock)
    timed.install()
    try:
        traced = run_batch(wm, wl.jobs, expected, timed, sampler)
    finally:
        timed.restore()
    counter = tracer.FractionCounter()
    counted = tracer.Tracer(clock=counter.reading)
    probed = tracer.Tracer(clock=counter.reading)
    counter.install()
    try:
        counted.install()
        try:
            counting = run_batch(wm, wl.jobs, expected, counted)
        finally:
            counted.restore()
        probed.install()
        try:
            probing = run_batch(wm, wl.probes, expected, probed)
        finally:
            probed.restore()
    finally:
        counter.restore()
    return timed, traced, counted, counting, probed, probing


def double_probes(counted):
    """For each traced Drinfeld double: its Fraction.__new__ calls and the
    calls of the re-verified preconditions inside it."""
    names, spans = counted.names, counted.spans
    watch = ("checks.check_plsa", "bialgebra.plsca_check", "bialgebra.plsba_check",
             "matched.check_matched_pair", "linalg.mat_mul")
    out = []
    for i, (name_id, start, end, _, job, _) in enumerate(spans):
        if names[name_id] != "bialgebra.drinfeld_double":
            continue
        inside = {i}
        calls = dict.fromkeys(watch, 0)
        for child in range(i + 1, len(spans)):
            if spans[child][3] not in inside:
                break
            inside.add(child)
            child_name = names[spans[child][0]]
            if child_name in calls:
                calls[child_name] += 1
        out.append({"job": job, "fraction.new_calls": end - start, "calls": calls})
    return out


def layer_metrics(timed, counted, traced, untraced_wall, nonzero):
    summary = timed.summary(traced.scales)
    metrics = {}
    for name in tracer.TRACED:
        calls, _, self_s = summary[name]
        metrics[name + ".calls"] = (calls, "count")
        metrics[name + ".self_s"] = (self_s, "s")
    metrics["fraction.new_calls"] = (counted.summary()[tracer.JOB][1], "count")
    metrics["workload.nonzero_share"] = (nonzero, "1")
    metrics["trace.overhead_s"] = (traced.wall - untraced_wall, "s")
    return metrics


# ---------------------------------------------------------------------------
# entry point

def _write_json(name, obj):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "symplie", "__init__.py")):
        print("error: no symplie sources under %s" % SRC, file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup(args.workload, args.seed, workdir)[0]}))
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir):
    env = environment(args)
    print("env: " + json.dumps(env))
    setups = [probe_setup(args) for _ in range(SETUP_PROBES)]
    setup_s, wm, wl = setup(args.workload, args.seed, workdir)
    setups.append(setup_s)
    with open(DIGESTS, encoding="utf-8") as fh:
        expected = json.load(fh)[args.workload]

    sampler = refclock.Sampler()
    batches = timed_batches(wm, wl, expected, args.seconds, sampler)
    # each job's time is its median over the batches, which keeps a slow
    # spell of a shared machine from moving the figures
    job_times = [statistics.median(b.times[i] for b in batches)
                 for i in range(len(wl.jobs))]
    wall = sum(job_times)
    runs = list(batches)
    if args.trace:
        timed, traced, counted, counting, probed, probing = traced_passes(
            wm, wl, expected, sampler)
        runs += [traced, counting, probing]
        metrics = layer_metrics(timed, counted, traced, wall,
                                wm.nonzero_share(wl.inputs()))
        probes = double_probes(probed)
        for probe in probes:
            print("probe: drinfeld_double in %s: Fraction.__new__ %d, %s"
                  % (probe["job"], probe["fraction.new_calls"],
                     ", ".join("%s %d" % kv for kv in probe["calls"].items())))
        trace_path = _write_json(
            "trace-%s-seed%d.json" % (args.workload, args.seed),
            {"env": env, "spans": timed.span_records(),
             "fraction_calls": {k: {"calls": v[0], "inclusive": v[1], "self": v[2]}
                                for k, v in counted.summary().items()},
             "double_probes": probes})
        print("spans: %d written to %s" % (len(timed.spans), trace_path))
    else:
        metrics = {
            "wall_s": (wall, "s"),
            "job_p50_s": (statistics.median(job_times), "s"),
            "job_p90_s": (percentile(job_times, 0.9), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    failures = [f for b in runs for f in b.failures]
    attempted = sum(len(b.times) for b in runs)
    for job_id, reason in failures[:20]:
        print("FAIL %s: %s" % (job_id, reason))
    beyond = len(job_times) - math.ceil(0.9 * len(job_times))
    print("%s seed %d: %d batches of %d jobs; percentiles over %d job medians, "
          "%d beyond p90; set-up samples %s; measured seconds per batch %s"
          % (args.workload, args.seed, len(batches), len(wl.jobs), len(job_times),
             beyond, " ".join("%.4f" % s for s in setups),
             " ".join("%.3f" % sum(b.measured) for b in batches)))
    for name, (value, unit) in metrics.items():
        print("%s = %s %s" % (name, value, unit))
    print("fail_ratio = %s 1 (%d failed / %d attempted)"
          % (len(failures) / attempted, len(failures), attempted))
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    _write_json("result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace),
                dict(result, env=env, setup_samples=setups,
                     job_ids=[job.id for job in wl.jobs],
                     batch_times=[b.times for b in batches],
                     batch_measured=[b.measured for b in batches], failures=failures))
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
