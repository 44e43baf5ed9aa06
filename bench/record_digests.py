"""Record the output digest of every candidate job of every workload into
digests.json.  Run from the repository root:

    python3 bench/record_digests.py

The recorded file is the benchmark's reference answer: re-record only when a
change is meant to alter what symplie reports, never to make a run pass.
"""

import json
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import run  # noqa: E402  (bench/ is on the path when this file is run)
import workloads  # noqa: E402


def main():
    os.makedirs(run.OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="record-", dir=run.OUT)
    try:
        table = {}
        for name, build in workloads.WORKLOADS.items():
            wl = build(0, workdir, full=True)
            table[name] = {job.id: workloads.digest(job.check(job.run()))
                           for job in wl.jobs + wl.probes}
            print("%s: %d jobs recorded" % (name, len(table[name])))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
