"""Time the iterated Drinfeld double, one shot per level.  Run from the
repository root:

    python3 tools/time_doubles.py [--to N]

Starting from the catalog pair plsa-2d-IV with zero coproducts, it builds
the double 2 -> 4 -> 8 -> ... with bialgebra.drinfeld_double until the
dimension reaches N (default 64), and prints one line per level: the
dimensions, the wall time of that one call in seconds, the verdict of its
report, and the peak resident set size of the process so far (stdlib
resource, in MB).  64 is the CLI's MAX_DIM, so the default's last level is
the largest double the CLI builds, and its peak RSS is where whatever the
checks keep on the long-lived 32-dim pair would show.  The library has no
such limit: --to 128 builds the next level (about 30 s and 1 GB on a
2-core machine).  It only prints: a failing level (a bug, since the double
of a bialgebra is again one, and the test suite checks every level up to
32) prints FAIL and still exits 0.

Before it imports symplie it compiles src/ with the standard library's
compileall in a child process, which writes __pycache__ even under
PYTHONDONTWRITEBYTECODE, so the package is always imported from bytecode
(the peak RSS of a run that compiles its modules on import differs).
"""

import argparse
import os
import resource
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
subprocess.run([sys.executable, "-m", "compileall", "-q", "-o", str(sys.flags.optimize), SRC],
               check=True)
sys.path.insert(0, SRC)

from symplie import catalog_get, drinfeld_double, zero_coproducts  # noqa: E402


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--to", type=int, default=64, metavar="N",
                   help="stop once the double's dimension reaches N (default 64)")
    to = p.parse_args(argv).to
    pair, cp = catalog_get("plsa-2d-IV").payload, zero_coproducts(2)
    while pair[0].n < to:
        n = pair[0].n
        t0 = time.perf_counter()
        pair, _, cp, rep = drinfeld_double(pair, cp)
        wall = time.perf_counter() - t0
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux: KiB
        print("%2d -> %2d  %8.3f s  %s  %6.1f MB peak RSS"
              % (n, pair[0].n, wall, "pass" if rep.verdict else "FAIL", rss), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
