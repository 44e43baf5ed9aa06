"""Time the iterated Drinfeld double, one shot per level.  Run from the
repository root:

    python3 tools/time_doubles.py

Starting from the catalog pair plsa-2d-IV with zero coproducts, it builds
the double 2 -> 4 -> 8 -> 16 -> 32 with bialgebra.drinfeld_double, and
prints one line per level: the dimensions, the wall time of that one call in seconds, and the verdict
of its report.  It only prints: a failing level (a bug, since the double
of a bialgebra is again one, and the test suite checks every level up to
32) prints FAIL and still exits 0.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from symplie import catalog_get, drinfeld_double, zero_coproducts  # noqa: E402


def main():
    pair, cp = catalog_get("plsa-2d-IV").payload, zero_coproducts(2)
    while pair[0].n < 32:
        n = pair[0].n
        t0 = time.perf_counter()
        pair, _, cp, rep = drinfeld_double(pair, cp)
        wall = time.perf_counter() - t0
        print("%2d -> %2d  %8.3f s  %s" % (n, pair[0].n, wall, "pass" if rep.verdict else "FAIL"),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
