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

After the library pass it runs the same chain again through cli.main, in a
temporary directory, up to N or MAX_DIM, whichever is smaller: it exports
plsa-2d-IV (no coproduct slots, so they read as zero), then per level runs `construct drinfeld-double` on the
previous level's file and `verify --check plsa --check plsba` on the new
one, and prints the wall time of each call and pass or FAIL from its exit
code.  This is the end-to-end path of ROADMAP aim 1: parsing, emitting and
the hand-offs between the file and the library count here.  The RSS column
belongs to the library pass alone, which is printed in full before the CLI
pass starts; the library pass's doubles are freed by then.

Before it imports symplie it compiles src/ with the standard library's
compileall in a child process, which writes __pycache__ even under
PYTHONDONTWRITEBYTECODE, so the package is always imported from bytecode
(the peak RSS of a run that compiles its modules on import differs).
"""

import argparse
import contextlib
import io
import os
import resource
import subprocess
import sys
import tempfile
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
subprocess.run([sys.executable, "-m", "compileall", "-q", "-o", str(sys.flags.optimize), SRC],
               check=True)
sys.path.insert(0, SRC)

from symplie import catalog_get, cli, drinfeld_double, zero_coproducts  # noqa: E402


def _cli(*argv):
    """The wall time of cli.main(argv), its output dropped, and pass or FAIL
    from its exit code."""
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(list(argv))
    return time.perf_counter() - t0, "pass" if rc == 0 else "FAIL"


def _library(to):
    """The library pass: one line per level, with the peak RSS so far."""
    pair, cp = catalog_get("plsa-2d-IV").payload, zero_coproducts(2)
    while pair[0].n < to:
        n = pair[0].n
        t0 = time.perf_counter()
        pair, _, cp, rep = drinfeld_double(pair, cp)
        wall = time.perf_counter() - t0
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux: KiB
        print("%2d -> %2d  %8.3f s  %s  %6.1f MB peak RSS"
              % (n, pair[0].n, wall, "pass" if rep.verdict else "FAIL", rss), flush=True)


def _through_cli(to):
    """The CLI pass, in a temporary directory: one line per level."""
    print("through the CLI (construct drinfeld-double, then verify --check plsa --check plsba):")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d2.alg")
        _cli("catalog", "show", "plsa-2d-IV", "--export", "--out", path)
        n = 2
        while n < min(to, cli.MAX_DIM):  # the CLI refuses a larger file
            prev, path, n = path, os.path.join(tmp, "d%d.alg" % (2 * n)), 2 * n
            made = _cli("construct", "drinfeld-double", prev, "--out", path)
            checked = _cli("verify", path, "--check", "plsa", "--check", "plsba")
            print("%2d -> %2d  construct %8.3f s  %s  verify %8.3f s  %s"
                  % (n // 2, n, *made, *checked), flush=True)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--to", type=int, default=64, metavar="N",
                   help="stop once the double's dimension reaches N (default 64)")
    to = p.parse_args(argv).to
    _library(to)  # returns nothing, so its doubles are freed before the CLI pass
    _through_cli(to)
    return 0


if __name__ == "__main__":
    sys.exit(main())
