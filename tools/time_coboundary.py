"""Time one coboundary-dense job per dimension, two ways.  Run from the
repository root:

    python3 tools/time_coboundary.py

A job is what the coboundary-dense benchmark workload times on one product
pair and one dense r: R_operators, coboundary_coproducts, plsca_check,
coboundary_conditions and, when the coproducts are valid, plsba_check.  The
"bench" column times the job as the benchmark does, which reads none of
its outputs.  The "read" column times the same job with every output read:
the three operators unpacked, the coproduct pair's alpha and beta, and
every residual of every report.  Outputs are kept as numerators and turned
into Fractions only when read, so a change that only defers that work
shows in "bench" and not in "read".  The pairs are the catalog pair
plsa-2d-IV at dim 2, the same pair with a third basis vector e3 e3 = e3
added to its second product at dim 3, and its Drinfeld double with zero
coproducts at dim 4, as in the benchmark; r has no zero entry.  Each way is
repeated in timeit loops, and the best loop gives its time per call in
microseconds; the last line is the sum over the dimensions.  It takes no
options and only prints.
"""

import os
import sys
import timeit
from fractions import Fraction
from itertools import product

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from symplie import (  # noqa: E402
    R_operators,
    catalog_get,
    coboundary_conditions,
    coboundary_coproducts,
    drinfeld_double,
    plsba_check,
    plsca_check,
    st,
    zero_coproducts,
)

VALUES = tuple(Fraction(q) for q in ("1", "-2", "1/2", "3", "-1/3", "2/3", "-1"))
# timeit loops per way; the best one is printed, so a burst of load from
# other processes on a shared machine, which slows some loops, rarely
# reaches all of them
REPEAT = 40


def _padded(t, extra):
    """The 2-dim product t on the first two of three basis vectors, plus the
    entries extra."""
    entries = {idx: t.c[idx[0]][idx[1]][idx[2]] for idx in product(range(2), repeat=3)}
    return st(3, {**entries, **extra})


def pairs():
    prec, succ = catalog_get("plsa-2d-IV").payload
    yield prec, succ
    yield _padded(prec, {}), _padded(succ, {(2, 2, 2): Fraction(1)})
    yield drinfeld_double((prec, succ), zero_coproducts(2))[0]


def job(pair, r):
    ops = R_operators(pair, r)
    cp = coboundary_coproducts(pair, r)
    coalg = plsca_check(cp)
    reps = [coalg, coboundary_conditions(pair, r)]
    if coalg.verdict:
        reps.append(plsba_check(pair, cp))
    return ops, cp, reps


def read_job(pair, r):
    ops, cp, reps = job(pair, r)
    tuple(ops), cp.alpha, cp.beta
    for rep in reps:
        for v in rep.violations:
            v.residual
    return ops, cp, reps


def main():
    total = {job: 0.0, read_job: 0.0}
    for pair in pairs():
        n = pair[0].n
        r = tuple(tuple(VALUES[(n * a + b) % len(VALUES)] for b in range(n)) for a in range(n))
        _, _, reps = read_job(pair, r)  # warms the pair's kept checks, as a benchmark batch does
        number = 24 // n
        best = {}
        for way in (job, read_job):
            best[way] = min(timeit.repeat(lambda: way(pair, r), number=number,
                                          repeat=REPEAT)) / number
            total[way] += best[way]
        print("dim %d  bench %8.1f us  read %8.1f us  %s, %d violations"
              % (n, best[job] * 1e6, best[read_job] * 1e6,
                 " ".join("%s %s" % (rep.check, "pass" if rep.verdict else "fail")
                          for rep in reps),
                 sum(len(rep.violations) for rep in reps)), flush=True)
    print("total  bench %8.1f us  read %8.1f us" % (total[job] * 1e6, total[read_job] * 1e6))
    return 0


if __name__ == "__main__":
    sys.exit(main())
