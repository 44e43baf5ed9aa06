"""Time one hypersymplectic family job of each kind.  Run from the
repository root:

    python3 tools/time_family.py

A job is what the family-grid benchmark workload times: build the package
(double, J, E, g) with hypersymplectic_from_tangent or _cotangent, then
check_hypersymplectic on it.  Here each job also reads J.m, E.m and g.m, the
Fraction matrices the benchmark's correctness gate reads after the timed
call, so a change that only defers building them cannot read as faster.
The kinds are tangent and cotangent, F1, F2 and F3, at dim 4 (the catalog
package ssla-2d-3) and at dim 8 (the double extension of plsa-2d-IV by the
zero pair, as in the benchmark).  Each job is repeated in timeit loops, and
the best loop gives its time per call in microseconds; the last line is the
sum over the twelve kinds.  A failing report prints FAIL (a bug, since
every point here is a valid package) and still exits 0.  It takes no
options and only prints.
"""

import os
import sys
import timeit
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from symplie import (  # noqa: E402
    FamilyParams,
    SpecialSymplecticData,
    catalog_get,
    check_hypersymplectic,
    double_extension,
    hypersymplectic_from_cotangent,
    hypersymplectic_from_tangent,
    st,
    sub_adjacent,
)

POINTS = (FamilyParams("F1", Fraction(2), Fraction(-1, 2)),
          FamilyParams("F2", Fraction(1), Fraction(1)),
          FamilyParams("F3", Fraction(5), Fraction(1), Fraction(3)))
# timeit loops per job, each of about 5 ms; the best one is printed, so a
# burst of load from other processes on a shared machine, which slows some
# loops, rarely reaches all of them
REPEAT = 40


def packages():
    ded, _ = double_extension(catalog_get("plsa-2d-IV").payload, (st(2), st(2)))
    yield 4, catalog_get("ssla-2d-3").payload
    yield 8, SpecialSymplecticData(sub_adjacent(ded.glued), ded.glued, ded.omega_p)


def main():
    total = 0.0
    for dim, s in packages():
        for build in (hypersymplectic_from_tangent, hypersymplectic_from_cotangent):
            for p in POINTS:
                def job():
                    d, J, E, g = build(s, p)
                    rep = check_hypersymplectic(d.bracket, J, E, g)
                    J.m, E.m, g.m
                    return rep.verdict
                ok = job()  # warms the package's kept checks, as a benchmark batch does
                number = 40 // dim
                best = min(timeit.repeat(job, number=number, repeat=REPEAT)) / number
                total += best
                print("dim %d  %-9s %s  %8.1f us  %s"
                      % (dim, build.__name__.rsplit("_", 1)[1], p.family, best * 1e6,
                         "pass" if ok else "FAIL"), flush=True)
    print("total           %10.1f us" % (total * 1e6))
    return 0


if __name__ == "__main__":
    sys.exit(main())
