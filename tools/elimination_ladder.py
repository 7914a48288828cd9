"""Time the exact eliminations on a fixed ladder of inputs.

    PYTHONPATH=src python3 tools/elimination_ladder.py LABEL

writes BENCH_<LABEL>.json in the current directory.  Each rung is the best
of five time.process_time() runs of one call; its inputs are built, and
realized where the call takes a truncation, before the clock starts.  The
rungs, over Q unless stated:

- cohomology of the rank-3 Calabi-Yau completion of the 3-cycle, realized
  on the window (-L, 0) at weight bound L, for L = 6, 7, 8;
- jacobi_basis of xxyy - xyxy + xxx on two loops at L = 9;
- h0_algebra of the rank-2 completion of A5 realized on (-4, 0) at L = 8;
- realize of that completion on (-4, 0) at L = 9 (8,141 words), and of the
  rank-3 completion of the 3-cycle on (-8, 0) at L = 8 (5,043 words);
- bar at 5 and 6 letters of the same 3-cycle completion over F_101,
  realized on (-40, 8) at L = 2, then its all_dims() and the length of its
  differential ledger (58,824 and 411,771 words).

Compare two commits by running the script in a checkout of each, with the
same Python, and reading the rungs side by side.
"""

import json
import platform
import sys
import time

from quiverdg import (
    Arrow,
    GroundField,
    QuiverPresentation,
    Superpotential,
    bar,
    cohomology,
    cy_completion,
    h0_algebra,
    jacobi_basis,
    realize,
)

REPEATS = 5


def three_cycle():
    return QuiverPresentation(
        ("1", "2", "3"),
        (Arrow("x", "1", "2"), Arrow("y", "2", "3"), Arrow("z", "3", "1")))


def cycle_cohomology(bound):
    t = realize(cy_completion(three_cycle(), 3), (-bound, 0), bound)
    return lambda: cohomology(t, (-bound, 0))


def two_loop_jacobi():
    quiver = QuiverPresentation(("v",), (Arrow("x", "v", "v"), Arrow("y", "v", "v")))
    potential = Superpotential(quiver, {("x", "x", "y", "y"): 1,
                                        ("x", "y", "x", "y"): -1,
                                        ("x", "x", "x"): 1})
    return lambda: jacobi_basis(quiver, potential, 9)


def a5():
    return QuiverPresentation(
        tuple(str(i) for i in range(1, 6)),
        tuple(Arrow("a%d" % i, str(i), str(i + 1)) for i in range(1, 5)))


def a5_h0():
    t = realize(cy_completion(a5(), 2), (-4, 0), 8)
    return lambda: h0_algebra(t)


def a5_realize():
    p = cy_completion(a5(), 2)
    return lambda: realize(p, (-4, 0), 9)


def cycle_realize():
    p = cy_completion(three_cycle(), 3)
    return lambda: realize(p, (-8, 0), 8)


def cycle_bar(letters):
    t = realize(cy_completion(three_cycle(), 3, field=GroundField(101)), (-40, 8), 2)

    def call():
        b = bar(t, letters, (-40, 8))
        return b.all_dims(), len(b.differential_ledger)
    return call


# name -> builder of the timed call
RUNGS = {
    "cohomology/3-cycle-cy3/L6": lambda: cycle_cohomology(6),
    "cohomology/3-cycle-cy3/L7": lambda: cycle_cohomology(7),
    "cohomology/3-cycle-cy3/L8": lambda: cycle_cohomology(8),
    "jacobi_basis/two-loops-xxyy-xyxy+xxx/L9": two_loop_jacobi,
    "h0_algebra/A5-cy2/L8": a5_h0,
    "realize/A5-cy2/L9": a5_realize,
    "realize/3-cycle-cy3/L8": cycle_realize,
    "bar/3-cycle-cy3-F101-L2/5-letters": lambda: cycle_bar(5),
    "bar/3-cycle-cy3-F101-L2/6-letters": lambda: cycle_bar(6),
}


def process_times(call):
    runs = []
    for _ in range(REPEATS):
        start = time.process_time()
        call()
        runs.append(time.process_time() - start)
    return runs


def ladder(label):
    rungs = {}
    for name, build in RUNGS.items():
        runs = process_times(build())
        rungs[name] = {"best_s": round(min(runs), 6), "runs_s": [round(r, 6) for r in runs]}
    return {"label": label, "python": platform.python_version(),
            "repeats": REPEATS, "rungs": rungs}


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: elimination_ladder.py LABEL")
    label = argv[0]
    result = ladder(label)
    with open("BENCH_%s.json" % label, "w") as out:
        json.dump(result, out, indent=2)
        out.write("\n")
    for name, rung in result["rungs"].items():
        print("%-42s %.4f s" % (name, rung["best_s"]))


if __name__ == "__main__":
    main(sys.argv[1:])
