"""Time the exact eliminations on a fixed ladder of inputs.

    PYTHONPATH=src python3 tools/elimination_ladder.py LABEL

writes BENCH_<LABEL>.json in the current directory.  Each rung is the best
of five time.process_time() runs of one call; its inputs are built, and
realized where the call takes a truncation, before the clock starts.  The
rungs, over Q unless stated:

- cohomology of the rank-3 Calabi-Yau completion of the 3-cycle, realized
  on the window (-L, 0) at weight bound L, for L = 6, 7, 8, with its
  representatives read (cohomology builds them on first read); and at
  L = 8 with only its dims read;
- verify_koszul_pair of the 3-cycle for n = 2 at word bound 7 on (-7, 0),
  which realizes both sides inside the timed call;
- jacobi_basis of xxyy - xyxy + xxx on two loops at L = 9;
- h0_algebra of the rank-2 completion of A5 realized on (-4, 0) at L = 8;
- realize of that completion on (-4, 0) at L = 9 (8,141 words), and of the
  rank-3 completion of the 3-cycle on (-8, 0) at L = 8 (5,043 words);
- bar at 5 and 6 letters of the same 3-cycle completion over F_101,
  realized on (-40, 8) at L = 2, then its all_dims() and the length of its
  differential ledger (58,824 and 411,771 words);
- verify_differential of the rank-3 completion of the 3-cycle realized on
  (-8, 0) at L = 8, over Q and over F_101 (5,043 words, 36,969 pairs);
- decompose_commutative of k[x]/(m), m = x (x-1)^2 (x-2) (x^2+1) (x+3)^2,
  on 1, x, ..., x^7: five local factors, as the benchmark builds it.

The cold-start rungs are different: each is the median wall time, not
process_time, of five fresh Python processes, run under the caller's
environment, with the median wall time of five `python -c pass` runs
recorded next to it as python_c_pass_s.  They are

- cold-import/quiverdg: `python -c "import quiverdg"`;
- cold-import/quiverdg.cli: `python -c "import quiverdg.cli"`;
- cold-cli/disk_gentle-gentle: `python -m quiverdg.cli gentle` on
  tests/data/disk_gentle.json, with --quiet.

The caller's environment decides among other things whether Python may
cache compiled bytecode (PYTHONDONTWRITEBYTECODE); without a cache every
process compiles the modules it imports, which moves these rungs by tens of
milliseconds.

Compare two commits by running the script in a checkout of each, with the
same Python, and reading the rungs side by side.
"""

import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from quiverdg import (
    Arrow,
    FiniteDimAlgebra,
    GroundField,
    QuiverPresentation,
    Superpotential,
    bar,
    cohomology,
    cy_completion,
    decompose_commutative,
    h0_algebra,
    jacobi_basis,
    realize,
    verify_differential,
    verify_koszul_pair,
)

REPEATS = 5
DATA = Path(__file__).resolve().parent.parent / "tests" / "data"


def three_cycle():
    return QuiverPresentation(
        ("1", "2", "3"),
        (Arrow("x", "1", "2"), Arrow("y", "2", "3"), Arrow("z", "3", "1")))


def cycle_cohomology(bound):
    t = realize(cy_completion(three_cycle(), 3), (-bound, 0), bound)
    return lambda: cohomology(t, (-bound, 0)).representatives


def cycle_cohomology_dims(bound):
    t = realize(cy_completion(three_cycle(), 3), (-bound, 0), bound)
    return lambda: cohomology(t, (-bound, 0)).dims


def cycle_koszul_pair(n, bound):
    return lambda: verify_koszul_pair(three_cycle(), n, bound, (-bound, 0))


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


def cycle_verify(field):
    t = realize(cy_completion(three_cycle(), 3, field=field), (-8, 0), 8)
    return lambda: verify_differential(t)


def local_factors():
    # m = x (x-1)^2 (x-2) (x^2+1) (x+3)^2, one (x + c)^e per entry, with None
    # standing for x^2 + 1; x^k for k >= 8 is reduced modulo the monic m
    m = [1]
    for constant, power in ((0, 1), (-1, 2), (-2, 1), (None, 1), (3, 2)):
        factor = [1, 0, 1] if constant is None else [constant, 1]
        for _ in range(power):
            product = [0] * (len(m) + len(factor) - 1)
            for i, a in enumerate(m):
                for j, b in enumerate(factor):
                    product[i + j] += a * b
            m = product
    d = len(m) - 1
    powers = [[0] * i + [1] for i in range(2 * d - 1)]
    for k in range(d, 2 * d - 1):
        vec = [0] * (k + 1)
        vec[k] = 1
        for top in range(k, d - 1, -1):
            c = vec[top]
            for i in range(d + 1):
                vec[top - d + i] -= c * m[i]
        powers[k] = vec[:d]
    structure = {(i, j): {k: c for k, c in enumerate(powers[i + j]) if c}
                 for i in range(d) for j in range(d)}
    algebra = FiniteDimAlgebra(GroundField(0), ["x^%d" % i for i in range(d)],
                               structure, {0: 1})
    decompose_commutative(algebra)  # imports sympy before the clock starts
    return lambda: decompose_commutative(algebra)


def fresh_process(*args):
    """A cold-start rung: the argv of one Python process, timed whole."""
    return [sys.executable, *args]


# name -> builder of the timed call, or of the argv of a cold-start rung
RUNGS = {
    "cohomology/3-cycle-cy3/L6": lambda: cycle_cohomology(6),
    "cohomology/3-cycle-cy3/L7": lambda: cycle_cohomology(7),
    "cohomology/3-cycle-cy3/L8": lambda: cycle_cohomology(8),
    "cohomology-dims/3-cycle-cy3/L8": lambda: cycle_cohomology_dims(8),
    "verify_koszul_pair/3-cycle/n2-L7": lambda: cycle_koszul_pair(2, 7),
    "jacobi_basis/two-loops-xxyy-xyxy+xxx/L9": two_loop_jacobi,
    "h0_algebra/A5-cy2/L8": a5_h0,
    "realize/A5-cy2/L9": a5_realize,
    "realize/3-cycle-cy3/L8": cycle_realize,
    "bar/3-cycle-cy3-F101-L2/5-letters": lambda: cycle_bar(5),
    "bar/3-cycle-cy3-F101-L2/6-letters": lambda: cycle_bar(6),
    "verify_differential/3-cycle-cy3/L8": lambda: cycle_verify(GroundField(0)),
    "verify_differential/3-cycle-cy3-F101/L8": lambda: cycle_verify(GroundField(101)),
    "decompose_commutative/five-local-factors": local_factors,
    "cold-import/quiverdg": lambda: fresh_process("-c", "import quiverdg"),
    "cold-import/quiverdg.cli": lambda: fresh_process("-c", "import quiverdg.cli"),
    "cold-cli/disk_gentle-gentle": lambda: fresh_process(
        "-m", "quiverdg.cli", "gentle", str(DATA / "disk_gentle.json"), "--quiet"),
}


def process_times(call):
    runs = []
    for _ in range(REPEATS):
        start = time.process_time()
        call()
        runs.append(time.process_time() - start)
    return runs


def wall_times(argv):
    runs = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        # no timeout: with one, Popen.wait polls in steps of up to 50 ms,
        # which rounds every wall time up to the next step
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        runs.append(time.perf_counter() - start)
    return [round(r, 6) for r in runs]


def cold_rung(argv):
    runs = wall_times(argv)
    return {"median_s": statistics.median(runs), "runs_s": runs,
            "python_c_pass_s": statistics.median(wall_times(fresh_process("-c", "pass")))}


def ladder(label):
    rungs = {}
    for name, build in RUNGS.items():
        call = build()
        if isinstance(call, list):
            rungs[name] = cold_rung(call)
            continue
        runs = process_times(call)
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
        if "median_s" in rung:
            print("%-42s %.4f s (python -c pass %.4f s)"
                  % (name, rung["median_s"], rung["python_c_pass_s"]))
        else:
            print("%-42s %.4f s" % (name, rung["best_s"]))


if __name__ == "__main__":
    main(sys.argv[1:])
