"""Fresh-process helpers for the benchmark, run with PYTHONPATH=src.

    python3 perfbench/child.py setup WORKLOAD SEED
        import quiverdg and build the workload's inputs, sampling the host
        speed all along, and print the mean kernel time as JSON.
    python3 perfbench/child.py imports OUT
        time `import sympy` and `import quiverdg.cli` (which imports sympy
        too) and write both times to OUT as JSON.
"""

import json
import sys
from time import perf_counter

from hostspeed import HostSpeed


def main(argv):
    if argv[0] == "setup":
        with HostSpeed() as speed:
            import workloads
            workloads.INPUTS[argv[1]](int(argv[2]))
        print(json.dumps({"kernel_s": speed.mean_kernel()}))
        return 0
    started = perf_counter()
    import sympy  # noqa: F401
    sympy_done = perf_counter()
    from quiverdg import cli  # noqa: F401
    result = {"sympy_import_s": sympy_done - started,
              "import_s": perf_counter() - started}
    with open(argv[1], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
