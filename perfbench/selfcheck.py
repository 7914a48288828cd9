"""The benchmark's own tests.  Run from the root of a checkout:

    python3 perfbench/selfcheck.py

1. Relabelling oracle: two seeds give every vertex and arrow different
   names, yet one pass of each workload returns identical answers (dims,
   counts, verdicts, CLI report digests).
2. The gate bites: with one recorded answer altered, the same pass
   counts a failed op.
3. The recorded digests of the six golden (fixture, command) pairs are
   those of tests/data/golden/*.report.json.

Exits 0 when all three hold.
"""

import copy
import hashlib
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.abspath("src"))
import run  # noqa: E402
import workloads  # noqa: E402

GOLDEN_PAIRS = (("circle_pair", "koszul-dual"), ("annulus_pair", "gentle"),
                ("a2_preprojective", "cy"), ("one_loop_ginzburg", "ginzburg"),
                ("r3_pair", "koszul-dual"), ("disk_gentle", "gentle"))


def one_pass(workload, seed, expected, scratch):
    inputs = workloads.INPUTS[workload](seed)
    inputs["scratch"] = scratch
    _, op = run.run_pass(workloads, workload, inputs, expected)
    return op.records


def main():
    with open(os.path.join(run.HERE, "expected.json"), encoding="utf-8") as f:
        expected = json.load(f)
    scratch = os.path.join(run.OUT_DIR, "selfcheck-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    problems = []
    try:
        names = [workloads.Names(seed) for seed in (11, 12)]
        if names[0]("x") == names[1]("x") and names[0]("1") == names[1]("1"):
            problems.append("seeds 11 and 12 do not rename the inputs")
        for workload in workloads.WORKLOADS:
            want = expected[workload]
            first, second = (one_pass(workload, seed, want, scratch)
                             for seed in (11, 12))
            answers = [{label: answer for label, _, _, answer in records}
                       for records in (first, second)]
            if answers[0] != answers[1] or len(answers[0]) != len(first):
                problems.append("%s: answers differ between seeds" % workload)
            if not all(r[2] for r in first + second):
                problems.append("%s: failed ops at this commit" % workload)
            label = first[0][0]
            broken = copy.deepcopy(want)
            broken[label] = ["deliberately wrong"]
            if all(r[2] for r in one_pass(workload, 11, broken, scratch)):
                problems.append("%s: a wrong expected answer for %s did not "
                                "fail" % (workload, label))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for name, command in GOLDEN_PAIRS:
        path = os.path.join("tests", "data", "golden", name + ".report.json")
        with open(path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        if expected["duals-relations-cli"]["%s/%s" % (name, command)] \
                != [0, digest]:
            problems.append("%s %s: recorded digest is not the golden's"
                            % (name, command))
    for problem in problems:
        print("FAIL", problem)
    print("selfcheck: %s" % ("ok" if not problems else
                              "%d problems" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
