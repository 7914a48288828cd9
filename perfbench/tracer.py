"""Outside-in spans around the public functions of each quiverdg module.

`Tracer.install` replaces each wrapped function in every quiverdg module
that binds it (for example `cohomology_of_complex` is bound in `linalg`,
`dgalgebra` and `koszul`), so internal calls get spans too; `uninstall`
puts the originals back.  Spans stay in memory as [name, start, end,
parent index, op id] and are written out when the run ends; the op id is
[traced pass number, op label].  Counters are
read from the arguments and return values at the same boundaries.
"""

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter

# (module, attribute) pairs; "Class.method" patches the method on its class.
TARGETS = (
    ("quiver", "reduce_modulo_relations"),
    ("quiver", "enumerate_paths"),
    ("dgalgebra", "realize"),
    ("dgalgebra", "verify_differential"),
    ("dgalgebra", "cohomology"),
    ("dgalgebra", "h0_algebra"),
    ("linalg", "cohomology_of_complex"),
    ("linalg", "kernel_image"),
    ("koszul", "bar"),
    ("koszul", "BarComplex.cohomology_dims"),
    ("koszul", "dual_bar"),
    ("koszul", "dual_coalgebra"),
    ("koszul", "cobar"),
    ("koszul", "completeness_report"),
    ("ginzburg", "cy_completion"),
    ("ginzburg", "ginzburg"),
    ("ginzburg", "jacobi_basis"),
    ("ginzburg", "verify_koszul_pair"),
    ("algebras", "decompose_commutative"),
    ("algebras", "factor_polynomial"),
    ("reflexivity", "check"),
    ("certificates", "replay_certificate"),
    ("surfaces", "gentle_presentation"),
    ("cli", "run"),
)


def _words(t):
    return sum(len(words) for words in t.basis_by_degree.values())


def _report_bytes(result):
    # the size of the report as the CLI writes it with --json
    return len(json.dumps(result[1], sort_keys=True, indent=2)) + 1


# Counters read at a span boundary: name -> f(args, result) -> {counter: n}.
COUNTERS = {
    "quiver.reduce_modulo_relations":
        lambda args, r: {"quiver.basis_words": len(r.basis)},
    "dgalgebra.realize":
        lambda args, r: {"dgalgebra.words": _words(r),
                         "dgalgebra.ledger_entries": len(r.differential_ledger)},
    "dgalgebra.verify_differential":
        lambda args, r: {"dgalgebra.checked_pairs": r.checked_pairs,
                         "dgalgebra.skipped_pairs": r.skipped_pairs,
                         "dgalgebra.scanned_pairs": _words(args[0]) ** 2},
    "linalg.cohomology_of_complex":
        lambda args, r: {"linalg.matrix_nnz": sum(
            len(m.entries) for m in args[1].values())},
    "linalg.kernel_image": lambda args, r: {"linalg.rank_sum": r[1]},
    "koszul.bar":
        lambda args, r: {"koszul.bar_words": sum(
            map(len, r.words_by_degree.values())),
            "koszul.bar_ledger": len(r.differential_ledger)},
    "cli.run": lambda args, r: {"cli.report_bytes": _report_bytes(r)},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self.pass_no = 0
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                self.counts.update(count(args, return_value))
            return return_value
        return traced

    def install(self):
        self.pass_no += 1
        for module, attribute in TARGETS:
            owner = importlib.import_module("quiverdg." + module)
            name = "%s.%s" % (module, attribute.rpartition(".")[2])
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, method, self._wrap(name, vars(cls)[method]))
                continue
            original = getattr(owner, attribute)
            wrapped = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "quiverdg" and not mod_name.startswith("quiverdg."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, key, wrapped):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapped)

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def summary(self):
        """Self time and calls per span name, plus the counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = Counter(self.counts)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            out[name + ".self_s"] += end - start - child_time[index]
            out[name + ".calls"] += 1
        return out


# The per-layer metrics and their units.  Times, calls and counts are per
# traced pass; the cli.* start-up times come from fresh processes.
PER_LAYER = (
    ("quiver.reduce_modulo_relations.self_s", "s"),
    ("quiver.reduce_modulo_relations.calls", "count"),
    ("quiver.enumerate_paths.self_s", "s"),
    ("quiver.basis_words", "count"),
    ("dgalgebra.realize.self_s", "s"),
    ("dgalgebra.realize.calls", "count"),
    ("dgalgebra.words", "count"),
    ("dgalgebra.ledger_entries", "count"),
    ("dgalgebra.verify_differential.self_s", "s"),
    ("dgalgebra.verify_differential.calls", "count"),
    ("dgalgebra.checked_pairs", "count"),
    ("dgalgebra.skipped_pairs", "count"),
    ("dgalgebra.pair_yield", "ratio"),
    ("dgalgebra.cohomology.self_s", "s"),
    ("dgalgebra.h0_algebra.self_s", "s"),
    ("linalg.cohomology_of_complex.self_s", "s"),
    ("linalg.kernel_image.self_s", "s"),
    ("linalg.matrix_nnz", "count"),
    ("linalg.rank_sum", "count"),
    ("koszul.bar.self_s", "s"),
    ("koszul.bar_words", "count"),
    ("koszul.bar_ledger", "count"),
    ("koszul.cohomology_dims.self_s", "s"),
    ("koszul.dual_bar.self_s", "s"),
    ("koszul.dual_coalgebra.self_s", "s"),
    ("koszul.cobar.self_s", "s"),
    ("koszul.completeness_report.self_s", "s"),
    ("ginzburg.cy_completion.self_s", "s"),
    ("ginzburg.ginzburg.self_s", "s"),
    ("ginzburg.jacobi_basis.self_s", "s"),
    ("ginzburg.verify_koszul_pair.self_s", "s"),
    ("algebras.decompose_commutative.self_s", "s"),
    ("algebras.factor_polynomial.calls", "count"),
    ("algebras.factor_polynomial.self_s", "s"),
    ("reflexivity.check.self_s", "s"),
    ("certificates.replay_certificate.self_s", "s"),
    ("surfaces.gentle_presentation.self_s", "s"),
    ("cli.startup_s", "s"),
    ("cli.import_s", "s"),
    ("cli.sympy_import_s", "s"),
    ("cli.run.self_s", "s"),
    ("cli.report_bytes", "B"),
    ("trace.pass_s", "s"),
    ("trace.overhead_s", "s"),
)


def layer_metrics(total, passes):
    """Per-pass values of the span metrics in PER_LAYER, from a summed
    `Tracer.summary` over that many traced passes."""
    out = {name: total[name] / passes for name, _ in PER_LAYER}
    scanned = total["dgalgebra.scanned_pairs"]
    out["dgalgebra.pair_yield"] = (
        (total["dgalgebra.checked_pairs"] + total["dgalgebra.skipped_pairs"])
        / scanned if scanned else 0.0)
    return out
