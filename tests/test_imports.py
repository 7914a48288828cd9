"""Every name a quiverdg module imports is used in that module.

No linter ships with the project, so this ast walk is the unused-import
check.  A name counts as used when it is loaded anywhere in the module or
listed in the module's __all__.  An import line marked `# noqa: F401` is an
intentional re-export and is exempt.

The same walk finds code with no caller: a module-level function or class
that no name or attribute anywhere in src refers to outside its own body,
that is not in quiverdg.__all__ and is not a dunder.  NO_CALLER_IN_SRC lists
the ones that stay, each with its reason.  It also finds public methods (no
leading underscore) of module-level classes whose name no name or attribute
in src refers to outside the method's own body; NO_METHOD_CALLER_IN_SRC
lists the ones that stay.  A method counts as called when any attribute of
its name is read, whatever the object, so the check can miss a method but
never flags one that src calls.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "quiverdg"
MODULES = sorted(SRC.glob("*.py"))


def imported_names(tree, lines):
    """(name, line number) of each binding made by an import statement."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            yield name, node.lineno


def used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    source = path.read_text()
    tree = ast.parse(source)
    used = used_names(tree)
    unused = ["%s:%d %s" % (path.name, line, name)
              for name, line in imported_names(tree, source.splitlines())
              if name not in used]
    assert not unused, "imported but unused: " + ", ".join(unused)


def test_the_check_sees_an_unused_import():
    source = "from .linalg import RowSpace, SpanSolver\n\nspace = RowSpace()\n"
    tree = ast.parse(source)
    unused = [name for name, _ in imported_names(tree, source.splitlines())
              if name not in used_names(tree)]
    assert unused == ["SpanSolver"]


# Module-level functions and classes that no code in src refers to but that
# stay, each with its reason.
NO_CALLER_IN_SRC = {
    "ginzburg.build_rn": "tests/test_ginzburg.py checks rn_presentation against it: "
                         "R_n's structure constants read straight off the multiplication law",
    "linalg.cohomology_of_complex": "cohomology of a complex given as matrices, both steps; "
                                    "perfbench/tracer.py wraps it, and tests use it as API "
                                    "and as the reference for the truncated paths",
    "quiver.enumerate_paths": "perfbench/tracer.py wraps it, and the oracle tests walk "
                              "paths with it",
}


# Public methods that no code in src calls but that stay, each with its
# reason.
NO_METHOD_CALLER_IN_SRC = {
    "cli._ArgumentParser.error": "argparse calls it on a usage error; it raises InputError "
                                 "at argv, so the error exits 1",
    "linalg.SparseMatrix.apply": "matrix times vector; tests check the truncation's and the "
                                 "bar's matrices against their columns with it",
    "dgalgebra.TruncatedDgAlgebra.reported_dims": "dims over the whole window, zeros included; "
                                                  "the koszul and dgalgebra tests read it",
    "dgalgebra.DgAlgebraPresentation.d_of_element": "public API: the free Leibniz extension of "
                                                    "the differential; the oracle tests check "
                                                    "it against their own",
    "dgalgebra.DgAlgebraPresentation.degree_of": "the degree of a path; the oracle tests group "
                                                 "their reference bases by it",
    "reflexivity.CompletenessTriple.note_for": "the provenance note of one flag, for a caller "
                                               "that reads one flag; tests/test_reflexivity.py",
    "dgalgebra.TruncatedDgAlgebra.d_of": "public view of a column with field scalars; the "
                                         "oracle tests compare columns through it",
    "dgalgebra.TruncatedDgAlgebra.unit_element": "public view: the unit as a sum of trivial "
                                                 "paths; the oracle tests reduce it",
    "dgalgebra.TruncatedDgAlgebra.d_element": "public view: d of an element on basis words",
    "dgalgebra.TruncatedDgAlgebra.mul_overflow": "counted on first read; the benchmark's "
                                                 "answers and two oracles read it",
    "dgalgebra.TruncatedDgAlgebra.word_product": "public view: the reduced product of two "
                                                 "basis words",
    "dgalgebra.TruncatedDgAlgebra.matrix_between": "public view: the differential between two "
                                                   "degrees as a SparseMatrix",
    "koszul.BarComplex.d_of": "public view of a bar column with field scalars",
    "koszul.BarComplex.matrix_between": "public view: the bar differential between two "
                                        "degrees as a SparseMatrix",
    "koszul.BarComplex.cohomology_dims": "bar cohomology by ranks alone; perfbench/workloads.py "
                                         "and tools/elimination_ladder.py run it",
}


def references_in(sources):
    """(trees, references) of sources ({module: source}): the parsed trees
    by module, and {name: [(module, node)]} of every ast.Name and
    ast.Attribute."""
    trees, references = {}, {}
    for module, source in sources.items():
        trees[module] = tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.setdefault(node.id, []).append((module, node))
            elif isinstance(node, ast.Attribute):
                references.setdefault(node.attr, []).append((module, node))
    return trees, references


def referred_to_outside(references, module, definition):
    own = {id(node) for node in ast.walk(definition)}
    return any(where != module or id(node) not in own
               for where, node in references.get(definition.name, ()))


def names_without_a_caller(sources):
    """"module.name" of each module-level function or class in sources
    ({module: source}) that no ast.Name or ast.Attribute refers to outside
    its own body, dunders left out."""
    trees, references = references_in(sources)
    found = []
    for module, tree in trees.items():
        for definition in tree.body:
            if not isinstance(definition, (ast.FunctionDef, ast.AsyncFunctionDef,
                                           ast.ClassDef)):
                continue
            name = definition.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if not referred_to_outside(references, module, definition):
                found.append("%s.%s" % (module, name))
    return found


def methods_without_a_caller(sources):
    """"module.Class.method" of each public method of a module-level class
    in sources whose name no ast.Name or ast.Attribute refers to outside
    the method's own body."""
    trees, references = references_in(sources)
    found = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if (isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not method.name.startswith("_")
                        and not referred_to_outside(references, module, method)):
                    found.append("%s.%s.%s" % (module, cls.name, method.name))
    return found


def test_every_module_level_name_has_a_caller():
    import quiverdg

    sources = {path.stem: path.read_text() for path in MODULES}
    found = [name for name in names_without_a_caller(sources)
             if name.split(".")[1] not in quiverdg.__all__ and name not in NO_CALLER_IN_SRC]
    assert not found, "no caller in src: " + ", ".join(found)


def test_every_public_method_has_a_caller():
    sources = {path.stem: path.read_text() for path in MODULES}
    found = [name for name in methods_without_a_caller(sources)
             if name not in NO_METHOD_CALLER_IN_SRC]
    assert not found, "no caller in src: " + ", ".join(found)


def test_the_method_check_sees_a_method_without_a_caller():
    source = ("class A:\n"
              "    def used(self):\n        return self.unused\n"
              "    def unused(self):\n        return self.unused()\n"
              "    def _private(self):\n        pass\n"
              "A().used()\n")
    assert methods_without_a_caller({"m": source}) == []
    source = source.replace("return self.unused\n", "return 0\n")
    assert methods_without_a_caller({"m": source}) == ["m.A.unused"]
