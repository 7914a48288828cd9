import contextlib
import copy
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from quiverdg import FiniteDimAlgebra, GroundField, check, cli

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

FIXTURES = (
    ("circle_pair", "koszul-dual"),
    ("annulus_pair", "gentle"),
    ("a2_preprojective", "cy"),
    ("one_loop_ginzburg", "ginzburg"),
    ("r3_pair", "koszul-dual"),
    ("disk_gentle", "gentle"),
)


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_selftest_is_green_and_byte_stable(capsys):
    code_one, out_one, _ = run_cli(["selftest"], capsys)
    code_two, out_two, _ = run_cli(["selftest"], capsys)
    assert code_one == code_two == 0
    assert out_one == out_two
    assert out_one.splitlines()[-1] == "selftest: 6 checks passed"
    assert all(line.startswith("ok - ") for line in out_one.splitlines()[:-1])


@pytest.mark.parametrize("name,command", FIXTURES)
def test_golden_reports(name, command, capsys, tmp_path):
    document = str(DATA / ("%s.json" % name))
    target = tmp_path / "report.json"
    code, out_one, err = run_cli([command, document, "--json", str(target)],
                                 capsys)
    assert code == 0, err
    produced = target.read_bytes()
    assert produced == (GOLDEN / ("%s.report.json" % name)).read_bytes()
    # run again: text and JSON must not move by a byte
    again = tmp_path / "again.json"
    code, out_two, _ = run_cli([command, document, "--json", str(again)],
                               capsys)
    assert code == 0
    assert out_one == out_two
    assert again.read_bytes() == produced


def test_reports_are_schema_tagged():
    for name, _ in FIXTURES:
        report = json.loads((GOLDEN / ("%s.report.json" % name)).read_text())
        assert report["schema"] == "report-v1"
        assert report["command"]
        assert isinstance(report["characteristic"], str)


def test_unknown_verdict_still_exits_zero(capsys, tmp_path):
    document = tmp_path / "family.json"
    document.write_text(json.dumps({
        "characteristic": 0,
        "object": {"kind": "family", "family": "polynomial",
                   "degree": 2, "variables": 3},
    }))
    code, out, _ = run_cli(["reflexive", str(document)], capsys)
    assert code == 0
    assert "verdict: Unknown" in out


def test_input_errors_name_their_location(capsys, tmp_path):
    # wrong object kind for the command
    ungated = tmp_path / "quiver.json"
    ungated.write_text(json.dumps({
        "characteristic": 0,
        "object": {"kind": "quiver", "vertices": ["1"], "arrows": []},
        "bounds": {"window": [-2, 0], "words": 4, "paths": 4},
    }))
    code, _, err = run_cli(["ginzburg", str(ungated)], capsys)
    assert code == 1
    assert "document.object.kind" in err

    # bounds are mandatory, never defaulted
    document = tmp_path / "nobounds.json"
    document.write_text(json.dumps({
        "characteristic": 0,
        "object": {"kind": "quiver", "vertices": ["1"], "arrows": []},
        "n": 2,
    }))
    code, _, err = run_cli(["cy", str(document)], capsys)
    assert code == 1
    assert "document.bounds.window" in err

    # malformed JSON points at line and column
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, err = run_cli(["reflexive", str(broken)], capsys)
    assert code == 1
    assert "broken.json:1" in err

    # a non-prime characteristic is rejected
    bad_char = tmp_path / "badchar.json"
    bad_char.write_text(json.dumps({
        "characteristic": 6,
        "object": {"kind": "family", "family": "laurent"},
    }))
    code, _, err = run_cli(["reflexive", str(bad_char)], capsys)
    assert code == 1
    assert "document.characteristic" in err


def test_document_command_gating(capsys):
    code, _, err = run_cli(
        ["complete", str(DATA / "r3_pair.json")], capsys)
    assert code == 1
    assert "does not request" in err


def test_flags_override_document_bounds(capsys):
    document = str(DATA / "r3_pair.json")
    code, out, _ = run_cli(
        ["koszul-dual", document, "--window", "0..6"], capsys)
    assert code == 0
    assert "dual H dims 0..6: 0:1 1:0 2:0 3:1 4:0 5:0 6:1" in out


def test_quiet_suppresses_text_but_not_json(capsys, tmp_path):
    target = tmp_path / "quiet.json"
    code, out, _ = run_cli(
        ["reflexive", str(DATA / "annulus_pair.json"), "--quiet",
         "--json", str(target)], capsys)
    assert code == 0
    assert out == ""
    report = json.loads(target.read_text())
    assert report["verdict"] == "Reflexive"
    assert report["criterion"] == "no-fully-marked-component-of-winding-zero"


def test_reflexive_on_every_golden_document(capsys):
    # each fixture document that requests it gets a reflexivity verdict
    expected = {
        "circle_pair": "Reflexive",
        "annulus_pair": "Reflexive",
        "a2_preprojective": "Reflexive",
        "one_loop_ginzburg": "Reflexive",
        "disk_gentle": "Reflexive",
    }
    for name, verdict in sorted(expected.items()):
        document = json.loads((DATA / ("%s.json" % name)).read_text())
        if "reflexive" not in document.get("commands", []):
            continue
        code, out, err = run_cli(
            ["reflexive", str(DATA / ("%s.json" % name))], capsys)
        assert code == 0, err
        assert "verdict: %s" % verdict in out


def test_broken_certificate_is_an_internal_failure(capsys, monkeypatch):
    monkeypatch.setattr(cli, "replay_certificate",
                        lambda certificate: ["stale hypothesis"])
    code, _, err = run_cli(
        ["reflexive", str(DATA / "disk_gentle.json")], capsys)
    assert code == 2
    assert "does not replay" in err


def test_an_engine_key_error_is_an_internal_failure(capsys, monkeypatch):
    # the document is well formed, so a KeyError is the engine's fault
    def broken(*args):
        raise KeyError("a missing word")
    monkeypatch.setattr(cli, "realize", broken)
    code, _, err = run_cli(["koszul-dual", str(DATA / "circle_pair.json")], capsys)
    assert code == 2
    assert err.startswith("internal invariant failure")


def test_a_zero_trace_form_algebra_is_reflexive_over_f3(capsys, tmp_path):
    # F_3[x]/(x^3): the trace of 1 is 3 = 0 and x is nilpotent, so the trace
    # form is zero and its radical is the kernel of x -> x^3
    one = {"0": "1"}
    document = tmp_path / "f3_x_cubed.json"
    document.write_text(json.dumps({
        "characteristic": 3,
        "object": {"kind": "algebra", "basis": ["1", "x", "x^2"],
                   "structure": [[0, 0, one], [0, 1, {"1": "1"}], [0, 2, {"2": "1"}],
                                 [1, 0, {"1": "1"}], [2, 0, {"2": "1"}],
                                 [1, 1, {"2": "1"}]],
                   "unit": one}}))
    target = tmp_path / "report.json"
    code, out, err = run_cli(["reflexive", str(document), "--json", str(target)], capsys)
    assert code == 0, err
    assert "verdict: Reflexive" in out
    report = json.loads(target.read_text())
    assert (report["verdict"], report["criterion"], report["characteristic"]) == (
        "Reflexive", "finite-product-of-complete-local", "3")

    algebra = FiniteDimAlgebra(GroundField(3), ["1", "x", "x^2"],
                               {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1},
                                (1, 0): {1: 1}, (2, 0): {2: 1}, (1, 1): {2: 1}}, {0: 1})
    assert algebra.gram_matrix().entries == {}
    assert algebra.radical().method == "frobenius"
    verdict = check(algebra)
    assert (verdict.verdict, verdict.certificate.criterion, verdict.characteristic) == (
        "Reflexive", "finite-product-of-complete-local", "3")


def test_surface_validation_errors_exit_one(capsys, tmp_path):
    document = tmp_path / "badsurface.json"
    document.write_text(json.dumps({
        "characteristic": 0,
        "object": {
            "kind": "surface",
            "components": [
                {"name": "C", "fully_marked": False, "intervals": [["p"]]},
            ],
            "arcs": {"g": ["p", "p"]},
        },
    }))
    code, _, err = run_cli(["gentle", str(document)], capsys)
    assert code == 1
    assert "input error" in err


LOOP_POTENTIAL = {"kind": "superpotential",
                  "quiver": {"vertices": ["v"], "arrows": [["x", "v", "v", 0]]}}
CONE = {"kind": "dg-presentation", "vertices": ["v"],
        "generators": [["x", "v", "v", 0], ["y", "v", "v", -1]]}


@pytest.mark.parametrize("command,document_object,location,message", [
    ("ginzburg", dict(LOOP_POTENTIAL, terms=[[["x", "y", "x"], "1"]]),
     "document.object.terms[0]", "unknown arrow y"),
    ("ginzburg", dict(LOOP_POTENTIAL, terms=[[["x", "x", "x"], "1/0"]]),
     "document.object.terms[0]", "divides by zero"),
    ("koszul-dual", dict(CONE, differential={"y": [["1/0", ["x"], None]]}),
     "document.object.differential.y[0]", "divides by zero"),
    ("koszul-dual", dict(CONE, differential={"y": [["1", ["q"], None]]}),
     "document.object.differential.y[0]", "unknown generator q"),
], ids=["superpotential-unknown-arrow", "superpotential-zero-denominator",
        "element-zero-denominator", "element-unknown-generator"])
def test_document_term_faults_exit_one(capsys, tmp_path, command,
                                       document_object, location, message):
    document = tmp_path / "fault.json"
    document.write_text(json.dumps({
        "characteristic": 0,
        "object": document_object,
        "bounds": {"window": [-2, 0], "words": 3, "paths": 4},
    }))
    code, _, err = run_cli([command, str(document)], capsys)
    assert code == 1, err
    assert "input error at %s: " % location in err
    assert message in err


def document_of(name):
    return json.loads((DATA / ("%s.json" % name)).read_text())


def mutated(document, path, value):
    """A copy of the document with the value at `path` replaced."""
    document = copy.deepcopy(document)
    target = document
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return document


CIRCLE, LOOP, ANNULUS = (document_of(name) for name in
                         ("circle_pair", "one_loop_ginzburg", "annulus_pair"))
ALGEBRA = {"characteristic": 0,
           "object": {"kind": "algebra", "basis": ["1", "e"],
                      "structure": [[0, 0, {"0": "1"}], [0, 1, {"1": "1"}],
                                    [1, 0, {"1": "1"}]],
                      "unit": {"0": "1"}}}
GRADED_ALGEBRA = mutated(ALGEBRA, ("object", "degrees"), [0, 0])
SHAPE_FAULTS = {
    "relations-not-a-list": (
        "koszul-dual", mutated(CIRCLE, ("object", "relations"), 5),
        "document.object.relations"),
    "relation-not-a-list": (
        "koszul-dual", mutated(CIRCLE, ("object", "relations"), [3]),
        "document.object.relations[0]"),
    "weights-a-list": (
        "koszul-dual", mutated(CIRCLE, ("object", "weights"), [1]),
        "document.object.weights"),
    "weight-a-bool": (
        "koszul-dual", mutated(CIRCLE, ("object", "weights"), {"eps": True}),
        "document.object.weights.eps"),
    "weight-zero": (
        "koszul-dual", mutated(CIRCLE, ("object", "weights"), {"eps": 0}),
        "document.object.weights.eps"),
    "weight-of-an-unknown-generator": (
        "koszul-dual", mutated(CIRCLE, ("object", "weights"), {"nope": 1}),
        "document.object.weights.nope"),
    "differential-value-not-a-list": (
        "koszul-dual", mutated(CIRCLE, ("object", "differential"), {"eps": 3}),
        "document.object.differential.eps"),
    "words-a-bool": (
        "koszul-dual", mutated(CIRCLE, ("bounds", "words"), True), "document.bounds.words"),
    "complete-with-one-word": (
        "complete", mutated(CIRCLE, ("bounds", "words"), 1), "document.bounds.words"),
    "koszul-dual-not-augmented": (
        "koszul-dual", mutated(CIRCLE, ("object", "augmented"), False),
        "document.object.augmented"),
    "complete-not-augmented": (
        "complete", mutated(CIRCLE, ("object", "augmented"), False),
        "document.object.augmented"),
    "term-labels-not-a-list": (
        "ginzburg", mutated(LOOP, ("object", "terms"), [[3, "1"]]),
        "document.object.terms[0]"),
    "intervals-not-a-list": (
        "gentle", mutated(ANNULUS, ("object", "components", 0, "intervals"), 3),
        "document.object.components[0].intervals"),
    "interval-not-a-list": (
        "gentle", mutated(ANNULUS, ("object", "components", 0, "intervals"), [3]),
        "document.object.components[0].intervals[0]"),
    "slots-not-a-list": (
        "gentle", mutated(ANNULUS, ("object", "components", 1, "slots"), 3),
        "document.object.components[1].slots"),
    "arc-not-a-list": (
        "gentle", mutated(ANNULUS, ("object", "arcs", "g"), 3), "document.object.arcs.g"),
    "flow-degrees-a-list": (
        "gentle", mutated(ANNULUS, ("object", "flow_degrees"), [3]),
        "document.object.flow_degrees"),
    "rank-a-bool": (
        "cy", mutated(document_of("a2_preprojective"), ("n",), True), "document.n"),
    "structure-vector-a-list": (
        "reflexive", mutated(ALGEBRA, ("object", "structure", 0, 2), ["1"]),
        "document.object.structure[0]"),
    "coefficient-a-list": (
        "koszul-dual", mutated(CIRCLE, ("object", "relations", 0, 0, 0), ["1"]),
        "document.object.relations[0][0]"),
    "coefficient-a-float": (
        "koszul-dual", mutated(CIRCLE, ("object", "relations", 0, 0, 0), 1.5),
        "document.object.relations[0][0]"),
    "cycle-empty": (
        "ginzburg", mutated(LOOP, ("object", "terms", 0, 0), []), "document.object.terms[0]"),
    "cycle-does-not-close": (
        "ginzburg", mutated(LOOP, ("object", "quiver"),
                            {"vertices": ["v", "w"], "arrows": [["x", "v", "w", 0]]}),
        "document.object.terms[0]"),
    "cycle-arrow-of-nonzero-degree": (
        "ginzburg", mutated(LOOP, ("object", "quiver", "arrows", 0, 3), 1),
        "document.object.terms[0]"),
    "family-kind-unknown": (
        "reflexive", {"characteristic": 0, "object": {"kind": "family", "family": "x"}},
        "document.object.family"),
    "family-without-variables": (
        "reflexive", {"characteristic": 0,
                      "object": {"kind": "family", "family": "polynomial", "variables": 0}},
        "document.object.variables"),
    "term-coefficient-null": (
        "ginzburg", mutated(LOOP, ("object", "terms", 0, 1), None), "document.object.terms[0]"),
    "unit-coefficient-a-list": (
        "reflexive", mutated(ALGEBRA, ("object", "unit", "0"), [1]), "document.object.unit"),
    "degrees-of-strings": (
        "reflexive", mutated(ALGEBRA, ("object", "degrees"), ["a", 0]),
        "document.object.degrees"),
    "component-name-an-object": (
        "gentle", mutated(ANNULUS, ("object", "components", 0, "name"), {"a": 1}),
        "document.object.components[0].name"),
    "arrow-name-a-list": (
        "ginzburg", mutated(LOOP, ("object", "quiver", "arrows", 0, 0), ["x"]),
        "document.object.quiver.arrows[0]"),
    "cy-arrow-of-nonzero-degree": (
        "cy", mutated(document_of("a2_preprojective"), ("object", "arrows", 0, 3), 1),
        "document.object.arrows[0]"),
    "reflexive-arrow-of-nonzero-degree": (
        "reflexive", mutated(document_of("a2_preprojective"), ("object", "arrows", 0, 3), -1),
        "document.object.arrows[0]"),
    "vertex-name-a-list": (
        "cy", mutated(document_of("a2_preprojective"), ("object", "vertices", 0), ["1"]),
        "document.object.vertices[0]"),
    "structure-key-not-an-integer": (
        "reflexive", mutated(ALGEBRA, ("object", "structure", 0, 2), {"x": "1"}),
        "document.object.structure[0].x"),
    "unit-key-not-an-integer": (
        "reflexive", mutated(ALGEBRA, ("object", "unit"), {"x": "1"}),
        "document.object.unit.x"),
    "generator-endpoint-undeclared": (
        "koszul-dual", mutated(CIRCLE, ("object", "generators", 0, 2), "w"),
        "document.object.generators[0]"),
    "arrow-endpoint-undeclared": (
        "ginzburg", mutated(LOOP, ("object", "quiver", "arrows", 0, 1), "w"),
        "document.object.quiver.arrows[0]"),
    "vertex-declared-twice": (
        "koszul-dual", mutated(CIRCLE, ("object", "vertices"), ["v", "v"]),
        "document.object.vertices[1]"),
    "generator-declared-twice": (
        "koszul-dual", mutated(CIRCLE, ("object", "generators"), [["eps", "v", "v", 1]] * 2),
        "document.object.generators[1]"),
    "arrow-declared-twice": (
        "ginzburg", mutated(LOOP, ("object", "quiver", "arrows"), [["x", "v", "v", 0]] * 2),
        "document.object.quiver.arrows[1]"),
    "structure-row-past-the-basis": (
        "reflexive", mutated(ALGEBRA, ("object", "structure"),
                             ALGEBRA["object"]["structure"] + [[5, 7, {"9": "1"}]]),
        "document.object.structure[3]"),
    "graded-structure-row-past-the-basis": (
        "reflexive", mutated(GRADED_ALGEBRA, ("object", "structure", 0, 0), 2),
        "document.object.structure[0]"),
    "structure-key-past-the-basis": (
        "reflexive", mutated(ALGEBRA, ("object", "structure", 0, 2), {"2": "1"}),
        "document.object.structure[0].2"),
    "structure-key-negative": (
        "reflexive", mutated(ALGEBRA, ("object", "structure", 1, 2), {"-1": "1"}),
        "document.object.structure[1].-1"),
    "unit-key-past-the-basis": (
        "reflexive", mutated(ALGEBRA, ("object", "unit"), {"5": "1"}),
        "document.object.unit.5"),
    "differential-on-an-unknown-generator": (
        "koszul-dual", mutated(CIRCLE, ("object", "differential"), {"q": [["1", ["eps"], None]]}),
        "document.object.differential.q"),
    "term-base-undeclared": (
        "koszul-dual", mutated(CIRCLE, ("object", "relations", 0, 0, 2), "w"),
        "document.object.relations[0][0]"),
}


@pytest.mark.parametrize("command,document,location", SHAPE_FAULTS.values(),
                         ids=SHAPE_FAULTS.keys())
def test_document_shape_faults_exit_one(capsys, tmp_path, command, document, location):
    path = tmp_path / "fault.json"
    path.write_text(json.dumps(document))
    code, _, err = run_cli([command, str(path)], capsys)
    assert code == 1, err
    assert "input error at %s: " % location in err


def test_a_document_that_is_not_utf8_is_faulted_at_its_path(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"characteristic": 0, "object": {"kind": "family", '
                     '"family": "laur\u00e9nt"}}'.encode("latin-1"))
    code, _, err = run_cli(["reflexive", str(path)], capsys)
    assert code == 1
    assert err.startswith("input error at %s: " % path)


def test_the_algebra_document_of_the_shape_faults_runs(capsys, tmp_path):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(ALGEBRA))
    code, _, err = run_cli(["reflexive", str(path)], capsys)
    assert code == 0, err


@pytest.mark.parametrize("argv", [
    ["cy", "--bogus", str(DATA / "a2_preprojective.json")],
    ["cy", str(DATA / "a2_preprojective.json"), "--words", "notanint"],
], ids=["unknown-flag", "words-not-an-int"])
def test_usage_errors_exit_one(capsys, argv):
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert err.startswith("input error at argv: ")


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["cy", "--help"])
    assert exit_info.value.code == 0
    assert "usage: quiverdg cy" in capsys.readouterr().out


def test_the_parser_is_built_once_and_parses_each_call_alone(capsys, tmp_path):
    assert cli._build_parser() is cli._build_parser()
    document = str(DATA / "one_loop_ginzburg.json")
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    code, out, _ = run_cli(["ginzburg", document, "--quiet", "--words", "3",
                            "--json", str(first)], capsys)
    assert code == 0 and out == ""
    code, out, _ = run_cli(["ginzburg", document, "--json", str(second)], capsys)
    assert code == 0 and out.startswith("ginzburg algebra on 1 vertices")
    assert json.loads(first.read_text())["bounds"]["words"] == 3
    assert second.read_bytes() == (GOLDEN / "one_loop_ginzburg.report.json").read_bytes()


# The mutation property: one node of a known-good document deleted,
# duplicated (a list item) or replaced by one of these values, under a
# command the document lists or reflexive, exits 0 or 1 and never 2, and an
# exit 1 names a location in the document or the flags.
MUTATION_POOL = {**{name: document_of(name) for name, _ in FIXTURES},
                 "graded-algebra": GRADED_ALGEBRA,
                 "family": {"characteristic": 0,
                            "object": {"kind": "family", "family": "polynomial",
                                       "degree": 2, "variables": 3}}}
REPLACEMENTS = (None, True, False, 0, 1, -1, 2, 7, 1.5, "x", "v", "1/0", "", [], {}, [1],
                {"x": 1}, {"0": "1"}, ["v"], [[]], ["x", "v", "v", 0],
                [["1", ["x"], None]], [["x", "x", "x"], "1"])


def nodes(value, path=()):
    """The path of every node under value."""
    if isinstance(value, (dict, list)):
        for key, item in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield path + (key,)
            yield from nodes(item, path + (key,))


def edited(document, path, edit):
    if edit not in ("delete", "duplicate"):
        return mutated(document, path, edit[0])
    document = copy.deepcopy(document)
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    if edit == "delete":
        del parent[path[-1]]
    else:
        parent.insert(path[-1], parent[path[-1]])
    return document


@st.composite
def mutated_runs(draw):
    document = MUTATION_POOL[draw(st.sampled_from(sorted(MUTATION_POOL)))]
    command = draw(st.sampled_from(sorted({"reflexive", *document.get("commands", ())})))
    path = draw(st.sampled_from(list(nodes(document))))
    edits = ["delete"] + ["duplicate"] * isinstance(path[-1], int) + [
        (value,) for value in REPLACEMENTS]
    return command, edited(document, path, draw(st.sampled_from(edits)))


# a mutated superpotential may have a cycle too short for the verdicts; the
# engine warns, and the property reads only the exit code and stderr
@pytest.mark.filterwarnings("ignore::quiverdg.ginzburg.ShortCycleWarning")
@settings(derandomize=True, max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(run=mutated_runs())
@example(run=("reflexive", SHAPE_FAULTS["structure-row-past-the-basis"][1]))
@example(run=("reflexive", SHAPE_FAULTS["graded-structure-row-past-the-basis"][1]))
def test_a_mutated_document_exits_zero_or_one_at_a_location(run):
    command, document = run
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "mutated.json"
        path.write_text(json.dumps(document))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, str(path)])
    assert code in (0, 1), err.getvalue()
    if code == 1:
        assert err.getvalue().startswith(("input error at document", "input error at flags")), \
            err.getvalue()


def table_keys(spec):
    """The keys of every table in spec, "?" stripped."""
    if isinstance(spec, dict):
        for key, item in spec.items():
            yield key.rstrip("?")
            yield from table_keys(item)
    elif isinstance(spec, list):
        yield from table_keys(spec[0])


def test_the_readme_lists_every_key_of_every_object_kind():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("\n## Command line\n")[1].split("\n## ")[0]
    rows = {}
    for kind, keys in re.findall(r"^\| `([a-z-]+)` \| (.*?) \|", section, re.MULTILINE):
        rows[kind] = set(re.findall(r"`([a-z_]+)\??`", keys))
    assert sorted(rows) == sorted(cli.OBJECTS)
    for kind, (table, _) in cli.OBJECTS.items():
        assert set(table_keys(table)) <= rows[kind], kind
