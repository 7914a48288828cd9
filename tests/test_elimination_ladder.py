"""tools/elimination_ladder.py writes BENCH_<label>.json with one entry per
rung.  Only the L = 6 cohomology rung, the 5-letter bar rung, the bar
cohomology_dims rung, the dual_bar rung, the letter-tables rung, the
square-zero completeness_report rung, the A5 and A2 realize rungs, the
square-zero double dual realize rung, the A5 H^0 slice rung, the five
verify_differential rungs, the local-factors rung, the three radical rungs,
the Koszul pair rung, the L = 16 Jacobi rung of C^3, the selftest and
verdict-table rungs, two CLI rungs and the document-faults rung run here, to
keep the suite fast."""

import importlib.util
import json
import os
import statistics
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "elimination_ladder.py"
RUNG = "cohomology/3-cycle-cy3/L6"
BAR_RUNG = "bar/3-cycle-cy3-F101-L2/5-letters"
BAR_DIMS_RUNG = "bar-cohomology-dims/3-cycle-R2-F101-L2/6-letters"
DUAL_BAR_RUNG = "dual_bar/3-cycle-cy3-F101-L2/5-letters"
LETTER_TABLES_RUNG = "letter-tables/3-cycle-cy3-F101-L2-cold"
COMPLETENESS_RUNG = "completeness_report/square-zero-3/L10"
REALIZE_RUNG = "realize/A5-cy2/L9"
TINY_REALIZE_RUNG = "realize/A2-cy3/L3"
DOUBLE_DUAL_RUNG = "realize/square-zero-double-dual/L10"
SLICE_RUNG = "h0_slice/A5-cy2/L8"
VERIFY_RUNG = "verify_differential/3-cycle-cy3-F101/L8"
VERIFY_Q_RUNG = "verify_differential/3-cycle-cy3-Q/L8"
VERIFY_C3_RUNG = "verify_differential/C3-commutative-Q/L10"
VERIFY_COLD_RUNG = "verify_differential/3-cycle-cy3-F101/L8-cold"
VERIFY_Q_COLD_RUNG = "verify_differential/3-cycle-cy3-Q/L8-cold"
CLI_GOLDEN_RUNG = "cli/circle_pair/koszul-dual"
CLI_RUNG = "cli/annulus_pair/reflexive"
FAULTS_RUNG = "document-faults/fixtures"
FACTORS_RUNG = "decompose_commutative/five-local-factors"
KOSZUL_RUNG = "verify_koszul_pair/3-cycle/n2-L7"
JACOBI_RUNG = "jacobi_basis/C3-xyz-xzy/L16"
SELFTEST_RUNG = "selftest"
VERDICT_RUNG = "check/verdict-table"
COLD_RUNG = "cold-import/quiverdg"


def load_tool():
    spec = importlib.util.spec_from_file_location("elimination_ladder", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_the_rung_writes_its_json(name, tmp_path, monkeypatch):
    ladder = load_tool()
    assert name in ladder.RUNGS
    monkeypatch.setattr(ladder, "RUNGS", {name: ladder.RUNGS[name]})
    monkeypatch.chdir(tmp_path)
    ladder.main(["smoke"])
    result = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert sorted(result) == ["label", "python", "repeats", "rungs"]
    assert result["label"] == "smoke"
    assert list(result["rungs"]) == [name]
    rung = result["rungs"][name]
    assert sorted(rung) == ["best_s", "runs_s"]
    assert len(rung["runs_s"]) == result["repeats"] == 5
    assert rung["best_s"] == min(rung["runs_s"]) > 0


def test_the_l6_rung_writes_its_json(tmp_path, monkeypatch):
    assert_the_rung_writes_its_json(RUNG, tmp_path, monkeypatch)


def test_the_bar_rung_writes_its_json(tmp_path, monkeypatch):
    assert_the_rung_writes_its_json(BAR_RUNG, tmp_path, monkeypatch)
    dims, ledger = load_tool().RUNGS[BAR_RUNG]()()
    assert (sum(dims.values()), ledger) == (58824, 58620)


def test_the_bar_cohomology_dims_rung_writes_its_json(tmp_path, monkeypatch):
    assert_the_rung_writes_its_json(BAR_DIMS_RUNG, tmp_path, monkeypatch)
    dims = load_tool().RUNGS[BAR_DIMS_RUNG]()()
    assert dims == {-6: 0, -5: 0, -4: 0, -3: 0, -2: 0, -1: 0, 0: 84}


def test_the_dual_bar_rung_writes_its_json(tmp_path, monkeypatch):
    assert_the_rung_writes_its_json(DUAL_BAR_RUNG, tmp_path, monkeypatch)
    dual = load_tool().RUNGS[DUAL_BAR_RUNG]()()
    assert sum(map(len, dual.basis_by_degree.values())) == 1449
    assert dual.dims() == {0: 3, 1: 6, 2: 21, 3: 63, 4: 156, 5: 291, 6: 378, 7: 324,
                           8: 165, 9: 39, 10: 3}


def test_the_letter_tables_rung_writes_its_json(tmp_path, monkeypatch):
    assert_the_rung_writes_its_json(LETTER_TABLES_RUNG, tmp_path, monkeypatch)
    words, dual_dims, cogenerators = load_tool().RUNGS[LETTER_TABLES_RUNG]()()
    assert (words, sum(dual_dims.values()), cogenerators) == (58824, 1449, 21)


def test_the_completeness_rung_writes_its_json(tmp_path, monkeypatch):
    assert_the_rung_writes_its_json(COMPLETENESS_RUNG, tmp_path, monkeypatch)
    report = load_tool().RUNGS[COMPLETENESS_RUNG]()()
    assert report.kind == "CompleteWithinWindow" and len(report.rows) == 19


def test_the_realize_rung_writes_its_json(tmp_path, monkeypatch):
    assert_the_rung_writes_its_json(REALIZE_RUNG, tmp_path, monkeypatch)
    t = load_tool().RUNGS[REALIZE_RUNG]()()
    assert sum(t.dims().values()) == 8141


def test_the_tiny_realize_rung_writes_its_json(tmp_path, monkeypatch):
    assert_the_rung_writes_its_json(TINY_REALIZE_RUNG, tmp_path, monkeypatch)
    t = load_tool().RUNGS[TINY_REALIZE_RUNG]()()
    assert sum(t.dims().values()) == 14


def test_the_double_dual_realize_rung_writes_its_json(tmp_path, monkeypatch):
    assert_the_rung_writes_its_json(DOUBLE_DUAL_RUNG, tmp_path, monkeypatch)
    t = load_tool().RUNGS[DOUBLE_DUAL_RUNG]()()
    # ten letters of weights 1 to 10 on one vertex: 2^(L - 1) words of each
    # weight L >= 1 and the trivial path
    assert sorted(t.presentation.weights.values()) == list(range(1, 11))
    assert sum(t.dims().values()) == 1024


def test_the_h0_slice_rung_writes_its_json(tmp_path, monkeypatch):
    assert_the_rung_writes_its_json(SLICE_RUNG, tmp_path, monkeypatch)
    # H^0 of the preprojective algebra of A5 has stabilized by L = 8, so the
    # words of weight 9 add nothing to it
    assert load_tool().RUNGS[SLICE_RUNG]()() == 0


def test_the_verify_rung_writes_its_json(tmp_path, monkeypatch):
    assert_the_rung_writes_its_json(VERIFY_RUNG, tmp_path, monkeypatch)
    report = load_tool().RUNGS[VERIFY_RUNG]()()
    assert report.ok and (report.checked_words, report.checked_pairs) == (5043, 36969)


def test_the_q_verify_rung_writes_its_json(tmp_path, monkeypatch):
    assert_the_rung_writes_its_json(VERIFY_Q_RUNG, tmp_path, monkeypatch)
    report = load_tool().RUNGS[VERIFY_Q_RUNG]()()
    assert report.ok and (report.checked_words, report.checked_pairs) == (5043, 36969)


@pytest.mark.parametrize("name", [VERIFY_COLD_RUNG, VERIFY_Q_COLD_RUNG])
def test_the_cold_verify_rungs_write_their_json(name, tmp_path, monkeypatch):
    assert_the_rung_writes_its_json(name, tmp_path, monkeypatch)
    report = load_tool().RUNGS[name]()()
    assert report.ok and (report.checked_words, report.checked_pairs) == (5043, 36969)


def test_the_c3_verify_rung_writes_its_json(tmp_path, monkeypatch):
    assert_the_rung_writes_its_json(VERIFY_C3_RUNG, tmp_path, monkeypatch)
    report = load_tool().RUNGS[VERIFY_C3_RUNG]()()
    # C(13, 3) monomials of degree at most 10
    assert report.ok and (report.checked_words, report.checked_pairs) == (286, 8008)


def test_every_document_command_has_a_cli_rung():
    ladder = load_tool()
    expected = {"cli/%s/%s" % (path.stem, command)
                for path in (TOOL.parent.parent / "tests" / "data").glob("*.json")
                for command in json.loads(path.read_text())["commands"]}
    assert len(expected) == 12
    assert {name for name in ladder.RUNGS if name.startswith("cli/")} == expected


def test_the_cli_rungs_write_their_json(tmp_path, monkeypatch):
    assert_the_rung_writes_its_json(CLI_GOLDEN_RUNG, tmp_path, monkeypatch)
    assert_the_rung_writes_its_json(CLI_RUNG, tmp_path, monkeypatch)


def test_a_cli_rung_fails_on_a_nonzero_exit_or_other_bytes(monkeypatch, tmp_path):
    import pytest

    ladder = load_tool()
    call = ladder.RUNGS[CLI_GOLDEN_RUNG]()
    monkeypatch.setattr(ladder.cli, "main", lambda argv: 1)
    with pytest.raises(RuntimeError, match="exited 1"):
        call()

    def other_bytes(argv):
        Path(argv[-1]).write_text("{}\n")
        return 0
    monkeypatch.setattr(ladder.cli, "main", other_bytes)
    with pytest.raises(RuntimeError, match="golden"):
        call()


def test_the_document_faults_rung_writes_its_json(tmp_path, monkeypatch):
    assert_the_rung_writes_its_json(FAULTS_RUNG, tmp_path, monkeypatch)
    assert load_tool().RUNGS[FAULTS_RUNG]()() == 214


def test_the_local_factors_rung_writes_its_json(tmp_path, monkeypatch):
    assert_the_rung_writes_its_json(FACTORS_RUNG, tmp_path, monkeypatch)
    factors = load_tool().RUNGS[FACTORS_RUNG]()()
    assert len(factors) == 5 and all(f.residue_field_certified for f in factors)


def test_the_local_factors_rung_cuts_one_corner_per_factor(monkeypatch):
    # one split of x's minimal polynomial gives all five idempotents, and each
    # corner is cut once from the input; peeling one idempotent per round
    # cut eight
    from quiverdg import algebras

    call = load_tool().RUNGS[FACTORS_RUNG]()
    cut = algebras._algebra_on_span
    corners = []

    def counted(*args):
        corners.append(args)
        return cut(*args)
    monkeypatch.setattr(algebras, "_algebra_on_span", counted)
    assert len(call()) == 5
    assert len(corners) == 5


@pytest.mark.parametrize("name,dim", [("radical/F2-x2y2", 4), ("radical/F3-x3y3", 9),
                                      ("radical/F5-x+1^5", 5)])
def test_the_radical_rungs_write_their_json(name, dim, tmp_path, monkeypatch):
    assert_the_rung_writes_its_json(name, tmp_path, monkeypatch)
    # each algebra is local with residue field F_p, and its trace form is zero
    info = load_tool().RUNGS[name]()()
    assert (info.method, info.dimension, info.quotient.dim) == ("frobenius", dim - 1, 1)


def test_the_koszul_pair_rung_writes_its_json(tmp_path, monkeypatch):
    assert_the_rung_writes_its_json(KOSZUL_RUNG, tmp_path, monkeypatch)
    assert load_tool().RUNGS[KOSZUL_RUNG]()().kind == "MatchWithinWindow"


def test_the_c3_jacobi_rung_writes_its_json(tmp_path, monkeypatch):
    assert_the_rung_writes_its_json(JACOBI_RUNG, tmp_path, monkeypatch)
    # k[x, y, z] has C(L + 3, 3) monomials of degree at most L
    assert len(load_tool().RUNGS[JACOBI_RUNG]()()) == 969


def test_the_selftest_rung_writes_its_json(tmp_path, monkeypatch):
    assert_the_rung_writes_its_json(SELFTEST_RUNG, tmp_path, monkeypatch)
    report = load_tool().RUNGS[SELFTEST_RUNG]()()
    assert report["ok"] and len(report["checks"]) == 6
    assert all(check["ok"] for check in report["checks"])


def test_the_selftest_rung_fails_on_a_nonzero_exit(monkeypatch):
    ladder = load_tool()
    call = ladder.RUNGS[SELFTEST_RUNG]()
    monkeypatch.setattr(ladder.cli, "main", lambda argv: 2)
    with pytest.raises(RuntimeError, match="exited 2"):
        call()


def test_the_verdict_table_rung_writes_its_json(tmp_path, monkeypatch):
    assert_the_rung_writes_its_json(VERDICT_RUNG, tmp_path, monkeypatch)
    # the rows of test_acceptance.py's verdict table, in its order
    assert load_tool().RUNGS[VERDICT_RUNG]()() == [
        ("NotReflexive", "polynomial-ring-in-degree-zero"),
        ("NotReflexive", "graded-laurent-polynomials"),
        ("Reflexive", "finite-product-of-complete-local"),
        ("Reflexive", "connective-local-finite-dimensional"),
        ("Reflexive", "coconnective-with-vanishing-degree-one"),
        ("Reflexive", "ginzburg-algebra-of-a-long-cycle-potential"),
        ("Reflexive", "calabi-yau-completion-of-rank-at-least-two"),
        ("Reflexive", "calabi-yau-completion-of-rank-at-least-two"),
        ("Reflexive", "proper-graded-gentle"),
        ("NotReflexive", "fully-marked-component-of-winding-zero"),
    ]


# A cold-start rung times fresh processes under the caller's environment,
# so the caller puts src on PYTHONPATH, as the tool's usage line does.
def test_the_cold_import_rung_writes_its_json(tmp_path, monkeypatch):
    ladder = load_tool()
    src = str(TOOL.parent.parent / "src")
    monkeypatch.setenv("PYTHONPATH",
                       os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    monkeypatch.setattr(ladder, "RUNGS", {COLD_RUNG: ladder.RUNGS[COLD_RUNG]})
    monkeypatch.chdir(tmp_path)
    ladder.main(["smoke"])
    rung = json.loads((tmp_path / "BENCH_smoke.json").read_text())["rungs"][COLD_RUNG]
    assert sorted(rung) == ["median_s", "python_c_pass_s", "runs_s"]
    assert len(rung["runs_s"]) == 5
    assert rung["median_s"] == statistics.median(rung["runs_s"]) > 0
    assert rung["python_c_pass_s"] > 0
