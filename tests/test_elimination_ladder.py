"""tools/elimination_ladder.py writes BENCH_<label>.json with one entry per
rung.  Only the L = 6 cohomology rung, the 5-letter bar rung, the A5
realize rung, the F_101 verify_differential rung, the local-factors rung and
the Koszul pair rung run here, to keep the suite fast."""

import importlib.util
import json
import os
import statistics
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "elimination_ladder.py"
RUNG = "cohomology/3-cycle-cy3/L6"
BAR_RUNG = "bar/3-cycle-cy3-F101-L2/5-letters"
REALIZE_RUNG = "realize/A5-cy2/L9"
VERIFY_RUNG = "verify_differential/3-cycle-cy3-F101/L8"
FACTORS_RUNG = "decompose_commutative/five-local-factors"
KOSZUL_RUNG = "verify_koszul_pair/3-cycle/n2-L7"
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


def test_the_realize_rung_writes_its_json(tmp_path, monkeypatch):
    assert_the_rung_writes_its_json(REALIZE_RUNG, tmp_path, monkeypatch)
    t = load_tool().RUNGS[REALIZE_RUNG]()()
    assert sum(t.dims().values()) == 8141


def test_the_verify_rung_writes_its_json(tmp_path, monkeypatch):
    assert_the_rung_writes_its_json(VERIFY_RUNG, tmp_path, monkeypatch)
    report = load_tool().RUNGS[VERIFY_RUNG]()()
    assert report.ok and (report.checked_words, report.checked_pairs) == (5043, 36969)


def test_the_local_factors_rung_writes_its_json(tmp_path, monkeypatch):
    assert_the_rung_writes_its_json(FACTORS_RUNG, tmp_path, monkeypatch)
    factors = load_tool().RUNGS[FACTORS_RUNG]()()
    assert len(factors) == 5 and all(f.residue_field_certified for f in factors)


def test_the_koszul_pair_rung_writes_its_json(tmp_path, monkeypatch):
    assert_the_rung_writes_its_json(KOSZUL_RUNG, tmp_path, monkeypatch)
    assert load_tool().RUNGS[KOSZUL_RUNG]()().kind == "MatchWithinWindow"


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
