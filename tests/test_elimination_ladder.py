"""tools/elimination_ladder.py writes BENCH_<label>.json with one entry per
rung.  Only the L = 6 cohomology rung runs here, to keep the suite fast."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "elimination_ladder.py"
RUNG = "cohomology/3-cycle-cy3/L6"


def load_tool():
    spec = importlib.util.spec_from_file_location("elimination_ladder", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_l6_rung_writes_its_json(tmp_path, monkeypatch):
    ladder = load_tool()
    assert RUNG in ladder.RUNGS
    monkeypatch.setattr(ladder, "RUNGS", {RUNG: ladder.RUNGS[RUNG]})
    monkeypatch.chdir(tmp_path)
    ladder.main(["smoke"])
    result = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert sorted(result) == ["label", "python", "repeats", "rungs"]
    assert result["label"] == "smoke"
    assert list(result["rungs"]) == [RUNG]
    rung = result["rungs"][RUNG]
    assert sorted(rung) == ["best_s", "runs_s"]
    assert len(rung["runs_s"]) == result["repeats"] == 5
    assert rung["best_s"] == min(rung["runs_s"]) > 0
