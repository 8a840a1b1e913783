"""Tests of the scripts under ``tools/``."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def bench_pairs(monkeypatch):
    """``tools/bench_pairs.py`` as a module, its ``export`` recording the
    revisions it is asked for instead of running ``git archive``."""
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.exported = []

    def export(rev, dest):
        module.exported.append(rev)
        raise RuntimeError("export reached")

    monkeypatch.setattr(module, "export", export)
    return module


def argv(tmp_path, pairs):
    return ["HEAD~1", "HEAD", "--pairs", str(pairs), "--run", "moment-ex2-m3:61",
            "--work", str(tmp_path / "work"), "--out", str(tmp_path / "pairs.json")]


@pytest.mark.parametrize("pairs", [1, 0, -3])
def test_too_few_pairs_rejected_before_any_export(bench_pairs, tmp_path, capsys, pairs):
    # the summary's quartiles need two runs per side
    with pytest.raises(SystemExit) as info:
        bench_pairs.main(argv(tmp_path, pairs))
    assert info.value.code == 2
    assert "--pairs" in capsys.readouterr().err
    assert bench_pairs.exported == []
    assert not (tmp_path / "work").exists() and not (tmp_path / "pairs.json").exists()


def test_two_pairs_reach_the_export(bench_pairs, tmp_path):
    with pytest.raises(RuntimeError, match="export reached"):
        bench_pairs.main(argv(tmp_path, 2))
    assert bench_pairs.exported == ["HEAD~1"]


def test_summary_totals_attempted_and_failed_per_side(bench_pairs):
    def run(solve_s, attempted, failed):
        return {"solve_s": solve_s, "attempted": attempted, "failed": failed}

    pairs = [{"parent": run(1.0, 5, 0), "change": run(0.9, 5, 1)},
             {"parent": run(1.2, 4, 2), "change": run(1.1, 6, 0)},
             {"parent": run(1.1, 5, 0), "change": run(1.3, 5, 3)}]
    out = bench_pairs.summary(pairs, {"solve_s": "lower"})
    assert out["runs"] == {"parent": {"attempted": 14, "failed": 2},
                           "change": {"attempted": 16, "failed": 4}}
    assert out["solve_s"]["change_better_in"] == "2 of 3"
