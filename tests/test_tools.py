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
