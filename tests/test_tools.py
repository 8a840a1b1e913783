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


def pairs_of(parent, change):
    return [{"parent": {"solve_s": p, "attempted": 1, "failed": 0},
             "change": {"solve_s": c, "attempted": 1, "failed": 0}}
            for p, c in zip(parent, change)]


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


@pytest.mark.parametrize("change, met", [
    # every pair won, the median 10% lower against a parent IQR of 0.03
    ([p * 0.9 for p in PARENT], True),
    # 9 of 10 won is enough
    ([p * 0.9 for p in PARENT[:9]] + [1.05], True),
    # 8 of 10 is not, although the median is as low
    ([p * 0.9 for p in PARENT[:8]] + [1.05, 1.05], False),
    # every pair won, but by less than the parent's IQR
    ([p - 0.01 for p in PARENT], False),
])
def test_summary_applies_the_claim_rule(bench_pairs, change, met):
    out = bench_pairs.summary(pairs_of(PARENT, change), {"solve_s": "lower"})
    assert out["solve_s"]["claim_rule_met"] is met
    # a metric where higher is better: the same runs are then losses
    rate = bench_pairs.summary(pairs_of(PARENT, change), {"solve_s": "higher"})
    assert rate["solve_s"]["claim_rule_met"] is False


@pytest.mark.parametrize("better, scale, worse", [
    ("lower", 1.04, False), ("lower", 1.06, True), ("lower", 0.5, False),
    ("higher", 0.96, False), ("higher", 0.94, True), ("higher", 2.0, False),
])
def test_summary_flags_a_median_worse_than_the_bound(bench_pairs, better, scale,
                                                     worse):
    out = bench_pairs.summary(pairs_of(PARENT, [p * scale for p in PARENT]),
                              {"solve_s": better}, {"solve_s": 0.05})
    assert out["solve_s"]["worse_than_bound"] is worse
    # only a metric with a bound gets the verdict
    assert "worse_than_bound" not in bench_pairs.summary(
        pairs_of(PARENT, PARENT), {"solve_s": better})["solve_s"]
