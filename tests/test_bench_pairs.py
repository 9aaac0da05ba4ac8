"""The verdicts of tools/bench_pairs.py on made-up run summaries."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def side(runs):
    return {"metrics": {"m": dict(bench_pairs.quartiles(runs), runs=runs)}}


@pytest.mark.parametrize("base, change, better, verdict", [
    # medians 10 -> 12 with a narrow base spread: 20% is inside a 25% bound
    ([9.8, 9.9, 10, 10, 10.1, 10.2], [11.9, 12, 12, 12, 12.1, 12.2], "lower", "within"),
    # 10 -> 13 is 30% worse
    ([9.8, 9.9, 10, 10, 10.1, 10.2], [12.9, 13, 13, 13, 13.1, 13.2], "lower", "worse"),
    # a base IQR of 4 on a median of 10 is wider than the bound
    ([6, 7, 8, 12, 13, 14], [6.5, 7, 8, 12, 13, 13.5], "lower", "unresolved"),
    # the same spread, but every change run beats every base run
    ([6, 7, 8, 12, 13, 14], [1, 2, 3, 4, 5, 5.5], "lower", "within"),
    # higher is better: 10 -> 7 is 30% worse
    ([9.8, 9.9, 10, 10, 10.1, 10.2], [6.9, 7, 7, 7, 7.1, 7.2], "higher", "worse"),
])
def test_regression_verdict(base, change, better, verdict):
    out = bench_pairs.compare(side(base), side(change), {"m": (better, 0.25)})["m"]
    assert out["regression"] == verdict


def test_a_metric_without_a_bound_gets_no_verdict_and_the_gain_rule_needs_nine_wins_in_ten():
    base = [float(x) for x in range(10, 20)]
    won_all = bench_pairs.compare(side(base), side([x - 5 for x in base]),
                                  {"m": ("lower", None)})["m"]
    assert "regression" not in won_all
    assert won_all["change_won"] == 10 and won_all["gain_resolved"]
    won_eight = [x - 5 for x in base[:8]] + [x + 1 for x in base[8:]]
    assert not bench_pairs.compare(side(base), side(won_eight),
                                   {"m": ("lower", None)})["m"]["gain_resolved"]


def test_the_spec_comes_from_benchmark_json():
    spec = bench_pairs.load_spec(ROOT)
    assert spec["seconds"] > 0
    assert "cone-search" in spec["workloads"]
    assert spec["metrics"]["wall_s"][0] == "lower"
    assert spec["metrics"]["run.cpu_s"] == ("lower", None)


def test_the_verdict_line_names_resolved_gains_and_metrics_not_within():
    narrow = [9.6, 9.7, 9.8, 9.9, 10, 10, 10.1, 10.2, 10.3, 10.4]
    wide = [6, 6, 7, 7, 8, 12, 13, 13, 14, 14]
    runs = {"wall_s": (narrow, [x - 5 for x in narrow]),
            "setup_s": (narrow, [x + 3 for x in narrow]),
            "op_tail_ms": (wide, [x + 0.5 for x in wide]),
            "run.cpu_s": (wide, [x - 7 for x in wide])}
    base, change = ({"metrics": {name: dict(bench_pairs.quartiles(r[i]), runs=r[i])
                                 for name, r in runs.items()}} for i in (0, 1))
    metrics = {"wall_s": ("lower", 0.25), "setup_s": ("lower", 0.25),
               "op_tail_ms": ("lower", 0.25), "run.cpu_s": ("lower", None)}
    compared = bench_pairs.compare(base, change, metrics)
    assert bench_pairs.verdict_line("braid-words", compared) == (
        "braid-words: gain resolved: wall_s, run.cpu_s; "
        "not within: setup_s worse, op_tail_ms unresolved")
    same = bench_pairs.compare(base, base, metrics)
    assert bench_pairs.verdict_line("battery", same) == (
        "battery: gain resolved: none; not within: op_tail_ms unresolved")
