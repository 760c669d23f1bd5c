"""tools/ab_pairs.py's summary of paired runs, on fixed numbers: no
benchmark is run."""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

END_TO_END = [{"name": "wall_s", "better": "lower"}, {"name": "ops_per_s", "better": "higher"},
              {"name": "peak_rss_mb", "better": "lower"}, {"name": "op_ms_p90", "better": "lower"},
              {"name": "setup_s", "better": "lower"}]


def _runs(**columns):
    """Per-run metric dicts from one list of values per metric."""
    return [dict(zip(columns, values)) for values in zip(*columns.values())]


def test_the_summary_counts_wins_by_direction_and_marks_a_gain():
    parent = _runs(wall_s=list(range(10, 20)), ops_per_s=[100] * 10, peak_rss_mb=[20] * 10,
                   setup_s=list(range(10, 20)))
    # wall_s: the last pair is a tie, so 9 of 10 wins; setup_s: the same
    # wins with the medians closer than the parent's quartiles are apart
    change = _runs(wall_s=[5, 6, 7, 8, 9, 10, 11, 12, 13, 19], ops_per_s=[101] * 9 + [99],
                   peak_rss_mb=[21] * 10, setup_s=[9, 10, 11, 12, 13, 14, 15, 16, 17, 19])
    parent[3]["op_ms_p90"] = 2.0
    rows = {row["name"]: row for row in ab_pairs.summarize(parent, change, END_TO_END)}
    assert list(rows) == ["wall_s", "ops_per_s", "peak_rss_mb", "setup_s"]  # no op_ms_p90 pair
    wall = rows["wall_s"]
    assert wall["parent"] == (12.25, 14.5, 16.75) and wall["change"] == (7.25, 9.5, 11.75)
    assert (wall["wins"], wall["pairs"], wall["gain"]) == (9, 10, True)
    assert (rows["ops_per_s"]["wins"], rows["ops_per_s"]["gain"]) == (9, True)
    assert (rows["peak_rss_mb"]["wins"], rows["peak_rss_mb"]["gain"]) == (0, False)
    setup = rows["setup_s"]
    assert setup["change"][1] == 13.5 and 14.5 - 13.5 < 16.75 - 12.25
    assert (setup["wins"], setup["gain"]) == (9, False)


def test_the_summary_needs_nine_tenths_of_the_pairs():
    parent = _runs(wall_s=[1.0, 2.0, 3.0, 4.0, 5.0])
    change = _runs(wall_s=[0.1, 2.0, 0.2, 0.3, 0.4])  # 4 wins and a tie
    (row,) = ab_pairs.summarize(parent, change, END_TO_END)
    assert row["parent"] == (2.0, 3.0, 4.0)
    assert (row["wins"], row["pairs"], row["gain"]) == (4, 5, False)
    (one,) = ab_pairs.summarize(parent[:1], change[:1], END_TO_END)
    assert one["parent"] == (1.0, 1.0, 1.0) and (one["wins"], one["gain"]) == (1, True)


def test_the_summary_refuses_unpaired_runs():
    with pytest.raises(ValueError):
        ab_pairs.summarize(_runs(wall_s=[1.0, 2.0]), _runs(wall_s=[1.0]), END_TO_END)


def test_a_summary_is_appended_to_the_trend_file(tmp_path):
    parent = _runs(wall_s=[0.10, 0.11, 0.12, 0.13], setup_s=[0.4, 0.4, 0.4, 0.4])
    change = _runs(wall_s=[0.05, 0.06, 0.07, 0.14], setup_s=[0.4, 0.4, 0.4, 0.4])
    rows = ab_pairs.summarize(parent, change, END_TO_END)
    stdout = ("pass 1: wall_s=0.1 measured 0.07 s, median of 3 probes 1.250 ms; host.calib_s=0.1\n"
              "pass 2: wall_s=0.1 measured 0.07 s, median of 2 probes 1.310 ms; host.calib_s=0.1\n")
    probes = [float(ms) for ms in ab_pairs.PROBE.findall(stdout)]
    assert probes == [1.25, 1.31]
    entry = ab_pairs.trend_entry(
        rows, parent={"commit": "a" * 40, "dirty": False}, change={"commit": None, "dirty": None},
        seeds=[11, 12, 13, 14], seconds=36, probes={"parent": probes, "change": [1.0, 2.0, 4.0]})
    path = tmp_path / "BENCH_w.json"
    ab_pairs.append_trend(str(path), {"source": "prose: CHANGES.md"})
    ab_pairs.append_trend(str(path), entry)
    first, second = json.loads(path.read_text(encoding="utf-8"))
    assert first == {"source": "prose: CHANGES.md"}
    assert second["parent"] == {"commit": "a" * 40, "dirty": False}
    assert (second["seeds"], second["seconds"], second["pairs"]) == ([11, 12, 13, 14], 36, 4)
    assert second["host_probe_ms"] == {"parent": pytest.approx(1.28), "change": 2.0}
    assert second["empty_pycache"] is True
    wall = second["metrics"]["wall_s"]
    assert wall["parent"] == pytest.approx([0.1075, 0.115, 0.1225])
    assert wall["change"] == pytest.approx([0.0575, 0.065, 0.0875])
    assert (wall["better"], wall["wins"], wall["gain"]) == ("lower", 3, False)  # 3 of 4 pairs
    assert second["metrics"]["setup_s"]["wins"] == 0
    assert set(second["metrics"]) == {"wall_s", "setup_s"}


def test_the_state_of_a_directory_outside_git_is_null(tmp_path):
    assert ab_pairs.git_state(str(tmp_path)) == {"commit": None, "dirty": None}


def test_the_printed_summary_says_its_setup_s_compiles_every_module(tmp_path, monkeypatch,
                                                                    capsys):
    # main() on two stand-in runs per pair: no benchmark and no git call
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    summary = {"failed": 0, "attempted": 1,
               "metrics": {m["name"]: {"value": 1.0} for m in END_TO_END}}
    monkeypatch.setattr(ab_pairs, "ROOT", str(tmp_path))
    monkeypatch.setattr(ab_pairs, "run_once", lambda *args: (summary, [1.0]))
    monkeypatch.setattr(ab_pairs, "git_state", lambda checkout: {"commit": None, "dirty": None})
    monkeypatch.setattr("sys.argv", ["ab_pairs.py", str(tmp_path), str(tmp_path), "--workload",
                                     "w", "--pairs", "2", "--seconds", "1", "--seed0", "1"])
    assert ab_pairs.main() == 0
    lines = capsys.readouterr().out.splitlines()
    setup = next(i for i, line in enumerate(lines) if line.startswith("setup_s "))
    assert "empty bytecode cache" in lines[setup + 1]
    assert "not comparable with the setup_s of a direct perfbench/run.py run" in lines[setup + 1]
    assert (tmp_path / "BENCH_w.json").exists()
