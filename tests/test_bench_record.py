import json
import runpy
from pathlib import Path

import pytest

TOOL = runpy.run_path(str(Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"))
METRICS = [m["name"] for m in TOOL["SPEC"]["end_to_end"]]


def _stdout(values: dict, failed: int = 0) -> str:
    """Canned bench/run.py output: metric lines, the report line, the result."""
    report = {"facts": {"nproc": 2, "src_lines": 2683}, "failed_fraction": failed / 100}
    result = {"correct": not failed, "attempted": 100, "failed": failed,
              "metrics": {n: {"value": values.get(n, 10.0), "unit": "u"} for n in METRICS}}
    return ("setup_s 0.2 s\nreport " + json.dumps(report) + "\n" + json.dumps(result) + "\n")


def _pairs(parent: list[dict], change: list[dict], parent_failed: int = -1,
           change_failed: int = -1) -> list[dict]:
    """Canned pairs; the pair numbered ``*_failed`` has one failed request."""
    return [{"seed": 7 + j, "first": ("change", "parent")[j % 2],
             "parent": TOOL["parse_run"](_stdout(p, failed=j == parent_failed)),
             "change": TOOL["parse_run"](_stdout(c, failed=j == change_failed))}
            for j, (p, c) in enumerate(zip(parent, change))]


def _tail_gain_runs() -> tuple[list[dict], list[dict]]:
    tails = [16.0, 17.0, 15.0, 16.5, 18.0, 15.5, 16.0, 17.5, 16.0, 15.0]
    parent = [{"latency_ms_tail": t, "requests_per_s": 100.0,
               "latency_ms_p50": (5.0, 9.0)[j % 2]} for j, t in enumerate(tails)]
    change = [{"latency_ms_tail": t - 3.0, "requests_per_s": 70.0, "latency_ms_p50": 7.0}
              for t in tails]
    change[4]["latency_ms_tail"] = 19.0  # the parent wins one pair
    return parent, change


def test_aggregate_reads_canned_runs():
    parent, change = _tail_gain_runs()
    out = TOOL["aggregate"](_pairs(parent, change, change_failed=3))
    json.dumps(out)  # the record is plain JSON
    assert set(out["metrics"]) == set(METRICS)
    tail = out["metrics"]["latency_ms_tail"]
    assert tail["change_wins"] == 9 and tail["pairs"] == 10
    assert tail["parent"]["median"] == 16.0
    assert tail["parent"]["runs"] == [p["latency_ms_tail"] for p in parent]
    assert (tail["parent"]["q1"], tail["parent"]["q3"]) == (15.625, 16.875)
    # faster, but the change failed one request the parent did not: no gain
    assert out["failed_share"] == {"parent": 0.0, "change": 1 / 1000}
    assert tail["verdict"] == "within bound"
    assert out["metrics"]["requests_per_s"]["verdict"] == "regressed"
    # parent p50 alternates 5 and 9 ms: quartiles 4 ms apart, 4/7 of its median
    assert out["metrics"]["latency_ms_p50"]["parent_spread"] == pytest.approx(4.0 / 7.0)
    assert out["metrics"]["latency_ms_p50"]["verdict"] == "unresolved"
    assert out["metrics"]["setup_s"]["change_wins"] == 0  # ties count for neither
    assert out["metrics"]["setup_s"]["verdict"] == "within bound"
    assert [r["change"]["failed"] for r in out["runs"]] == [0, 0, 0, 1, 0, 0, 0, 0, 0, 0]
    assert out["runs"][3]["change"]["correct"] is False
    assert [r["first"] for r in out["runs"][:2]] == ["change", "parent"]


def test_a_gain_stands_when_the_change_fails_no_more_often():
    parent, change = _tail_gain_runs()
    for parent_failed in (-1, 3, 8):  # none on either side, or one on each
        change_failed = -1 if parent_failed < 0 else 3
        out = TOOL["aggregate"](_pairs(parent, change, parent_failed, change_failed))
        assert out["failed_share"]["change"] == out["failed_share"]["parent"]
        assert out["metrics"]["latency_ms_tail"]["verdict"] == "gain"


def test_the_tool_refuses_uncommitted_source(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(TOOL["main"].__globals__, "git", lambda *args: " M src/dfsmem/trials.py")
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit):
        TOOL["main"](["--parent", "HEAD", "--out", str(out)])
    assert "commit the change" in capsys.readouterr().err and not out.exists()


def test_a_gain_needs_nine_tenths_of_the_pairs():
    parent = [{"latency_ms_tail": 16.0 + j % 2} for j in range(10)]
    change = [{"latency_ms_tail": 12.0 if j < 8 else 20.0} for j in range(10)]
    tail = TOOL["aggregate"](_pairs(parent, change))["metrics"]["latency_ms_tail"]
    assert tail["change_wins"] == 8 and tail["verdict"] != "gain"


def test_parse_run_needs_the_report_and_result_lines():
    with pytest.raises(ValueError, match="no result or report line"):
        TOOL["parse_run"]('{"correct": true}\n')
    run = TOOL["parse_run"](_stdout({}))
    assert run["report"]["facts"]["nproc"] == 2 and run["result"]["attempted"] == 100
