"""Tests of the benchmark itself: python -m pytest bench"""

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from checks import Checker  # noqa: E402
from client import Client  # noqa: E402
from tracing import Tracer, layer_metrics, write_spans  # noqa: E402
from workloads import WORKLOADS, first_requests, warmup  # noqa: E402

M = run.load_program()


@pytest.fixture
def client(tmp_path):
    return Client(M, tmp_path)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_requests(workload):
    a = first_requests(workload, 7, 40)
    assert a == first_requests(workload, 7, 40)
    assert a != first_requests(workload, 8, 40)
    assert [r.kind for r in a] == [r.kind for r in first_requests(workload, 8, 40)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_passes_checks(workload, client):
    # every kind of the workload, at 200 trials per sampling request
    requests = warmup(workload) + first_requests(workload, 3, 16, trials=200)
    checker = Checker(M)
    results = run.run_loop(client, checker, requests, None)
    assert {r.kind for r in results} >= {r.kind for r in first_requests(workload, 3, 16)}
    failures = {r.kind: r.failures for r in results if r.failures}
    assert not failures
    zs, pooled = checker.pooled_failures()
    assert zs and not pooled
    assert all(checker.negative_control().values())


def test_negative_control_fails(client):
    checker = Checker(M)
    for req in warmup("exact-mix"):
        _, out = client.execute(req)
        assert not checker.judge(req, out).failures(), req.kind
        verdict = checker.judge(req, out)
        verdict.comparisons = [c.perturbed() for c in verdict.comparisons]
        assert verdict.comparisons and all(not c.ok for c in verdict.comparisons), req.kind


def test_wrong_output_is_flagged(client):
    checker = Checker(M)
    by_kind = {r.kind: r for r in warmup("exact-mix")}
    _, out = client.execute(by_kind["entangle"])
    out.payload["herald_probability"] *= 1.001
    assert checker.judge(by_kind["entangle"], out).failures()
    _, out = client.execute(by_kind["teleport"])
    out.payload["outcome_frequencies"] = {k: 0.25 for k in out.payload["outcome_frequencies"]}
    out.payload["outcome_frequencies"]["PsiPlus"] = 0.9
    assert checker.judge(by_kind["teleport"], out).failures()
    _, out = client.execute(by_kind["oracle-check"])
    out.code = 2
    assert checker.judge(by_kind["oracle-check"], out).failures()


def test_pooled_bias_is_flagged(client):
    checker = Checker(M)
    req = next(r for r in warmup("exact-mix") if r.kind == "teleport")
    _, out = client.execute(req)
    verdict = checker.judge(req, out)
    c = next(c for c in verdict.comparisons if c.family == "write.outcome[PsiPlus]")
    # a bias of 1.5 sigma per request passes alone but not pooled over 20
    for i in range(20):
        checker._pooled[c.family].append((i, 1.5 * c.sigma, c.sigma))
    _, failed = checker.pooled_failures()
    assert failed == set(range(20))


def test_tracer_wraps_every_namespace_and_restores(client):
    originals = {
        "trials.trial_rng": M.trials.trial_rng,
        "cli.trial_rng": M.cli.trial_rng,
        "trials.joint_emission_state": M.trials.joint_emission_state,
        "protocol.build_write_setup": M.protocol.build_write_setup,
        "package.end_to_end_fidelity": M.package.end_to_end_fidelity,
    }
    tracer = Tracer()
    assert tracer.install(M.package) > 50
    try:
        assert M.trials.trial_rng is not originals["trials.trial_rng"]
        assert M.cli.trial_rng is M.trials.trial_rng
        assert M.trials.joint_emission_state is M.protocol.joint_emission_state
        req = next(r for r in warmup("exact-mix") if r.kind == "teleport")
        root = tracer.begin("request.teleport")
        client.execute(req)
        tracer.end(root)
        spans = tracer.take()
    finally:
        tracer.restore()
    assert M.trials.trial_rng is originals["trials.trial_rng"]
    assert M.cli.trial_rng is originals["cli.trial_rng"]
    assert M.trials.joint_emission_state is originals["trials.joint_emission_state"]
    assert M.protocol.build_write_setup is originals["protocol.build_write_setup"]
    assert M.package.end_to_end_fidelity is originals["package.end_to_end_fidelity"]

    names = {s[0] for s in spans}
    assert {"cli.main", "cli.parse_config", "trials.run_write_trials", "trials.trial_rng",
            "protocol.joint_emission_state", "fock.apply_unitary", "optics.pbs"} <= names
    m = layer_metrics(spans, [], 1)
    assert m["trials.trials"] == req.trials == m["trials.trial_rng.calls"]
    assert m["fock.lift.pbs.calls"] > 0 and m["cli.parse_s"] > 0
    root_span = spans[0]
    assert root_span[3] == -1 and all(s[1] >= root_span[1] and s[2] <= root_span[2]
                                      for s in spans)
    self_total = sum(m[f"{mod}.self_s"] for mod in ("trials", "fock", "protocol")
                     if f"{mod}.self_s" in m)
    assert 0 < self_total + m["trials.trial_rng.s"] <= root_span[2] - root_span[1]


def test_self_time_from_containment():
    spans = [
        ("request.x", 0.0, 10.0, -1, None),
        ("protocol.write_branches", 1.0, 9.0, 0, None),
        ("fock.apply_unitary", 2.0, 5.0, 1, ("pbs", 4, 8)),
        ("fock.fidelity_mixed", 6.0, 8.0, 1, None),
        ("fock.fidelity_pure", 6.5, 7.5, 3, None),
    ]
    m = layer_metrics(spans, [], 1)
    assert m["protocol.self_s"] == pytest.approx(3.0)
    assert m["fock.self_s"] == pytest.approx(5.0)
    assert m["fock.fidelity.s"] == pytest.approx(2.0)  # nested fidelity counted once
    assert m["fock.lift.pbs.s"] == pytest.approx(3.0)
    assert m["fock.amplitudes_per_s"] == pytest.approx(4 / 3)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_main_prints_the_contract(trace, capsys):
    assert run.main(["--workload", "exact-mix", "--seed", "5", "--seconds", "0.2",
                     "--trace", trace]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2].removeprefix("report "))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert report["workload"] == "exact-mix" and report["facts"]["src_lines"] > 0
    if trace == "0":
        assert report["failed_fraction"] == 0.0 and report["latency_samples"] >= 11
        assert {"shared_pc_truncation_share", "repeated_config_share", "trials_per_request",
                "sampling_time_share", "event_table_size_mean"} <= set(report["descriptors"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = set(result["metrics"])
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in spec["end_to_end" if trace == "0" else "per_layer"]}
    assert names == wanted
    for metric in spec["end_to_end" if trace == "0" else "per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_fails_without_the_program(tmp_path):
    bench = tmp_path / "bench"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__", ".work-*", "out"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-heavy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout



def test_span_file_keeps_parents(tmp_path):
    first = [("request.a", 0.0, 2.0, -1, None), ("fock.inner", 0.5, 1.0, 0, None)]
    second = [("request.b", 3.0, 5.0, -1, None), ("fock.inner", 3.5, 4.0, 0, None)]
    write_spans(tmp_path / "s.csv.gz", first, second)
    with gzip.open(tmp_path / "s.csv.gz", "rt") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    assert [(r[0], r[1]) for r in rows] == [("0", "-1"), ("1", "0"), ("2", "-1"), ("3", "2")]
