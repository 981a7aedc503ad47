"""dfsmem benchmark: one closed-loop client, one process, ``threads=1``.

    python3 bench/run.py --workload {mc-heavy,exact-mix} --seed N --seconds S --trace {0,1}

Run from anywhere; the program is imported from ``src/`` beside this
directory, never from an installed copy. With ``--trace 0`` the run prints
the end-to-end metrics; with ``--trace 1`` it runs each request twice, untraced
and traced, and prints the per-layer metrics. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give every metric by name
with its unit, the workload descriptors and the machine and code facts.
See ``bench/README.md`` for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import POOLED_SIGMAS, Checker  # noqa: E402
from client import Client, Outcome, run_config  # noqa: E402
from workloads import (  # noqa: E402
    SAMPLING_KINDS, WORKLOADS, Request, config_keys, first_requests, stream, warmup,
)

SETUP_REPEATS = 5      # cold starts per run; setup_s is their median
MIN_REQUESTS = 24      # a run goes past --seconds until it has this many
TAIL_BEYOND = 10       # samples the tail percentile must leave beyond it
TABLE_SAMPLE = 32      # sampling requests whose event-table size is measured
PROBE_TIMEOUT_S = 120

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class Result(NamedTuple):
    """What a run keeps of a request. Outputs are dropped once checked, so
    the benchmark's own memory does not grow with the run."""

    index: int
    kind: str
    latency: float
    trials: int
    output_bytes: int
    failures: tuple[str, ...]

    @classmethod
    def of(cls, req: Request, latency: float, out: Outcome, verdict) -> "Result":
        return cls(req.index, req.kind, latency, req.trials, out.output_bytes,
                   tuple(verdict.failures()))


def load_program() -> SimpleNamespace:
    """Import dfsmem from this checkout's ``src/``; ImportError otherwise."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import dfsmem
    from dfsmem import cli, fock, noise, protocol, trials

    if not Path(dfsmem.__file__).resolve().is_relative_to(src):
        raise ImportError(f"dfsmem imported from {dfsmem.__file__}, not from {src}")
    return SimpleNamespace(package=dfsmem, cli=cli, fock=fock, noise=noise,
                           protocol=protocol, trials=trials)


def make_workdir() -> Path:
    path = HERE / f".work-{os.getpid()}"
    path.mkdir(exist_ok=True)
    return path


def execute(client: Client, req: Request, tracer=None) -> tuple[float, Outcome]:
    """Run one request, inside a root span when ``tracer`` is given."""
    if tracer is None:
        return client.execute(req)
    root = tracer.begin("request." + req.kind)
    try:
        return client.execute(req)
    finally:
        tracer.end(root)


def run_loop(client: Client, checker: Checker, requests, seconds: float | None,
             tracer=None) -> list[Result]:
    """Closed loop: each request starts when the previous one and its check
    are done. Stops once ``seconds`` have passed and ``MIN_REQUESTS`` ran;
    with ``seconds=None`` runs every request given."""
    results = []
    start = time.perf_counter()
    for req in requests:
        if (seconds is not None and len(results) >= MIN_REQUESTS
                and time.perf_counter() - start >= seconds):
            break
        latency, out = execute(client, req, tracer)
        results.append(Result.of(req, latency, out, checker.check(req, out)))
    return results


def failed_indices(results: list[Result], checker: Checker) -> tuple[set[int], dict]:
    zs, pooled = checker.pooled_failures()
    failed = {r.index for r in results if r.failures} | pooled
    for r in results:
        for problem in r.failures[:3]:
            print(f"FAILED request {r.index} {r.kind}: {problem}", file=sys.stderr)
    for family, z in zs.items():
        if abs(z) > POOLED_SIGMAS:
            print(f"FAILED pooled {family}: z = {z:.2f}", file=sys.stderr)
    return failed, zs


def warmup_failures(results: list[Result]) -> list[str]:
    return [f"{r.kind}: {p}" for r in results for p in r.failures]


# -- set-up -----------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> None:
    """Fresh interpreter: import dfsmem and run the workload's first request."""
    req = first_requests(workload, seed, 1)[0]
    workdir = make_workdir()
    try:
        t0 = time.perf_counter()
        client = Client(load_program(), workdir)
        _, out = client.execute(req)
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed, "code": out.code}))


def measure_setup(workload: str, seed: int) -> list[float]:
    values = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        values.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return values


# -- descriptors and facts ------------------------------------------------------


def event_table_sizes(m, requests: list[Request]) -> list[int]:
    """Exact event-table size of the first sampling requests (descriptor
    only; uses the private table builders and is skipped if they are gone)."""
    build = {"remote-transfer": getattr(m.trials, "_remote_event_table", None)}
    for kind in ("teleport", "oracle-check", "records"):
        build[kind] = getattr(m.trials, "_write_event_table", None)
    sizes = []
    for req in requests:
        if len(sizes) == TABLE_SAMPLE:
            break
        fn = build.get(req.kind)
        if fn is not None:
            sizes.append(len(fn(run_config(m, req.p, 1)).probabilities))
    return sizes


def descriptors(m, results: list[Result], requests: list[Request]) -> dict:
    seen_shared, seen_full = set(), set()
    shared_hits = shared_total = full_hits = 0
    for req in requests:
        shared, full = config_keys(req)
        if shared is not None:
            shared_total += 1
            shared_hits += shared in seen_shared
            seen_shared.add(shared)
        full_hits += full in seen_full
        seen_full.add(full)
    wall = sum(r.latency for r in results)
    sampling = sum(r.latency for r in results if r.kind in SAMPLING_KINDS)
    sizes = event_table_sizes(m, requests)
    return {
        "requests": len(results),
        "requests_by_kind": dict(Counter(r.kind for r in results)),
        "shared_pc_truncation_share": shared_hits / shared_total if shared_total else 0.0,
        "repeated_config_share": full_hits / len(results),
        "trials_per_request": sum(r.trials for r in results) / len(results),
        "sampling_time_share": sampling / wall,
        "event_table_size_mean": statistics.fmean(sizes) if sizes else None,
        "event_table_size_sampled": len(sizes),
    }


def facts(m) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "dfsmem": m.package.__version__,
        "src_lines": src_lines,
    }


# -- the two kinds of run ---------------------------------------------------------


def untraced_run(m, client: Client, args) -> tuple[dict, list[Result], set[int], dict]:
    setup_values = measure_setup(args.workload, args.seed)
    warm = run_loop(client, Checker(m), warmup(args.workload), None)
    checker = Checker(m)
    results = run_loop(client, checker, stream(args.workload, args.seed), args.seconds)
    failed, zs = failed_indices(results, checker)

    lat = sorted(r.latency for r in results)
    n = len(lat)
    sampling = [r for r in results if r.kind in SAMPLING_KINDS]
    metrics = {
        "setup_s": statistics.median(setup_values),
        "requests_per_s": n / sum(lat),
        "latency_ms_p50": 1e3 * statistics.median(lat),
        "latency_ms_tail": 1e3 * lat[n - TAIL_BEYOND - 1],
        "trials_per_s": (sum(r.trials for r in sampling)
                         / sum(r.latency for r in sampling)) if sampling else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report = {
        "setup_s_samples": setup_values,
        "latency_tail_percentile": 100.0 * (n - TAIL_BEYOND) / n,
        "latency_samples": n,
        "failed_fraction": len(failed) / n,
        "oracle_alarms": checker.oracle_alarms,
        "pooled_z": zs,
        "negative_control": checker.negative_control(),
        # the stream is deterministic, so the requests are made again here
        "descriptors": descriptors(m, results, first_requests(args.workload, args.seed, n)),
        "warmup_failures": warmup_failures(warm),
    }
    print(f"setup_s          {metrics['setup_s']:.6g} s   "
          f"(median of {SETUP_REPEATS} cold starts: import + first request)")
    print(f"requests_per_s   {metrics['requests_per_s']:.6g} 1/s")
    print(f"latency_ms_p50   {metrics['latency_ms_p50']:.6g} ms")
    print(f"latency_ms_tail  {metrics['latency_ms_tail']:.6g} ms  "
          f"(p{report['latency_tail_percentile']:.2f}: {TAIL_BEYOND} of {n} samples beyond)")
    print(f"trials_per_s     {metrics['trials_per_s']:.6g} 1/s")
    print(f"peak_rss_mb      {metrics['peak_rss_mb']:.6g} MB")
    print(f"failed_fraction  {report['failed_fraction']:.6g}   ({len(failed)} of {n} requests)")
    return metrics, results, failed, report


def traced_run(m, client: Client, args) -> tuple[dict, list[Result], set[int], dict]:
    """Each request runs twice back to back, untraced and traced, in
    alternating order, so both copies see the same machine state and the
    overhead is measured pairwise."""
    from tracing import Tracer, layer_metrics, write_spans

    tracer = Tracer()
    checker = Checker(m)
    traced: list[Result] = []
    plain_latency: list[float] = []
    mismatched: set[int] = set()
    tracer.install(m.package)
    try:
        warm = run_loop(client, Checker(m), warmup(args.workload), None, tracer)
        setup_spans = tracer.take()
        start = time.perf_counter()
        for req in stream(args.workload, args.seed):
            if len(traced) >= MIN_REQUESTS and time.perf_counter() - start >= args.seconds:
                break
            first_traced = req.index % 2 == 1
            first = execute(client, req, tracer if first_traced else None)
            second = execute(client, req, None if first_traced else tracer)
            (lat_t, out_t), (lat_u, out_u) = (first, second) if first_traced else (second, first)
            plain_latency.append(lat_u)
            traced.append(Result.of(req, lat_t, out_t, checker.check(req, out_t)))
            if (out_u.code, out_u.payload, out_u.records) != (out_t.code, out_t.payload, out_t.records):
                print(f"FAILED request {req.index}: traced output differs", file=sys.stderr)
                mismatched.add(req.index)
        spans = tracer.take()
    finally:
        tracer.restore()
    failed, _ = failed_indices(traced, checker)
    failed |= mismatched

    wall_t = sum(r.latency for r in traced)
    metrics = layer_metrics(spans, setup_spans, len(traced))
    metrics["cli.output_bytes"] = sum(r.output_bytes for r in traced)
    metrics["trace.overhead_frac"] = wall_t / sum(plain_latency) - 1.0
    metrics["trace.wall_s"] = wall_t
    metrics["share.sampling_layers"] = (
        metrics["trials.self_s"] + metrics["trials.trial_rng.s"]) / wall_t
    metrics["share.exact_layers"] = (
        metrics["cli.parse_s"] + metrics["fock.self_s"] + metrics["protocol.self_s"]) / wall_t

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    write_spans(spans_path, setup_spans, spans)
    report = {
        "spans": len(spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "failed_fraction": len(failed) / len(traced),
        "negative_control": checker.negative_control(),
        "warmup_failures": warmup_failures(warm),
    }
    for name, value in metrics.items():
        print(f"{name:40s} {value:.6g}")
    return metrics, traced, failed, report


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    os.environ.pop("DFS_SIM_SEED", None)  # every input comes from --seed

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    try:
        m = load_program()
    except ImportError as exc:
        print(f"cannot import dfsmem from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    workdir = make_workdir()
    try:
        client = Client(m, workdir)
        run = traced_run if args.trace else untraced_run
        metrics, results, failed, report = run(m, client, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    negative_ok = all(report["negative_control"].values())
    if not negative_ok:
        print(f"negative control not flagged: {report['negative_control']}", file=sys.stderr)
    report.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, facts=facts(m))
    print("report " + json.dumps(report, sort_keys=True, default=str))
    units = {x["name"]: x["unit"] for x in SPEC["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(units) ^ set(metrics)}")
    print(json.dumps({
        "correct": not failed and negative_ok and not report["warmup_failures"],
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
