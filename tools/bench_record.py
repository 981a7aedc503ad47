"""Run the benchmark on this checkout and on a parent commit in alternating
pairs, and record both sides in one JSON file.

Usage: python tools/bench_record.py --parent REV --out BENCH_<n>.json
           [--pairs K] [--seed S]

For each workload of BENCHMARK.json, pair j runs
``bench/run.py --workload W --seed S+j --trace 0`` once on each side, at the
benchmark's own run length, the change first in even pairs and the parent
first in odd ones. The change is this checkout's HEAD: the tool refuses to
run while src/ or bench/ differ from it, so the record names the code it
measured. The parent is the committed tree of REV, extracted with
``git archive`` into a temporary directory (set TMPDIR to choose where).
Each run's last stdout line (the result object) and its ``report`` line are
kept; nothing under bench/ is edited.

The file holds both commits, each side's ``wc -l src/dfsmem/*.py``, each
side's machine and code facts from its first report line, and per workload:
every run's seed, order, ``correct``, ``attempted`` and ``failed``; each
side's failed share (failed over attempted, all runs); and per end-to-end
metric each side's runs, median and quartiles, the pairs the change wins
(ties count for neither side), the parent's quartile spread relative to its
median, and a verdict:

- ``gain``: the change wins at least nine tenths of the pairs, its median
  beats the parent's by more than the distance between the parent's
  quartiles, and it fails no larger share of its operations than the parent;
- ``regressed``: the change's median is worse than the parent's by more than
  the metric's bound;
- ``unresolved``: neither, while the parent's quartile spread exceeds the
  bound and not every change run beats every parent run;
- ``within bound`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_run(stdout: str) -> dict:
    """The result object (last line) and the report of one bench/run.py run."""
    lines = stdout.strip().splitlines()
    reports = [line for line in lines if line.startswith("report ")]
    if not lines or not reports:
        raise ValueError("no result or report line in the benchmark output")
    return {"result": json.loads(lines[-1]),
            "report": json.loads(reports[-1].removeprefix("report "))}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def verdict(parent: dict, change: dict, wins: int, pairs: int, lower: bool,
            bound: float, fails_more: bool) -> str:
    sign = -1.0 if lower else 1.0  # positive: the change is better
    gain = sign * (change["median"] - parent["median"])
    spread = parent["q3"] - parent["q1"]
    if wins >= 0.9 * pairs and gain > spread and not fails_more:
        return "gain"
    if -gain > bound * abs(parent["median"]):
        return "regressed"
    all_better = min(sign * c for c in change["runs"]) > max(sign * p for p in parent["runs"])
    if spread > bound * abs(parent["median"]) and not all_better:
        return "unresolved"
    return "within bound"


def aggregate(pairs: list[dict]) -> dict:
    """One workload's summary from its pairs, each ``{"seed", "first",
    "parent", "change"}`` with both sides as :func:`parse_run` gives them."""
    out = {"runs": [], "metrics": {}}
    for p in pairs:
        out["runs"].append({
            "seed": p["seed"], "first": p["first"],
            **{side: {k: p[side]["result"][k] for k in ("correct", "attempted", "failed")}
               for side in ("parent", "change")}})
    out["failed_share"] = {
        side: sum(r[side]["failed"] for r in out["runs"])
        / max(1, sum(r[side]["attempted"] for r in out["runs"]))
        for side in ("parent", "change")}
    fails_more = out["failed_share"]["change"] > out["failed_share"]["parent"]
    for spec in SPEC["end_to_end"]:
        name, lower = spec["name"], spec["better"] == "lower"
        runs = {side: [p[side]["result"]["metrics"][name]["value"] for p in pairs]
                for side in ("parent", "change")}
        wins = sum((c < q) if lower else (c > q) for q, c in zip(runs["parent"], runs["change"]))
        sides = {side: quartiles(values) for side, values in runs.items()}
        median = sides["parent"]["median"]
        out["metrics"][name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            **sides,
            "change_wins": wins,
            "pairs": len(pairs),
            "parent_spread": (sides["parent"]["q3"] - sides["parent"]["q1"]) / median
            if median else None,
            "verdict": verdict(sides["parent"], sides["change"], wins, len(pairs), lower,
                               spec["bound"], fails_more),
        }
    return out


def line_counts(checkout: Path) -> dict[str, int]:
    counts = {p.name: p.read_bytes().count(b"\n")
              for p in sorted((checkout / "src" / "dfsmem").glob("*.py"))}
    return {**counts, "total": sum(counts.values())}


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def run_bench(checkout: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return parse_run(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="commit to compare against")
    ap.add_argument("--out", required=True, type=Path, help="JSON file to write")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = ap.parse_args(argv)
    if git("status", "--porcelain", "--", "src", "bench"):
        ap.error("src/ or bench/ differ from HEAD: commit the change to be measured")
    record = {
        "commits": {"parent": git("rev-parse", f"{args.parent}^{{commit}}"),
                    "change": git("rev-parse", "HEAD")},
        "pairs": args.pairs,
        "seconds": SPEC["run_seconds"],
    }
    with tempfile.TemporaryDirectory() as tmp:
        parent_dir = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar",
                                  record["commits"]["parent"]], check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_dir)], input=archive, check=True)
        checkouts = {"parent": parent_dir, "change": ROOT}
        record["src_lines"] = {side: line_counts(path) for side, path in checkouts.items()}
        record["workloads"], record["facts"] = {}, {}
        for workload in (w["name"] for w in SPEC["workloads"]):
            pairs = []
            for j in range(args.pairs):
                seed = args.seed + j
                order = ("change", "parent") if j % 2 == 0 else ("parent", "change")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_bench(checkouts[side], workload, seed)
                    record["facts"].setdefault(side, pair[side]["report"]["facts"])
                    tail = pair[side]["result"]["metrics"]["latency_ms_tail"]["value"]
                    print(f"{workload} pair {j} seed {seed} {side}: "
                          f"latency_ms_tail {tail:.4g} ms", file=sys.stderr)
                pairs.append(pair)
                # rewritten after every pair, so a cut run keeps what it measured
                record["workloads"][workload] = aggregate(pairs)
                args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
