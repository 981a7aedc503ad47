"""The benchmark's single closed-loop client: runs one request against the
public entry points and returns its wall time and parsed output.

CLI kinds go through ``dfsmem.cli.main(argv)`` with the output file in the
client's work directory; ``records`` calls ``trials.run_write_trials`` with a
records CSV and ``fidelity`` calls ``noise.end_to_end_fidelity``. Functions
are looked up on their modules at call time, so traced wrappers installed
there are the ones called.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import Request


@dataclass
class Outcome:
    code: int                 # CLI exit code; 0 or 1 for API calls
    payload: object = None    # parsed output; None when unparsable
    records: list | None = None  # parsed records CSV rows (records kind)
    output_bytes: int = 0     # result file(s) plus printed text
    error: str = ""


def _render(value: object) -> str:
    if isinstance(value, complex):
        return f"{value.real!r},{value.imag!r}"
    return value if isinstance(value, str) else repr(value)


def cli_argv(req: Request, output: str) -> list[str]:
    argv = [req.kind, "--output", output]
    for name, value in req.params:
        # "--flag=value": argparse would take a leading minus for a flag
        argv.append(f"--{name.replace('_', '-')}={_render(value)}")
    return argv


def noise_params(m, p: dict):
    """The request's ``NoiseParams``; ideal detection where it sets none."""
    return m.noise.NoiseParams(
        pc=p["pc"], chi=p.get("chi", 1.0), eta_d=p.get("eta_d", 1.0), p_dc=p.get("p_dc", 0.0),
    )


def run_config(m, p: dict, trial_count: int, records_csv: str | None = None):
    """The ``RunConfig`` of a sampling request, at ``trial_count`` trials."""
    return m.trials.RunConfig(
        trial_count=trial_count, master_seed=p.get("seed", 0), pc=p["pc"],
        alpha=p["alpha"], beta=p["beta"], noise=noise_params(m, p),
        truncation=p["truncation"], records_csv=records_csv,
    )


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class Client:
    """Executes requests; every output lands in ``workdir``."""

    def __init__(self, dfsmem_modules, workdir: Path):
        self.m = dfsmem_modules  # namespace with cli, trials, noise modules
        self.workdir = workdir

    def output_path(self, req: Request) -> Path:
        ext = "csv" if req.kind.startswith("curves") or req.kind == "records" else "json"
        return self.workdir / f"{req.kind}.{ext}"

    def execute(self, req: Request) -> tuple[float, Outcome]:
        path = self.output_path(req)
        with contextlib.suppress(FileNotFoundError):
            path.unlink()
        if req.kind == "records":
            return self._records(req, path)
        if req.kind == "fidelity":
            return self._fidelity(req)
        argv = cli_argv(req, str(path))
        printed = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(printed):
            code = self.m.cli.main(argv)
        latency = time.perf_counter() - t0
        out = Outcome(code, output_bytes=len(printed.getvalue()))
        try:
            out.output_bytes += os.path.getsize(path)
            if path.suffix == ".json":
                with open(path, encoding="utf-8") as fh:
                    out.payload = json.load(fh)
            else:
                out.payload = [[float(x) for x in row] for row in _read_csv(path)[1:]]
        except (OSError, ValueError) as exc:
            out.error = f"unparsable output: {exc}"
        return latency, out

    def _records(self, req: Request, path: Path) -> tuple[float, Outcome]:
        p = req.p
        t0 = time.perf_counter()
        try:
            cfg = run_config(self.m, p, p["trials"], str(path))
            stats = self.m.trials.run_write_trials(cfg)
        except Exception as exc:  # a failed request is recorded, not fatal
            return time.perf_counter() - t0, Outcome(1, error=f"{type(exc).__name__}: {exc}")
        latency = time.perf_counter() - t0
        out = Outcome(0 if stats.success_count else 1, dataclasses.asdict(stats))
        try:
            out.output_bytes = os.path.getsize(path)
            out.records = _read_csv(path)
        except OSError as exc:
            out.error = f"records CSV missing: {exc}"
        return latency, out

    def _fidelity(self, req: Request) -> tuple[float, Outcome]:
        p = req.p
        t0 = time.perf_counter()
        try:
            report = self.m.noise.end_to_end_fidelity(
                p["pc"], noise_params(self.m, p), p["alpha"], p["beta"]
            )
        except Exception as exc:  # a failed request is recorded, not fatal
            return time.perf_counter() - t0, Outcome(1, error=f"{type(exc).__name__}: {exc}")
        return time.perf_counter() - t0, Outcome(0, dataclasses.asdict(report))
