"""Command-line front end: experiment dispatch plus CSV/JSON emission.

Each field ``foo_bar`` of :class:`CliConfig` is the flag ``--foo-bar`` and the
config-file key ``foo_bar``; flags may come before or after the command, and
every command accepts every flag. Values resolve as hard defaults, then
``DFS_SIM_SEED`` (the seed only), then a ``--config`` key=value file, then
explicit flags. Amplitudes parse as "re,im" or "mag@degrees". Exit codes:
0 success, 1 simulation failure, 2 configuration error (every bad parameter).
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass

from .fock import fidelity_mixed, fidelity_pure
from .noise import NoiseParams, dF_vs_eta, fidelity_vs_T
from .protocol import (
    build_read_setup,
    build_write_setup,
    generate_entanglement,
    ideal_entangled_state,
    photon_present_probability,
    read_memory,
    read_target,
    write_branches,
    write_memory,
)
from .trials import RunConfig, oracle_check, run_remote_trials, run_write_trials, trial_rng

COMMANDS = (
    "entangle",
    "teleport",
    "read",
    "remote-transfer",
    "curves-fig4a",
    "curves-fig4b",
    "bsm-stats",
    "oracle-check",
)

NORMALIZATION_GUARD = 1e-3  # gross inputs are rejected, near-unit ones renormalized
DEFAULT_SEED_ENV = "DFS_SIM_SEED"


class ConfigError(ValueError):
    pass


def parse_amplitude(text: str) -> complex:
    """Parse "re,im", "mag@degrees", or a bare real number."""
    text = text.strip()
    try:
        if "@" in text:
            mag, deg = text.split("@", 1)
            return float(mag) * cmath.exp(1j * math.radians(float(deg)))
        if "," in text:
            re, im = text.split(",", 1)
            return complex(float(re), float(im))
        return complex(float(text), 0.0)
    except ValueError as exc:
        raise ConfigError(f"cannot parse amplitude {text!r}: {exc}") from None


def parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(";") if x.strip())
    except ValueError as exc:
        raise ConfigError(f"cannot parse number list {text!r}: {exc}") from None


@dataclass(frozen=True)
class CliConfig:
    """One CLI invocation, validated on construction: ``RunConfig`` and
    ``NoiseParams`` check the fields :meth:`run_config` hands them, and
    ``__post_init__`` checks the rest."""

    command: str
    pc: float = 0.01
    alpha: complex = complex(1 / math.sqrt(2), 0.0)
    beta: complex = complex(1 / math.sqrt(2), 0.0)
    chi: float = 1.0
    eta_d: float = 1.0
    p_dc: float = 0.0
    l0: float = 0.0
    l_att: float = 1.0
    f_p: float = 10e6
    trials: int = 100000
    seed: int = 12345
    truncation: int = 3
    threads: int = 1
    efficiency: float = 1.0
    eta_prime: float = 1.0 / 3.0
    t_min: float = 5e-6
    t_max: float = 5e-5
    points: int = 100
    t_list: tuple[float, ...] = (20e-6, 30e-6, 40e-6)
    eta_min: float = 0.1
    eta_max: float = 1.0
    output: str = ""
    format: str = ""

    def __post_init__(self):
        self.run_config()
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(f"efficiency={self.efficiency} outside [0, 1]")
        if self.points < 1:
            raise ValueError("points must be >= 1")
        if not 0.0 < self.eta_prime <= 1.0:
            raise ValueError(f"eta_prime={self.eta_prime} outside (0, 1]")
        if self.t_min <= 0 or self.t_max < self.t_min:
            raise ValueError("need 0 < t_min <= t_max")
        if not 0.0 < self.eta_min <= self.eta_max <= 1.0:
            raise ValueError("need 0 < eta_min <= eta_max <= 1")
        if any(t <= 0 for t in self.t_list):
            raise ValueError("t_list entries must be positive")
        if self.resolved_format() not in ("csv", "json"):
            raise ValueError(f"unknown output format {self.format!r}")
        directory = os.path.dirname(self.output_path()) or "."
        if not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
            raise ValueError(f"output directory {directory!r} is missing or not writable")
        total = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if abs(total - 1.0) > NORMALIZATION_GUARD:
            raise ValueError(f"(alpha, beta) not normalized: |a|^2+|b|^2 = {total}")
        if abs(total - 1.0) > 1e-12:
            norm = math.sqrt(total)
            object.__setattr__(self, "alpha", self.alpha / norm)
            object.__setattr__(self, "beta", self.beta / norm)

    def run_config(self) -> RunConfig:
        noise = NoiseParams(chi=self.chi, eta_d=self.eta_d, p_dc=self.p_dc,
                            L0=self.l0, L_att=self.l_att, f_p=self.f_p)
        return RunConfig(
            trial_count=self.trials, master_seed=self.seed, pc=self.pc,
            alpha=self.alpha, beta=self.beta, noise=noise,
            threads=self.threads, truncation=self.truncation,
        )

    def output_path(self) -> str:
        return self.output or f"{self.command}.{self.resolved_format()}"

    def resolved_format(self) -> str:
        if self.format:
            return self.format
        return "csv" if self.command.startswith("curves") else "json"


# the parser of each parameter, keyed by the type of its default
_CODECS = {float: float, int: int, str: str, complex: parse_amplitude, tuple: parse_float_list}
_PARAMS = {
    f.name: _CODECS[type(f.default)] for f in dataclasses.fields(CliConfig)
    if f.name != "command"
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfsmem",
        description="decoherence-free atomic-ensemble quantum memory simulator",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="key=value parameter file")
    for name in _PARAMS:
        parser.add_argument(_flag(name), dest=name)
    return parser


_PARSER = _build_parser()  # built once, at import: a build costs about ten parses


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{line_no}: expected key=value")
                key, value = line.split("=", 1)
                key = key.strip().replace("-", "_")
                if key not in _PARAMS:
                    raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
                values[key] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return values


def parse_config(argv: list[str]) -> CliConfig:
    """Resolve defaults < DFS_SIM_SEED < config file < flags into a validated
    CliConfig; any bad value raises ConfigError."""
    ns = _PARSER.parse_args(argv)
    texts: dict[str, str] = {}
    if DEFAULT_SEED_ENV in os.environ:
        texts["seed"] = os.environ[DEFAULT_SEED_ENV]
    if ns.config:
        texts.update(_load_config_file(ns.config))
    texts.update((k, v) for k, v in vars(ns).items() if k in _PARAMS and v is not None)
    values: dict[str, object] = {}
    for name, text in texts.items():
        try:
            values[name] = _PARAMS[name](text)
        except ValueError as exc:
            raise ConfigError(f"bad value for {name}: {exc}") from None
    try:
        return CliConfig(command=ns.command, **values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _grid(lo: float, hi: float, points: int) -> list[float]:
    """Evenly spaced grid with exact endpoints (no accumulation overshoot)."""
    if points == 1:
        return [lo]
    step = (hi - lo) / (points - 1)
    values = [lo + k * step for k in range(points - 1)]
    values.append(hi)
    return values


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_csv(path: str, header: list[str], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _json_ready(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _json_ready(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_json_ready(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit(cfg: CliConfig, header: list[str], rows: list[tuple], json_obj) -> str:
    path = cfg.output_path()
    if cfg.resolved_format() == "csv":
        _write_csv(path, header, rows)
    else:
        _write_json(path, json_obj)
    return path


def _stats_rows(stats) -> tuple[list[str], list[tuple]]:
    flat = []
    for key, value in dataclasses.asdict(stats).items():
        if isinstance(value, dict):
            for sub, v in sorted(value.items()):
                flat.append((f"{key}[{sub}]", float(v)))
        else:
            flat.append((key, float(value)))
    return ["quantity", "value"], flat


def run(cfg: CliConfig) -> int:
    """Dispatch one command; returns the process exit code."""
    if cfg.command == "entangle":
        setup = build_write_setup(cfg.truncation)
        state, prob = generate_entanglement(cfg.pc, setup)
        fid = fidelity_pure(state, ideal_entangled_state(setup)) if state else 0.0
        payload = {"pc": cfg.pc, "herald_probability": prob, "fidelity_vs_ideal": fid}
        path = _emit(cfg, ["quantity", "value"],
                     [(k, float(v)) for k, v in payload.items()], payload)
        print(f"entangle: herald_probability={prob:.6g} fidelity={fid:.6g} -> {path}")
        return 0

    if cfg.command in ("teleport", "remote-transfer"):
        run_trials = run_write_trials if cfg.command == "teleport" else run_remote_trials
        stats = run_trials(cfg.run_config())
        header, rows = _stats_rows(stats)
        path = _emit(cfg, header, rows, stats)
        print(
            f"{cfg.command}: success_rate={stats.success_rate:.6g} "
            f"F={stats.mean_conditional_fidelity:.6g} "
            f"T={stats.empirical_T_seconds:.6g}s -> {path}"
        )
        return 0 if stats.success_count else 1

    if cfg.command == "read":
        record = write_memory(cfg.alpha, cfg.beta, cfg.pc, trial_rng(cfg.seed, 0),
                              build_write_setup(cfg.truncation))
        photon = read_memory(record, cfg.efficiency)
        setup = build_read_setup(cfg.truncation)
        target = read_target(cfg.alpha, cfg.beta, setup)
        fid = fidelity_mixed(photon, target)
        present = photon_present_probability(photon, [setup.out_h, setup.out_v])
        payload = {
            "outcome": record.outcome.value,
            "mark": record.mark.value,
            "rounds_until_herald": record.rounds_until_herald,
            "efficiency": cfg.efficiency,
            "roundtrip_fidelity": fid,
            "photon_present_probability": present,
        }
        rows = [(k, float(v) if not isinstance(v, str) else v) for k, v in payload.items()]
        path = _emit(cfg, ["quantity", "value"], rows, payload)
        print(
            f"read: outcome={record.outcome.value} roundtrip_fidelity={fid:.6g} "
            f"photon_present={present:.6g} -> {path}"
        )
        return 0

    if cfg.command == "curves-fig4a":
        curve = fidelity_vs_T(cfg.eta_prime, cfg.f_p, _grid(cfg.t_min, cfg.t_max, cfg.points))
        path = _emit(cfg, ["T_seconds", "F"], curve,
                     [{"T_seconds": t, "F": f} for t, f in curve])
        print(f"curves-fig4a: {len(curve)} points, eta_prime={cfg.eta_prime:.6g} -> {path}")
        return 0

    if cfg.command == "curves-fig4b":
        grid = _grid(cfg.eta_min, cfg.eta_max, cfg.points)
        rows: list[tuple] = []
        for T in cfg.t_list:
            rows += [(eta, dF, T) for eta, dF in dF_vs_eta(T, cfg.f_p, grid)]
        path = _emit(cfg, ["eta_prime", "delta_F", "T_seconds"], rows,
                     [{"eta_prime": e, "delta_F": d, "T_seconds": t} for e, d, t in rows])
        print(f"curves-fig4b: {len(rows)} points over {len(cfg.t_list)} curves -> {path}")
        return 0

    if cfg.command == "bsm-stats":
        branches = write_branches(cfg.alpha, cfg.beta, cfg.pc,
                                  build_write_setup(cfg.truncation))
        payload = {
            "outcome_probabilities": {o.value: b.probability for o, b in branches.items()},
            "marks": {o.value: b.mark.value for o, b in branches.items()},
        }
        rows = [(name, float(p)) for name, p in payload["outcome_probabilities"].items()]
        path = _emit(cfg, ["outcome", "probability"], rows, payload)
        total = sum(payload["outcome_probabilities"].values())
        print(f"bsm-stats: four outcomes, total heralded weight={total:.6g} -> {path}")
        return 0

    if cfg.command == "oracle-check":
        report = oracle_check(cfg.run_config())
        path = _emit(
            cfg,
            ["name", "empirical", "exact", "sigma_distance", "flagged"],
            [(e.name, e.empirical, e.exact, e.sigma_distance, int(e.flagged))
             for e in report.entries],
            report,
        )
        worst = max((e.sigma_distance for e in report.entries), default=0.0)
        verdict = "PASS" if report.passed else "FAIL"
        print(f"oracle-check: {verdict} max_sigma={worst:.3g} -> {path}")
        return 0 if report.passed else 1

    raise ConfigError(f"unknown command {cfg.command!r}")


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else argv)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help (0) or argparse rejection (2)
        return int(exc.code or 0)
    try:
        return run(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # simulation-level failure
        print(f"simulation error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
