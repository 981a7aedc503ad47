"""Command-line front end: experiment dispatch plus CSV/JSON emission.

Each field ``foo_bar`` of :class:`CliConfig` is the flag ``--foo-bar``, spelled
in full, and the config-file key ``foo_bar``; flags may come before or after
the command, every command accepts every flag, and a flag takes its value as
the next argument, whatever it starts with (``--alpha -0.6,0``), or as
``--foo-bar=value``. One dict from flag to field reads the command line.
Values resolve as hard defaults, then ``DFS_SIM_SEED`` (the seed only), then a
``--config`` key=value file, then explicit flags. Amplitudes parse as "re,im"
or "mag@degrees". ``-h``/``--help`` prints the commands and flags. Exit codes:
0 success (and help), 1 simulation failure, 2 configuration error (every bad
parameter, and a command line outside the grammar, with the usage line).
"""

from __future__ import annotations

import cmath
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass, field

from .fock import fidelity_mixed, fidelity_pure, ordered_sum
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
from .trials import (
    RunConfig,
    _draw_short_run,
    oracle_check,
    run_remote_trials,
    run_write_trials,
    trial_rng,
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
    ``NoiseParams`` check the fields they are built from, once, into
    :attr:`run_config`, and ``__post_init__`` checks the rest."""

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
    run_config: RunConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        total = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if 1e-12 < abs(total - 1.0) <= NORMALIZATION_GUARD:  # near-unit: renormalize
            norm = math.sqrt(total)
            object.__setattr__(self, "alpha", self.alpha / norm)
            object.__setattr__(self, "beta", self.beta / norm)
        noise = NoiseParams(chi=self.chi, eta_d=self.eta_d, p_dc=self.p_dc,
                            L0=self.l0, L_att=self.l_att, f_p=self.f_p)
        object.__setattr__(self, "run_config", RunConfig(
            trial_count=self.trials, master_seed=self.seed, pc=self.pc,
            alpha=self.alpha, beta=self.beta, noise=noise,
            threads=self.threads, truncation=self.truncation,
        ))
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(f"efficiency={self.efficiency} outside [0, 1]")
        if self.points < 1:
            raise ValueError("points must be >= 1")
        if not 0.0 < self.eta_prime <= 1.0:
            raise ValueError(f"eta_prime={self.eta_prime} outside (0, 1]")
        if not 0.0 < self.t_min <= self.t_max < math.inf:
            raise ValueError("need 0 < t_min <= t_max, both finite")
        if not 0.0 < self.eta_min <= self.eta_max <= 1.0:
            raise ValueError("need 0 < eta_min <= eta_max <= 1")
        if not all(0.0 < t < math.inf for t in self.t_list):
            raise ValueError("t_list entries must be positive and finite")
        if self.resolved_format() not in ("csv", "json"):
            raise ValueError(f"unknown output format {self.format!r}")
        directory = os.path.dirname(self.output_path()) or "."
        if not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
            raise ValueError(f"output directory {directory!r} is missing or not writable")
        if not abs(total - 1.0) <= NORMALIZATION_GUARD:  # NaN fails it too
            raise ValueError(f"(alpha, beta) not normalized: |a|^2+|b|^2 = {total}")

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
    if f.init and f.name != "command"
}


# flag -> CliConfig field, plus --config (the key=value file)
_FLAGS = {"--" + name.replace("_", "-"): name for name in ("config", *_PARAMS)}


class UsageError(ConfigError):
    """A command line that does not fit the grammar: :func:`main` prints
    the usage line under the error."""


class HelpRequested(Exception):
    """``-h`` or ``--help`` on the command line."""


def _read_argv(argv: list[str]) -> tuple[str, dict[str, str]]:
    """The command and the ``{field: text}`` of the flags, the last of a
    repeated flag winning. A flag takes the next argument as its value,
    whatever it starts with, or its value after ``=``."""
    command = None
    texts: dict[str, str] = {}
    args = iter(argv)
    for arg in args:
        if arg.startswith("-"):
            flag, eq, value = arg.partition("=")
            name = _FLAGS.get(flag)
            if name is None:
                if arg in ("-h", "--help"):
                    raise HelpRequested
                raise UsageError(f"unknown flag {flag!r}")
            if not eq:
                value = next(args, None)
                if value is None:
                    raise UsageError(f"{flag} needs a value")
            texts[name] = value
        elif command is not None:
            raise UsageError(f"a second command {arg!r} after {command!r}")
        elif arg in COMMANDS:
            command = arg
        else:
            raise UsageError(f"unknown command {arg!r} (choose from {', '.join(COMMANDS)})")
    if command is None:
        raise UsageError("no command given")
    return command, texts


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
    command, flags = _read_argv(argv)
    config = flags.pop("config", None)
    texts: dict[str, str] = {}
    if DEFAULT_SEED_ENV in os.environ:
        texts["seed"] = os.environ[DEFAULT_SEED_ENV]
    if config:
        texts.update(_load_config_file(config))
    texts.update(flags)
    values: dict[str, object] = {}
    for name, text in texts.items():
        try:
            values[name] = _PARAMS[name](text)
        except ValueError as exc:
            raise ConfigError(f"bad value for {name}: {exc}") from None
    try:
        return CliConfig(command=command, **values)
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


_FLOAT = "%.17g"


def _cell(v) -> str:
    return _FLOAT % v if isinstance(v, float) else str(v)


def _floats_text(values) -> list[str]:
    """``%.17g`` of each float, formatted by one template: one ``%`` per
    value costs about twice as much."""
    return ("\n".join([_FLOAT] * len(values)) % tuple(values)).split("\n") if values else []


def _csv_text(header: list[str], rows: list[tuple]) -> str:
    """The CSV file: floats (subclasses too) as ``%.17g``, every other cell
    as ``str``. Built column by column, each distinct float of the file is
    formatted once; a column holding a zero is formatted cell by cell,
    because 0.0 == -0.0 would share one text."""
    widths = set(map(len, rows))
    if len(widths) != 1 or 0 in widths:  # no rows, or rows of several widths
        lines = [",".join(map(_cell, row)) for row in rows]
    else:
        text: dict[float, str] = {}
        columns = []
        for column in zip(*rows):
            if set(map(type, column)) != {float}:
                columns.append(map(_cell, column))
                continue
            distinct = dict.fromkeys(column)
            if 0.0 in distinct:
                columns.append(_floats_text(column))
                continue
            fresh = [v for v in distinct if v not in text]
            text.update(zip(fresh, _floats_text(fresh)))
            columns.append(map(text.__getitem__, column))
        lines = map(",".join, zip(*columns))
    return "\n".join([",".join(header), *lines, ""])


def _json_ready(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _json_ready(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def _rows(record) -> tuple[list[str], list[tuple]]:
    """The ``quantity,value`` table of a dict or dataclass: one row per key
    or field, a dict-valued one as ``name[key]`` rows in key order; strings
    stay text and every other value becomes a float."""
    rows = []
    for name, value in _json_ready(record).items():  # a dataclass as the dict of its fields
        pairs = ([(f"{name}[{k}]", v) for k, v in sorted(value.items())]
                 if isinstance(value, dict) else [(name, value)])
        rows += [(n, v if isinstance(v, str) else float(v)) for n, v in pairs]
    return ["quantity", "value"], rows


def _objects(header: list[str], rows: list[tuple]) -> list[dict]:
    """The JSON of a table: one object per row."""
    return [dict(zip(header, row)) for row in rows]


def _emit(cfg: CliConfig, record=None, table=None) -> str:
    """Write the output in the configured format, with one ``write``. The
    CSV is ``table``, a (header, rows) pair, or else :func:`_rows` of
    ``record``; the JSON is ``record``, or else :func:`_objects` of
    ``table``. Only the written form is built."""
    path = cfg.output_path()
    if cfg.resolved_format() == "csv":
        text = _csv_text(*(_rows(record) if table is None else table))
    else:
        obj = _objects(*table) if record is None else record
        text = json.dumps(_json_ready(obj), indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def _entangle(cfg: CliConfig):
    setup = build_write_setup(cfg.truncation)
    state, prob = generate_entanglement(cfg.pc, setup)
    fid = fidelity_pure(state, ideal_entangled_state(setup)) if state else 0.0
    record = {"pc": cfg.pc, "herald_probability": prob, "fidelity_vs_ideal": fid}
    return 0, f"herald_probability={prob:.6g} fidelity={fid:.6g}", record, None


def _sampled(cfg: CliConfig, run_trials):
    stats = run_trials(cfg.run_config)
    summary = (f"success_rate={stats.success_rate:.6g} "
               f"F={stats.mean_conditional_fidelity:.6g} T={stats.empirical_T_seconds:.6g}s")
    return 0 if stats.success_count else 1, summary, stats, None


def _read(cfg: CliConfig):
    _draw_short_run(cfg.seed, 1)  # a read uses one row: draw no whole block
    record = write_memory(cfg.alpha, cfg.beta, cfg.pc, trial_rng(cfg.seed, 0),
                          build_write_setup(cfg.truncation))
    photon = read_memory(record, cfg.efficiency)
    setup = build_read_setup(cfg.truncation)
    fid = fidelity_mixed(photon, read_target(cfg.alpha, cfg.beta, setup))
    present = photon_present_probability(photon, [setup.out_h, setup.out_v])
    payload = {"outcome": record.outcome.value, "mark": record.mark.value,
               "rounds_until_herald": record.rounds_until_herald, "efficiency": cfg.efficiency,
               "roundtrip_fidelity": fid, "photon_present_probability": present}
    summary = (f"outcome={record.outcome.value} roundtrip_fidelity={fid:.6g} "
               f"photon_present={present:.6g}")
    return 0, summary, payload, None


def _curves_fig4a(cfg: CliConfig):
    curve = fidelity_vs_T(cfg.eta_prime, cfg.f_p, _grid(cfg.t_min, cfg.t_max, cfg.points))
    summary = f"{len(curve)} points, eta_prime={cfg.eta_prime:.6g}"
    return 0, summary, None, (["T_seconds", "F"], curve)


def _curves_fig4b(cfg: CliConfig):
    grid = _grid(cfg.eta_min, cfg.eta_max, cfg.points)
    rows = [(eta, dF, T) for T in cfg.t_list for eta, dF in dF_vs_eta(T, cfg.f_p, grid)]
    summary = f"{len(rows)} points over {len(cfg.t_list)} curves"
    return 0, summary, None, (["eta_prime", "delta_F", "T_seconds"], rows)


def _bsm_stats(cfg: CliConfig):
    branches = write_branches(cfg.alpha, cfg.beta, cfg.pc, build_write_setup(cfg.truncation))
    probs = {o.value: b.probability for o, b in branches.items()}
    record = {"outcome_probabilities": probs,
              "marks": {o.value: b.mark.value for o, b in branches.items()}}
    table = ["outcome", "probability"], [(name, float(p)) for name, p in probs.items()]
    summary = f"four outcomes, total heralded weight={ordered_sum(probs.values()):.6g}"
    return 0, summary, record, table


def _oracle_check(cfg: CliConfig):
    report = oracle_check(cfg.run_config)
    table = (["name", "empirical", "exact", "sigma_distance", "flagged"],
             [(e.name, e.empirical, e.exact, e.sigma_distance, int(e.flagged))
              for e in report.entries])
    worst = max((e.sigma_distance for e in report.entries), default=0.0)
    summary = f"{'PASS' if report.passed else 'FAIL'} max_sigma={worst:.3g}"
    return 0 if report.passed else 1, summary, report, table


_COMMANDS = {
    "entangle": _entangle,
    "teleport": lambda cfg: _sampled(cfg, run_write_trials),
    "read": _read,
    "remote-transfer": lambda cfg: _sampled(cfg, run_remote_trials),
    "curves-fig4a": _curves_fig4a,
    "curves-fig4b": _curves_fig4b,
    "bsm-stats": _bsm_stats,
    "oracle-check": _oracle_check,
}
COMMANDS = tuple(_COMMANDS)
USAGE = "usage: dfsmem COMMAND [--config FILE] [--FLAG VALUE | --FLAG=VALUE ...]"
HELP = "\n".join([
    USAGE, "", "commands: " + ", ".join(COMMANDS), "",
    "flags (every command accepts every flag; default in brackets):",
    "  --config FILE       key=value parameter file, read before the flags",
    *(f"  --{f.name.replace('_', '-'):<17} [{f.default}]"
      for f in dataclasses.fields(CliConfig) if f.name in _PARAMS),
    "  -h, --help          print this help and exit",
])


def run(cfg: CliConfig) -> int:
    """Run one command of :data:`_COMMANDS` (config -> exit code, summary,
    record, table) and write its output with :func:`_emit`; returns the exit code."""
    command = _COMMANDS.get(cfg.command)
    if command is None:
        raise ConfigError(f"unknown command {cfg.command!r}")
    code, summary, record, table = command(cfg)
    print(f"{cfg.command}: {summary} -> {_emit(cfg, record, table)}")
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else argv)
    except HelpRequested:
        print(HELP)
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        if isinstance(exc, UsageError):
            print(USAGE, file=sys.stderr)
        return 2
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
