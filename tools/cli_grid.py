"""Run the CLI determinism grid of this checkout and write one file per output.

Usage: python tools/cli_grid.py OUTDIR

The grid is every pc in {0.01, 0.1, 0.2}, truncation in {3, 4}, three qubits
and ideal or noisy detection, for bsm-stats, entangle, teleport,
remote-transfer, oracle-check and read, the read once per Pauli mark (each
of its four seeds draws one mark at every grid point); the two curve
commands at the README example flags; each command once more in its other
output format (CSV for the six JSON commands, at pc 0.1, truncation 3, the
first qubit and noisy detection; JSON for the two curve commands);
end_to_end_fidelity at the three pc, ideal and noisy, and the remote
oracle_check there at truncations 3 and 4; and, at the three pc with
noisy detection, the records CSV and statistics of run_write_trials (with a
round cap that censors trials) and run_remote_trials; and one command per
non-finite configuration value, each of which must exit 2 and write nothing.
Each CLI file holds the output the command wrote, its exit code and its stdout
with OUTDIR stripped. Run the script from two checkouts into two
directories; ``diff -r`` between them then lists every output that changed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dfsmem.cli import main  # noqa: E402
from dfsmem.noise import NoiseParams, end_to_end_fidelity  # noqa: E402
from dfsmem.trials import (  # noqa: E402
    RunConfig,
    oracle_check,
    run_remote_trials,
    run_write_trials,
)

PCS = ("0.01", "0.1", "0.2")
TRUNCATIONS = ("3", "4")
QUBITS = (("0.6", "0,0.8"), ("1", "0"), ("0.5@30", "0.8660254037844386@-70"))
NOISY = {"chi": 0.7, "eta_d": 0.8, "p_dc": 1e-3}
DETECTION = {
    "ideal": [],
    "noisy": [arg for k, v in NOISY.items() for arg in ("--" + k.replace("_", "-"), repr(v))],
}
# output name -> (command, flags)
COMMANDS = {
    "bsm-stats": ("bsm-stats", []),
    "entangle": ("entangle", []),
    "read": ("read", ["--seed", "5", "--efficiency", "0.7"]),  # mark ZX
    "teleport": ("teleport", ["--trials", "2000", "--seed", "9"]),
    "remote-transfer": ("remote-transfer", ["--trials", "2000", "--seed", "9"]),
    "oracle-check": ("oracle-check", ["--trials", "2000", "--seed", "9"]),
    **{f"read-mark-{mark}": ("read", ["--seed", seed, "--efficiency", "0.7"])
       for mark, seed in (("I", "1"), ("X", "4"), ("Z", "7"))},
}
# the grid point (pc, truncation, qubit index, detection) of the CSV outputs
# of the JSON commands
OTHER_FORMAT_POINT = ("0.1", "3", 0, "noisy")
RECORDS = {"write": run_write_trials, "remote": run_remote_trials}
ROUND_CAP = 20  # censors some noisy write trials at every pc of the grid
CURVES = {
    "curves-fig4a": ["--eta-prime", "0.3333", "--t-min", "5e-6", "--t-max", "5e-5",
                     "--points", "100"],
    "curves-fig4b": ["--t-list", "2e-05;3e-05;4e-05", "--points", "50"],
}

# command and flags of each non-finite value the configuration rejects
MISTAKES = {
    "alpha-nan": ["teleport", "--alpha", "nan"],
    "t-min-nan": ["curves-fig4a", "--t-min", "nan"],
    "t-max-nan": ["curves-fig4a", "--t-max", "nan"],
    "t-max-inf": ["curves-fig4a", "--t-max", "inf"],
    "t-list-nan": ["curves-fig4b", "--t-list", "nan"],
    "f-p-nan": ["teleport", "--f-p", "nan"],
    "f-p-inf": ["teleport", "--f-p", "inf"],
    "l0-nan": ["teleport", "--l0", "nan"],
    "l0-inf": ["teleport", "--l0", "inf"],
    "l-att-nan": ["teleport", "--l-att", "nan"],
    "l-att-inf": ["teleport", "--l-att", "inf"],
}


def run_cli(outdir: Path, name: str, argv: list[str]) -> None:
    """Run one command, then replace its output by output + exit code + stdout.

    The output of an earlier run into OUTDIR is removed first, so a command
    that writes nothing (a configuration mistake) records no stale text."""
    path = outdir / name
    path.unlink(missing_ok=True)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([*argv, "--output", str(path)])
    written = path.read_text(encoding="utf-8") if path.exists() else ""
    printed = stdout.getvalue().replace(f"{outdir}/", "")
    path.write_text(f"{written}--- exit code\n{code}\n--- stdout\n{printed}", encoding="utf-8")


def write_json(path: Path, result) -> None:
    text = json.dumps(dataclasses.asdict(result), indent=2, sort_keys=True)
    path.write_text(text + "\n", encoding="utf-8")


def grid_argv(command: str, flags: list[str], pc: str, d: str, k: int,
              detection: str) -> list[str]:
    alpha, beta = QUBITS[k]
    return [command, "--pc", pc, "--truncation", d, "--alpha", alpha, "--beta", beta,
            *DETECTION[detection], *flags]


def main_grid(outdir: Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    outdir = outdir.resolve()
    for name, (command, flags) in COMMANDS.items():
        for point in itertools.product(PCS, TRUNCATIONS, range(len(QUBITS)), DETECTION):
            pc, d, k, detection = point
            run_cli(outdir, f"{name}_pc{pc}_d{d}_q{k}_{detection}.json",
                    grid_argv(command, flags, *point))
    pc, d, k, detection = OTHER_FORMAT_POINT
    for name, (command, flags) in COMMANDS.items():
        if not name.startswith("read-mark-"):
            run_cli(outdir, f"{name}_pc{pc}_d{d}_q{k}_{detection}.csv",
                    grid_argv(command, [*flags, "--format", "csv"], *OTHER_FORMAT_POINT))
    for command, flags in CURVES.items():
        run_cli(outdir, f"{command}.csv", [command, *flags])
        run_cli(outdir, f"{command}.json", [command, *flags, "--format", "json"])
    for name, (command, *flags) in MISTAKES.items():
        run_cli(outdir, f"mistake_{name}.json", [command, "--trials", "2000", *flags])
    for pc, detection in itertools.product(PCS, DETECTION):
        noise = NoiseParams(pc=float(pc), **(NOISY if detection == "noisy" else {}))
        report = end_to_end_fidelity(float(pc), noise)
        write_json(outdir / f"end_to_end_fidelity_pc{pc}_{detection}.json", report)
        # the remote event table's exact values, which sampled outputs do not show
        for d, tag in ((3, ""), (4, "_d4")):
            cfg = RunConfig(2000, 9, float(pc), 0.6, 0.8j, noise, truncation=d)
            write_json(outdir / f"oracle_remote_pc{pc}{tag}_{detection}.json",
                       oracle_check(cfg, experiment="remote"))
    for pc, (kind, run) in itertools.product(PCS, RECORDS.items()):
        records = outdir / f"records_{kind}_pc{pc}.csv"
        cfg = RunConfig(trial_count=2000, master_seed=9, pc=float(pc), alpha=0.6, beta=0.8j,
                        noise=NoiseParams(pc=float(pc), **NOISY), round_cap=ROUND_CAP,
                        records_csv=str(records))
        write_json(outdir / f"records_{kind}_pc{pc}_stats.json", run(cfg))
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print("usage: python tools/cli_grid.py OUTDIR", file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(main_grid(Path(sys.argv[1])))
