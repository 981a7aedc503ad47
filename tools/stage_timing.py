"""Print the median wall time of fixed calls to each exact stage and to the
sampler of this checkout.

Usage: python tools/stage_timing.py

Each stage runs at pc 0.1, truncation 3 and the qubit (0.6, 0.8i), with ideal
detection and with the noisy detection of tools/cli_grid.py (chi 0.7, eta_d
0.8, p_dc 1e-3). One untimed call warms each stage first; the table then holds
the median of REPEATS timed calls, in milliseconds, as Markdown. Besides the
exact stages it times the front end (cli.parse_config on one teleport argv),
write_branches (the heralded write's exact branches, as bsm-stats computes
them), a cold write setup (a new WriteSetup(d) and one write_events of
entangled_state on it), a cold remote setup (a new RemoteSetup(d) and one
remote_transfer on it), both at truncations 3 and 4, and one whole
RUN_TRIALS-trial run_write_trials and run_remote_trials, event-table build
included, as a small sampling request runs them. Stages that take no
detector model (the parse, the emission state, the analyzer split,
write_branches, the cold write and remote setups and the read) are timed
once and printed in both columns; so are the loss channel
(apply_loss on the read output, its one caller in src/, at a new survival
each call, so no table keyed by it can warm) and the output
writer (cli._emit: the curves-fig4b CSV at the README flags with 100 points,
and the JSON of a RUN_TRIALS-trial teleport's RunStats). A second table times the sampler:
run_write_trials and run_remote_trials at SAMPLER_TRIALS noisy trials, with and
without a records CSV, as the median of SAMPLER_REPEATS runs in microseconds
per trial (each run's event-table build included), and two of its layers
alone: the row reads (trial_rng over the same SAMPLER_TRIALS rows, which a
run reads one call per trial) and the records write (trials._write_records
on the rounds and events of one such noisy write run, with its suffixes;
a checkout older than the chunked writer is given the formatted lines it
took instead). Every timed call gets a
new RunConfig, because the event-table builders keep the table of the last
config object they saw. Run it from two checkouts to compare them; the
script imports src/ next to itself.
"""

from __future__ import annotations

import dataclasses
import inspect
import itertools
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dfsmem import cli  # noqa: E402
from dfsmem.noise import NoiseParams, apply_loss, dF_vs_eta, end_to_end_fidelity  # noqa: E402
from dfsmem.protocol import (  # noqa: E402
    OUTCOME_OF_DETECTOR,
    RemoteSetup,
    WriteSetup,
    build_read_setup,
    build_write_setup,
    entangled_state,
    read_memory,
    remote_transfer,
    write_branches,
    write_events,
    write_memory,
)
from dfsmem.trials import (  # noqa: E402
    RunConfig,
    _remote_event_table,
    _write_event_table,
    _write_pass,
    _write_records,
    run_remote_trials,
    run_write_trials,
    trial_rng,
)

PC, D, ALPHA, BETA = 0.1, 3, 0.6, 0.8j
NOISY = {"chi": 0.7, "eta_d": 0.8, "p_dc": 1e-3}
REPEATS = 200
SAMPLER_TRIALS, SAMPLER_REPEATS = 10_000, 20
RUN_TRIALS = 100  # the sampling requests of the benchmark's exact-mix workload


def median_ms(call, repeats: int = REPEATS) -> float:
    call()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def emitter(tmp: str, argv: list[str], header: list[str], rows: list[tuple], obj):
    """One cli._emit call writing ``obj`` (JSON) or ``rows`` (CSV) under
    ``tmp``. A checkout older than the output rule takes two builders,
    (cfg, csv_table, json_obj), where a newer one takes the record and the
    table."""
    cfg = cli.parse_config([*argv, "--output", f"{tmp}/{argv[0]}"])
    if "csv_table" in inspect.signature(cli._emit).parameters:
        return lambda: cli._emit(cfg, lambda: (header, rows), lambda: obj)
    return lambda: cli._emit(cfg, record=obj, table=(header, rows) if rows else None)


def cold_write(d: int) -> Callable[[], object]:
    """A new write setup at truncation d and one write_events of the
    emission state on it; the setup builds its table when constructed or
    on its first write."""
    def call():
        setup = WriteSetup(d)
        return write_events(entangled_state(PC, setup), ALPHA, BETA, setup)
    return call


def cold_remote(d: int) -> Callable[[], object]:
    """A new remote setup at truncation d and one transfer on it; the setup
    builds its table when constructed or on its first transfer."""
    return lambda: remote_transfer(ALPHA, BETA, RemoteSetup(d))


def records_write(noise: NoiseParams, path: str) -> Callable[[], object]:
    """One _write_records call on the rounds and events of a
    SAMPLER_TRIALS-trial write run, with the suffixes run_write_trials
    builds for them."""
    cfg = RunConfig(SAMPLER_TRIALS, 1, PC, ALPHA, BETA, noise, truncation=D)
    table = _write_event_table(cfg)
    rounds, events = _write_pass(cfg, table)
    names = [o.value for o in OUTCOME_OF_DETECTOR] + ["censored"]
    outcome = np.append(table.outcome_index, -1).tolist()
    fidelity = np.append(table.fidelity, 0.0).tolist()
    suffix = [f",{names[k]},{f!r},{int(k < 0)}\n" for k, f in zip(outcome, fidelity)]
    header = "trial,rounds,outcome,fidelity,censored"
    if "lines" in inspect.signature(_write_records).parameters:
        return lambda: _write_records(path, header, (
            f"{i},{r}{suffix[e]}" for i, (r, e) in enumerate(zip(rounds.tolist(),
                                                                   events.tolist()))))
    return lambda: _write_records(path, header, suffix, events, rounds)


def stages(noise: NoiseParams, tmp: str) -> dict[str, Callable[[], object]]:
    setup = build_write_setup(D)
    cfg = RunConfig(1, 0, PC, ALPHA, BETA, noise, truncation=D)
    state = entangled_state(PC, setup)
    record = write_memory(ALPHA, BETA, PC, trial_rng(0, 0), setup)
    read_state = read_memory(record, 1.0).components[0][1]  # the read output before loss
    read_setup = build_read_setup(D)
    out = [read_setup.out_h, read_setup.out_v]
    fresh = itertools.count(1)  # a new survival per call
    fig4b = ["curves-fig4b", "--t-list", "2e-05;3e-05;4e-05", "--points", "100"]
    grid = cli._grid(0.1, 1.0, 100)
    curves = [(eta, dF, T) for T in (2e-5, 3e-5, 4e-5) for eta, dF in dF_vs_eta(T, 10e6, grid)]
    run = RunConfig(RUN_TRIALS, 1, PC, ALPHA, BETA, noise, truncation=D)
    stats = run_write_trials(run)
    teleport = ["teleport", "--pc", str(PC), "--alpha", "0.6", "--beta", "0,0.8",
                "--trials", str(RUN_TRIALS), "--seed", "1", "--output", f"{tmp}/teleport.json"]
    return {
        "parse_config, teleport argv": lambda: cli.parse_config(teleport),
        "entangled_state": lambda: entangled_state(PC, setup),
        "write_events": lambda: write_events(state, ALPHA, BETA, setup),
        "_write_event_table": lambda: _write_event_table(dataclasses.replace(cfg)),
        "_remote_event_table": lambda: _remote_event_table(dataclasses.replace(cfg)),
        "write_branches": lambda: write_branches(ALPHA, BETA, PC, setup),
        **{f"WriteSetup + write_events, d {d}": cold_write(d) for d in (3, 4)},
        **{f"RemoteSetup + remote_transfer, d {d}": cold_remote(d) for d in (3, 4)},
        f"run_write_trials, {RUN_TRIALS} trials": lambda: run_write_trials(
            dataclasses.replace(run)),
        f"run_remote_trials, {RUN_TRIALS} trials": lambda: run_remote_trials(
            dataclasses.replace(run)),
        "end_to_end_fidelity": lambda: end_to_end_fidelity(PC, noise, ALPHA, BETA),
        "read_memory": lambda: read_memory(record, 0.7),
        "apply_loss, read output": lambda: apply_loss(read_state, out,
                                                      0.7 - 1e-9 * next(fresh)),
        "_emit, curves-fig4b CSV": emitter(tmp, fig4b, ["eta_prime", "delta_F", "T_seconds"],
                                           curves, None),
        "_emit, teleport RunStats JSON": emitter(tmp, ["teleport"], [], [], stats),
    }


def main() -> int:
    detection_free = {"parse_config, teleport argv", "entangled_state", "write_events",
                      "write_branches", "read_memory", "apply_loss, read output",
                      "_emit, curves-fig4b CSV",
                      *(f"WriteSetup + write_events, d {d}" for d in (3, 4)),
                      *(f"RemoteSetup + remote_transfer, d {d}" for d in (3, 4))}
    with tempfile.TemporaryDirectory() as tmp:
        ideal = stages(NoiseParams(pc=PC), tmp)
        noisy = stages(NoiseParams(pc=PC, **NOISY), tmp)
        print(f"| stage (pc {PC}, d {D}, median of {REPEATS}) | ideal ms | noisy ms |")
        print("|---|---|---|")
        for name in ideal:
            t_ideal = median_ms(ideal[name])
            t_noisy = t_ideal if name in detection_free else median_ms(noisy[name])
            print(f"| `{name}` | {t_ideal:.3f} | {t_noisy:.3f} |")
    print()
    print(f"| sampler ({SAMPLER_TRIALS} noisy trials, median of {SAMPLER_REPEATS}) "
          f"| us per trial |")
    print("|---|---|")
    noise = NoiseParams(pc=PC, **NOISY)
    with tempfile.TemporaryDirectory() as tmp:
        for run in (run_write_trials, run_remote_trials):
            for records in (None, f"{tmp}/records.csv"):
                cfg = RunConfig(SAMPLER_TRIALS, 1, PC, ALPHA, BETA, noise, truncation=D,
                                records_csv=records)
                us = 1e3 * median_ms(lambda: run(dataclasses.replace(cfg)),
                                     SAMPLER_REPEATS) / SAMPLER_TRIALS
                label = f"`{run.__name__}`" + (" + records CSV" if records else "")
                print(f"| {label} | {us:.3f} |")
        us = 1e3 * median_ms(lambda: [trial_rng(1, i) for i in range(SAMPLER_TRIALS)],
                             SAMPLER_REPEATS) / SAMPLER_TRIALS
        print(f"| `trial_rng`, row reads alone | {us:.3f} |")
        us = 1e3 * median_ms(records_write(noise, f"{tmp}/records.csv"),
                             SAMPLER_REPEATS) / SAMPLER_TRIALS
        print(f"| `_write_records`, records write alone | {us:.3f} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
