"""Print the median wall time of fixed calls to each exact stage and to the
sampler of this checkout.

Usage: python tools/stage_timing.py

Each stage runs at pc 0.1, truncation 3 and the qubit (0.6, 0.8i), with ideal
detection and with the noisy detection of tools/cli_grid.py (chi 0.7, eta_d
0.8, p_dc 1e-3). One untimed call warms each stage first; the table then holds
the median of REPEATS timed calls, in milliseconds, as Markdown. Stages that
take no detector model (the emission state, the analyzer split and the read)
are timed once and printed in both columns. A second table times the sampler:
run_write_trials and run_remote_trials at SAMPLER_TRIALS noisy trials, with and
without a records CSV, as the median of SAMPLER_REPEATS runs in microseconds
per trial (each run's event-table build included). Run it from two checkouts
to compare them; the script imports src/ next to itself.
"""

from __future__ import annotations

import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dfsmem.noise import NoiseParams, end_to_end_fidelity  # noqa: E402
from dfsmem.protocol import (  # noqa: E402
    build_write_setup,
    entangled_state,
    read_memory,
    write_events,
    write_memory,
)
from dfsmem.trials import (  # noqa: E402
    RunConfig,
    _remote_event_table,
    _write_event_table,
    run_remote_trials,
    run_write_trials,
    trial_rng,
)

PC, D, ALPHA, BETA = 0.1, 3, 0.6, 0.8j
NOISY = {"chi": 0.7, "eta_d": 0.8, "p_dc": 1e-3}
REPEATS = 200
SAMPLER_TRIALS, SAMPLER_REPEATS = 10_000, 20


def median_ms(call, repeats: int = REPEATS) -> float:
    call()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def stages(noise: NoiseParams) -> dict[str, Callable[[], object]]:
    setup = build_write_setup(D)
    cfg = RunConfig(1, 0, PC, ALPHA, BETA, noise, truncation=D)
    state = entangled_state(PC, setup)
    record = write_memory(ALPHA, BETA, PC, trial_rng(0, 0), setup)
    return {
        "entangled_state": lambda: entangled_state(PC, setup),
        "write_events": lambda: write_events(state, ALPHA, BETA, setup),
        "_write_event_table": lambda: _write_event_table(cfg),
        "_remote_event_table": lambda: _remote_event_table(cfg),
        "end_to_end_fidelity": lambda: end_to_end_fidelity(PC, noise, ALPHA, BETA),
        "read_memory": lambda: read_memory(record, 0.7),
    }


def main() -> int:
    detection_free = {"entangled_state", "write_events", "read_memory"}
    ideal = stages(NoiseParams(pc=PC))
    noisy = stages(NoiseParams(pc=PC, **NOISY))
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
                us = 1e3 * median_ms(lambda: run(cfg), SAMPLER_REPEATS) / SAMPLER_TRIALS
                label = f"`{run.__name__}`" + (" + records CSV" if records else "")
                print(f"| {label} | {us:.3f} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
