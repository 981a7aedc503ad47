"""Seeded request streams for the two benchmark workloads.

Each workload is a closed loop of one client making requests in-process to
the public entry points. A request is fully determined by the workload name,
the workload seed and its index in the stream, so the same seed always gives
the same request list and the program only ever sees generated inputs.

``mc-heavy``
    Noisy Monte Carlo runs (``teleport``, ``remote-transfer``,
    ``oracle-check`` and ``run_write_trials`` with a records CSV). Nearly all
    wall time is per-trial sampling, so a sampler change shows here and a
    Fock-lift or CLI change should not. One request in eight is an exact
    companion (the exact ``exact-mix`` kinds in rotation) so that every traced
    layer reports a measured, non-zero time on this workload too; companions
    cost under 1% of its wall time.
``exact-mix``
    Many small exact requests plus ``teleport``/``remote-transfer`` at 100
    trials. Argument parsing, the Fock lifts and the exact pipelines dominate,
    so CLI and exact-layer changes show here, and a sampler that trades
    per-trial cost for fixed cost shows as a regression.

Requests run in a fixed rotation of kinds; the seed draws their parameters:
a fresh random qubit and master seed per request, ``pc`` and truncation from
small grids, and noisy detection from a small grid on ``mc-heavy``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import count, islice
from typing import Iterator

WORKLOADS = ("mc-heavy", "exact-mix")

# Trials per sampling request. ROADMAP names 1e5; at about 40 us per trial
# that is 4 s per request, which leaves too few requests in a run for a
# latency tail with ten samples beyond it, so mc-heavy runs 1e4.
MC_TRIALS = 10_000
MIX_TRIALS = 100

SAMPLING_KINDS = frozenset({"teleport", "remote-transfer", "oracle-check", "records"})

EXACT_ROTATION = (
    "read", "entangle", "teleport", "bsm-stats",
    "curves-fig4a", "remote-transfer", "fidelity", "curves-fig4b",
)
MC_ROTATION = (
    "teleport", None, "remote-transfer", "records",  # None: exact companion
    "oracle-check", "teleport", "remote-transfer", "records",
)
# the exact kinds, in the order mc-heavy companions take them: the first
# three already reach every traced layer
COMPANION_ROTATION = ("fidelity", "curves-fig4a", "read", "bsm-stats", "curves-fig4b", "entangle")

MIX_PC = (0.01, 0.05, 0.1, 0.2)
MIX_TRUNCATION = (3, 4)
MC_PC = (0.01, 0.05, 0.1)
NOISE_GRID = {"chi": (0.6, 0.8, 1.0), "eta_d": (0.7, 0.9), "p_dc": (0.0, 1e-5, 1e-4)}


@dataclass(frozen=True)
class Request:
    """One generated request: a kind and its parameters, in a fixed order."""

    index: int
    kind: str
    params: tuple[tuple[str, object], ...]

    @property
    def p(self) -> dict[str, object]:
        return dict(self.params)

    @property
    def trials(self) -> int:
        return int(self.p.get("trials", 0))


def _qubit(rng: random.Random) -> tuple[complex, complex]:
    v = [rng.gauss(0.0, 1.0) for _ in range(4)]
    norm = math.sqrt(sum(x * x for x in v))
    return complex(v[0], v[1]) / norm, complex(v[2], v[3]) / norm


def _noise(rng: random.Random) -> dict[str, float]:
    return {name: rng.choice(values) for name, values in NOISE_GRID.items()}


def _params(kind: str, rng: random.Random, workload: str, trials: int) -> dict[str, object]:
    mc = workload == "mc-heavy"
    pc = rng.choice(MC_PC if mc else MIX_PC)
    truncation = 3 if mc else rng.choice(MIX_TRUNCATION)
    alpha, beta = _qubit(rng)
    if kind == "entangle":
        return {"pc": pc, "truncation": truncation}
    if kind == "bsm-stats":
        return {"pc": pc, "truncation": truncation, "alpha": alpha, "beta": beta}
    if kind == "read":
        return {"pc": pc, "truncation": truncation, "alpha": alpha, "beta": beta,
                "efficiency": round(rng.uniform(0.5, 1.0), 6),
                "seed": rng.randrange(2**31)}
    if kind == "curves-fig4a":
        return {"eta_prime": round(rng.uniform(0.2, 1.0), 6), "f_p": 10e6,
                "t_min": 5e-6, "t_max": 5e-5, "points": 100}
    if kind == "curves-fig4b":
        return {"eta_min": round(rng.uniform(0.05, 0.3), 6), "eta_max": 1.0,
                "f_p": 10e6, "t_list": "2e-05;3e-05;4e-05", "points": 100}
    if kind == "fidelity":
        return {"pc": pc, "alpha": alpha, "beta": beta, **_noise(rng)}
    # sampling kinds
    out = {"pc": pc, "truncation": truncation, "alpha": alpha, "beta": beta,
           "trials": trials, "seed": rng.randrange(2**31)}
    if mc:
        out.update(_noise(rng))
    return out


def stream(workload: str, seed: int, trials: int | None = None) -> Iterator[Request]:
    """The endless request stream of one workload for one seed.

    ``trials`` overrides the per-request trial count (the tests use it to run
    tiny versions); everything else is unchanged.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    if trials is None:
        trials = MC_TRIALS if workload == "mc-heavy" else MIX_TRIALS
    companions = count()
    for i in count():
        if workload == "mc-heavy":
            kind = MC_ROTATION[i % len(MC_ROTATION)]
            if kind is None:
                kind = COMPANION_ROTATION[next(companions) % len(COMPANION_ROTATION)]
        else:
            kind = EXACT_ROTATION[i % len(EXACT_ROTATION)]
        yield Request(i, kind, tuple(_params(kind, rng, workload, trials).items()))


def first_requests(workload: str, seed: int, n: int, trials: int | None = None) -> list[Request]:
    return list(islice(stream(workload, seed, trials), n))


def warmup(workload: str) -> list[Request]:
    """One small request per kind and truncation the workload uses.

    Running these first builds the cached setups, so the timed loop measures
    steady state; cold start is measured separately as ``setup_s``.
    """
    rng = random.Random(f"warmup:{workload}")
    out = []
    for kind in sorted(set(EXACT_ROTATION) | SAMPLING_KINDS):
        for truncation in MIX_TRUNCATION:
            params = _params(kind, rng, "exact-mix", 20)
            if "truncation" in params:
                params["truncation"] = truncation
            elif truncation != MIX_TRUNCATION[0]:
                continue
            out.append(Request(-len(out) - 1, kind, tuple(params.items())))
    return out


def config_keys(req: Request) -> tuple[tuple | None, tuple]:
    """(pc, truncation) key, or None when the request has no pc; and the
    full configuration key (every parameter but the request index)."""
    p = req.p
    shared = (p["pc"], p.get("truncation")) if "pc" in p else None
    return shared, (req.kind, req.params)
