"""Seeded Monte Carlo layer over the exact pipeline.

Each trial owns its own random stream, derived from the master seed and the
trial index through numpy's SeedSequence (``SeedSequence(master_seed,
spawn_key=(trial_index,))``), so results are bit-identical regardless of
thread count or scheduling.

Detection is folded into an exact event table before any sampling: each
detector occupation pattern of the exact pipeline is weighted by the closed
form :meth:`dfsmem.noise.DetectorSpec.click_probability` (overall survival
and dark counts) of every click combination, and each trial draws one event
from that table. For the write, rounds with anything other than exactly one
click are repeated; the repeat loop is drawn as a single geometric variate
in the exact per-round herald probability, which has the same distribution
as looping round by round.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import product as iter_product

import numpy as np

from .fock import fidelity_pure
from .noise import DetectorSpec, NoiseParams
from .protocol import (
    BellOutcome,
    PauliMark,
    apply_logical_pauli,
    build_remote_setup,
    build_write_setup,
    classify_remote_clicks,
    entangled_state,
    joint_emission_state,  # noqa: F401  kept in this namespace for bench/test_bench.py
    pauli_mark,
    remote_transfer,
    write_events,
)

_OUTCOMES = (
    BellOutcome.PSI_PLUS,
    BellOutcome.PSI_MINUS,
    BellOutcome.PHI_PLUS,
    BellOutcome.PHI_MINUS,
)


@dataclass(frozen=True)
class RunConfig:
    trial_count: int
    master_seed: int
    pc: float = 0.01
    alpha: complex = 1 / math.sqrt(2)
    beta: complex = 1 / math.sqrt(2)
    noise: NoiseParams = field(default_factory=NoiseParams)
    round_cap: int = 10_000_000
    threads: int = 1
    truncation: int = 3
    records_csv: str | None = None

    def __post_init__(self):
        # the run has one pc: NoiseParams carries (and range-checks) the run's
        object.__setattr__(self, "noise", dataclasses.replace(self.noise, pc=self.pc))
        if self.trial_count < 0:
            raise ValueError("trial_count must be >= 0")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.truncation < 3:
            raise ValueError("truncation below 3 cannot hold the pair-emission terms")


@dataclass(frozen=True)
class RunStats:
    """Aggregates over a batch of trials, with standard errors (sigma/sqrt(N))."""

    trial_count: int
    success_count: int
    censored_count: int
    success_rate: float
    success_rate_se: float
    mean_rounds: float
    mean_rounds_se: float
    empirical_T_seconds: float
    empirical_T_seconds_se: float
    outcome_frequencies: dict[str, float]
    outcome_frequencies_se: dict[str, float]
    mean_conditional_fidelity: float
    mean_conditional_fidelity_se: float


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """The per-trial stream: SeedSequence(master_seed, spawn_key=(index,))."""
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(trial_index,))
    )


@dataclass(frozen=True)
class _EventTable:
    """Exact per-round outcome classes for fast, faithful trial sampling."""

    herald_probability: float
    probabilities: np.ndarray  # conditional on herald, per event
    outcome_index: np.ndarray  # detector that clicked
    fidelity: np.ndarray  # corrected-memory fidelity for the event
    exact_outcome_probs: dict[str, float]
    exact_mean_fidelity: float


def _one_click_weights(pattern: tuple[int, ...], det: DetectorSpec) -> list[float]:
    """P(only detector k clicks | photon pattern), for each k."""
    click = [det.click_probability(n) for n in pattern]
    out = []
    for k in range(len(pattern)):
        w = click[k]
        for j, c in enumerate(click):
            if j != k:
                w *= 1.0 - c
        out.append(w)
    return out


def _write_event_table(cfg: RunConfig) -> _EventTable:
    setup = build_write_setup(cfg.truncation)
    events = write_events(entangled_state(cfg.pc, setup), cfg.alpha, cfg.beta, setup)
    det = DetectorSpec(cfg.noise.eta_prime, cfg.noise.p_dc)
    target = setup.logical.logical_state(setup.atomic_registry, cfg.alpha, cfg.beta)
    # |<t|P s>|^2 = |<P t|s>|^2 for the self-inverse (up to phase) marks;
    # equal up to the last bit, since Z is the phase exp(i pi)
    marked = [apply_logical_pauli(target, pauli_mark(o), setup.logical) for o in _OUTCOMES]

    probs, outcome_idx, fids = [], [], []
    for pattern in sorted(events):
        p_pattern, atomic = events[pattern]
        for k, w in enumerate(_one_click_weights(pattern, det)):
            if w <= 0.0:
                continue
            probs.append(p_pattern * w)
            outcome_idx.append(k)
            fids.append(fidelity_pure(atomic, marked[k]))
    herald = float(sum(probs))
    if herald > 0.0:
        cond = np.array(probs) / herald
    else:
        cond = np.array(probs)
    idx = np.array(outcome_idx, dtype=int)
    fid = np.array(fids)
    exact_outcomes = {
        o.value: float(cond[idx == k].sum()) for k, o in enumerate(_OUTCOMES)
    }
    exact_fid = float((cond * fid).sum()) if herald > 0.0 else 0.0
    return _EventTable(herald, cond, idx, fid, exact_outcomes, exact_fid)


def _remote_event_table(cfg: RunConfig) -> _EventTable:
    result = remote_transfer(cfg.alpha, cfg.beta, build_remote_setup(cfg.truncation))
    setup = result.setup
    det = DetectorSpec(cfg.noise.eta_prime, cfg.noise.p_dc)
    target = setup.r_logical.logical_state(setup.r_registry, cfg.alpha, cfg.beta)

    probs, success_flags, fids = [], [], []
    for pattern, branch in sorted(result.branches.items()):
        click_prob = [det.click_probability(n) for n in pattern]
        # marks act on the branch state, once per branch and mark; on the
        # target (as in the write table) Z's exp(i pi) phase would move these
        # fidelities in the last bit, which the remote outputs show
        fid_of = {
            mark: fidelity_pure(apply_logical_pauli(branch.r_state, mark, setup.r_logical), target)
            for mark in (PauliMark.I, PauliMark.Z)
        }
        for clicks in iter_product((False, True), repeat=4):
            w = 1.0
            for c, q in zip(clicks, click_prob):
                w *= q if c else 1.0 - q
            if w <= 0.0:
                continue
            success, mark = classify_remote_clicks(clicks)
            fid = fid_of[mark] if success else 0.0
            probs.append(branch.probability * w)
            success_flags.append(1 if success else 0)
            fids.append(fid)
    total = float(sum(probs))
    cond = np.array(probs) / total
    flags = np.array(success_flags, dtype=int)
    fid = np.array(fids)
    success_prob = float(cond[flags == 1].sum())
    mean_fid = (
        float((cond * fid)[flags == 1].sum() / success_prob) if success_prob else 0.0
    )
    # reuse the table fields: outcome_index doubles as the success flag
    return _EventTable(
        herald_probability=success_prob,
        probabilities=cond,
        outcome_index=flags,
        fidelity=fid,
        exact_outcome_probs={"success": success_prob},
        exact_mean_fidelity=mean_fid,
    )


def _run_indexed(cfg: RunConfig, worker, columns: int) -> np.ndarray:
    """Fill one row per trial in index order, optionally across threads."""
    out = np.zeros((cfg.trial_count, columns))
    if cfg.threads == 1 or cfg.trial_count < 2:
        for i in range(cfg.trial_count):
            out[i] = worker(i)
        return out
    chunk = math.ceil(cfg.trial_count / cfg.threads)

    def fill(start: int):
        for i in range(start, min(start + chunk, cfg.trial_count)):
            out[i] = worker(i)

    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        list(pool.map(fill, range(0, cfg.trial_count, chunk)))
    return out


def _stream_records(cfg: RunConfig, header: list[str], rows) -> None:
    if cfg.records_csv is None:
        return
    with open(cfg.records_csv, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    if values.size == 0:
        return 0.0, 0.0
    if values.size == 1:
        return float(values[0]), 0.0
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))


def _freq_se(freq: float, n: int) -> float:
    if n < 2:
        return 0.0
    return math.sqrt(freq * (1.0 - freq) / n)


def run_write_trials(cfg: RunConfig) -> RunStats:
    """Repeat write rounds to herald, per trial, and aggregate statistics.

    Per trial the number of rounds is geometric in the exact herald
    probability (trials past ``round_cap`` are censored), and the heralding
    round's detection event is drawn from the exact conditional event table.
    """
    table = _write_event_table(cfg)
    n_events = len(table.probabilities)

    def worker(i: int) -> tuple[float, float, float, float]:
        rng = trial_rng(cfg.master_seed, i)
        if table.herald_probability <= 0.0:
            return (0.0, float(cfg.round_cap), -1.0, 0.0)
        rounds = int(rng.geometric(table.herald_probability))
        if rounds > cfg.round_cap:
            return (0.0, float(cfg.round_cap), -1.0, 0.0)
        event = int(rng.choice(n_events, p=table.probabilities))
        return (1.0, float(rounds), float(table.outcome_index[event]),
                float(table.fidelity[event]))

    rows = _run_indexed(cfg, worker, 4)
    _stream_records(
        cfg,
        ["trial", "rounds", "outcome", "fidelity", "censored"],
        (
            (
                i,
                int(r[1]),
                _OUTCOMES[int(r[2])].value if r[2] >= 0 else "censored",
                repr(float(r[3])),
                int(r[0] == 0.0),
            )
            for i, r in enumerate(rows)
        ),
    )
    ok = rows[:, 0] == 1.0
    n_ok = int(ok.sum())
    success_rate = n_ok / cfg.trial_count if cfg.trial_count else 0.0
    mean_rounds, rounds_se = _mean_se(rows[ok, 1])
    freqs, freqs_se = {}, {}
    for k, outcome in enumerate(_OUTCOMES):
        f = float((rows[ok, 2] == k).sum() / n_ok) if n_ok else 0.0
        freqs[outcome.value] = f
        freqs_se[outcome.value] = _freq_se(f, n_ok)
    fid_mean, fid_se = _mean_se(rows[ok, 3])
    return RunStats(
        trial_count=cfg.trial_count,
        success_count=n_ok,
        censored_count=cfg.trial_count - n_ok,
        success_rate=success_rate,
        success_rate_se=_freq_se(success_rate, cfg.trial_count),
        mean_rounds=mean_rounds,
        mean_rounds_se=rounds_se,
        empirical_T_seconds=mean_rounds / cfg.noise.f_p,
        empirical_T_seconds_se=rounds_se / cfg.noise.f_p,
        outcome_frequencies=freqs,
        outcome_frequencies_se=freqs_se,
        mean_conditional_fidelity=fid_mean,
        mean_conditional_fidelity_se=fid_se,
    )


def run_remote_trials(cfg: RunConfig) -> RunStats:
    """Sample the two-splitter coincidence transfer, one attempt per trial."""
    table = _remote_event_table(cfg)
    n_events = len(table.probabilities)

    def worker(i: int) -> tuple[float, float, float, float]:
        rng = trial_rng(cfg.master_seed, i)
        event = int(rng.choice(n_events, p=table.probabilities))
        success = table.outcome_index[event] == 1
        return (1.0 if success else 0.0, 1.0, 1.0 if success else 0.0,
                float(table.fidelity[event]))

    rows = _run_indexed(cfg, worker, 4)
    _stream_records(
        cfg,
        ["trial", "success", "fidelity"],
        ((i, int(r[0]), repr(float(r[3]))) for i, r in enumerate(rows)),
    )
    n = cfg.trial_count
    successes = rows[:, 0] == 1.0
    n_ok = int(successes.sum())
    success_rate = n_ok / n if n else 0.0
    fid_mean, fid_se = _mean_se(rows[successes, 3])
    return RunStats(
        trial_count=n,
        success_count=n_ok,
        censored_count=0,
        success_rate=success_rate,
        success_rate_se=_freq_se(success_rate, n),
        mean_rounds=1.0 if n else 0.0,
        mean_rounds_se=0.0,
        empirical_T_seconds=(1.0 / cfg.noise.f_p) if n else 0.0,
        empirical_T_seconds_se=0.0,
        outcome_frequencies={"success": success_rate},
        outcome_frequencies_se={"success": _freq_se(success_rate, n)},
        mean_conditional_fidelity=fid_mean,
        mean_conditional_fidelity_se=fid_se,
    )


def _fidelity_variance(table: _EventTable, success: np.ndarray) -> float:
    """Exact variance of the per-trial fidelity over successful events."""
    weights = table.probabilities[success]
    total = weights.sum()
    if total <= 0.0:
        return 0.0
    spread = table.fidelity[success] - table.exact_mean_fidelity
    return float((weights * spread**2).sum() / total)


@dataclass(frozen=True)
class OracleEntry:
    name: str
    empirical: float
    exact: float
    sigma_distance: float
    flagged: bool


@dataclass(frozen=True)
class OracleReport:
    entries: tuple[OracleEntry, ...]
    tolerance_sigmas: float
    insufficient_data: bool

    @property
    def passed(self) -> bool:
        return not any(e.flagged for e in self.entries)


def oracle_check(
    cfg: RunConfig,
    tolerance_sigmas: float = 3.0,
    experiment: str = "write",
    expected_noise: NoiseParams | None = None,
) -> OracleReport:
    """Compare sampled frequencies against the exact event probabilities.

    Each distance is in units of the standard error the exact event table
    predicts for the sample size (the null hypothesis), so a rare event that
    happens not to be sampled does not collapse the error to zero.
    ``expected_noise`` substitutes the parameters used on the exact side;
    passing deliberately wrong values is the negative control.
    """
    if cfg.trial_count == 0:
        return OracleReport((), tolerance_sigmas, insufficient_data=True)
    expected_cfg = cfg
    if expected_noise is not None:
        expected_cfg = dataclasses.replace(cfg, noise=expected_noise)
    # (name, empirical, exact, exact per-draw variance, draws)
    if experiment == "write":
        stats = run_write_trials(cfg)
        table = _write_event_table(expected_cfg)
        n = stats.success_count
        pairs = [
            (f"outcome[{name}]", stats.outcome_frequencies[name], exact,
             exact * (1.0 - exact), n)
            for name, exact in table.exact_outcome_probs.items()
        ]
        pairs.append(
            ("mean_conditional_fidelity", stats.mean_conditional_fidelity,
             table.exact_mean_fidelity, _fidelity_variance(table, table.outcome_index >= 0), n)
        )
        h = table.herald_probability
        if h > 0.0:
            # herald effort exposes the survival model, which the
            # herald-conditioned frequencies cannot see; rounds are geometric
            pairs.append(("mean_rounds", stats.mean_rounds, 1.0 / h, (1.0 - h) / h**2, n))
    elif experiment == "remote":
        stats = run_remote_trials(cfg)
        table = _remote_event_table(expected_cfg)
        p = table.herald_probability
        pairs = [
            ("success_rate", stats.success_rate, p, p * (1.0 - p), cfg.trial_count),
            ("mean_conditional_fidelity", stats.mean_conditional_fidelity,
             table.exact_mean_fidelity, _fidelity_variance(table, table.outcome_index == 1),
             stats.success_count),
        ]
    else:
        raise ValueError(f"unknown experiment {experiment!r}")
    entries = []
    for name, emp, exact, variance, draws in pairs:
        se = math.sqrt(variance / draws) if draws else 0.0
        if se == 0.0:
            sigma = 0.0 if abs(emp - exact) < 1e-12 else math.inf
        else:
            sigma = abs(emp - exact) / se
        entries.append(OracleEntry(name, emp, exact, sigma, sigma > tolerance_sigmas))
    return OracleReport(tuple(entries), tolerance_sigmas, insufficient_data=False)
