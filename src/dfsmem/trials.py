"""Seeded Monte Carlo layer over the exact pipeline.

Each trial owns one row of the run's uniforms: trial i reads row i of
``Generator(Philox(SeedSequence(master_seed))).random((n, 2))``, bit for
bit, whatever n. Philox is counter-based (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11), so any row is reached by advancing
the counter, without drawing the rows before it. :func:`trial_rng` returns
trial i's row as a tuple ``(u0, u1)``, read from a memoised block of
``_BLOCK`` rows.

Trials run in index order in one thread. A write trial inverts ``u0`` into
the number of rounds to the herald (``dfsmem.protocol._herald_rounds``,
which :func:`dfsmem.protocol.write_memory` also uses) and then, unless
censored past ``round_cap``, picks its event as ``bisect_right(cdf, u1)``
over the table's CDF (:func:`dfsmem.protocol.event_cdf`); a remote trial
picks its event from ``u0``. ``RunConfig.threads`` is validated but starts
no threads and changes no byte of the output.

Detection is folded into an exact event table before any sampling: each
detector occupation pattern of the exact pipeline is weighted, for every
click vector of the experiment's click rule
(:data:`dfsmem.protocol.WRITE_CLICK_RULE`,
:data:`dfsmem.protocol.REMOTE_CLICK_RULE`), by the closed form
:meth:`dfsmem.noise.DetectorSpec.clicks_probability` (overall survival and
dark counts), and each trial draws one event from that table. Both tables
come from one fold, :func:`_fold`; an event's ``outcome_index`` is -1 for a
failed remote attempt, so ``outcome_index >= 0`` is success. For the write,
rounds with anything other than exactly one click are repeated; the repeat
loop is drawn as a single geometric variate in the exact per-round herald
probability, which has the same distribution as looping round by round.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .fock import fidelity_pure
from .noise import DetectorSpec, NoiseParams
from .protocol import (
    OUTCOME_OF_DETECTOR,
    REMOTE_CLICK_RULE,
    WRITE_CLICK_RULE,
    _herald_rounds,
    apply_logical_pauli,
    build_remote_setup,
    build_write_setup,
    entangled_state,
    event_cdf,
    joint_emission_state,  # noqa: F401  kept in this namespace for bench/test_bench.py
    pauli_mark,
    remote_transfer,
    write_events,
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
    threads: int = 1  # validated only: trials run in index order in one thread
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
        if self.round_cap < 1:
            raise ValueError("round_cap must be >= 1")
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


# rows per memoised block: one block costs about 60 us to draw, which a
# 100-trial run pays in full, and a 1e4-trial run draws 10 of them
_BLOCK = 1024
_DRAWS = 2  # uniforms per trial: a write trial uses both, a remote trial one


@functools.lru_cache(maxsize=1, typed=True)
def _uniform_block(master_seed: int, start: int) -> tuple[float, ...]:
    """Rows ``start .. start + _BLOCK - 1`` of the run's uniforms, flattened.

    The rows are those of ``Generator(Philox(SeedSequence(master_seed)))
    .random((n, _DRAWS))``: one Philox step yields 4 doubles, so the block
    starts ``start * _DRAWS // 4`` steps in. numpy's SeedSequence validates
    the seed; ``typed`` keeps a float seed from hitting an int seed's block.
    """
    if start < 0:
        raise ValueError("trial index must be >= 0")
    bits = np.random.Philox(np.random.SeedSequence(master_seed))
    bits.advance(start * _DRAWS // 4)
    return tuple(np.random.Generator(bits).random(_BLOCK * _DRAWS).tolist())


def trial_rng(master_seed: int, trial_index: int) -> tuple[float, float]:
    """Trial ``trial_index``'s row ``(u0, u1)`` of the run's uniforms, read
    from the memoised block that holds it."""
    start = trial_index - trial_index % _BLOCK
    k = _DRAWS * (trial_index - start)
    return _uniform_block(master_seed, start)[k:k + _DRAWS]


@dataclass(frozen=True)
class _EventTable:
    """Exact per-round outcome classes for fast, faithful trial sampling."""

    herald_probability: float
    probabilities: np.ndarray  # conditional on herald, per event
    outcome_index: np.ndarray  # into exact_outcome_probs; -1: a failed attempt
    fidelity: np.ndarray  # corrected-memory fidelity for the event; 0 if failed
    exact_outcome_probs: dict[str, float]
    exact_mean_fidelity: float


def _fold(split, rule, det: DetectorSpec, fidelity):
    """Events of an exact ``{pattern: (probability, state)}`` split under a
    ``{clicks: (outcome index or -1, mark)}`` rule: the total weight, the
    probabilities divided by it (unless 0), the outcome indices and fidelities
    (``fidelity(state, mark)`` for a success, 0 for a failure)."""
    probs, index, fids = [], [], []
    for pattern in sorted(split):
        p_pattern, state = split[pattern]
        for clicks, (k, mark) in rule.items():
            w = det.clicks_probability(pattern, clicks)
            if w <= 0.0:
                continue
            probs.append(p_pattern * w)
            index.append(k)
            fids.append(fidelity(state, mark) if k >= 0 else 0.0)
    total = float(sum(probs))
    cond = np.array(probs) / total if total > 0.0 else np.array(probs)
    return total, cond, np.array(index, dtype=int), np.array(fids)


def _write_event_table(cfg: RunConfig) -> _EventTable:
    setup = build_write_setup(cfg.truncation)
    events = write_events(entangled_state(cfg.pc, setup), cfg.alpha, cfg.beta, setup)
    target = setup.logical.logical_state(setup.atomic_registry, cfg.alpha, cfg.beta)
    # |<t|P s>|^2 = |<P t|s>|^2 for the self-inverse (up to phase) marks;
    # equal up to the last bit, since Z is the phase exp(i pi)
    rule = {clicks: (k, pauli_mark(o)) for k, (clicks, o) in enumerate(WRITE_CLICK_RULE.items())}
    marked = {mark: apply_logical_pauli(target, mark, setup.logical) for _, mark in rule.values()}
    det = DetectorSpec(cfg.noise.eta_prime, cfg.noise.p_dc)
    herald, cond, idx, fid = _fold(events, rule, det,
                                   lambda atomic, mark: fidelity_pure(atomic, marked[mark]))
    exact_outcomes = {
        o.value: float(cond[idx == k].sum()) for k, o in enumerate(OUTCOME_OF_DETECTOR)
    }
    exact_fid = float((cond * fid).sum()) if herald > 0.0 else 0.0
    return _EventTable(herald, cond, idx, fid, exact_outcomes, exact_fid)


def _remote_event_table(cfg: RunConfig) -> _EventTable:
    setup = build_remote_setup(cfg.truncation)
    target = setup.r_logical.logical_state(setup.r_registry, cfg.alpha, cfg.beta)

    # marks act on the branch state, once per state and mark; on the target
    # (as in the write table) Z's exp(i pi) phase would move these fidelities
    # in the last bit, which the remote outputs show
    @functools.cache
    def fidelity(r_state, mark):
        return fidelity_pure(apply_logical_pauli(r_state, mark, setup.r_logical), target)

    rule = {clicks: (0 if ok else -1, mark) for clicks, (ok, mark) in REMOTE_CLICK_RULE.items()}
    _, cond, idx, fid = _fold(remote_transfer(cfg.alpha, cfg.beta, setup), rule,
                              DetectorSpec(cfg.noise.eta_prime, cfg.noise.p_dc), fidelity)
    ok = idx >= 0
    success_prob = float(cond[ok].sum())
    mean_fid = float((cond * fid)[ok].sum() / success_prob) if success_prob else 0.0
    return _EventTable(success_prob, cond, idx, fid, {"success": success_prob}, mean_fid)


def _stream_records(cfg: RunConfig, header: str, lines) -> None:
    """Write the header and the formatted, newline-terminated record lines."""
    if cfg.records_csv is None:
        return
    with open(cfg.records_csv, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(lines)


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
    h = table.herald_probability
    cdf = event_cdf(table.probabilities).tolist() if h > 0.0 else None
    cap = cfg.round_cap
    rounds, events = [], []  # event -1: censored
    for i in range(cfg.trial_count):
        u0, u1 = trial_rng(cfg.master_seed, i)
        r = _herald_rounds(u0, h) if cdf is not None else cap + 1  # h = 0: never heralds
        if r <= cap:
            rounds.append(r)
            events.append(bisect_right(cdf, u1))
        else:
            rounds.append(cap)
            events.append(-1)
    # index -1 reads the appended censored entry: no outcome, fidelity 0
    outcome = np.append(table.outcome_index, -1)
    fidelity = np.append(table.fidelity, 0.0)
    names = [o.value for o in OUTCOME_OF_DETECTOR] + ["censored"]  # [-1]: censored
    suffix = [f",{names[k]},{f!r},{int(k < 0)}\n"
              for k, f in zip(outcome.tolist(), fidelity.tolist())]
    _stream_records(cfg, "trial,rounds,outcome,fidelity,censored",
                    (f"{i},{r}{suffix[e]}" for i, (r, e) in enumerate(zip(rounds, events))))
    events = np.array(events, dtype=int)
    rounds = np.array(rounds, dtype=float)
    outcome = outcome[events]
    fidelity = fidelity[events]
    ok = outcome >= 0
    n_ok = int(ok.sum())
    success_rate = n_ok / cfg.trial_count if cfg.trial_count else 0.0
    mean_rounds, rounds_se = _mean_se(rounds[ok])
    freqs, freqs_se = {}, {}
    for k, name in enumerate(OUTCOME_OF_DETECTOR):
        f = float((outcome[ok] == k).sum() / n_ok) if n_ok else 0.0
        freqs[name.value] = f
        freqs_se[name.value] = _freq_se(f, n_ok)
    fid_mean, fid_se = _mean_se(fidelity[ok])
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
    """Sample the two-splitter coincidence transfer, one attempt per trial.

    ``cfg.pc`` changes no number of a remote run: the resource pairs of
    :func:`dfsmem.protocol.remote_transfer` are ideal, so the event table
    depends on the qubit, the truncation and the detectors only.
    """
    table = _remote_event_table(cfg)
    cdf = event_cdf(table.probabilities).tolist()
    events = [bisect_right(cdf, trial_rng(cfg.master_seed, i)[0])
              for i in range(cfg.trial_count)]
    suffix = [f",{int(k >= 0)},{f!r}\n"
              for k, f in zip(table.outcome_index.tolist(), table.fidelity.tolist())]
    _stream_records(cfg, "trial,success,fidelity",
                    (f"{i}{suffix[e]}" for i, e in enumerate(events)))
    events = np.array(events, dtype=int)
    ok = table.outcome_index[events] >= 0
    fidelity = table.fidelity[events]
    n = cfg.trial_count
    n_ok = int(ok.sum())
    success_rate = n_ok / n if n else 0.0
    fid_mean, fid_se = _mean_se(fidelity[ok])
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


def _fidelity_variance(table: _EventTable) -> float:
    """Exact variance of the per-trial fidelity over successful events."""
    success = table.outcome_index >= 0
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
             table.exact_mean_fidelity, _fidelity_variance(table), n)
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
             table.exact_mean_fidelity, _fidelity_variance(table), stats.success_count),
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
