"""Seeded Monte Carlo layer over the exact pipeline.

Each trial owns one row of the run's uniforms: trial i reads row i of
``Generator(Philox(SeedSequence(master_seed))).random((n, 2))``, bit for
bit, whatever n. Philox is counter-based (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11), so any row is reached by advancing
the counter, without drawing the rows before it. :func:`trial_rng` returns
trial i's row as a tuple ``(u0, u1)``, sliced from a flat block of
``_BLOCK`` rows, or of just the run's rows for a run shorter than that;
the last block drawn is kept in a one-entry memo.

With ``records_csv`` set, a run also writes one CSV line per trial. The
lines are built as bytes, 4,096 rows at a time: one NUL-padded ``uint8``
matrix holds each row's trial index digits, its rounds digits and its
event's precomputed suffix, and dropping the NULs leaves the lines, written
with one call per chunk. The bytes are those that formatting each line
with ``f"{i},{rounds}{suffix}"`` gives.

A run reads its rows with one :func:`trial_rng` call per trial into one
``(n, 2)`` array, and everything after that is one numpy pass. A write
inverts every ``u0`` into the number of rounds to the herald with
``np.log1p`` and redoes each row whose quotient lies within ``_RECHECK_TOL``
of an integer with the scalar rule ``dfsmem.protocol._herald_rounds`` (which
:func:`dfsmem.protocol.write_memory` also uses), so the rounds do not depend
on numpy's SIMD dispatch. Unless censored past ``round_cap``, it picks its
event as ``searchsorted(cdf, u1, side="right")`` over the table's CDF
(:func:`dfsmem.protocol.event_cdf`), the index ``bisect_right`` gives; a
remote trial picks its event from ``u0``. ``RunConfig.threads`` is validated
but starts no threads and changes no byte of the output.

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
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from .fock import fidelity_pure, ordered_sum
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
        if self.round_cap >= 2**62:
            raise ValueError("round_cap must be below 2**62: rounds are counted in int64")
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


# rows per block: one block costs about 60 us to draw, and a 1e4-trial run
# draws 10 of them; a shorter run draws its own rows only (_run_rows)
_BLOCK = 1024
_DRAWS = 2  # uniforms per trial: a write trial uses both, a remote trial one


def _uniform_block(master_seed: int, start: int, rows: int = _BLOCK) -> tuple[float, ...]:
    """Rows ``start .. start + rows - 1`` of the run's uniforms, flattened.

    The rows are those of ``Generator(Philox(SeedSequence(master_seed)))
    .random((n, _DRAWS))``: one Philox step yields 4 doubles, so the block
    starts ``start * _DRAWS // 4`` steps in. numpy's SeedSequence validates
    the seed.
    """
    if start < 0:
        raise ValueError("trial index must be >= 0")
    bits = np.random.Philox(np.random.SeedSequence(master_seed))
    bits.advance(start * _DRAWS // 4)
    return tuple(np.random.Generator(bits).random(rows * _DRAWS).tolist())


# (type(seed), seed, start, block) of the last block drawn, one immutable
# tuple replaced whole. The block stays flat: kept as _BLOCK row tuples, it
# tripled exact-mix's latency tail in a trial (likely the garbage collector)
_block_memo: tuple = (None, None, 0, ())


def trial_rng(master_seed: int, trial_index: int) -> tuple[float, float]:
    """Trial ``trial_index``'s row ``(u0, u1)`` of the run's uniforms, read
    from the block that holds it (the last block drawn is kept)."""
    global _block_memo
    kind, seed, start, block = _block_memo  # read once: a concurrent caller can only redraw
    k = _DRAWS * (trial_index - start)
    # the type check keeps a float seed from reading an equal int seed's rows
    if not (0 <= k < len(block) and seed == master_seed and kind is type(master_seed)):
        start = trial_index - trial_index % _BLOCK
        block = _uniform_block(master_seed, start)
        _block_memo = (type(master_seed), master_seed, start, block)
        k = _DRAWS * (trial_index - start)
    return block[k:k + _DRAWS]


def _draw_short_run(master_seed: int, n: int) -> None:
    """Put rows 0 .. n - 1 of a run shorter than a block in the memo, as
    whole Philox steps (two rows each), so that its :func:`trial_rng` reads
    draw no more; longer runs draw whole blocks."""
    global _block_memo
    if 0 < n < _BLOCK:
        block = _uniform_block(master_seed, 0, n + n % 2)
        _block_memo = (type(master_seed), master_seed, 0, block)


def _run_rows(master_seed: int, n: int) -> np.ndarray:
    """The ``(n, 2)`` uniforms of an n-trial run, read with one
    :func:`trial_rng` call per trial."""
    _draw_short_run(master_seed, n)
    rows = chain.from_iterable(map(trial_rng, repeat(master_seed, n), range(n)))
    return np.fromiter(rows, float, _DRAWS * n).reshape(n, _DRAWS)


# a rounds quotient within this relative distance of an integer is redone
# with math.log1p: np.log1p can differ from it in the last bits, by SIMD
# dispatch, which moves the quotient by far less than this
_RECHECK_TOL = 1e-12


def _rounds_pass(u0: np.ndarray, h: float, cap: int) -> np.ndarray:
    """``min(_herald_rounds(u, h), cap + 1)`` for every ``u`` in ``u0``, and
    ``cap + 1`` (censored) everywhere for ``h = 0``, in one numpy pass.

    Away from integers a last-bit change of the quotient cannot move its
    ceiling, so only the rows near one (or not finite) take the scalar
    reference, and the result does not depend on how numpy computes log1p.
    The quotient is never negative, and 0 counts as near, so the scalar
    rule's floor of one round holds everywhere.
    """
    if h <= 0.0:  # never heralds
        return np.full(u0.shape, cap + 1, dtype=np.int64)
    if h >= 1.0:  # as in _herald_rounds: the first round heralds
        return np.ones(u0.shape, dtype=np.int64)
    q = np.log1p(-u0) / math.log1p(-h)
    rounds = np.minimum(np.ceil(q), cap + 1).astype(np.int64)
    near = np.flatnonzero(~(np.abs(q - np.rint(q)) > _RECHECK_TOL * q))
    rounds[near] = [min(_herald_rounds(u, h), cap + 1) for u in u0[near].tolist()]
    return rounds


@dataclass(frozen=True)
class _EventTable:
    """Exact per-round outcome classes for fast, faithful trial sampling."""

    herald_probability: float
    probabilities: np.ndarray  # conditional on herald, per event
    outcome_index: np.ndarray  # into OUTCOME_OF_DETECTOR; -1: a failed attempt
    fidelity: np.ndarray  # corrected-memory fidelity for the event; 0 if failed


# the click rules in fold form, ((clicks, outcome index or -1, mark), ...)
_WRITE_RULE = tuple((clicks, k, pauli_mark(o))
                    for k, (clicks, o) in enumerate(WRITE_CLICK_RULE.items()))
_REMOTE_RULE = tuple((clicks, 0 if ok else -1, mark)
                     for clicks, (ok, mark) in REMOTE_CLICK_RULE.items())


@functools.lru_cache(maxsize=64)
def _click_weights(det: DetectorSpec, rule: tuple) -> dict:
    """Memo from a detector pattern to ``det.clicks_probability(pattern,
    clicks)`` of each click vector of ``rule``, in rule order, one per
    detector model and rule; a truncation d bounds it to d^4 patterns."""
    return {}


def _fold(split, rule, det: DetectorSpec, marked):
    """Events of an exact ``{pattern: (probability, state)}`` split under a
    fold-form rule (:data:`_WRITE_RULE`, :data:`_REMOTE_RULE`): the total
    weight, the probabilities divided by it (unless 0), the outcome indices
    and fidelities (``|<marked[mark]|state>|^2`` for a success, 0 for a
    failure).

    ``marked`` holds the target under each success's mark: |<t|P s>|^2 =
    |<P t|s>|^2 for the self-inverse (up to sign) marks, and with the exact
    signs of :func:`dfsmem.protocol.apply_logical_pauli` the two agree to
    the last bit."""
    weights = _click_weights(det, rule)
    probs, index, fids = [], [], []
    for pattern in sorted(split):
        p_pattern, state = split[pattern]
        pattern_weights = weights.get(pattern)
        if pattern_weights is None:
            pattern_weights = weights[pattern] = [
                det.clicks_probability(pattern, clicks) for clicks, _, _ in rule]
        overlaps = {}  # mark -> fidelity, computed once per pattern
        for w, (_, k, mark) in zip(pattern_weights, rule):
            if w <= 0.0:
                continue
            probs.append(p_pattern * w)
            index.append(k)
            f = overlaps.get(mark) if k >= 0 else 0.0
            if f is None:
                f = overlaps[mark] = fidelity_pure(state, marked[mark])
            fids.append(f)
    total = ordered_sum(probs)
    cond = np.array(probs) / total if total > 0.0 else np.array(probs)
    arrays = cond, np.array(index, dtype=int), np.array(fids)
    for a in arrays:  # the memoised tables are shared between callers
        a.setflags(write=False)
    return (total, *arrays)


def _marked(target, rule, qmap) -> dict:
    """The target under each mark of a success of ``rule``, for :func:`_fold`."""
    return {mark: apply_logical_pauli(target, mark, qmap) for _, k, mark in rule if k >= 0}


def _last_table(build):
    """One-entry memo of an event-table builder, keyed by the RunConfig
    object itself: ``oracle_check`` reads the table that its
    ``run_*_trials(cfg)`` call just built, while a new config, even an
    equal one, builds its own."""
    last: list[tuple | None] = [None]

    @functools.wraps(build)
    def table(cfg: RunConfig) -> _EventTable:
        entry = last[0]
        if entry is None or entry[0] is not cfg:
            entry = last[0] = (cfg, build(cfg))
        return entry[1]

    return table


@_last_table
def _write_event_table(cfg: RunConfig) -> _EventTable:
    setup = build_write_setup(cfg.truncation)
    events = write_events(entangled_state(cfg.pc, setup), cfg.alpha, cfg.beta, setup)
    target = setup.logical.logical_state(setup.atomic_registry, cfg.alpha, cfg.beta)
    det = DetectorSpec(cfg.noise.eta_prime, cfg.noise.p_dc)
    return _EventTable(*_fold(events, _WRITE_RULE, det,
                              _marked(target, _WRITE_RULE, setup.logical)))


@_last_table
def _remote_event_table(cfg: RunConfig) -> _EventTable:
    setup = build_remote_setup(cfg.truncation)
    target = setup.r_logical.logical_state(setup.r_registry, cfg.alpha, cfg.beta)
    _, cond, idx, fid = _fold(remote_transfer(cfg.alpha, cfg.beta, setup), _REMOTE_RULE,
                              DetectorSpec(cfg.noise.eta_prime, cfg.noise.p_dc),
                              _marked(target, _REMOTE_RULE, setup.r_logical))
    return _EventTable(float(cond[idx >= 0].sum()), cond, idx, fid)


# rows per write: a chunk's byte matrix stays a few hundred kB, so a long
# run's records never exist whole in memory
_CHUNK = 4096
_POW10 = 10 ** np.arange(19, dtype=np.int64)  # 1 .. 10**18: every int64 below 2**63


def _digits(values: np.ndarray) -> np.ndarray:
    """The ASCII decimal digits of non-negative int64 ``values``, one row
    each, right-aligned and NUL-padded on the left to the widest value."""
    width = int(np.searchsorted(_POW10, values.max(initial=0), side="right")) or 1
    digits = np.empty((len(values), width), dtype=np.uint8)
    v = values
    for k in range(width - 1, -1, -1):  # a scalar divisor: numpy divides fast
        q = v // 10
        digits[:, k] = v - 10 * q
        v = q
    digits += ord("0")
    digits *= np.maximum(values, 1)[:, None] >= _POW10[width - 1::-1]  # NUL leading zeros
    return digits


def _write_records(path: str, header: str, suffixes: list[str], events: np.ndarray,
                   rounds: np.ndarray | None = None) -> None:
    """Write the header line, then for each trial i the line ``i``, then
    ``,rounds[i]`` if rounds are given, then ``suffixes[events[i]]`` (-1:
    the last suffix); every value is a non-negative int64.

    Each chunk of up to ``_CHUNK`` rows is one NUL-padded ``uint8`` matrix:
    the index digits, a comma and the rounds digits (see :func:`_digits`),
    then the event's suffix bytes, NUL-padded at their end. Dropping every
    NUL leaves the chunk's lines, which go to the file in one write.
    """
    table = np.array([s.encode() for s in suffixes]).view(np.uint8)
    table = table.reshape(len(suffixes), -1)
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, len(events), _CHUNK):
            stop = min(start + _CHUNK, len(events))
            parts = [_digits(np.arange(start, stop, dtype=np.int64))]
            if rounds is not None:
                parts += [np.full((stop - start, 1), ord(","), dtype=np.uint8),
                          _digits(rounds[start:stop])]
            parts.append(np.take(table, events[start:stop], axis=0))
            block = np.concatenate(parts, axis=1)
            fh.write(block[block != 0])


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


def _write_pass(cfg: RunConfig, table: _EventTable) -> tuple[np.ndarray, np.ndarray]:
    """Every write trial's rounds (``round_cap`` if censored) and event
    (-1 if censored), sampled from the run's rows in one numpy pass. The rows
    are freed on return, before the records and statistics are built."""
    h = table.herald_probability
    cap = cfg.round_cap
    rows = _run_rows(cfg.master_seed, cfg.trial_count)
    rounds = _rounds_pass(rows[:, 0], h, cap)
    if h > 0.0:
        events = np.searchsorted(event_cdf(table.probabilities), rows[:, 1], side="right")
    else:
        events = np.zeros(cfg.trial_count, dtype=np.intp)
    censored = rounds > cap
    events[censored] = -1
    rounds[censored] = cap
    return rounds, events


def run_write_trials(cfg: RunConfig) -> RunStats:
    """Repeat write rounds to herald, per trial, and aggregate statistics.

    Per trial the number of rounds is geometric in the exact herald
    probability (trials past ``round_cap`` are censored), and the heralding
    round's detection event is drawn from the exact conditional event table.
    """
    table = _write_event_table(cfg)
    rounds, events = _write_pass(cfg, table)
    # index -1 reads the appended censored entry: no outcome, fidelity 0
    outcome = np.append(table.outcome_index, -1)
    fidelity = np.append(table.fidelity, 0.0)
    if cfg.records_csv is not None:
        names = [o.value for o in OUTCOME_OF_DETECTOR] + ["censored"]  # [-1]: censored
        suffix = [f",{names[k]},{f!r},{int(k < 0)}\n"
                  for k, f in zip(outcome.tolist(), fidelity.tolist())]
        _write_records(cfg.records_csv, "trial,rounds,outcome,fidelity,censored",
                       suffix, events, rounds)
    outcome = outcome[events]
    fidelity = fidelity[events]
    ok = outcome >= 0
    # counts[0]: censored trials, counts[1 + k]: outcome k
    counts = np.bincount(outcome + 1, minlength=len(OUTCOME_OF_DETECTOR) + 1)
    n_ok = cfg.trial_count - int(counts[0])
    success_rate = n_ok / cfg.trial_count if cfg.trial_count else 0.0
    mean_rounds, rounds_se = _mean_se(rounds[ok].astype(float))
    freqs, freqs_se = {}, {}
    for k, name in enumerate(OUTCOME_OF_DETECTOR, 1):
        f = float(counts[k] / n_ok) if n_ok else 0.0
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
    events = np.searchsorted(event_cdf(table.probabilities),
                             _run_rows(cfg.master_seed, cfg.trial_count)[:, 0], side="right")
    if cfg.records_csv is not None:
        suffix = [f",{int(k >= 0)},{f!r}\n"
                  for k, f in zip(table.outcome_index.tolist(), table.fidelity.tolist())]
        _write_records(cfg.records_csv, "trial,success,fidelity", suffix, events)
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


def _fidelity_variance(table: _EventTable, mean: float) -> float:
    """Exact variance of the per-trial fidelity over successful events,
    whose exact mean is ``mean``."""
    success = table.outcome_index >= 0
    weights = table.probabilities[success]
    total = weights.sum()
    if total <= 0.0:
        return 0.0
    spread = table.fidelity[success] - mean
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
    passing deliberately wrong values is the negative control. A
    ``tolerance_sigmas`` that is not positive and finite raises ValueError.
    """
    if not 0.0 < tolerance_sigmas < math.inf:  # fails on NaN too
        raise ValueError(f"tolerance_sigmas={tolerance_sigmas} must be positive and finite")
    if cfg.trial_count == 0:
        return OracleReport((), tolerance_sigmas, insufficient_data=True)
    expected_cfg = cfg
    if expected_noise is not None:
        expected_cfg = dataclasses.replace(cfg, noise=expected_noise)
    # (name, empirical, exact, exact per-draw variance, draws)
    if experiment == "write":
        stats = run_write_trials(cfg)
        table = _write_event_table(expected_cfg)
        cond, idx, fid = table.probabilities, table.outcome_index, table.fidelity
        h = table.herald_probability
        exact_outcomes = {
            o.value: float(cond[idx == k].sum()) for k, o in enumerate(OUTCOME_OF_DETECTOR)
        }
        exact_fid = float((cond * fid).sum()) if h > 0.0 else 0.0
        n = stats.success_count
        pairs = [
            (f"outcome[{name}]", stats.outcome_frequencies[name], exact,
             exact * (1.0 - exact), n)
            for name, exact in exact_outcomes.items()
        ]
        pairs.append(
            ("mean_conditional_fidelity", stats.mean_conditional_fidelity,
             exact_fid, _fidelity_variance(table, exact_fid), n)
        )
        if h > 0.0:
            # herald effort exposes the survival model, which the
            # herald-conditioned frequencies cannot see; rounds are geometric
            pairs.append(("mean_rounds", stats.mean_rounds, 1.0 / h, (1.0 - h) / h**2, n))
    elif experiment == "remote":
        stats = run_remote_trials(cfg)
        table = _remote_event_table(expected_cfg)
        cond, ok, fid = table.probabilities, table.outcome_index >= 0, table.fidelity
        p = table.herald_probability  # the success probability
        mean_fid = float((cond * fid)[ok].sum() / p) if p else 0.0
        pairs = [
            ("success_rate", stats.success_rate, p, p * (1.0 - p), cfg.trial_count),
            ("mean_conditional_fidelity", stats.mean_conditional_fidelity,
             mean_fid, _fidelity_variance(table, mean_fid), stats.success_count),
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
