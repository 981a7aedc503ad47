import bisect
import builtins
import cmath
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dense_oracle import (
    bsm_elements,
    circular_emission,
    compose,
    embed_state,
    encode_elements,
    eraser_elements,
    permanent_event_table,
    remote_network,
    write_registry,
)
from dfsmem import cli, fock, noise, optics, protocol, trials
from dfsmem.fock import (
    MixedState,
    TruncationOverflowError,
    photon_mode,
    register_modes,
    superposition,
)
from dfsmem.noise import NoiseParams, end_to_end_fidelity, p1_analytic, preparation_time
from dfsmem.protocol import (
    OUTCOME_OF_DETECTOR,
    REMOTE_CLICK_RULE,
    WRITE_CLICK_RULE,
    BellOutcome,
    PauliMark,
    _herald_rounds,
    build_remote_setup,
    build_write_setup,
    event_cdf,
    generate_entanglement,
    read_memory,
    write_memory,
)
from dfsmem.trials import (
    DetectorSpec,
    RunConfig,
    oracle_check,
    run_remote_trials,
    run_write_trials,
    trial_rng,
)

IDEAL = NoiseParams(pc=0.01)
NOISY = NoiseParams(pc=0.01, chi=0.7, eta_d=0.8, p_dc=1e-3)


def test_detector_spec_validation():
    with pytest.raises(ValueError):
        DetectorSpec(efficiency=1.2)
    with pytest.raises(ValueError):
        DetectorSpec(efficiency=0.5, dark_prob=1.0)


def test_run_config_ties_noise_pc_to_run_pc():
    assert RunConfig(10, 1, pc=0.02, noise=NoiseParams(pc=0.01)).noise.pc == 0.02
    # the noise model range-checks the run's pc, not the one it was built with
    with pytest.raises(ValueError, match="pc=0.7"):
        run_write_trials(RunConfig(10, 1, pc=0.7, noise=NoiseParams(pc=0.01)))


def test_thinning_consistency_every_detector():
    # closed form 1 - (1 - eta)^n (1 - p_dark) equals Bernoulli thinning of
    # n photons OR-ed with a dark count, summed over the binomial outcomes
    survival, dark = 0.7, 0.01
    det = DetectorSpec(survival, dark)
    for n in range(4):
        silent = (1.0 - survival) ** n  # no photon of n survives
        thinned = sum(
            math.comb(n, k) * survival**k * (1.0 - survival) ** (n - k)
            for k in range(1, n + 1)
        )
        assert det.click_probability(n) == pytest.approx(thinned + silent * dark, abs=1e-15)


def test_sample_detectors_bernoulli_thinning():
    # one photon through a detector of efficiency 1/3 clicks with probability 1/3
    det = DetectorSpec(1.0 / 3.0)
    assert det.click_probability(1) == pytest.approx(1.0 / 3.0)
    assert det.click_probability(0) == 0.0
    assert det.click_probability(2) == pytest.approx(1.0 - (2.0 / 3.0) ** 2)


def test_sample_detectors_dark_counts():
    # dark window probability equals dark rate over repetition rate:
    # 100 Hz / 10 MHz = 1e-5; without a photon only a dark count clicks
    assert 100.0 / 10e6 == pytest.approx(1e-5)
    p_dark = 1e-3
    det = DetectorSpec(1.0, dark_prob=p_dark)
    assert det.click_probability(0) == pytest.approx(p_dark)
    assert det.click_probability(1) == 1.0


def test_write_trials_uniform_outcomes():
    cfg = RunConfig(trial_count=100_000, master_seed=42, pc=0.01, noise=IDEAL)
    stats = run_write_trials(cfg)
    assert stats.success_count == stats.trial_count
    se = math.sqrt(0.25 * 0.75 / stats.success_count)
    for name, freq in stats.outcome_frequencies.items():
        assert abs(freq - 0.25) < 3 * se, name
    assert abs(sum(stats.outcome_frequencies.values()) - 1.0) < 1e-12


def test_write_trials_preparation_time_consistency():
    noise = NoiseParams(pc=1e-3, chi=0.8)
    cfg = RunConfig(trial_count=100_000, master_seed=11, pc=1e-3, noise=noise)
    stats = run_write_trials(cfg)
    analytic = preparation_time(p1_analytic(noise), noise.f_p)
    assert abs(stats.empirical_T_seconds - analytic) / analytic < 0.02


def test_write_trials_deterministic_repeat():
    cfg = RunConfig(trial_count=2000, master_seed=9, pc=0.01, noise=IDEAL)
    assert run_write_trials(cfg) == run_write_trials(cfg)


def test_write_trials_thread_count_invariance():
    base = dict(trial_count=4000, master_seed=123, pc=0.01, noise=IDEAL)
    one = run_write_trials(RunConfig(threads=1, **base))
    eight = run_write_trials(RunConfig(threads=8, **base))
    assert one == eight


def test_write_trials_censoring():
    cfg = RunConfig(
        trial_count=200, master_seed=5, pc=1e-8, noise=NoiseParams(pc=1e-8),
        round_cap=1000,
    )
    stats = run_write_trials(cfg)
    assert stats.censored_count > 0
    assert stats.success_count + stats.censored_count == 200


def test_run_config_rejects_round_cap_below_one():
    with pytest.raises(ValueError, match="round_cap must be >= 1"):
        RunConfig(5, 1, round_cap=0)
    with pytest.raises(ValueError, match="round_cap must be >= 1"):
        RunConfig(5, 1, round_cap=-3)


def test_run_config_rejects_round_cap_past_int64_rounds():
    RunConfig(5, 1, round_cap=2**62 - 1)
    with pytest.raises(ValueError, match="round_cap must be below 2\\*\\*62"):
        RunConfig(5, 1, round_cap=2**62)


def test_write_trials_no_censoring_at_default_cap():
    noise = NoiseParams(pc=5e-4, chi=0.01)  # herald probability ~1e-5
    cfg = RunConfig(trial_count=300, master_seed=6, pc=5e-4, noise=noise)
    stats = run_write_trials(cfg)
    assert stats.censored_count == 0


def test_write_trials_fidelity_with_imperfect_detectors():
    # eta_d < 1 admits pair-emission contamination: fidelity drops below one
    # by an amount on the pc scale
    noise = NoiseParams(pc=0.02, eta_d=0.5)
    cfg = RunConfig(trial_count=50_000, master_seed=77, pc=0.02, noise=noise)
    stats = run_write_trials(cfg)
    assert 0.9 < stats.mean_conditional_fidelity < 1.0


def test_remote_trials_ideal():
    cfg = RunConfig(trial_count=100_000, master_seed=21, noise=NoiseParams())
    stats = run_remote_trials(cfg)
    se = math.sqrt(0.5 * 0.5 / stats.trial_count)
    assert abs(stats.success_rate - 0.5) < 3 * se
    assert stats.mean_conditional_fidelity == pytest.approx(1.0, abs=1e-10)


def test_remote_trials_survival_squared():
    cfg = RunConfig(trial_count=100_000, master_seed=22, noise=NoiseParams(chi=0.5))
    stats = run_remote_trials(cfg)
    se = math.sqrt(0.125 * 0.875 / stats.trial_count)
    assert abs(stats.success_rate - 0.125) < 3 * se


def test_oracle_check_passes_on_matching_model():
    cfg = RunConfig(trial_count=50_000, master_seed=31, pc=0.01, noise=IDEAL)
    report = oracle_check(cfg, tolerance_sigmas=3.5)
    assert not report.insufficient_data
    assert report.passed, [e for e in report.entries if e.flagged]


def test_oracle_check_flags_wrong_efficiency():
    actual = NoiseParams(pc=0.01, chi=0.5)
    wrong = NoiseParams(pc=0.01, chi=1.0)
    cfg = RunConfig(trial_count=50_000, master_seed=32, pc=0.01, noise=actual)
    report = oracle_check(cfg, tolerance_sigmas=3.5, expected_noise=wrong)
    assert not report.passed
    assert any(e.flagged and e.name == "mean_rounds" for e in report.entries)


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, 0.0, -3.0])
def test_oracle_check_rejects_a_tolerance_outside_the_positive_reals(tolerance):
    # the wrong-efficiency control: at NaN no entry was ever flagged, so this
    # run read passed=True; a negative tolerance fails a correct run
    cfg = RunConfig(trial_count=500, master_seed=5, noise=NoiseParams(eta_d=0.5))
    assert not oracle_check(cfg, 3.0, expected_noise=NoiseParams(eta_d=1.0)).passed
    with pytest.raises(ValueError, match="tolerance_sigmas=.* must be positive and finite"):
        oracle_check(cfg, tolerance, expected_noise=NoiseParams(eta_d=1.0))


def test_oracle_check_remote_experiment():
    cfg = RunConfig(trial_count=50_000, master_seed=33, noise=NoiseParams(chi=0.7))
    report = oracle_check(cfg, tolerance_sigmas=3.5, experiment="remote")
    assert report.passed


def test_oracle_check_remote_rare_failures_not_flagged():
    # a 2000-trial sample with no low-fidelity success has zero empirical
    # fidelity spread; the exact-side error keeps the distance finite. About
    # one seed in eight samples none (P ~ exp(-2.1)), so the case is chosen
    # by that property rather than pinned to a seed
    noise = NoiseParams(pc=0.01, chi=0.7, eta_d=0.8, p_dc=1e-3)

    def cfg(seed):
        return RunConfig(trial_count=2000, master_seed=seed, pc=0.01, alpha=0.6, beta=0.8,
                         noise=noise)

    seed = next((s for s in range(100)
                 if run_remote_trials(cfg(s)).mean_conditional_fidelity_se == 0.0), None)
    assert seed is not None
    report = oracle_check(cfg(seed), experiment="remote")
    assert report.passed, report.entries
    assert all(math.isfinite(e.sigma_distance) for e in report.entries)


def test_oracle_check_expected_noise_keeps_truncation(monkeypatch):
    noise = NoiseParams(pc=0.1, chi=0.7, eta_d=0.8, p_dc=1e-3)
    cfg = RunConfig(trial_count=500, master_seed=12, pc=0.1, noise=noise, truncation=4)
    built = []
    table = trials._write_event_table
    monkeypatch.setattr(trials, "_write_event_table", lambda c: built.append(c) or table(c))
    assert oracle_check(cfg, expected_noise=noise) == oracle_check(cfg)
    # the override swaps the noise model only; every other field is kept
    assert built and all(c == cfg for c in built)


def test_oracle_check_builds_one_table_per_check(monkeypatch):
    built = []
    for name in ("entangled_state", "remote_transfer"):
        fn = getattr(trials, name)
        monkeypatch.setattr(trials, name,
                            lambda *a, fn=fn, name=name: built.append(name) or fn(*a))
    cfg = RunConfig(trial_count=300, master_seed=3, pc=0.1, alpha=0.6, beta=0.8j,
                    noise=NOISY, truncation=4)
    write, remote = oracle_check(cfg), oracle_check(cfg, experiment="remote")
    assert built == ["entangled_state", "remote_transfer"]
    # the same numbers as building the exact side afresh
    assert write == oracle_check(cfg, expected_noise=cfg.noise)
    assert remote == oracle_check(cfg, experiment="remote", expected_noise=cfg.noise)
    # an equal but new config builds its own table
    built.clear()
    run_write_trials(dataclasses.replace(cfg))
    assert built == ["entangled_state"]
    # the shared table cannot be written through
    assert not trials._write_event_table(cfg).probabilities.flags.writeable


def test_click_weights_memo_is_bit_identical():
    cfg = RunConfig(1, 1, pc=0.2, noise=NOISY, truncation=4)
    trials._write_event_table(cfg)
    trials._remote_event_table(cfg)
    spec = trials.DetectorSpec(NOISY.eta_prime, NOISY.p_dc)
    for rule in (trials._WRITE_RULE, trials._REMOTE_RULE):
        memo = trials._click_weights(spec, rule)
        # each pattern's weights, one per click vector of the rule, in rule order
        assert memo and all(
            weights == [spec.clicks_probability(pattern, clicks) for clicks, _, _ in rule]
            for pattern, weights in memo.items())


def test_oracle_check_zero_trials():
    cfg = RunConfig(trial_count=0, master_seed=1)
    report = oracle_check(cfg)
    assert report.insufficient_data
    assert report.entries == ()
    assert report.passed


def test_oracle_check_rejects_unknown_experiment():
    with pytest.raises(ValueError, match="unknown experiment 'bogus'"):
        oracle_check(RunConfig(trial_count=1, master_seed=1), experiment="bogus")


def test_write_trials_streams_records(tmp_path):
    path = tmp_path / "records.csv"
    cfg = RunConfig(trial_count=50, master_seed=8, pc=0.01, noise=IDEAL,
                    records_csv=str(path))
    stats = run_write_trials(cfg)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "trial,rounds,outcome,fidelity,censored"
    assert len(lines) == 51
    assert stats.success_count == 50


def test_remote_trials_streams_records(tmp_path):
    path = tmp_path / "remote.csv"
    for noise in (NoiseParams(), NOISY):
        cfg = RunConfig(trial_count=50, master_seed=9, noise=noise, records_csv=str(path))
        stats = run_remote_trials(cfg)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "trial,success,fidelity"
        assert len(lines) == 51
        rows = [line.split(",") for line in lines[1:]]
        assert {s for _, s, _ in rows} <= {"0", "1"}
        assert sum(int(s) for _, s, _ in rows) == stats.success_count
        assert all(f == "0.0" for _, s, f in rows if s == "0")


def test_trial_rng_stream_independence():
    row = trial_rng(99, 0)
    assert row == trial_rng(99, 0)
    assert row != trial_rng(99, 1)


@pytest.mark.parametrize("p", [
    pytest.param([0.5, 0.7, -0.2], id="negative"),
    pytest.param([0.5, np.nan, 0.5], id="nan"),
    pytest.param([0.3, 0.3, 0.3], id="sums-to-0.9"),
])
def test_event_cdf_rejects_invalid_probabilities(p):
    with pytest.raises(ValueError, match="event probabilities"):
        event_cdf(np.array(p))


# the documented stream contract (trial i reads row i of one Philox draw;
# a write inverts u0 into rounds and picks its event with u1, a remote trial
# picks with u0), checked against numpy itself rather than against
# trial_rng, so a wrong fast path in trial_rng cannot hide behind its
# reference
_NAMES = ("PsiPlus", "PsiMinus", "PhiPlus", "PhiMinus")


def _numpy_rows(seed, n):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed))).random((n, 2))


def _numpy_row(seed, i):
    """Row i of ``_numpy_rows(seed, n)``: a Philox step yields 4 doubles, two
    rows, so the counter starts i // 2 steps in."""
    bits = np.random.Philox(np.random.SeedSequence(seed), counter=i // 2)
    return np.random.Generator(bits).random(4)[2 * (i % 2):][:2]


def _stream_row(seed, i):
    return np.array(trial_rng(seed, i))


def _numpy_event(probabilities, u):
    # numpy's own choice(p=...) inversion
    cdf = np.cumsum(probabilities)
    cdf /= cdf[-1]
    return int(np.searchsorted(cdf, u, side="right"))


def _rounds(u, h):
    # the rounds inversion, written out here rather than read from
    # protocol._herald_rounds
    return max(1, math.ceil(math.log1p(-u) / math.log1p(-h)))


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2**256 - 1), st.integers(0, 2**40 - 1))
def test_trial_rng_matches_numpy_seed_sequence(seed, i):
    assert np.array_equal(_stream_row(seed, i), _numpy_row(seed, i))


@pytest.mark.parametrize("seed", [0, 2**32, 2**128 + 5])
@pytest.mark.parametrize("i", [0, 1023, 1024, 4095, 4096, 2**32 - 1, 2**32])
def test_trial_rng_matches_numpy_at_block_and_word_edges(seed, i):
    if i < 4097:
        assert np.array_equal(_stream_row(seed, i), _numpy_rows(seed, 4097)[i])
    assert np.array_equal(_stream_row(seed, i), _numpy_row(seed, i))


def test_uniform_blocks_are_rows_of_one_long_draw():
    # the output cannot depend on how trials are chunked into blocks
    n = 4 * trials._BLOCK
    blocks = [trials._uniform_block(7, start) for start in range(0, n, trials._BLOCK)]
    assert all(isinstance(b, tuple) for b in blocks)  # shared, so immutable
    assert np.array_equal(np.concatenate(blocks), _numpy_rows(7, n).ravel())


def test_trial_stream_holds_two_draws():
    # a trial's stream is exactly its numpy row: a 2-tuple of floats, so
    # unpacking it into (u0, u1) can draw neither fewer nor more
    row = trial_rng(4, 10)
    assert type(row) is tuple and len(row) == 2
    assert all(type(u) is float for u in row)
    assert row == tuple(_numpy_row(4, 10).tolist())


def test_trial_stream_geometric_edges():
    assert _herald_rounds(0.999, 1.0) == 1
    assert _herald_rounds(0.0, 1e-9) == 1
    # a write draws its rounds from the row's first uniform and its event
    # from the second (the four outcomes each have probability 1/4 here)
    a = write_memory(0.6, 0.8, 0.01, (0.2, 0.6))
    b = write_memory(0.6, 0.8, 0.01, (0.9, 0.6))
    assert a.rounds_until_herald < b.rounds_until_herald and a.outcome is b.outcome
    assert a.outcome is not write_memory(0.6, 0.8, 0.01, (0.2, 0.1)).outcome


@pytest.mark.parametrize("p", [1e-6, 0.03, 0.5, 0.9])
def test_trial_stream_geometric_tail(p):
    # P(X > k) = (1 - p)^k: on a fixed grid of u, X > k exactly where
    # u > 1 - (1 - p)^k, up to the rounding of one grid step
    m = 20_000
    us = [(j + 0.5) / m for j in range(m)]
    xs = [_herald_rounds(u, p) for u in us]
    for k in (1, 2, 5, 40):
        tail = sum(x > k for x in xs) / m
        assert abs(tail - (1.0 - p) ** k) <= 1.0 / m, k


def test_write_records_match_numpy_streams(tmp_path):
    path = tmp_path / "write.csv"
    # more trials than two blocks
    cfg = RunConfig(trial_count=2 * trials._BLOCK + 900, master_seed=17, pc=0.01, alpha=0.6,
                    beta=0.8j, noise=NOISY, round_cap=100, records_csv=str(path))
    stats = run_write_trials(cfg)
    table = trials._write_event_table(cfg)
    lines = ["trial,rounds,outcome,fidelity,censored"]
    for i, (u0, u1) in enumerate(_numpy_rows(cfg.master_seed, cfg.trial_count).tolist()):
        rounds = _rounds(u0, table.herald_probability)
        if rounds > cfg.round_cap:
            lines.append(f"{i},{cfg.round_cap},censored,0.0,1")
            continue
        e = _numpy_event(table.probabilities, u1)
        lines.append(f"{i},{rounds},{_NAMES[table.outcome_index[e]]},"
                     f"{float(table.fidelity[e])!r},0")
    assert 0 < stats.censored_count < cfg.trial_count
    assert path.read_text().splitlines() == lines


def test_remote_records_match_numpy_streams(tmp_path):
    path = tmp_path / "remote.csv"
    cfg = RunConfig(trial_count=2 * trials._BLOCK + 900, master_seed=23, pc=0.01, alpha=0.6,
                    beta=0.8j, noise=NOISY, records_csv=str(path))
    run_remote_trials(cfg)
    table = trials._remote_event_table(cfg)
    lines = ["trial,success,fidelity"]
    for i, (u0, _) in enumerate(_numpy_rows(cfg.master_seed, cfg.trial_count).tolist()):
        e = _numpy_event(table.probabilities, u0)
        lines.append(f"{i},{int(table.outcome_index[e] >= 0)},{float(table.fidelity[e])!r}")
    assert path.read_text().splitlines() == lines


def _reference_records(path, header, suffixes, events, rounds=None):
    """The line-at-a-time records writer that trials._write_records
    replaced, kept as its byte reference: one f-string per trial, through
    TextIOWrapper.writelines."""
    if rounds is None:
        lines = (f"{i}{suffixes[e]}" for i, e in enumerate(events.tolist()))
    else:
        lines = (f"{i},{r}{suffixes[e]}"
                 for i, (r, e) in enumerate(zip(rounds.tolist(), events.tolist())))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(lines)


def _writes_reference_bytes(tmp, suffixes, events, rounds=None) -> bool:
    new, ref = tmp / "new.csv", tmp / "ref.csv"
    trials._write_records(str(new), "trial,x", suffixes, events, rounds)
    _reference_records(str(ref), "trial,x", suffixes, events, rounds)
    return new.read_bytes() == ref.read_bytes()


# every decimal width: 0, 9, 10, 11, 99, 100, 101, ..., 10**18 + 1, 2**62 - 1
_DIGIT_BOUNDARIES = sorted({0, 2**62 - 1, *(10**k + d for k in range(1, 19) for d in (-1, 0, 1))})
_CHUNK_EDGES = [0, 1, 4095, 4096, 4097, 3 * 4096 + 5]  # the writer's chunk is 4,096 rows


@settings(deadline=None, max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(n=st.sampled_from(_CHUNK_EDGES),
       pool=st.lists(st.sampled_from(_DIGIT_BOUNDARIES) | st.integers(0, 2**62 - 1),
                     min_size=1, max_size=12),
       fidelities=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
       write_form=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(n=3 * 4096 + 5, pool=_DIGIT_BOUNDARIES, fidelities=[0.0, 1.0, 0.1, 5e-324],
         write_form=True, seed=0)
def test_records_writer_matches_line_writer_bytes(tmp_path_factory, n, pool, fidelities,
                                                 write_form, seed):
    rng = np.random.default_rng(seed)
    if write_form:  # rounds column, outcome suffixes and the censored row at -1
        names = itertools.cycle(_NAMES)
        suffixes = [f",{next(names)},{f!r},0\n" for f in fidelities] + [",censored,0.0,1\n"]
        events = rng.integers(-1, len(fidelities), n)
        rounds = np.array(pool, dtype=np.int64)[rng.integers(0, len(pool), n)]
    else:  # no rounds column: success flag and fidelity
        suffixes = [f",{k % 2},{f!r}\n" for k, f in enumerate(fidelities)]
        events, rounds = rng.integers(0, len(fidelities), n), None
    assert _writes_reference_bytes(tmp_path_factory.mktemp("records"), suffixes, events, rounds)


def test_records_at_the_round_cap_limit_match_reference_lines(tmp_path):
    # chi = 0 never heralds: every trial is censored at a 19-digit round cap
    path = tmp_path / "write.csv"
    n, cap = 3 * 4096 + 5, 2**62 - 1
    cfg = RunConfig(trial_count=n, master_seed=5, noise=NoiseParams(pc=0.01, chi=0.0),
                    round_cap=cap, records_csv=str(path))
    assert run_write_trials(cfg).censored_count == n
    assert path.read_text().splitlines() == [
        "trial,rounds,outcome,fidelity,censored",
        *(f"{i},{cap},censored,0.0,1" for i in range(n))]


def test_records_check_flags_left_aligned_rounds(monkeypatch, tmp_path):
    # ten trials keep the index one digit wide, so only the rounds can move
    suffixes, events = [",a\n"], np.zeros(10, dtype=np.int64)
    rounds = np.array([1, 22, 333, 4, 55, 666, 7777, 8, 9, 10], dtype=np.int64)
    assert _writes_reference_bytes(tmp_path, suffixes, events, rounds)
    digits = trials._digits

    def left_aligned(values):  # the digits first, blank-padded on the right
        d = digits(values)
        d = np.take_along_axis(d, np.argsort(d == 0, axis=1, kind="stable"), axis=1)
        d[d == 0] = ord(" ")
        return d

    monkeypatch.setattr(trials, "_digits", left_aligned)
    assert not _writes_reference_bytes(tmp_path, suffixes, events, rounds)


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.0, TypeError)])
def test_trial_rng_rejects_what_seed_sequence_rejects(seed, error):
    trial_rng(1, 0)  # a cached block for an equal seed must not let it through
    with pytest.raises(error):
        trial_rng(seed, 0)


def test_trial_rng_rejects_negative_index():
    # Philox.advance would wrap a negative step count round; the block of
    # trials 0 .. _BLOCK - 1 just drawn must not serve index -1 either
    trial_rng(1, 5)
    with pytest.raises(ValueError, match="trial index"):
        trial_rng(1, -1)


# the one numpy pass over a run's rows against the scalar rules it replaces:
# protocol._herald_rounds for the rounds and bisect_right for the events


def _scalar_rounds(u0, h, cap):
    return [min(_herald_rounds(u, h), cap + 1) for u in u0]


def _near_integer_rows(hs=(1e-6, 1e-3, 0.01, 0.1, 0.3, 0.5, 0.9, 0.99), ks=range(1, 400)):
    """For each h, uniforms whose rounds quotient lands on, or one ulp of u
    beside, an integer k, where a last-bit change of log1p can move the
    ceiling."""
    rows = {}
    for h in hs:
        us = [-math.expm1(k * math.log1p(-h)) for k in ks]
        rows[h] = [v for u in us for v in (np.nextafter(u, 0.0), u, np.nextafter(u, 1.0))
                   if v < 1.0]
    return rows


def _rows_moved(rows, cap=10**9):
    """How many h of ``rows`` get rounds from the pass other than the scalar rounds."""
    return sum(trials._rounds_pass(np.array(u0), h, cap).tolist() != _scalar_rounds(u0, h, cap)
               for h, u0 in rows.items())


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.floats(1e-300, 1.0),
       st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=50),
       st.integers(1, 2**40))
def test_rounds_pass_matches_scalar_rounds(h, u0, cap):
    assert trials._rounds_pass(np.array(u0), h, cap).tolist() == _scalar_rounds(u0, h, cap)


def test_rounds_pass_matches_scalar_rounds_at_near_integer_quotients():
    assert _rows_moved(_near_integer_rows()) == 0


def test_rounds_pass_recheck_is_what_keeps_the_bytes(monkeypatch):
    # negative control: a log1p one ulp low, as another SIMD kernel might
    # return, still gives the scalar rounds through the recheck, and moves
    # some ceiling once the recheck is switched off
    rows = _near_integer_rows()
    log1p = np.log1p
    monkeypatch.setattr(trials.np, "log1p", lambda x: np.nextafter(log1p(x), -np.inf))
    assert _rows_moved(rows) == 0
    monkeypatch.setattr(trials, "_RECHECK_TOL", 0.0)
    assert _rows_moved(rows) > 0


def test_rounds_pass_edges_of_the_herald_probability():
    u0 = np.array([0.0, 0.3, 0.999999])
    assert trials._rounds_pass(u0, 0.0, 7).tolist() == [8, 8, 8]  # never heralds
    assert trials._rounds_pass(u0, 1.0, 7).tolist() == [1, 1, 1]
    assert trials._rounds_pass(np.array([]), 0.5, 7).tolist() == []
    # u0 = 0 gives the quotient 0, which the scalar rule floors at one round
    assert trials._rounds_pass(np.array([0.0, 5e-324]), 0.9, 7).tolist() == [1, 1]


def test_write_trials_keep_rounds_at_cap_and_censor_past_it(monkeypatch, tmp_path):
    path = tmp_path / "write.csv"
    cfg = RunConfig(trial_count=4, master_seed=1, pc=0.1, noise=NoiseParams(pc=0.1),
                    round_cap=5, records_csv=str(path))
    h = trials._write_event_table(cfg).herald_probability
    # quotients 4.5, 5 - 1e-9, 5.5 and 12: rounds 5, 5, 6 and 13
    rows = [(-math.expm1(q * math.log1p(-h)), 0.5) for q in (4.5, 5 - 1e-9, 5.5, 12.0)]
    assert [_herald_rounds(u, h) for u, _ in rows] == [5, 5, 6, 13]
    monkeypatch.setattr(trials, "trial_rng", lambda seed, i: rows[i])
    stats = run_write_trials(cfg)
    records = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert [(r[1], r[4]) for r in records] == [("5", "0"), ("5", "0"), ("5", "1"), ("5", "1")]
    assert stats.censored_count == 2 and stats.mean_rounds == 5.0


def test_write_trials_never_herald_at_zero_probability(tmp_path):
    path = tmp_path / "write.csv"
    cfg = RunConfig(trial_count=3, master_seed=1, noise=NoiseParams(pc=0.01, chi=0.0),
                    round_cap=9, records_csv=str(path))
    stats = run_write_trials(cfg)
    assert trials._write_event_table(cfg).herald_probability == 0.0
    assert stats.censored_count == 3 and stats.success_count == 0
    assert path.read_text().splitlines()[1:] == [f"{i},9,censored,0.0,1" for i in range(3)]


def test_events_at_cdf_entries_match_bisect_right(monkeypatch, tmp_path):
    # a uniform equal to a CDF entry takes the next event, as bisect_right does
    cfg = RunConfig(trial_count=5, master_seed=1, pc=0.01, noise=IDEAL,
                    records_csv=str(tmp_path / "write.csv"))
    table = trials._write_event_table(cfg)
    cdf = event_cdf(table.probabilities).tolist()
    us = [0.0, *cdf[:-1], 0.5][:5]
    monkeypatch.setattr(trials, "trial_rng", lambda seed, i: (0.5, us[i]))
    run_write_trials(cfg)
    names = [line.split(",")[2] for line in (tmp_path / "write.csv").read_text().splitlines()[1:]]
    expected = [bisect.bisect_right(cdf, u) for u in us]
    assert np.searchsorted(np.array(cdf), us, side="right").tolist() == expected
    assert names == [_NAMES[table.outcome_index[e]] for e in expected]


@pytest.mark.parametrize("run", [run_write_trials, run_remote_trials])
@pytest.mark.parametrize("n", [0, 1, 3])
def test_runs_read_one_row_per_trial(monkeypatch, tmp_path, run, n):
    calls = []

    def counted(seed, i):
        calls.append(i)
        return tuple(_numpy_row(seed, i).tolist())

    monkeypatch.setattr(trials, "trial_rng", counted)
    path = tmp_path / "records.csv"
    stats = run(RunConfig(trial_count=n, master_seed=3, noise=NOISY, records_csv=str(path)))
    assert calls == list(range(n)) and stats.trial_count == n
    assert len(path.read_text().splitlines()) == n + 1


@pytest.mark.parametrize("n", [1, 99, 100, 1023, 1024, 1025])
def test_run_rows_match_numpy_for_any_run_length(monkeypatch, n):
    monkeypatch.setattr(trials, "_block_memo", (None, None, 0, ()))
    assert np.array_equal(trials._run_rows(41, n), _numpy_rows(41, n))


@pytest.mark.parametrize("n, drawn", [
    (1, [(0, 2)]), (99, [(0, 100)]), (100, [(0, 100)]), (1023, [(0, 1024)]),
    (1024, [(0, 1024)]), (1025, [(0, 1024), (1024, 1024)]),
])
def test_a_run_shorter_than_a_block_draws_its_own_rows(monkeypatch, n, drawn):
    # whole Philox steps (two rows) for a short run; whole blocks otherwise
    calls = []
    real = trials._uniform_block

    def counted(seed, start, rows=trials._BLOCK):
        calls.append((start, rows))
        return real(seed, start, rows)

    monkeypatch.setattr(trials, "_uniform_block", counted)
    monkeypatch.setattr(trials, "_block_memo", (None, None, 0, ()))
    trials._run_rows(43, n)
    assert calls == drawn


def test_a_100_trial_run_draws_at_most_100_rows(monkeypatch):
    rows = []
    real = trials._uniform_block

    def counted(seed, start, n=trials._BLOCK):
        rows.append(n)
        return real(seed, start, n)

    monkeypatch.setattr(trials, "_uniform_block", counted)
    for run in (run_write_trials, run_remote_trials):
        rows.clear()
        run(RunConfig(trial_count=100, master_seed=2**33 + 1, noise=NOISY))
        assert 0 < sum(rows) <= 100


def test_trial_rng_memo_keeps_seeds_apart():
    # seeds interleaved across a block edge each read numpy's own rows
    a, b = 11, 2**70 + 3
    for i in (trials._BLOCK - 2, trials._BLOCK - 1, trials._BLOCK, 0, trials._BLOCK + 1):
        for seed in (a, b, a):
            assert np.array_equal(_stream_row(seed, i), _numpy_row(seed, i)), (seed, i)


# -- the folded write table against the permanent oracle ----------------------

_QUBIT = st.tuples(
    st.floats(0.0, math.pi / 2), st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi)
).map(lambda t: (math.cos(t[0]) * cmath.exp(1j * t[1]), math.sin(t[0]) * cmath.exp(1j * t[2])))

# each Bell outcome's correction on the dual-rail amplitudes (c0, c1), as in
# the protocol's detector table: D1 I, D2 Z, D3 X, D4 ZX (X first, then Z)
_CORRECTION = {
    BellOutcome.PSI_PLUS: lambda c0, c1: (c0, c1),
    BellOutcome.PSI_MINUS: lambda c0, c1: (c0, -c1),
    BellOutcome.PHI_PLUS: lambda c0, c1: (c1, c0),
    BellOutcome.PHI_MINUS: lambda c0, c1: (c1, -c0),
}


def _permanent_write_fold(pc, d, alpha, beta, det, rule=WRITE_CLICK_RULE):
    """The noisy write's event table from permanents: the emission sent
    through the composed eraser, encoder and analyzer
    (:func:`dense_oracle.permanent_event_table`), each detector pattern, in
    sorted order, weighted by ``det.clicks_probability`` for every click
    vector of ``rule`` that can fire. Returns the herald probability, the
    conditional probabilities, the outcome indices (into
    ``OUTCOME_OF_DETECTOR``) and the corrected fidelities."""
    setup = build_write_setup(d)
    registry = write_registry(d)
    u = compose(registry, eraser_elements() + encode_elements(alpha, beta) + bsm_elements())
    table = permanent_event_table(embed_state(circular_emission(pc, d), registry), u,
                                  setup.detectors, setup.atomic_registry)
    probs, index, fids = [], [], []
    for pattern in sorted(table):
        p, amps = table[pattern]
        # |0> excites the right ensemble, |1> the left; atomic order (L, R)
        c0, c1 = amps.get((0, 1), 0j), amps.get((1, 0), 0j)
        for clicks, outcome in rule.items():
            w = det.clicks_probability(pattern, clicks)
            if w <= 0.0:
                continue
            x0, x1 = _CORRECTION[outcome](c0, c1)
            probs.append(p * w)
            index.append(OUTCOME_OF_DETECTOR.index(outcome))
            fids.append(abs(alpha.conjugate() * x0 + beta.conjugate() * x1) ** 2)
    herald = sum(probs)
    return herald, [q / herald for q in probs] if herald > 0.0 else probs, index, fids


def _fold_matches(table, oracle, tol=1e-12) -> bool:
    herald, cond, index, fids = oracle
    return (abs(table.herald_probability - herald) <= tol
            and len(table.probabilities) == len(cond)
            and np.allclose(table.probabilities, cond, rtol=0.0, atol=tol)
            and table.outcome_index.tolist() == index
            and np.allclose(table.fidelity, fids, rtol=0.0, atol=tol))


def _noisy_write_config(pc, d, qubit, eta, p_dc):
    # at zero distance eta_prime is chi itself
    return RunConfig(1, 0, pc=pc, alpha=qubit[0], beta=qubit[1],
                     noise=NoiseParams(chi=eta, p_dc=p_dc), truncation=d)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pc=st.floats(0.0, 0.45, exclude_min=True, exclude_max=True),
       d=st.sampled_from([3, 4]), qubit=_QUBIT,
       eta=st.floats(0.0, 1.0), p_dc=st.floats(0.0, 0.01))
def test_folded_write_table_matches_permanent_oracle(pc, d, qubit, eta, p_dc):
    table = trials._write_event_table(_noisy_write_config(pc, d, qubit, eta, p_dc))
    oracle = _permanent_write_fold(pc, d, *qubit, DetectorSpec(eta, p_dc))
    assert _fold_matches(table, oracle)


def test_folded_write_table_oracle_negative_controls():
    qubit = (0.5 * cmath.exp(0.3j), 0.8660254037844386 * cmath.exp(-1.1j))
    table = trials._write_event_table(_noisy_write_config(0.2, 3, qubit, 0.8, 1e-3))
    assert _fold_matches(table, _permanent_write_fold(0.2, 3, *qubit, DetectorSpec(0.8, 1e-3)))
    # the efficiency swapped with its complement
    assert not _fold_matches(table, _permanent_write_fold(0.2, 3, *qubit, DetectorSpec(0.2, 1e-3)))
    # the click rule's outcomes permuted over its click vectors
    clicks, outcomes = list(WRITE_CLICK_RULE), list(WRITE_CLICK_RULE.values())
    permuted = dict(zip(clicks, outcomes[1:] + outcomes[:1]))
    assert not _fold_matches(table, _permanent_write_fold(0.2, 3, *qubit, DetectorSpec(0.8, 1e-3),
                                                          rule=permuted))


# -- the folded remote table against the permanent oracle ---------------------

# the remote marks on the far pair's dual-rail amplitudes (c0, c1)
_REMOTE_CORRECTION = {
    PauliMark.I: lambda c0, c1: (c0, c1),
    PauliMark.Z: lambda c0, c1: (c0, -c1),
}


def _permanent_remote_fold(d, alpha, beta, det, rule=REMOTE_CLICK_RULE):
    """The noisy remote transfer's event table from permanents: the sender
    alpha|i2> + beta|i1> and the resource (|l1 r2> + |l2 r1>)/sqrt(2) sent
    through the composed retrieval swaps and splitters of
    :func:`dense_oracle.remote_network`
    (:func:`dense_oracle.permanent_event_table`), each detector pattern, in
    sorted order, weighted by ``det.clicks_probability`` for every click
    vector of ``rule`` that can fire. Returns the success probability, the
    conditional probabilities, the outcome indices (0 for a coincidence, -1
    for a failure) and the corrected fidelities (0 for a failure)."""
    setup = build_remote_setup(d)
    registry, elements, senders, resource = remote_network(d)
    state = superposition(registry, [
        ({sender: 1, near: 1, far: 1}, amp / math.sqrt(2))
        for sender, amp in zip(senders, (alpha, beta))
        for near, far in resource
    ])
    table = permanent_event_table(state, compose(registry, elements),
                                  setup.detectors, setup.r_registry)
    probs, index, fids = [], [], []
    for pattern in sorted(table):
        p, amps = table[pattern]
        # |0> excites r2, |1> excites r1; far-pair order (r1, r2)
        c0, c1 = amps.get((0, 1), 0j), amps.get((1, 0), 0j)
        for clicks, (ok, mark) in rule.items():
            w = det.clicks_probability(pattern, clicks)
            if w <= 0.0:
                continue
            probs.append(p * w)
            index.append(0 if ok else -1)
            if ok:
                x0, x1 = _REMOTE_CORRECTION[mark](c0, c1)
                fids.append(abs(alpha.conjugate() * x0 + beta.conjugate() * x1) ** 2)
            else:
                fids.append(0.0)
    total = sum(probs)
    cond = [q / total for q in probs]
    return sum(q for q, k in zip(cond, index) if k >= 0), cond, index, fids


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(d=st.sampled_from([3, 4]), qubit=_QUBIT,
       eta=st.floats(0.0, 1.0), p_dc=st.floats(0.0, 0.01))
def test_folded_remote_table_matches_permanent_oracle(d, qubit, eta, p_dc):
    table = trials._remote_event_table(_noisy_write_config(0.01, d, qubit, eta, p_dc))
    oracle = _permanent_remote_fold(d, *qubit, DetectorSpec(eta, p_dc))
    assert _fold_matches(table, oracle)


def test_folded_remote_table_oracle_negative_controls():
    qubit = (0.5 * cmath.exp(0.3j), 0.8660254037844386 * cmath.exp(-1.1j))
    table = trials._remote_event_table(_noisy_write_config(0.01, 3, qubit, 0.8, 1e-3))
    assert _fold_matches(table, _permanent_remote_fold(3, *qubit, DetectorSpec(0.8, 1e-3)))
    # the efficiency swapped with its complement
    assert not _fold_matches(table, _permanent_remote_fold(3, *qubit, DetectorSpec(0.2, 1e-3)))
    # the rule's verdicts permuted over its click vectors
    clicks, verdicts = list(REMOTE_CLICK_RULE), list(REMOTE_CLICK_RULE.values())
    permuted = dict(zip(clicks, verdicts[1:] + verdicts[:1]))
    assert not _fold_matches(table, _permanent_remote_fold(3, *qubit, DetectorSpec(0.8, 1e-3),
                                                           rule=permuted))


def test_warm_requests_lift_only_the_eraser(monkeypatch):
    # the marks and the read-out are closed forms and the analyzer and the
    # transfer are tables and the emission is written past the wave plates
    # and the rotator, so once the tables are built a read and a remote
    # table lift nothing, and a write table lifts the eraser's PBS alone;
    # end_to_end_fidelity works on photon counts and lifts nothing either
    cfg = RunConfig(10, 1, pc=0.1, alpha=0.6, beta=0.8j, noise=NOISY)
    record = write_memory(0.6, 0.8j, 0.1, trial_rng(1, 0))
    trials._write_event_table(cfg)
    trials._remote_event_table(cfg)
    end_to_end_fidelity(0.1, cfg.noise, 0.6, 0.8j)
    lifted = []
    lift = fock.apply_unitary
    monkeypatch.setattr(fock, "apply_unitary",
                        lambda state, element: lifted.append(element.name) or lift(state, element))
    read_memory(record, 0.7)
    assert lifted == []
    trials._remote_event_table(dataclasses.replace(cfg))
    assert lifted == []
    end_to_end_fidelity(0.1, cfg.noise, 0.6, 0.8j)
    assert lifted == []
    trials._write_event_table(dataclasses.replace(cfg))
    assert lifted == ["pbs"]


# -- the same bytes on every Python version -----------------------------------


def _compensated_sum(values, start=0):
    """Builtin ``sum()`` as Python 3.12 and later compute it over floats:
    Neumaier's compensated summation. Anything but a list of floats is
    summed as before."""
    items = list(values)
    if not items or any(type(x) is not float for x in items):
        return builtins.sum(items, start)
    total, c = float(start), 0.0
    for x in items:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


def _byte_path_numbers():
    """The exact numbers the outputs print: every write and remote event
    table, herald, end_to_end_fidelity report and bsm-stats summary of the
    grid's pc values, truncations and detection models."""
    out = []
    for pc, d, model in itertools.product((0.01, 0.1, 0.2), (3, 4), (IDEAL, NOISY)):
        cfg = RunConfig(1, 0, pc=pc, alpha=0.6, beta=0.8j, noise=model, truncation=d)
        for table in (trials._write_event_table(cfg), trials._remote_event_table(cfg)):
            out.append((table.herald_probability, table.probabilities.tolist(),
                        table.outcome_index.tolist(), table.fidelity.tolist()))
        state, herald = generate_entanglement(pc, build_write_setup(d))
        out.append((herald, list(state.items())))
        if d == 3:
            out.append(dataclasses.astuple(end_to_end_fidelity(pc, cfg.noise)))
            argv = ["bsm-stats", "--pc", str(pc), "--alpha", "0.6", "--beta", "0,0.8"]
            out.append(cli._bsm_stats(cli.parse_config(argv))[1])
    return out


def test_byte_path_sums_do_not_depend_on_the_python_version(monkeypatch):
    # compensated summation moves the last bit of every write table's herald
    # probability, among others, wherever builtin sum() adds these floats
    plain = _byte_path_numbers()
    for module in (cli, fock, noise, protocol, trials):
        monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
    assert _compensated_sum([1.0, 1e100, 1.0, -1e100]) == 2.0  # left to right: 0.0
    assert _byte_path_numbers() == plain


def _float_sum_raises(values, start=0):
    """Builtin ``sum()`` that refuses floats, numpy's included, whose total
    Python 3.12 and later can compensate; anything else is summed as
    before."""
    items = list(values)
    if any(isinstance(x, float) for x in items):
        raise AssertionError("a float sum went through builtin sum()")
    return builtins.sum(items, start)


def test_threshold_sums_do_not_depend_on_the_python_version(monkeypatch):
    # the overflow weights decide against OVERFLOW_TOL and the mixture check
    # against NORM_TOL, so their float sums are taken left to right too
    for module in (cli, fock, noise, protocol, trials):
        monkeypatch.setattr(module, "sum", _float_sum_raises, raising=False)
    pair = register_modes([photon_mode("stokes", "H", "x"), photon_mode("stokes", "V", "x")], 2)
    with pytest.raises(TruncationOverflowError) as info:  # both photons bunch past d = 2
        fock.apply_unitary(superposition(pair, [({m: 1 for m in pair.labels}, 1.0)]),
                           optics.bs50(*pair.labels))
    assert info.value.lost_weight == pytest.approx(1.0)
    setup = build_write_setup(3)
    fiber = {setup.photon("H", "fiber"): 2, setup.photon("V", "fiber"): 1}
    with pytest.raises(TruncationOverflowError) as info:
        protocol.write_events(superposition(setup.registry, [(fiber, 1.0)]), 0.6, 0.8, setup)
    assert info.value.lost_weight == 1.0
    one = setup.logical.logical_state(setup.atomic_registry, 0.6, 0.8)
    assert MixedState(((0.25, one), (0.75, one))).components[1][0] == 0.75
