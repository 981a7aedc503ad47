import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dfsmem import trials
from dfsmem.noise import NoiseParams, p1_analytic, preparation_time
from dfsmem.protocol import _herald_rounds, event_cdf, write_memory
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


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.0, TypeError)])
def test_trial_rng_rejects_what_seed_sequence_rejects(seed, error):
    trial_rng(1, 0)  # a cached block for an equal seed must not let it through
    with pytest.raises(error):
        trial_rng(seed, 0)


def test_trial_rng_rejects_negative_index():
    # Philox.advance would wrap a negative step count round
    with pytest.raises(ValueError, match="trial index"):
        trial_rng(1, -1)
