import math

import numpy as np
import pytest

from dfsmem import trials
from dfsmem.noise import NoiseParams, p1_analytic, preparation_time
from dfsmem.trials import (
    DetectorSpec,
    RunConfig,
    oracle_check,
    run_remote_trials,
    run_write_trials,
    trial_rng,
)

IDEAL = NoiseParams(pc=0.01)


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
    # at 2000 trials this seed samples no low-fidelity success, so the
    # empirical fidelity spread is zero; the exact-side error keeps the
    # distance finite
    noise = NoiseParams(pc=0.01, chi=0.7, eta_d=0.8, p_dc=1e-3)
    cfg = RunConfig(trial_count=2000, master_seed=5, pc=0.01, alpha=0.6, beta=0.8,
                    noise=noise)
    stats = run_remote_trials(cfg)
    assert stats.mean_conditional_fidelity_se == 0.0
    report = oracle_check(cfg, experiment="remote")
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
    cfg = RunConfig(trial_count=50, master_seed=9, records_csv=str(path))
    run_remote_trials(cfg)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "trial,success,fidelity"
    assert len(lines) == 51


def test_trial_rng_stream_independence():
    a = trial_rng(99, 0).random(4)
    b = trial_rng(99, 1).random(4)
    a2 = trial_rng(99, 0).random(4)
    assert np.array_equal(a, a2)
    assert not np.array_equal(a, b)
