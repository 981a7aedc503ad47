"""Acceptance suite: one test per release criterion, each at its stated
tolerance and runtime budget, printing a PASS line when it holds."""

import json
import math
import time

import numpy as np
import pytest

from dfsmem.fock import (
    PureState,
    apply_elements,
    apply_unitary,
    basis_state,
    born_probabilities,
    embed_state,
    fidelity_pure,
    photon_mode,
    product_state,
    register_modes,
    superposition,
)
from dfsmem.noise import NoiseParams, end_to_end_fidelity
from dfsmem.optics import loss_coupler, phase_shifter
from dfsmem.protocol import (
    BellOutcome,
    REMOTE_CLICK_RULE,
    apply_logical_pauli,
    build_read_setup,
    build_remote_setup,
    build_write_setup,
    joint_emission_state,
    remote_transfer,
    write_branches,
)
from dfsmem.trials import RunConfig, oracle_check, run_remote_trials
from dfsmem.cli import main
from dense_oracle import sparse_vs_dense


def random_qubit(rng) -> tuple[complex, complex]:
    v = rng.normal(size=4)
    alpha, beta = complex(v[0], v[1]), complex(v[2], v[3])
    norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    return alpha / norm, beta / norm


def test_criterion_1_fig4a_endpoint(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "fig4a.csv"
    code = main([
        "curves-fig4a", "--eta-prime", repr(1 / 3), "--f-p", "10e6",
        "--t-min", "15e-6", "--t-max", "50e-6", "--points", "100",
        "--output", str(out),
    ])
    assert code == 0
    rows = [
        tuple(float(x) for x in ln.split(","))
        for ln in out.read_text().strip().splitlines()[1:]
    ]
    elapsed = time.perf_counter() - t0
    assert len(rows) == 100
    t_first, f_first = rows[0]
    assert t_first == pytest.approx(15e-6, abs=1e-18)
    assert abs(f_first - 0.9900) < 1e-6
    assert all(f > 0.99 for t, f in rows[1:])
    assert elapsed < 1.0
    print(f"[acceptance] criterion 1 PASS: F(15us)={f_first:.8f}, "
          f"all later grid points above 0.99, runtime {elapsed:.3f}s")


def test_criterion_2_fig4b_sensitivity(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "fig4b.csv"
    code = main([
        "curves-fig4b", "--f-p", "10e6", "--t-list", "2e-05;3e-05;4e-05",
        "--eta-min", "0.1", "--eta-max", "1.0", "--points", "10",
        "--output", str(out),
    ])
    assert code == 0
    rows = [
        tuple(float(x) for x in ln.split(","))
        for ln in out.read_text().strip().splitlines()[1:]
    ]
    elapsed = time.perf_counter() - t0
    curve = {T: {} for T in (2e-5, 3e-5, 4e-5)}
    for eta, dF, T in rows:
        curve[T][round(eta, 12)] = dF
    drop = curve[2e-5][0.1] - curve[2e-5][1.0]
    assert abs(drop - 0.0225) < 1e-6
    for eta in curve[2e-5]:
        assert curve[3e-5][eta] < curve[2e-5][eta]
        assert curve[4e-5][eta] < curve[3e-5][eta]
    assert elapsed < 1.0
    print(f"[acceptance] criterion 2 PASS: dF(0.1)-dF(1.0)={drop:.6f}, "
          f"longer prep-time curves strictly below, runtime {elapsed:.3f}s")


def test_criterion_3_teleportation_identity():
    t0 = time.perf_counter()
    setup = build_write_setup()
    reg = setup.atomic_registry
    rng = np.random.default_rng(2024)
    worst_prob = 0.0
    worst_fid = 0.0
    for _ in range(100):
        alpha, beta = random_qubit(rng)
        target = setup.logical.logical_state(reg, alpha, beta)
        branches = write_branches(alpha, beta, 0.01, setup)
        assert len(branches) == 4
        for branch in branches.values():
            worst_prob = max(worst_prob, abs(branch.probability - 0.25))
            corrected = apply_logical_pauli(branch.atomic_state, branch.mark, setup.logical)
            worst_fid = max(worst_fid, abs(fidelity_pure(corrected, target) - 1.0))
    elapsed = time.perf_counter() - t0
    assert worst_prob < 1e-12
    assert worst_fid < 1e-10
    assert elapsed < 10.0
    print(f"[acceptance] criterion 3 PASS: 100 random qubits, outcome "
          f"probabilities within {worst_prob:.2e} of 1/4, corrected fidelity "
          f"within {worst_fid:.2e} of 1, runtime {elapsed:.2f}s")


def test_criterion_4_bsm_determinism():
    setup = build_write_setup()
    s = 1 / math.sqrt(2)

    def photon_pattern(pol, spot):
        return basis_state(setup.registry, {setup.photon(pol, spot): 1}).support()[0]

    bells = {
        BellOutcome.PSI_PLUS: {photon_pattern("H", "path-b"): s, photon_pattern("V", "path-a"): s},
        BellOutcome.PSI_MINUS: {photon_pattern("H", "path-b"): s, photon_pattern("V", "path-a"): -s},
        BellOutcome.PHI_PLUS: {photon_pattern("H", "path-a"): s, photon_pattern("V", "path-b"): s},
        BellOutcome.PHI_MINUS: {photon_pattern("H", "path-a"): s, photon_pattern("V", "path-b"): -s},
    }
    order = (BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS,
             BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS)
    worst_off = 0.0
    for outcome, table in bells.items():
        analyzed = apply_elements(PureState(setup.registry, table), setup.bsm_elements())
        probs = born_probabilities(analyzed, setup.detectors)
        target = tuple(1 if i == order.index(outcome) else 0 for i in range(4))
        assert probs.get(target, 0.0) == pytest.approx(1.0, abs=1e-12)
        for pattern, prob in probs.items():
            if pattern != target:
                worst_off = max(worst_off, math.sqrt(prob))
    assert worst_off < 1e-12
    print(f"[acceptance] criterion 4 PASS: each Bell state reaches its "
          f"detector, max off-target amplitude {worst_off:.2e}")


def test_criterion_5_remote_transfer():
    t0 = time.perf_counter()
    setup = build_remote_setup()
    rng = np.random.default_rng(55)
    alpha, beta = random_qubit(rng)
    split = remote_transfer(alpha, beta, setup)
    verdicts = {pattern: REMOTE_CLICK_RULE[tuple(n >= 1 for n in pattern)] for pattern in split}
    success = sum(split[pattern][0] for pattern, (ok, _) in verdicts.items() if ok)
    assert abs(success - 0.5) < 1e-12
    target = setup.r_logical.logical_state(setup.r_registry, alpha, beta)
    worst = 0.0
    for pattern, (ok, mark) in verdicts.items():
        if ok:
            corrected = apply_logical_pauli(split[pattern][1], mark, setup.r_logical)
            worst = max(worst, abs(fidelity_pure(corrected, target) - 1.0))
    assert worst < 1e-10

    stats = run_remote_trials(
        RunConfig(trial_count=100_000, master_seed=404, alpha=alpha, beta=beta,
                  noise=NoiseParams(chi=0.5))
    )
    sigma = math.sqrt(0.125 * 0.875 / stats.trial_count)
    assert abs(stats.success_rate - 0.125) < 3 * sigma
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"[acceptance] criterion 5 PASS: exact success 1/2, corrected "
          f"fidelity within {worst:.2e} of 1, sampled rate "
          f"{stats.success_rate:.4f} vs 0.125 at survival 0.5, runtime {elapsed:.1f}s")


def test_criterion_6_delta_f_envelope():
    ratios = []
    for pc in (1e-3, 5e-3, 1e-2, 5e-2):
        report = end_to_end_fidelity(pc, NoiseParams(pc=pc, eta_d=1.0, p_dc=0.0))
        assert 0.5 * pc <= report.delta_F <= 2.0 * pc
        ratios.append(report.delta_F / pc)
    print(f"[acceptance] criterion 6 PASS: dF/pc in "
          f"[{min(ratios):.3f}, {max(ratios):.3f}] over the pc grid")


def test_criterion_7_oracle_equivalence():
    t0 = time.perf_counter()
    setup = build_write_setup()
    rng = np.random.default_rng(314)
    worst = 0.0
    for _ in range(3):
        alpha, beta = random_qubit(rng)
        state = joint_emission_state(0.05, setup)
        elements = (
            setup.entangle_elements()
            + setup.encode_elements(alpha, beta)
            + setup.bsm_elements()
        )
        for el in elements:
            worst = max(worst, sparse_vs_dense(state, el))
            state = apply_unitary(state, el)

    # the remote and read networks exactly as remote_transfer and
    # read_memory lift them, then one loss coupler into a sink mode
    remote = build_remote_setup()
    sender = superposition(remote.registry, [({remote.i2: 1}, 0.6), ({remote.i1: 1}, 0.8)])
    resource = superposition(remote.registry, [
        ({remote.l1: 1, remote.r2: 1}, 1 / math.sqrt(2)),
        ({remote.l2: 1, remote.r1: 1}, 1 / math.sqrt(2)),
    ])
    state = product_state(sender, resource)
    for el in remote.transfer_elements():
        worst = max(worst, sparse_vs_dense(state, el))
        state = apply_unitary(state, el)

    read = build_read_setup()
    state = superposition(read.registry, [({read.s_r: 1}, 0.6), ({read.s_l: 1}, 0.8)])
    for el in read.read_elements():
        worst = max(worst, sparse_vs_dense(state, el))
        state = apply_unitary(state, el)
    sink = photon_mode("loss-sink", "H", "read-out")
    lossy = embed_state(state, register_modes(list(read.registry.labels) + [sink], read.d))
    worst = max(worst, sparse_vs_dense(lossy, loss_coupler(read.out_h, sink, 0.37)))
    assert worst < 1e-12

    report = oracle_check(
        RunConfig(trial_count=100_000, master_seed=2718, pc=0.01,
                  noise=NoiseParams(pc=0.01)),
        tolerance_sigmas=3.0,
    )
    assert report.passed, [e for e in report.entries if e.flagged]
    report_noisy = oracle_check(
        RunConfig(trial_count=100_000, master_seed=1618, pc=0.01,
                  noise=NoiseParams(pc=0.01, chi=0.6, eta_d=0.8, p_dc=1e-5)),
        tolerance_sigmas=3.0,
    )
    assert report_noisy.passed, [e for e in report_noisy.entries if e.flagged]
    elapsed = time.perf_counter() - t0
    print(f"[acceptance] criterion 7 PASS: max sparse-vs-dense amplitude "
          f"deviation {worst:.2e} over every pipeline element; sampled "
          f"frequencies within 3 sigma of exact values, runtime {elapsed:.1f}s")


def test_criterion_8_determinism_across_threads(tmp_path):
    outputs = []
    for threads in ("1", "8"):
        path = tmp_path / f"teleport-{threads}.json"
        code = main([
            "teleport", "--trials", "30000", "--seed", "97",
            "--threads", threads, "--output", str(path),
        ])
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]

    remote_outputs = []
    for threads in ("1", "8"):
        path = tmp_path / f"remote-{threads}.json"
        code = main([
            "remote-transfer", "--trials", "30000", "--seed", "98",
            "--threads", threads, "--output", str(path),
        ])
        assert code == 0
        remote_outputs.append(path.read_bytes())
    assert remote_outputs[0] == remote_outputs[1]
    print("[acceptance] criterion 8 PASS: identical seed gives byte-identical "
          "outputs at thread counts 1 and 8")


def test_criterion_9_dfs_collective_dephasing():
    setup = build_write_setup()
    reg = setup.atomic_registry
    rng = np.random.default_rng(16)
    alpha, beta = random_qubit(rng)
    state = setup.logical.logical_state(reg, alpha, beta)
    worst = 0.0
    for k in range(16):
        theta = 2 * math.pi * k / 16
        dephased = apply_unitary(
            state, phase_shifter([setup.s_l, setup.s_r], [theta, theta])
        )
        phase = complex(math.cos(theta), math.sin(theta))
        for p in state.support():
            assert abs(dephased.amplitude(p) - phase * state.amplitude(p)) < 1e-15
        worst = max(worst, abs(fidelity_pure(dephased, state) - 1.0))
    # the suppression is algebraically exact: deviation is double rounding
    # (a few ulp), independent of theta, far inside every physical tolerance
    assert worst <= 1e-15
    print(f"[acceptance] criterion 9 PASS: collective dephasing leaves the "
          f"logical state fixed; max fidelity deviation {worst:.2e} "
          f"(machine rounding) over 16 phase values")
