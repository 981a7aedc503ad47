import cmath
import math

import numpy as np
import pytest

from dfsmem.fock import (
    PureState,
    apply_elements,
    apply_unitary,
    basis_state,
    born_probabilities,
    fidelity_mixed,
    fidelity_pure,
    project_total_occupation,
)
from dfsmem import protocol
from dfsmem.optics import phase_shifter
from dfsmem.protocol import (
    BellOutcome,
    OUTCOME_OF_DETECTOR,
    PauliMark,
    REMOTE_CLICK_RULE,
    TrialRecord,
    apply_logical_pauli,
    build_read_setup,
    build_remote_setup,
    build_write_setup,
    classify_remote_clicks,
    encode_spatial,
    entangled_state,
    generate_entanglement,
    ideal_entangled_state,
    pauli_mark,
    photon_present_probability,
    read_memory,
    read_target,
    remote_transfer,
    write_branches,
    write_events,
    write_memory,
)
from dfsmem.trials import trial_rng


def random_qubit(rng) -> tuple[complex, complex]:
    v = rng.normal(size=4)
    alpha = complex(v[0], v[1])
    beta = complex(v[2], v[3])
    norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    return alpha / norm, beta / norm


def test_generate_entanglement_zero_pc():
    state, prob = generate_entanglement(0.0)
    assert state is None
    assert prob == 0.0


def test_generate_entanglement_herald_probability():
    # one-photon weight of the joint emission: 2 pc / (1 + 2 pc + 3 pc^2)
    for pc in (0.001, 0.01, 0.05):
        _, prob = generate_entanglement(pc)
        assert prob == pytest.approx(2 * pc / (1 + 2 * pc + 3 * pc**2), abs=1e-14)
        assert prob == pytest.approx(2 * pc, rel=5 * pc)


def test_generate_entanglement_conditional_state():
    setup = build_write_setup()
    state, _ = generate_entanglement(0.01, setup)
    fid = fidelity_pure(state, ideal_entangled_state(setup))
    assert fid >= 1 - 2 * 0.01
    assert fid == pytest.approx(1.0, abs=1e-12)


def test_encode_spatial_identity_setting():
    setup = build_write_setup()
    state, _ = generate_entanglement(0.01, setup)
    out = encode_spatial(state, 1.0, 0.0, setup)
    path_b = [setup.photon(pol, "path-b") for pol in ("H", "V")]
    _, weight_b = project_total_occupation(out, path_b, 0)
    assert weight_b == pytest.approx(1.0, abs=1e-12)
    assert out.norm() == pytest.approx(1.0, abs=1e-12)


def test_encode_spatial_matches_product_form():
    setup = build_write_setup()
    alpha, beta = cmath.exp(0.3j) * 0.6, cmath.exp(-1.1j) * 0.8
    state, _ = generate_entanglement(0.02, setup)
    out = encode_spatial(state, alpha, beta, setup)
    table = {}
    s = 1 / math.sqrt(2)
    for amp_path, spot in ((alpha, "path-a"), (beta, "path-b")):
        for amp_pol, pol, atom in ((s, "H", setup.s_l), (s, "V", setup.s_r)):
            key = basis_state(
                setup.registry, {atom: 1, setup.photon(pol, spot): 1}
            ).support()[0]
            table[key] = amp_path * amp_pol
    expected = PureState(setup.registry, table)
    assert fidelity_pure(out, expected) == pytest.approx(1.0, abs=1e-12)


def test_encode_spatial_rejects_unnormalized():
    setup = build_write_setup()
    state, _ = generate_entanglement(0.01, setup)
    with pytest.raises(ValueError, match="normalized"):
        encode_spatial(state, 1.0, 0.5, setup)


def test_encode_spatial_rejects_occupied_path():
    setup = build_write_setup()
    state = basis_state(setup.registry, {setup.s_l: 1, setup.photon("V", "path-a"): 1})
    with pytest.raises(ValueError, match="not empty"):
        encode_spatial(state, 0.6, 0.8, setup)


def _bell_state(setup, kind: str) -> PureState:
    s = 1 / math.sqrt(2)
    h_b = basis_state(setup.registry, {setup.photon("H", "path-b"): 1}).support()[0]
    v_a = basis_state(setup.registry, {setup.photon("V", "path-a"): 1}).support()[0]
    h_a = basis_state(setup.registry, {setup.photon("H", "path-a"): 1}).support()[0]
    v_b = basis_state(setup.registry, {setup.photon("V", "path-b"): 1}).support()[0]
    table = {
        "psi+": {h_b: s, v_a: s},
        "psi-": {h_b: s, v_a: -s},
        "phi+": {h_a: s, v_b: s},
        "phi-": {h_a: s, v_b: -s},
    }[kind]
    return PureState(setup.registry, table)


def _detector_table(state, setup) -> dict[tuple[int, ...], float]:
    """Born weights of the detector patterns after the analyzer elements."""
    return born_probabilities(apply_elements(state, setup.bsm_elements()), setup.detectors)


def _single_click(k: int) -> tuple[int, ...]:
    return tuple(1 if i == k else 0 for i in range(4))


def test_bsm_routes_each_bell_state_to_its_detector():
    setup = build_write_setup()
    for idx, kind in enumerate(("psi+", "psi-", "phi+", "phi-")):
        table = _detector_table(_bell_state(setup, kind), setup)
        assert table.get(_single_click(idx), 0.0) == pytest.approx(1.0, abs=1e-12)
        for other in range(4):
            if other != idx:
                assert table.get(_single_click(other), 0.0) < 1e-12


def test_bsm_off_target_amplitudes_negligible():
    setup = build_write_setup()
    for kind in ("psi+", "psi-", "phi+", "phi-"):
        table = _detector_table(_bell_state(setup, kind), setup)
        target = max(range(4), key=lambda k: table.get(_single_click(k), 0.0))
        for pattern, prob in table.items():
            if pattern != _single_click(target):
                assert prob < 1e-24  # amplitude < 1e-12


def test_bsm_uniform_outcomes_for_teleport_input():
    setup = build_write_setup()
    rng = np.random.default_rng(4)
    for _ in range(5):
        alpha, beta = random_qubit(rng)
        state, _ = generate_entanglement(0.01, setup)
        table = _detector_table(encode_spatial(state, alpha, beta, setup), setup)
        for k in range(4):
            assert table[_single_click(k)] == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("pc", [0.01, 0.1, 0.2])
def test_bsm_table_equals_write_branch_probabilities_exactly(pc):
    # complex amplitudes: both Born sums must add |a|^2 as one term
    alpha = 0.5 * cmath.exp(1j * math.radians(30))
    beta = 0.8660254037844386 * cmath.exp(1j * math.radians(-70))
    setup = build_write_setup()
    heralded, _ = generate_entanglement(pc, setup)
    table = _detector_table(encode_spatial(heralded, alpha, beta, setup), setup)
    branches = write_branches(alpha, beta, pc, setup)
    outcomes = (BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS,
                BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS)
    for k, outcome in enumerate(outcomes):
        assert table[_single_click(k)] == branches[outcome].probability


def test_bsm_photons_only_reach_click_modes():
    setup = build_write_setup()
    rng = np.random.default_rng(8)
    alpha, beta = random_qubit(rng)
    state, _ = generate_entanglement(0.01, setup)
    out = apply_elements(
        encode_spatial(state, alpha, beta, setup), setup.bsm_elements()
    )
    dark_modes = [
        setup.photon(pol, spot)
        for pol, spot in (
            ("V", "det-1"), ("H", "det-2"), ("V", "det-3"), ("H", "det-4"),
        )
    ]
    _, vac_weight = project_total_occupation(out, dark_modes, 0)
    assert vac_weight == pytest.approx(1.0, abs=1e-12)


def test_pauli_mark_table():
    assert pauli_mark(BellOutcome.PSI_PLUS) is PauliMark.I
    assert pauli_mark(BellOutcome.PSI_MINUS) is PauliMark.Z
    assert pauli_mark(BellOutcome.PHI_PLUS) is PauliMark.X
    assert pauli_mark(BellOutcome.PHI_MINUS) is PauliMark.ZX
    with pytest.raises(ValueError):
        pauli_mark(BellOutcome.FAILURE)


def test_apply_logical_pauli_actions():
    setup = build_write_setup()
    reg = setup.atomic_registry
    qmap = setup.logical
    zero = qmap.logical_state(reg, 1.0, 0.0)
    assert fidelity_pure(
        apply_logical_pauli(zero, PauliMark.Z, qmap), zero
    ) == pytest.approx(1.0)
    alpha, beta = 0.6, 0.8j
    state = qmap.logical_state(reg, alpha, beta)
    flipped = apply_logical_pauli(state, PauliMark.X, qmap)
    assert fidelity_pure(flipped, qmap.logical_state(reg, beta, alpha)) == pytest.approx(1.0)
    # ZX then XZ: identity up to a global sign
    zx = apply_logical_pauli(state, PauliMark.ZX, qmap)
    xz = apply_logical_pauli(
        apply_logical_pauli(zx, PauliMark.X, qmap), PauliMark.Z, qmap
    )
    assert fidelity_pure(xz, state) == pytest.approx(1.0, abs=1e-12)


def test_write_branches_basis_state_routing():
    branches = write_branches(1.0, 0.0, 0.01)
    setup = build_write_setup()
    reg = setup.atomic_registry
    zero = setup.logical.logical_state(reg, 1.0, 0.0)
    one = setup.logical.logical_state(reg, 0.0, 1.0)
    assert fidelity_pure(branches[BellOutcome.PSI_PLUS].atomic_state, zero) == pytest.approx(1.0)
    assert fidelity_pure(branches[BellOutcome.PHI_PLUS].atomic_state, one) == pytest.approx(1.0)


def test_write_branches_teleportation_identity():
    rng = np.random.default_rng(21)
    setup = build_write_setup()
    reg = setup.atomic_registry
    for _ in range(10):
        alpha, beta = random_qubit(rng)
        target = setup.logical.logical_state(reg, alpha, beta)
        branches = write_branches(alpha, beta, 0.01, setup)
        assert len(branches) == 4
        for outcome, branch in branches.items():
            assert branch.probability == pytest.approx(0.25, abs=1e-12)
            corrected = apply_logical_pauli(branch.atomic_state, branch.mark, setup.logical)
            assert fidelity_pure(corrected, target) == pytest.approx(1.0, abs=1e-10)


def test_write_memory_record_shape():
    record = write_memory(0.6, 0.8, 0.01, trial_rng(33, 0))
    assert record.success
    assert record.rounds_until_herald >= 1
    assert sum(record.click_pattern) == 1
    assert record.mark is pauli_mark(record.outcome)


def test_write_memory_emits_once(monkeypatch):
    calls = []
    emit = protocol.joint_emission_state
    monkeypatch.setattr(protocol, "joint_emission_state",
                        lambda *a, **k: calls.append(a) or emit(*a, **k))
    write_memory(0.6, 0.8, 0.01, trial_rng(7, 0))
    assert len(calls) == 1


def test_write_memory_deterministic_given_stream():
    a = write_memory(0.6, 0.8, 0.01, trial_rng(5, 0))
    b = write_memory(0.6, 0.8, 0.01, trial_rng(5, 0))
    assert a.rounds_until_herald == b.rounds_until_herald
    assert a.outcome is b.outcome


def test_trial_record_validation():
    with pytest.raises(ValueError):
        TrialRecord(0, (True, False, False, False), BellOutcome.PSI_PLUS,
                    PauliMark.I, None, True)
    with pytest.raises(ValueError):
        TrialRecord(1, (True, False, False, False), BellOutcome.PSI_PLUS,
                    PauliMark.I, None, False)


def test_dfs_collective_dephasing_invariance():
    # equal phase on both rails multiplies the one-excitation state by one
    # global factor, so the suppression is algebraically exact; the computed
    # fidelity sits at unity up to double rounding, independent of theta
    setup = build_write_setup()
    reg = setup.atomic_registry
    rng = np.random.default_rng(12)
    alpha, beta = random_qubit(rng)
    state = setup.logical.logical_state(reg, alpha, beta)
    for k in range(16):
        theta = 2 * math.pi * k / 16
        dephased = apply_unitary(
            state, phase_shifter([setup.s_l, setup.s_r], [theta, theta])
        )
        phase = complex(math.cos(theta), math.sin(theta))
        for p in state.support():
            assert abs(dephased.amplitude(p) - phase * state.amplitude(p)) < 1e-15
        assert abs(fidelity_pure(dephased, state) - 1.0) <= 1e-15
    # through the memory: every event that clicks one detector, the
    # multi-photon ones included, stores a state whose read fidelity a
    # collective phase between write and read leaves unchanged (Lidar,
    # Chuang & Whaley, PRL 81, 2594 (1998))
    target = read_target(alpha, beta)
    multi_photon = 0
    for pc in (0.01, 0.1, 0.2):
        events = write_events(entangled_state(pc, setup), alpha, beta, setup)
        for pattern, (_, stored) in events.items():
            fired = [k for k, n in enumerate(pattern) if n]
            if len(fired) != 1:
                continue
            multi_photon += sum(pattern) > 1
            outcome = OUTCOME_OF_DETECTOR[fired[0]]
            clicks = tuple(k == fired[0] for k in range(4))

            def read_fidelity(atomic_state, efficiency):
                record = TrialRecord(1, clicks, outcome, pauli_mark(outcome), atomic_state, True)
                return fidelity_mixed(read_memory(record, efficiency), target)

            for phi in (0.3, math.pi, rng.uniform(0, 2 * math.pi)):
                collective = apply_unitary(
                    stored, phase_shifter([setup.s_l, setup.s_r], [phi, phi]))
                for efficiency in (1.0, 0.6):
                    assert abs(read_fidelity(collective, efficiency)
                               - read_fidelity(stored, efficiency)) <= 1e-15
                if sum(pattern) == 1:
                    # negative control: a phase on one rail alone dephases
                    one_rail = apply_unitary(stored, phase_shifter([setup.s_l], [phi]))
                    expected = 1 - 4 * abs(alpha) ** 2 * abs(beta) ** 2 * math.sin(phi / 2) ** 2
                    assert abs(read_fidelity(one_rail, 1.0) - expected) <= 1e-15
    assert multi_photon == 12


def test_read_memory_roundtrip_unit_efficiency():
    rng = np.random.default_rng(77)
    for k in range(6):
        alpha, beta = random_qubit(rng)
        record = write_memory(alpha, beta, 0.01, trial_rng(77, k))
        photon = read_memory(record, 1.0)
        target = read_target(alpha, beta)
        assert fidelity_mixed(photon, target) == pytest.approx(1.0, abs=1e-10)


def test_read_memory_basis_state_exact():
    record = write_memory(1.0, 0.0, 0.01, trial_rng(13, 0))
    photon = read_memory(record, 1.0)
    assert fidelity_mixed(photon, read_target(1.0, 0.0)) == pytest.approx(1.0, abs=1e-12)


def test_read_memory_partial_efficiency_photon_yield():
    rng = np.random.default_rng(42)
    alpha, beta = random_qubit(rng)
    record = write_memory(alpha, beta, 0.01, trial_rng(42, 0))
    setup = build_read_setup()
    for eff in (0.25, 0.5, 0.9):
        photon = read_memory(record, eff)
        present = photon_present_probability(photon, [setup.out_h, setup.out_v])
        assert present == pytest.approx(eff, abs=1e-12)
        target = read_target(alpha, beta, setup)
        assert fidelity_mixed(photon, target) == pytest.approx(eff, abs=1e-10)


def test_read_memory_rejects_failure_record():
    record = TrialRecord(1, (False,) * 4, BellOutcome.FAILURE, None, None, False)
    with pytest.raises(ValueError):
        read_memory(record, 1.0)


def _remote_verdict(pattern):
    """(success, mark) of a photon pattern on ideal non-resolving detectors."""
    return REMOTE_CLICK_RULE[tuple(n >= 1 for n in pattern)]


def test_remote_transfer_success_probability():
    rng = np.random.default_rng(3)
    alpha, beta = random_qubit(rng)
    split = remote_transfer(alpha, beta)
    success = sum(p for pattern, (p, _) in split.items() if _remote_verdict(pattern)[0])
    assert success == pytest.approx(0.5, abs=1e-12)
    assert sum(p for p, _ in split.values()) == pytest.approx(1.0, abs=1e-12)


def test_remote_transfer_conditional_fidelity():
    rng = np.random.default_rng(14)
    setup = build_remote_setup()
    for _ in range(6):
        alpha, beta = random_qubit(rng)
        split = remote_transfer(alpha, beta, setup)
        target = setup.r_logical.logical_state(setup.r_registry, alpha, beta)
        n_success = 0
        for pattern, (prob, r_state) in split.items():
            success, mark = _remote_verdict(pattern)
            if not success:
                continue
            n_success += 1
            assert prob == pytest.approx(0.125, abs=1e-12)
            corrected = apply_logical_pauli(r_state, mark, setup.r_logical)
            assert fidelity_pure(corrected, target) == pytest.approx(1.0, abs=1e-10)
        assert n_success == 4


def test_remote_transfer_basis_state():
    setup = build_remote_setup()
    split = remote_transfer(1.0, 0.0, setup)
    zero = setup.r_logical.logical_state(setup.r_registry, 1.0, 0.0)
    for pattern, (_, r_state) in split.items():
        if _remote_verdict(pattern)[0]:
            assert fidelity_pure(r_state, zero) == pytest.approx(1.0, abs=1e-12)


def test_remote_transfer_bunched_branches_fail():
    split = remote_transfer(0.6, 0.8)
    bunched = [p for p in split if max(p) == 2]
    assert len(bunched) == 4
    for p in bunched:
        assert not _remote_verdict(p)[0]
    assert sum(split[p][0] for p in bunched) == pytest.approx(0.5, abs=1e-12)


def test_classify_remote_clicks_parity_table():
    assert classify_remote_clicks((True, False, True, False)) == (True, PauliMark.I)
    assert classify_remote_clicks((False, True, False, True)) == (True, PauliMark.I)
    assert classify_remote_clicks((True, False, False, True)) == (True, PauliMark.Z)
    assert classify_remote_clicks((False, True, True, False)) == (True, PauliMark.Z)
    assert classify_remote_clicks((True, True, False, False)) == (False, None)
    assert classify_remote_clicks((False, False, False, False)) == (False, None)
