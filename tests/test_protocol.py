import cmath
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dense_oracle import (
    basis_state,
    born_probabilities,
    bsm_elements,
    circular_emission,
    compose,
    embed_state,
    encode_elements,
    encode_spatial,
    eraser_elements,
    lifted_eraser,
    lifted_logical_pauli,
    lifted_read,
    lifted_transfer,
    max_amplitude_diff,
    permanent_event_table,
    phase_shifter,
    pol_rotator,
    random_state,
    remote_input,
    remote_network,
    stokes,
    write_registry,
)
from dfsmem.fock import (
    PureState,
    TruncationOverflowError,
    atomic_mode,
    apply_elements,
    apply_unitary,
    fidelity_mixed,
    fidelity_pure,
    project_total_occupation,
    register_modes,
    split_by_pattern,
    superposition,
)
from dfsmem import fock, protocol
from dfsmem.optics import check_amplitude_pair
from dfsmem.protocol import (
    BellOutcome,
    OUTCOME_OF_DETECTOR,
    PauliMark,
    REMOTE_CLICK_RULE,
    RemoteSetup,
    TrialRecord,
    WriteSetup,
    apply_logical_pauli,
    build_read_setup,
    build_remote_setup,
    build_write_setup,
    classify_remote_clicks,
    entangled_state,
    generate_entanglement,
    ideal_entangled_state,
    joint_emission_state,
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


def _heralded_on_write_registry(pc: float) -> PureState:
    """The heralded write state, embedded on the lifted write's registry."""
    return embed_state(generate_entanglement(pc)[0], write_registry(3))


def test_encode_spatial_identity_setting():
    out = encode_spatial(_heralded_on_write_registry(0.01), 1.0, 0.0)
    path_b = [stokes(pol, "path-b") for pol in ("H", "V")]
    _, weight_b = project_total_occupation(out, path_b, 0)
    assert weight_b == pytest.approx(1.0, abs=1e-12)
    assert out.norm() == pytest.approx(1.0, abs=1e-12)


def test_encode_spatial_matches_product_form():
    setup = build_write_setup()
    alpha, beta = cmath.exp(0.3j) * 0.6, cmath.exp(-1.1j) * 0.8
    out = encode_spatial(_heralded_on_write_registry(0.02), alpha, beta)
    registry = write_registry(3)
    table = {}
    s = 1 / math.sqrt(2)
    for amp_path, spot in ((alpha, "path-a"), (beta, "path-b")):
        for amp_pol, pol, atom in ((s, "H", setup.s_l), (s, "V", setup.s_r)):
            key = basis_state(registry, {atom: 1, stokes(pol, spot): 1}).support()[0]
            table[key] = amp_path * amp_pol
    expected = PureState(registry, table)
    assert fidelity_pure(out, expected) == pytest.approx(1.0, abs=1e-12)


def test_encode_spatial_rejects_unnormalized():
    with pytest.raises(ValueError, match="normalized"):
        encode_spatial(_heralded_on_write_registry(0.01), 1.0, 0.5)


def test_encode_spatial_rejects_occupied_path():
    setup = build_write_setup()
    state = basis_state(write_registry(3), {setup.s_l: 1, stokes("V", "path-a"): 1})
    with pytest.raises(ValueError, match="not empty"):
        encode_spatial(state, 0.6, 0.8)


def _bell_state(kind: str) -> PureState:
    s = 1 / math.sqrt(2)
    registry = write_registry(3)

    def one(pol, spot):
        return basis_state(registry, {stokes(pol, spot): 1}).support()[0]

    h_b, v_a, h_a, v_b = one("H", "path-b"), one("V", "path-a"), one("H", "path-a"), one("V", "path-b")
    table = {
        "psi+": {h_b: s, v_a: s},
        "psi-": {h_b: s, v_a: -s},
        "phi+": {h_a: s, v_b: s},
        "phi-": {h_a: s, v_b: -s},
    }[kind]
    return PureState(registry, table)


def _detector_table(state) -> dict[tuple[int, ...], float]:
    """Born weights of the detector patterns after the lifted analyzer."""
    return born_probabilities(apply_elements(state, bsm_elements()), build_write_setup().detectors)


def _single_click(k: int) -> tuple[int, ...]:
    return tuple(1 if i == k else 0 for i in range(4))


def test_bsm_routes_each_bell_state_to_its_detector():
    for idx, kind in enumerate(("psi+", "psi-", "phi+", "phi-")):
        table = _detector_table(_bell_state(kind))
        assert table.get(_single_click(idx), 0.0) == pytest.approx(1.0, abs=1e-12)
        for other in range(4):
            if other != idx:
                assert table.get(_single_click(other), 0.0) < 1e-12


def test_bsm_off_target_amplitudes_negligible():
    for kind in ("psi+", "psi-", "phi+", "phi-"):
        table = _detector_table(_bell_state(kind))
        target = max(range(4), key=lambda k: table.get(_single_click(k), 0.0))
        for pattern, prob in table.items():
            if pattern != _single_click(target):
                assert prob < 1e-24  # amplitude < 1e-12


def test_bsm_uniform_outcomes_for_teleport_input():
    rng = np.random.default_rng(4)
    for _ in range(5):
        alpha, beta = random_qubit(rng)
        table = _detector_table(encode_spatial(_heralded_on_write_registry(0.01), alpha, beta))
        for k in range(4):
            assert table[_single_click(k)] == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("pc", [0.01, 0.1, 0.2])
def test_bsm_table_equals_write_branch_probabilities_exactly(pc):
    # complex amplitudes: both Born sums must add |a|^2 as one term
    alpha = 0.5 * cmath.exp(1j * math.radians(30))
    beta = 0.8660254037844386 * cmath.exp(1j * math.radians(-70))
    table = _detector_table(encode_spatial(_heralded_on_write_registry(pc), alpha, beta))
    branches = write_branches(alpha, beta, pc)
    outcomes = (BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS,
                BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS)
    for k, outcome in enumerate(outcomes):
        assert table[_single_click(k)] == branches[outcome].probability


def test_bsm_photons_only_reach_click_modes():
    rng = np.random.default_rng(8)
    alpha, beta = random_qubit(rng)
    out = apply_elements(
        encode_spatial(_heralded_on_write_registry(0.01), alpha, beta), bsm_elements()
    )
    dark_modes = [
        stokes(pol, spot)
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


@pytest.mark.parametrize("alpha, beta", [
    (math.nan, 0.7), (0.6, complex(0.8, math.nan)), (math.inf, 0.0),
])
def test_write_branches_rejects_a_non_finite_amplitude(alpha, beta):
    # NaN fails every comparison, so the normalization test is written to
    # fail on it rather than pass
    with pytest.raises(ValueError, match="normalized"):
        check_amplitude_pair(alpha, beta)
    with pytest.raises(ValueError, match="normalized"):
        write_branches(alpha, beta, 0.1)


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


# -- the compiled tables: write_events and remote_transfer against the lift ---


def _lifted_write(state, alpha, beta, setup):
    """The write's reference path: the state embedded on the oracle's
    registry, then the oracle's encoder and analyzer lifted."""
    embedded = embed_state(state, write_registry(setup.d))
    analyzed = apply_elements(encode_spatial(embedded, alpha, beta), bsm_elements())
    return split_by_pattern(analyzed, setup.detectors, setup.atomic_registry)


def _assert_same_events(got, want):
    """Same detector patterns, probabilities within 1e-15 and normalized
    amplitudes within 1e-14 per unit of the pattern's norm: the lift path
    drops amplitudes at or below 1e-15 after every element, which moves the
    normalized state of a pattern of probability p by about 1e-15 /
    sqrt(p). (At pc 0.0625 and beta ~ 1.2e-7 it drops the beta^2 term of
    a two-photon pattern of probability 8.6e-4 that the table keeps; the
    normalized amplitudes then differ by 1.3e-14.)"""
    assert got.keys() == want.keys()
    for pattern, (p, state) in want.items():
        q, component = got[pattern]
        assert abs(q - p) <= 1e-15, pattern
        assert component.registry == state.registry
        tol = 1e-14 / min(1.0, math.sqrt(p))
        for key in set(component.support()) | set(state.support()):
            assert abs(component.amplitude(key) - state.amplitude(key)) <= tol, (pattern, key)


_QUBIT = st.tuples(
    st.floats(0.0, math.pi / 2), st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi)
).map(lambda t: (math.cos(t[0]) * cmath.exp(1j * t[1]), math.sin(t[0]) * cmath.exp(1j * t[2])))


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pc=st.floats(0.0, 0.45, exclude_min=True, exclude_max=True),
       d=st.sampled_from([3, 4]), qubit=_QUBIT)
@example(pc=0.0625, d=3, qubit=(0.9999999999999929, 6.44090540517827e-08 + 1.003111583179615e-07j))
def test_write_events_table_matches_lift(pc, d, qubit):
    setup = build_write_setup(d)
    alpha, beta = qubit
    for state in (entangled_state(pc, setup), generate_entanglement(pc, setup)[0]):
        if state is not None:
            _assert_same_events(write_events(state, alpha, beta, setup),
                                _lifted_write(state, alpha, beta, setup))


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(d=st.sampled_from([3, 4]), qubit=_QUBIT)
def test_remote_transfer_table_matches_lift(d, qubit):
    # the near ensembles hold one excitation each, so each retrieval swap
    # of the lifted network moves an amplitude without arithmetic: the
    # relabelled table equals the whole network's lift bit for bit
    setup = build_remote_setup(d)
    got, want = remote_transfer(*qubit, setup), lifted_transfer(*qubit, d)
    assert _bits(got) == _bits(want)
    assert all(s.registry == setup.r_registry for _, s in [*got.values(), *want.values()])


def test_remote_setup_lifts_only_its_splitters_once(monkeypatch):
    lifted = []
    lift = fock.apply_unitary
    monkeypatch.setattr(fock, "apply_unitary",
                        lambda state, element: lifted.append(element.name) or lift(state, element))
    setup = RemoteSetup(3)  # a fresh setup builds its table
    assert lifted == ["bs50"] * 4  # two splitters per sender basis state
    assert [str(m) for m in setup.registry.labels] == [
        "anti-stokes[H@from-I1]", "anti-stokes[H@from-L1]", "anti-stokes[H@from-I2]",
        "anti-stokes[H@from-L2]", "ensemble-R1", "ensemble-R2"]
    lifted.clear()
    remote_transfer(0.6, 0.8j, setup)
    assert lifted == []


def test_write_setup_builds_its_table_with_no_lift(monkeypatch):
    lifted = []
    lift = fock.apply_unitary
    monkeypatch.setattr(fock, "apply_unitary",
                        lambda state, element: lifted.append(element.name) or lift(state, element))
    for d in (3, 4):
        setup = WriteSetup(d)  # a fresh setup builds its table
        assert lifted == []
        assert [str(m) for m in setup.registry.labels] == [
            "ensemble-L", "ensemble-R", "stokes[H@arm-L]", "stokes[V@arm-L]",
            "stokes[H@arm-R]", "stokes[V@arm-R]", "stokes[H@fiber]", "stokes[V@fiber]",
            "stokes[H@dump]", "stokes[V@dump]"]
        state = entangled_state(0.1, setup)
        assert lifted == ["pbs"]  # the eraser
        lifted.clear()
        write_events(state, 0.6, 0.8j, setup)
        assert lifted == []


# The emission is written where the wave plates and the rotator leave it;
# the lifted eraser (tests/dense_oracle.py) emits on the circular modes and
# lifts both plates, the rotator and the PBS.


def _is_lifted_eraser(state, pc, d) -> bool:
    """``state`` equals :func:`dense_oracle.lifted_eraser`, label for label."""
    ref = lifted_eraser(pc, d)
    return state.registry == ref.registry and dict(state.items()) == dict(ref.items())


@settings(deadline=None, max_examples=40)
@given(st.floats(0.0, 0.5, exclude_max=True))
@example(0.0)
@example(1e-300)
@example(0.01)
@example(0.1)
@example(0.2)
@example(0.4999)
def test_entangled_state_is_the_lifted_eraser(pc):
    for d in (3, 4, 5):
        assert _is_lifted_eraser(entangled_state(pc, WriteSetup(d)), pc, d)


@pytest.mark.parametrize("pc", [0.01, 0.1, 0.2, 0.4999])
def test_lifted_eraser_check_fails_without_the_rotator(pc):
    # a second rotator undoes the first: the right ensemble emits on H@arm-R
    setup = build_write_setup(3)
    undo = pol_rotator(setup.photon("H", "arm-R"), setup.photon("V", "arm-R"))
    state = apply_elements(joint_emission_state(pc, setup), [undo, *setup.entangle_elements()])
    assert not _is_lifted_eraser(state, pc, 3)


def test_write_events_rejects_an_unnormalized_qubit():
    setup = build_write_setup()
    with pytest.raises(ValueError, match="normalized"):
        write_events(entangled_state(0.1, setup), 1.0, 0.5, setup)
    with pytest.raises(ValueError, match="normalized"):
        remote_transfer(1.0, 0.5)


def test_write_events_rejects_what_the_table_cannot_hold():
    setup = build_write_setup(3)
    fiber_h, fiber_v = setup.photon("H", "fiber"), setup.photon("V", "fiber")

    def with_stray(stray, weight):
        return superposition(setup.registry, [
            ({setup.s_l: 1, fiber_h: 1}, 1.0), ({setup.s_r: 1, fiber_v: 1}, 1.0), (stray, weight),
        ]).normalize()

    # three photons in the analyzer at d = 3, and a photon the analyzer
    # never reaches: each raises its own error at any weight
    strays = (
        ({fiber_h: 2, fiber_v: 1}, TruncationOverflowError, "at most d - 1 = 2 photons"),
        ({setup.photon("H", "dump"): 1}, ValueError,
         "left outside the detector and atomic modes"),
    )
    for stray, error, message in strays:
        for weight in (1e-7, 1.0):
            state = with_stray(stray, weight)
            with pytest.raises(error, match=message) as info:
                write_events(state, 0.6, 0.8j, setup)
            assert type(info.value) is error
            if error is TruncationOverflowError:
                assert info.value.lost_weight == pytest.approx(weight**2 / (2 + weight**2),
                                                               rel=1e-12)
    # photons left on the emission arms (no eraser) never reach the analyzer
    with pytest.raises(ValueError, match="left outside"):
        write_events(joint_emission_state(0.1, setup), 0.6, 0.8j, setup)
    spilling = basis_state(setup.registry, {fiber_h: 2, fiber_v: 1})
    with pytest.raises(TruncationOverflowError) as info:
        write_events(spilling, 0.6, 0.8j, setup)
    assert info.value.lost_weight == 1.0

    # the reference path keeps its tolerances: it accepts each stray at
    # 1e-7 (an overflow below the lift's tolerance, a dump photon that
    # factorizes) ...
    for stray, _, _ in strays:
        events = _lifted_write(with_stray(stray, 1e-7), 0.6, 0.8j, setup)
        for k in range(4):
            assert events[_single_click(k)][0] == pytest.approx(0.25, abs=1e-12)
    # ... and rejects arm photons that do not factorize against the atoms,
    # and three photons at full weight
    with pytest.raises(ValueError, match="factorize"):
        _lifted_write(joint_emission_state(0.1, setup), 0.6, 0.8j, setup)
    with pytest.raises(TruncationOverflowError):
        _lifted_write(spilling, 0.6, 0.8j, setup)


def _bits(events):
    return [(k, p, list(s.items())) for k, (p, s) in events.items()]


@pytest.mark.parametrize("d", [3, 4])
def test_compiled_tables_cold_and_warm_agree_bit_for_bit(d):
    alpha, beta = 0.5 * cmath.exp(0.3j), 0.8660254037844386 * cmath.exp(-1.1j)
    cold = WriteSetup(d)  # a fresh setup builds its own table
    state = entangled_state(0.2, cold)
    first = _bits(write_events(state, alpha, beta, cold))
    assert first == _bits(write_events(state, alpha, beta, cold))
    assert first == _bits(write_events(state, alpha, beta, WriteSetup(d)))
    remote = RemoteSetup(d)
    first = _bits(remote_transfer(alpha, beta, remote))
    assert first == _bits(remote_transfer(alpha, beta, remote))


def test_warm_tables_lift_nothing_for_a_new_qubit(monkeypatch):
    setup, remote = WriteSetup(3), RemoteSetup(3)
    state = entangled_state(0.1, setup)
    write_events(state, 0.6, 0.8, setup)
    remote_transfer(0.6, 0.8, remote)

    def no_lift(*args):
        raise AssertionError("a warm table lifted an element")

    monkeypatch.setattr(protocol, "apply_elements", no_lift)
    alpha, beta = 0.5 * cmath.exp(0.3j), 0.8660254037844386 * cmath.exp(-1.1j)
    assert write_events(state, alpha, beta, setup).keys() == write_events(
        state, 0.6, 0.8, setup).keys()
    remote_transfer(alpha, beta, remote)


# -- the permanent oracle: one composed matrix per experiment -----------------

_COMPLEX_QUBITS = [
    (0.6, 0.8j),
    (0.5 * cmath.exp(0.3j), 0.8660254037844386 * cmath.exp(-1.1j)),
]


def _agrees(table, events, tol=1e-15) -> bool:
    """Same detector patterns, probabilities and amplitudes within ``tol``."""
    if table.keys() != events.keys():
        return False
    for pattern, (p, amps) in table.items():
        q, state = events[pattern]
        keys = set(amps) | set(state.support())
        if abs(p - q) > tol or any(abs(amps.get(k, 0j) - state.amplitude(k)) > tol
                                   for k in keys):
            return False
    return True


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("qubit", _COMPLEX_QUBITS)
def test_permanent_oracle_matches_write_events(d, qubit):
    alpha, beta = qubit
    setup = build_write_setup(d)
    registry = write_registry(d)
    emitted = embed_state(circular_emission(0.2, d), registry)
    events = write_events(entangled_state(0.2, setup), alpha, beta, setup)

    def oracle(encode, bsm, conj=False):
        u = compose(registry, eraser_elements() + encode + bsm)
        return permanent_event_table(emitted, u.conj() if conj else u,
                                     setup.detectors, setup.atomic_registry)

    encode, bsm = encode_elements(alpha, beta), bsm_elements()
    assert _agrees(oracle(encode, bsm), events)
    # negative controls: a half-wave plate dropped, alpha and beta swapped,
    # the composed matrix conjugated
    assert not _agrees(oracle(encode, bsm[:1] + bsm[2:]), events)
    assert not _agrees(oracle(encode_elements(beta, alpha), bsm), events)
    assert not _agrees(oracle(encode, bsm, conj=True), events)


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("qubit", _COMPLEX_QUBITS)
def test_permanent_oracle_matches_remote_transfer(d, qubit):
    alpha, beta = qubit
    setup = build_remote_setup(d)
    events = remote_transfer(alpha, beta, setup)

    registry, elements, _, _ = remote_network(d)

    def oracle(a, b, elements):
        return permanent_event_table(remote_input(d, a, b), compose(registry, elements),
                                     setup.detectors, setup.r_registry)

    assert _agrees(oracle(alpha, beta, elements), events)
    # negative controls: a splitter dropped, alpha and beta swapped; the
    # transfer matrix is real, so its conjugate control conjugates the qubit
    assert not _agrees(oracle(alpha, beta, elements[:-1]), events)
    assert not _agrees(oracle(beta, alpha, elements), events)
    assert not _agrees(oracle(alpha.conjugate(), beta.conjugate(), elements), events)


# The marks and the read-out are written in closed form; the lifted network
# of tests/dense_oracle.py is their reference. X and the read relabel move
# amplitudes without arithmetic, so on the one-excitation states a write
# stores they equal the lift. The lifted Z multiplies by exp(i pi), whose
# imaginary part is 1.2e-16, and a lift of n >= 2 photons divides and
# multiplies by sqrt(n!), so Z, ZX and multi-excitation inputs agree to
# 1e-15.

_MARKS = st.sampled_from(list(PauliMark))
_EXACT_MARKS = (PauliMark.I, PauliMark.X)


def _stored(d, qubit, seed):
    """A one-excitation logical state (``seed`` None) or a random state of
    up to d - 1 excitations on the write's atomic pair."""
    setup = build_write_setup(d)
    if seed is None:
        return setup, setup.logical.logical_state(setup.atomic_registry, *qubit)
    return setup, random_state(setup.atomic_registry, np.random.default_rng(seed))


def _marked_record(state, mark):
    outcome = next(o for o in OUTCOME_OF_DETECTOR if pauli_mark(o) is mark)
    clicks = tuple(o is outcome for o in OUTCOME_OF_DETECTOR)
    return TrialRecord(1, clicks, outcome, mark, state, True)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(d=st.sampled_from([3, 4]), qubit=_QUBIT, mark=_MARKS,
       seed=st.none() | st.integers(0, 2**32 - 1))
def test_logical_pauli_matches_the_lift(d, qubit, mark, seed):
    setup, state = _stored(d, qubit, seed)
    got = apply_logical_pauli(state, mark, setup.logical)
    want = lifted_logical_pauli(state, mark, setup.logical)
    assert got.registry == want.registry
    if seed is None and mark in _EXACT_MARKS:
        assert list(got.items()) == list(want.items())
    else:
        assert max_amplitude_diff(got, dict(want.items())) <= 1e-15


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(d=st.sampled_from([3, 4]), qubit=_QUBIT, mark=_MARKS,
       seed=st.none() | st.integers(0, 2**32 - 1), efficiency=st.floats(0.0, 1.0))
def test_read_memory_matches_the_lifted_read(d, qubit, mark, seed, efficiency):
    _, state = _stored(d, qubit, seed)
    record = _marked_record(state, mark)
    got = read_memory(record, efficiency).components
    want = lifted_read(record, efficiency).components
    assert len(got) == len(want)
    assert all(s.registry == build_read_setup(d).registry for _, s in got + want)
    if seed is None and mark in _EXACT_MARKS:
        assert [(w, list(s.items())) for w, s in got] == [(w, list(s.items())) for w, s in want]
    else:
        for (w, s), (v, t) in zip(got, want):
            assert abs(w - v) <= 1e-15
            assert max_amplitude_diff(s, dict(t.items())) <= 1e-15


def test_read_memory_reads_only_the_write_atomic_pair():
    write, remote = build_write_setup(), build_remote_setup()
    s_l, s_r = write.s_l, write.s_r
    elsewhere = (
        remote.r_logical.logical_state(remote.r_registry, 0.6, 0.8),
        basis_state(register_modes([s_r, s_l], 3), {s_l: 1}),
        basis_state(register_modes([s_l, s_r, atomic_mode("ensemble-X")], 3), {s_l: 1}),
    )
    for state in elsewhere:
        with pytest.raises(ValueError, match="atomic pair"):
            read_memory(_marked_record(state, PauliMark.I), 1.0)
    # the lifted read embeds by label: it rejects a mode the read-out does
    # not hold, as read_memory does
    with pytest.raises(ValueError, match="not registered"):
        lifted_read(_marked_record(elsewhere[0], PauliMark.I), 1.0)
