import math

import pytest

from dense_oracle import basis_state, born_probabilities
from dfsmem.fock import fidelity_pure, vacuum
from dfsmem.protocol import (
    BellOutcome,
    PauliMark,
    TrialRecord,
    build_read_setup,
    build_write_setup,
    joint_emission_state,
    read_memory,
)
from dfsmem.source import PumpPhysical, pc_from_physical


def pump(**overrides):
    base = dict(g_c=1.0, n_density=1.0, length=1.0, omega=1.0, delta=1.0, t_p=1.0, c=1.0)
    base.update(overrides)
    return PumpPhysical(**base)


def test_pc_from_physical_unity_inputs():
    assert pc_from_physical(pump()) == pytest.approx(4.0)


def test_pc_from_physical_scalings():
    base = pc_from_physical(pump())
    assert pc_from_physical(pump(t_p=2.0)) == pytest.approx(2.0 * base)
    assert pc_from_physical(pump(delta=2.0)) == pytest.approx(base / 4.0)


def test_pump_rejects_nonpositive():
    with pytest.raises(ValueError):
        pump(length=0.0)
    with pytest.raises(ValueError):
        pump(delta=0.0)


# The write source: both ensembles emit Raman pairs, amplitude pc^((m+n)/2)
# on m pairs from the left ensemble and n from the right, the Stokes photons
# written past the wave plates and the rotator: H on arm L, V on arm R.


def _pairs(setup, m, n):
    """Occupation pattern with m left pairs and n right pairs."""
    occ = {
        setup.s_l: m, setup.photon("H", "arm-L"): m,
        setup.s_r: n, setup.photon("V", "arm-R"): n,
    }
    return basis_state(setup.registry, occ).support()[0]


def test_raman_pair_state_zero_pc_is_vacuum():
    setup = build_write_setup(3)
    state = joint_emission_state(0.0, setup)
    assert fidelity_pure(state, vacuum(setup.registry)) == pytest.approx(1.0)


def test_raman_pair_state_amplitude_ladder():
    # unnormalized amplitudes (1, 0.1, 0.01) at pc = 0.01
    setup = build_write_setup(3)
    state = joint_emission_state(0.01, setup)
    a0 = state.amplitude(_pairs(setup, 0, 0))
    assert state.amplitude(_pairs(setup, 1, 0)) / a0 == pytest.approx(0.1)
    assert state.amplitude(_pairs(setup, 0, 1)) / a0 == pytest.approx(0.1)
    assert state.amplitude(_pairs(setup, 2, 0)) / a0 == pytest.approx(0.01)
    assert state.amplitude(_pairs(setup, 1, 1)) / a0 == pytest.approx(0.01)
    assert state.norm() == pytest.approx(1.0, abs=1e-12)


def test_raman_pair_state_emission_probability():
    # P(any pair) = (2 pc + 3 pc^2) / (1 + 2 pc + 3 pc^2) through total order 2
    pc = 0.03
    setup = build_write_setup(3)
    state = joint_emission_state(pc, setup)
    stokes = [setup.photon("H", "arm-L"), setup.photon("V", "arm-R")]
    probs = born_probabilities(state, stokes)
    expected = (2 * pc + 3 * pc**2) / (1 + 2 * pc + 3 * pc**2)
    assert 1.0 - probs[(0, 0)] == pytest.approx(expected, abs=1e-12)


def test_raman_pair_state_number_correlation():
    setup = build_write_setup(4)
    state = joint_emission_state(0.2, setup, max_total=3)
    modes = [setup.s_l, setup.photon("H", "arm-L"),
             setup.s_r, setup.photon("V", "arm-R")]
    probs = born_probabilities(state, modes)
    assert all(a_l == p_l and a_r == p_r for (a_l, p_l, a_r, p_r) in probs)


def test_raman_pair_state_geometric_ratio():
    pc = 0.07
    setup = build_write_setup(4)
    state = joint_emission_state(pc, setup, max_total=3)
    for n in range(3):
        ratio = state.amplitude(_pairs(setup, n + 1, 0)) / state.amplitude(_pairs(setup, n, 0))
        assert ratio == pytest.approx(math.sqrt(pc), abs=1e-12)


# Retrieval swaps each stored excitation onto an anti-Stokes mode and loses
# it with probability 1 - efficiency; read_memory runs it on both ensembles.


def _read(atomic_occupations, efficiency):
    """Read a stored atomic basis state (mark I) and return the read setup
    with the retrieved mixture."""
    setup = build_read_setup()
    stored = basis_state(build_write_setup().atomic_registry, atomic_occupations)
    record = TrialRecord(1, (True, False, False, False), BellOutcome.PSI_PLUS,
                         PauliMark.I, stored, True)
    return setup, read_memory(record, efficiency)


def test_retrieve_unit_efficiency():
    setup, out = _read({build_write_setup().s_l: 1}, 1.0)
    assert len(out.components) == 1
    w, s = out.components[0]
    assert w == pytest.approx(1.0)
    assert fidelity_pure(s, basis_state(setup.registry, {setup.out_h: 1})) == pytest.approx(1.0)


def test_retrieve_half_efficiency_mixture():
    setup, out = _read({build_write_setup().s_l: 1}, 0.5)
    weights = {}
    for w, s in out.components:
        key = s.support()[0]
        weights[key] = weights.get(key, 0.0) + w
    photon = basis_state(setup.registry, {setup.out_h: 1}).support()[0]
    assert weights[photon] == pytest.approx(0.5)
    assert weights[setup.registry.zero_pattern()] == pytest.approx(0.5)


def test_retrieve_vacuum_unchanged():
    for eff in (0.0, 0.3, 1.0):
        setup, out = _read({}, eff)
        assert len(out.components) == 1
        assert fidelity_pure(out.components[0][1], vacuum(setup.registry)) == pytest.approx(1.0)
