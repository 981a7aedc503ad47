import math

import pytest

from dfsmem.fock import (
    PureState,
    atomic_mode,
    basis_state,
    born_probabilities,
    fidelity_pure,
    photon_mode,
    register_modes,
    vacuum,
)
from dfsmem.protocol import build_write_setup, joint_emission_state
from dfsmem.source import (
    PumpPhysical,
    dualrail_emit,
    pc_from_physical,
    retrieve,
)


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
# on m pairs from the left ensemble and n from the right.


def _pairs(setup, m, n):
    """Occupation pattern with m left pairs and n right pairs."""
    occ = {
        setup.s_l: m, setup.photon("Rcirc", "arm-L"): m,
        setup.s_r: n, setup.photon("Rcirc", "arm-R"): n,
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
    stokes = [setup.photon("Rcirc", "arm-L"), setup.photon("Rcirc", "arm-R")]
    probs = born_probabilities(state, stokes)
    expected = (2 * pc + 3 * pc**2) / (1 + 2 * pc + 3 * pc**2)
    assert 1.0 - probs[(0, 0)] == pytest.approx(expected, abs=1e-12)


def test_raman_pair_state_number_correlation():
    setup = build_write_setup(4)
    state = joint_emission_state(0.2, setup, max_total=3)
    modes = [setup.s_l, setup.photon("Rcirc", "arm-L"),
             setup.s_r, setup.photon("Rcirc", "arm-R")]
    probs = born_probabilities(state, modes)
    assert all(a_l == p_l and a_r == p_r for (a_l, p_l, a_r, p_r) in probs)


def test_raman_pair_state_geometric_ratio():
    pc = 0.07
    setup = build_write_setup(4)
    state = joint_emission_state(pc, setup, max_total=3)
    for n in range(3):
        ratio = state.amplitude(_pairs(setup, n + 1, 0)) / state.amplitude(_pairs(setup, n, 0))
        assert ratio == pytest.approx(math.sqrt(pc), abs=1e-12)


def _dualrail_registry():
    a0 = atomic_mode("spin-0")
    a1 = atomic_mode("spin-1")
    ph = photon_mode("stokes", "H", "out")
    pv = photon_mode("stokes", "V", "out")
    return register_modes([a0, a1, ph, pv], 3), a0, a1, ph, pv


def test_dualrail_emit_heralded_branches():
    reg, a0, a1, ph, pv = _dualrail_registry()
    state = dualrail_emit(0.1, a0, a1, pv, ph, reg)
    assert state.amplitude((1, 0, 0, 1)) == pytest.approx(1 / math.sqrt(2))
    assert state.amplitude((0, 1, 1, 0)) == pytest.approx(1 / math.sqrt(2))
    assert state.norm() == pytest.approx(1.0, abs=1e-12)


def test_dualrail_emit_matches_logical_target():
    # same state as (|H>|1>_a + |V>|0>_a)/sqrt(2) once |h>_a is "spin-h excited"
    reg, a0, a1, ph, pv = _dualrail_registry()
    state = dualrail_emit(0.1, a0, a1, pv, ph, reg)
    target = PureState(
        reg,
        {
            tuple(basis_state(reg, {a1: 1, ph: 1}).support()[0]): 1 / math.sqrt(2),
            tuple(basis_state(reg, {a0: 1, pv: 1}).support()[0]): 1 / math.sqrt(2),
        },
    )
    assert fidelity_pure(state, target) == pytest.approx(1.0, abs=1e-12)


def test_dualrail_emit_unheralded_vacuum_weight():
    reg, a0, a1, ph, pv = _dualrail_registry()
    pc = 0.2
    state = dualrail_emit(pc, a0, a1, pv, ph, reg, heralded=False)
    assert abs(state.amplitude((0, 0, 0, 0))) ** 2 == pytest.approx(1 - pc)
    assert state.norm() == pytest.approx(1.0, abs=1e-12)


def test_dualrail_emit_is_maximally_entangled():
    reg, a0, a1, ph, pv = _dualrail_registry()
    probs = born_probabilities(dualrail_emit(0.1, a0, a1, pv, ph, reg), [a0])
    assert probs[(0,)] == pytest.approx(0.5)
    assert probs[(1,)] == pytest.approx(0.5)


def _retrieval_registry():
    atom = atomic_mode("ensemble")
    anti = photon_mode("anti-stokes", "H", "out")
    return register_modes([atom, anti], 3), atom, anti


def test_retrieve_unit_efficiency():
    reg, atom, anti = _retrieval_registry()
    out = retrieve(basis_state(reg, {atom: 1}), atom, anti, 1.0)
    assert len(out.components) == 1
    w, s = out.components[0]
    assert w == pytest.approx(1.0)
    assert fidelity_pure(s, basis_state(reg, {anti: 1})) == pytest.approx(1.0)


def test_retrieve_half_efficiency_mixture():
    reg, atom, anti = _retrieval_registry()
    out = retrieve(basis_state(reg, {atom: 1}), atom, anti, 0.5)
    weights = {}
    for w, s in out.components:
        key = s.support()[0]
        weights[key] = weights.get(key, 0.0) + w
    assert weights[(0, 1)] == pytest.approx(0.5)
    assert weights[(0, 0)] == pytest.approx(0.5)


def test_retrieve_vacuum_unchanged():
    reg, atom, anti = _retrieval_registry()
    for eff in (0.0, 0.3, 1.0):
        out = retrieve(vacuum(reg), atom, anti, eff)
        assert len(out.components) == 1
        assert fidelity_pure(out.components[0][1], vacuum(reg)) == pytest.approx(1.0)


def test_retrieve_rejects_occupied_target():
    reg, atom, anti = _retrieval_registry()
    with pytest.raises(ValueError, match="vacuum"):
        retrieve(basis_state(reg, {anti: 1}), atom, anti, 1.0)
