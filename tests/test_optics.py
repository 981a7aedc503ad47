import math

import numpy as np
import pytest

from dfsmem.fock import (
    apply_unitary,
    basis_state,
    photon_mode,
    register_modes,
    PureState,
)
from dfsmem.optics import (
    bs50, hwp, loss_coupler, mz_split, pbs, phase_shifter, pol_rotator, qwp,
)
from dense_oracle import random_state

IN_R = photon_mode("stokes", "Rcirc", "arm")
IN_L = photon_mode("stokes", "Lcirc", "arm")
H = photon_mode("stokes", "H", "arm")
V = photon_mode("stokes", "V", "arm")


def test_qwp_relabels_circular_to_linear():
    reg = register_modes([IN_R, IN_L, H, V], 2)
    el = qwp(IN_R, IN_L, H, V)
    out = apply_unitary(basis_state(reg, {IN_R: 1}), el)
    assert out.amplitude((0, 0, 1, 0)) == pytest.approx(1.0)
    out = apply_unitary(basis_state(reg, {IN_L: 1}), el)
    assert out.amplitude((0, 0, 0, 1)) == pytest.approx(1.0)
    diag = PureState(reg, {(1, 0, 0, 0): 1 / math.sqrt(2), (0, 1, 0, 0): 1 / math.sqrt(2)})
    out = apply_unitary(diag, el)
    assert out.amplitude((0, 0, 1, 0)) == pytest.approx(1 / math.sqrt(2))
    assert out.amplitude((0, 0, 0, 1)) == pytest.approx(1 / math.sqrt(2))


def _pbs_stage():
    labels = {}
    for port in ("in1", "in2", "out1", "out2"):
        for pol in ("H", "V"):
            labels[(pol, port)] = photon_mode("stokes", pol, port)
    reg = register_modes(list(labels.values()), 3)
    el = pbs(
        labels[("H", "in1")], labels[("V", "in1")],
        labels[("H", "in2")], labels[("V", "in2")],
        labels[("H", "out1")], labels[("V", "out1")],
        labels[("H", "out2")], labels[("V", "out2")],
    )
    return reg, labels, el


def test_pbs_transmits_h_reflects_v():
    reg, lab, el = _pbs_stage()
    out = apply_unitary(basis_state(reg, {lab[("H", "in1")]: 1}), el)
    assert out.amplitude(basis_state(reg, {lab[("H", "out1")]: 1}).support()[0]) == pytest.approx(1.0)
    out = apply_unitary(basis_state(reg, {lab[("V", "in1")]: 1}), el)
    assert out.amplitude(basis_state(reg, {lab[("V", "out2")]: 1}).support()[0]) == pytest.approx(1.0)


def test_pbs_two_photon_routing():
    reg, lab, el = _pbs_stage()
    both = basis_state(reg, {lab[("H", "in1")]: 1, lab[("V", "in1")]: 1})
    out = apply_unitary(both, el)
    expected = basis_state(reg, {lab[("H", "out1")]: 1, lab[("V", "out2")]: 1})
    assert out.amplitude(expected.support()[0]) == pytest.approx(1.0)


def test_hwp_hadamard_action():
    reg = register_modes([H, V], 2)
    el = hwp(H, V)
    out = apply_unitary(basis_state(reg, {H: 1}), el)
    assert out.amplitude((1, 0)) == pytest.approx(1 / math.sqrt(2))
    assert out.amplitude((0, 1)) == pytest.approx(1 / math.sqrt(2))
    out = apply_unitary(basis_state(reg, {V: 1}), el)
    assert out.amplitude((1, 0)) == pytest.approx(1 / math.sqrt(2))
    assert out.amplitude((0, 1)) == pytest.approx(-1 / math.sqrt(2))


def test_hwp_squares_to_identity():
    assert np.allclose(hwp(H, V).matrix @ hwp(H, V).matrix, np.eye(2), atol=1e-12)


def test_pol_rotator_swaps_and_squares_to_identity():
    reg = register_modes([H, V], 2)
    el = pol_rotator(H, V)
    out = apply_unitary(basis_state(reg, {H: 1}), el)
    assert out.amplitude((0, 1)) == pytest.approx(1.0)
    out = apply_unitary(basis_state(reg, {V: 1}), el)
    assert out.amplitude((1, 0)) == pytest.approx(1.0)
    assert np.allclose(el.matrix @ el.matrix, np.eye(2), atol=1e-12)


def _split_stage():
    src = photon_mode("stokes", "H", "in")
    a = photon_mode("stokes", "H", "a")
    b = photon_mode("stokes", "H", "b")
    return register_modes([src, a, b], 2), src, a, b


def test_mz_split_identity_case():
    reg, src, a, b = _split_stage()
    out = apply_unitary(basis_state(reg, {src: 1}), mz_split(src, a, b, 1.0, 0.0))
    assert out.amplitude((0, 1, 0)) == pytest.approx(1.0)


def test_mz_split_balanced_case():
    reg, src, a, b = _split_stage()
    s = 1 / math.sqrt(2)
    out = apply_unitary(basis_state(reg, {src: 1}), mz_split(src, a, b, s, s))
    assert out.amplitude((0, 1, 0)) == pytest.approx(s)
    assert out.amplitude((0, 0, 1)) == pytest.approx(s)


def test_mz_split_rejects_unnormalized_pair():
    _, src, a, b = _split_stage()
    with pytest.raises(ValueError, match="normalized"):
        mz_split(src, a, b, 1.0, 0.5)


def test_mz_split_polarization_independence():
    # swapping H and V before the split equals swapping after it
    rng = np.random.default_rng(3)
    labels = {}
    for pol in ("H", "V"):
        for spot in ("in", "a", "b"):
            labels[(pol, spot)] = photon_mode("stokes", pol, spot)
    reg = register_modes(list(labels.values()), 2)
    alpha, beta = 0.6, 0.8
    splits = [
        mz_split(labels[(pol, "in")], labels[(pol, "a")], labels[(pol, "b")], alpha, beta)
        for pol in ("H", "V")
    ]
    swaps = [pol_rotator(labels[("H", s)], labels[("V", s)]) for s in ("in", "a", "b")]
    state = random_state(reg, rng, max_total=1)
    before = state
    for el in swaps:
        before = apply_unitary(before, el)
    for el in splits:
        before = apply_unitary(before, el)
    after = state
    for el in splits:
        after = apply_unitary(after, el)
    for el in swaps:
        after = apply_unitary(after, el)
    for key in set(before.support()) | set(after.support()):
        assert before.amplitude(key) == pytest.approx(after.amplitude(key), abs=1e-12)


def test_bs50_single_photon():
    reg = register_modes([H, V], 2)
    out = apply_unitary(basis_state(reg, {H: 1}), bs50(H, V))
    assert out.amplitude((1, 0)) == pytest.approx(1 / math.sqrt(2))
    assert out.amplitude((0, 1)) == pytest.approx(1 / math.sqrt(2))


def test_bs50_hong_ou_mandel():
    reg = register_modes([H, V], 3)
    out = apply_unitary(basis_state(reg, {H: 1, V: 1}), bs50(H, V))
    assert out.amplitude((2, 0)) == pytest.approx(1 / math.sqrt(2))
    assert out.amplitude((0, 2)) == pytest.approx(-1 / math.sqrt(2))
    assert out.amplitude((1, 1)) == pytest.approx(0.0, abs=1e-15)


def test_bs50_matrix_is_an_involution():
    # [[1, 1], [1, -1]]/sqrt(2) is Hermitian and unitary, so applying the
    # splitter twice is the identity at the matrix level
    m = bs50(H, V).matrix
    assert np.max(np.abs(m @ m - np.eye(2))) < 1e-12


def test_phase_shifter_counts_quanta():
    reg = register_modes([H, V], 3)
    el = phase_shifter([H], [math.pi / 3])
    out = apply_unitary(basis_state(reg, {H: 2}), el)
    assert out.amplitude((2, 0)) == pytest.approx(np.exp(2j * math.pi / 3))


@pytest.mark.parametrize("survival", [-0.1, 1.5])
def test_loss_coupler_rejects_survival_outside_unit_interval(survival):
    with pytest.raises(ValueError, match="outside"):
        loss_coupler(H, V, survival)


def test_photon_number_conservation():
    rng = np.random.default_rng(17)
    reg = register_modes([IN_R, IN_L, H, V], 3)
    elements = [
        qwp(IN_R, IN_L, H, V),
        hwp(H, V),
        pol_rotator(H, V),
        bs50(IN_R, IN_L),
        loss_coupler(H, V, 0.37),
    ]
    for el in elements:
        state = random_state(reg, rng)
        out = apply_unitary(state, el)
        n_in = {sum(p) for p in state.support()}
        probs_by_n: dict[int, float] = {}
        for p, a in out.items():
            probs_by_n[sum(p)] = probs_by_n.get(sum(p), 0.0) + abs(a) ** 2
        probs_in: dict[int, float] = {}
        for p, a in state.items():
            probs_in[sum(p)] = probs_in.get(sum(p), 0.0) + abs(a) ** 2
        for n in n_in:
            assert probs_by_n.get(n, 0.0) == pytest.approx(probs_in[n], abs=1e-12)
