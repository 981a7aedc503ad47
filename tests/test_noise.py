import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dfsmem.fock import (
    MixedState,
    OpticalElement,
    apply_unitary,
    basis_state,
    fidelity_mixed,
    fidelity_pure,
    photon_mode,
    project_total_occupation,
    register_modes,
    vacuum,
    PureState,
)
from dfsmem.noise import (
    DetectorSpec,
    FidelityReport,
    NoiseParams,
    apply_loss,
    dF_vs_eta,
    end_to_end_fidelity,
    fidelity_vs_T,
    p0_analytic,
    p1_analytic,
    po_analytic,
    preparation_time,
)
from dfsmem.protocol import build_write_setup, entangled_state, ideal_entangled_state
from dense_oracle import random_state, random_unitary


def test_p1_lossless_limit():
    n = NoiseParams(pc=0.02, chi=1.0, eta_d=1.0, L0=0.0)
    assert p1_analytic(n) == pytest.approx(0.04)


def test_p1_attenuation_factor():
    n = NoiseParams(pc=0.02, L0=5.0, L_att=5.0)
    assert p1_analytic(n) == pytest.approx(0.04 * math.exp(-1.0))


def test_p1_frozen_value():
    n = NoiseParams(pc=0.01, chi=1.0 / 3.0, eta_d=1.0, L0=0.0)
    assert p1_analytic(n) == pytest.approx(1.0 / 150.0)


def test_p0_frozen_value():
    # 100 Hz dark rate against 10 MHz repetition: p_dc = 1e-5 per window
    n = NoiseParams(pc=0.01, chi=1.0 / 3.0, eta_d=1.0, p_dc=1e-5)
    assert p0_analytic(n) == pytest.approx(3e-3)


def test_p0_scalings():
    n = NoiseParams(pc=0.01, chi=1.0, eta_d=1.0, p_dc=0.0)
    assert p0_analytic(n) == 0.0
    full = NoiseParams(pc=0.01, chi=1.0, eta_d=1.0, p_dc=1e-5)
    half = NoiseParams(pc=0.01, chi=0.5, eta_d=1.0, p_dc=1e-5)
    assert p0_analytic(half) == pytest.approx(2.0 * p0_analytic(full))


def test_po_values_and_decay():
    perfect = NoiseParams(pc=0.01, chi=1.0, eta_d=1.0)
    assert po_analytic(perfect, 2) == 0.0
    n = NoiseParams(pc=0.01, chi=1.0, eta_d=0.5, L0=0.0)
    assert po_analytic(n, 2) == pytest.approx(5e-5)
    assert po_analytic(n, 3) / po_analytic(n, 2) == pytest.approx(n.pc)


def test_preparation_time():
    assert preparation_time(1.0 / 150.0, 1e7) == pytest.approx(1.5e-5)
    assert preparation_time(2e-3, 1e7) == pytest.approx(preparation_time(1e-3, 1e7) / 2)
    assert preparation_time(1.0, 1.0) == pytest.approx(1.0)


def test_fidelity_vs_T_anchor_points():
    curve = dict(fidelity_vs_T(1.0 / 3.0, 10e6, [15e-6, 30e-6]))
    assert curve[15e-6] == pytest.approx(0.99, abs=1e-12)
    assert curve[30e-6] == pytest.approx(0.995, abs=1e-12)


def test_fidelity_vs_T_monotone_to_one():
    ts = [1e-6 * k for k in range(1, 200)]
    curve = fidelity_vs_T(0.5, 10e6, ts)
    values = [f for _, f in curve]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert curve[-1][1] < 1.0
    assert fidelity_vs_T(0.5, 10e6, [1e3])[0][1] == pytest.approx(1.0, abs=1e-9)


def test_fidelity_vs_T_rejects_bad_inputs():
    with pytest.raises(ValueError):
        fidelity_vs_T(1.0 / 3.0, 10e6, [0.0])
    with pytest.raises(ValueError):
        fidelity_vs_T(0.0, 10e6, [1e-5])


def test_dF_vs_eta_anchor_points():
    curve = dict(dF_vs_eta(20e-6, 10e6, [0.1, 1.0]))
    assert curve[0.1] == pytest.approx(0.025, abs=1e-12)
    assert curve[1.0] == pytest.approx(0.0025, abs=1e-12)
    assert curve[0.1] - curve[1.0] == pytest.approx(0.0225, abs=1e-12)


def test_dF_vs_eta_larger_T_uniformly_smaller():
    etas = [0.1 + 0.05 * k for k in range(19)]
    by_T = {T: dict(dF_vs_eta(T, 10e6, etas)) for T in (20e-6, 30e-6, 40e-6)}
    for eta in etas:
        assert by_T[30e-6][eta] < by_T[20e-6][eta]
        assert by_T[40e-6][eta] < by_T[30e-6][eta]


def test_dF_vs_eta_halves_when_eta_doubles():
    curve = dict(dF_vs_eta(20e-6, 10e6, [0.25, 0.5]))
    assert curve[0.5] == pytest.approx(curve[0.25] / 2.0)


def test_analytic_probabilities_stay_in_range():
    rng = np.random.default_rng(2)
    for _ in range(200):
        pc = float(rng.uniform(1e-4, 0.499))
        chi = float(rng.uniform(0.05, 1.0))
        eta_d = float(rng.uniform(0.05, 1.0))
        l0 = float(rng.uniform(0.0, 3.0))
        n = NoiseParams(pc=pc, chi=chi, eta_d=eta_d, L0=l0, L_att=1.0)
        p_dc = float(rng.uniform(0.0, pc * n.eta_prime))
        n = NoiseParams(pc=pc, chi=chi, eta_d=eta_d, p_dc=p_dc, L0=l0, L_att=1.0)
        assert 0.0 <= p1_analytic(n) <= 1.0
        assert 0.0 <= p0_analytic(n) <= 1.0
        assert 0.0 <= po_analytic(n, 2) <= 1.0


PH = photon_mode("stokes", "H", "line")
PV = photon_mode("stokes", "V", "line")


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: apply_loss(vacuum(register_modes([PH, PV], 3)), [], 1.5),
                 r"survival 1.5 outside \[0, 1\]", id="loss-without-modes"),
    pytest.param(lambda: end_to_end_fidelity(0.01, NoiseParams(eta_d=0.0)),
                 "herald never fires", id="blind-herald-detector"),
    pytest.param(lambda: end_to_end_fidelity(0.3, NoiseParams(pc=0.01)),
                 r"pc=0.3 differs from noise.pc=0.01", id="pc-differs-from-noise"),
])
def test_noise_rejects_invalid_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_apply_loss_survival_one():
    reg = register_modes([PH, PV], 3)
    state = PureState(reg, {(1, 0): 0.6, (0, 1): 0.8})
    out = apply_loss(state, [PH], 1.0)
    assert len(out.components) == 1
    assert fidelity_pure(out.components[0][1], state) == pytest.approx(1.0, abs=1e-12)


def test_apply_loss_single_photon_branching():
    reg = register_modes([PH, PV], 3)
    eta = 0.37
    out = apply_loss(basis_state(reg, {PH: 1}), [PH], eta)
    weights = {s.support()[0]: w for w, s in out.components}
    assert weights[(1, 0)] == pytest.approx(eta, abs=1e-12)
    assert weights[(0, 0)] == pytest.approx(1 - eta, abs=1e-12)


def test_apply_loss_two_photon_binomial():
    # independent oracle: n=2 photons thin binomially
    reg = register_modes([PH, PV], 3)
    eta = 0.6
    out = apply_loss(basis_state(reg, {PH: 2}), [PH], eta)
    weights = {s.support()[0]: w for w, s in out.components}
    assert weights[(2, 0)] == pytest.approx(eta**2, abs=1e-12)
    assert weights[(1, 0)] == pytest.approx(2 * eta * (1 - eta), abs=1e-12)
    assert weights[(0, 0)] == pytest.approx((1 - eta) ** 2, abs=1e-12)


def test_apply_loss_vacuum_unchanged():
    reg = register_modes([PH, PV], 3)
    for eta in (0.0, 0.4, 1.0):
        out = apply_loss(vacuum(reg), [PH], eta)
        assert len(out.components) == 1
        assert fidelity_pure(out.components[0][1], vacuum(reg)) == pytest.approx(1.0)


def test_apply_loss_preserves_trace_and_commutes_with_disjoint_unitaries():
    rng = np.random.default_rng(9)
    other = photon_mode("stokes", "H", "elsewhere")
    reg = register_modes([PH, PV, other], 3)
    for _ in range(10):
        state = random_state(reg, rng, max_total=2)
        eta = float(rng.uniform(0.1, 0.95))
        lost = apply_loss(state, [PH], eta)
        assert sum(w for w, _ in lost.components) == pytest.approx(1.0, abs=1e-12)
        el = OpticalElement("disjoint", (PV, other), random_unitary(2, rng))
        a = apply_loss(apply_unitary(state, el), [PH], eta)
        b = MixedState(
            tuple((w, apply_unitary(s, el)) for w, s in apply_loss(state, [PH], eta).components)
        )
        probe = random_state(reg, rng, max_total=2)
        assert fidelity_mixed(a, probe) == pytest.approx(
            fidelity_mixed(b, probe), abs=1e-12
        )


@st.composite
def _loss_cases(draw):
    """A random small state, two modes to lose, a survival, and three probes."""
    k = draw(st.integers(2, 4))
    d = draw(st.integers(2, 3))
    labels = [photon_mode("stokes", "H", f"m{i}") for i in range(k)]
    reg = register_modes(labels, d)
    basis = list(itertools.product(range(d), repeat=k))
    # |x| in (1e-3, 1]; a .filter here tripped the filter_too_much health check
    part = st.floats(1e-3, 1.0, exclude_min=True) | st.floats(-1.0, -1e-3, exclude_max=True)

    def random_pure():
        patterns = draw(st.lists(st.sampled_from(basis), min_size=1, max_size=8, unique=True))
        return PureState(reg, {p: complex(draw(part), draw(part)) for p in patterns}).normalize()

    modes = draw(st.lists(st.sampled_from(labels), min_size=2, max_size=2, unique=True))
    survival = draw(st.floats(0.0, 1.0))
    return random_pure(), modes, survival, [random_pure() for _ in range(3)]


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_loss_cases())
def test_apply_loss_two_modes_equals_mode_by_mode(case):
    state, (m1, m2), eta, probes = case
    joint = apply_loss(state, [m1, m2], eta)
    chained = MixedState(tuple(
        (w1 * w2, s2)
        for w1, s1 in apply_loss(state, [m1], eta).components
        for w2, s2 in apply_loss(s1, [m2], eta).components
    ))
    assert sum(w for w, _ in joint.components) == pytest.approx(1.0, abs=1e-12)
    for probe in probes:
        assert fidelity_mixed(joint, probe) == pytest.approx(
            fidelity_mixed(chained, probe), abs=1e-12
        )


@pytest.mark.parametrize("det", [
    DetectorSpec(1.0), DetectorSpec(0.56, 1e-3), DetectorSpec(0.0, 0.3),
])
def test_clicks_probability_over_every_click_vector(det):
    vectors = list(itertools.product((False, True), repeat=4))
    for photons in itertools.product(range(3), repeat=4):
        weights = {clicks: det.clicks_probability(photons, clicks) for clicks in vectors}
        assert abs(sum(weights.values()) - 1.0) <= 1e-15
        if det.efficiency == 1.0:
            assert all(w in (0.0, 1.0) for w in weights.values())
            fired = [clicks for clicks, w in weights.items() if w == 1.0]
            assert fired == [tuple(n >= 1 for n in photons)]


def _sector_reference(pc: float, noise: NoiseParams) -> dict[str, float]:
    """The heralded mixture built sector by sector: one total-occupation
    projection per photon number on the outputs of each loss component."""
    setup = build_write_setup()
    fibers = [setup.photon("H", "fiber"), setup.photon("V", "fiber")]
    mixed = apply_loss(entangled_state(pc, setup), fibers, noise.channel_survival)
    det = DetectorSpec(noise.eta_d, noise.p_dc)
    atomic_idx = (setup.registry.index(setup.s_l), setup.registry.index(setup.s_r))
    kept = []  # weight, normalized sector, photons, excitations
    for w, s in mixed.components:
        for n in range(setup.registry.d):
            sector, prob = project_total_occupation(s, setup.output_modes(), n)
            click = det.click_probability(n)
            if prob <= 0.0 or click <= 0.0:
                continue
            sector = sector.normalize()
            counts = {sum(p[i] for i in atomic_idx) for p in sector.support()}
            assert len(counts) == 1
            kept.append((w * prob * click, sector, n, counts.pop()))
    herald = sum(wt for wt, _, _, _ in kept)
    rho = MixedState(tuple((wt / herald, s) for wt, s, _, _ in kept))
    F = fidelity_mixed(rho, ideal_entangled_state(setup))
    return {
        "p0": sum(wt for wt, _, n, a in kept if n == 0 and a == 0) / herald,
        "p1": sum(wt for wt, _, n, a in kept if n == 1 and a == 1) / herald,
        "po": sum(wt for wt, _, _, a in kept if a >= 2) / herald,
        "eta_prime": noise.eta_prime,
        "herald_probability": herald,
        "T_seconds": preparation_time(herald, noise.f_p),
        "F": F,
        "delta_F": 1.0 - F,
        "p0_analytic": p0_analytic(noise) if noise.p_dc > 0 else 0.0,
        "p1_analytic": p1_analytic(noise),
        "po_analytic": po_analytic(noise, 2),
    }


@pytest.mark.parametrize("pc", [0.01, 0.1, 0.2])
@pytest.mark.parametrize("noisy", [False, True])
def test_end_to_end_matches_sector_reference(pc, noisy):
    noise = NoiseParams(pc=pc, **({"chi": 0.7, "eta_d": 0.8, "p_dc": 1e-3} if noisy else {}))
    report = dataclasses.asdict(end_to_end_fidelity(pc, noise))
    reference = _sector_reference(pc, noise)
    assert report.keys() == reference.keys()
    for name, value in report.items():
        assert value == pytest.approx(reference[name], abs=1e-12), name


def test_end_to_end_perfect_detectors_blame_pair_terms():
    # eta_d = 1, no darks: weight that is not the one-excitation component
    # comes only from the two-excitation emissions
    report = end_to_end_fidelity(0.01, NoiseParams(pc=0.01, eta_d=1.0, p_dc=0.0))
    assert report.p0 == 0.0
    assert report.po > 0.0
    assert report.p0 + report.p1 + report.po == pytest.approx(1.0, abs=1e-12)
    assert report.F == pytest.approx(report.p1, abs=1e-12)
    assert report.delta_F == pytest.approx(1.5 * 0.01 / (1 + 1.5 * 0.01), rel=1e-9)


def test_end_to_end_delta_f_tracks_pc():
    for pc in (1e-3, 5e-3, 1e-2, 5e-2):
        report = end_to_end_fidelity(pc, NoiseParams(pc=pc, eta_d=1.0, p_dc=0.0))
        assert 0.5 * pc <= report.delta_F <= 2.0 * pc


def test_end_to_end_vanishing_pc():
    report = end_to_end_fidelity(1e-6, NoiseParams(pc=1e-6))
    assert report.delta_F == pytest.approx(0.0, abs=1e-5)


def test_end_to_end_with_loss_and_darks():
    noise = NoiseParams(pc=0.01, chi=0.5, eta_d=0.6, p_dc=1e-5, L0=1.0, L_att=2.0)
    report = end_to_end_fidelity(0.01, noise)
    assert 0.0 < report.F < 1.0
    assert report.p0 > 0.0
    assert report.p0 + report.p1 + report.po <= 1.0 + 1e-12
    assert report.T_seconds == pytest.approx(
        1.0 / (report.herald_probability * noise.f_p)
    )
    assert report.eta_prime == pytest.approx(noise.eta_prime)


def test_fidelity_report_consistency_guard():
    with pytest.raises(ValueError):
        FidelityReport(
            p0=0.0, p1=1.0, po=0.0, eta_prime=1.0, herald_probability=0.1,
            T_seconds=1.0, F=0.9, delta_F=0.2,
            p0_analytic=0.0, p1_analytic=0.0, po_analytic=0.0,
        )
