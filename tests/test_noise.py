import dataclasses
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dfsmem import fock, noise, protocol
from dfsmem.fock import (
    MixedState,
    OpticalElement,
    apply_unitary,
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
from dense_oracle import basis_state, coupler_loss, permanent_loss, random_state, random_unitary


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
    assert preparation_time(0.5, 1.5) == pytest.approx(4.0 / 3.0)


@pytest.mark.parametrize("value", [0.0, -1.0, 1.5, math.inf, math.nan])
def test_preparation_time_rejects_p1_outside_unit_interval(value):
    # NaN gave NaN, inf gave 0.0 and 2.0 gave 5e-08 seconds
    with pytest.raises(ValueError, match=r"p1=.* outside \(0, 1\]"):
        preparation_time(value, 1e7)


@pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
def test_preparation_time_rejects_f_p_outside_positive_reals(value):
    with pytest.raises(ValueError, match="f_p=.* must be positive and finite"):
        preparation_time(1e-3, value)


def test_end_to_end_fidelity_keeps_a_herald_rounded_above_one(monkeypatch):
    # at the largest p_dc below 1 the sector weights sum to one ulp above 1;
    # the herald is clamped to 1 where it is summed, so the report and the
    # preparation time both read 1
    sums = []
    monkeypatch.setattr(noise, "ordered_sum",
                        lambda values: sums.append(fock.ordered_sum(values)) or sums[-1])
    params = NoiseParams(pc=1e-4, p_dc=1.0 - 2.0**-52)
    report = end_to_end_fidelity(1e-4, params, 0.6, 0.8)
    assert sums[0] == 1.0 + 2.0**-52
    assert report.herald_probability == 1.0
    assert report.T_seconds == 1.0 / params.f_p


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


_NOT_POSITIVE_FINITE = [0.0, -1.0, math.inf, math.nan]


@pytest.mark.parametrize("bad", _NOT_POSITIVE_FINITE)
def test_curves_reject_f_p_outside_the_positive_reals(bad):
    # a negative f_p once read F = 1.0 and delta_F = -99999.99999999999
    with pytest.raises(ValueError, match=r"f_p=.* must be positive and finite"):
        fidelity_vs_T(0.5, bad, [1e-5])
    with pytest.raises(ValueError, match=r"f_p=.* must be positive and finite"):
        dF_vs_eta(1e-5, bad, [0.5])


@pytest.mark.parametrize("bad", _NOT_POSITIVE_FINITE)
def test_curves_reject_T_outside_the_positive_reals(bad):
    # a NaN T once read F = NaN, outside the promised [0, 1]
    with pytest.raises(ValueError, match=r"T=.* must be positive and finite"):
        fidelity_vs_T(0.5, 10e6, [1e-5, bad])
    with pytest.raises(ValueError, match=r"T=.* must be positive and finite"):
        dF_vs_eta(bad, 10e6, [0.5])


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


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(NoiseParams)])
def test_noise_params_reject_non_finite_values(name, value):
    with pytest.raises(ValueError, match=name):
        NoiseParams(**{name: value})


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


def _loss_gap(mixed, reference) -> float:
    """Largest weight or amplitude difference between apply_loss's
    components and a reference's, paired in order; inf when the number of
    components differs."""
    if len(mixed.components) != len(reference):
        return math.inf
    gap = 0.0
    for (w, s), (_, w_ref, amps) in zip(mixed.components, reference):
        keys = set(s.support()) | set(amps)
        gap = max(gap, abs(w - w_ref), *(abs(s.amplitude(k) - amps.get(k, 0j)) for k in keys))
    return gap


@st.composite
def _lossy_states(draw):
    """random_state on 1-3 lossy modes and one lossless spectator, d 3 or 4,
    and a survival in [0, 1] with both ends drawn on purpose."""
    k = draw(st.integers(1, 3))
    d = draw(st.sampled_from([3, 4]))
    lossy = [photon_mode("stokes", "H", f"m{i}") for i in range(k)]
    reg = register_modes([*lossy, photon_mode("stokes", "V", "spectator")], d)
    state = random_state(reg, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    order = draw(st.permutations(lossy))
    survival = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    return state, order, survival


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_lossy_states())
def test_apply_loss_matches_coupler_and_permanent_references(case):
    state, modes, survival = case
    couplers = coupler_loss(state, modes, survival)
    assert _loss_gap(apply_loss(state, modes, survival), couplers) <= 1e-15
    permanents = permanent_loss(state, modes, survival)
    assert _loss_gap(apply_loss(state, modes, survival), permanents) <= 1e-15
    assert [k for k, _, _ in couplers] == [k for k, _, _ in permanents]


def _two_photon_case():
    m0, m1 = photon_mode("stokes", "H", "m0"), photon_mode("stokes", "H", "m1")
    reg = register_modes([m0, m1, photon_mode("stokes", "V", "spectator")], 3)
    state = PureState(reg, {(2, 0, 0): 0.6, (1, 1, 0): 0.48j, (0, 1, 1): 0.64}).normalize()
    return state, [m0, m1], 0.3


def test_loss_references_catch_swapped_survival():
    state, modes, survival = _two_photon_case()
    reference = coupler_loss(state, modes, survival)
    assert _loss_gap(apply_loss(state, modes, survival), reference) <= 1e-15
    assert _loss_gap(apply_loss(state, modes, 1.0 - survival), reference) > 1e-3


def test_loss_references_catch_a_lossless_mode():
    state, modes, survival = _two_photon_case()
    for kept in (modes[:1], modes[1:]):
        assert _loss_gap(apply_loss(state, kept, survival),
                         coupler_loss(state, modes, survival)) > 1e-3


def test_loss_references_catch_a_dropped_binomial_factor(monkeypatch):
    state, modes, survival = _two_photon_case()
    reference = permanent_loss(state, modes, survival)
    real = noise._loss_steps

    def no_binomial(surv, d):
        return [[(k, den, c / math.sqrt(math.comb(n, k)), sf) for k, den, c, sf in row]
                for n, row in enumerate(real(surv, d))]

    monkeypatch.setattr(noise, "_loss_steps", no_binomial)
    # without the factor the channel loses trace, which MixedState would
    # reject; a plain holder lets the comparison itself see the error
    monkeypatch.setattr(noise, "MixedState", lambda parts: SimpleNamespace(components=parts))
    assert _loss_gap(apply_loss(state, modes, survival), reference) > 1e-3


def test_apply_loss_builds_no_network(monkeypatch):
    state, modes, survival = _two_photon_case()
    reference = coupler_loss(state, modes, survival)

    def forbidden(*args, **kwargs):
        raise AssertionError("apply_loss built a network")

    monkeypatch.setattr(fock, "apply_elements", forbidden)
    monkeypatch.setattr(fock, "apply_unitary", forbidden)
    monkeypatch.setattr(fock.ModeRegistry, "__init__", forbidden)
    monkeypatch.setattr(fock.OpticalElement, "__init__", forbidden)
    assert _loss_gap(apply_loss(state, modes, survival), reference) <= 1e-15


def test_apply_loss_sums_each_component_weight_once(monkeypatch):
    # one sum gives a component its weight and its normalization, and
    # MixedState's check sums it once more
    state, modes, survival = _two_photon_case()
    sums = []
    norm_squared = PureState.norm_squared
    monkeypatch.setattr(PureState, "norm_squared",
                        lambda self: sums.append(self) or norm_squared(self))
    mixed = apply_loss(state, modes, survival)
    assert len(mixed.components) > 1
    assert len(sums) == 2 * len(mixed.components)


@pytest.mark.parametrize("modes, survival, message", [
    pytest.param([PH], -0.1, r"survival -0.1 outside \[0, 1\]", id="survival-below-0"),
    pytest.param([PH], 1.1, r"survival 1.1 outside \[0, 1\]", id="survival-above-1"),
    pytest.param([photon_mode("stokes", "H", "nowhere")], 0.5, "is not registered",
                 id="unregistered-mode"),
    pytest.param([PH, PV, PH], 0.5, "listed twice", id="repeated-mode"),
])
def test_apply_loss_rejects_bad_arguments(modes, survival, message):
    state = basis_state(register_modes([PH, PV], 3), {PH: 1})
    with pytest.raises(ValueError, match=message):
        apply_loss(state, modes, survival)


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


def _sector_reference(pc: float, noise: NoiseParams, survival: float | None = None
                      ) -> dict[str, float]:
    """The heralded mixture built sector by sector: one total-occupation
    projection per photon number on the outputs of each loss component of
    the lifted eraser's output, the fibers losing photons at ``survival``
    (the channel survival of ``noise`` by default)."""
    setup = build_write_setup()
    fibers = [setup.photon("H", "fiber"), setup.photon("V", "fiber")]
    if survival is None:
        survival = noise.channel_survival
    mixed = apply_loss(entangled_state(pc, setup), fibers, survival)
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


def _check_sector_reference(params: NoiseParams) -> None:
    report = dataclasses.asdict(end_to_end_fidelity(params.pc, params))
    reference = _sector_reference(params.pc, params)
    assert report.keys() == reference.keys()
    for name, value in report.items():
        # relative too, for T_seconds, which grows as the herald falls
        assert value == pytest.approx(reference[name], abs=1e-14, rel=1e-14), name
    assert report["F"] == report["p1"]


@pytest.mark.parametrize("pc", [0.01, 0.1, 0.2])
@pytest.mark.parametrize("noisy", [False, True])
def test_end_to_end_matches_sector_reference(pc, noisy):
    _check_sector_reference(
        NoiseParams(pc=pc, **({"chi": 0.7, "eta_d": 0.8, "p_dc": 1e-3} if noisy else {})))


@settings(deadline=None, max_examples=60)
@given(pc=st.floats(1e-6, 0.49), chi=st.floats(0.01, 1.0), eta_d=st.floats(0.01, 1.0),
       p_dc=st.one_of(st.just(0.0), st.floats(1e-9, 0.5)), L0=st.floats(0.0, 5.0))
def test_end_to_end_matches_sector_reference_over_draws(pc, chi, eta_d, p_dc, L0):
    _check_sector_reference(NoiseParams(pc=pc, chi=chi, eta_d=eta_d, p_dc=p_dc, L0=L0))


def test_sector_reference_rejects_the_survival_applied_twice():
    # negative control: a channel survival applied twice over (s^2, as a
    # second pass of the loss would give) must move the report past the
    # tolerance of the comparison above
    params = NoiseParams(pc=0.1, chi=0.7, eta_d=0.8, p_dc=1e-3)
    report = dataclasses.asdict(end_to_end_fidelity(params.pc, params))
    twice = _sector_reference(params.pc, params, params.channel_survival**2)
    assert max(abs(report[k] - twice[k]) for k in ("p0", "p1", "po", "F")) > 1e-3


def test_end_to_end_fidelity_works_on_photon_counts(monkeypatch):
    # the report reads the emission's amplitudes and nothing else: no eraser
    # lift, no loss mixture, no Fock lift, no Born table
    def forbidden(*args, **kwargs):
        raise AssertionError("end_to_end_fidelity built a state")

    for module, name in ((protocol, "entangled_state"), (noise, "apply_loss"),
                         (fock, "apply_unitary")):
        monkeypatch.setattr(module, name, forbidden)
    params = NoiseParams(pc=0.1, chi=0.7, eta_d=0.8, p_dc=1e-3)
    assert end_to_end_fidelity(params.pc, params).F > 0.0
    assert not hasattr(fock, "born_probabilities")


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
