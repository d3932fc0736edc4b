"""Parameter containers, unit conversions, and Hamiltonian assembly."""

import math

import numpy as np
import pytest

import mmhopfield as mm
from mmhopfield.model import (RAD_PER_SEC_PER_THZ, strengths_from_ratios,
                              two_mode_rabi)

import oracles

# CODATA 2018 values restated here so the conversion test does not share
# constants with the production code
_E_CHARGE = 1.602176634e-19
_M_ELECTRON = 9.1093837015e-31


def test_cyclotron_frequency_at_one_tesla():
    nu = mm.cyclotron_frequency(1.0)
    oracle = _E_CHARGE * 1.0 / (2.0 * math.pi * 0.07 * _M_ELECTRON) / 1e12
    assert abs(nu - oracle) < 1e-12
    assert abs(nu - 0.39986) < 1e-4


def test_cyclotron_frequency_at_max_bias():
    # 5.5 T spans the top of the sweep range
    assert abs(mm.cyclotron_frequency(5.5) - 2.199) < 2e-3


def test_cyclotron_linearity():
    rng = np.random.default_rng(7)
    base = mm.cyclotron_frequency(1.0)
    for field in rng.uniform(0.01, 10.0, size=200):
        nu = mm.cyclotron_frequency(field)
        assert abs(nu - field * base) <= 1e-14 * nu


def test_field_cyclotron_round_trip():
    rng = np.random.default_rng(8)
    for field in rng.uniform(0.05, 6.0, size=100):
        back = mm.field_for_cyclotron(mm.cyclotron_frequency(field))
        assert abs(back - field) < 1e-12 * field


def test_cyclotron_rejects_negative_field():
    with pytest.raises(ValueError):
        mm.cyclotron_frequency(-0.1)


def test_overlap_decomposition_identity():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        wt = rng.uniform(0.0, 5.0)
        eta = rng.uniform(0.0, 1.0)
        c = mm.couplings_from_overlap(1.0, wt, eta, reference_cyclotron=0.8)
        total = c.rabi[1, 0] ** 2 + c.rabi[1, 1] ** 2
        assert total == pytest.approx(wt ** 2, rel=1e-12, abs=1e-15)


def test_overlap_decomposition_example():
    c = mm.couplings_from_overlap(1.0, 1.0, 0.15, reference_cyclotron=0.8)
    assert c.rabi[1, 0] == pytest.approx(0.15, rel=1e-12)
    assert c.rabi[1, 1] == pytest.approx(0.98869, abs=1e-5)
    assert c.rabi[0, 1] == 0.0


def test_unit_overlap_kills_second_diagonal_coupling():
    c = mm.couplings_from_overlap(1.0, 2.0, 1.0, reference_cyclotron=0.8)
    assert c.rabi[1, 1] == 0.0
    assert c.rabi[1, 0] == 2.0


def test_ratio_constructor_reference_quoting(photon_pair):
    # each ratio is quoted at its own mode's resonance; the stored set lives
    # at nu_1, so re-quoting at nu_2 must reproduce ratio_2_tilde exactly
    c = mm.couplings_from_ratios(photon_pair, 0.37, 0.21, 0.15)
    assert c.reference_cyclotron == photon_pair[0].frequency
    assert c.rabi[0, 0] == pytest.approx(0.37 * photon_pair[0].omega, rel=1e-15)
    at_nu2 = mm.rescale_coupling(c, photon_pair[1].frequency)
    wt2 = math.hypot(at_nu2.rabi[1, 0], at_nu2.rabi[1, 1])
    assert wt2 == pytest.approx(0.21 * photon_pair[1].omega, rel=1e-12)


def test_rescale_quadrupled_bias_doubles_entries(photon_pair):
    c = mm.couplings_from_ratios(photon_pair, 0.37, 0.21, 0.15)
    scaled = mm.rescale_coupling(c, 4.0 * c.reference_cyclotron)
    assert np.array_equal(scaled.rabi, 2.0 * c.rabi)
    assert scaled.reference_cyclotron == 4.0 * c.reference_cyclotron
    assert scaled.overlap == c.overlap


def test_rescale_to_zero_field(photon_pair):
    c = mm.couplings_from_ratios(photon_pair, 0.37, 0.21, 0.15)
    assert np.all(mm.rescale_coupling(c, 0.0).rabi == 0.0)


def test_diamagnetic_shared_matter_mode_cross_term():
    a, b = 1.3e12, 0.4e12
    rabi = np.array([[a, 0.0], [b, 0.0]])
    c = mm.CouplingSet(rabi=rabi, overlap=1.0, reference_cyclotron=0.9)
    h = mm.diamagnetic_matrix(c, 0.9)
    w_c = 0.9 * RAD_PER_SEC_PER_THZ
    assert h[0, 1] == pytest.approx(a * b / w_c, rel=1e-14)
    assert h[1, 0] == h[0, 1]


def test_diamagnetic_bias_independence(photon_pair):
    # sqrt(w_c) coupling scaling cancels the 1/w_c prefactor exactly
    c = mm.couplings_from_ratios(photon_pair, 0.37, 0.21, 0.15)
    ref = mm.diamagnetic_matrix(c, c.reference_cyclotron)
    for nu_c in (0.05, 0.3, 0.8, 1.6, 2.2):
        h = mm.diamagnetic_matrix(mm.rescale_coupling(c, nu_c), nu_c)
        np.testing.assert_allclose(h, ref, rtol=1e-12)


def test_mode_volume_round_trip():
    material = mm.MaterialParams()
    photon = mm.PhotonMode(index=1, frequency=0.8)
    target = 0.37 * photon.omega
    volume = mm.mode_volume_for_coupling(photon, material, 0.8, target)
    mode = mm.PhotonMode(index=1, frequency=0.8, effective_mode_volume=volume)
    assert mm.rabi_microscopic(mode, material, 0.8) == pytest.approx(
        target, rel=1e-12)


def test_rabi_microscopic_scales_with_sqrt_bias():
    material = mm.MaterialParams()
    mode = mm.PhotonMode(index=1, frequency=0.8, effective_mode_volume=1e-17)
    w1 = mm.rabi_microscopic(mode, material, 0.5)
    w2 = mm.rabi_microscopic(mode, material, 2.0)
    assert w2 == pytest.approx(2.0 * w1, rel=1e-12)


def test_rabi_microscopic_requires_volume():
    with pytest.raises(ValueError):
        mm.rabi_microscopic(mm.PhotonMode(index=1, frequency=0.8),
                            mm.MaterialParams(), 0.8)


def test_assemble_block_structure(photon_pair, unstructured_coupling):
    nu_c = 1.1
    ham = mm.assemble_hamiltonian(photon_pair, nu_c, unstructured_coupling)
    assert ham.n_photon == ham.n_matter == 2
    np.testing.assert_allclose(
        ham.diag_freqs,
        [m.omega for m in photon_pair] + [nu_c * RAD_PER_SEC_PER_THZ] * 2,
        rtol=1e-15)
    g = ham.interaction
    assert np.array_equal(g, g.T)
    assert np.all(g[2:, 2:] == 0.0)
    at_field = mm.rescale_coupling(unstructured_coupling, nu_c)
    np.testing.assert_allclose(g[:2, 2:], at_field.rabi, rtol=1e-12)
    np.testing.assert_allclose(
        g[:2, :2], 2.0 * mm.diamagnetic_matrix(at_field, nu_c), rtol=1e-12)


def test_assemble_matches_quadrature_oracle_form(photon_pair,
                                                 unstructured_coupling):
    # same G as the independent oracle assembly used throughout the tests
    nu_c = 0.7
    ham = mm.assemble_hamiltonian(photon_pair, nu_c, unstructured_coupling)
    at_field = mm.rescale_coupling(unstructured_coupling, nu_c)
    g = oracles.hamiltonian_interaction(
        [m.omega for m in photon_pair], at_field.rabi,
        nu_c * RAD_PER_SEC_PER_THZ)
    np.testing.assert_allclose(ham.interaction, g, rtol=1e-12, atol=1e-3)


def test_assemble_zero_field_keeps_blueshift(photon_pair,
                                             unstructured_coupling):
    ham = mm.assemble_hamiltonian(photon_pair, 0.0, unstructured_coupling)
    assert np.all(ham.diag_freqs > 0.0)
    assert np.all(ham.interaction[:2, 2:] == 0.0)
    ref = mm.diamagnetic_matrix(unstructured_coupling,
                                unstructured_coupling.reference_cyclotron)
    np.testing.assert_allclose(ham.interaction[:2, :2], 2.0 * ref, rtol=1e-12)


def test_assemble_photon_order_permutation(photon_pair):
    c = mm.couplings_from_ratios(photon_pair, 0.37, 0.21, 0.15)
    ham = mm.assemble_hamiltonian(photon_pair, 0.9, c)

    swapped_photons = [mm.PhotonMode(index=1, frequency=1.6),
                       mm.PhotonMode(index=2, frequency=0.8)]
    swapped = mm.CouplingSet(rabi=c.rabi[::-1].copy(), overlap=c.overlap,
                             reference_cyclotron=c.reference_cyclotron)
    ham_swapped = mm.assemble_hamiltonian(swapped_photons, 0.9, swapped)

    perm = np.array([1, 0, 2, 3])
    np.testing.assert_allclose(ham_swapped.diag_freqs,
                               ham.diag_freqs[perm], rtol=1e-15)
    np.testing.assert_allclose(ham_swapped.interaction,
                               ham.interaction[np.ix_(perm, perm)], rtol=1e-12)


def test_two_mode_rabi_equals_scalar_formula(photon_pair):
    rng = np.random.default_rng(5)
    ratios = rng.uniform(0.0, 1.5, (40, 2))
    ratios[:2] = 0.0
    eta = np.r_[0.0, 1.0, 0.999, 1.0, rng.uniform(0.0, 1.0, 36)]
    stacked = two_mode_rabi(strengths_from_ratios(photon_pair, ratios), eta)
    assert stacked.shape == (40, 2, 2)
    w1, w2 = photon_pair[0].omega, photon_pair[1].omega
    root = math.sqrt(photon_pair[0].frequency / photon_pair[1].frequency)
    for (r11, r2), e, rabi in zip(ratios.tolist(), eta.tolist(), stacked):
        w11, wt2 = r11 * w1, r2 * w2 * root
        expected = np.array([[w11, 0.0],
                             [e * wt2, math.sqrt(1.0 - e * e) * wt2]])
        assert np.array_equal(rabi, expected)
        assert np.array_equal(
            mm.couplings_from_ratios(photon_pair, r11, r2, e).rabi, expected)
        assert np.array_equal(
            mm.couplings_from_overlap(w11, wt2, e, 0.8).rabi, expected)


def test_coupling_set_derives_its_mode_count():
    assert mm.CouplingSet(rabi=np.eye(3), overlap=1.0,
                          reference_cyclotron=1.0).n_photon == 3
    with pytest.raises(ValueError, match="square"):
        mm.CouplingSet(rabi=np.zeros((2, 2, 2)), overlap=1.0,
                       reference_cyclotron=1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_photon_mode_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="finite"):
        mm.PhotonMode(index=1, frequency=bad)
    with pytest.raises(ValueError, match="finite"):
        mm.PhotonMode(index=1, frequency=0.8, effective_mode_volume=bad)
    with pytest.raises(ValueError, match="finite"):
        mm.couplings_from_overlap(bad, 1.0, 0.5, reference_cyclotron=0.8)


def test_validation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        mm.PhotonMode(index=0, frequency=0.8)
    with pytest.raises(ValueError):
        mm.PhotonMode(index=1, frequency=-0.8)
    with pytest.raises(ValueError):
        mm.couplings_from_overlap(1.0, 1.0, 1.5, reference_cyclotron=0.8)
    with pytest.raises(ValueError):
        mm.couplings_from_overlap(-1.0, 1.0, 0.5, reference_cyclotron=0.8)
    with pytest.raises(ValueError):
        mm.CouplingSet(rabi=np.zeros((2, 1)), overlap=0.5,
                       reference_cyclotron=0.8)
    with pytest.raises(ValueError):
        mm.QuadraticHamiltonian(n_photon=1, n_matter=1,
                                diag_freqs=np.array([1.0, 1.0]),
                                interaction=np.array([[0.0, 0.1],
                                                      [0.2, 0.0]]))
