"""Parameter containers, unit conversions, and Hamiltonian assembly."""

import copy
import math
import re

import numpy as np
import pytest

import mmhopfield as mm
from mmhopfield.model import (GRAM_PIVOT_TOL, RAD_PER_SEC_PER_THZ,
                              rabi_from_gram, strengths_from_ratios)

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


@pytest.mark.parametrize("field", [-0.1, float("nan"), float("inf")])
def test_cyclotron_rejects_negative_field(field):
    with pytest.raises(ValueError, match="^magnetic field must be finite and "
                                         "non-negative$"):
        mm.cyclotron_frequency(field)


def _two_mode_gram(eta):
    """Stacked Gamma = [[1, eta], [eta, 1]]."""
    eta = np.asarray(eta, dtype=float)
    gram = np.ones(eta.shape + (2, 2))
    gram[..., 0, 1] = gram[..., 1, 0] = eta
    return gram


def test_overlap_decomposition_identity():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        wt = rng.uniform(0.0, 5.0)
        eta = rng.uniform(0.0, 1.0)
        rabi = rabi_from_gram([1.0, wt], _two_mode_gram(eta))
        total = rabi[1, 0] ** 2 + rabi[1, 1] ** 2
        assert total == pytest.approx(wt ** 2, rel=1e-12, abs=1e-15)


def test_overlap_decomposition_example():
    rabi = rabi_from_gram([1.0, 1.0], _two_mode_gram(0.15))
    assert rabi[1, 0] == pytest.approx(0.15, rel=1e-12)
    assert rabi[1, 1] == pytest.approx(0.98869, abs=1e-5)
    assert rabi[0, 1] == 0.0


def test_unit_overlap_kills_second_diagonal_coupling():
    rabi = rabi_from_gram([1.0, 2.0], _two_mode_gram(1.0))
    assert rabi[1, 1] == 0.0
    assert rabi[1, 0] == 2.0


def _at(photons, nu_c, rabi):
    """Bare frequencies and interaction of one operating point."""
    diag, inter = mm.assemble_batch(photons, [nu_c], rabi)
    return diag[0], inter[0]


def test_ratio_constructor_reference_quoting(photon_pair):
    # each ratio is quoted at its own mode's resonance; the Rabi matrix lives
    # at nu_1, so re-quoting at nu_2 must reproduce ratio_2_tilde exactly
    c = mm.couplings_from_ratios(photon_pair, 0.37, 0.21, 0.15)
    assert c[0, 0] == pytest.approx(0.37 * photon_pair[0].omega, rel=1e-15)
    _, inter = _at(photon_pair, photon_pair[1].frequency, c)
    wt2 = math.hypot(inter[1, 2], inter[1, 3])
    assert wt2 == pytest.approx(0.21 * photon_pair[1].omega, rel=1e-12)


def test_rescale_quadrupled_bias_doubles_entries(photon_pair):
    c = mm.couplings_from_ratios(photon_pair, 0.37, 0.21, 0.15)
    nu_1 = photon_pair[0].frequency
    _, inter = _at(photon_pair, 4.0 * nu_1, c)
    assert np.array_equal(inter[:2, 2:], 2.0 * c)
    np.testing.assert_allclose(
        inter[:2, 2:], oracles.rabi_at(c, 4.0 * nu_1, nu_1), rtol=1e-15)


def test_rescale_to_zero_field(photon_pair):
    c = mm.couplings_from_ratios(photon_pair, 0.37, 0.21, 0.15)
    _, inter = _at(photon_pair, 0.0, c)
    assert np.all(inter[:2, 2:] == 0.0)
    assert np.all(inter[2:, :2] == 0.0)


def test_diamagnetic_shared_matter_mode_cross_term():
    # W quoted at 0.9 THz, re-quoted at nu_1 = 0.8 THz for the assembly
    a, b = 1.3e12, 0.4e12
    rabi = np.array([[a, 0.0], [b, 0.0]])
    photons = [mm.PhotonMode(index=1, frequency=0.8),
               mm.PhotonMode(index=2, frequency=1.6)]
    _, inter = mm.assemble_batch(photons, [0.9],
                                 rabi * math.sqrt(0.8 / 0.9))
    h = 0.5 * inter[0, :2, :2]
    w_c = 0.9 * RAD_PER_SEC_PER_THZ
    assert h[0, 1] == pytest.approx(a * b / w_c, rel=1e-14)
    assert h[1, 0] == h[0, 1]
    np.testing.assert_allclose(h, oracles.diamagnetic_reference(rabi, 0.9),
                               rtol=1e-14)


def test_diamagnetic_bias_independence(photon_pair):
    # sqrt(w_c) coupling scaling cancels the 1/w_c prefactor exactly: the
    # blue shift W W^T / w_c of the couplings re-quoted at each nu_c is the
    # one the assembly puts on the photon block at every bias
    c = mm.couplings_from_ratios(photon_pair, 0.37, 0.21, 0.15)
    grid = [0.05, 0.3, 0.8, 1.6, 2.2]
    _, inter = mm.assemble_batch(photon_pair, grid, c)
    for nu_c, g in zip(grid, inter):
        h = oracles.diamagnetic_reference(
            oracles.rabi_at(c, nu_c, photon_pair[0].frequency), nu_c)
        np.testing.assert_allclose(g[:2, :2], 2.0 * h, rtol=1e-12)
        assert np.array_equal(g[:2, :2], inter[0, :2, :2])


def test_assemble_block_structure(photon_pair, unstructured_coupling):
    nu_c = 1.1
    diag, g = _at(photon_pair, nu_c, unstructured_coupling)
    np.testing.assert_allclose(
        diag,
        [m.omega for m in photon_pair] + [nu_c * RAD_PER_SEC_PER_THZ] * 2,
        rtol=1e-15)
    assert g.shape == (4, 4)
    assert np.array_equal(g, g.T)
    assert np.all(g[2:, 2:] == 0.0)
    at_field = oracles.rabi_at(unstructured_coupling, nu_c,
                               photon_pair[0].frequency)
    np.testing.assert_allclose(g[:2, 2:], at_field, rtol=1e-12)
    np.testing.assert_allclose(
        g[:2, :2], 2.0 * oracles.diamagnetic_reference(at_field, nu_c),
        rtol=1e-12)


def test_assemble_matches_quadrature_oracle_form(photon_pair,
                                                 unstructured_coupling):
    # same G as the independent oracle assembly used throughout the tests
    nu_c = 0.7
    _, inter = _at(photon_pair, nu_c, unstructured_coupling)
    at_field = oracles.rabi_at(unstructured_coupling, nu_c,
                               photon_pair[0].frequency)
    g = oracles.hamiltonian_interaction(
        [m.omega for m in photon_pair], at_field, nu_c * RAD_PER_SEC_PER_THZ)
    np.testing.assert_allclose(inter, g, rtol=1e-12, atol=1e-3)


def test_assemble_zero_field_keeps_blueshift(photon_pair,
                                             unstructured_coupling):
    diag, inter = _at(photon_pair, 0.0, unstructured_coupling)
    assert np.all(diag > 0.0)
    assert np.all(inter[:2, 2:] == 0.0)
    ref = oracles.diamagnetic_reference(unstructured_coupling,
                                        photon_pair[0].frequency)
    np.testing.assert_allclose(inter[:2, :2], 2.0 * ref, rtol=1e-12)


def test_assemble_photon_order_permutation(photon_pair):
    c = mm.couplings_from_ratios(photon_pair, 0.37, 0.21, 0.15)
    diag, inter = _at(photon_pair, 0.9, c)

    # W re-quoted from 0.8 THz at the new nu_1 = 1.6 THz
    swapped_photons = [mm.PhotonMode(index=1, frequency=1.6),
                       mm.PhotonMode(index=2, frequency=0.8)]
    swapped = c[::-1] * math.sqrt(1.6 / 0.8)
    diag_swapped, inter_swapped = _at(swapped_photons, 0.9, swapped)

    perm = np.array([1, 0, 2, 3])
    np.testing.assert_allclose(diag_swapped, diag[perm], rtol=1e-15)
    np.testing.assert_allclose(inter_swapped, inter[np.ix_(perm, perm)],
                               rtol=1e-12)


def test_two_mode_rabi_equals_scalar_formula(photon_pair):
    # the general factor at N = 2 is the two-mode formula to the last bit,
    # down to a pivot 1 - eta*eta just above GRAM_PIVOT_TOL
    rng = np.random.default_rng(5)
    ratios = rng.uniform(0.0, 1.5, (1040, 2))
    ratios[:2] = 0.0
    eta = np.r_[0.0, 1.0, 0.999, 1.0, 1e-300,
                math.sqrt(1.0 - 2.0 * GRAM_PIVOT_TOL),
                rng.uniform(0.0, 1.0, 1034)]
    strengths = strengths_from_ratios(photon_pair, ratios)
    stacked = rabi_from_gram(strengths, _two_mode_gram(eta))
    assert stacked.shape == (1040, 2, 2)
    assert np.array_equal(stacked, oracles.two_mode_rabi(strengths, eta))
    w1, w2 = photon_pair[0].omega, photon_pair[1].omega
    root = math.sqrt(photon_pair[0].frequency / photon_pair[1].frequency)
    for (r11, r2), e, rabi in zip(ratios[:40].tolist(), eta[:40].tolist(),
                                  stacked):
        w11, wt2 = r11 * w1, r2 * w2 * root
        expected = np.array([[w11, 0.0],
                             [e * wt2, math.sqrt(1.0 - e * e) * wt2]])
        assert np.array_equal(rabi, expected)
        assert np.array_equal(
            mm.couplings_from_ratios(photon_pair, r11, r2, e), expected)


def test_single_mode_coupling_keeps_its_bits():
    rng = np.random.default_rng(6)
    for ratio in [0.0, *rng.uniform(0.0, 5.0, 50).tolist()]:
        photon = mm.PhotonMode(index=1, frequency=rng.uniform(0.5, 2.0))
        coupling = mm.single_mode_coupling(photon, ratio)
        assert coupling.tolist() == [[ratio * photon.omega]]


def test_strengths_from_ratios_any_mode_count():
    photons = [mm.PhotonMode(index=i + 1, frequency=f)
               for i, f in enumerate((0.8, 1.6, 2.4))]
    got = strengths_from_ratios(photons, [[0.3, 0.2, 0.1]])
    want = [r * m.omega * math.sqrt(0.8 / m.frequency)
            for r, m in zip((0.3, 0.2, 0.1), photons)]
    np.testing.assert_allclose(got[0], want, rtol=1e-15)


def test_rabi_from_gram_factors_any_rank():
    # W W^T = diag(s) Gamma diag(s); each lost rank leaves a zero column
    rng = np.random.default_rng(12)
    strengths = np.array([1.0, 2.0, 3.0])
    for rank in (3, 2, 1):
        for _ in range(20):
            vectors = rng.normal(size=(3, rank))
            gram = vectors @ vectors.T
            norms = np.sqrt(gram.diagonal())
            gram = gram / norms[:, None] / norms
            rabi = rabi_from_gram(strengths, gram)
            # lower triangular with its rows in pivot order
            rows = np.argsort(np.count_nonzero(rabi, axis=1), kind="stable")
            assert np.array_equal(rabi[rows], np.tril(rabi[rows]))
            np.testing.assert_allclose(
                rabi @ rabi.T, strengths[:, None] * gram * strengths,
                rtol=0.0, atol=1e-12)
            assert not rabi[:, rank:].any()


def test_rabi_from_gram_factors_a_semidefinite_gram_of_small_pivot():
    # draw 68 of these rank-2 Gram matrices has eigenvalues 7e-17, 0.67 and
    # 2.33; taken in row order its second pivot is 1.5e-4 and rounding
    # leaves the third at -1.58e-12, past the cut. The largest remaining
    # diagonal first keeps every pivot clear of that
    rng = np.random.default_rng(3)
    for _ in range(69):
        vectors = rng.normal(size=(3, 2))
    gram = vectors @ vectors.T
    norms = np.sqrt(gram.diagonal())
    gram = gram / norms[:, None] / norms
    rabi = rabi_from_gram(np.ones(3), gram)
    np.testing.assert_allclose(rabi @ rabi.T, gram, rtol=0.0, atol=1e-15)
    assert not rabi[:, 2].any()


def test_rabi_from_gram_broadcasts_leading_axes():
    rng = np.random.default_rng(13)
    eta = rng.uniform(-1.0, 1.0, (4, 1))
    strengths = rng.uniform(0.0, 2.0, (4, 3, 2))
    stacked = rabi_from_gram(strengths, _two_mode_gram(eta))
    assert stacked.shape == (4, 3, 2, 2)
    for i, j in np.ndindex(4, 3):
        assert np.array_equal(stacked[i, j], rabi_from_gram(
            strengths[i, j], _two_mode_gram(eta[i, 0])))


@pytest.mark.parametrize("gram", [
    # a negative pivot: the third column's Schur complement is -2.24
    [[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]],
    # |eta| > 1
    [[1.0, 1.5], [1.5, 1.0]],
    # a zero pivot with a non-zero entry below it
    [[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]],
    # a negative pivot just below the rounding allowance
    [[1.0, 1.0 + 2.0 * GRAM_PIVOT_TOL], [1.0 + 2.0 * GRAM_PIVOT_TOL, 1.0]],
    [[1.0, float("nan")], [float("nan"), 1.0]],
], ids=["negative-pivot", "eta-above-1", "zero-pivot-column", "below-tol",
        "nan"])
def test_rabi_from_gram_rejects_an_indefinite_gram(gram):
    with pytest.raises(ValueError, match="not positive semidefinite"):
        rabi_from_gram(np.ones(len(gram)), gram)


def test_rabi_from_gram_keeps_rounding_pivots_zero():
    # a pivot 1 - eta*eta within GRAM_PIVOT_TOL of zero, on either side,
    # leaves its column zero
    for eta in np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), 1.0 - 1e-15:
        assert 0.0 < abs(1.0 - eta * eta) <= GRAM_PIVOT_TOL
        rabi = rabi_from_gram([1.0, 2.0], _two_mode_gram(eta))
        assert rabi.tolist() == [[1.0, 0.0], [2.0 * eta, 0.0]], eta


def test_rabi_from_gram_rejects_complex_and_misshapen_grams():
    with pytest.raises(ValueError, match="must be real"):
        rabi_from_gram([1.0, 1.0], np.eye(2) + 0j)
    with pytest.raises(ValueError, match="must be real"):
        rabi_from_gram([1.0, 1.0], [[1.0, 0.5j], [-0.5j, 1.0]])
    with pytest.raises(ValueError, match="Gram matrices of shape"):
        rabi_from_gram([1.0, 1.0], np.eye(3))


def test_coupling_sign_gauge_leaves_frequencies():
    # a signed Gamma gives signed Rabi entries, which sweep keeps;
    # flipping the sign of a photon row (a -> -a) or of a matter column
    # (b -> -b) is a gauge and leaves every branch frequency as it was.
    # This Gamma is frustrated, Gamma_12 Gamma_23 Gamma_31 < 0, so no
    # gauge makes W non-negative
    photons = [mm.PhotonMode(index=i + 1, frequency=f)
               for i, f in enumerate((0.8, 1.6, 2.4))]
    gram = [[1.0, 0.5, 0.5], [0.5, 1.0, -0.5], [0.5, -0.5, 1.0]]
    rabi = rabi_from_gram(strengths_from_ratios(photons, [0.3, 0.3, 0.3]),
                          gram)
    assert rabi[2, 1] < 0.0
    grid = 0.05 + 0.01 * np.arange(216)

    def branches(rabi):
        return np.sort(mm.sweep(photons, rabi, grid).branches, axis=1)

    base = branches(rabi)
    for rows, cols in (([1.0, -1.0, 1.0], [1.0, 1.0, 1.0]),
                       ([1.0, 1.0, 1.0], [1.0, -1.0, -1.0]),
                       ([-1.0, 1.0, -1.0], [-1.0, 1.0, 1.0])):
        gauged = np.array(rows)[:, None] * rabi * np.array(cols)
        np.testing.assert_allclose(branches(gauged), base, rtol=1e-12, atol=0.0)
    # |W| is no gauge of it: it changes W W^T, and so the branches
    assert not np.allclose(branches(np.abs(rabi)), base, rtol=1e-6, atol=0.0)


def test_sweep_result_derives_its_mode_count():
    photons = [mm.PhotonMode(index=i + 1, frequency=f)
               for i, f in enumerate((0.8, 1.6, 2.4))]
    result = mm.sweep(photons, 1e12 * np.eye(3), [0.5, 0.6])
    assert result.n_photon == 3 and result.n_branches == 6
    assert result.photon_fractions().shape == (2, 6)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_photon_mode_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="finite"):
        mm.PhotonMode(index=1, frequency=bad)
    with pytest.raises(ValueError, match="finite"):
        mm.couplings_from_ratios([mm.PhotonMode(index=1, frequency=0.8),
                                  mm.PhotonMode(index=2, frequency=1.6)],
                                 bad, 1.0, 0.5)
    with pytest.raises(ValueError, match="finite"):
        mm.sweep(_PAIR, [[1.0, 0.0], [bad, 1.0]], [0.5, 0.6])


def test_validation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        mm.PhotonMode(index=0, frequency=0.8)
    for index in (1.5, float("nan")):
        with pytest.raises(ValueError,
                           match="^mode index must be an integer >= 1$"):
            mm.PhotonMode(index=index, frequency=0.8)
    with pytest.raises(ValueError):
        mm.PhotonMode(index=1, frequency=-0.8)
    pair = [mm.PhotonMode(index=1, frequency=0.8),
            mm.PhotonMode(index=2, frequency=1.6)]
    with pytest.raises(ValueError, match=r"eta: must lie in \[0, 1\]"):
        mm.couplings_from_ratios(pair, 1.0, 1.0, 1.5)
    with pytest.raises(ValueError, match="ratio_11: ratios must be non-negative"):
        mm.couplings_from_ratios(pair, -1.0, 1.0, 0.5)
    with pytest.raises(ValueError, match="exactly two photon modes"):
        mm.couplings_from_ratios(pair[:1], 1.0, 1.0, 0.5)


_PAIR = [mm.PhotonMode(index=1, frequency=0.8),
         mm.PhotonMode(index=2, frequency=1.6)]


@pytest.mark.parametrize("call, message", [
    (lambda: mm.assemble_batch(_PAIR, [0.5], np.eye(3)),
     "2 photon modes but Rabi matrices of shape (3, 3)"),
    (lambda: mm.assemble_batch(_PAIR, [[0.5]], np.eye(2)),
     "nu_c values must form a one-dimensional grid"),
    (lambda: mm.assemble_batch(_PAIR, [0.5, -0.5], np.eye(2)),
     "nu_c must be finite and non-negative"),
    # sweep takes one matrix: a stack that assemble_batch would take is not
    (lambda: mm.sweep(_PAIR, np.zeros((3, 2, 2)), [0.5, 0.6]),
     "rabi must be square and non-empty, not (3, 2, 2)"),
    (lambda: mm.sweep(_PAIR, np.zeros((2, 3)), [0.5, 0.6]),
     "rabi must be square and non-empty, not (2, 3)"),
    (lambda: mm.sweep(_PAIR, np.zeros((0, 0)), [0.5, 0.6]),
     "rabi must be square and non-empty, not (0, 0)"),
    (lambda: mm.sweep(_PAIR, [[1e12, 0.0], [math.nan, 1e12]], [0.5, 0.6]),
     "rabi entries must be finite"),
    (lambda: mm.sweep(_PAIR, 1e12 * np.eye(3), [0.5, 0.6]),
     "2 photon modes but Rabi matrices of shape (3, 3)"),
], ids=["rabi-shape", "grid-not-1d", "negative-bias", "sweep-stacked-rabi",
        "sweep-non-square-rabi", "sweep-empty-rabi", "sweep-nan-rabi",
        "sweep-rabi-for-other-photons"])
def test_model_inputs_raise_their_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def _array_values():
    """One instance of each public type that holds an ndarray."""
    coupling = mm.couplings_from_ratios(_PAIR, 0.37, 0.2124026, 0.15)
    return [mm.sweep(_PAIR, coupling, [0.5, 0.6, 0.7]),
            mm.SpectrumConfig(frequency_grid=[0.4, 0.5], linewidths=0.04),
            mm.synthetic_profile("lc", nx=4, ny=4),
            mm.central_square_mask(4, 4, 1.0, 1.0, 1.0)]


@pytest.mark.parametrize("value", _array_values(),
                         ids=lambda value: type(value).__name__)
def test_array_holding_types_compare_and_hash_by_identity(value):
    # a generated == would compare the arrays and raise on their truth value
    twin = copy.copy(value)
    assert value == value
    assert value != twin
    assert hash(value) == hash(value) != hash(twin)
    assert {value, twin} == {twin, value}


def test_value_types_keep_value_equality():
    record = mm.PeakRecord(nu_c=0.5, peaks=[0.4, 0.6])
    values = [
        lambda: mm.PhotonMode(index=1, frequency=0.8),
        lambda: mm.FitConfig(eta_fixed=None),
        lambda: mm.FitResult(0.37, 0.21, 0.15, 1e-3, (1e-3,), 12, True),
        lambda: mm.PeakRecord(nu_c=0.5, peaks=(0.4, 0.6)),
        lambda: mm.PeakDataset(records=[record]),
        lambda: mm.DispersionFeatures(4, 0, (0.1, 0.2), 1.2, 0.5, 1.5),
    ]
    for make in values:
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
