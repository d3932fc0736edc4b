"""Exact diagonalization against the independent quadrature-basis oracle.

The production path takes eigh of the real symmetric N x N matrix
S = D^(1/2) (D + 2G) D^(1/2), whose smallest eigenvalue is the stability
margin; oracles.py solves the 2N x 2N quadrature equations of motion
instead and also carries the closed-form two-mode secular roots.
Frequencies, Hopfield fractions, symplectic norms, and the +/- pairing of
the ladder-basis dynamical matrix are all cross-checked.
"""

import re

import numpy as np
import pytest

import mmhopfield as mm
from mmhopfield.bogoliubov import hopfield_coefficients, normal_modes
from mmhopfield.model import (MATTER_FREQ_FLOOR_THZ, RAD_PER_SEC_PER_THZ,
                              assemble_batch)

import oracles


def _from_quadrature(d, g):
    # oracle systems are unit-agnostic; scale into rad/s so the THz output
    # of the production solver comes back in the oracle's numbers
    return (d * RAD_PER_SEC_PER_THZ,
            0.5 * ((g * RAD_PER_SEC_PER_THZ) + (g * RAD_PER_SEC_PER_THZ).T))


def _at(photons, nu_c, rabi):
    """Bare frequencies and interaction of one operating point."""
    diag, inter = assemble_batch(photons, [nu_c], rabi)
    return diag[0], inter[0]


def _solve(diag, inter):
    """One operating point as the stack of one: frequencies (THz), bare-mode
    fractions, and the Hopfield X and Y."""
    diag = diag[None]
    freqs, vecs = normal_modes(diag, inter[None])
    x, y = hopfield_coefficients(diag, freqs, vecs)
    return freqs[0], vecs[0] ** 2, x[0], y[0]


def _photon_weight(fracs, n_photon):
    return fracs[:, :n_photon].sum(axis=1)


def test_oracle_agreement_random_ensemble():
    rng = np.random.default_rng(2024)
    for trial in range(500):
        n = int(rng.integers(2, 5))
        d, g = oracles.random_stable_system(rng, n)
        freqs, fracs, _, _ = _solve(*_from_quadrature(d, g))
        ref_freqs, ref_fracs = oracles.quadrature_modes(d, g)
        np.testing.assert_allclose(freqs, ref_freqs, rtol=1e-8,
                                   err_msg=f"trial {trial}")
        np.testing.assert_allclose(fracs, ref_fracs, atol=1e-7,
                                   err_msg=f"trial {trial}")


def test_symplectic_norms_and_pairing():
    rng = np.random.default_rng(99)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        d, g = oracles.random_stable_system(rng, n)
        diag, inter = _from_quadrature(d, g)
        _, _, x, y = _solve(diag, inter)
        norms = (np.abs(x) ** 2 - np.abs(y) ** 2).sum(axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

        evals = np.linalg.eigvals(oracles.build_dynamical_matrix(diag, inter))
        assert np.max(np.abs(evals.imag)) < 1e-9 * np.max(np.abs(evals.real))
        pos = np.sort(evals.real[evals.real > 0.0])
        neg = np.sort(-evals.real[evals.real < 0.0])
        np.testing.assert_allclose(pos, neg, rtol=1e-9)


def test_dynamical_matrix_block_structure(photon_pair, unstructured_coupling):
    diag, inter = _at(photon_pair, 0.8, unstructured_coupling)
    m = oracles.build_dynamical_matrix(diag, inter)
    n = len(diag)
    a = np.diag(diag) + inter
    b = inter
    np.testing.assert_array_equal(m[:n, :n], a)
    np.testing.assert_array_equal(m[:n, n:], b)
    np.testing.assert_array_equal(m[n:, :n], -b)
    np.testing.assert_array_equal(m[n:, n:], -a)


def test_free_hamiltonian_is_trivial():
    diag = np.array([0.5, 1.0, 2.0]) * RAD_PER_SEC_PER_THZ
    freqs, fracs, _, y = _solve(diag, np.zeros((3, 3)))
    np.testing.assert_allclose(freqs, [0.5, 1.0, 2.0], rtol=1e-12)
    np.testing.assert_allclose(fracs, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(np.abs(y), 0.0, atol=1e-12)


def test_resonant_two_mode_against_secular_roots():
    photon = mm.PhotonMode(index=1, frequency=0.8)
    for ratio in (0.05, 0.1, 0.37, 0.6):
        freqs, _, _, _ = _solve(
            *_at([photon], 0.8, mm.single_mode_coupling(photon, ratio)))
        lower, upper = oracles.two_mode_secular(0.8, 0.8, ratio * 0.8)
        np.testing.assert_allclose(freqs, [lower, upper], rtol=1e-12)
        # with the diamagnetic term the polariton product equals the bare
        # product at any coupling
        assert freqs.prod() == pytest.approx(0.8 * 0.8, rel=1e-10)


def test_deep_strong_low_field_single_mode_against_secular_roots():
    # from moderate to deep-strong coupling and from near-zero field to far
    # above resonance, where the lower branch falls to ~1e-9 THz
    photon = mm.PhotonMode(index=1, frequency=0.8)
    grid = np.geomspace(1e-4, 10.0, 60)
    for ratio in (0.5, 5.0, 20.0, 100.0):
        res = mm.sweep([photon], mm.single_mode_coupling(photon, ratio), grid)
        lower, upper = oracles.two_mode_secular(
            0.8, grid, ratio * 0.8 * np.sqrt(grid / 0.8))
        np.testing.assert_allclose(np.sort(res.branches, axis=1),
                                   np.column_stack([lower, upper]),
                                   rtol=1e-10, err_msg=f"ratio {ratio}")


def test_resonant_fraction_balance_moderate_coupling():
    # half-half mixing holds at moderate coupling; deep in the ultrastrong
    # regime the A^2 term skews the balance (checked against the oracle in
    # test_oracle_agreement_random_ensemble and below)
    photon = mm.PhotonMode(index=1, frequency=0.8)
    _, fracs, _, _ = _solve(
        *_at([photon], 0.8, mm.single_mode_coupling(photon, 0.1)))
    photon_weight = _photon_weight(fracs, 1)
    assert abs(photon_weight[0] - 0.5) < 0.05
    assert abs(photon_weight[1] - 0.5) < 0.05


def test_resonant_fraction_ultrastrong_matches_oracle():
    photon = mm.PhotonMode(index=1, frequency=0.8)
    coupling = mm.single_mode_coupling(photon, 0.37)
    _, fracs, _, _ = _solve(*_at([photon], 0.8, coupling))
    at_field = oracles.rabi_at(coupling, 0.8, photon.frequency)
    g = oracles.hamiltonian_interaction([photon.omega], at_field,
                                        0.8 * RAD_PER_SEC_PER_THZ)
    ref_freqs, ref_fracs = oracles.quadrature_modes(
        np.array([photon.omega, 0.8 * RAD_PER_SEC_PER_THZ]),
        g)
    np.testing.assert_allclose(fracs, ref_fracs, atol=1e-10)
    # the skew is real: lower branch goes matter-heavy
    photon_weight = _photon_weight(fracs, 1)
    assert photon_weight[0] < 0.4
    assert photon_weight[1] > 0.6


def test_far_detuned_branch_is_pure():
    photon = mm.PhotonMode(index=1, frequency=0.8)
    coupling = mm.single_mode_coupling(photon, 0.37)
    _, fracs, _, _ = _solve(*_at([photon], 8.0, coupling))
    assert _photon_weight(fracs, 1)[0] > 0.99
    assert fracs[1, 1:].sum() > 0.99


def test_uniform_scaling():
    rng = np.random.default_rng(17)
    d, g = oracles.random_stable_system(rng, 3)
    a_freqs, a_fracs, _, _ = _solve(*_from_quadrature(d, g))
    b_freqs, b_fracs, _, _ = _solve(*_from_quadrature(3.0 * d, 3.0 * g))
    np.testing.assert_allclose(b_freqs, 3.0 * a_freqs, rtol=1e-10)
    np.testing.assert_allclose(b_fracs, a_fracs, atol=1e-9)


def test_instability_raises():
    # S = D^1/2 (D + 2G) D^1/2 = [[1, -1.6], [-1.6, 1]] THz^2 has the
    # eigenvalue -0.6 THz^2; the error reports it and, in a batch, the entry
    d = np.array([1.0, 1.0]) * RAD_PER_SEC_PER_THZ
    g = np.array([[0.0, -0.8], [-0.8, 0.0]]) * RAD_PER_SEC_PER_THZ
    with pytest.raises(mm.InstabilityError) as excinfo:
        _solve(d, g)
    reported = re.search(r"smallest squared frequency (\S+) THz\^2",
                         str(excinfo.value))
    assert reported is not None, str(excinfo.value)
    assert float(reported.group(1)) == pytest.approx(-0.6, rel=1e-6)

    with pytest.raises(mm.InstabilityError) as excinfo:
        normal_modes(np.stack([d] * 3), np.stack([0.25 * g, g, 0.25 * g]),
                     vectors=False)
    assert excinfo.value.entry == 1

    # normal_modes makes no finiteness check: a NaN fails the stability test
    with pytest.raises(mm.InstabilityError, match="nan THz"):
        _solve(d, np.where(g != 0.0, np.nan, 0.0))


def test_fraction_rows_sum_to_one(photon_pair, structured_coupling):
    _, fracs, x, y = _solve(*_at(photon_pair, 1.3, structured_coupling))
    np.testing.assert_allclose(fracs.sum(axis=1), 1.0, atol=1e-9)
    np.testing.assert_allclose(
        _photon_weight(fracs, 2) + fracs[:, 2:].sum(axis=1), 1.0, atol=1e-9)
    assert np.all(oracles.hopfield_fractions(x, y) >= -1e-12)


def test_degenerate_photon_ordering_is_deterministic():
    # two identical uncoupled photons: output must be reproducible and the
    # fraction rows must still be a valid resolution of identity
    diag = np.array([1.0, 1.0]) * RAD_PER_SEC_PER_THZ
    first_freqs, first_fracs, _, _ = _solve(diag, np.zeros((2, 2)))
    second_freqs, second_fracs, _, _ = _solve(diag, np.zeros((2, 2)))
    np.testing.assert_array_equal(first_freqs, second_freqs)
    np.testing.assert_array_equal(first_fracs, second_fracs)
    np.testing.assert_allclose(first_fracs.sum(axis=0), 1.0, atol=1e-9)


def test_hopfield_coefficients_on_a_stacked_sweep(photon_pair,
                                                  unstructured_coupling,
                                                  structured_coupling):
    # two Rabi matrices on one grid from nu_c = 0, where the matter modes sit
    # at MATTER_FREQ_FLOOR_THZ, to 2.2 THz: X and Y of the whole (2, T)
    # stack in one call
    grid = np.linspace(0.0, 2.2, 45)
    rabi = np.stack([unstructured_coupling, structured_coupling])
    diag, inter = assemble_batch(photon_pair, grid, rabi)
    assert np.all(diag[0, 2:] == MATTER_FREQ_FLOOR_THZ * RAD_PER_SEC_PER_THZ)
    freqs, vecs = normal_modes(diag, inter)
    x, y = hopfield_coefficients(diag, freqs, vecs)
    assert x.shape == y.shape == (2, len(grid), 4, 4)

    for s in range(2):
        for t in range(len(grid)):
            ratio = np.sqrt(freqs[s, t][:, None] * RAD_PER_SEC_PER_THZ
                            / diag[t])
            np.testing.assert_array_equal(
                x[s, t], 0.5 * (ratio + 1.0 / ratio) * vecs[s, t])
            np.testing.assert_array_equal(
                y[s, t], 0.5 * (ratio - 1.0 / ratio) * vecs[s, t])
    weights = x ** 2 - y ** 2
    np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-9)
    np.testing.assert_allclose(weights, vecs ** 2, atol=1e-9)


@pytest.mark.parametrize("vectors, solver", [(True, "eigh"),
                                             (False, "eigvalsh")])
def test_eigensolver_failure_is_a_numerical_error(photon_pair,
                                                   structured_coupling,
                                                   monkeypatch, vectors,
                                                   solver):
    def fail(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, solver, fail)
    diag, inter = _at(photon_pair, 1.3, structured_coupling)
    with pytest.raises(mm.NumericalError) as err:
        normal_modes(diag[None], inter[None], vectors=vectors)
    assert str(err.value) == ("eigensolver failed to converge: Eigenvalues "
                              "did not converge")
    assert isinstance(err.value.__cause__, np.linalg.LinAlgError)
