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
from mmhopfield.bogoliubov import build_dynamical_matrix, normal_modes
from mmhopfield.model import RAD_PER_SEC_PER_THZ

import oracles


def _ham_from_quadrature(d, g):
    # oracle systems are unit-agnostic; scale into rad/s so the THz output
    # of the production solver comes back in the oracle's numbers
    return mm.QuadraticHamiltonian(
        n_photon=d.size, n_matter=0,
        diag_freqs=d * RAD_PER_SEC_PER_THZ,
        interaction=0.5 * ((g * RAD_PER_SEC_PER_THZ)
                           + (g * RAD_PER_SEC_PER_THZ).T))


def test_oracle_agreement_random_ensemble():
    rng = np.random.default_rng(2024)
    for trial in range(500):
        n = int(rng.integers(2, 5))
        d, g = oracles.random_stable_system(rng, n)
        ham = _ham_from_quadrature(d, g)
        sol = mm.diagonalize(ham)
        ref_freqs, ref_fracs = oracles.quadrature_modes(d, g)
        np.testing.assert_allclose(sol.frequencies, ref_freqs, rtol=1e-8,
                                   err_msg=f"trial {trial}")
        np.testing.assert_allclose(sol.fractions, ref_fracs, atol=1e-7,
                                   err_msg=f"trial {trial}")


def test_symplectic_norms_and_pairing():
    rng = np.random.default_rng(99)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        d, g = oracles.random_stable_system(rng, n)
        ham = _ham_from_quadrature(d, g)
        sol = mm.diagonalize(ham)
        norms = (np.abs(sol.hopfield_x) ** 2
                 - np.abs(sol.hopfield_y) ** 2).sum(axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

        evals = np.linalg.eigvals(build_dynamical_matrix(ham))
        assert np.max(np.abs(evals.imag)) < 1e-9 * np.max(np.abs(evals.real))
        pos = np.sort(evals.real[evals.real > 0.0])
        neg = np.sort(-evals.real[evals.real < 0.0])
        np.testing.assert_allclose(pos, neg, rtol=1e-9)


def test_dynamical_matrix_block_structure(photon_pair, unstructured_coupling):
    ham = mm.assemble_hamiltonian(photon_pair, 0.8, unstructured_coupling)
    m = build_dynamical_matrix(ham)
    n = ham.n_modes
    a = np.diag(ham.diag_freqs) + ham.interaction
    b = ham.interaction
    np.testing.assert_array_equal(m[:n, :n], a)
    np.testing.assert_array_equal(m[:n, n:], b)
    np.testing.assert_array_equal(m[n:, :n], -b)
    np.testing.assert_array_equal(m[n:, n:], -a)


def test_free_hamiltonian_is_trivial():
    freqs = np.array([0.5, 1.0, 2.0]) * RAD_PER_SEC_PER_THZ
    ham = mm.QuadraticHamiltonian(n_photon=3, n_matter=0, diag_freqs=freqs,
                                  interaction=np.zeros((3, 3)))
    sol = mm.diagonalize(ham)
    np.testing.assert_allclose(sol.frequencies, [0.5, 1.0, 2.0], rtol=1e-12)
    np.testing.assert_allclose(sol.fractions, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(np.abs(sol.hopfield_y), 0.0, atol=1e-12)


def test_resonant_two_mode_against_secular_roots():
    photon = mm.PhotonMode(index=1, frequency=0.8)
    for ratio in (0.05, 0.1, 0.37, 0.6):
        ham = mm.assemble_hamiltonian([photon], 0.8,
                                      mm.single_mode_coupling(photon, ratio))
        sol = mm.diagonalize(ham)
        lower, upper = oracles.two_mode_secular(0.8, 0.8, ratio * 0.8)
        np.testing.assert_allclose(sol.frequencies, [lower, upper],
                                   rtol=1e-12)
        # with the diamagnetic term the polariton product equals the bare
        # product at any coupling
        assert sol.frequencies.prod() == pytest.approx(0.8 * 0.8, rel=1e-10)


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
    ham = mm.assemble_hamiltonian([photon], 0.8,
                                  mm.single_mode_coupling(photon, 0.1))
    sol = mm.diagonalize(ham)
    assert abs(sol.photon_fractions[0] - 0.5) < 0.05
    assert abs(sol.photon_fractions[1] - 0.5) < 0.05


def test_resonant_fraction_ultrastrong_matches_oracle():
    photon = mm.PhotonMode(index=1, frequency=0.8)
    ham = mm.assemble_hamiltonian([photon], 0.8,
                                  mm.single_mode_coupling(photon, 0.37))
    sol = mm.diagonalize(ham)
    at_field = mm.rescale_coupling(mm.single_mode_coupling(photon, 0.37), 0.8)
    g = oracles.hamiltonian_interaction([photon.omega], at_field.rabi,
                                        0.8 * RAD_PER_SEC_PER_THZ)
    ref_freqs, ref_fracs = oracles.quadrature_modes(
        np.array([photon.omega, 0.8 * RAD_PER_SEC_PER_THZ]),
        g)
    np.testing.assert_allclose(sol.fractions, ref_fracs, atol=1e-10)
    # the skew is real: lower branch goes matter-heavy
    assert sol.photon_fractions[0] < 0.4
    assert sol.photon_fractions[1] > 0.6


def test_far_detuned_branch_is_pure():
    photon = mm.PhotonMode(index=1, frequency=0.8)
    coupling = mm.single_mode_coupling(photon, 0.37)
    ham = mm.assemble_hamiltonian([photon], 8.0, coupling)
    sol = mm.diagonalize(ham)
    assert sol.photon_fractions[0] > 0.99
    assert sol.matter_fractions[1] > 0.99


def test_uniform_scaling():
    rng = np.random.default_rng(17)
    d, g = oracles.random_stable_system(rng, 3)
    base = _ham_from_quadrature(d, g)
    scaled = _ham_from_quadrature(3.0 * d, 3.0 * g)
    a = mm.diagonalize(base)
    b = mm.diagonalize(scaled)
    np.testing.assert_allclose(b.frequencies, 3.0 * a.frequencies, rtol=1e-10)
    np.testing.assert_allclose(b.fractions, a.fractions, atol=1e-9)


def test_instability_raises():
    # S = D^1/2 (D + 2G) D^1/2 = [[1, -1.6], [-1.6, 1]] THz^2 has the
    # eigenvalue -0.6 THz^2; the error reports it and, in a batch, the entry
    d = np.array([1.0, 1.0]) * RAD_PER_SEC_PER_THZ
    g = np.array([[0.0, -0.8], [-0.8, 0.0]]) * RAD_PER_SEC_PER_THZ
    ham = mm.QuadraticHamiltonian(n_photon=2, n_matter=0, diag_freqs=d,
                                  interaction=g)
    with pytest.raises(mm.InstabilityError) as excinfo:
        mm.diagonalize(ham)
    reported = re.search(r"smallest squared frequency (\S+) THz\^2",
                         str(excinfo.value))
    assert reported is not None, str(excinfo.value)
    assert float(reported.group(1)) == pytest.approx(-0.6, rel=1e-6)

    stable = mm.QuadraticHamiltonian(n_photon=2, n_matter=0, diag_freqs=d,
                                     interaction=0.25 * g)
    batch = [stable, ham, stable]
    with pytest.raises(mm.InstabilityError) as excinfo:
        normal_modes(np.stack([h.diag_freqs for h in batch]),
                     np.stack([h.interaction for h in batch]), 2, vectors=False)
    assert excinfo.value.entry == 1


def test_fraction_rows_sum_to_one(photon_pair, structured_coupling):
    ham = mm.assemble_hamiltonian(photon_pair, 1.3, structured_coupling)
    sol = mm.diagonalize(ham)
    np.testing.assert_allclose(sol.fractions.sum(axis=1), 1.0, atol=1e-9)
    np.testing.assert_allclose(
        sol.photon_fractions + sol.matter_fractions, 1.0, atol=1e-9)
    assert np.all(mm.hopfield_fractions(sol) >= -1e-12)


def test_degenerate_photon_ordering_is_deterministic():
    # two identical uncoupled photons: output must be reproducible and the
    # fraction rows must still be a valid resolution of identity
    freqs = np.array([1.0, 1.0]) * RAD_PER_SEC_PER_THZ
    ham = mm.QuadraticHamiltonian(n_photon=2, n_matter=0, diag_freqs=freqs,
                                  interaction=np.zeros((2, 2)))
    first = mm.diagonalize(ham)
    second = mm.diagonalize(ham)
    np.testing.assert_array_equal(first.frequencies, second.frequencies)
    np.testing.assert_array_equal(first.fractions, second.fractions)
    np.testing.assert_allclose(first.fractions.sum(axis=0), 1.0, atol=1e-9)


def test_batch_frequencies_match_single_path(photon_pair,
                                             unstructured_coupling):
    grid = [0.1, 0.4, 0.8, 1.5, 2.0]
    hams = [mm.assemble_hamiltonian(photon_pair, nu, unstructured_coupling)
            for nu in grid]
    batch, _ = normal_modes(np.stack([h.diag_freqs for h in hams]),
                            np.stack([h.interaction for h in hams]),
                            2, vectors=False)
    for row, ham in zip(batch, hams):
        np.testing.assert_allclose(row, mm.diagonalize(ham).frequencies,
                                   rtol=1e-10)
