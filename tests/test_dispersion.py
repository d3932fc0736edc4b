"""Bias sweeps, branch tracking, feature classification, spectrum proxy."""

import io

import numpy as np
import pytest

import mmhopfield as mm
from mmhopfield.bogoliubov import normal_modes
import mmhopfield.dispersion as dispersion
from mmhopfield.dispersion import csv_rows, g9_cells
from mmhopfield.model import (RAD_PER_SEC_PER_THZ, assemble_batch,
                              rabi_from_gram, strengths_from_ratios)

import oracles

# continuity bound between adjacent points of a grid with step <= 0.01 THz
JUMP_TOL = 0.05

# sampling ripple left on a diabatic column where it pierces an anticrossing
# narrower than the grid step (the dark line crossing the middle branch)
PINCH_RIPPLE = 2e-3


def _point(photons, nu_c, rabi):
    """Frequencies (THz, ascending) and bare-mode fractions of one operating
    point, solved as a grid of one."""
    freqs, vecs = normal_modes(*assemble_batch(photons, [nu_c], rabi))
    return freqs[0], vecs[0] ** 2


def test_sweep_grid_validation(photon_pair, unstructured_coupling):
    with pytest.raises(ValueError):
        mm.sweep(photon_pair, unstructured_coupling, [0.5])
    with pytest.raises(ValueError):
        mm.sweep(photon_pair, unstructured_coupling, [0.5, 0.4])
    with pytest.raises(ValueError):
        mm.sweep(photon_pair, unstructured_coupling, [-0.1, 0.5])
    with pytest.raises(ValueError):
        mm.sweep(photon_pair, unstructured_coupling, [[0.1, 0.5]])


def test_sweep_shapes_and_fraction_sums(photon_pair, structured_coupling,
                                        coarse_grid):
    res = mm.sweep(photon_pair, structured_coupling, coarse_grid)
    t, n = len(coarse_grid), 4
    assert res.branches.shape == (t, n)
    assert res.fractions.shape == (t, n, n)
    assert res.n_branches == n
    np.testing.assert_allclose(res.fractions.sum(axis=2), 1.0, atol=1e-9)
    np.testing.assert_allclose(
        res.photon_fractions() + res.fractions[:, :, 2:].sum(axis=2), 1.0,
        atol=1e-9)


def test_matching_preserves_frequency_multisets(photon_pair,
                                                unstructured_coupling,
                                                coarse_grid):
    # labelling may only permute the solver output, never alter it
    res = mm.sweep(photon_pair, unstructured_coupling, coarse_grid)
    for t, nu_c in enumerate(coarse_grid):
        freqs, _ = _point(photon_pair, nu_c, unstructured_coupling)
        np.testing.assert_allclose(np.sort(res.branches[t]), freqs,
                                   rtol=1e-12)


def _one_mode_set(pair):
    rng = np.random.default_rng(11)
    photon = mm.PhotonMode(index=1, frequency=rng.uniform(0.5, 2.0))
    return [photon], mm.single_mode_coupling(photon, rng.uniform(0.05, 3.0))


def _three_mode_set(pair):
    rng = np.random.default_rng(12)
    photons = [mm.PhotonMode(index=i + 1, frequency=f)
               for i, f in enumerate(np.sort(rng.uniform(0.4, 2.0, 3)))]
    omegas = np.array([m.omega for m in photons])
    rabi = np.tril(rng.uniform(0.0, 0.5, (3, 3))) * omegas[:, None]
    rabi[:, 2] = 0.0  # a dark nu = nu_c line crosses every branch
    # drawn as quoted at nu_c = 1 THz, re-quoted at nu_1
    return photons, rabi * np.sqrt(photons[0].frequency / 1.0)


MATCH_CASES = {
    "structured": lambda pair: (
        pair, mm.couplings_from_ratios(pair, 0.28, 0.1351351, 0.999)),
    "unstructured": lambda pair: (
        pair, mm.couplings_from_ratios(pair, 0.37, 0.2124026, 0.15)),
    "eta_0": lambda pair: (pair, mm.couplings_from_ratios(pair, 0.37, 0.21, 0.0)),
    "eta_1": lambda pair: (pair, mm.couplings_from_ratios(pair, 0.28, 0.14, 1.0)),
    "zero_coupling": lambda pair: (
        pair, mm.couplings_from_ratios(pair, 0.0, 0.0, 0.5)),
    "ratios_3": lambda pair: (pair, mm.couplings_from_ratios(pair, 3.0, 2.5, 0.6)),
    "one_mode": _one_mode_set,
    "three_mode": _three_mode_set,
}


# On these sets, greedy matching of adjacent points gives, bit for bit, the
# labels that every point takes alone from the coupling's blocks. The
# three-mode set's anticrossing near 0.72 THz is about one grid step wide,
# and the matching follows it diabatically there
GREEDY_CASES = [case for case in MATCH_CASES if case != "three_mode"]


# blocks of modes that the greedy reference solves alone: at eta = 0
# (Gamma = I) photon i couples to matter mode i alone, and one eigh of the
# whole form gives other bits than sweep's two 1+1 solves
GREEDY_BLOCKS = {"eta_0": ([0, 2], [1, 3])}


def _solved_by_blocks(photons, coupling, grid, blocks):
    """normal_modes of each block of modes alone, embedded in the (T, n)
    frequencies and (T, n, n) vectors of the whole form and sorted by
    frequency point by point."""
    diag, inter = assemble_batch(photons, grid, coupling)
    freqs, vecs = [], []
    for modes in blocks:
        part, part_vecs = normal_modes(diag[:, modes],
                                       inter[:, modes][:, :, modes])
        freqs.append(part)
        vecs.append(np.zeros(part.shape + diag.shape[1:]))
        vecs[-1][..., modes] = part_vecs
    freqs, vecs = np.hstack(freqs), np.hstack(vecs)
    order = np.argsort(freqs, axis=1, kind="stable")
    points = np.arange(len(grid))[:, None]
    return freqs[points, order], vecs[points, order]


@pytest.mark.parametrize("case", GREEDY_CASES)
def test_sweep_matches_greedy_reference(case, photon_pair, full_grid):
    photons, coupling = MATCH_CASES[case](photon_pair)
    res = mm.sweep(photons, coupling, full_grid)
    blocks = GREEDY_BLOCKS.get(case, [np.arange(2 * len(photons))])
    freqs, vecs = _solved_by_blocks(photons, coupling, full_grid, blocks)
    branches, fractions = oracles.greedy_branches(freqs, vecs ** 2)
    assert np.array_equal(res.branches, branches)
    assert np.array_equal(res.fractions, fractions)


# the grids 0.05 + 0.02 k, 0.05 + 0.01 k and 0.05 + 0.005 k, their shared
# points bit-equal
FINE_GRID = 0.05 + 0.005 * np.arange(431)


@pytest.mark.parametrize("case", list(MATCH_CASES))
def test_labels_agree_where_grids_meet(case, photon_pair):
    # each point is labelled alone, so a finer grid never relabels a point
    # that a coarser one shares
    photons, coupling = MATCH_CASES[case](photon_pair)
    fine = mm.sweep(photons, coupling, FINE_GRID)
    assert not fine.branches.flags.writeable
    assert not fine.fractions.flags.writeable
    for stride in (2, 4):
        coarse = mm.sweep(photons, coupling, FINE_GRID[::stride])
        assert np.array_equal(coarse.branches, fine.branches[::stride])
        assert np.array_equal(coarse.fractions, fine.fractions[::stride])


@pytest.mark.parametrize("case", list(MATCH_CASES))
def test_labels_keep_under_an_exact_scaling(case, photon_pair, full_grid):
    # times 4, on the photons, the grid and W alike, is exact in floating
    # point, and the labels have no frequency scale
    photons, coupling = MATCH_CASES[case](photon_pair)
    scaled = [mm.PhotonMode(index=m.index, frequency=4.0 * m.frequency)
              for m in photons]
    res = mm.sweep(photons, coupling, full_grid)
    big = mm.sweep(scaled, 4.0 * coupling, 4.0 * full_grid)
    assert np.array_equal(big.branches, 4.0 * res.branches)
    assert np.array_equal(big.fractions, res.fractions)


@pytest.mark.parametrize("step", [0.02, 0.01, 0.005, 0.001, 0.0002])
def test_shipped_couplings_classify_alike_at_every_step(
        step, photon_pair, structured_coupling, unstructured_coupling):
    grid = 0.05 + step * np.arange(round(2.15 / step) + 1)
    for coupling, counts in ((structured_coupling, (3, 1)),
                             (unstructured_coupling, (4, 0))):
        feats = mm.detect_features(mm.sweep(photon_pair, coupling, grid),
                                   photon_pair)
        assert (feats.n_coupled_branches, feats.n_cr_lines) == counts


@pytest.mark.parametrize("case", list(MATCH_CASES))
def test_no_column_has_weight_outside_its_block(case, photon_pair, full_grid):
    # each exact block of the form is solved alone
    photons, coupling = MATCH_CASES[case](photon_pair)
    res = mm.sweep(photons, coupling, full_grid)
    block = dispersion._blocks(np.asarray(coupling))
    own = block[np.argmax(res.fractions[0] != 0.0, axis=1)]
    assert not res.fractions[:, block != own[:, None]].any()


def test_degenerate_blocks_keep_their_columns(full_grid):
    # two equal 1+1 blocks: every frequency is doubly degenerate. Each
    # block keeps one lower and one upper column, the columns of the 1+1
    # sweep, and no weight outside it
    twin = [mm.PhotonMode(index=1, frequency=0.8),
            mm.PhotonMode(index=2, frequency=0.8)]
    res = mm.sweep(twin, mm.couplings_from_ratios(twin, 0.3, 0.3, 0.0),
                   full_grid)
    assert not res.fractions[:, [0, 2]][:, :, [1, 3]].any()
    assert not res.fractions[:, [1, 3]][:, :, [0, 2]].any()
    single = mm.sweep(twin[:1], mm.single_mode_coupling(twin[0], 0.3),
                      full_grid).branches
    for columns in ([0, 2], [1, 3]):
        np.testing.assert_allclose(res.branches[:, columns], single,
                                   rtol=1e-12, atol=0.0)


def test_dark_and_bare_lines_come_from_zero_patterns(full_grid):
    strengths = strengths_from_ratios(THREE_PHOTONS, [0.3] * 3)
    # a rank-2 Gamma leaves W's last column exactly zero: one column rides
    # nu = nu_c and is all third matter mode
    rng = np.random.default_rng(32)
    rabi = rabi_from_gram(strengths, _gram_of_rank(2, rng))
    assert not rabi[:, 2].any()
    res = mm.sweep(THREE_PHOTONS, rabi, full_grid)
    on_line = np.flatnonzero(np.all(np.isclose(
        res.branches, full_grid[:, None], rtol=1e-12, atol=0.0), axis=0))
    assert len(on_line) == 1
    assert np.all(res.fractions[:, on_line[0], 5] == 1.0)

    # a zero strength leaves a zero row: photon 2 stays bare at 1.6 THz,
    # and the rank-2 rest of W leaves one matter combination dark
    rabi = rabi_from_gram(strengths * [1.0, 0.0, 1.0],
                          _gram_of_rank(3, np.random.default_rng(33)))
    assert not rabi[1].any()
    res = mm.sweep(THREE_PHOTONS, rabi, full_grid)
    bare = np.flatnonzero(np.all(np.isclose(res.branches, 1.6, rtol=1e-12,
                                            atol=0.0), axis=0))
    assert len(bare) == 1
    # all photon 2, also where the dark line meets it at nu_c = 1.6 THz
    assert np.all(res.fractions[:, bare[0], 1] == 1.0)
    feats = mm.detect_features(res, THREE_PHOTONS)
    assert (feats.n_coupled_branches, feats.n_cr_lines) == (4, 1)


def _rabi_of_ratio(photons, ratio):
    """structured.cfg's strengths, with the overlap set so that W's
    singular values have the ratio sigma_min / sigma_max = ratio."""
    s = strengths_from_ratios(photons, [0.28, 0.1351351])
    # sigma_min sigma_max / (sigma_min^2 + sigma_max^2) = det W / |W|_F^2
    tail = ratio / (1.0 + ratio * ratio) * (s @ s) / (s[0] * s[1])
    eta = np.sqrt(1.0 - tail * tail)
    return rabi_from_gram(s, [[1.0, eta], [eta, 1.0]])


@pytest.mark.parametrize("factor, counts", [(0.99, (3, 1)), (1.01, (4, 0))],
                         ids=["near-dark", "coupled"])
def test_near_dark_fraction_sets_the_dark_line(factor, counts, photon_pair):
    # just below the fraction, the weak matter combination is its own flat
    # nu = nu_c line through its narrow anticrossings; just above, every
    # column keeps the eigen-order and all four branches couple
    rabi = _rabi_of_ratio(photon_pair, factor * dispersion.NEAR_DARK_FRACTION)
    low, high = np.linalg.svd(rabi, compute_uv=False)[::-1]
    assert abs(low / high - factor * dispersion.NEAR_DARK_FRACTION) < 1e-12
    for grid in (FINE_GRID, FINE_GRID[::2]):
        feats = mm.detect_features(mm.sweep(photon_pair, rabi, grid),
                                   photon_pair)
        assert (feats.n_coupled_branches, feats.n_cr_lines) == counts


def test_branch_columns_are_continuous(photon_pair, structured_coupling,
                                       unstructured_coupling, full_grid):
    for coupling in (structured_coupling, unstructured_coupling):
        res = mm.sweep(photon_pair, coupling, full_grid)
        assert np.abs(np.diff(res.branches, axis=0)).max() < JUMP_TOL


def test_unstructured_counts_four_coupled_branches(photon_pair,
                                                   unstructured_coupling,
                                                   full_grid):
    res = mm.sweep(photon_pair, unstructured_coupling, full_grid)
    feats = mm.detect_features(res, photon_pair)
    assert feats.n_coupled_branches == 4
    assert feats.n_cr_lines == 0


def test_structured_counts_three_plus_cr_line(photon_pair,
                                              structured_coupling, full_grid):
    res = mm.sweep(photon_pair, structured_coupling, full_grid)
    feats = mm.detect_features(res, photon_pair)
    assert feats.n_coupled_branches == 3
    assert feats.n_cr_lines == 1


def test_zero_coupling_is_two_bare_lines(photon_pair, full_grid):
    coupling = mm.couplings_from_ratios(photon_pair, 0.0, 0.0, 0.5)
    res = mm.sweep(photon_pair, coupling, full_grid)
    feats = mm.detect_features(res, photon_pair)
    assert feats.n_coupled_branches == 0
    assert feats.n_cr_lines == 2
    # photon columns stay put, matter columns ride the diagonal
    flat = np.flatnonzero(res.branches.max(axis=0)
                          - res.branches.min(axis=0) < 1e-9)
    assert len(flat) == 2
    np.testing.assert_allclose(np.sort(res.branches[0, flat]), [0.8, 1.6],
                               rtol=1e-12)


def test_decoupled_modes_factorize(photon_pair, full_grid):
    # eta = 0 with no cross coupling: the 2+2 spectrum is the union of the
    # two independent 1+1 spectra at every grid point
    coupling = mm.couplings_from_ratios(photon_pair, 0.37, 0.21, 0.0)
    res = mm.sweep(photon_pair, coupling, full_grid)

    singles = []
    for mode, ratio in zip(photon_pair, (0.37, 0.21)):
        single = mm.sweep([mode], mm.single_mode_coupling(mode, ratio),
                          full_grid)
        singles.append(single.branches)
    union = np.sort(np.hstack(singles), axis=1)
    np.testing.assert_allclose(np.sort(res.branches, axis=1), union,
                               atol=1e-9)


THREE_PHOTONS = [mm.PhotonMode(index=i + 1, frequency=f)
                 for i, f in enumerate((0.8, 1.6, 2.4))]


def _gram_of_rank(rank, rng):
    """A random signed, normalized overlap Gram matrix of three modes."""
    vectors = rng.normal(size=(3, rank))
    gram = vectors @ vectors.T
    norms = np.sqrt(gram.diagonal())
    return gram / norms[:, None] / norms


@pytest.mark.parametrize("rank", [3, 2, 1])
def test_gram_rank_sets_the_coupled_modes(rank, full_grid):
    # the selection rule: N - rank(Gamma) matter modes stay bare nu = nu_c
    # lines, and N + rank(Gamma) branches couple
    rng = np.random.default_rng(30 + rank)
    rabi = rabi_from_gram(strengths_from_ratios(THREE_PHOTONS, [0.3] * 3),
                          _gram_of_rank(rank, rng))
    feats = mm.detect_features(mm.sweep(THREE_PHOTONS, rabi, full_grid),
                               THREE_PHOTONS)
    assert (feats.n_coupled_branches, feats.n_cr_lines) == (3 + rank, 3 - rank)


@pytest.mark.parametrize("blocks", [[1, 1, 1], [2, 1], [1, 2]],
                         ids=["identity", "pair-then-one", "one-then-pair"])
def test_block_diagonal_gram_is_the_union_of_its_blocks(blocks, full_grid):
    # modes in different blocks share no matter mode, so the N-mode sweep is
    # the union of the sweeps of its blocks, each its own photon modes with
    # its own block of Gamma
    rng = np.random.default_rng(40)
    ratios = rng.uniform(0.05, 0.4, 3)
    gram = np.zeros((3, 3))
    union, start = [], 0
    for size in blocks:
        part = slice(start, start + size)
        block = np.ones((size, size))
        block[~np.eye(size, dtype=bool)] = rng.uniform(-0.9, 0.9)
        gram[part, part] = block
        photons = THREE_PHOTONS[part]
        rabi = rabi_from_gram(strengths_from_ratios(photons, ratios[part]),
                              block)
        union.append(mm.sweep(photons, rabi, full_grid).branches)
        start += size
    rabi = rabi_from_gram(strengths_from_ratios(THREE_PHOTONS, ratios), gram)
    res = mm.sweep(THREE_PHOTONS, rabi, full_grid)
    np.testing.assert_allclose(np.sort(res.branches, axis=1),
                               np.sort(np.hstack(union), axis=1),
                               rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("ratios, grid, rtol", [
    ((1.5, 1.5), np.geomspace(1e-6, 2.2, 80), 1e-14),
    ((0.37, 0.21), np.geomspace(1e-6, 2.2, 80), 1e-14),
    ((0.3, 100.0), np.geomspace(1e-6, 2.2, 80), 1e-8),
    ((1e3, 1e3), 0.05 + 0.01 * np.arange(216), 1e-8),
], ids=["ratios-1.5", "ratios-0.37-0.21", "near-zero-field", "deep-strong"])
def test_identity_gram_is_stable(photon_pair, ratios, grid, rtol):
    # Gamma = I (eta = 0): photon i couples to matter mode i alone, so the
    # form is two 1+1 blocks, each with the closed-form roots, near zero
    # field and at deep-strong ratios too; 1e-8 is the 9 written digits
    strengths = strengths_from_ratios(photon_pair, ratios)
    res = mm.sweep(photon_pair, rabi_from_gram(strengths, np.eye(2)), grid)
    assert np.all(res.branches > 0.0)
    nu_1 = photon_pair[0].frequency
    for i, mode in enumerate(photon_pair):
        # the block's two columns, by their weights; at ratios (0.3, 100)
        # the first block's matter mode is near-dark, and its column rides
        # nu = nu_c across the photon line
        columns = np.flatnonzero(res.fractions[0][:, [i, 2 + i]].any(axis=1))
        rabi = strengths[i] / RAD_PER_SEC_PER_THZ * np.sqrt(grid / nu_1)
        lower, upper = oracles.two_mode_secular(mode.frequency, grid, rabi)
        np.testing.assert_allclose(np.sort(res.branches[:, columns], axis=1),
                                   np.column_stack([lower, upper]),
                                   rtol=rtol, atol=0.0, err_msg=f"block {i}")


def test_structured_middle_branch_features(photon_pair, structured_coupling,
                                           full_grid):
    res = mm.sweep(photon_pair, structured_coupling, full_grid)
    feats = mm.detect_features(res, photon_pair)
    assert 0.85 <= feats.asymptote_low <= 1.0
    assert abs(feats.asymptote_high - 1.6) / 1.6 < 0.05
    assert 1.10 <= feats.inflection_nu_c <= 1.40

    middle = int(np.argmin(np.abs(res.branches[0] - feats.asymptote_low)))
    s_col = res.branches[:, middle]
    assert np.all(np.diff(s_col) >= -PINCH_RIPPLE)


def test_unstructured_has_no_middle_branch_features(photon_pair,
                                                    unstructured_coupling,
                                                    full_grid):
    # four coupled branches: no unique middle, so the S-branch descriptors
    # are absent rather than misleading
    res = mm.sweep(photon_pair, unstructured_coupling, full_grid)
    feats = mm.detect_features(res, photon_pair)
    assert feats.inflection_nu_c is None
    assert feats.asymptote_low is None
    assert feats.asymptote_high is None


@pytest.mark.parametrize("curve, expected", [
    (lambda nu: (nu - 1.0) ** 3, 1.0),
    (lambda nu: nu * nu, None),
    (lambda nu: -np.exp(nu), None),
], ids=["cubic", "convex", "concave"])
def test_inflection_is_none_unless_the_curvature_changes_sign(curve, expected):
    # 1.0 falls midway between two grid points
    nu = 0.505 + 0.01 * np.arange(100)
    found = dispersion._inflection(nu, curve(nu))
    if expected is None:
        assert found is None
    else:
        assert found == pytest.approx(expected, abs=1e-9)


def test_gaps_bracket_photon_frequencies(photon_pair, unstructured_coupling,
                                         full_grid):
    res = mm.sweep(photon_pair, unstructured_coupling, full_grid)
    feats = mm.detect_features(res, photon_pair)
    assert len(feats.gap_at_resonance) == 2
    for gap in feats.gap_at_resonance:
        assert np.isfinite(gap)
        assert gap > 0.05


def test_feature_detection_requires_full_span(photon_pair,
                                              unstructured_coupling):
    grid = 0.3 + 0.01 * np.arange(50)
    res = mm.sweep(photon_pair, unstructured_coupling, grid)
    with pytest.raises(ValueError, match="too narrow"):
        mm.detect_features(res, photon_pair)


def test_diamagnetic_term_keeps_every_bias_stable(photon_pair):
    # h = W W^T / w_c makes the quadratic form positive for any coupling
    # strength, so even absurd ratios sweep cleanly
    huge = mm.couplings_from_ratios(photon_pair, 3.0, 2.5, 0.6)
    res = mm.sweep(photon_pair, huge, [0.1, 0.8, 1.6, 2.2])
    assert np.all(res.branches > 0.0)


def test_instability_error_names_grid_point(photon_pair,
                                            unstructured_coupling,
                                            monkeypatch):
    # the diamagnetic term keeps every real coupling set stable, so make the
    # assembled form at the second grid point unstable: a photon x-x term of
    # -w turns that photon's entry of D + 2G negative
    import mmhopfield.dispersion as disp

    real_assembly = disp.assemble_batch

    def unstable_at_second_point(photons, grid, rabi):
        freqs, inter = real_assembly(photons, grid, rabi)
        inter[1, 0, 0] = -freqs[1, 0]
        return freqs, inter

    monkeypatch.setattr(disp, "assemble_batch", unstable_at_second_point)
    with pytest.raises(mm.InstabilityError,
                       match="at nu_c = 0.6 THz: .*smallest squared"):
        disp.sweep(photon_pair, unstructured_coupling, [0.3, 0.6, 0.9])


def test_spectrum_dip_placement(photon_pair, structured_coupling):
    freqs, fracs = _point(photon_pair, 1.3, structured_coupling)
    cfg = mm.SpectrumConfig(frequency_grid=0.02 + 0.002 * np.arange(1300),
                            linewidths=0.04)
    trans = mm.spectrum_from_branches(freqs, fracs[:, :2].sum(axis=1), cfg)
    assert np.all((trans >= 0.0) & (trans <= 1.0))
    grid = cfg.frequency_grid
    interior = (np.r_[False, (trans[1:-1] < trans[:-2])
                      & (trans[1:-1] < trans[2:]), False]
                & (trans < 0.9))
    for nu_dip in grid[interior]:
        assert np.min(np.abs(freqs - nu_dip)) < 0.05


def test_spectrum_weights_silence_dark_branches(photon_pair,
                                                unstructured_coupling):
    # far detuned: matter-like branches carry almost no photon weight and
    # leave dips shallower than 1e-2
    freqs, fracs = _point(photon_pair, 0.05, unstructured_coupling)
    cfg = mm.SpectrumConfig(frequency_grid=0.02 + 0.002 * np.arange(1300),
                            linewidths=0.04)
    trans = mm.spectrum_from_branches(freqs, fracs[:, :2].sum(axis=1), cfg)
    grid = cfg.frequency_grid
    for k in range(2):
        i = int(np.argmin(np.abs(grid - freqs[k])))
        assert trans[i] > 0.99

    trans_eq = mm.spectrum_from_branches(freqs, np.full(4, 0.25), cfg)
    i = int(np.argmin(np.abs(grid - freqs[0])))
    assert trans_eq[i] < 0.99


def test_equal_weight_mode_weighs_every_branch_alike(photon_pair,
                                                    structured_coupling):
    # the weights passed are not read: photon fractions, none, or noise
    # give the map of uniform 1/n weights
    res = mm.sweep(photon_pair, structured_coupling, 0.1 + 0.1 * np.arange(20))
    grid = 0.02 + 0.01 * np.arange(260)
    equal = mm.SpectrumConfig(frequency_grid=grid, linewidths=0.04,
                              weight_mode="equal")
    by_weights = mm.SpectrumConfig(frequency_grid=grid, linewidths=0.04)
    uniform = mm.spectrum_from_branches(
        res.branches, np.full(res.branches.shape, 0.25), by_weights)
    rng = np.random.default_rng(3)
    for weights in (res.photon_fractions(), np.zeros(res.branches.shape),
                    rng.uniform(-1.0, 2.0, res.branches.shape)):
        assert np.array_equal(
            mm.spectrum_from_branches(res.branches, weights, equal), uniform)
    assert not np.array_equal(
        mm.spectrum_from_branches(res.branches, res.photon_fractions(),
                                  by_weights), uniform)


def test_spectrum_config_validation():
    with pytest.raises(ValueError):
        mm.SpectrumConfig(frequency_grid=[0.5], linewidths=0.04)
    with pytest.raises(ValueError):
        mm.SpectrumConfig(frequency_grid=[0.5, 0.4], linewidths=0.04)
    with pytest.raises(ValueError):
        mm.SpectrumConfig(frequency_grid=[0.4, 0.5], linewidths=-0.01)
    with pytest.raises(ValueError):
        mm.SpectrumConfig(frequency_grid=[0.4, 0.5], linewidths=0.04,
                          weight_mode="bogus")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spectrum_config_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="frequency grid must be finite"):
        mm.SpectrumConfig(frequency_grid=[0.4, bad], linewidths=0.04)
    with pytest.raises(ValueError, match="frequency grid must be finite"):
        mm.SpectrumConfig(frequency_grid=[bad, 0.4, 0.5], linewidths=0.04)
    with pytest.raises(ValueError, match="linewidths must be finite"):
        mm.SpectrumConfig(frequency_grid=[0.4, 0.5], linewidths=bad)
    with pytest.raises(ValueError, match="linewidths must be finite"):
        mm.SpectrumConfig(frequency_grid=[0.4, 0.5], linewidths=[0.04, bad])


def test_branch_csv_layout(photon_pair, structured_coupling):
    grid = [0.4, 0.8, 1.2]
    res = mm.sweep(photon_pair, structured_coupling, grid)
    buf = io.StringIO()
    mm.write_branch_csv(res, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == ("nu_c_THz,branch,freq_THz,photon_frac_1,"
                        "photon_frac_2,matter_frac_1,matter_frac_2")
    assert len(lines) == 1 + len(grid) * 4
    first = lines[1].split(",")
    assert float(first[0]) == 0.4
    assert first[1] == "1"
    assert float(first[2]) == pytest.approx(res.branches[0, 0], rel=1e-8)


# values whose "%.9g" text is easy to get wrong: signed zeros, exponents at
# both ends of the range, and the two 9-digit rounding midpoints that sit
# within 6e-15 of a shipped-config spectrum value
HARD_VALUES = [0.0, -0.0, 1.0, -1.0, 1e-12, 1e300, -1e300, 5e-324,
               1.7976931348623157e308, 2.2250738585072014e-308, 1e16, 1e-5,
               123456789.0, 1234567890.0, 999999999.5, 0.1 + 0.2, 1 / 3,
               0.88378404649999, 0.88378404650000, 0.33326707350001,
               0.33326707349999, 0.883784046500000, 2.5e-10, 0.000123456789012,
               float("inf"), float("-inf"), float("nan")]


def test_g9_cells_match_per_value_format():
    values = np.array(HARD_VALUES)
    assert g9_cells(values) == [f"{x:.9g}" for x in values]
    rng = np.random.default_rng(11)
    random = rng.standard_normal(2000) * 10.0 ** rng.integers(-300, 300, 2000)
    assert g9_cells(random) == [f"{x:.9g}" for x in random]


def test_csv_rows_match_per_value_rows():
    keys = np.array(HARD_VALUES[:6])
    # a "%" in a label is text, not a conversion of the row template
    labels = ["1", "a%", "%.9g%%x"]
    a = np.reshape(HARD_VALUES[:18], (6, 3))
    b = np.reshape(HARD_VALUES[9:27], (6, 3))
    expected = "".join(f"{keys[t]:.9g},{labels[k]},{a[t, k]:.9g},{b[t, k]:.9g}\n"
                       for t in range(6) for k in range(3))
    assert csv_rows(keys, labels, a, b) == expected
    assert oracles.csv_rows_per_cell(keys, labels, a, b) == expected
    assert csv_rows(keys, labels, a) == oracles.csv_rows_per_cell(keys, labels, a)


def test_branch_csv_matches_per_value_rows(photon_pair, structured_coupling,
                                           full_grid):
    res = mm.sweep(photon_pair, structured_coupling, full_grid)
    buf = io.StringIO()
    mm.write_branch_csv(res, buf)
    body = buf.getvalue().split("\n", 1)[1]
    expected = "".join(
        ",".join([f"{nu_c:.9g}", str(k + 1), f"{res.branches[t, k]:.9g}"]
                 + [f"{x:.9g}" for x in res.fractions[t, k]]) + "\n"
        for t, nu_c in enumerate(res.nu_c_values)
        for k in range(res.n_branches))
    assert body == expected


@pytest.mark.parametrize("widths", [0.04, [0.03, 0.04, 0.05, 0.06]])
def test_stacked_spectrum_equals_per_point_calls(photon_pair,
                                                 unstructured_coupling,
                                                 full_grid, widths):
    res = mm.sweep(photon_pair, unstructured_coupling, full_grid)
    cfg = mm.SpectrumConfig(frequency_grid=0.05 + 0.005 * np.arange(511),
                            linewidths=widths)
    weights = res.photon_fractions()
    stacked = mm.spectrum_from_branches(res.branches, weights, cfg)
    assert stacked.shape == (len(full_grid), 511)
    per_point = np.array([mm.spectrum_from_branches(res.branches[t],
                                                    weights[t], cfg)
                          for t in range(len(full_grid))])
    assert np.array_equal(stacked, per_point)


def test_spectrum_rejects_linewidth_count_mismatch(photon_pair,
                                                   unstructured_coupling):
    res = mm.sweep(photon_pair, unstructured_coupling, [0.4, 0.8])
    cfg = mm.SpectrumConfig(frequency_grid=[0.4, 0.5], linewidths=[0.1, 0.2])
    weights = res.photon_fractions()
    message = "2 linewidths for 4 branches; give one or 4"
    with pytest.raises(ValueError, match=message):
        mm.spectrum_from_branches(res.branches, weights, cfg)
    with pytest.raises(ValueError, match=message):
        mm.spectrum_from_branches(res.branches[0], weights[0], cfg)


@pytest.mark.parametrize("n", range(1, 13))
def test_spectrum_matches_branch_minor_reference(n):
    rng = np.random.default_rng(7100 + n)
    grid = 0.05 + 0.005 * np.arange(511)
    configs = [mm.SpectrumConfig(frequency_grid=grid, linewidths=0.04),
               mm.SpectrumConfig(frequency_grid=grid,
                                 linewidths=rng.uniform(0.01, 0.1, n))]
    for shape in [(n,), (30, n), (3, 10, n)]:
        freqs = rng.uniform(0.0, 2.6, shape)
        # negative weights must count as zero
        weights = rng.uniform(-0.1, 1.2, shape)
        if len(shape) > 1:
            # a point of signed zero weights is flat at T = 1, and a point
            # weighted 50 dips below 0, where T clips
            weights[0] = rng.choice([-0.0, 0.0], n)
            weights[1] = 50.0
        for cfg in configs:
            got = mm.spectrum_from_branches(freqs, weights, cfg)
            want = oracles.spectrum_reference(freqs, weights, cfg)
            assert got.shape == shape[:-1] + grid.shape
            if len(shape) > 1:
                assert np.all(got[0] == 1.0)
                assert np.any(got[1] == 0.0)
                # one set of branches under a stack of weights, and back
                for pair in [(freqs[0], weights), (freqs, weights[0])]:
                    assert np.array_equal(
                        mm.spectrum_from_branches(*pair, cfg),
                        mm.spectrum_from_branches(*np.broadcast_arrays(*pair),
                                                  cfg))
            if n < 8:
                assert np.array_equal(got, want)
            else:
                # numpy sums a short innermost axis of 8 or more elements
                # pairwise, the branch-major sum adds rows in order: the
                # same terms in another order
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n_photon", [1, 2, 3, 4, 6])
def test_grid_last_kernels_match_step_major_references(n_photon):
    # the spectrum adds branch rows in order in both forms, so it agrees bit
    # for bit at every size
    rng = np.random.default_rng(7300 + n_photon)
    n = 2 * n_photon
    freqs = np.sort(rng.uniform(0.0, 2.6, (60, n)), axis=1)
    grid = 0.05 + 0.005 * np.arange(511)
    weights = rng.uniform(-0.1, 1.2, freqs.shape)
    weights[3, n - 1] = np.nan
    for widths in (0.04, rng.uniform(0.01, 0.1, n)):
        cfg = mm.SpectrumConfig(frequency_grid=grid, linewidths=widths)
        got = mm.spectrum_from_branches(freqs, weights, cfg)
        assert np.array_equal(
            got, oracles.spectrum_branch_major(freqs, weights, cfg),
            equal_nan=True)
        assert np.all(np.isnan(got[3])) and not np.any(np.isnan(got[4:]))
        for t in (0, 3):  # single rows, the NaN-weighted one too
            assert np.array_equal(
                mm.spectrum_from_branches(freqs[t], weights[t], cfg),
                oracles.spectrum_branch_major(freqs[t], weights[t], cfg),
                equal_nan=True)
