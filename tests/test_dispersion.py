"""Bias sweeps, branch tracking, feature classification, spectrum proxy."""

import io
from itertools import permutations

import numpy as np
import pytest

import mmhopfield as mm
from mmhopfield.bogoliubov import normal_modes
import mmhopfield.dispersion as dispersion
from mmhopfield.dispersion import (JUMP_TOL, _match_cost, _min_cost_assignment,
                                   csv_rows, g9_cells)
from mmhopfield.errors import InstabilityError
from mmhopfield.model import assemble_batch, rabi_from_gram, strengths_from_ratios

import oracles

# sampling ripple left on a diabatic column where it pierces an anticrossing
# narrower than the grid step (the dark line crossing the middle branch)
PINCH_RIPPLE = 2e-3


def _point(photons, nu_c, coupling):
    """Frequencies (THz, ascending) and bare-mode fractions of one operating
    point, solved as a grid of one."""
    freqs, vecs = normal_modes(
        *assemble_batch(photons, [nu_c], coupling.rabi,
                        coupling.reference_cyclotron), len(photons))
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
        res.photon_fractions() + res.matter_fractions(), 1.0, atol=1e-9)


def test_matching_preserves_frequency_multisets(photon_pair,
                                                unstructured_coupling,
                                                coarse_grid):
    # column matching may only permute the solver output, never alter it
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
    return photons, mm.CouplingSet(rabi=rabi, reference_cyclotron=1.0)


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


@pytest.mark.parametrize("case", list(MATCH_CASES))
def test_sweep_matches_greedy_reference(case, photon_pair, full_grid):
    # greedy matching finds the optimum on these sets, so the exact
    # assignment must reproduce it bit for bit
    photons, coupling = MATCH_CASES[case](photon_pair)
    res = mm.sweep(photons, coupling, full_grid)
    freqs, vecs = normal_modes(
        *assemble_batch(photons, full_grid, coupling.rabi,
                        coupling.reference_cyclotron),
        coupling.n_photon)
    branches, fractions = oracles.greedy_branches(freqs, vecs ** 2)
    assert np.array_equal(res.branches, branches)
    assert np.array_equal(res.fractions, fractions)


def _brute_force_assignment(cost):
    """First permutation, in lexicographic order, of minimum cost, summed
    from the last row up as the dynamic program sums it."""
    n = len(cost)
    best, best_perm = np.inf, None
    for perm in permutations(range(n)):
        total = 0.0
        for row in reversed(range(n)):
            total = cost[row, perm[row]] + total
        if total < best:
            best, best_perm = total, perm
    return best_perm


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("kind", ["real", "integer", "tied-diagonal"])
def test_min_cost_assignment_matches_brute_force(n, kind):
    rng = np.random.default_rng(100 + n)
    n_sets = 40 if n < 6 else 12
    if kind == "real":
        cost = rng.uniform(0.0, 1.0, (n_sets, n, n))
    else:
        # exact ties everywhere, and an all-zero matrix: pins the tie rule
        cost = rng.integers(0, 3, (n_sets, n, n)).astype(float)
        cost[0] = 0.0
    if kind == "tied-diagonal":
        # each diagonal entry at or one above its row minimum: evident
        # matrices, whose diagonals often tie an off-diagonal entry, mixed
        # with matrices the dynamic program solves
        rows = np.arange(n)
        cost[1:, rows, rows] = (cost[1:].min(axis=2)
                                + rng.integers(0, 2, (n_sets - 1, n)))
        evident = np.all(cost[:, rows, rows] <= cost.min(axis=2), axis=1)
        assert n == 1 or 0 < evident.sum() < n_sets
    got = _min_cost_assignment(cost)
    want = [_brute_force_assignment(c) for c in cost]
    np.testing.assert_array_equal(got, want)
    if kind != "real":
        np.testing.assert_array_equal(got[0], np.arange(n))


@pytest.mark.parametrize("n", range(1, 7))
def test_evident_matrices_skip_the_dynamic_program(n, monkeypatch):
    # every row's diagonal entry is its row minimum, often tied with an
    # off-diagonal entry, and the first matrix is all zeros: the identity
    # is the answer and the tie rule's pick without any subset table
    rng = np.random.default_rng(300 + n)
    cost = rng.integers(0, 3, (200, n, n)).astype(float)
    cost[0] = 0.0
    rows = np.arange(n)
    cost[:, rows, rows] = cost.min(axis=2)
    want = [_brute_force_assignment(c) for c in cost]
    np.testing.assert_array_equal(want, np.tile(rows, (len(cost), 1)))

    def no_dynamic_program(n):
        raise AssertionError("an evident matrix reached the dynamic program")

    monkeypatch.setattr(dispersion, "_subset_levels", no_dynamic_program)
    np.testing.assert_array_equal(_min_cost_assignment(cost), want)


MOVING_STEPS = {"three_mode": 2, "zero_coupling": 2, "unstructured": 0}


@pytest.mark.parametrize("case", list(MOVING_STEPS))
def test_sweep_composes_every_moving_step(case, photon_pair, full_grid):
    # the dark nu = nu_c lines cross branches, so the eigen-order permutes
    # at two grid steps; carrying the order between them must equal
    # composing every step one point at a time. The unstructured set never
    # permutes, so the sweep skips the gather and keeps the eigen-order
    photons, coupling = MATCH_CASES[case](photon_pair)
    res = mm.sweep(photons, coupling, full_grid)
    freqs, vecs = normal_modes(
        *assemble_batch(photons, full_grid, coupling.rabi,
                        coupling.reference_cyclotron),
        coupling.n_photon)
    steps = _min_cost_assignment(_match_cost(freqs, vecs ** 2))
    identity = np.arange(freqs.shape[1])
    assert (np.count_nonzero(np.any(steps != identity, axis=1))
            == MOVING_STEPS[case])
    order = [identity]
    for step in steps:
        order.append(step[order[-1]])
    order = np.array(order)
    assert np.array_equal(res.branches,
                          np.take_along_axis(freqs, order, axis=1))
    assert np.array_equal(res.fractions,
                          np.take_along_axis(vecs ** 2, order[..., None],
                                             axis=1))
    if not MOVING_STEPS[case]:
        assert np.array_equal(res.branches, freqs)
        assert np.array_equal(res.fractions, vecs ** 2)
    assert not res.branches.flags.writeable
    assert not res.fractions.flags.writeable


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
    coupling = mm.CouplingSet(rabi=rabi, reference_cyclotron=0.8)
    feats = mm.detect_features(mm.sweep(THREE_PHOTONS, coupling, full_grid),
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
        coupling = mm.CouplingSet(
            rabi=rabi_from_gram(strengths_from_ratios(photons, ratios[part]),
                                block),
            reference_cyclotron=photons[0].frequency)
        union.append(mm.sweep(photons, coupling, full_grid).branches)
        start += size
    coupling = mm.CouplingSet(
        rabi=rabi_from_gram(strengths_from_ratios(THREE_PHOTONS, ratios), gram),
        reference_cyclotron=0.8)
    res = mm.sweep(THREE_PHOTONS, coupling, full_grid)
    np.testing.assert_allclose(np.sort(res.branches, axis=1),
                               np.sort(np.hstack(union), axis=1),
                               rtol=1e-12, atol=0.0)


@pytest.mark.xfail(strict=True, raises=InstabilityError, reason=(
    "Gamma = I (eta = 0) near zero field or at deep-strong ratios: the form "
    "is positive definite (the Schur complement of its matter block is "
    "D_ph > 0), but eigh of S reports a negative squared frequency; ROADMAP "
    "direction 3's graded-safe solve should flip this"))
@pytest.mark.parametrize("ratios, grid", [
    ((0.3, 100.0), np.geomspace(1e-6, 2.2, 80)),
    ((1e3, 1e3), 0.05 + 0.01 * np.arange(216)),
], ids=["near-zero-field", "deep-strong"])
def test_identity_gram_is_stable(photon_pair, ratios, grid):
    rabi = rabi_from_gram(strengths_from_ratios(photon_pair, ratios), np.eye(2))
    coupling = mm.CouplingSet(rabi=rabi, reference_cyclotron=0.8)
    res = mm.sweep(photon_pair, coupling, grid)
    assert np.all(res.branches > 0.0)


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

    def unstable_at_second_point(photons, grid, rabi, reference_cyclotron):
        freqs, inter = real_assembly(photons, grid, rabi, reference_cyclotron)
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
    # the match cost adds the modes' terms in order where numpy sums a short
    # axis of 8 or more pairwise: bit for bit below 4 photon modes, within
    # 4 ulp and the same assignments above. The spectrum adds branch rows in
    # order in both forms, so it agrees bit for bit at every size
    rng = np.random.default_rng(7300 + n_photon)
    n = 2 * n_photon
    freqs = np.sort(rng.uniform(0.0, 2.6, (60, n)), axis=1)
    fracs = np.linalg.qr(rng.normal(size=(60, n, n)))[0] ** 2
    cost = _match_cost(freqs, fracs)
    want = oracles.match_cost_step_major(freqs, fracs)
    assert cost.shape == want.shape == (59, n, n)
    if n < 8:
        assert np.array_equal(cost, want)
    else:
        assert np.max(np.abs(cost - want) / np.spacing(want)) <= 4
    np.testing.assert_array_equal(_min_cost_assignment(cost),
                                  _min_cost_assignment(want))

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
