"""Acceptance gate.

Ten numbered criteria freeze the headline behavior of the package: branch
counts and dispersion features for the two reference parameter sets, the
coupling-decomposition identity, cross-checks of the diagonalizer against
the independent quadrature oracle, overlap limits, coupling recovery by the
fitter, the cyclotron conversion, and transmission-map consistency.

Each test prints one "[criterion N] PASS/FAIL" line with the measured
numbers (run pytest with -s to see the lines for passing tests too).
Tolerances and runtime budgets are pinned on purpose; loosening them is an
interface change, not a test fix.
"""

import time

import numpy as np

import mmhopfield as mm
from mmhopfield.model import RAD_PER_SEC_PER_THZ

import oracles

# reference parameter sets (ratio_11, ratio_2_tilde, eta): extended-film and
# etched-patch samples
UNSTRUCTURED = (0.37, 0.2124026, 0.15)
STRUCTURED = (0.28, 0.1351351, 0.999)

# sampling ripple allowed in the monotonicity check where an anticrossing is
# narrower than the sweep step: the sampled branch wiggles by about half the
# unresolved gap
PINCH_RIPPLE = 2e-3


def _check(n, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_01_mode_counts_and_runtime(photon_pair, full_grid):
    t0 = time.perf_counter()
    res_u = mm.sweep(photon_pair,
                     mm.couplings_from_ratios(photon_pair, *UNSTRUCTURED),
                     full_grid)
    feats_u = mm.detect_features(res_u, photon_pair)
    res_s = mm.sweep(photon_pair,
                     mm.couplings_from_ratios(photon_pair, *STRUCTURED),
                     full_grid)
    feats_s = mm.detect_features(res_s, photon_pair)
    elapsed = time.perf_counter() - t0
    ok = (feats_u.n_coupled_branches == 4 and feats_u.n_cr_lines == 0
          and feats_s.n_coupled_branches == 3 and feats_s.n_cr_lines == 1
          and elapsed < 5.0)
    _check(1, ok,
           f"unstructured {feats_u.n_coupled_branches} coupled branches / "
           f"{feats_u.n_cr_lines} CR lines; structured "
           f"{feats_s.n_coupled_branches} coupled branches / "
           f"{feats_s.n_cr_lines} CR line; {elapsed:.2f} s")


def test_criterion_02_s_branch_features(photon_pair, full_grid):
    res = mm.sweep(photon_pair,
                   mm.couplings_from_ratios(photon_pair, *STRUCTURED),
                   full_grid)
    feats = mm.detect_features(res, photon_pair)
    s_col = res.branches[:, int(np.argmin(np.abs(res.branches[0]
                                                 - feats.asymptote_low)))]
    end_value = float(s_col[-1])
    worst_dip = float(np.diff(s_col).min())
    ok = (0.85 <= feats.asymptote_low <= 1.00
          and abs(feats.inflection_nu_c - 1.25) <= 0.15
          and abs(end_value - 1.6) / 1.6 < 0.05
          and worst_dip >= -PINCH_RIPPLE)
    _check(2, ok,
           f"plateau {feats.asymptote_low:.4f} THz, inflection at "
           f"{feats.inflection_nu_c:.4f} THz, endpoint {end_value:.4f} THz, "
           f"largest backward step {worst_dip:.2e} THz")


def test_criterion_03_zero_field_blueshift(photon_pair):
    coupling = mm.couplings_from_ratios(photon_pair, *UNSTRUCTURED)
    ham = mm.assemble_hamiltonian(photon_pair, 0.05, coupling)
    freqs = mm.diagonalize(ham).frequencies
    up1, up2 = float(freqs[2]), float(freqs[3])
    ok = up1 > 0.8 and up2 > 1.6 and 1.65 <= up2 <= 1.85
    _check(3, ok, f"photon-like branches start at {up1:.4f} and {up2:.4f} THz")


def test_criterion_04_coupling_decomposition_identity(photon_pair):
    scale = np.sqrt(photon_pair[0].frequency / photon_pair[1].frequency)
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(1000):
        ratio_2 = rng.uniform(0.01, 1.5)
        eta = rng.uniform(0.0, 1.0)
        coupling = mm.couplings_from_ratios(photon_pair, 0.3, ratio_2, eta)
        target = (ratio_2 * photon_pair[1].omega * scale) ** 2
        total = coupling.rabi[1, 0] ** 2 + coupling.rabi[1, 1] ** 2
        worst = max(worst, abs(total - target) / target)
    aligned = mm.couplings_from_ratios(photon_pair, 0.3, 0.5, 1.0)
    ok = worst < 1e-12 and aligned.rabi[1, 1] == 0.0
    _check(4, ok,
           f"quadrature identity to {worst:.2e} relative over 1000 draws; "
           f"eta = 1 gives W_22 = {float(aligned.rabi[1, 1])!r}")


def test_criterion_05_diagonalizer_oracle_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst_freq = worst_norm = worst_pair = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 5))
        d, g = oracles.random_stable_system(rng, n)
        ham = mm.QuadraticHamiltonian(
            n_photon=n, n_matter=0, diag_freqs=d * RAD_PER_SEC_PER_THZ,
            interaction=0.5 * (g + g.T) * RAD_PER_SEC_PER_THZ)
        sol = mm.diagonalize(ham)
        ref_freqs, _ = oracles.quadrature_modes(d, g)
        worst_freq = max(worst_freq, float(np.max(
            np.abs(sol.frequencies - ref_freqs) / ref_freqs)))
        norms = (np.abs(sol.hopfield_x) ** 2
                 - np.abs(sol.hopfield_y) ** 2).sum(axis=1)
        worst_norm = max(worst_norm, float(np.max(np.abs(norms - 1.0))))
        evals = np.linalg.eigvals(oracles.build_dynamical_matrix(ham))
        evals = evals.real / RAD_PER_SEC_PER_THZ
        pos = np.sort(evals[evals > 0.0])
        neg = np.sort(-evals[evals < 0.0])
        worst_pair = max(worst_pair, float(np.max(np.abs(pos - neg) / pos)))
    elapsed = time.perf_counter() - t0
    ok = (worst_freq < 1e-8 and worst_norm < 1e-9 and worst_pair < 1e-9
          and elapsed < 30.0)
    _check(5, ok,
           f"500 systems: frequencies to {worst_freq:.2e} relative, "
           f"symplectic norms to {worst_norm:.2e}, pairing to "
           f"{worst_pair:.2e}, {elapsed:.1f} s")


def test_criterion_06_decoupling_limit(photon_pair, full_grid):
    coupling = mm.couplings_from_ratios(photon_pair, 0.37, 0.21, 0.0)
    res = mm.sweep(photon_pair, coupling, full_grid)
    singles = [mm.sweep([mode], mm.single_mode_coupling(mode, ratio),
                        full_grid).branches
               for mode, ratio in zip(photon_pair, (0.37, 0.21))]
    union = np.sort(np.hstack(singles), axis=1)
    dev = float(np.max(np.abs(np.sort(res.branches, axis=1) - union)))
    ok = dev <= 1e-9
    _check(6, ok, f"union deviation {dev:.2e} THz over "
                  f"{full_grid.size} grid points")


def test_criterion_07_overlap_limits(lc_profile, dipolar_profile):
    rng = np.random.default_rng(7)
    mask = mm.full_mask(16, 16)

    worst_scale = 0.0
    for _ in range(200):
        values = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        f = mm.FieldProfile(nx=16, ny=16, dx=0.5, dy=0.5, values=values)
        c = complex(rng.normal(), rng.normal())
        if abs(c) < 1e-3:
            continue
        g = mm.FieldProfile(nx=16, ny=16, dx=0.5, dy=0.5, values=c * values)
        eta = mm.overlap_parameters(mm.gram([f, g], mask))[0, 1]
        worst_scale = max(worst_scale, abs(eta - 1.0))

    worst_raw = 0.0
    for _ in range(1000):
        f = mm.FieldProfile(nx=16, ny=16, dx=0.5, dy=0.5,
                            values=rng.normal(size=(16, 16))
                            + 1j * rng.normal(size=(16, 16)))
        g = mm.FieldProfile(nx=16, ny=16, dx=0.5, dy=0.5,
                            values=rng.normal(size=(16, 16))
                            + 1j * rng.normal(size=(16, 16)))
        gram = mm.gram([f, g], mask)
        raw = abs(gram[0, 1]) / np.sqrt(gram[0, 0].real * gram[1, 1].real)
        worst_raw = max(worst_raw, raw)

    patch = mm.central_square_mask(lc_profile.nx, lc_profile.ny,
                                   lc_profile.dx, lc_profile.dy,
                                   half_width=7.5)
    pair = [lc_profile, dipolar_profile]
    eta_patch = mm.overlap_parameters(mm.gram(pair, patch))[0, 1]
    eta_plane = mm.overlap_parameters(mm.gram(
        pair, mm.full_mask(lc_profile.nx, lc_profile.ny)))[0, 1]
    ok = (worst_scale < 1e-12 and worst_raw <= 1.0 + 1e-12
          and eta_patch > 0.99 and eta_plane < 0.3)
    _check(7, ok,
           f"scaled-copy limit to {worst_scale:.2e}, bound max "
           f"{worst_raw:.12f}, patch eta {eta_patch:.4f}, "
           f"full-plane eta {eta_plane:.4f}")


def _peak_records(result, rng=None, sigma=0.0):
    records = []
    for t, nu_c in enumerate(result.nu_c_values):
        peaks = np.sort(result.branches[t])
        if sigma > 0.0:
            peaks = np.sort(peaks + rng.normal(0.0, sigma, peaks.size))
        records.append(mm.PeakRecord(nu_c=float(nu_c), peaks=tuple(peaks)))
    return mm.PeakDataset(records=tuple(records))


def test_criterion_08_fit_round_trip(photon_pair):
    t0 = time.perf_counter()
    truth = mm.couplings_from_ratios(photon_pair, *UNSTRUCTURED)
    forward = mm.sweep(photon_pair, truth, np.linspace(0.3, 2.15, 12))

    def run(dataset, seed):
        cfg = mm.FitConfig(ratio_11_bounds=(0.0, 0.8),
                           ratio_2_bounds=(0.0, 0.8),
                           eta_fixed=UNSTRUCTURED[2], restarts=2, seed=seed)
        out = mm.fit(dataset, photon_pair, cfg)
        r11 = out.omega_r_11 / photon_pair[0].omega
        r2 = out.omega_r_2_tilde / photon_pair[1].omega
        return (abs(r11 - UNSTRUCTURED[0]) / UNSTRUCTURED[0],
                abs(r2 - UNSTRUCTURED[1]) / UNSTRUCTURED[1])

    clean_errs = run(_peak_records(forward), seed=1)
    good = 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        errs = run(_peak_records(forward, rng, sigma=0.01), seed=seed)
        good += max(errs) < 0.05
    elapsed = time.perf_counter() - t0
    ok = max(clean_errs) < 5e-3 and good >= 18 and elapsed < 120.0
    _check(8, ok,
           f"noiseless recovery to {max(clean_errs):.2e} relative; "
           f"{good}/20 noisy runs within 5%; {elapsed:.1f} s")


def test_criterion_09_cyclotron_conversion():
    nu_1t = mm.cyclotron_frequency(1.0)
    rng = np.random.default_rng(9)
    fields = rng.uniform(0.01, 10.0, size=200)
    worst = float(np.max([
        abs(mm.cyclotron_frequency(b) - b * nu_1t) / (b * nu_1t)
        for b in fields]))
    ok = abs(nu_1t - 0.39986) < 1e-4 and worst < 1e-14
    _check(9, ok, f"nu_c(1 T) = {nu_1t:.6f} THz, linearity to "
                  f"{worst:.2e} relative")


def test_criterion_10_spectrum_dip_consistency(photon_pair, full_grid):
    res = mm.sweep(photon_pair,
                   mm.couplings_from_ratios(photon_pair, *STRUCTURED),
                   full_grid)
    weights = res.photon_fractions()
    config = mm.SpectrumConfig(
        frequency_grid=0.05 + 0.005 * np.arange(511),
        linewidths=0.04, weight_mode="photon_fraction")
    worst = 0.0
    for t in range(full_grid.size):
        trans = mm.spectrum_from_branches(res.branches[t], weights[t], config)
        locus = config.frequency_grid[int(np.argmin(trans))]
        worst = max(worst, float(np.min(np.abs(res.branches[t] - locus))))
    ok = worst <= 0.05
    _check(10, ok, f"largest dip-to-branch distance {worst:.4f} THz "
                   f"over {full_grid.size} bias points")
