"""Peak-to-branch assignment, residual behavior, and parameter recovery."""

import sys

import numpy as np
import pytest

import mmhopfield as mm
from mmhopfield.bogoliubov import normal_modes
from mmhopfield.fit import _levenberg_marquardt, _Misfit
from mmhopfield.model import assemble_batch

import oracles

TRUE_RATIO_11 = 0.37
TRUE_RATIO_2 = 0.2124026
TRUE_ETA = 0.15


def _truth_params(eta=TRUE_ETA):
    """The true parameter set (ratio_11, ratio_2_tilde, eta)."""
    return (TRUE_RATIO_11, TRUE_RATIO_2, eta)


def _synthetic_dataset(photon_pair, n_points=40, noise=0.0, seed=0,
                       keep=slice(None)):
    grid = np.linspace(0.1, 2.15, n_points)
    coupling = mm.couplings_from_ratios(photon_pair, TRUE_RATIO_11,
                                        TRUE_RATIO_2, TRUE_ETA)
    res = mm.sweep(photon_pair, coupling, grid)
    rng = np.random.default_rng(seed)
    records = []
    for t, nu_c in enumerate(grid):
        peaks = np.sort(res.branches[t])[keep]
        if noise > 0.0:
            peaks = np.sort(peaks + rng.normal(0.0, noise, size=len(peaks)))
        records.append(mm.PeakRecord(nu_c=float(nu_c),
                                     peaks=tuple(float(p) for p in peaks)))
    return mm.PeakDataset(records=tuple(records))


def _record_rms(params, data, photons):
    """RMS peak misfit (THz) of each record at one parameter set, from one
    stacked evaluation of the fit's _Misfit."""
    misfit = _Misfit(data, photons)
    costs, _ = misfit.assign(misfit.frequencies(np.array([params])))
    return np.sqrt(costs[0] / [len(rec.peaks) for rec in data.records])


def _rms(params, data, photons):
    """Overall RMS peak misfit (THz) of one parameter set, from the
    per-record values of _record_rms."""
    counts = np.array([len(rec.peaks) for rec in data.records])
    per_record = _record_rms(params, data, photons)
    return float(np.sqrt((per_record ** 2 * counts).sum() / counts.sum()))


def _one_record_misfit(peaks, n_photons):
    photons = [mm.PhotonMode(index=i + 1, frequency=1.0 + i)
               for i in range(n_photons)]
    record = mm.PeakRecord(nu_c=0.5, peaks=tuple(peaks))
    return _Misfit(mm.PeakDataset(records=(record,)), photons)


def _assign_one(peaks, freqs):
    """Squared error of one record under the fit's stacked assignment,
    checked against the subset-loop oracle."""
    misfit = _one_record_misfit(peaks, len(freqs) // 2)
    costs, _ = misfit.assign(np.asarray(freqs, dtype=float)[None, None])
    cost = float(costs[0, 0])
    assert cost == pytest.approx(oracles.assignment_cost(peaks, freqs),
                                 rel=1e-14, abs=0.0)
    return cost


def test_assignment_prefers_nearest_branch():
    assert _assign_one((1.0,), np.array([0.9, 2.0])) == pytest.approx(
        0.01, rel=1e-12)


def test_assignment_is_order_preserving():
    cost = _assign_one((1.0, 2.0), np.array([0.5, 1.1, 1.9, 3.0]))
    assert cost == pytest.approx(0.01 + 0.01, rel=1e-12)


def test_assignment_exact_match_costs_nothing():
    freqs = np.array([0.4, 0.9, 1.7, 2.3])
    assert _assign_one((0.9, 2.3), freqs) == 0.0


def test_assignment_rejects_surplus_peaks():
    with pytest.raises(ValueError, match="3 peaks cannot be assigned to 2"):
        _one_record_misfit((0.1, 0.2, 0.3), 1)


@pytest.mark.parametrize("n_photons", [1, 3])
def test_fit_needs_exactly_two_photon_modes(photon_pair, n_photons):
    photons = [mm.PhotonMode(index=i + 1, frequency=0.8 * (i + 1))
               for i in range(n_photons)]
    with pytest.raises(ValueError, match="the fit needs exactly two photon "
                                         "modes"):
        mm.fit(_synthetic_dataset(photon_pair, n_points=12), photons)


def test_stacked_assignment_matches_scalar_rule(photon_pair):
    rng = np.random.default_rng(11)
    records = tuple(
        mm.PeakRecord(nu_c=0.1 + 0.05 * t,
                      peaks=tuple(np.sort(rng.uniform(0.1, 3.0, 1 + t % 4))))
        for t in range(40))
    misfit = _Misfit(mm.PeakDataset(records=records), photon_pair)
    freqs = np.sort(rng.uniform(0.1, 3.0, size=(3, 40, 4)), axis=-1)
    costs, branches = misfit.assign(freqs)
    for k in range(3):
        expected = [oracles.assignment_cost(rec.peaks, freqs[k, t])
                    for t, rec in enumerate(records)]
        np.testing.assert_allclose(costs[k], expected, rtol=1e-14, atol=0.0)
        # the assigned branches give those costs
        resid = misfit.peaks - freqs[k, misfit.peak_rows, branches[k]]
        np.testing.assert_allclose(
            np.bincount(misfit.peak_rows, weights=resid ** 2), expected,
            rtol=1e-14, atol=0.0)


def test_residual_vanishes_at_truth(photon_pair):
    data = _synthetic_dataset(photon_pair)
    rms = _rms(_truth_params(), data, photon_pair)
    assert rms < 1e-10


def test_residual_grows_under_perturbation(photon_pair):
    data = _synthetic_dataset(photon_pair)
    truth = _truth_params()
    bumped = (1.1 * TRUE_RATIO_11, TRUE_RATIO_2, TRUE_ETA)
    assert _rms(bumped, data, photon_pair) > _rms(truth, data, photon_pair)


def test_residual_handles_partial_peak_lists(photon_pair):
    # records keep only the two outermost branches; truth still fits exactly
    data = _synthetic_dataset(photon_pair, keep=slice(0, 4, 3))
    assert _rms(_truth_params(), data, photon_pair) < 1e-10


def test_instability_error_names_parameters_and_record(photon_pair,
                                                      monkeypatch):
    # every real coupling set is stable, so make the eta = 0.5 set's form
    # at the second record unstable (as in test_dispersion)
    fit_module = sys.modules["mmhopfield.fit"]
    real_assembly = fit_module.assemble_batch

    def unstable_eta_half(photons, grid, rabi):
        freqs, inter = real_assembly(photons, grid, rabi)
        # rabi[k, 1, 0] = eta Wt_2, so this picks the eta = 0.5 set
        eta_half = np.isclose(rabi[:, 1, 0] / np.hypot(rabi[:, 1, 0],
                                                       rabi[:, 1, 1]), 0.5)
        inter[eta_half, 1, 0, 0] = -freqs[1, 0]
        return freqs, inter

    monkeypatch.setattr(fit_module, "assemble_batch", unstable_eta_half)
    records = tuple(mm.PeakRecord(nu_c=nu_c, peaks=(1.0,))
                    for nu_c in (0.3, 0.6, 0.9))
    misfit = _Misfit(mm.PeakDataset(records=records), photon_pair)
    with pytest.raises(mm.InstabilityError,
                       match=r"W_11 = 1\.859823e\+12, .* eta = 0\.5000, at "
                             r"nu_c = 0\.6 THz: .*smallest squared") as err:
        misfit.frequencies(np.array([[0.37, 0.2, 0.15], [0.37, 0.2, 0.5]]))
    assert err.value.entry == 1


def test_stacked_frequencies_equal_separate_sweeps(photon_pair):
    # eta = 0 and 1, zero couplings, and a set on the default bounds
    sets = np.array([[TRUE_RATIO_11, TRUE_RATIO_2, TRUE_ETA],
                     [0.37, 0.21, 0.0], [0.28, 0.14, 1.0], [0.0, 0.0, 0.5],
                     [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    data = _synthetic_dataset(photon_pair, n_points=12, keep=slice(0, 4, 3))
    stacked = _Misfit(data, photon_pair).frequencies(sets)
    assert stacked.shape == (len(sets), 12, 4)
    for k, row in enumerate(sets.tolist()):
        coupling = mm.couplings_from_ratios(photon_pair, *row)
        # the eigenvalue-only solve of one Rabi matrix, bit for bit
        alone, _ = normal_modes(
            *assemble_batch(photon_pair, data.nu_c_values, coupling),
            vectors=False)
        assert np.array_equal(stacked[k], alone)
        # a sweep's eigh (with vectors) rounds apart from eigvalsh by ~1e-15
        swept = mm.sweep(photon_pair, coupling, data.nu_c_values)
        np.testing.assert_allclose(stacked[k], np.sort(swept.branches, axis=1),
                                   rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("nu_c, peaks", [
    (float("nan"), (1.0,)), (float("inf"), (1.0,)),
    (0.5, (float("nan"),)), (0.5, (0.7, float("inf")))])
def test_peak_record_rejects_non_finite_values(nu_c, peaks):
    with pytest.raises(ValueError, match="must be finite"):
        mm.PeakRecord(nu_c=nu_c, peaks=peaks)


def test_coverage_requires_enough_records(photon_pair):
    records = (mm.PeakRecord(nu_c=0.4, peaks=(0.5,)),
               mm.PeakRecord(nu_c=1.8, peaks=(1.7,)))
    with pytest.raises(mm.DataCoverageError, match="at least 3"):
        mm.fit(mm.PeakDataset(records=records), photon_pair)


def test_coverage_requires_bracketing_each_mode(photon_pair):
    # all records below the second photon frequency
    records = tuple(mm.PeakRecord(nu_c=nu, peaks=(0.5,))
                    for nu in (0.2, 0.5, 0.7, 1.0))
    with pytest.raises(mm.DataCoverageError, match="mode 2"):
        mm.fit(mm.PeakDataset(records=records), photon_pair)


def test_fit_recovers_noiseless_parameters(photon_pair):
    data = _synthetic_dataset(photon_pair)
    config = mm.FitConfig(ratio_11_bounds=(0.0, 0.8),
                          ratio_2_bounds=(0.0, 0.8),
                          eta_fixed=TRUE_ETA, restarts=3, seed=1)
    result = mm.fit(data, photon_pair, config)
    assert result.converged
    assert result.residual_rms < 1e-6
    assert abs(result.ratio_11 - TRUE_RATIO_11) < 5e-3 * TRUE_RATIO_11
    assert abs(result.ratio_2_tilde - TRUE_RATIO_2) < 5e-3 * TRUE_RATIO_2
    assert result.n_evaluations > 0


def test_fit_recovers_eta_when_free(photon_pair):
    data = _synthetic_dataset(photon_pair)
    config = mm.FitConfig(ratio_11_bounds=(0.1, 0.6),
                          ratio_2_bounds=(0.05, 0.5),
                          eta_fixed=None, eta_bounds=(0.0, 0.6),
                          restarts=3, seed=3)
    result = mm.fit(data, photon_pair, config)
    assert abs(result.ratio_11 - TRUE_RATIO_11) < 1e-2 * TRUE_RATIO_11
    assert abs(result.ratio_2_tilde - TRUE_RATIO_2) < 1e-2 * TRUE_RATIO_2
    assert abs(result.eta - TRUE_ETA) < 0.05


def test_free_eta_fit_converges_on_the_eta_zero_bound(photon_pair):
    # with the truth at eta = 0 and this noise draw, the best eta is the
    # bound itself, where every eta-slope vanishes
    grid = np.linspace(0.3, 2.15, 12)
    truth = _truth_params(eta=0.0)
    forward = mm.sweep(photon_pair, mm.couplings_from_ratios(
        photon_pair, TRUE_RATIO_11, TRUE_RATIO_2, 0.0), grid)
    rng = np.random.default_rng(0)
    records = []
    for t, nu_c in enumerate(grid):
        peaks = np.sort(forward.branches[t] + rng.normal(0.0, 0.01, 4))
        if t % 4 == 3:
            peaks = np.delete(peaks, rng.integers(4))
        records.append(mm.PeakRecord(nu_c=float(nu_c), peaks=tuple(peaks)))
    data = mm.PeakDataset(records=tuple(records))
    config = mm.FitConfig(ratio_11_bounds=(0.0, 0.8),
                          ratio_2_bounds=(0.0, 0.8), eta_fixed=None,
                          eta_bounds=(0.0, 0.6), restarts=4, seed=0)
    result = mm.fit(data, photon_pair, config)
    assert result.converged
    assert result.eta == 0.0
    assert result.residual_rms <= _rms(truth, data, photon_pair)
    for eta in (1e-3, 1e-2, 0.1):
        moved = (result.ratio_11, result.ratio_2_tilde, eta)
        assert _rms(moved, data, photon_pair) > result.residual_rms


def test_record_residuals_match_single_record_residuals(photon_pair):
    data = _synthetic_dataset(photon_pair, n_points=12, noise=0.01, seed=4)
    records = tuple(mm.PeakRecord(nu_c=rec.nu_c, peaks=rec.peaks[t % 3:])
                    for t, rec in enumerate(data.records))
    data = mm.PeakDataset(records=records)
    params = (0.35, 0.22, 0.3)
    single = [_record_rms(params, mm.PeakDataset(records=(rec,)),
                          photon_pair)[0] for rec in records]
    np.testing.assert_allclose(_record_rms(params, data, photon_pair),
                               single, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("free_eta", [False, True], ids=["fixed_eta", "free_eta"])
def test_fit_reports_each_record_misfit_at_its_fitted_ratios(photon_pair,
                                                             free_eta):
    # noisy peaks, one record in four missing a peak
    data = _synthetic_dataset(photon_pair, n_points=12, noise=0.01, seed=6)
    records = tuple(mm.PeakRecord(nu_c=rec.nu_c, peaks=rec.peaks[1:]
                                  if t % 4 == 3 else rec.peaks)
                    for t, rec in enumerate(data.records))
    data = mm.PeakDataset(records=records)
    config = mm.FitConfig(ratio_11_bounds=(0.0, 0.8),
                          ratio_2_bounds=(0.0, 0.8),
                          eta_fixed=None if free_eta else TRUE_ETA,
                          restarts=3, seed=2)
    result = mm.fit(data, photon_pair, config)
    assert isinstance(result.record_rms, tuple)
    assert all(type(value) is float for value in result.record_rms)
    fitted = (result.ratio_11, result.ratio_2_tilde, result.eta)
    np.testing.assert_allclose(result.record_rms,
                               _record_rms(fitted, data, photon_pair),
                               rtol=1e-12, atol=0.0)
    counts = np.array([len(rec.peaks) for rec in records])
    overall = np.sqrt((np.square(result.record_rms) * counts).sum()
                      / counts.sum())
    assert overall == pytest.approx(result.residual_rms, rel=1e-14, abs=0.0)


def test_fit_reports_failure_on_starved_budget(photon_pair, monkeypatch):
    monkeypatch.setattr(sys.modules["mmhopfield.fit"], "MAX_EVALUATIONS", 5)
    data = _synthetic_dataset(photon_pair, n_points=8)
    config = mm.FitConfig(restarts=1, seed=0, eta_fixed=TRUE_ETA)
    result = mm.fit(data, photon_pair, config)
    assert not result.converged


def test_budget_that_stops_the_last_small_step_still_converges(photon_pair,
                                                              monkeypatch):
    data = _synthetic_dataset(photon_pair, n_points=12, noise=0.01, seed=2)
    config = mm.FitConfig(ratio_11_bounds=(0.0, 0.8),
                          ratio_2_bounds=(0.0, 0.8), eta_fixed=TRUE_ETA,
                          restarts=1, seed=0)
    full = mm.fit(data, photon_pair, config)
    monkeypatch.setattr(sys.modules["mmhopfield.fit"], "MAX_EVALUATIONS",
                        full.n_evaluations - 1)
    cut = mm.fit(data, photon_pair, config)
    assert full.converged is True
    # the step left untried is already below XATOL
    assert cut.converged is True
    assert cut.n_evaluations == full.n_evaluations - 3


@pytest.mark.parametrize("free_eta", [False, True], ids=["fixed_eta", "free_eta"])
@pytest.mark.parametrize("ratios", [(0.37, 0.2124026, 0.15),
                                    (0.28, 0.1351351, 0.999)],
                         ids=["unstructured", "structured"])
def test_lockstep_restarts_match_each_restart_alone(photon_pair, ratios,
                                                    free_eta):
    # noisy peaks from a shipped config's couplings, one record in four
    # missing a peak
    grid = np.linspace(0.3, 2.15, 12)
    forward = mm.sweep(photon_pair, mm.couplings_from_ratios(photon_pair,
                                                             *ratios), grid)
    rng = np.random.default_rng(7)
    records = []
    for t, nu_c in enumerate(grid):
        peaks = np.sort(forward.branches[t] + rng.normal(0.0, 0.01, 4))
        if t % 4 == 3:
            peaks = np.delete(peaks, rng.integers(4))
        records.append(mm.PeakRecord(nu_c=float(nu_c), peaks=tuple(peaks)))
    misfit = _Misfit(mm.PeakDataset(records=tuple(records)), photon_pair)
    n_params = 3 if free_eta else 2
    lo, hi = np.zeros(n_params), np.array([0.8, 0.8, 1.0][:n_params])

    def param_sets(points):
        eta = points[:, 2] if free_eta else np.full(len(points), ratios[2])
        return np.column_stack([points[:, 0], points[:, 1], eta])

    starts = lo + (hi - lo) * rng.uniform(0.2, 0.8, size=(8, n_params))
    starts[0] = lo  # every variable on a bound
    together = _levenberg_marquardt(misfit, param_sets, starts, lo, hi)
    assert len(set(together[3].tolist())) > 1  # restarts end apart
    for k in range(len(starts)):
        alone = _levenberg_marquardt(misfit, param_sets, starts[k:k + 1],
                                     lo, hi)
        for stacked, single in zip(together, alone):
            assert np.array_equal(stacked[k], single[0]), k


def test_fit_keeps_the_first_best_of_every_finished_restart(photon_pair,
                                                             monkeypatch):
    # on exact peaks every restart reaches the truth, at misfits apart by
    # rounding alone; each runs to its own end, the fit keeps the lowest and
    # counts the parameter sets of all of them
    grid = np.linspace(0.3, 2.15, 12)
    forward = mm.sweep(photon_pair, mm.couplings_from_ratios(
        photon_pair, *_truth_params()), grid)
    data = mm.PeakDataset(records=tuple(
        mm.PeakRecord(nu_c=float(nu_c), peaks=tuple(np.sort(forward.branches[t])))
        for t, nu_c in enumerate(grid)))
    config = mm.FitConfig(ratio_11_bounds=(0.0, 0.8),
                          ratio_2_bounds=(0.0, 0.8), eta_fixed=TRUE_ETA,
                          restarts=8, seed=5)
    module = sys.modules["mmhopfield.fit"]
    runs = []

    def recorded(*args):
        runs.append((args, _levenberg_marquardt(*args)))
        return runs[-1][1]

    monkeypatch.setattr(module, "_levenberg_marquardt", recorded)
    result = mm.fit(data, photon_pair, config)
    (misfit, param_sets, starts, lo, hi), together = runs[0]
    x, rms, costs, evaluations, converged = together
    alone = [_levenberg_marquardt(misfit, param_sets, starts[k:k + 1], lo, hi)
             for k in range(config.restarts)]
    for k, single in enumerate(alone):
        for stacked, own in zip(together, single):
            assert np.array_equal(stacked[k], own[0]), k
    best = int(np.flatnonzero(rms == rms.min())[0])
    assert best > 0 and rms[best] < rms[0]  # the first restart is not kept
    assert result.residual_rms == rms[best]
    assert (result.ratio_11, result.ratio_2_tilde) == tuple(x[best])
    assert result.converged
    assert result.n_evaluations == sum(int(run[3][0]) for run in alone)

    # on a tie the first of the tied restarts is kept
    assert not np.array_equal(x[0], x[best])
    tied = np.full_like(rms, rms[best])
    monkeypatch.setattr(module, "_levenberg_marquardt", lambda *args: (
        x, tied, costs, evaluations, converged))
    first = mm.fit(data, photon_pair, config)
    assert (first.ratio_11, first.ratio_2_tilde) == tuple(x[0])
    np.testing.assert_array_equal(first.record_rms, np.sqrt(
        costs[0] / [len(rec.peaks) for rec in data.records]))


def test_fit_config_validation():
    with pytest.raises(ValueError):
        mm.FitConfig(ratio_11_bounds=(0.5, 0.5))
    with pytest.raises(ValueError):
        mm.FitConfig(eta_fixed=1.5)
    with pytest.raises(ValueError):
        mm.FitConfig(restarts=0)


@pytest.mark.parametrize("fields, field", [
    (dict(ratio_11_bounds=(0.1,)), "ratio_11_bounds"),
    (dict(ratio_2_bounds=(0.0, 0.4, 0.8)), "ratio_2_bounds"),
    (dict(eta_bounds=(0.0, 0.5, 1.0)), "eta_bounds"),
    # eta outside [0, 1] has no meaning: once it was clipped to the edge,
    # which left part of the searched box flat
    (dict(eta_bounds=(-0.1, 0.5)), "eta_bounds"),
    (dict(eta_bounds=(0.5, 1.5), eta_fixed=None), "eta_bounds"),
    # the documented seed is a non-negative integer
    (dict(seed=-1), "seed"),
], ids=["ratio_11_count", "ratio_2_count", "eta_count", "eta_below_0",
        "eta_above_1", "seed_negative"])
def test_fit_config_rejects_settings_the_solver_cannot_honour(fields, field):
    with pytest.raises(ValueError, match=f"^{field}: "):
        mm.FitConfig(**fields)


@pytest.mark.parametrize("fields, field", [
    (dict(ratio_11_bounds=(-0.5, 0.8)), "ratio_11_bounds"),
    (dict(ratio_2_bounds=(0.0, float("inf"))), "ratio_2_bounds"),
    (dict(ratio_11_bounds=(-float("inf"), 0.8)), "ratio_11_bounds")])
def test_fit_config_rejects_negative_or_infinite_ratio_bounds(fields, field):
    # the stacked misfit checks no ratio rule at its trial points,
    # so a bound that would reach one is rejected here
    with pytest.raises(ValueError,
                       match=f"^{field}: must be finite and non-negative$"):
        mm.FitConfig(**fields)


@pytest.mark.parametrize("make", [
    lambda bounds: mm.FitConfig(ratio_11_bounds=bounds),
    lambda bounds: mm.FitConfig(ratio_2_bounds=bounds),
    lambda bounds: mm.FitConfig(eta_bounds=bounds),
], ids=["ratio_11_bounds", "ratio_2_bounds", "eta_bounds"])
def test_fit_config_keeps_value_equality_whatever_its_bounds(make):
    # lists and arrays are stored as the tuple of their floats
    configs = [make(bounds) for bounds in (
        (0.0, 0.5), [0.0, 0.5], np.array([0.0, 0.5]), (0, 0.5))]
    assert all(config == configs[0] for config in configs)
    assert len({hash(config) for config in configs}) == 1
    assert configs[0] != make((0.0, 0.25))


@pytest.mark.parametrize("free_eta", [False, True])
def test_smallest_budget_is_honoured(photon_pair, free_eta, monkeypatch):
    # a restart evaluates its start point and Jacobian, P + 1 sets, before
    # it can check its budget
    data = _synthetic_dataset(photon_pair, n_points=8)
    smallest = 4 if free_eta else 3
    monkeypatch.setattr(sys.modules["mmhopfield.fit"], "MAX_EVALUATIONS",
                        smallest)
    config = mm.FitConfig(restarts=2, seed=0,
                          eta_fixed=None if free_eta else TRUE_ETA)
    result = mm.fit(data, photon_pair, config)
    assert result.n_evaluations == 2 * smallest


def test_peak_record_validation():
    with pytest.raises(ValueError, match="^dataset contains no records$"):
        mm.PeakDataset(records=())
    with pytest.raises(ValueError):
        mm.PeakRecord(nu_c=0.5, peaks=())
    with pytest.raises(ValueError):
        mm.PeakRecord(nu_c=0.5, peaks=(0.4, 0.4))
    with pytest.raises(ValueError):
        mm.PeakRecord(nu_c=0.5, peaks=(-0.1,))
    with pytest.raises(ValueError):
        mm.PeakRecord(nu_c=-0.5, peaks=(0.4,))


def test_peaks_file_round_trip(tmp_path, photon_pair):
    data = _synthetic_dataset(photon_pair, n_points=7, keep=slice(0, 3))
    path = tmp_path / "peaks.csv"
    mm.save_peaks(path, data)
    back = mm.load_peaks(path)
    assert len(back.records) == len(data.records)
    for a, b in zip(back.records, data.records):
        assert a.nu_c == pytest.approx(b.nu_c, rel=1e-8)
        assert a.peaks == pytest.approx(b.peaks, rel=1e-8)


def test_peaks_file_ragged_rows(tmp_path):
    path = tmp_path / "peaks.csv"
    path.write_text("nu_c_THz,peak1_THz,peak2_THz\n"
                    "0.4,0.5,\n"
                    "1.0,0.6,1.7\n"
                    "2.1,0.9,\n")
    data = mm.load_peaks(path)
    assert [len(r.peaks) for r in data.records] == [1, 2, 1]


def test_peaks_file_bad_header(tmp_path):
    path = tmp_path / "peaks.csv"
    path.write_text("bias,peak\n0.4,0.5\n")
    with pytest.raises(mm.ProfileFormatError) as err:
        mm.load_peaks(path)
    assert f"{path}:1" in str(err.value)


@pytest.mark.parametrize("text, problem", [
    ("nu_c_THz,peak1_THz\n0.4,0.5\n0.6,0.7,0.8\n", ":3: 3 cells but 2 columns"),
    ("nu_c_THz,peak1_THz\n", ": no records found"),
    ("\nnu_c_THz,peak1_THz\n0.4,0.5\n", ":1: empty header line"),
], ids=["surplus-cell", "header-only", "blank-header"])
def test_peaks_file_faults_name_the_file(tmp_path, text, problem):
    path = tmp_path / "peaks.csv"
    path.write_text(text)
    with pytest.raises(mm.ProfileFormatError) as err:
        mm.load_peaks(path)
    assert str(err.value) == f"{path}{problem}"


def test_peaks_file_bad_cell_reports_line(tmp_path):
    path = tmp_path / "peaks.csv"
    path.write_text("nu_c_THz,peak1_THz\n0.4,0.5\n0.6,oops\n")
    with pytest.raises(mm.ProfileFormatError) as err:
        mm.load_peaks(path)
    assert f"{path}:3" in str(err.value)


def test_peaks_file_non_ascii_byte_names_its_line(tmp_path):
    path = tmp_path / "peaks.csv"
    path.write_bytes(b"nu_c_THz,peak1_THz\n0.4,0.5\n0.6,0.7\xb5\n")
    with pytest.raises(mm.ProfileFormatError) as err:
        mm.load_peaks(path)
    assert str(err.value) == f"{path}:3: non-ASCII byte 0xb5"
