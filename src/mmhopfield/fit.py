"""Least-squares estimation of coupling constants from polariton peaks.

The residual compares measured peak positions against the model branch
frequencies at each record's cyclotron frequency, assigning peaks to
branches by the minimum-cost injective assignment (records may hold fewer
peaks than there are branches). The couplings are parametrized by the
normalized ratios quoted at the respective photon resonance, the same
convention the results are reported in.

Parameters are searched by a bounded Levenberg-Marquardt iteration
(Marquardt, SIAM J. Appl. Math. 11, 431 (1963)) on the per-peak residuals,
restarted from points that the stdlib random.Random(seed) draws inside the
bounds. The restarts iterate in lockstep: each iteration fixes every
running restart's assignment at its current point and takes a
forward-difference Jacobian, and the trial points and the parameter sets of
their Jacobians are solved in one stacked eigensolve. The search needs
numpy only, and neither numpy.random nor numpy.ma.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
import math
import random

import numpy as np

from .bogoliubov import normal_modes
from .errors import (DataCoverageError, FitConfigError, InstabilityError,
                     ProfileFormatError, read_ascii)
from .model import assemble_batch, rabi_from_gram, strengths_from_ratios

MAX_ASSIGNED_PEAKS = 5
# beyond it the branch frequencies lose the precision to stay positive
MAX_PEAK_THZ = 1e6


@dataclass(frozen=True)
class PeakRecord:
    """Measured peak frequencies (THz, ascending) at one cyclotron frequency."""

    nu_c: float
    peaks: tuple

    def __post_init__(self):
        if not 0.0 <= self.nu_c < math.inf:
            raise ValueError("nu_c must be finite and non-negative")
        peaks = tuple(float(p) for p in self.peaks)
        if len(peaks) == 0:
            raise ValueError(f"record at nu_c = {self.nu_c} THz has no peaks")
        if not all(0.0 < p < math.inf for p in peaks):
            raise ValueError("peak frequencies must be finite and positive")
        if max(self.nu_c, *peaks) > MAX_PEAK_THZ:
            raise ValueError(f"nu_c and peaks must not exceed {MAX_PEAK_THZ:g} THz")
        if any(b <= a for a, b in zip(peaks, peaks[1:])):
            raise ValueError("peaks must be strictly ascending")
        object.__setattr__(self, "peaks", peaks)


@dataclass(frozen=True)
class PeakDataset:
    """A set of peak records, e.g. one magneto-transmission map."""

    records: tuple
    source_label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        if len(self.records) == 0:
            raise ValueError("dataset contains no records")

    @property
    def nu_c_values(self):
        return np.array([r.nu_c for r in self.records])


@dataclass(frozen=True)
class FitParams:
    """Trial parameters: Rabi couplings in rad/s quoted at the respective
    photon resonance, plus the overlap eta."""

    omega_r_11: float
    omega_r_2_tilde: float
    eta: float


@dataclass(frozen=True)
class FitConfig:
    """Bounds are on the normalized ratios W_11/w_1 and Wt_2/w_2, finite and
    non-negative (the frequencies are even in each coupling). eta is held
    at eta_fixed unless fit_eta is set, in which case it moves inside
    eta_bounds, a part of [0, 1]. The restarts start from points drawn by
    random.Random(seed), seed a non-negative integer, so one seed always
    gives the same start points. A restart has converged once its step falls
    below xatol in units of each parameter's bound width; it may evaluate
    at most max_evaluations parameter sets, at least the P + 1 of its first
    point and Jacobian (P = 2 fitted parameters, 3 with fit_eta). Invalid
    values raise FitConfigError."""

    ratio_11_bounds: tuple = (0.0, 1.0)
    ratio_2_bounds: tuple = (0.0, 1.0)
    eta_fixed: float = 1.0
    fit_eta: bool = False
    eta_bounds: tuple = (0.0, 1.0)
    restarts: int = 8
    seed: int = 0
    xatol: float = 1e-6
    max_evaluations: int = 4000

    def __post_init__(self):
        for name in ("ratio_11_bounds", "ratio_2_bounds", "eta_bounds"):
            bounds = getattr(self, name)
            if len(bounds) != 2:
                raise FitConfigError(
                    name, f"needs exactly two values, got {len(bounds)}")
            lo, hi = bounds
            if not lo < hi:
                raise FitConfigError(name, "must satisfy lo < hi")
            if name != "eta_bounds" and (lo < 0.0 or hi == math.inf):
                raise FitConfigError(name, "must be finite and non-negative")
        if self.eta_bounds[0] < 0.0 or self.eta_bounds[1] > 1.0:
            raise FitConfigError("eta_bounds", "must lie within [0, 1]")
        if not 0.0 <= self.eta_fixed <= 1.0:
            raise FitConfigError("eta_fixed", "must lie in [0, 1]")
        if self.restarts < 1:
            raise FitConfigError("restarts", "need at least one restart")
        if self.seed < 0:
            raise FitConfigError("seed", "must be a non-negative integer")
        first_probe = (3 if self.fit_eta else 2) + 1
        if self.max_evaluations < first_probe:
            raise FitConfigError(
                "max_evaluations",
                f"must be at least {first_probe}, the parameter sets of a "
                f"restart's first point and its Jacobian")


@dataclass(frozen=True)
class FitResult:
    omega_r_11: float
    omega_r_2_tilde: float
    eta: float
    residual_rms: float
    n_evaluations: int
    converged: bool


def _check_assignable(n_peaks, n_branches):
    if n_peaks > n_branches:
        raise ValueError(
            f"{n_peaks} peaks cannot be assigned to {n_branches} branches")
    if n_peaks > MAX_ASSIGNED_PEAKS:
        raise ValueError(
            f"records with more than {MAX_ASSIGNED_PEAKS} peaks are not supported")


class _Misfit:
    """Peak misfit of one dataset, evaluated for a stack of parameter sets.

    A record's peaks go to the branches that minimize the sum of squared
    errors over injective maps. Peaks and branches are both ascending, so
    within any chosen branch subset the order-preserving pairing is optimal,
    and the minimum runs over subsets. Records are grouped by peak count,
    and each group's candidate subsets are indexed once, so assigning the
    peaks of a whole stack is array arithmetic. A parameter set is a row
    (ratio_11, ratio_2_tilde, eta).
    """

    def __init__(self, data, photons):
        self.photons = photons
        self.nu_c = data.nu_c_values
        n_branches = 2 * len(photons)  # one matter mode per photon mode
        counts = np.array([len(rec.peaks) for rec in data.records])
        self.groups = []
        for m in sorted(set(counts.tolist())):
            _check_assignable(m, n_branches)
            rows = np.flatnonzero(counts == m)
            peaks = np.array([data.records[t].peaks for t in rows])
            subsets = np.array(list(combinations(range(n_branches), m)))
            self.groups.append((rows, peaks, subsets))
        # the per-peak residual vector runs group by group
        self.peaks = np.concatenate([peaks.ravel()
                                     for _, peaks, _ in self.groups])
        self.peak_rows = np.concatenate([np.repeat(rows, peaks.shape[1])
                                         for rows, peaks, _ in self.groups])

    def frequencies(self, sets):
        """Branch frequencies (K, T, n) of K parameter sets at every record,
        from one stacked assembly and eigensolve."""
        gram = np.ones((len(sets), 2, 2))
        gram[:, 0, 1] = gram[:, 1, 0] = sets[:, 2]
        rabi = rabi_from_gram(strengths_from_ratios(self.photons, sets[:, :2]),
                              gram)
        try:
            freqs, _ = normal_modes(
                *assemble_batch(self.photons, self.nu_c, rabi,
                                self.photons[0].frequency),
                len(self.photons), vectors=False)
        except InstabilityError as exc:
            k, t = divmod(exc.entry, len(self.nu_c))
            ratio_11, ratio_2, eta = sets[k]
            raise InstabilityError(
                f"with W_11 = {ratio_11 * self.photons[0].omega:.6e}, Wt_2 = "
                f"{ratio_2 * self.photons[1].omega:.6e} rad/s, eta = "
                f"{eta:.4f}, at nu_c = {self.nu_c[t]:.6g} THz: {exc}",
                entry=t) from exc
        return freqs

    def assign(self, freqs):
        """Optimal assignment for each of K stacked branch sets: the squared
        error of every record (K, T) and the branch of every peak (K, M)."""
        costs = np.empty(freqs.shape[:2])
        branches = []
        for rows, peaks, subsets in self.groups:
            err = peaks[:, None, :] - freqs[:, rows][:, :, subsets]
            squared = (err * err).sum(axis=-1)
            costs[:, rows] = squared.min(axis=-1)
            pick = squared.argmin(axis=-1)
            branches.append(subsets[pick].reshape(len(freqs), -1))
        return costs, np.concatenate(branches, axis=1)

    def rms(self, costs):
        return np.sqrt(costs.sum(axis=-1) / len(self.peaks))


def _costs(params, data, photons):
    """The misfit of data and its per-record squared errors (1, T) at one
    parameter set."""
    misfit = _Misfit(data, photons)
    sets = np.array([[params.omega_r_11 / photons[0].omega,
                      params.omega_r_2_tilde / photons[1].omega, params.eta]])
    costs, _ = misfit.assign(misfit.frequencies(sets))
    return misfit, costs


def residual(params, data, photons):
    """RMS peak-position misfit (THz) of one parameter set."""
    misfit, costs = _costs(params, data, photons)
    return float(misfit.rms(costs)[0])


def record_residuals(params, data, photons):
    """RMS peak-position misfit (THz) of each record, from one stacked
    evaluation; entry t equals residual() of record t alone."""
    _, costs = _costs(params, data, photons)
    return np.sqrt(costs[0] / [len(rec.peaks) for rec in data.records])


def _check_coverage(data, photons):
    if len(data.records) < 3:
        raise DataCoverageError(
            f"need at least 3 records to constrain the fit, got {len(data.records)}")
    nu = data.nu_c_values
    for mode in photons:
        if not (np.any(nu < mode.frequency) and np.any(nu > mode.frequency)):
            raise DataCoverageError(
                f"records must span both sides of photon mode {mode.index} at "
                f"{mode.frequency} THz")


# Marquardt damping: start, factor per rejected (and divisor per accepted)
# step, floor, and the value past which the point counts as stationary
LAMBDA_START = 1e-3
LAMBDA_FACTOR = 10.0
LAMBDA_MIN = 1e-12
LAMBDA_MAX = 1e16
# a Jacobian column shorter than this fraction of the longest (both in
# normalized units) is zero to forward-difference precision
FLAT_COLUMN = 1e-6
# misfit (THz) of a converged best restart on exact data: later ones are noise
EXACT_FIT_RMS_THZ = 1e-7


def _stop_rule(rms, converged):
    """Restarts in order: the best so far and the first index at which it
    has converged below EXACT_FIT_RMS_THZ (None if it never has)."""
    best = 0
    for k in range(len(rms)):
        if rms[k] < rms[best]:
            best = k
        if converged[best] and rms[best] < EXACT_FIT_RMS_THZ:
            return best, k
    return best, None


def _levenberg_marquardt(misfit, param_sets, x, lo, hi, xatol, budget):
    """Bounded Levenberg-Marquardt on the per-peak residuals, from each of
    the R start points x (R, P), every restart in lockstep.

    Every iteration evaluates the trial point of each running restart
    together with the forward-difference steps of its Jacobian, P + 1
    parameter sets per restart in one stack, with the assignment fixed at
    the trial point. A trial is accepted only if its misfit (assignment
    re-solved, as residual() computes it) falls. A restart has converged
    once it has tried a step below xatol in units of the bound widths, or
    once its damping saturates; it stops unconverged when its next
    iteration would exceed budget evaluations. The damped step is
    elementwise arithmetic and a batched solve, so a restart's path does not
    depend on the others in the stack. Once restarts 0..k have stopped and
    _stop_rule stops at k, the later ones are dropped unfinished. Returns
    (x, rms, evaluations, converged), one row per restart."""
    x = np.array(x, dtype=float)
    n_restarts, n_params = x.shape
    span = hi - lo
    h = np.sqrt(np.finfo(float).eps) * span
    cols = np.arange(n_params)

    def probe(x):
        steps = np.where(x + h > hi, -h, h)  # step inward at an upper bound
        points = np.repeat(x[:, None], n_params + 1, axis=1)
        points[:, cols + 1, cols] += steps
        freqs = misfit.frequencies(param_sets(points.reshape(-1, n_params)))
        freqs = freqs.reshape(len(x), n_params + 1, *freqs.shape[1:])
        costs, branches = misfit.assign(freqs[:, 0])
        resid = misfit.peaks - freqs[np.arange(len(x))[:, None, None],
                                     np.arange(n_params + 1)[:, None],
                                     misfit.peak_rows, branches[:, None]]
        jac = (resid[:, 1:] - resid[:, :1]) / steps[:, :, None]  # (A, P, M)
        return misfit.rms(costs), resid[:, 0], jac

    rms, resid, jac = probe(x)
    evaluations = np.full(n_restarts, n_params + 1)
    lam = np.full(n_restarts, LAMBDA_START)
    converged = np.zeros(n_restarts, dtype=bool)
    live = np.arange(n_restarts)
    while live.size:
        xs, jl = x[live], jac[live]
        grad = (jl * resid[live, None]).sum(axis=-1)
        normal = (jl[:, :, None] * jl[:, None]).sum(axis=-1)
        diagonal = normal[:, cols, cols]
        # A variable on a bound stays there if its descent direction points
        # out of the box, or if it has no slope there: the frequencies are
        # even in eta and in each coupling, so at zero the forward
        # difference holds only curvature, and a linear model built on it
        # sends the step far off the bound.
        reach = np.sqrt(diagonal) * span
        flat = reach <= FLAT_COLUMN * reach.max(axis=-1, keepdims=True)
        free = ~(((xs <= lo) & ((grad > 0.0) | flat))
                 | ((xs >= hi) & ((grad < 0.0) | flat)))
        # Marquardt's scaling, floored so that a parameter with no effect
        # (eta when Wt_2 = 0) keeps the system regular
        scale = np.where(free, diagonal, 0.0)
        scale = np.maximum(scale, np.maximum(
            1e-12 * scale.max(axis=-1, keepdims=True), np.finfo(float).tiny))
        normal[:, cols, cols] += lam[live, None] * scale
        # an identity row and column pin each variable that is not free
        system = np.where(free[:, :, None] & free[:, None], normal,
                          np.eye(n_params))
        delta = np.linalg.solve(system, np.where(free, -grad, 0.0)[:, :, None])
        trial = np.clip(xs + delta[:, :, 0], lo, hi)
        step = (np.abs(trial - xs) / span).max(axis=-1)
        converged[live] = (step == 0.0) | (step < xatol)
        go = (step > 0.0) & (evaluations[live] + n_params + 1 <= budget)
        live, trial, small = live[go], trial[go], step[go] < xatol
        if not live.size:
            break
        trial_rms, trial_resid, trial_jac = probe(trial)
        evaluations[live] += n_params + 1
        better = trial_rms < rms[live]
        kept = live[better]
        x[kept], rms[kept] = trial[better], trial_rms[better]
        resid[kept], jac[kept] = trial_resid[better], trial_jac[better]
        lam[kept] = np.maximum(lam[kept] / LAMBDA_FACTOR, LAMBDA_MIN)
        lam[live[~better]] *= LAMBDA_FACTOR
        saturated = lam[live] > LAMBDA_MAX
        converged[live[saturated]] = True
        live = live[~(small | saturated)]
        done = live[0] if live.size else n_restarts
        if done and _stop_rule(rms[:done], converged[:done])[1] is not None:
            break
    return x, rms, evaluations, converged


def fit(data, photons, config=FitConfig()):
    """Estimate (W_11, Wt_2[, eta]) by restarted, bounded Levenberg-Marquardt.

    Each restart starts from a point drawn inside the bounds by the stdlib
    random.Random(config.seed) and may evaluate up to
    config.max_evaluations parameter sets, one per iteration for the trial
    point and one per fitted parameter for its Jacobian. All restarts
    iterate in lockstep, but the result is the one of running them in
    order, stopping once the best so far has converged below
    EXACT_FIT_RMS_THZ: it is the best restart up to that point, and
    n_evaluations counts the parameter sets evaluated by those restarts."""
    _check_coverage(data, photons)
    misfit = _Misfit(data, photons)
    w1 = photons[0].omega
    w2 = photons[1].omega

    lo = [config.ratio_11_bounds[0], config.ratio_2_bounds[0]]
    hi = [config.ratio_11_bounds[1], config.ratio_2_bounds[1]]
    if config.fit_eta:
        lo.append(config.eta_bounds[0])
        hi.append(config.eta_bounds[1])
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)

    def param_sets(points):
        if config.fit_eta:
            eta = points[:, 2]  # inside eta_bounds, a part of [0, 1]
        else:
            eta = np.full(len(points), config.eta_fixed)
        return np.column_stack([points[:, 0], points[:, 1], eta])

    draw = random.Random(config.seed)
    starts = lo + (hi - lo) * np.array(
        [[draw.uniform(0.2, 0.8) for _ in lo] for _ in range(config.restarts)])
    x, rms, evaluations, converged = _levenberg_marquardt(
        misfit, param_sets, starts, lo, hi, config.xatol,
        config.max_evaluations)
    best, stop = _stop_rule(rms, converged)
    ran = config.restarts if stop is None else stop + 1

    eta = param_sets(x[best:best + 1])[0, 2]
    return FitResult(omega_r_11=float(x[best, 0] * w1),
                     omega_r_2_tilde=float(x[best, 1] * w2),
                     eta=float(eta),
                     residual_rms=float(rms[best]),
                     n_evaluations=int(evaluations[:ran].sum()),
                     converged=bool(converged[best]))


# --- peak-list file format ---------------------------------------------------
# CSV header "nu_c_THz,peak1_THz,peak2_THz,...", one record per row, blank
# cells for missing peaks.

def load_peaks(path):
    """Read a PeakDataset from the peak-list CSV format."""
    records = []
    header, body = read_ascii(path)
    cols = [c.strip() for c in header.strip().split(",")]
    if len(cols) < 2 or cols[0] != "nu_c_THz" or cols[1] != "peak1_THz":
        raise ProfileFormatError(
            f"{path}:1: header must start with 'nu_c_THz,peak1_THz', got "
            f"{header.strip()!r}")
    for lineno, line in enumerate(body.split("\n"), start=2):
        if not line.strip():
            continue
        cells = [c.strip() for c in line.strip().split(",")]
        if len(cells) > len(cols):
            raise ProfileFormatError(
                f"{path}:{lineno}: {len(cells)} cells but {len(cols)} columns")
        try:
            nu_c = float(cells[0])
            peaks = [float(c) for c in cells[1:] if c != ""]
        except ValueError as exc:
            raise ProfileFormatError(f"{path}:{lineno}: {exc}") from exc
        try:
            records.append(PeakRecord(nu_c=nu_c, peaks=tuple(peaks)))
        except ValueError as exc:
            raise ProfileFormatError(f"{path}:{lineno}: {exc}") from exc
    if not records:
        raise ProfileFormatError(f"{path}: no records found")
    return PeakDataset(records=tuple(records), source_label=str(path))


def save_peaks(path, data):
    """Write a PeakDataset in the peak-list CSV format."""
    width = max(len(r.peaks) for r in data.records)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("nu_c_THz," + ",".join(f"peak{i + 1}_THz"
                                        for i in range(width)) + "\n")
        for rec in data.records:
            cells = [f"{rec.nu_c:.9g}"]
            cells += [f"{p:.9g}" for p in rec.peaks]
            cells += [""] * (width - len(rec.peaks))
            fh.write(",".join(cells) + "\n")
