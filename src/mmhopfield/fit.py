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
from .errors import (DataCoverageError, InstabilityError, ProfileFormatError,
                     fault, read_ascii)
from .model import assemble_batch, rabi_from_gram, strengths_from_ratios

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

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        if len(self.records) == 0:
            raise ValueError("dataset contains no records")

    @property
    def nu_c_values(self):
        return np.array([r.nu_c for r in self.records])


@dataclass(frozen=True)
class FitConfig:
    """Bounds are on the normalized ratios W_11/w_1 and Wt_2/w_2, finite and
    non-negative (the frequencies are even in each coupling), and are kept
    as tuples of floats. eta is held at eta_fixed, or, when that is None,
    moves inside eta_bounds, a part of [0, 1]. The restarts start from
    points drawn by random.Random(seed), seed a non-negative integer, so one
    seed always gives the same start points. An invalid value raises
    ValueError("field: problem")."""

    ratio_11_bounds: tuple = (0.0, 1.0)
    ratio_2_bounds: tuple = (0.0, 1.0)
    eta_fixed: float | None = 1.0
    eta_bounds: tuple = (0.0, 1.0)
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        bounds = {name: tuple(getattr(self, name)) for name in (
            "ratio_11_bounds", "ratio_2_bounds", "eta_bounds")}
        eta = {} if self.eta_fixed is None else {"eta_fixed": self.eta_fixed}
        if found := fault(**bounds, **eta, restarts=self.restarts,
                          seed=self.seed):
            raise ValueError(": ".join(found))
        for name, value in bounds.items():
            object.__setattr__(self, name, tuple(map(float, value)))


@dataclass(frozen=True)
class FitResult:
    """The best restart: its normalized ratios W_11/w_1 and Wt_2/w_2 and
    eta, its rms misfit over all peaks (THz) and, in record order, that of
    each record's peaks."""

    ratio_11: float
    ratio_2_tilde: float
    eta: float
    residual_rms: float
    record_rms: tuple
    n_evaluations: int
    converged: bool


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
            if m > n_branches:  # the message names the first such record
                raise ProfileFormatError(
                    f"record at nu_c = {self.nu_c[counts == m][0]} THz: "
                    f"{m} peaks cannot be assigned to {n_branches} branches")
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
                *assemble_batch(self.photons, self.nu_c, rabi), vectors=False)
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
# a restart has converged once its step falls below this, in units of each
# parameter's bound width
XATOL = 1e-6
# parameter sets one restart may evaluate; its first P + 1 always run
MAX_EVALUATIONS = 4000
# a Jacobian column shorter than this fraction of the longest (both in
# normalized units) is zero to forward-difference precision
FLAT_COLUMN = 1e-6


def _levenberg_marquardt(misfit, param_sets, x, lo, hi):
    """Bounded Levenberg-Marquardt on the per-peak residuals, from each of
    the R start points x (R, P), every restart in lockstep.

    Every iteration evaluates the trial point of each running restart
    together with the forward-difference steps of its Jacobian, P + 1
    parameter sets per restart in one stack, with the assignment fixed at
    the trial point. A trial is accepted only if its misfit (assignment
    re-solved) falls. A restart has converged once it has tried a step
    below XATOL in units of the bound widths, or once its damping
    saturates; it stops unconverged when its next iteration would exceed
    MAX_EVALUATIONS. The damped step is elementwise arithmetic and a
    batched solve, so a restart's path does not depend on the others in
    the stack. Returns (x, rms, costs, evaluations, converged), one row per
    restart; a row of costs holds the squared error of every record at x,
    as _Misfit.assign gives it."""
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
        return misfit.rms(costs), costs, resid[:, 0], jac

    rms, costs, resid, jac = probe(x)
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
        converged[live] = (step == 0.0) | (step < XATOL)
        go = (step > 0.0) & (evaluations[live] + n_params + 1
                             <= MAX_EVALUATIONS)
        live, trial, small = live[go], trial[go], step[go] < XATOL
        if not live.size:
            break
        trial_rms, trial_costs, trial_resid, trial_jac = probe(trial)
        evaluations[live] += n_params + 1
        better = trial_rms < rms[live]
        kept = live[better]
        x[kept], rms[kept] = trial[better], trial_rms[better]
        costs[kept] = trial_costs[better]
        resid[kept], jac[kept] = trial_resid[better], trial_jac[better]
        lam[kept] = np.maximum(lam[kept] / LAMBDA_FACTOR, LAMBDA_MIN)
        lam[live[~better]] *= LAMBDA_FACTOR
        saturated = lam[live] > LAMBDA_MAX
        converged[live[saturated]] = True
        live = live[~(small | saturated)]
    return x, rms, costs, evaluations, converged


def fit(data, photons, config=FitConfig()):
    """Estimate the ratios (W_11/w_1, Wt_2/w_2) and, if config.eta_fixed is
    None, eta by restarted, bounded Levenberg-Marquardt.

    Each restart starts from a point drawn inside the bounds by the stdlib
    random.Random(config.seed) and may evaluate up to MAX_EVALUATIONS
    parameter sets, one per iteration for the trial point and one per fitted
    parameter for its Jacobian. All restarts iterate in lockstep, each to
    its own end; the result is the first restart of lowest misfit, and
    n_evaluations counts the parameter sets of every restart. The model has
    exactly two photon modes, else ValueError."""
    if len(photons) != 2:
        raise ValueError("the fit needs exactly two photon modes")
    _check_coverage(data, photons)
    misfit = _Misfit(data, photons)

    lo = [config.ratio_11_bounds[0], config.ratio_2_bounds[0]]
    hi = [config.ratio_11_bounds[1], config.ratio_2_bounds[1]]
    if config.eta_fixed is None:
        lo.append(config.eta_bounds[0])
        hi.append(config.eta_bounds[1])
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)

    def param_sets(points):
        if config.eta_fixed is None:
            eta = points[:, 2]  # inside eta_bounds, a part of [0, 1]
        else:
            eta = np.full(len(points), config.eta_fixed)
        return np.column_stack([points[:, 0], points[:, 1], eta])

    draw = random.Random(config.seed)
    starts = lo + (hi - lo) * np.array(
        [[draw.uniform(0.2, 0.8) for _ in lo] for _ in range(config.restarts)])
    x, rms, costs, evaluations, converged = _levenberg_marquardt(
        misfit, param_sets, starts, lo, hi)
    best = int(np.argmin(rms))

    eta = param_sets(x[best:best + 1])[0, 2]
    return FitResult(ratio_11=float(x[best, 0]),
                     ratio_2_tilde=float(x[best, 1]),
                     eta=float(eta),
                     residual_rms=float(rms[best]),
                     record_rms=tuple(np.sqrt(costs[best] / [
                         len(rec.peaks) for rec in data.records]).tolist()),
                     n_evaluations=int(evaluations.sum()),
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
    return PeakDataset(records=tuple(records))


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
