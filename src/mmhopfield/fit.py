"""Least-squares estimation of coupling constants from polariton peaks.

The residual compares measured peak positions against the model branch
frequencies at each record's cyclotron frequency, assigning peaks to
branches by the minimum-cost injective assignment (records may hold fewer
peaks than there are branches). Parameters are searched with a bounded
Nelder-Mead simplex restarted from random points inside the bounds; the
couplings are parametrized by the normalized ratios quoted at the
respective photon resonance, the same convention the results are reported
in.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .bogoliubov import normal_modes
from .errors import DataCoverageError, InstabilityError, ProfileFormatError
from .model import assemble_batch, couplings_from_ratios

MAX_ASSIGNED_PEAKS = 5


@dataclass(frozen=True)
class PeakRecord:
    """Measured peak frequencies (THz, ascending) at one cyclotron frequency."""

    nu_c: float
    peaks: tuple

    def __post_init__(self):
        if self.nu_c < 0.0:
            raise ValueError("nu_c must be non-negative")
        peaks = tuple(float(p) for p in self.peaks)
        if len(peaks) == 0:
            raise ValueError(f"record at nu_c = {self.nu_c} THz has no peaks")
        if any(p <= 0.0 for p in peaks):
            raise ValueError("peak frequencies must be positive")
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
    """Bounds are on the normalized ratios W_11/w_1 and Wt_2/w_2. eta is held
    at eta_fixed unless fit_eta is set, in which case it moves inside
    eta_bounds."""

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
            lo, hi = getattr(self, name)
            if not lo < hi:
                raise ValueError(f"{name} must satisfy lo < hi")
        if not 0.0 <= self.eta_fixed <= 1.0:
            raise ValueError("eta_fixed must lie in [0, 1]")
        if self.restarts < 1:
            raise ValueError("need at least one restart")


@dataclass(frozen=True)
class FitResult:
    omega_r_11: float
    omega_r_2_tilde: float
    eta: float
    residual_rms: float
    n_evaluations: int
    converged: bool


def _assignment_cost(peaks, freqs):
    """Minimum sum of squared errors over injective peak-to-branch maps.

    Both lists are ascending, so within any chosen branch subset the
    order-preserving pairing is optimal; minimize over subsets."""
    if len(peaks) > len(freqs):
        raise ValueError(
            f"{len(peaks)} peaks cannot be assigned to {len(freqs)} branches")
    if len(peaks) > MAX_ASSIGNED_PEAKS:
        raise ValueError(
            f"records with more than {MAX_ASSIGNED_PEAKS} peaks are not supported")
    best = np.inf
    for subset in combinations(range(len(freqs)), len(peaks)):
        cost = sum((p - freqs[j]) ** 2 for p, j in zip(peaks, subset))
        if cost < best:
            best = cost
    return best


def residual(params, data, photons):
    """RMS peak-position misfit (THz) of one parameter set."""
    w1 = photons[0].omega
    w2 = photons[1].omega
    coupling = couplings_from_ratios(photons, params.omega_r_11 / w1,
                                     params.omega_r_2_tilde / w2, params.eta)
    try:
        freqs, _ = normal_modes(
            *assemble_batch(photons, data.nu_c_values, coupling),
            coupling.n_photon, vectors=False)
    except InstabilityError as exc:
        raise InstabilityError(
            f"with W_11 = {params.omega_r_11:.6e}, Wt_2 = "
            f"{params.omega_r_2_tilde:.6e} rad/s, eta = {params.eta:.4f}, at "
            f"nu_c = {data.records[exc.entry].nu_c:.6g} THz: {exc}",
            entry=exc.entry) from exc
    total = 0.0
    count = 0
    for rec, row in zip(data.records, freqs):
        total += _assignment_cost(rec.peaks, row)
        count += len(rec.peaks)
    return float(np.sqrt(total / count))


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


def fit(data, photons, config=FitConfig()):
    """Estimate (W_11, Wt_2[, eta]) by restarted Nelder-Mead on the residual."""
    # imported here, not at module level: scipy.optimize takes most of a
    # package import, and only fitting needs it
    from scipy import optimize

    _check_coverage(data, photons)
    w1 = photons[0].omega
    w2 = photons[1].omega

    lo = [config.ratio_11_bounds[0], config.ratio_2_bounds[0]]
    hi = [config.ratio_11_bounds[1], config.ratio_2_bounds[1]]
    if config.fit_eta:
        lo.append(config.eta_bounds[0])
        hi.append(config.eta_bounds[1])
    lo, hi = np.array(lo), np.array(hi)

    evaluations = 0

    def objective(x):
        nonlocal evaluations
        evaluations += 1
        eta = x[2] if config.fit_eta else config.eta_fixed
        eta = min(max(eta, 0.0), 1.0)
        return residual(FitParams(x[0] * w1, x[1] * w2, eta), data, photons)

    rng = np.random.default_rng(config.seed)
    best = None
    total_evals = 0
    for _ in range(config.restarts):
        x0 = lo + (hi - lo) * rng.uniform(0.2, 0.8, size=len(lo))
        evaluations = 0
        res = optimize.minimize(
            objective, x0, method="Nelder-Mead",
            bounds=optimize.Bounds(lo, hi),
            options={"xatol": config.xatol, "fatol": 1e-10,
                     "maxfev": config.max_evaluations})
        total_evals += evaluations
        if best is None or res.fun < best.fun:
            best = res
        if best.success and best.fun < 1e-7:
            break  # already at an exact-data optimum; further restarts are noise

    eta = best.x[2] if config.fit_eta else config.eta_fixed
    return FitResult(omega_r_11=float(best.x[0] * w1),
                     omega_r_2_tilde=float(best.x[1] * w2),
                     eta=float(min(max(eta, 0.0), 1.0)),
                     residual_rms=float(best.fun),
                     n_evaluations=total_evals,
                     converged=bool(best.success))


# --- peak-list file format ---------------------------------------------------
# CSV header "nu_c_THz,peak1_THz,peak2_THz,...", one record per row, blank
# cells for missing peaks.

def load_peaks(path):
    """Read a PeakDataset from the peak-list CSV format."""
    records = []
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline()
        cols = [c.strip() for c in header.strip().split(",")]
        if len(cols) < 2 or cols[0] != "nu_c_THz" or cols[1] != "peak1_THz":
            raise ProfileFormatError(
                f"{path}:1: header must start with 'nu_c_THz,peak1_THz', got "
                f"{header.strip()!r}")
        for lineno, line in enumerate(fh, start=2):
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
