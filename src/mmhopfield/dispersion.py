"""Magnetic-bias sweeps, branch bookkeeping, and spectrum synthesis.

A sweep diagonalizes the coupled system on a whole grid of cyclotron
frequencies in one stacked eigensolve per exact block of the coupling's
zero pattern and labels the branch columns of each point alone, from those
blocks and their near-dark matter combinations, so that a finer grid never
relabels a point. Feature detection classifies the labelled columns into
flat photon lines, the bare cyclotron line, and the coupled polariton
branches, and extracts the quantities used to compare parameter sets:
anticrossing gaps, the inflection of the middle branch, and its asymptotes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bogoliubov import normal_modes
from .errors import InstabilityError, fault, feature_span_fault
from .model import assemble_batch

# branch-classification thresholds (THz unless noted)
VARIATION_TOL = 0.02        # minimum total frequency variation of a coupled branch
MATTER_FRACTION_FLOOR = 1e-3  # minimum peak matter weight of a coupled branch
CR_LINE_TOL = 0.05          # maximum deviation from nu = nu_c for the bare line
# a matter combination whose singular value in its block of W is at most
# this unitless fraction of W's largest is near-dark, a label of its own
NEAR_DARK_FRACTION = 0.03


# eq=False: == and hash by identity, as an array == gives no single bool
@dataclass(frozen=True, eq=False)
class SweepResult:
    """Branch frequencies and mode fractions over a cyclotron-frequency grid.

    branches[t, k] is the frequency (THz) of branch column k at
    nu_c_values[t]; fractions[t, k, j] the weight of bare mode j (photon
    modes first) in that branch. Each is kept as a read-only C-ordered
    copy."""

    nu_c_values: np.ndarray
    branches: np.ndarray
    fractions: np.ndarray

    def __post_init__(self):
        for name in ("nu_c_values", "branches", "fractions"):
            arr = np.array(getattr(self, name), order="C")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_branches(self):
        return self.branches.shape[1]

    @property
    def n_photon(self):  # photon modes come first, as many as matter modes
        return self.branches.shape[1] // 2

    def photon_fractions(self):
        """Total photon weight per point and branch."""
        return self.fractions[:, :, :self.n_photon].sum(axis=2)


@dataclass(frozen=True)
class DispersionFeatures:
    """Summary of a swept dispersion.

    n_coupled_branches counts columns that both move with the bias and carry
    matter weight while not tracking the bare nu = nu_c line; columns that do
    track it are reported in n_cr_lines. gap_at_resonance holds the minimal
    branch spacing bracketing each bare photon frequency. The inflection and
    asymptotes describe the middle coupled branch and are None when there is
    no unique middle branch."""

    n_coupled_branches: int
    n_cr_lines: int
    gap_at_resonance: tuple
    inflection_nu_c: float | None
    asymptote_low: float | None
    asymptote_high: float | None


def _blocks(rabi):
    """Block of each bare mode, photon modes first: the lowest mode index in
    its connected component, where photon i and matter mode j are linked
    when W_ij != 0. These blocks of the form are exact. A zero column of W
    leaves its matter mode alone, an exactly dark nu = nu_c line, and a
    zero row leaves a bare photon."""
    n_ph = len(rabi)
    link = rabi != 0.0
    photon, matter = np.arange(n_ph), np.arange(n_ph, 2 * n_ph)
    for _ in range(n_ph):  # a pass crosses two links, a path at most 2N - 1
        photon = np.where(link, matter, photon[:, None]).min(axis=1)
        matter = np.where(link, photon[:, None], matter).min(axis=0)
    return np.concatenate([photon, matter])


def _branch_columns(rabi, block, freqs, vecs):
    """Column order[t, i] of branch column i at every point of a sweep
    solved block by block: the columns of each block of _blocks (block),
    in the order of their lowest modes, hold its frequencies freqs (T, n)
    and eigenvectors vecs (T, n, n) in its eigen-order. Each point is
    labelled from its own eigenvectors alone.

    A block's columns keep their eigen-order: inside an irreducible real
    symmetric one-parameter block, eigenvalues do not cross (von Neumann and
    Wigner, 1929). A near-dark matter combination, a right singular vector
    v of its block's part of W with a singular value of at most
    NEAR_DARK_FRACTION times the largest of W, is at every point the column
    of largest weight |v . e_matter| instead, so its nearly flat nu = nu_c
    line crosses its block's branches. Labels are ranked block by block,
    then the near-dark lines, and branch column i is the i-th lowest mode
    at the first point."""
    n_ph = len(rabi)
    group = np.tile(np.sort(block), (len(freqs), 1))
    parts = []  # squared singular values, right vectors and matter modes
    for r in np.flatnonzero(block == np.arange(len(block))):
        matter = block[n_ph:] == r
        part = rabi[block[:n_ph] == r][:, matter]
        if part.size:
            gram = np.add.reduce(part[:, :, None] * part[:, None, :])
            parts.append((*np.linalg.eigh(gram), matter))
    cut = NEAR_DARK_FRACTION ** 2 * max((p[0][-1] for p in parts), default=0.0)
    n = group.shape[1]
    label = n  # above every block's label, its lowest mode
    for squared, right, matter in parts:
        for v in right[:, squared <= cut].T:
            weight = np.add.reduce(vecs[..., n_ph:][..., matter] * v, axis=-1)
            group[np.arange(len(group)), np.abs(weight).argmax(axis=1)] = label
            label += 1
    # slots[t, s] is the column of label s at point t; branch column i keeps
    # the label of the i-th lowest column at the first point
    slots = np.argsort(group * n + np.arange(n), axis=1)
    return slots[:, np.argsort(slots[0])[np.argsort(freqs[0], kind="stable")]]


def sweep(photons, rabi, nu_c_grid):
    """Diagonalize over a grid of cyclotron frequencies (THz, ascending),
    for the Rabi matrix rabi (N, N) in rad/s, quoted at nu_c = nu_1.

    Each exact block of the form, by _blocks, is solved alone, so a
    branch's weight outside its own block is exactly 0. Branch column k is
    the k-th lowest mode at the first point, and every point takes its
    labels from its own solution, by _branch_columns: a column stays on its
    block's k-th eigenvalue, or on its near-dark nu = nu_c line, at every
    point."""
    rabi = np.asarray(rabi, dtype=float)
    if rabi.ndim != 2 or rabi.shape[0] != rabi.shape[1] or rabi.size == 0:
        raise ValueError(f"rabi must be square and non-empty, not {rabi.shape}")
    if not np.all(np.isfinite(rabi)):
        raise ValueError("rabi entries must be finite")
    grid = np.asarray(nu_c_grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise ValueError("nu_c grid must contain at least two points")
    if np.any(grid < 0.0):
        raise ValueError("nu_c grid must be non-negative")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("nu_c grid must be strictly ascending")

    diag, inter = assemble_batch(photons, grid, rabi)
    block = _blocks(rabi)
    freqs, vecs = np.empty(diag.shape), np.zeros(inter.shape)
    layout = np.sort(block)  # block-major columns
    for r in np.flatnonzero(block == np.arange(len(block))):
        modes = np.flatnonzero(block == r)
        cols = np.flatnonzero(layout == r)
        try:
            freqs[:, cols], vecs[:, cols[:, None], modes] = normal_modes(
                diag[:, modes], inter[:, modes[:, None], modes])
        except InstabilityError as exc:
            raise InstabilityError(
                f"at nu_c = {grid[exc.entry]:.6g} THz: {exc}",
                entry=exc.entry) from exc
    order = _branch_columns(rabi, block, freqs, vecs)
    points = np.arange(len(grid))[:, None]
    return SweepResult(nu_c_values=grid, branches=freqs[points, order],
                       fractions=vecs[points, order] ** 2)


def _middle_branch(result, coupled):
    """Index of the middle coupled branch, or None without a unique middle."""
    if len(coupled) == 0 or len(coupled) % 2 == 0:
        return None
    means = result.branches[:, coupled].mean(axis=0)
    return coupled[int(np.argsort(means)[len(coupled) // 2])]


def _inflection(nu_c, freqs):
    """nu_c of the sign change of the second difference nearest the point of
    steepest slope; None if the curvature never changes sign."""
    d2 = freqs[2:] - 2.0 * freqs[1:-1] + freqs[:-2]
    sign_changes = np.flatnonzero(np.sign(d2[:-1]) * np.sign(d2[1:]) < 0)
    if len(sign_changes) == 0:
        return None
    slope = np.abs(freqs[2:] - freqs[:-2])
    # d2[s] and d2[s+1] straddle zero between interior points s+1 and s+2
    best = sign_changes[np.argmax(np.minimum(slope[sign_changes],
                                             slope[sign_changes + 1]))]
    frac = d2[best] / (d2[best] - d2[best + 1])
    return float(nu_c[best + 1] + frac * (nu_c[best + 2] - nu_c[best + 1]))


def detect_features(result, photons):
    """Classify branch columns and extract dispersion features."""
    nu = result.nu_c_values
    if found := feature_span_fault(nu[0], nu[-1]):
        raise ValueError(found[1])

    # branch columns as (n, T) rows, so each search runs along the grid
    branches = np.ascontiguousarray(result.branches.T)
    variation = branches.max(axis=1) - branches.min(axis=1)
    # a coupled branch acquires matter weight somewhere along the sweep even
    # if it is photon-pure at the endpoints; the matter modes' weights are
    # added in order, as a sum over the fractions' short mode axis adds
    # fewer than 8
    matter = result.fractions[:, :, result.n_photon:].transpose(1, 2, 0)
    peak_matter = np.add.reduce(np.ascontiguousarray(matter), axis=1).max(axis=1)
    diag_dev = np.abs(branches - nu).max(axis=1)

    cr_line = diag_dev <= CR_LINE_TOL
    coupled = np.flatnonzero((variation > VARIATION_TOL)
                             & (peak_matter > MATTER_FRACTION_FLOOR)
                             & ~cr_line)

    gaps = []
    for mode in photons:
        above = np.where(branches >= mode.frequency, branches, np.inf).min(axis=0)
        below = np.where(branches < mode.frequency, branches, -np.inf).max(axis=0)
        spread = above - below
        spread = spread[np.isfinite(spread)]
        gaps.append(float(spread.min()) if len(spread) else float("nan"))

    middle = _middle_branch(result, coupled)
    if middle is None:
        inflection = asym_low = asym_high = None
    else:
        freqs = branches[middle]
        inflection = _inflection(nu, freqs)
        asym_low = float(freqs[0])
        asym_high = float(freqs[-1])

    return DispersionFeatures(n_coupled_branches=len(coupled),
                              n_cr_lines=int(np.count_nonzero(cr_line)),
                              gap_at_resonance=tuple(gaps),
                              inflection_nu_c=inflection,
                              asymptote_low=asym_low,
                              asymptote_high=asym_high)


# eq=False: == and hash by identity, as an array == gives no single bool
@dataclass(frozen=True, eq=False)
class SpectrumConfig:
    """Transmission-proxy settings: probe grid (THz), half-width-at-half-max
    linewidths per branch (THz, scalar broadcasts), and how dips are weighted
    ("photon_fraction" or "equal")."""

    frequency_grid: np.ndarray
    linewidths: np.ndarray
    weight_mode: str = "photon_fraction"

    def __post_init__(self):
        grid = np.atleast_1d(np.array(self.frequency_grid, dtype=float))
        if not np.all(np.isfinite(grid)):
            raise ValueError("frequency grid must be finite")
        if len(grid) < 2 or np.any(np.diff(grid) <= 0.0):
            raise ValueError("frequency grid must be ascending with >= 2 points")
        widths = np.atleast_1d(np.array(self.linewidths, dtype=float))
        if found := fault(linewidths=widths.ravel().tolist(),
                          weight_mode=self.weight_mode):
            raise ValueError(": ".join(found))
        grid.flags.writeable = False
        widths.flags.writeable = False
        object.__setattr__(self, "frequency_grid", grid)
        object.__setattr__(self, "linewidths", widths)


def spectrum_from_branches(freqs, weights, config):
    """Transmission proxy 1 - sum_k w_k L(nu; nu_k, gamma_k), clipped to [0, 1].

    L is a unit-peak Lorentzian of HWHM gamma_k. config.weight_mode sets
    w_k: under "photon_fraction" it is weights[..., k], the branch's photon
    fraction, and a negative weight counts as zero; under "equal" it is
    1/n, and weights is not read. freqs and weights hold the n branches on
    their last axis; leading axes broadcast, so the stacked (T, n) branches
    of a sweep give the (T, F) map in one call, equal to T calls on single
    rows. config holds one linewidth or n, else ValueError.

    The dips are evaluated branch-major, as a (..., n, F) stack with the
    probe grid contiguous: the weights are scaled by gamma^2 on their
    (..., n) array, one broadcast divide makes the dips in place, and the
    branch rows are added in order, row 0 first. A single linewidth enters
    as a Python float. Below 8 branches this equals, bit for bit, the sum
    over the branch axis of a (..., F, n) stack; from 8 up numpy sums such
    a short axis pairwise, so the last bits can differ (within 1e-15 for up
    to 12 branches). Only the lower clip is applied: with the weights
    clipped at zero every dip w gamma^2 / ((nu - nu_k)^2 + gamma^2) is >= 0,
    so 1 - sum is <= 1 already. A NaN stays NaN."""
    freqs = np.asarray(freqs, dtype=float)
    n = freqs.shape[-1]
    widths = config.linewidths
    if len(widths) not in (1, n):
        raise ValueError(
            f"{len(widths)} linewidths for {n} branches; give one or {n}")
    if len(widths) == 1:
        width2 = row_width2 = float(widths[0] * widths[0])
    else:
        width2 = widths * widths
        row_width2 = width2[:, None]
    if config.weight_mode == "equal":
        weights = np.full(freqs.shape, 1.0 / n)
    weights = np.maximum(np.asarray(weights, dtype=float), 0.0)
    if weights.shape != freqs.shape:  # the dips are divided in place
        freqs, weights = np.broadcast_arrays(freqs, weights)
    scaled = weights * width2
    dips = config.frequency_grid - freqs[..., None]
    np.multiply(dips, dips, out=dips)
    np.add(dips, row_width2, out=dips)  # (nu - nu_k)^2 + gamma^2
    np.divide(scaled[..., None], dips, out=dips)
    total = np.add.reduce(dips, axis=-2)
    np.subtract(1.0, total, out=total)
    return np.maximum(total, 0.0, out=total)


def g9_cells(values):
    """Each number of values, row-major, as "%.9g" text: the same text that
    f"{x:.9g}" gives for every float, at a fraction of the cost."""
    return list(map("%.9g".__mod__, np.ravel(values).tolist()))


def csv_rows(keys, labels, *values):
    """CSV rows of a table indexed by (key, label), keys outer. The row of
    keys[t] and labels[k] reads "key,label,values[0][t, k],...", and every
    row ends in a newline. keys and the (T, K) values arrays are written as
    "%.9g"; labels are K ready-made cells, reused for every key. Each key's
    rows are one printf template, filled by one % with that key's values."""
    tails = [f",{label.replace('%', '%%')}" + ",%.9g" * len(values)
             for label in labels]
    cells = np.stack([np.asarray(v, dtype=float) for v in values], axis=-1)
    return "".join((key + f"\n{key}".join(tails) + "\n") % tuple(row)
                   for key, row in zip(g9_cells(keys),
                                       cells.reshape(len(cells), -1).tolist()))


def write_branch_csv(result, stream):
    """Branch CSV: one row per (nu_c, branch), 9 significant digits."""
    n_ph = result.n_photon
    n_mat = result.fractions.shape[2] - n_ph
    header = ["nu_c_THz", "branch", "freq_THz"]
    header += [f"photon_frac_{j + 1}" for j in range(n_ph)]
    header += [f"matter_frac_{j + 1}" for j in range(n_mat)]
    stream.write(",".join(header) + "\n")
    labels = [str(k + 1) for k in range(result.n_branches)]
    stream.write(csv_rows(result.nu_c_values, labels, result.branches,
                          *np.moveaxis(result.fractions, 2, 0)))
