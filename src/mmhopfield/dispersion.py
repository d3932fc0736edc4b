"""Magnetic-bias sweeps, branch bookkeeping, and spectrum synthesis.

A sweep diagonalizes the coupled system on a whole grid of cyclotron
frequencies in one stacked eigensolve and keeps branch columns continuous
by matching the columns of adjacent grid points: each step takes the exact
minimum-cost assignment under a cost of frequency distance plus Hopfield
fraction distance, solved for every step at once. Feature
detection classifies the matched columns into flat photon lines, the bare
cyclotron line, and the coupled polariton branches, and extracts the
quantities used to compare parameter sets: anticrossing gaps, the
inflection of the middle branch, and its asymptotes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bogoliubov import normal_modes
from .errors import InstabilityError
from .model import assemble_batch

# branch-classification thresholds (THz unless noted)
VARIATION_TOL = 0.02        # minimum total frequency variation of a coupled branch
MATTER_FRACTION_FLOOR = 1e-3  # minimum peak matter weight of a coupled branch
CR_LINE_TOL = 0.05          # maximum deviation from nu = nu_c for the bare line
JUMP_TOL = 0.05             # continuity bound between adjacent points at step <= 0.01
FRACTION_MATCH_WEIGHT = 0.05  # THz penalty per unit L1 fraction distance


@dataclass(frozen=True)
class SweepResult:
    """Branch frequencies and mode fractions over a cyclotron-frequency grid.

    branches[t, k] is the frequency (THz) of branch column k at
    nu_c_values[t]; fractions[t, k, j] the weight of bare mode j (photon
    modes first) in that branch. Each is kept as a read-only C-ordered
    copy."""

    nu_c_values: np.ndarray
    branches: np.ndarray
    fractions: np.ndarray
    n_photon: int

    def __post_init__(self):
        for name in ("nu_c_values", "branches", "fractions"):
            arr = np.array(getattr(self, name), order="C")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_branches(self):
        return self.branches.shape[1]

    def photon_fractions(self):
        """Total photon weight per point and branch."""
        return self.fractions[:, :, :self.n_photon].sum(axis=2)

    def matter_fractions(self):
        """Total matter weight per point and branch."""
        return self.fractions[:, :, self.n_photon:].sum(axis=2)


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


def _match_cost(freqs, fracs):
    """Cost of continuing each column of point t-1 as each column of point t.

    Columns are in the solver's ascending order. cost[t - 1, a, b] mixes
    the frequency distance between column a of point t-1 and column b of
    point t with the L1 distance of their Hopfield fraction rows. The
    fraction term decides ties at (near-)degenerate crossings, so a column
    follows its mode character diabatically through anticrossings narrower
    than the grid step instead of swapping identity; at genuine wide
    anticrossings the frequencies never approach and the cost reduces to
    nearest-frequency matching.

    The stack is built grid-last, from (column, mode, T) copies of the
    fractions and (column, T) of the frequencies, so every operation runs
    along the T - 1 steps, and the (T - 1, n, n) result is a transposed
    view of that (n, n, T - 1) array. The fraction distance adds the
    modes' terms in order, mode 0 first. Below 8 modes that equals, bit for
    bit, numpy's sum over a short contiguous mode axis; from 8 up numpy
    sums such an axis pairwise, so the last bits can differ."""
    fracs = np.ascontiguousarray(fracs.transpose(1, 2, 0))
    freqs = np.ascontiguousarray(freqs.T)
    diff = fracs[:, None, :, :-1] - fracs[None, :, :, 1:]  # (a, b, mode, step)
    cost = FRACTION_MATCH_WEIGHT * np.add.reduce(np.abs(diff, out=diff), axis=2)
    cost += np.abs(freqs[:, None, :-1] - freqs[None, :, 1:])
    return cost.transpose(2, 0, 1)


@lru_cache(maxsize=None)
def _subset_levels(n):
    """Index tables of the subset dynamic program over n columns.

    Level k lists the column sets (bit masks) of size k, each mask's k
    member columns ascending, and the mask left after removing each one."""
    masks = np.arange(1 << n)
    sizes = np.array([bin(m).count("1") for m in range(1 << n)])
    levels = []
    for k in range(1, n + 1):
        level = masks[sizes == k]
        members = np.array([[j for j in range(n) if m >> j & 1] for m in level],
                           dtype=np.intp)
        rest = level[:, None] ^ (1 << members)
        for table in (level, members, rest):
            table.flags.writeable = False  # shared by every caller
        levels.append((level, members, rest))
    return levels


def _min_cost_assignment(cost):
    """Minimum-cost permutations of a stack of square cost matrices.

    cost has shape (S, n, n); perm[s, a] is the column assigned to row a of
    matrix s, minimizing sum_a cost[s, a, perm[s, a]] over all n!
    permutations. Solved exactly by a dynamic program over column subsets,
    best[mask] = min over j in mask of cost[row, j] + best[mask - j] with
    row = n - |mask|, one pass per subset size for the whole stack. Time
    and memory grow as n 2^n per matrix, which suits the few modes of a
    cavity.

    Tie rule: among permutations of equal cost, summed in floating point as
    cost[0, p0] + (cost[1, p1] + (... + cost[n-1, p(n-1)])), the
    lexicographically smallest wins: row 0 takes the lowest column it can,
    then row 1, and so on. The members of each subset are scanned in
    ascending order and replace the running minimum only when strictly
    lower.

    Evident matrices skip the dynamic program: where every row's diagonal
    entry is no larger than any other entry of its row, the answer is the
    identity. Rounded addition is monotone, so no permutation's nested sum
    falls below the identity's, and on a tie the identity, the
    lexicographically first permutation, is the one the tie rule picks. A
    NaN entry makes its matrix not evident.

    The work runs on the (n, n, S) transpose of cost, steps innermost: the
    evident test compares each diagonal row with the row minima, and the
    dynamic program gathers the pending steps' columns. A (S, n, n) view of
    an (n, n, S) array, as _match_cost returns, is read without a copy."""
    cost = np.asarray(cost, dtype=float).transpose(1, 2, 0)  # (n, n, S)
    n = len(cost)
    rows = np.arange(n)
    perm = np.empty((cost.shape[-1], n), dtype=np.intp)
    perm[:] = rows
    evident = np.logical_and.reduce(cost[rows, rows] <= cost.min(axis=1))
    pending = np.flatnonzero(~evident)
    if len(pending) == 0:
        return perm
    cost = cost[..., pending]
    n_sets = len(pending)
    best = np.zeros((1 << n, n_sets))
    choice = np.zeros((1 << n, n_sets), dtype=np.intp)
    for size, (level, members, rest) in enumerate(_subset_levels(n), start=1):
        candidates = cost[n - size][members] + best[rest]  # (masks, size, S)
        low = candidates[:, 0]
        pick = np.broadcast_to(members[:, :1], low.shape)
        for m in range(1, size):
            lower = candidates[:, m] < low
            low = np.where(lower, candidates[:, m], low)
            pick = np.where(lower, members[:, m:m + 1], pick)
        best[level] = low
        choice[level] = pick
    picked = np.empty((n_sets, n), dtype=np.intp)
    mask = np.full(n_sets, (1 << n) - 1)
    sets = np.arange(n_sets)
    for row in range(n):
        picked[:, row] = choice[mask, sets]
        mask ^= 1 << picked[:, row]
    perm[pending] = picked
    return perm


def sweep(photons, coupling, nu_c_grid):
    """Diagonalize over a grid of cyclotron frequencies (THz, ascending).

    Branch column k starts as the k-th lowest mode at the first point and
    follows the minimum-cost assignment between adjacent points. The
    assignments do not depend on each other, so all are solved at once.
    Away from crossings a step keeps the eigen-order, mostly as an evident
    step of _min_cost_assignment. Only the steps that permute are composed,
    in order, and every point between two of them carries the composition
    reached so far."""
    grid = np.asarray(nu_c_grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise ValueError("nu_c grid must contain at least two points")
    if np.any(grid < 0.0):
        raise ValueError("nu_c grid must be non-negative")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("nu_c grid must be strictly ascending")

    try:
        freqs, vecs = normal_modes(
            *assemble_batch(photons, grid, coupling.rabi,
                            coupling.reference_cyclotron),
            coupling.n_photon)
    except InstabilityError as exc:
        raise InstabilityError(f"at nu_c = {grid[exc.entry]:.6g} THz: {exc}",
                               entry=exc.entry) from exc
    fracs = vecs ** 2
    steps = _min_cost_assignment(_match_cost(freqs, fracs))
    # branch column i is eigen-order column order[t, i] at point t. Step s
    # links points s and s + 1, so point t takes orders[k], the composition
    # of the k permuting steps s < t; with none, the eigen-order stands
    identity = np.arange(freqs.shape[1])
    moving = np.flatnonzero(np.any(steps != identity, axis=1))
    if len(moving):
        orders = np.empty_like(steps, shape=(len(moving) + 1, len(identity)))
        orders[0] = identity
        for k, s in enumerate(moving, start=1):
            orders[k] = steps[s, orders[k - 1]]
        order = orders[np.searchsorted(moving, np.arange(len(grid)))]
        points = np.arange(len(grid))[:, None]
        freqs, fracs = freqs[points, order], fracs[points, order]
    return SweepResult(nu_c_values=grid, branches=freqs, fractions=fracs,
                       n_photon=coupling.n_photon)


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
    if nu[0] > 0.05 + 1e-12 or nu[-1] < 2.0 - 1e-12:
        raise ValueError(
            f"sweep range [{nu[0]:.6g}, {nu[-1]:.6g}] THz too narrow for "
            f"feature detection; need it to span [0.05, 2.0]")

    # branch columns as (n, T) rows, so each search runs along the grid
    branches = np.ascontiguousarray(result.branches.T)
    variation = branches.max(axis=1) - branches.min(axis=1)
    # a coupled branch acquires matter weight somewhere along the sweep even
    # if it is photon-pure at the endpoints; the matter modes' weights are
    # added in order, as matter_fractions adds fewer than 8
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


@dataclass(frozen=True)
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
        if not np.all(np.isfinite(widths)):
            raise ValueError("linewidths must be finite")
        if np.any(widths <= 0.0):
            raise ValueError("linewidths must be positive")
        if self.weight_mode not in ("photon_fraction", "equal"):
            raise ValueError(f"unknown weight mode {self.weight_mode!r}")
        grid.flags.writeable = False
        widths.flags.writeable = False
        object.__setattr__(self, "frequency_grid", grid)
        object.__setattr__(self, "linewidths", widths)


def spectrum_from_branches(freqs, weights, config):
    """Transmission proxy 1 - sum_k w_k L(nu; nu_k, gamma_k), clipped to [0, 1].

    L is a unit-peak Lorentzian of HWHM gamma_k; negative weights count as
    zero. freqs and weights hold the n branches on their last axis; leading
    axes broadcast, so the stacked (T, n) branches of a sweep give the
    (T, F) map in one call, equal to T calls on single rows. config holds
    one linewidth or n, else ValueError.

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
