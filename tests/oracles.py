"""Independent reference implementations used only by the tests.

These deliberately avoid the production diagonalization path: the solver
takes the eigenvalues of the real symmetric N x N matrix
S = D^(1/2) (D + 2G) D^(1/2) with numpy's eigh, while the oracle here takes
the general eigenproblem of the 2N x 2N first-order quadrature equations of
motion, and the two-mode case is solved in closed form from the secular
polynomial. Any disagreement beyond round-off is a bug in one of the
routes.

The branch matcher here is the greedy assignment with pairwise-swap
refinement that sweeps once used, one grid point after the other; the
production sweep solves every step's exact assignment at once.

The CSV reference formats one cell at a time and joins each row's cells;
the production writer fills one printf template per key.

The profile and mask references write one value at a time; the production
writers fill one row at a time.

The overlap references integrate one profile pair at a time, gathering both
profiles under the mask again for every integral; the production overlap
stacks the masked profiles once and takes the whole Gram matrix in one
product. The overlap.json reference builds the subcommand's output from
these per-pair integrals.

The spectrum reference builds its Lorentzian dips branch-minor, as a
(..., F, n) stack summed over its short last axis; the production spectrum
builds them branch-major and adds whole branch rows. Two more references
keep the step-major kernels that the grid-last ones replaced: the match
cost as a (T - 1, n, n, n) stack summed over its short last mode axis,
and the branch-major spectrum with its linewidths as an (n or 1, 1) array,
the weights scaled on the broadcast (..., n, 1) column, and the rows summed
by ndarray.sum.

The ladder-basis dynamical matrix and the Hopfield weights |X|^2 - |Y|^2
check the symplectic structure of a solution. The two-mode Rabi matrix is
the hand-written N = 2 formula that the general Gram factor of the
production code must reproduce bit for bit. The coupling references
re-quote a Rabi matrix at another cyclotron frequency and form its
diamagnetic matrix one entry at a time, with math.fsum; the production
assembly takes both for a whole grid and a stack of matrices at once. The
peak assignment here tries every branch subset of one record in a Python
loop; the fit assigns a whole stack of records and parameter sets with
array arithmetic.
"""

from itertools import combinations, repeat
import json
import math

import numpy as np

from mmhopfield.dispersion import FRACTION_MATCH_WEIGHT
from mmhopfield.errors import NumericalError


def quadrature_modes(diag_freqs, interaction):
    """Normal modes from the first-order quadrature equations of motion.

    The Hamiltonian H = sum_i w_i (x_i^2 + p_i^2)/2 + sum_ij G_ij x_i x_j
    gives xdot = D p, pdot = -K x with K = D + 2G. A mode operator
    A = alpha.x + beta.p evolving as exp(-i w t) is a left eigenvector of
    T = [[0, D], [-K, 0]] at eigenvalue -i w; left eigenvectors are taken
    as ordinary eigenvectors of T transposed, which keeps numpy's
    conjugation conventions out of the picture.

    Returns (freqs, fractions): positive mode frequencies ascending, and
    per-mode weight rows |X|^2 - |Y|^2 that sum to one.
    """
    d = np.asarray(diag_freqs, dtype=float)
    g = np.asarray(interaction, dtype=float)
    n = d.size
    kmat = np.diag(d) + 2.0 * g
    t = np.block([[np.zeros((n, n)), np.diag(d)],
                  [-kmat, np.zeros((n, n))]])

    evals, evecs = np.linalg.eig(t.T)
    order = []
    for k in range(2 * n):
        lam = evals[k]
        if lam.imag < 0.0 and abs(lam.real) < 1e-9 * abs(lam.imag):
            order.append(k)
    assert len(order) == n, "oracle expects a stable spectrum"

    freqs = np.array([-evals[k].imag for k in order])
    fractions = np.empty((n, n))
    for row, k in enumerate(order):
        alpha = evecs[:n, k]
        beta = evecs[n:, k]
        x = (alpha - 1j * beta) / np.sqrt(2.0)
        y = (alpha + 1j * beta) / np.sqrt(2.0)
        weight = np.abs(x) ** 2 - np.abs(y) ** 2
        norm = weight.sum()
        assert norm > 0.0, "left eigenvector landed on the conjugate mode"
        fractions[row] = weight / norm

    idx = np.argsort(freqs)
    return freqs[idx], fractions[idx]


def two_mode_secular(omega_a, omega_b, rabi):
    """Closed-form positive frequencies of one photon + one matter mode.

    Photon frequency omega_a carries the self-interaction h = rabi^2 /
    omega_b, so the quartic secular equation in w^2 factors through
    w^4 - tr(DK) w^2 + det(DK) = 0. The upper root comes from the sum
    (tr + disc) / 2, which cannot cancel; the lower one from the product of
    the roots, lower * upper = sqrt(det), because (tr - disc) / 2 loses
    every digit once det << tr^2 (deep-strong coupling, near-zero field).
    Units in = units out.
    """
    h = rabi ** 2 / omega_b
    trace = omega_a ** 2 + omega_b ** 2 + 4.0 * h * omega_a
    det = (omega_a * omega_b) ** 2
    disc = np.sqrt(trace ** 2 - 4.0 * det)
    upper = np.sqrt((trace + disc) / 2.0)
    lower = omega_a * omega_b / upper
    return lower, upper


def hamiltonian_interaction(photon_freqs, rabi_matrix, matter_freq):
    """Quadrature-basis interaction matrix for photons + matter modes.

    Mirrors the assembly convention: photon block 2h with
    h = W W^T / matter_freq, photon-matter block equal to the coupling
    matrix, matter block zero. Input coupling is already evaluated at the
    working magnetic bias (no rescaling here).
    """
    w = np.asarray(rabi_matrix, dtype=float)
    n_ph = len(photon_freqs)
    n_mat = w.shape[1]
    h = w @ w.T / matter_freq
    g = np.zeros((n_ph + n_mat, n_ph + n_mat))
    g[:n_ph, :n_ph] = 2.0 * 0.5 * (h + h.T)
    g[:n_ph, n_ph:] = w
    g[n_ph:, :n_ph] = w.T
    return g


def random_stable_system(rng, n_modes):
    """Random diag frequencies and symmetric G guaranteed stable.

    Stability criterion: K = D + 2G positive definite (then all w^2 > 0).
    Generated by sampling G and shrinking it until K's smallest eigenvalue
    is safely positive.
    """
    d = rng.uniform(0.5, 3.0, size=n_modes)
    g = rng.normal(0.0, 0.4, size=(n_modes, n_modes))
    g = 0.5 * (g + g.T)
    for _ in range(60):
        kmat = np.diag(d) + 2.0 * g
        if np.linalg.eigvalsh(kmat).min() > 1e-3:
            return d, g
        g *= 0.7
    return d, np.zeros((n_modes, n_modes))


def greedy_match_columns(prev_freqs, prev_fracs, freqs, fracs):
    """Permutation sigma with freqs[sigma[i]] continuing branch column i.

    Cost: frequency distance plus FRACTION_MATCH_WEIGHT times the L1
    distance of the fraction rows. Greedy assignment in ascending cost,
    then pairwise swaps while one lowers the total."""
    n = len(freqs)
    dist = (np.abs(prev_freqs[:, None] - freqs[None, :])
            + FRACTION_MATCH_WEIGHT
            * np.abs(prev_fracs[:, None, :] - fracs[None, :, :]).sum(axis=2))
    sigma = np.full(n, -1)
    taken = np.zeros(n, dtype=bool)
    for flat in np.argsort(dist, axis=None):
        i, j = divmod(int(flat), n)
        if sigma[i] < 0 and not taken[j]:
            sigma[i] = j
            taken[j] = True
    improved = True
    while improved:
        improved = False
        for i in range(n):
            for k in range(i + 1, n):
                if (dist[i, sigma[k]] + dist[k, sigma[i]]
                        < dist[i, sigma[i]] + dist[k, sigma[k]]):
                    sigma[i], sigma[k] = sigma[k], sigma[i]
                    improved = True
    return sigma


def greedy_branches(freqs, fracs):
    """Branch columns of a sweep, matched point by point with
    greedy_match_columns. freqs (T, n) and fracs (T, n, n) are the solver's
    per-point output; returns the (branches, fractions) pair."""
    branches = np.empty_like(freqs)
    fractions = np.empty_like(fracs)
    branches[0] = freqs[0]
    fractions[0] = fracs[0]
    for t in range(1, len(freqs)):
        order = greedy_match_columns(branches[t - 1], fractions[t - 1],
                                     freqs[t], fracs[t])
        branches[t] = freqs[t, order]
        fractions[t] = fracs[t, order]
    return branches, fractions


def spectrum_reference(freqs, weights, config):
    """Transmission proxy 1 - sum_k w_k L(nu; nu_k, gamma_k) clipped to
    [0, 1], with negative weights clipped to zero: the dips of every probe
    frequency on the last axis, reduced with numpy's sum over that axis."""
    freqs = np.asarray(freqs, dtype=float)[..., None, :]
    weights = np.clip(np.asarray(weights, dtype=float), 0.0, None)[..., None, :]
    widths = np.broadcast_to(config.linewidths, freqs.shape[-1:])
    nu = config.frequency_grid[:, None]
    dips = weights * widths ** 2 / ((nu - freqs) ** 2 + widths ** 2)
    return np.clip(1.0 - dips.sum(axis=-1), 0.0, 1.0)


def match_cost_step_major(freqs, fracs):
    """dispersion._match_cost laid out step-major: cost[t - 1, a, b] from a
    (T - 1, n, n, n) fraction-distance stack summed over its last axis."""
    diff = fracs[:-1, :, None, :] - fracs[1:, None, :, :]
    cost = FRACTION_MATCH_WEIGHT * np.abs(diff, out=diff).sum(axis=3)
    cost += np.abs(freqs[:-1, :, None] - freqs[1:, None, :])
    return cost


def spectrum_branch_major(freqs, weights, config):
    """dispersion.spectrum_from_branches with every linewidth as an array:
    gamma^2 as an (n or 1, 1) column, the weights scaled on a broadcast
    (..., n, 1) column, and the (..., n, F) dips summed by ndarray.sum."""
    freqs = np.asarray(freqs, dtype=float)
    weights = np.maximum(np.asarray(weights, dtype=float), 0.0)
    if weights.shape != freqs.shape:
        freqs, weights = np.broadcast_arrays(freqs, weights)
    width2 = (config.linewidths * config.linewidths)[:, None]
    dips = config.frequency_grid - freqs[..., None]
    np.multiply(dips, dips, out=dips)
    np.add(dips, width2, out=dips)
    np.divide(weights[..., None] * width2, dips, out=dips)
    total = dips.sum(axis=-2)
    np.subtract(1.0, total, out=total)
    return np.maximum(total, 0.0, out=total)


def csv_rows_per_cell(keys, labels, *values):
    """The rows of dispersion.csv_rows, "%.9g" formatted one cell at a time
    and joined with commas, row after row."""
    chunks = []
    blocks = zip(*(np.asarray(v, dtype=float).tolist() for v in values))
    for key, block in zip(map("%.9g".__mod__, np.ravel(keys).tolist()),
                          blocks):
        rows = zip(repeat(key), labels,
                   *(map("%.9g".__mod__, r) for r in block))
        chunks.append("\n".join(map(",".join, rows)) + "\n")
    return "".join(chunks)


def save_profile_per_value(path, profile):
    """The plain-text profile format, each value written as
    f"{float(v.real)!r},{float(v.imag)!r}" and each row joined by spaces."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{profile.nx} {profile.ny} "
                 f"{float(profile.dx)!r} {float(profile.dy)!r}\n")
        for row in profile.values:
            fh.write(" ".join(f"{float(v.real)!r},{float(v.imag)!r}"
                              for v in row) + "\n")


def save_mask_per_cell(path, mask, dx=1.0, dy=1.0):
    """The plain-text mask format, one "1" or "0" per cell."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{mask.nx} {mask.ny} {float(dx)!r} {float(dy)!r}\n")
        for row in mask.inside:
            fh.write(" ".join("1" if v else "0" for v in row) + "\n")


def _check_grids(f, g, mask):
    if (f.nx, f.ny) != (g.nx, g.ny) or (f.nx, f.ny) != (mask.nx, mask.ny):
        raise ValueError(
            f"grid dimensions differ: {(f.nx, f.ny)} vs {(g.nx, g.ny)} vs "
            f"{(mask.nx, mask.ny)}")
    if f.dx != g.dx or f.dy != g.dy:
        raise ValueError(
            f"grid spacings differ: ({f.dx}, {f.dy}) vs ({g.dx}, {g.dy})")


def overlap_integral(f, g, mask):
    """Midpoint-rule overlap integral F_fg (complex, units um^2)."""
    _check_grids(f, g, mask)
    return complex(np.sum(np.conj(f.values[mask.inside]) * g.values[mask.inside])
                   * f.dx * f.dy)


def overlap_parameter(f, g, mask):
    """Normalized overlap |F_fg| / sqrt(F_ff F_gg), in [0, 1]; exactly one
    for a profile with itself."""
    if f is g:
        _check_grids(f, g, mask)
        if not np.any(np.abs(f.values[mask.inside]) > 0.0):
            raise ValueError("profile vanishes on the mask; overlap undefined")
        return 1.0
    f_self = overlap_integral(f, f, mask).real
    g_self = overlap_integral(g, g, mask).real
    if f_self <= 0.0 or g_self <= 0.0:
        raise ValueError("profile vanishes on the mask; overlap undefined")
    eta = abs(overlap_integral(f, g, mask)) / (math.sqrt(f_self) * math.sqrt(g_self))
    return min(eta, 1.0)


def effective_mode_volume(f, mask, physical_volume):
    """Effective volume V / F_ff of one profile."""
    if not 0.0 < physical_volume < math.inf:
        raise ValueError("physical volume must be finite and positive")
    f_self = overlap_integral(f, f, mask).real
    if f_self <= 0.0:
        raise ValueError("profile vanishes on the mask; mode volume undefined")
    return physical_volume / f_self


def overlap_json_per_pair(paths, profiles, mask, volumes):
    """The text of overlap.json for the profiles read from paths, from the
    per-pair integrals, parameters and volumes."""
    n = len(profiles)
    doc = {
        "profiles": list(paths),
        "overlap_integrals_um2": [
            [[v.real, v.imag] for v in
             (overlap_integral(profiles[i], profiles[j], mask)
              for j in range(n))] for i in range(n)],
        "overlap_parameters": [
            [overlap_parameter(profiles[i], profiles[j], mask)
             for j in range(n)] for i in range(n)],
        "effective_mode_volumes_m3": [
            effective_mode_volume(profiles[i], mask, volumes[i])
            for i in range(n)],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def build_dynamical_matrix(diag_freqs, interaction):
    """2N x 2N ladder-basis dynamical matrix M = [[A, B], [-B, -A]] in rad/s,
    A = diag(w) + G, B = G; its eigenvalues are the +/- Omega_k pairs."""
    a = np.diag(diag_freqs) + interaction
    b = interaction
    return np.block([[a, b], [-b, -a]])


def hopfield_fractions(hopfield_x, hopfield_y):
    """Per-branch bare-mode weights |X|^2 - |Y|^2; rows sum to one."""
    fractions = np.abs(hopfield_x) ** 2 - np.abs(hopfield_y) ** 2
    sums = fractions.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-9):
        raise NumericalError(
            f"symplectic normalization violated: row sums {sums}")
    return fractions


def two_mode_rabi(strengths, eta):
    """Two-mode Rabi matrices W = diag(strengths) F(eta), shape (..., 2, 2),
    with F = [[1, 0], [eta, sqrt(1 - eta^2)]]: strengths (..., 2) in rad/s,
    eta (...) in [0, 1], leading axes broadcast."""
    eta = np.asarray(eta, dtype=float)
    factor = np.zeros(eta.shape + (2, 2))
    factor[..., 0, 0] = 1.0
    factor[..., 1, 0] = eta
    factor[..., 1, 1] = np.sqrt(1.0 - eta * eta)
    return np.asarray(strengths, dtype=float)[..., :, None] * factor


def rabi_at(rabi, nu_c, reference_cyclotron):
    """Rabi matrix quoted at reference_cyclotron, re-quoted at nu_c (both
    THz): every entry times sqrt(nu_c / reference_cyclotron)."""
    factor = math.sqrt(nu_c / reference_cyclotron)
    return np.array([[w * factor for w in row]
                     for row in np.asarray(rabi).tolist()])


def diamagnetic_reference(rabi, nu_c):
    """Diamagnetic matrix h = W W^T / w_c (rad/s) of a Rabi matrix quoted at
    nu_c (THz), one entry at a time: h_ij = sum_mu W_i,mu W_j,mu / w_c."""
    rows = np.asarray(rabi).tolist()
    w_c = nu_c * 2.0 * math.pi * 1e12
    return np.array([[math.fsum(a * b for a, b in zip(ri, rj)) / w_c
                      for rj in rows] for ri in rows])


def assignment_cost(peaks, freqs):
    """Minimum sum of squared errors over injective peak-to-branch maps.

    Both lists are ascending, so within any chosen branch subset the
    order-preserving pairing is optimal; minimize over subsets."""
    best = np.inf
    for subset in combinations(range(len(freqs)), len(peaks)):
        cost = sum((p - freqs[j]) ** 2 for p, j in zip(peaks, subset))
        if cost < best:
            best = cost
    return best
