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

The spectrum reference builds its Lorentzian dips branch-minor, as a
(..., F, n) stack summed over its short last axis; the production spectrum
builds them branch-major and adds whole branch rows.

The ladder-basis dynamical matrix and the Hopfield weights |X|^2 - |Y|^2
check the symplectic structure of a solution. The peak assignment here tries
every branch subset of one record in a Python loop; the fit assigns a whole
stack of records and parameter sets with array arithmetic.
"""

from itertools import combinations, repeat

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


def build_dynamical_matrix(ham):
    """2N x 2N ladder-basis dynamical matrix M = [[A, B], [-B, -A]] in rad/s,
    A = diag(w) + G, B = G; its eigenvalues are the +/- Omega_k pairs."""
    a = np.diag(ham.diag_freqs) + ham.interaction
    b = ham.interaction
    return np.block([[a, b], [-b, -a]])


def hopfield_fractions(solution):
    """Per-branch bare-mode weights |X|^2 - |Y|^2; rows sum to one."""
    fractions = (np.abs(solution.hopfield_x) ** 2
                 - np.abs(solution.hopfield_y) ** 2)
    sums = fractions.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-9):
        raise NumericalError(
            f"symplectic normalization violated: row sums {sums}")
    return fractions


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
