"""Independent reference for the polariton frequencies the benchmark checks.

Nothing here imports the package. The numbers come straight from an INI
config (or from a generated parameter set), and the frequencies come from
the real symmetric matrix

    S = D^(1/2) (D + 2 G) D^(1/2),

whose eigenvalues are the squared polariton frequencies of the quadratic
Hamiltonian H = sum_i w_i (x_i^2 + p_i^2) / 2 + sum_ij G_ij x_i x_j with
D = diag(w). G holds the Rabi couplings W(nu_c) = W_ref sqrt(nu_c / nu_ref)
between photon and matter quadratures and twice the diamagnetic matrix
W_ref W_ref^T / w_ref on the photon block (it does not depend on nu_c).
"""

from __future__ import annotations

import configparser
import itertools
import math

import numpy as np

RAD_PER_SEC_PER_THZ = 2.0 * math.pi * 1e12
# matter oscillators never go below this frequency (THz), as in the model
MATTER_FLOOR_THZ = 1e-6


def read_config(path):
    """The numbers of a shipped config that the checks need."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    with open(path, "r", encoding="utf-8") as fh:
        parser.read_file(fh)

    def floats(section, key):
        return [float(v) for v in parser[section][key].split(",")]

    def grid(section, start_key, stop_key, step_key):
        start, stop, step = (float(parser[section][k])
                             for k in (start_key, stop_key, step_key))
        n = int(math.floor((stop - start) / step + 1e-9)) + 1
        return start + step * np.arange(n)

    return {
        "photons": floats("photon_modes", "frequencies_thz"),
        "ratio_11": float(parser["coupling"]["ratio_11"]),
        "ratio_2_tilde": float(parser["coupling"]["ratio_2_tilde"]),
        "eta": float(parser["coupling"]["eta"]),
        "sweep_grid": grid("sweep", "start_thz", "stop_thz", "step_thz"),
        "probe_grid": grid("spectrum", "freq_min_thz", "freq_max_thz",
                           "freq_step_thz"),
    }


def two_mode_rabi(photons, ratio_11, ratio_2_tilde, eta):
    """Reference Rabi matrix (rad/s), quoted at nu_c = photons[0], of the
    overlap-parametrized two-mode coupling."""
    w1, w2 = (f * RAD_PER_SEC_PER_THZ for f in photons)
    w11 = ratio_11 * w1
    wt2 = ratio_2_tilde * w2 * math.sqrt(photons[0] / photons[1])
    return np.array([[w11, 0.0],
                     [eta * wt2, math.sqrt(1.0 - eta * eta) * wt2]])


def single_mode_rabi(photon, ratio):
    """Reference Rabi matrix (rad/s) of one mode, quoted at nu_c = photon."""
    return np.array([[ratio * photon * RAD_PER_SEC_PER_THZ]])


def frequencies(photons, rabi_ref, nu_ref, nu_c):
    """Ascending polariton frequencies (THz), shape (len(nu_c), 2 N)."""
    nu_c = np.atleast_1d(np.asarray(nu_c, dtype=float))
    n = len(photons)
    w_ph = np.asarray(photons, dtype=float) * RAD_PER_SEC_PER_THZ
    w_c = np.maximum(nu_c, MATTER_FLOOR_THZ) * RAD_PER_SEC_PER_THZ
    w_ref = nu_ref * RAD_PER_SEC_PER_THZ

    d = np.empty((len(nu_c), 2 * n))
    d[:, :n] = w_ph
    d[:, n:] = w_c[:, None]
    g = np.zeros((len(nu_c), 2 * n, 2 * n))
    g[:, :n, :n] = 2.0 * (rabi_ref @ rabi_ref.T) / w_ref
    rabi = rabi_ref[None] * np.sqrt(nu_c / nu_ref)[:, None, None]
    g[:, :n, n:] = rabi
    g[:, n:, :n] = np.swapaxes(rabi, 1, 2)

    root = np.sqrt(d)
    s = root[:, :, None] * (d[:, :, None] * np.eye(2 * n) + 2.0 * g) * root[:, None, :]
    squared = np.linalg.eigvalsh(s)
    if np.any(squared <= 0.0):
        raise ValueError("reference form is not positive definite")
    return np.sqrt(squared) / RAD_PER_SEC_PER_THZ


def worst_relative_error(measured, reference):
    """Largest |measured - reference| / reference after sorting each row."""
    measured = np.sort(np.asarray(measured, dtype=float), axis=-1)
    return float(np.max(np.abs(measured - reference) / reference))


def peak_rms(peak_rows, branches):
    """RMS distance (THz) of measured peaks to the branches they match. The
    ascending peaks of a row go to the ascending subset of that row's
    branches with the least squared error."""
    total, count = 0.0, 0
    for peaks, row in zip(peak_rows, branches):
        total += min(sum((p - row[j]) ** 2 for p, j in zip(peaks, subset))
                     for subset in itertools.combinations(range(len(row)),
                                                          len(peaks)))
        count += len(peaks)
    return math.sqrt(total / count)
