"""The three benchmark workloads: fixtures, operations and output checks.

Every workload is closed-loop and single-process: one CLI child or one
in-process library call at a time, then the next. Operations come in
rounds; a round interleaves the operation kinds so that slow drift of the
host hits every kind alike.

cli_maps
    ``mmhopfield sweep`` and ``spectrum`` on both shipped configs, and
    ``overlap`` on seeded 192x192 lc/dipolar profiles with the 7.5 um
    central-square mask and without a mask, each a fresh subprocess. This
    is the everyday CLI path: interpreter start and import are most of each
    call, the spectrum command's own formatting and the profile parser are
    the rest. Nothing fits, so a change to the fit layer should leave it
    unchanged.
cli_fit
    ``mmhopfield fit`` on seeded peak files: 12 records at
    linspace(0.3, 2.15, 12) with 0.01 THz noise, one record in four missing
    a peak, truths from both shipped configs, and every third call on a
    copy of unstructured.cfg with ``eta_mode = free`` (about 2.3 times the
    residual evaluations). Nearly all of a call is residual evaluation, and
    scipy.optimize is really needed here, so a change to what the CLI
    imports should leave it unchanged.
lib_scan
    In-process library calls with no import, subprocess or file I/O in the
    timed region: seeded two-mode parameter sets (ratios up to 1.5, eta
    random or one of 0, 0.999, 1) and, one set in five, a one-mode set with
    a ratio up to 5. Each set runs sweep on the 216-point grid,
    detect_features, and spectrum_from_branches at every point on the
    511-point probe grid. Time goes to the eigensolve, assembly and branch
    matching, while the cli, overlap and fit layers do nothing. Deep-strong,
    rank-deficient (eta = 1) and one-mode inputs are there to expose a fast
    path that only suits moderate two-mode coupling.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import mmhopfield
from mmhopfield import dispersion, model, overlap
from mmhopfield.fit import PeakDataset, PeakRecord, save_peaks

import probe
import reference
from spans import Tracer

BENCH = Path(__file__).resolve().parent
CONFIGS = Path(mmhopfield.__file__).resolve().parent / "configs"
# what the installed console script runs
CONSOLE_SCRIPT = "import sys; from mmhopfield.cli import main; sys.exit(main())"
OP_TIMEOUT_S = 120.0

# The speed of a shared host drifts by up to half over minutes, which no
# length of run averages out. Each workload therefore has a probe from
# probe.py: a fixed task of the same kind of work as its operations that
# runs no package code. It is timed after every operation, and the
# end-to-end times are scaled by the probe's reference time over its mean
# time in the run. The reference times are round figures near the probes'
# times on a 2-core x86-64 machine with Python 3.11 and numpy 2.4; they set
# the scale and nothing else.

BRANCH_RTOL = 1e-8          # written frequencies carry 9 significant digits
FRACTION_SUM_TOL = 1e-6
DIP_TOL_THZ = 0.05
RATIO_RTOL = 0.05
MISFIT_RTOL = 1e-6
EXPECTED_FEATURES = {"structured": (3, 1), "unstructured": (4, 0)}

FIT_NU_C = np.linspace(0.3, 2.15, 12)
FIT_NOISE_THZ = 0.01
FIT_POOL = 4                # peak files per fit kind
SCAN_GRID = 0.05 + 0.01 * np.arange(216)
SCAN_PROBE = 0.05 + 0.005 * np.arange(511)
SCAN_ROUNDS = 8             # rounds of five parameter sets
SCAN_CHECKED_POINTS = 8     # bias points per set checked against S


class CheckFailed(Exception):
    """An output differs from what the benchmark expects."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


@dataclass
class OpResult:
    kind: str
    wall_s: float
    traced: bool = False
    error: str | None = None
    spans: dict | None = None       # per-layer totals of a traced operation
    output_bytes: int = 0
    n_evaluations: int | None = None    # read from fit_result.json
    recovered: bool | None = None


def children_peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def self_peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_child(argv, cwd, traced=False, stats_path=None):
    """Run one CLI command in a fresh interpreter; return (wall seconds,
    exit code, stderr text, span totals or None)."""
    if traced:
        cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(stats_path), *argv]
    else:
        cmd = [sys.executable, "-c", CONSOLE_SCRIPT, *argv]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          timeout=OP_TIMEOUT_S)
    wall = time.perf_counter() - start
    spans = None
    if traced and os.path.exists(stats_path):
        with open(stats_path, encoding="utf-8") as fh:
            spans = json.load(fh)
        os.unlink(stats_path)
    return wall, proc.returncode, proc.stderr.strip(), spans


def _dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


def _clear(path):
    for p in Path(path).iterdir():
        p.unlink()


class _CliWorkload:
    """Shared plumbing of the subprocess workloads."""

    setup_repeats = 4
    probe_rounds = 0            # rounds of probe.compute() in the probe child
    probe_ref_s = 0.18

    def __init__(self, seed):
        self.seed = seed
        self.out = None

    def warm_up(self, work):
        """Fill the page and bytecode caches with one full CLI import."""
        _, code, err, _ = run_child(["--help"], cwd=work)
        if code != 0:
            raise RuntimeError(f"mmhopfield --help exited {code}: {err}")

    def probe(self):
        """A fresh interpreter that imports numpy, as every CLI call does,
        and then computes as much as the workload's calls do."""
        subprocess.run([sys.executable, str(BENCH / "probe.py"),
                        str(self.probe_rounds)],
                       cwd=self.out.parent, check=True, timeout=OP_TIMEOUT_S)

    def run(self, op, traced):
        kind, argv, check = op
        self.out.mkdir(exist_ok=True)
        _clear(self.out)
        stats = self.out.parent / "spans.json"
        wall, code, err, spans = run_child(
            [*argv, "--out", str(self.out)], cwd=self.out.parent, traced=traced,
            stats_path=stats)
        result = OpResult(kind=kind, wall_s=wall, traced=traced, spans=spans)
        if code != 0:
            result.error = f"{kind}: exit {code}: {err}"
            return result
        result.output_bytes = _dir_bytes(self.out)
        try:
            check(self.out, result)
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            result.error = f"{kind} {' '.join(argv)}: check failed: {exc}"
        return result

    def peak_rss_mb(self):
        return children_peak_rss_mb()


class CliMaps(_CliWorkload):
    name = "cli_maps"

    def setup(self, work):
        rng = np.random.default_rng(self.seed)
        # seeded shapes at and below the package's default corner lobes; at
        # every corner of this box the patch overlap stays above 0.993 and
        # the full-plane overlap below 0.22
        center = 5.0 * rng.uniform(0.9, 1.1)
        corners = dict(center_width=center,
                       corner_width=7.0 * rng.uniform(0.9, 1.0),
                       corner_amplitude=2.0 * rng.uniform(0.9, 1.1))
        lc = overlap.synthetic_profile("lc", center_width=center)
        dipolar = overlap.synthetic_profile("dipolar", **corners)
        overlap.save_profile(work / "lc.dat", lc)
        overlap.save_profile(work / "dipolar.dat", dipolar)
        patch = overlap.central_square_mask(lc.nx, lc.ny, lc.dx, lc.dy,
                                            half_width=7.5)
        overlap.save_mask(work / "patch.dat", patch, lc.dx, lc.dy)
        if self.out is None:    # later set-ups leave the operations in place
            self.out = work / "out"

        round_ = []
        profiles = ["--profiles", str(work / "lc.dat"), str(work / "dipolar.dat")]
        for name, mask in (("structured", True), ("unstructured", False)):
            cfg = CONFIGS / f"{name}.cfg"
            ref = reference.read_config(cfg)
            ref["branches"] = reference.frequencies(
                ref["photons"],
                reference.two_mode_rabi(ref["photons"], ref["ratio_11"],
                                        ref["ratio_2_tilde"], ref["eta"]),
                ref["photons"][0], ref["sweep_grid"])
            ref["features"] = EXPECTED_FEATURES[name]
            round_.append(("sweep", ["sweep", "--config", str(cfg)],
                           lambda out, res, ref=ref: check_sweep(out, ref)))
            round_.append(("spectrum", ["spectrum", "--config", str(cfg)],
                           lambda out, res, ref=ref: check_spectrum(out, ref)))
            argv = ["overlap", *profiles]
            if mask:
                argv += ["--mask", str(work / "patch.dat")]
            round_.append(("overlap", argv,
                           lambda out, res, mask=mask: check_overlap(out, mask)))
        return [round_]


class CliFit(_CliWorkload):
    name = "cli_fit"
    # about two thirds of a fit call is residual evaluation
    probe_rounds = 120
    probe_ref_s = 0.54

    def setup(self, work):
        rng = np.random.default_rng(self.seed)
        free_cfg = work / "unstructured_free.cfg"
        text = (CONFIGS / "unstructured.cfg").read_text(encoding="utf-8")
        if text.count("eta_mode = fixed") != 1:
            raise RuntimeError("unstructured.cfg no longer has 'eta_mode = fixed'")
        free_cfg.write_text(text.replace("eta_mode = fixed", "eta_mode = free"),
                            encoding="utf-8")
        if self.out is None:    # later set-ups leave the operations in place
            self.out = work / "out"

        # one kind per config: their fits differ in cost, and a run that
        # stops inside a round must not shift the mix
        kinds = (("fit_structured", CONFIGS / "structured.cfg"),
                 ("fit_unstructured", CONFIGS / "unstructured.cfg"),
                 ("fit_free", free_cfg))
        rounds = []
        for k in range(FIT_POOL):
            round_ = []
            for j, (kind, cfg) in enumerate(kinds):
                ref = reference.read_config(cfg)
                peaks = work / f"peaks_{k}_{j}.csv"
                data = _peak_dataset(ref, rng)
                save_peaks(peaks, data)
                argv = ["fit", "--config", str(cfg), "--peaks", str(peaks),
                        "--seed", str(int(rng.integers(1 << 31)))]
                round_.append((kind, argv,
                               lambda out, res, ref=ref, data=data:
                               check_fit(out, ref, data, res)))
            rounds.append(round_)
        return rounds


def _peak_dataset(ref, rng):
    """Noisy peaks from a forward sweep of the config's own couplings; one
    record in four loses a random peak."""
    photons = [model.PhotonMode(index=i + 1, frequency=f)
               for i, f in enumerate(ref["photons"])]
    truth = model.couplings_from_ratios(photons, ref["ratio_11"],
                                        ref["ratio_2_tilde"], ref["eta"])
    forward = dispersion.sweep(photons, truth, FIT_NU_C)
    records = []
    for t, nu_c in enumerate(forward.nu_c_values):
        peaks = np.sort(forward.branches[t]
                        + rng.normal(0.0, FIT_NOISE_THZ, forward.n_branches))
        if t % 4 == 3:
            peaks = np.delete(peaks, rng.integers(len(peaks)))
        records.append(PeakRecord(nu_c=float(nu_c), peaks=tuple(peaks)))
    return PeakDataset(records=tuple(records))


class LibScan:
    name = "lib_scan"
    setup_repeats = 8
    probe_ref_s = 0.003

    def __init__(self, seed):
        self.seed = seed
        self.tracer = Tracer()

    def setup(self, work):
        rng = np.random.default_rng(self.seed)
        self.spectrum = dispersion.SpectrumConfig(
            frequency_grid=SCAN_PROBE, linewidths=0.04,
            weight_mode="photon_fraction")
        rounds = []
        for _ in range(SCAN_ROUNDS):
            round_ = []
            for j in range(5):
                if j == 4:
                    params = ("one_mode", [rng.uniform(0.5, 2.0)],
                              rng.uniform(0.05, 5.0))
                else:
                    pick = rng.integers(4)
                    eta = (rng.uniform(0.0, 1.0) if pick == 0
                           else (0.0, 0.999, 1.0)[pick - 1])
                    params = ("two_mode",
                              [rng.uniform(0.5, 1.0), rng.uniform(1.3, 1.9)],
                              (rng.uniform(0.05, 1.5), rng.uniform(0.05, 1.5), eta))
                checked = np.sort(rng.choice(len(SCAN_GRID), SCAN_CHECKED_POINTS,
                                             replace=False))
                round_.append((*params, checked))
            rounds.append(round_)
        self.warm_round = rounds[0]
        return rounds

    def warm_up(self, work):
        """One round, so that both the one-mode and two-mode paths ran."""
        for op in self.warm_round:
            self._scan(*op[:3])

    def probe(self):
        probe.compute()

    def _scan(self, kind, freqs, ratios):
        photons = [model.PhotonMode(index=i + 1, frequency=f)
                   for i, f in enumerate(freqs)]
        if kind == "one_mode":
            coupling = model.single_mode_coupling(photons[0], ratios)
        else:
            coupling = model.couplings_from_ratios(photons, *ratios)
        result = dispersion.sweep(photons, coupling, SCAN_GRID)
        dispersion.detect_features(result, photons)
        weights = result.photon_fractions()
        lowest, highest = 1.0, 0.0
        for t in range(len(SCAN_GRID)):
            trans = dispersion.spectrum_from_branches(
                result.branches[t], weights[t], self.spectrum)
            lowest = min(lowest, float(trans.min()))
            highest = max(highest, float(trans.max()))
        return result, lowest, highest

    def run(self, op, traced):
        kind, freqs, ratios, checked = op
        if traced:
            self.tracer.install()
        error = None
        start = time.perf_counter()
        try:
            result, lowest, highest = self._scan(kind, freqs, ratios)
        except (ValueError, RuntimeError) as exc:
            # the package's own errors count as a failed operation, like a
            # CLI child that exits non-zero
            error = f"{type(exc).__name__}: {exc}"
        finally:
            wall = time.perf_counter() - start
            self.tracer.remove()
        spans = None
        if traced:
            spans = self.tracer.snapshot()
            self.tracer = Tracer()
        res = OpResult(kind=kind, wall_s=wall, traced=traced, spans=spans)
        if error:
            res.error = f"{kind} {freqs} {ratios}: {error}"
            return res
        try:
            if kind == "one_mode":
                rabi = reference.single_mode_rabi(freqs[0], ratios)
            else:
                rabi = reference.two_mode_rabi(freqs, *ratios)
            ref = reference.frequencies(freqs, rabi, freqs[0], SCAN_GRID[checked])
            worst = reference.worst_relative_error(result.branches[checked], ref)
            _require(worst <= BRANCH_RTOL,
                     f"branch error {worst:.3e} vs S reference")
            _require(0.0 <= lowest and highest <= 1.0,
                     "transmission outside [0, 1]")
        except (CheckFailed, ValueError) as exc:
            res.error = f"{kind} {freqs} {ratios}: {exc}"
        return res

    def peak_rss_mb(self):
        return self_peak_rss_mb()


WORKLOADS = {cls.name: cls for cls in (CliMaps, CliFit, LibScan)}


# --- output checks -----------------------------------------------------------

def check_sweep(out, ref):
    rows = np.loadtxt(out / "branches.csv", delimiter=",", skiprows=1, ndmin=2)
    n_grid, n_branch = ref["branches"].shape
    _require(rows.shape[0] == n_grid * n_branch,
             f"{rows.shape[0]} rows")
    rows = rows.reshape(n_grid, n_branch, -1)
    nu_c = rows[:, 0, 0]
    _require(np.allclose(nu_c, ref["sweep_grid"], rtol=BRANCH_RTOL, atol=0.0),
             "nu_c column differs from the config grid")
    worst = reference.worst_relative_error(rows[:, :, 2], ref["branches"])
    _require(worst <= BRANCH_RTOL,
             f"branch error {worst:.3e} vs S reference")
    sums = rows[:, :, 3:].sum(axis=2)
    _require(np.all(np.abs(sums - 1.0) <= FRACTION_SUM_TOL),
             "fraction rows do not sum to 1")
    with open(out / "features.json", encoding="utf-8") as fh:
        features = json.load(fh)
    got = (features["n_coupled_branches"], features["n_cr_lines"])
    _require(got == ref["features"],
             f"features {got}, expected {ref['features']}")


def check_spectrum(out, ref):
    rows = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=1, ndmin=2)
    n_grid, n_probe = len(ref["sweep_grid"]), len(ref["probe_grid"])
    _require(rows.shape == (n_grid * n_probe, 3),
             f"shape {rows.shape}")
    trans = rows[:, 2].reshape(n_grid, n_probe)
    _require(trans.min() >= 0.0 and trans.max() <= 1.0,
             "T outside [0, 1]")
    inner = trans[:, 1:-1]
    t_idx, j_idx = np.nonzero((inner < trans[:, :-2]) & (inner < trans[:, 2:]))
    _require(len(np.unique(t_idx)) == n_grid,
             "a bias point has no dip")
    dips = ref["probe_grid"][j_idx + 1]
    distance = np.abs(ref["branches"][t_idx] - dips[:, None]).min(axis=1)
    _require(distance.max() <= DIP_TOL_THZ,
             f"dip {distance.max():.4f} THz from the nearest branch")


def check_overlap(out, masked):
    with open(out / "overlap.json", encoding="utf-8") as fh:
        eta = np.array(json.load(fh)["overlap_parameters"])
    _require(np.allclose(eta, eta.T, rtol=0.0, atol=1e-12),
             "eta not symmetric")
    _require(np.all(np.diag(eta) == 1.0),
             "eta diagonal is not 1")
    if masked:
        _require(eta[0, 1] > 0.99,
                 f"patch eta {eta[0, 1]:.4f} <= 0.99")
    else:
        _require(eta[0, 1] < 0.3,
                 f"full-plane eta {eta[0, 1]:.4f} >= 0.3")


def check_fit(out, ref, data, result):
    """A fit must converge to couplings that match the peaks at least as
    well as the truth does, with the misfit it reports. Being within 5% of
    the truth is fit.recovered_ratio, not a check: with 0.01 THz noise the
    best fit can miss by more (seed 410 gave 5.6% at a lower misfit than the
    truth's), and the package's own criterion 8 allows 2 of 20 such misses."""
    with open(out / "fit_result.json", encoding="utf-8") as fh:
        fitted = json.load(fh)
    result.n_evaluations = int(fitted["n_evaluations"])
    errors = (abs(fitted["ratio_11"] / ref["ratio_11"] - 1.0),
              abs(fitted["ratio_2_tilde"] / ref["ratio_2_tilde"] - 1.0))
    result.recovered = bool(fitted["converged"]) and max(errors) < RATIO_RTOL
    _require(fitted["converged"],
             "fit did not converge")

    rows = [rec.peaks for rec in data.records]

    def misfit(ratio_11, ratio_2_tilde, eta):
        rabi = reference.two_mode_rabi(ref["photons"], ratio_11, ratio_2_tilde, eta)
        return reference.peak_rms(rows, reference.frequencies(
            ref["photons"], rabi, ref["photons"][0], data.nu_c_values))

    got = misfit(fitted["ratio_11"], fitted["ratio_2_tilde"], fitted["eta"])
    truth = misfit(ref["ratio_11"], ref["ratio_2_tilde"], ref["eta"])
    _require(abs(fitted["residual_rms_thz"] - got) <= MISFIT_RTOL * got,
             f"reported misfit {fitted['residual_rms_thz']:.9g} THz, "
             f"reference {got:.9g} THz")
    _require(got <= truth * (1.0 + MISFIT_RTOL),
             f"fit misfit {got:.6g} THz above the truth's {truth:.6g} THz")
