"""Golden outputs: the bytes of every file the CLI writes for the shipped
configs and the fixture profiles.

The test runs cli.main in process, in a scratch directory, and compares the
SHA-256 and size of each output with tests/golden.json:

- sweep: branches.csv and features.json of both shipped configs, and of
  structured.cfg on the same span given in tesla;
- spectrum: spectrum.csv of both, with photon-fraction and equal weighting;
- fit: fit_result.json and fit_residuals.csv of both, with eta fixed and
  free, on peak files that save_peaks writes from seeded noise;
- overlap: overlap.json of the 192 x 192 fixture profiles, with and
  without the patch mask, given by paths relative to the scratch directory.

golden.json also records the build that made the digests: the numpy
version, the BLAS and LAPACK numpy reports, the machine and the CPU
features numpy dispatches to. Another build may round a last digit
differently, so on another fingerprint the test skips and names both. To
remake the digests after a deliberate output change, run from the root of
the repository

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from mmhopfield import cli, dispersion, model, overlap
from mmhopfield.fit import PeakDataset, PeakRecord, save_peaks

GOLDEN = Path(__file__).resolve().parent / "golden.json"
CONFIGS = Path(cli.__file__).resolve().parent / "configs"
SHIPPED = ("structured", "unstructured")

# the fit inputs: (ratio_11, ratio_2_tilde, eta) of each shipped config
TRUTHS = {"structured": (0.28, 0.1351351, 0.999),
          "unstructured": (0.37, 0.2124026, 0.15)}
PEAK_NU_C = np.linspace(0.3, 2.15, 12)
PEAK_NOISE_THZ = 0.01
PEAK_SEED = 2010
FIT_SEED = 7
# structured.cfg's THz grid, and the tesla grid that stands in for it
THZ_GRID = "start_thz = 0.05\nstop_thz = 2.2\nstep_thz = 0.01"
TESLA_GRID = "start_tesla = 0.125\nstop_tesla = 5.5\nstep_tesla = 0.025"


def fingerprint():
    """The numpy build, its BLAS and LAPACK, the machine and the CPU
    features numpy dispatches to."""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except TypeError:  # numpy before 1.25 has no mode
        deps = {}
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    libs = {lib: " ".join(str(deps.get(lib, {}).get(k, "?")) for k in (
        "name", "version", "openblas configuration")) for lib in ("blas", "lapack")}
    return {"numpy": np.__version__, **libs, "machine": platform.machine(),
            "cpu": [f for f in umath.__cpu_dispatch__
                    if umath.__cpu_features__.get(f)]}


def _peaks(path, name, rng):
    """Noisy peaks of a forward sweep of the config's own couplings; one
    record in four loses a random peak."""
    photons = [model.PhotonMode(index=1, frequency=0.8),
               model.PhotonMode(index=2, frequency=1.6)]
    truth = model.couplings_from_ratios(photons, *TRUTHS[name])
    forward = dispersion.sweep(photons, truth, PEAK_NU_C)
    records = []
    for t, nu_c in enumerate(forward.nu_c_values):
        peaks = np.sort(forward.branches[t] + rng.normal(
            0.0, PEAK_NOISE_THZ, forward.n_branches))
        if t % 4 == 3:
            peaks = np.delete(peaks, rng.integers(len(peaks)))
        records.append(PeakRecord(nu_c=float(nu_c), peaks=tuple(peaks)))
    save_peaks(path, PeakDataset(records=tuple(records)))


def _variant(path, name, old, new):
    """A copy of a shipped config with its one copy of old replaced."""
    text = (CONFIGS / f"{name}.cfg").read_text()
    assert text.count(old) == 1, (name, old)
    path.write_text(text.replace(old, new))
    return str(path)


def _runs(work):
    """(output folder, argv) of every golden command, its inputs written
    under work, which must be the working directory."""
    tesla = _variant(work / "structured-tesla.cfg", "structured",
                     THZ_GRID, TESLA_GRID)
    runs = [("sweep/structured-tesla", ["sweep", "--config", tesla])]
    rng = np.random.default_rng(PEAK_SEED)
    for name in SHIPPED:
        cfg = str(CONFIGS / f"{name}.cfg")
        equal = _variant(work / f"{name}-equal.cfg", name,
                         "weight_mode = photon_fraction", "weight_mode = equal")
        free = _variant(work / f"{name}-free.cfg", name,
                        "eta_mode = fixed", "eta_mode = free")
        peaks = work / f"{name}-peaks.csv"
        _peaks(peaks, name, rng)
        runs += [(f"sweep/{name}", ["sweep", "--config", cfg]),
                 (f"spectrum/{name}", ["spectrum", "--config", cfg]),
                 (f"spectrum/{name}-equal", ["spectrum", "--config", equal])]
        runs += [(f"fit/{name}-{eta}", ["fit", "--config", path, "--peaks",
                                        str(peaks), "--seed", str(FIT_SEED)])
                 for eta, path in (("fixed", cfg), ("free", free))]
    lc = overlap.synthetic_profile("lc")
    overlap.save_profile("lc.dat", lc)
    overlap.save_profile("dipolar.dat", overlap.synthetic_profile("dipolar"))
    overlap.save_mask("patch.dat", overlap.central_square_mask(
        lc.nx, lc.ny, lc.dx, lc.dy, half_width=7.5), lc.dx, lc.dy)
    profiles = ["overlap", "--profiles", "lc.dat", "dipolar.dat"]
    runs += [("overlap/full", profiles),
             ("overlap/patch", profiles + ["--mask", "patch.dat"])]
    return runs


def digests(work):
    """{output path: {"sha256", "bytes"}} of every golden command, run in
    process with work as the working directory."""
    found = {}
    for folder, argv in _runs(work):
        out = work / "out" / folder
        assert cli.main(argv + ["--out", str(out)]) == 0, argv
        for path in sorted(out.iterdir()):
            data = path.read_bytes()
            found[f"{folder}/{path.name}"] = {
                "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    return found


def test_outputs_match_their_golden_digests(tmp_path, monkeypatch):
    golden = json.loads(GOLDEN.read_text())
    here = fingerprint()
    if here != golden["fingerprint"]:
        pytest.skip(f"digests were made on {golden['fingerprint']}, "
                    f"this is {here}")
    monkeypatch.chdir(tmp_path)
    assert digests(tmp_path) == golden["outputs"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        home = os.getcwd()
        os.chdir(scratch)
        try:
            made = digests(Path(scratch))
        finally:
            os.chdir(home)
    GOLDEN.write_text(json.dumps({"fingerprint": fingerprint(),
                                  "outputs": made}, indent=1) + "\n")
    print(f"wrote {len(made)} digests to {GOLDEN}", file=sys.stderr)
