"""End-to-end checks of the command-line interface.

Everything runs in-process through cli.main() so exit codes and stderr can be
asserted directly. The console-script entry point declared in pyproject.toml
is run as its own process, through the same wrapper an install generates, so
no install is needed, and so is `python -m mmhopfield`; an installed script
is checked too when one is on PATH. Those children carry an exit hook that
checks main()'s garbage-collector policy. Output files are byte-compared where
determinism is promised.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mmhopfield as mm
import oracles
from mmhopfield import cli, dispersion, errors, overlap

TRUE_RATIO_11 = 0.37
TRUE_RATIO_2 = 0.2124026
TRUE_ETA = 0.15

_HEAD = """\
[photon_modes]
frequencies_thz = 0.8, 1.6
labels = LC, dipolar

[coupling]
ratio_11 = 0.37
ratio_2_tilde = 0.2124026
eta = 0.15
"""

# feature detection wants the sweep to span [0.05, 2.0] THz
SWEEP_CFG = _HEAD + """
[sweep]
start_thz = 0.05
stop_thz = 2.2
step_thz = 0.05
"""

FIT_CFG = _HEAD + """
[fit]
ratio_11_bounds = 0.0, 0.8
ratio_2_bounds = 0.0, 0.8
eta_mode = fixed
restarts = 2
"""

SPECTRUM_CFG = _HEAD + """
[sweep]
start_thz = 0.4
stop_thz = 1.2
step_thz = 0.05

[spectrum]
linewidth_thz = 0.04
freq_min_thz = 0.4
freq_max_thz = 1.4
freq_step_thz = 0.01
weight_mode = photon_fraction
"""

TESLA_CFG = _HEAD + """
[sweep]
start_tesla = 0.125
stop_tesla = 5.125
step_tesla = 0.125
"""


def _write(path, text):
    """Write a config's text, or, given bytes, those bytes as they are."""
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    return str(path)


@pytest.fixture(scope="module")
def peaks_csv(tmp_path_factory):
    """Synthetic noiseless peak list from the forward model."""
    photons = [mm.PhotonMode(index=1, frequency=0.8),
               mm.PhotonMode(index=2, frequency=1.6)]
    coupling = mm.couplings_from_ratios(photons, TRUE_RATIO_11, TRUE_RATIO_2,
                                        TRUE_ETA)
    result = mm.sweep(photons, coupling, np.linspace(0.1, 2.15, 12))
    records = tuple(
        mm.PeakRecord(nu_c=float(nc),
                      peaks=tuple(np.sort(result.branches[t])))
        for t, nc in enumerate(result.nu_c_values))
    path = tmp_path_factory.mktemp("peaks") / "peaks.csv"
    mm.save_peaks(str(path), mm.PeakDataset(records=records))
    return str(path)


def test_sweep_writes_branch_table_and_features(tmp_path):
    cfg = _write(tmp_path / "cfg.ini", SWEEP_CFG)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0

    lines = (out / "branches.csv").read_text().splitlines()
    assert lines[0] == ("nu_c_THz,branch,freq_THz,photon_frac_1,photon_frac_2,"
                        "matter_frac_1,matter_frac_2")
    assert len(lines) == 1 + 44 * 4

    features = json.loads((out / "features.json").read_text())
    assert features["n_coupled_branches"] == 4
    assert features["n_cr_lines"] == 0
    assert len(features["gap_at_resonance_thz"]) == 2
    # extended-film case has no isolated middle branch
    assert features["inflection_nu_c_thz"] is None
    assert features["asymptote_low_thz"] is None


def test_sweep_structured_features(tmp_path):
    cfg = _write(tmp_path / "cfg.ini",
                 SWEEP_CFG.replace("ratio_11 = 0.37", "ratio_11 = 0.28")
                          .replace("ratio_2_tilde = 0.2124026",
                                   "ratio_2_tilde = 0.1351351")
                          .replace("eta = 0.15", "eta = 0.999"))
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    features = json.loads((out / "features.json").read_text())
    assert features["n_coupled_branches"] == 3
    assert features["n_cr_lines"] == 1
    assert 0.85 <= features["asymptote_low_thz"] <= 1.0
    assert abs(features["asymptote_high_thz"] - 1.6) / 1.6 < 0.05
    assert features["inflection_nu_c_thz"] is not None


def test_sweep_is_deterministic(tmp_path):
    cfg = _write(tmp_path / "cfg.ini", SWEEP_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "branches.csv").read_bytes() == \
           (out2 / "branches.csv").read_bytes()
    assert (out1 / "features.json").read_bytes() == \
           (out2 / "features.json").read_bytes()


def test_field_sweep_matches_thz_sweep_bytewise(tmp_path):
    # endpoints chosen so the converted grid still spans [0.05, 2.0]
    nu_lo = mm.cyclotron_frequency(0.125)
    nu_hi = mm.cyclotron_frequency(5.125)
    nu_step = mm.cyclotron_frequency(0.125)
    thz_cfg = _HEAD + f"""
[sweep]
start_thz = {nu_lo!r}
stop_thz = {nu_hi!r}
step_thz = {nu_step!r}
"""
    cfg_b = _write(tmp_path / "field.ini", TESLA_CFG)
    cfg_f = _write(tmp_path / "thz.ini", thz_cfg)
    out_b, out_f = tmp_path / "field", tmp_path / "thz"
    assert cli.main(["sweep", "--config", cfg_b, "--out", str(out_b)]) == 0
    assert cli.main(["sweep", "--config", cfg_f, "--out", str(out_f)]) == 0
    assert (out_b / "branches.csv").read_bytes() == \
           (out_f / "branches.csv").read_bytes()


def test_outputs_replace_stale_files_atomically(tmp_path):
    cfg = _write(tmp_path / "cfg.ini", SWEEP_CFG)
    out = tmp_path / "out"
    out.mkdir()
    (out / "branches.csv").write_text("stale garbage\n")
    (out / "features.json").write_text("{broken")
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "branches.csv").read_text().startswith("nu_c_THz,branch,")
    json.loads((out / "features.json").read_text())
    leftovers = [p.name for p in out.iterdir() if p.name.startswith(".tmp.")]
    assert leftovers == []


def test_spectrum_grid_layout(tmp_path):
    cfg = _write(tmp_path / "cfg.ini", SPECTRUM_CFG)
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "nu_c_THz,nu_THz,T"
    assert len(lines) == 1 + 17 * 101
    table = np.array([line.split(",") for line in lines[1:]], dtype=float)
    assert np.all(table[:, 2] >= 0.0) and np.all(table[:, 2] <= 1.0)
    # polariton dips must show up somewhere on the map
    assert table[:, 2].min() < 0.9


def test_fit_round_trip_recovers_ratios(tmp_path, peaks_csv):
    cfg = _write(tmp_path / "cfg.ini", FIT_CFG)
    out = tmp_path / "out"
    rc = cli.main(["fit", "--config", cfg, "--out", str(out),
                   "--peaks", peaks_csv, "--seed", "1"])
    assert rc == 0

    result = json.loads((out / "fit_result.json").read_text())
    assert result["converged"] is True
    assert result["seed"] == 1
    assert abs(result["ratio_11"] - TRUE_RATIO_11) / TRUE_RATIO_11 < 5e-3
    assert abs(result["ratio_2_tilde"] - TRUE_RATIO_2) / TRUE_RATIO_2 < 5e-3
    assert result["eta"] == TRUE_ETA
    assert result["residual_rms_thz"] < 1e-5
    # decomposed couplings respect the quadrature identity
    total = np.hypot(result["ratio_21_over_omega_1"] * 0.8,
                     result["ratio_22_over_omega_2"] * 1.6)
    assert abs(total - result["ratio_2_tilde"] * 1.6) < 1e-9 * 1.6

    lines = (out / "fit_residuals.csv").read_text().splitlines()
    assert lines[0] == "record,nu_c_THz,rms_THz"
    assert len(lines) == 1 + 12
    rms = np.array([line.split(",")[2] for line in lines[1:]], dtype=float)
    assert rms.max() < 1e-4


def test_fit_is_deterministic_per_seed(tmp_path, peaks_csv):
    cfg = _write(tmp_path / "cfg.ini", FIT_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        rc = cli.main(["fit", "--config", cfg, "--out", str(out),
                       "--peaks", peaks_csv, "--seed", "3"])
        assert rc == 0
    assert (out1 / "fit_result.json").read_bytes() == \
           (out2 / "fit_result.json").read_bytes()


def test_overlap_outputs_matrices(tmp_path, lc_profile, dipolar_profile):
    pa = tmp_path / "lc.dat"
    pb = tmp_path / "dipolar.dat"
    overlap.save_profile(str(pa), lc_profile)
    overlap.save_profile(str(pb), dipolar_profile)
    mask = overlap.central_square_mask(lc_profile.nx, lc_profile.ny,
                                       lc_profile.dx, lc_profile.dy,
                                       half_width=7.5)
    pm = tmp_path / "mask.dat"
    overlap.save_mask(str(pm), mask, dx=lc_profile.dx, dy=lc_profile.dy)

    out = tmp_path / "out"
    rc = cli.main(["overlap", "--profiles", str(pa), str(pb),
                   "--mask", str(pm), "--out", str(out)])
    assert rc == 0
    data = json.loads((out / "overlap.json").read_text())
    eta = data["overlap_parameters"]
    assert eta[0][0] == 1.0 and eta[1][1] == 1.0
    assert eta[0][1] == eta[1][0]
    assert 0.99 < eta[0][1] <= 1.0  # over the patch both modes look uniform
    ints = data["overlap_integrals_um2"]
    assert len(ints) == 2 and all(len(row) == 2 for row in ints)
    assert all(len(cell) == 2 for row in ints for cell in row)
    assert sorted(data) == ["overlap_integrals_um2", "overlap_parameters",
                            "profiles"]


def _save_profiles(folder, profiles):
    paths = [str(folder / f"p{i}.dat") for i in range(len(profiles))]
    for path, profile in zip(paths, profiles):
        overlap.save_profile(path, profile)
    return paths


@pytest.mark.parametrize("profiles, masked", [(2, True), (2, False),
                                              (3, True), (3, False)])
def test_overlap_json_keeps_the_per_pair_bytes(tmp_path, lc_profile,
                                               dipolar_profile, profiles,
                                               masked):
    # a third profile with seeded phases, a thousandth of the dipolar one
    phases = np.exp(2j * np.pi * np.random.default_rng(8).random(
        dipolar_profile.values.shape))
    third = mm.FieldProfile(nx=dipolar_profile.nx, ny=dipolar_profile.ny,
                            dx=dipolar_profile.dx, dy=dipolar_profile.dy,
                            values=1e-3 * phases * dipolar_profile.values)
    paths = _save_profiles(tmp_path, [lc_profile, dipolar_profile,
                                      third][:profiles])
    argv = ["overlap", "--profiles", *paths, "--out", str(tmp_path / "out")]
    f = lc_profile
    mask = overlap.full_mask(f.nx, f.ny)
    if masked:
        mask = overlap.central_square_mask(f.nx, f.ny, f.dx, f.dy, 7.5)
        overlap.save_mask(str(tmp_path / "mask.dat"), mask, f.dx, f.dy)
        argv += ["--mask", str(tmp_path / "mask.dat")]
    assert cli.main(argv) == 0
    expected = oracles.overlap_json_per_pair(
        paths, [overlap.load_profile(p) for p in paths], mask)
    assert (tmp_path / "out" / "overlap.json").read_bytes() == \
        expected.encode("ascii")


_GOOD = dict(nx=8, ny=8, dx=2.5, dy=2.5)


@pytest.mark.parametrize("fault, message", [
    ("zero", "profile vanishes on the mask; overlap undefined"),
    ("shape", "grid (nx, ny, dx, dy) = (6, 8, 2.5, 2.5) differs from the "
              "first profile's (8, 8, 2.5, 2.5)"),
    ("spacing", "grid (nx, ny, dx, dy) = (8, 8, 2.0, 2.5) differs from the "
                "first profile's (8, 8, 2.5, 2.5)"),
    ("mask", "mask grid (nx, ny) = (8, 6) differs from the profiles' (8, 8)"),
    ("mask_spacing", "mask spacing (dx, dy) = (1.0, 1.0) differs from the "
                     "profiles' (2.5, 2.5)"),
], ids=["zero", "shape", "spacing", "mask", "mask_spacing"])
def test_overlap_errors_name_the_file_at_fault(tmp_path, capsys, fault,
                                               message):
    good = overlap.synthetic_profile("lc", **_GOOD)
    second = {"zero": mm.FieldProfile(**_GOOD, values=np.zeros((8, 8))),
              "shape": overlap.synthetic_profile("lc", **{**_GOOD, "nx": 6}),
              "spacing": overlap.synthetic_profile("lc", **{**_GOOD, "dx": 2.0}),
              "mask": good, "mask_spacing": good}[fault]
    paths = _save_profiles(tmp_path, [good, second, good])
    argv = ["overlap", "--profiles", *paths, "--out", str(tmp_path)]
    culprit = paths[1]
    if fault.startswith("mask"):
        # a mask on an 8 x 6 grid, or on the profiles' 8 x 8 cells but with
        # the default header spacing 1.0 1.0
        culprit = str(tmp_path / "mask.dat")
        if fault == "mask":
            overlap.save_mask(culprit, overlap.full_mask(8, 6), 2.5, 2.5)
        else:
            overlap.save_mask(culprit, overlap.full_mask(8, 8))
        argv += ["--mask", culprit]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"ERROR 2: {culprit}: {message}\n"
    assert not (tmp_path / "overlap.json").exists()


@pytest.mark.parametrize("spacing", ["inf", "nan"])
def test_overlap_rejects_a_non_finite_spacing_at_the_header(tmp_path, capsys,
                                                            spacing):
    paths = _save_profiles(tmp_path, [overlap.synthetic_profile("lc", **_GOOD),
                                      overlap.synthetic_profile("dipolar",
                                                                **_GOOD)])
    header = f"8 8 {spacing} {spacing}"
    for path in map(Path, paths):
        path.write_text(path.read_text().replace("8 8 2.5 2.5", header, 1))
    out = tmp_path / "out"
    assert cli.main(["overlap", "--profiles", *paths, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"ERROR 2: {paths[0]}:1: bad header value: grid spacing must be "
        "finite and positive\n")
    assert not out.exists()


def test_unknown_config_key_exits_2_with_line(tmp_path, capsys):
    text = SWEEP_CFG.replace("[sweep]", "[sweep]\nbananas = 12")
    cfg = _write(tmp_path / "cfg.ini", text)
    lineno = text.splitlines().index("bananas = 12") + 1
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR 2:")
    assert f"{cfg}:{lineno}" in err
    assert "bananas" in err and "unknown key" in err


@pytest.mark.parametrize("line, message", [
    ("ETA = 1.5", "[coupling] eta: must lie in [0, 1]"),
    ("BANANAS = 12", "[coupling] bananas: unknown key"),
])
def test_upper_case_keys_keep_their_line(tmp_path, capsys, line, message):
    # configparser lower-cases option names, and so must the line lookup
    text = SWEEP_CFG.replace("eta = 0.15", line)
    cfg = _write(tmp_path / "upper.cfg", text)
    lineno = text.splitlines().index(line) + 1
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"ERROR 2: {cfg}:{lineno}: {message}\n"


@pytest.mark.parametrize("key", ["ratio_11", "ratio_2_tilde"])
def test_negative_ratio_names_its_own_line(tmp_path, capsys, key):
    line = next(ln for ln in SWEEP_CFG.splitlines() if ln.startswith(key))
    text = SWEEP_CFG.replace(line, f"{key} = -0.1")
    cfg = _write(tmp_path / "cfg.ini", text)
    lineno = text.splitlines().index(f"{key} = -0.1") + 1
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:{lineno}: [coupling] {key}: ratios must be non-negative" in err


@pytest.mark.parametrize("line, message", [
    ("ratio_11_bounds = 0.0",
     "[fit] ratio_11_bounds: needs exactly two values, got 1"),
    ("ratio_2_bounds = 0.0, 0.4, 0.8",
     "[fit] ratio_2_bounds: needs exactly two values, got 3"),
    ("eta_bounds = 0.2", "[fit] eta_bounds: needs exactly two values, got 1"),
    ("eta_bounds = -0.1, 0.5", "[fit] eta_bounds: must lie within [0, 1]"),
    ("eta_bounds = 0.5, 1.5", "[fit] eta_bounds: must lie within [0, 1]"),
    ("restarts = 0", "[fit] restarts: need at least one restart"),
    ("eta = 1.5", "[coupling] eta: must lie in [0, 1]"),
])
def test_fit_setting_errors_name_their_line(tmp_path, capsys, peaks_csv,
                                           line, message):
    key = line.split(" =")[0]
    lines = FIT_CFG.splitlines()
    at = next((i for i, ln in enumerate(lines) if ln.startswith(key + " ")),
              len(lines))  # FIT_CFG ends in [fit]
    lines[at:at + 1] = [line]
    text = "\n".join(lines) + "\n"
    cfg = _write(tmp_path / "cfg.ini", text)
    lineno = text.splitlines().index(line) + 1
    assert cli.main(["fit", "--config", cfg, "--out", str(tmp_path),
                     "--peaks", peaks_csv]) == 2
    assert f"{cfg}:{lineno}: {message}" in capsys.readouterr().err


def test_negative_seed_names_the_flag(tmp_path, capsys, peaks_csv):
    cfg = _write(tmp_path / "cfg.ini", FIT_CFG)
    assert cli.main(["fit", "--config", cfg, "--out", str(tmp_path),
                     "--peaks", peaks_csv, "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err == "ERROR 2: --seed: must be a non-negative integer\n"


def test_spectrum_settings_are_checked_before_the_sweep(tmp_path, capsys,
                                                       monkeypatch):
    def explode(*args, **kwargs):
        raise AssertionError("the sweep ran before the [spectrum] check")

    monkeypatch.setattr(dispersion, "sweep", explode)
    text = SPECTRUM_CFG.replace("freq_step_thz = 0.01", "freq_step_thz = 0")
    cfg = _write(tmp_path / "cfg.ini", text)
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 2
    lineno = text.splitlines().index("freq_step_thz = 0") + 1
    assert capsys.readouterr().err == (
        f"ERROR 2: {cfg}:{lineno}: [spectrum] freq_step_thz: "
        f"step must be positive\n")


@pytest.mark.parametrize("line, message", [
    ("linewidth_thz = nan", "[spectrum]: linewidths must be finite"),
    ("linewidth_thz = inf", "[spectrum]: linewidths must be finite"),
    ("freq_max_thz = inf", "[spectrum]: start, stop and step must be finite"),
    ("freq_step_thz = nan", "[spectrum]: start, stop and step must be finite"),
])
def test_non_finite_spectrum_settings_exit_2(tmp_path, capsys, line, message):
    key = line.split(" =")[0]
    old = next(ln for ln in SPECTRUM_CFG.splitlines() if ln.startswith(key))
    text = SPECTRUM_CFG.replace(old, line)
    cfg = _write(tmp_path / "cfg.ini", text)
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 2
    # every error names its key and line
    lineno = text.splitlines().index(line) + 1
    problem = message.removeprefix("[spectrum]: ")
    assert capsys.readouterr().err == (
        f"ERROR 2: {cfg}:{lineno}: [spectrum] {key}: {problem}\n")
    assert not (tmp_path / "spectrum.csv").exists()


@pytest.mark.parametrize("line, message", [
    ("frequencies_thz = nan, 1.6",
     "[photon_modes] frequencies_thz: frequencies must be finite and positive"),
    ("frequencies_thz = 0.8, inf",
     "[photon_modes] frequencies_thz: frequencies must be finite and positive"),
    ("ratio_11 = nan", "[coupling] ratio_11: ratios must be finite"),
    ("ratio_2_tilde = inf", "[coupling] ratio_2_tilde: ratios must be finite"),
])
def test_non_finite_coupling_settings_name_their_line(tmp_path, capsys, line,
                                                      message):
    key = line.split(" =")[0]
    old = next(ln for ln in SWEEP_CFG.splitlines() if ln.startswith(key))
    text = SWEEP_CFG.replace(old, line)
    cfg = _write(tmp_path / "cfg.ini", text)
    lineno = text.splitlines().index(line) + 1
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"ERROR 2: {cfg}:{lineno}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "branches.csv").exists()


# a tesla grid reads [material]
MATERIAL_CFG = TESLA_CFG + """
[material]
effective_mass_ratio = 0.07
"""


@pytest.mark.parametrize("key, value, problem", [
    ("effective_mass_ratio", v, "must be finite and positive")
    for v in ("nan", "inf", "0")])
def test_bad_material_values_name_their_line(tmp_path, capsys, key, value,
                                             problem):
    old = next(ln for ln in MATERIAL_CFG.splitlines() if ln.startswith(key))
    text = MATERIAL_CFG.replace(old, f"{key} = {value}")
    cfg = _write(tmp_path / "cfg.ini", text)
    lineno = text.splitlines().index(f"{key} = {value}") + 1
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"ERROR 2: {cfg}:{lineno}: [material] {key}: {problem}\n")
    assert not (tmp_path / "branches.csv").exists()


def test_material_config_sweeps(tmp_path):
    # MATERIAL_CFG spells out the defaults, so leaving [material] out
    # changes nothing
    outputs = []
    without = MATERIAL_CFG[:MATERIAL_CFG.index("[material]")]
    for name, text in (("given", MATERIAL_CFG), ("default", without)):
        cfg = _write(tmp_path / f"{name}.ini", text)
        assert cli.main(["sweep", "--config", cfg, "--out",
                         str(tmp_path / name)]) == 0
        outputs.append((tmp_path / name / "branches.csv").read_bytes())
    assert outputs[0] == outputs[1]


_PAIR = [mm.PhotonMode(index=1, frequency=0.8),
         mm.PhotonMode(index=2, frequency=1.6)]
_COMMANDS = {SWEEP_CFG: "sweep", MATERIAL_CFG: "sweep", SPECTRUM_CFG: "spectrum",
             FIT_CFG: "fit"}


def _couplings(field):
    return lambda v: mm.couplings_from_ratios(_PAIR, **{
        "ratio_11": 0.37, "ratio_2_tilde": 0.2124026, "eta": 0.15, field: v})


def _spectrum(field):
    return lambda v: mm.SpectrumConfig(
        frequency_grid=[0.4, 0.5], **{"linewidths": 0.04, field: v})


def _fit_config(field):
    return lambda v: mm.FitConfig(**{field: v})


def _next_up(text):
    return repr(math.nextafter(float(text), math.inf))


# Each check of errors.RULES at its boundary: (field, config, key, a value
# just inside, one just outside, the library call of the value as the
# config reader parses it). A key of None is the --seed flag; a call of
# None marks a rule that only the CLI has.
RULE_ROWS = [
    ("frequency", SWEEP_CFG, "frequencies_thz", "5e-324, 1.6", "0, 1.6",
     lambda v: [mm.PhotonMode(index=1, frequency=f) for f in v]),
    ("frequency", SWEEP_CFG, "frequencies_thz", "0.8, 1.7976931348623157e308",
     "0.8, inf", lambda v: [mm.PhotonMode(index=1, frequency=f) for f in v]),
    *[(field, SWEEP_CFG, field, inside, outside, _couplings(field))
      for field in ("ratio_11", "ratio_2_tilde")
      for inside, outside in (("0", "-5e-324"), ("1e6", "nan"),
                              ("1e6", _next_up("1e6")))],
    ("eta", SWEEP_CFG, "eta", "0", "-5e-324", _couplings("eta")),
    ("eta", SWEEP_CFG, "eta", "1", _next_up("1"), _couplings("eta")),
    ("eta_fixed", FIT_CFG, "eta", "1", _next_up("1"), _fit_config("eta_fixed")),
    ("effective_mass_ratio", MATERIAL_CFG, "effective_mass_ratio",
     "1.7976931348623157e308", "inf", lambda v: mm.cyclotron_frequency(1.0, v)),
    ("effective_mass_ratio", MATERIAL_CFG, "effective_mass_ratio", "0.001",
     repr(math.nextafter(0.001, 0.0)), lambda v: mm.cyclotron_frequency(1.0, v)),
    ("linewidths", SPECTRUM_CFG, "linewidth_thz", "1e150", "nan",
     _spectrum("linewidths")),
    ("linewidths", SPECTRUM_CFG, "linewidth_thz", "5e-324", "0",
     _spectrum("linewidths")),
    ("linewidths", SPECTRUM_CFG, "linewidth_thz", "1e150", _next_up("1e150"),
     _spectrum("linewidths")),
    ("weight_mode", SPECTRUM_CFG, "weight_mode", "equal", "Equal",
     _spectrum("weight_mode")),
    *[(field, FIT_CFG, field, inside, outside, _fit_config(field))
      for field in ("ratio_11_bounds", "ratio_2_bounds")
      for inside, outside in (("0, 0.8", "0.8"), ("0, 0.8", "0.8, 0.8"),
                              ("0, 5e-324", "-5e-324, 0.8"),
                              ("0, 1e6", "0, " + _next_up("1e6")))],
    ("eta_bounds", FIT_CFG, "eta_bounds", "0, 1", "0, 1, 1",
     _fit_config("eta_bounds")),
    ("eta_bounds", FIT_CFG, "eta_bounds", "0, 5e-324", "5e-324, 5e-324",
     _fit_config("eta_bounds")),
    ("eta_bounds", FIT_CFG, "eta_bounds", "0, 1", "0, " + _next_up("1"),
     _fit_config("eta_bounds")),
    ("restarts", FIT_CFG, "restarts", "1", "0", _fit_config("restarts")),
    ("restarts", FIT_CFG, "restarts", "1000", "1001", _fit_config("restarts")),
    ("seed", FIT_CFG, None, "0", "-1", _fit_config("seed")),
    ("eta_mode", FIT_CFG, "eta_mode", "free", "Free", None),
    ("grid", SWEEP_CFG, "start_thz", "1.7976931348623157e308", "inf", None),
]


def _with_value(text, key, value):
    """text with the key's line set to value, or the line added at the end."""
    lines = text.splitlines()
    at = next((i for i, ln in enumerate(lines) if ln.startswith(key + " =")),
              len(lines))
    lines[at:at + 1] = [f"{key} = {value}"]
    return "\n".join(lines) + "\n"


def test_rule_rows_cover_every_rule():
    assert {row[0] for row in RULE_ROWS} == set(errors.RULES)


@pytest.mark.parametrize(
    "field, text, key, inside, outside, library", RULE_ROWS,
    ids=[f"{row[0]}={row[4]}" for row in RULE_ROWS])
def test_each_rule_binds_the_cli_and_the_library_alike(
        tmp_path, capsys, peaks_csv, field, text, key, inside, outside, library):
    command = _COMMANDS[text]
    section = next((s for s, keys in cli._KEYS.items() if key in keys), None)
    parse = cli._KEYS[section][key][0] if key else int
    argv = [command, "--out", str(tmp_path)]
    if command == "fit":
        argv += ["--peaks", peaks_csv]

    # just inside: the config reader (for --seed, the whole fit) and the
    # library take it
    if key:
        cfg = _write(tmp_path / "inside.ini", _with_value(text, key, inside))
        assert cli._Config(cfg).get(section, key) == parse(inside)
    else:
        cfg = _write(tmp_path / "inside.ini", text)
        assert cli.main(argv + ["--config", cfg, "--seed", inside]) == 0
    if library:
        library(parse(inside))

    # just outside: the table's problem, at the key's line and with the field
    found = errors.fault(**{field: parse(outside)})
    assert found is not None
    problem = found[1]
    if key:
        cfg = _write(tmp_path / "outside.ini", _with_value(text, key, outside))
        lineno = Path(cfg).read_text().splitlines().index(
            f"{key} = {outside}") + 1
        expected = f"ERROR 2: {cfg}:{lineno}: [{section}] {key}: {problem}\n"
    else:
        cfg = _write(tmp_path / "outside.ini", text)
        argv += ["--seed", outside]
        expected = f"ERROR 2: --seed: {problem}\n"
    capsys.readouterr()
    assert cli.main(argv + ["--config", cfg]) == 2
    assert capsys.readouterr().err == expected
    if library:
        with pytest.raises(ValueError) as info:
            library(parse(outside))
        assert str(info.value) == f"{field}: {problem}"


# Faults a library caller met before the library checked its fields by the
# same rules as the CLI; each comment says what the call did then.
@pytest.mark.parametrize("call, error, field", [
    # sweep raised InstabilityError on a nan THz^2
    (lambda: mm.couplings_from_ratios(_PAIR, 1e200, 1e200, 0.5), ValueError,
     "ratio_11"),
    # every transmission value came out nan
    (lambda: mm.SpectrumConfig(frequency_grid=[0.4, 0.5], linewidths=1e160),
     ValueError, "linewidths"),
    # cyclotron_frequency raised ZeroDivisionError
    (lambda: mm.cyclotron_frequency(1.0, 1e-310), ValueError,
     "effective_mass_ratio"),
    # fit raised TypeError
    (lambda: mm.FitConfig(restarts=2.5), ValueError, "restarts"),
    # the one-mode ratio is W_11/w_1, under the ratio_11 rule: sweep raised
    # InstabilityError on a nan THz^2, -1 was accepted, and inf failed the
    # Rabi matrix's finite check without naming the ratio
    *[(lambda ratio=ratio: mm.single_mode_coupling(_PAIR[0], ratio),
       ValueError, "ratio_11") for ratio in (1e200, -1.0, math.inf)],
    # accepted, as random.Random takes a float seed; a rule through int(v)
    # would raise OverflowError on inf
    (lambda: mm.FitConfig(seed=2.5), ValueError, "seed"),
    (lambda: mm.FitConfig(seed=math.inf), ValueError, "seed"),
], ids=["ratio-overflow", "linewidth-overflow", "mass-underflow",
        "fractional-restarts", "one-mode-ratio-overflow",
        "one-mode-ratio-negative", "one-mode-ratio-infinite",
        "fractional-seed", "infinite-seed"])
def test_library_faults_raise_at_construction(call, error, field):
    with pytest.raises(error, match=f"^{field}: "):
        call()


@pytest.mark.parametrize("row", ["nan,0.7,1.2", "0.9,nan,1.2", "0.9,0.7,inf"])
def test_non_finite_peak_cell_names_its_line(tmp_path, capsys, row):
    cfg = _write(tmp_path / "cfg.ini", FIT_CFG)
    peaks = _write(tmp_path / "peaks.csv",
                   "nu_c_THz,peak1_THz,peak2_THz\n0.4,0.5,1.1\n" + row + "\n"
                   "1.8,0.9,1.7\n")
    rc = cli.main(["fit", "--config", cfg, "--out", str(tmp_path),
                   "--peaks", peaks])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ERROR 2: {peaks}:3: ") and "finite" in err


def test_record_with_too_many_peaks_names_the_file_and_record(tmp_path,
                                                             capsys):
    cfg = _write(tmp_path / "cfg.ini", FIT_CFG)
    peaks = _write(tmp_path / "peaks.csv",
                   "nu_c_THz,peak1_THz,peak2_THz,peak3_THz,peak4_THz,peak5_THz\n"
                   "0.4,0.3,0.5,1.1,,\n1.2,0.4,0.7,1.0,1.3,1.9\n1.8,0.9,1.7,,,\n")
    assert cli.main(["fit", "--config", cfg, "--out", str(tmp_path),
                     "--peaks", peaks]) == 2
    assert capsys.readouterr().err == (
        f"ERROR 2: {peaks}: record at nu_c = 1.2 THz: 5 peaks cannot be "
        "assigned to 4 branches\n")
    assert not (tmp_path / "fit_result.json").exists()


@pytest.mark.parametrize("command", ["sweep", "spectrum", "overlap"])
def test_seed_is_a_fit_option_only(tmp_path, capsys, command):
    argv = [command, "--out", str(tmp_path), "--seed", "5"]
    if command != "overlap":  # which takes no config
        argv += ["--config", _write(tmp_path / "cfg.ini", SPECTRUM_CFG)]
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


def test_fit_without_peaks_flag_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path / "cfg.ini", FIT_CFG)
    assert cli.main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "--peaks" in capsys.readouterr().err


def test_zero_sweep_step_exits_2(tmp_path, capsys):
    text = SWEEP_CFG.replace("step_thz = 0.05", "step_thz = 0")
    cfg = _write(tmp_path / "cfg.ini", text)
    lineno = text.splitlines().index("step_thz = 0") + 1
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"ERROR 2: {cfg}:{lineno}: [sweep] step_thz: step must be positive\n")

_GRID_CFGS = {"thz": SWEEP_CFG, "tesla": TESLA_CFG, "spectrum": SPECTRUM_CFG}


@pytest.mark.parametrize("grid, line, problem", [
    ("thz", "start_thz = nan", "start, stop and step must be finite"),
    ("thz", "stop_thz = 0.01", "stop must exceed start"),
    ("thz", "start_thz = -0.1", "start must be non-negative"),
    ("thz", "step_thz = 5", "grid contains fewer than two points"),
    ("tesla", "step_tesla = -0.125", "step must be positive"),
    ("tesla", "start_tesla = -0.125", "start must be non-negative"),
    ("tesla", "stop_tesla = inf", "start, stop and step must be finite"),
    ("spectrum", "freq_step_thz = 0", "step must be positive"),
    ("spectrum", "freq_max_thz = 0.3", "stop must exceed start"),
    ("spectrum", "freq_step_thz = 2", "grid contains fewer than two points"),
    # an infinite and a finite point count, both refused before any array
    # is made
    ("thz", "step_thz = 1e-320", "step gives more than 1000000 grid points"),
    ("thz", "step_thz = 1e-12", "step gives more than 1000000 grid points"),
    ("tesla", "step_tesla = 1e-9", "step gives more than 1000000 grid points"),
    ("spectrum", "freq_step_thz = 1e-12",
     "step gives more than 1000000 grid points"),
    # the two other [spectrum] settings that SpectrumConfig checks
    ("spectrum", "weight_mode = Equal", "must be 'photon_fraction' or 'equal'"),
    ("spectrum", "linewidth_thz = 0.04, -0.01", "linewidths must be positive"),
])
def test_grid_errors_name_their_key_and_line(tmp_path, capsys, grid, line,
                                             problem):
    key = line.split(" =")[0]
    base = _GRID_CFGS[grid]
    old = next(ln for ln in base.splitlines() if ln.startswith(key))
    text = base.replace(old, line)
    cfg = _write(tmp_path / "cfg.ini", text)
    lineno = text.splitlines().index(line) + 1
    section = "spectrum" if grid == "spectrum" else "sweep"
    assert cli.main([section, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"ERROR 2: {cfg}:{lineno}: [{section}] {key}: {problem}\n")


def test_grid_step_below_the_float_spacing_exits_2(tmp_path, capsys):
    # 1e5 points, but at 1e10 THz neighbouring doubles are 2e-6 apart, so
    # a 1e-8 step repeats grid values
    text = (SWEEP_CFG.replace("start_thz = 0.05", "start_thz = 1e10")
            .replace("stop_thz = 2.2", "stop_thz = 1.0000000000001e10")
            .replace("step_thz = 0.05", "step_thz = 1e-8"))
    cfg = _write(tmp_path / "cfg.ini", text)
    lineno = text.splitlines().index("step_thz = 1e-8") + 1
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"ERROR 2: {cfg}:{lineno}: [sweep] step_thz: "
        f"step is too small to separate the grid points\n")


@pytest.mark.parametrize("command, text, line, message", [
    pytest.param("sweep", SWEEP_CFG + "step_tesla = 0.125\n",
                 "step_tesla = 0.125",
                 "[sweep] step_tesla: mixes THz and tesla keys",
                 id="tesla-key-after-thz-keys"),
    pytest.param("sweep", TESLA_CFG + "start_thz = 0.05\n", "start_thz = 0.05",
                 "[sweep] start_thz: mixes THz and tesla keys",
                 id="thz-key-after-tesla-keys"),
    pytest.param("sweep", SWEEP_CFG.replace("step_thz = 0.05\n", ""), "[sweep]",
                 "[sweep] needs start/stop/step in THz or tesla",
                 id="incomplete-grid"),
    pytest.param("sweep", SWEEP_CFG.replace("ratio_11 = 0.37\n", "").replace(
                     "ratio_2_tilde = 0.2124026\n", ""), "[coupling]",
                 "[coupling] ratio_11: missing key", id="no-coupling-spec"),
    # each missing key is reported at its section's header
    pytest.param("sweep", SWEEP_CFG.replace("eta = 0.15\n", ""), "[coupling]",
                 "[coupling] eta: missing key", id="missing-eta"),
    pytest.param("sweep", SWEEP_CFG.replace("frequencies_thz = 0.8, 1.6\n", ""),
                 "[photon_modes]", "[photon_modes] frequencies_thz: missing key",
                 id="missing-frequencies"),
    pytest.param("spectrum", SPECTRUM_CFG.replace("freq_step_thz = 0.01\n", ""),
                 "[spectrum]", "[spectrum] freq_step_thz: missing key",
                 id="missing-spectrum-step"),
    # a config that gave both routes: the retired volumes are an unknown key
    pytest.param("sweep", SWEEP_CFG.replace("eta = 0.15\n", "eta = 0.15\n"
                                            "mode_volumes_m3 = 1e-17, 2e-17\n"),
                 "mode_volumes_m3 = 1e-17, 2e-17",
                 "[coupling] mode_volumes_m3: unknown key",
                 id="ratios-and-volumes"),
    pytest.param("sweep", SWEEP_CFG.replace("labels = LC, dipolar\n", "").replace(
                     "0.8, 1.6", "0.8, 1.6, 2.4"),
                 "frequencies_thz = 0.8, 1.6, 2.4",
                 "[photon_modes] frequencies_thz: the two-mode model needs "
                 "exactly two frequencies", id="three-mode-sweep"),
    pytest.param("fit", FIT_CFG.replace("labels = LC, dipolar\n", "").replace(
                     "0.8, 1.6", "0.8, 1.6, 2.4"),
                 "frequencies_thz = 0.8, 1.6, 2.4",
                 "[photon_modes] frequencies_thz: the two-mode model needs "
                 "exactly two frequencies", id="three-mode-fit"),
    # fit checks a tesla [sweep] as sweep does, though it sweeps nothing
    pytest.param("fit", FIT_CFG + TESLA_CFG[TESLA_CFG.index("\n[sweep]"):]
                 .replace("stop_tesla = 5.125", "stop_tesla = 0.1"),
                 "stop_tesla = 0.1", "[sweep] stop_tesla: stop must exceed start",
                 id="fit-tesla-stop"),
    pytest.param("fit", FIT_CFG.replace("eta = 0.15\n", ""), "eta_mode = fixed",
                 "[fit] eta_mode: fixed needs [coupling] eta",
                 id="fixed-eta-without-eta"),
    # eta_mode defaults to fixed; the error then sits at the [fit] header
    pytest.param("fit", FIT_CFG.replace("eta = 0.15\n", "").replace(
                     "eta_mode = fixed\n", ""), "[fit]",
                 "[fit] eta_mode: fixed needs [coupling] eta",
                 id="default-eta-mode-without-eta"),
])
def test_cross_key_errors_name_their_line(tmp_path, capsys, peaks_csv, command,
                                          text, line, message):
    cfg = _write(tmp_path / "cfg.ini", text)
    lineno = text.splitlines().index(line) + 1
    argv = [command, "--config", cfg, "--out", str(tmp_path)]
    if command == "fit":
        argv += ["--peaks", peaks_csv]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"ERROR 2: {cfg}:{lineno}: {message}\n"


@pytest.mark.parametrize("text, lineno, message", [
    pytest.param(SWEEP_CFG.replace("eta = 0.15", "eta = 2") + "[bananas]\n", 14,
                 "unknown section [bananas]", id="syntax-before-values"),
    pytest.param(SWEEP_CFG.replace("eta = 0.15", "eta = 2").replace(
                     "ratio_11 = 0.37", "ratio_11 = -1"), 6,
                 "[coupling] ratio_11: ratios must be non-negative",
                 id="values-in-file-order"),
    pytest.param(SWEEP_CFG.replace("0.8, 1.6", "0.8, 1.6, 2.4").replace(
                     "step_thz = 0.05", "step_thz = nan"), 13,
                 "[sweep] step_thz: start, stop and step must be finite",
                 id="values-before-cross-key-rules"),
])
def test_several_faults_are_reported_in_order(tmp_path, capsys, text, lineno,
                                              message):
    cfg = _write(tmp_path / "cfg.ini", text)
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"ERROR 2: {cfg}:{lineno}: {message}\n"


# A value of a section that the command does not read is checked all the
# same, at its line, before anything is solved, and so are the rules across
# the keys of [sweep] and [spectrum]: (command, line, problem)
UNREAD_VALUES = [
    ("sweep", "eta_mode = banana", "must be 'fixed' or 'free'"),
    ("sweep", "restarts = 0", "need at least one restart"),
    ("sweep", "restarts = 2.5", "expected an integer, got '2.5'"),
    ("sweep", "ratio_2_bounds = 0.8, 0.0", "must satisfy lo < hi"),
    ("sweep", "weight_mode = Equal", "must be 'photon_fraction' or 'equal'"),
    ("sweep", "linewidth_thz = 0", "linewidths must be positive"),
    ("sweep", "effective_mass_ratio = banana", "expected a number, got 'banana'"),
    ("sweep", "effective_mass_ratio = 0", "must be finite and positive"),
    ("spectrum", "ratio_11_bounds = -1, 0.8", "must be finite and non-negative"),
    ("fit", "step_thz = nan", "start, stop and step must be finite"),
    ("fit", "freq_min_thz = inf", "start, stop and step must be finite"),
    ("fit", "linewidth_thz = 1e200", "linewidths must not exceed 1e+150"),
    ("fit", "effective_mass_ratio = 1e-4", "must be at least 0.001"),
    ("sweep", "linewidth_thz = 0.04, 0.04, 0.04", "need one linewidth or 4"),
    ("sweep", "freq_step_thz = 5.0", "grid contains fewer than two points"),
    ("fit", "stop_thz = 0.01", "stop must exceed start"),
    ("fit", "freq_max_thz = 0.01", "stop must exceed start"),
    ("fit", "linewidth_thz = 0.04, 0.05", "need one linewidth or 4"),
]


@pytest.mark.parametrize("command, line, problem", UNREAD_VALUES, ids=[
    f"{command}-{line.replace(' ', '')}" for command, line, _ in UNREAD_VALUES])
def test_values_of_unread_sections_are_checked(tmp_path, capsys, peaks_csv,
                                               monkeypatch, command, line,
                                               problem):
    def explode(*args, **kwargs):
        raise AssertionError("the command ran before its config was checked")

    monkeypatch.setattr(dispersion, "sweep", explode)
    monkeypatch.setattr(sys.modules["mmhopfield.fit"], "fit", explode)
    key = line.split(" =")[0]
    text = SHIPPED_STRUCTURED.read_text()
    old = next(ln for ln in text.splitlines() if ln.startswith(key + " ="))
    text = text.replace(old, line)
    cfg = _write(tmp_path / "cfg.ini", text)
    lineno = text.splitlines().index(line) + 1
    section = next(s for s, keys in cli._KEYS.items() if key in keys)
    argv = [command, "--config", cfg, "--out", str(tmp_path)]
    if command == "fit":
        argv += ["--peaks", peaks_csv]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"ERROR 2: {cfg}:{lineno}: [{section}] {key}: {problem}\n")


@pytest.mark.parametrize("text, lineno, message", [
    pytest.param(SWEEP_CFG + "[coupling]\n", 14,
                 "duplicate section [coupling]", id="duplicate-section"),
    pytest.param(SWEEP_CFG.replace("eta = 0.15", "eta = 0.15\nETA: 0.2"), 9,
                 "[coupling] eta: duplicate key", id="duplicate-key"),
    pytest.param("eta = 0.15\n" + SWEEP_CFG, 1, "key outside any section",
                 id="key-outside-a-section"),
    pytest.param(SWEEP_CFG.replace("ratio_11 = 0.37", "ratio_11 0.37"), 6,
                 "expected 'key = value', got 'ratio_11 0.37'",
                 id="no-delimiter"),
    pytest.param("[DEFAULT]\neta = 0.15\n" + SWEEP_CFG.replace("eta = 0.15\n", ""),
                 1, "unknown section [DEFAULT]", id="default-section"),
    pytest.param(SWEEP_CFG + "[bananas]\n", 14, "unknown section [bananas]",
                 id="unknown-section"),
])
def test_config_syntax_errors_name_their_line(tmp_path, capsys, text, lineno,
                                              message):
    cfg = _write(tmp_path / "cfg.ini", text)
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"ERROR 2: {cfg}:{lineno}: {message}\n"
    assert not (tmp_path / "branches.csv").exists()


def test_unreadable_config_exits_2(tmp_path, capsys):
    folder = tmp_path / "cfg.ini"
    folder.mkdir()
    assert cli.main(["sweep", "--config", str(folder), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"ERROR 2: {folder}: cannot read the config: Is a directory\n")


SHIPPED_STRUCTURED = Path(cli.__file__).parent / "configs" / "structured.cfg"

# structured.cfg in the rest of the dialect the reader accepts
STRUCTURED_DIALECT_CFG = """\
; ':' delimiters, inline comments, a wrapped list and upper-case keys
[photon_modes]
FREQUENCIES_THZ: 0.8,   ; the list goes on below
    1.6
Labels = LC, dipolar  # inline comment

[coupling]
ratio_11: 0.28
Ratio_2_Tilde : 0.1351351 ; near the LC ratio
  # an indented comment line
ETA=0.999

[material]
effective_mass_ratio: 0.07

[sweep]
start_thz: 0.05
stop_thz: 2.2
step_thz: 0.01   # 216 points

[spectrum]
linewidth_thz = 0.04
freq_min_thz = 0.05
freq_max_thz = 2.6
freq_step_thz = 0.005
WEIGHT_MODE = photon_fraction

[fit]
ratio_11_bounds = 0.0, 0.8
ratio_2_bounds = 0.0, 0.8
eta_mode = fixed
restarts = 8
"""


def _maps(cfg, out):
    for command in ("sweep", "spectrum"):
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
    return [(out / name).read_bytes() for name in ("branches.csv",
                                                   "spectrum.csv")]


def test_config_dialect_gives_the_shipped_outputs(tmp_path):
    cfg = _write(tmp_path / "dialect.cfg", STRUCTURED_DIALECT_CFG)
    assert _maps(cfg, tmp_path / "dialect") == _maps(SHIPPED_STRUCTURED,
                                                     tmp_path / "shipped")


def _identity_overlap_branches(tmp_path, ratio):
    """branches.csv lines of structured.cfg at eta = 0 with both ratios at
    ratio, swept from 1e-6 THz."""
    text = SHIPPED_STRUCTURED.read_text()
    for key, value in (("ratio_11", ratio), ("ratio_2_tilde", ratio),
                       ("eta", "0"), ("start_thz", "1e-6")):
        text = _with_value(text, key, value)
    cfg = _write(tmp_path / f"eta0-{ratio}.cfg", text)
    out = tmp_path / ratio
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    return (out / "branches.csv").read_text().splitlines()


def test_identity_overlap_sweeps_from_near_zero_field(tmp_path):
    # at eta = 0 each photon couples to its own matter mode alone, and the
    # lowest branch at 1e-6 THz is the closed-form nu_1 nu_c / nu_upper,
    # 3.16227766e-07 THz at ratios 1.5
    lines = _identity_overlap_branches(tmp_path, "1.5")
    assert lines[1].startswith("1e-06,1,3.16227766e-07,")
    # deep-strong ratios run too, and keep the written digits
    lines = _identity_overlap_branches(tmp_path, "1e3")
    lower, _ = oracles.two_mode_secular(0.8, 1e-6,
                                        1e3 * 0.8 * math.sqrt(1e-6 / 0.8))
    assert lines[1].startswith("1e-06,1,")
    assert math.isclose(float(lines[1].split(",")[2]), lower, rel_tol=1e-8)


def test_byte_order_mark_gives_the_shipped_outputs(tmp_path):
    # editors on some systems save UTF-8 with a leading byte-order mark
    text = SHIPPED_STRUCTURED.read_text()
    cfg = tmp_path / "bom.cfg"
    cfg.write_text(text, encoding="utf-8-sig")
    assert cfg.read_bytes().startswith(b"\xef\xbb\xbf#")
    outputs = []
    for path, out in ((cfg, "bom"), (SHIPPED_STRUCTURED, "shipped")):
        assert cli.main(["sweep", "--config", str(path), "--out",
                         str(tmp_path / out)]) == 0
        outputs.append([(tmp_path / out / name).read_bytes()
                        for name in ("branches.csv", "features.json")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("bom, old, new, lineno", [
    (b"", b"labels = LC, dipolar", b"labels = caf\xe9, x", 8),
    (b"", b"# patch, eta", b"# patch, \xe9ta", 4),
    # the line is counted in the bytes after the mark
    (b"\xef\xbb\xbf", b"labels = LC, dipolar", b"labels = caf\xe9, x", 8),
], ids=["value", "comment", "after-byte-order-mark"])
def test_non_utf8_byte_names_its_line(tmp_path, capsys, bom, old, new,
                                      lineno):
    # a Latin-1 config: the whole file is decoded before a line is read
    data = SHIPPED_STRUCTURED.read_bytes()
    assert data.count(old) == 1
    cfg = _write(tmp_path / "latin1.cfg", bom + data.replace(old, new))
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"ERROR 2: {cfg}:{lineno}: non-UTF-8 byte 0xe9\n")
    assert not (tmp_path / "branches.csv").exists()


def test_percent_in_a_value_is_literal(tmp_path):
    text = SHIPPED_STRUCTURED.read_text()
    assert "labels = LC, dipolar" in text
    cfg = _write(tmp_path / "percent.cfg",
                 text.replace("labels = LC, dipolar", "labels = LC 50%, dipolar"))
    assert _maps(cfg, tmp_path / "percent") == _maps(SHIPPED_STRUCTURED,
                                                     tmp_path / "shipped")


def test_missing_peaks_file_exits_4(tmp_path, capsys):
    cfg = _write(tmp_path / "cfg.ini", FIT_CFG)
    missing = str(tmp_path / "nope.csv")
    rc = cli.main(["fit", "--config", cfg, "--out", str(tmp_path),
                   "--peaks", missing])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("ERROR 4:") and missing in err


def test_missing_profile_file_exits_4(tmp_path, capsys):
    rc = cli.main(["overlap", "--profiles", str(tmp_path / "a.dat"),
                   str(tmp_path / "b.dat"), "--out", str(tmp_path)])
    assert rc == 4
    assert "not found" in capsys.readouterr().err


def test_single_profile_exits_2(tmp_path, lc_profile, capsys):
    pa = tmp_path / "lc.dat"
    overlap.save_profile(str(pa), lc_profile)
    rc = cli.main(["overlap", "--profiles", str(pa), "--out", str(tmp_path)])
    assert rc == 2
    assert "two" in capsys.readouterr().err


def test_solver_failure_exits_3(tmp_path, peaks_csv, monkeypatch, capsys):
    cfg = _write(tmp_path / "cfg.ini", FIT_CFG)

    def explode(*args, **kwargs):
        raise mm.ConvergenceError("no simplex restart converged")

    # the fit runner takes fit() from its submodule when it runs
    monkeypatch.setattr(sys.modules["mmhopfield.fit"], "fit", explode)
    rc = cli.main(["fit", "--config", cfg, "--out", str(tmp_path),
                   "--peaks", peaks_csv])
    assert rc == 3
    assert capsys.readouterr().err.startswith("ERROR 3:")


def test_missing_config_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["sweep"])
    assert excinfo.value.code == 2


# Run in a fresh interpreter: the test process itself has scipy loaded. No
# command needs scipy, numpy.random, numpy.ma or configparser; numpy 1.x
# imports numpy.random and numpy.ma with numpy itself, so only what a run adds
# to that counts.
_UNUSED_MODULES = """
def unused_modules():
    return sorted(name for name in set(sys.modules) - with_numpy
                  if name.split(".")[0] in ("scipy", "configparser")
                  or name.startswith(("numpy.random", "numpy.ma")))
"""

_NO_SCIPY_SCRIPT = """
import contextlib, io, sys
import numpy
with_numpy = set(sys.modules)
import mmhopfield, mmhopfield.cli
from mmhopfield import cli, overlap
""" + _UNUSED_MODULES + """
cfg, out = sys.argv[1], sys.argv[2]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main(["--help"])
    except SystemExit as exc:
        assert exc.code == 0, exc.code
for command in ("sweep", "spectrum"):
    assert cli.main([command, "--config", cfg, "--out", out]) == 0, command
lc = overlap.synthetic_profile("lc", nx=24, ny=24, dx=2.5, dy=2.5)
dipolar = overlap.synthetic_profile("dipolar", nx=24, ny=24, dx=2.5, dy=2.5)
overlap.save_profile(out + "/lc.dat", lc)
overlap.save_profile(out + "/dipolar.dat", dipolar)
overlap.save_mask(out + "/patch.dat",
                  overlap.central_square_mask(24, 24, 2.5, 2.5, 7.5), 2.5, 2.5)
assert cli.main(["overlap", "--profiles", out + "/lc.dat", out + "/dipolar.dat",
                 "--mask", out + "/patch.dat", "--out", out]) == 0
print(unused_modules())
"""


def test_non_fit_commands_do_not_import_scipy(tmp_path):
    spectrum = SPECTRUM_CFG[SPECTRUM_CFG.index("[spectrum]"):]
    cfg = _write(tmp_path / "cfg.ini", SWEEP_CFG + "\n" + spectrum)
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, cfg,
                           str(tmp_path)], capture_output=True, text=True,
                          env=_package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    for name in ("branches.csv", "spectrum.csv", "overlap.json"):
        assert (tmp_path / name).exists()


_FIT_NO_SCIPY_SCRIPT = """
import sys
import numpy
with_numpy = set(sys.modules)
from mmhopfield import cli
""" + _UNUSED_MODULES + """
cfg, peaks, out = sys.argv[1:]
assert cli.main(["fit", "--config", cfg, "--peaks", peaks, "--out", out]) == 0
print(unused_modules())
"""


def test_fit_command_does_not_import_scipy(tmp_path, peaks_csv):
    cfg = _write(tmp_path / "cfg.ini", FIT_CFG)
    proc = subprocess.run([sys.executable, "-c", _FIT_NO_SCIPY_SCRIPT, cfg,
                           peaks_csv, str(tmp_path)], capture_output=True,
                          text=True, env=_package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert (tmp_path / "fit_residuals.csv").exists()


# The package loads each submodule on first use, and each command imports
# only the submodules it runs; errors is the one cli needs to start. numpy
# loads only once a command computes.
_LOADED_MODULES_SCRIPT = """
import sys
from mmhopfield.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(code, "numpy" in sys.modules,
      " ".join(sorted(name for name in sys.modules
                      if name.startswith("mmhopfield."))))
"""

_COMMAND_MODULES = {
    "--help": (False, "cli errors"),
    "sweep": (True, "bogoliubov cli dispersion errors model"),
    "spectrum": (True, "bogoliubov cli dispersion errors model"),
    "overlap": (True, "cli errors overlap"),
    "fit": (True, "bogoliubov cli errors fit model"),
}


@pytest.mark.parametrize("command", sorted(_COMMAND_MODULES))
def test_each_command_loads_only_its_modules(tmp_path, peaks_csv, command):
    spectrum = SPECTRUM_CFG[SPECTRUM_CFG.index("[spectrum]"):]
    cfg = _write(tmp_path / "cfg.ini", FIT_CFG + "\n" + SWEEP_CFG[
        SWEEP_CFG.index("[sweep]"):] + "\n" + spectrum)
    profiles = []
    for kind in ("lc", "dipolar"):
        profiles.append(str(tmp_path / f"{kind}.dat"))
        overlap.save_profile(profiles[-1], overlap.synthetic_profile(
            kind, nx=24, ny=24, dx=2.5, dy=2.5))
    argv = {"--help": ["--help"],
            "overlap": ["overlap", "--profiles", *profiles],
            "fit": ["fit", "--config", cfg, "--peaks", peaks_csv]}.get(
                command, [command, "--config", cfg])
    if command != "--help":
        argv += ["--out", str(tmp_path)]
    proc = subprocess.run([sys.executable, "-c", _LOADED_MODULES_SCRIPT,
                           *argv], capture_output=True, text=True,
                          env=_package_env())
    assert proc.returncode == 0, proc.stderr
    numpy, names = _COMMAND_MODULES[command]
    expected = " ".join(f"mmhopfield.{name}" for name in names.split())
    assert proc.stdout.splitlines()[-1] == f"0 {numpy} {expected}"


# (section, line) of each key of the retired microscopic coupling route
RETIRED_KEYS = [("coupling", "mode_volumes_m3 = 1e-17, 2e-17"),
                ("material", "sheet_density_per_cm2 = 1.25e12"),
                ("material", "qw_count = 3"),
                ("material", "background_permittivity = 12.9")]


def _retired_key_row(section, line):
    """A row of test_front_end_exits_without_numpy: the retired key in a
    sweep config, where the ratios or the tesla grid's [material] keys sit,
    is an unknown key at its line."""
    if section == "coupling":  # the volumes stood in for the ratios
        text = SWEEP_CFG.replace("ratio_11 = 0.37\nratio_2_tilde = 0.2124026",
                                 line)
    else:
        text = MATERIAL_CFG + line + "\n"
    key = line.split(" =")[0]
    lineno = text.splitlines().index(line) + 1
    return pytest.param("sweep --config {cfg}", text, 2,
                        f"ERROR 2: {{cfg}}:{lineno}: [{section}] {key}: "
                        "unknown key\n", id=f"{section}-{key.replace('_', '-')}")


# With None in sys.modules["numpy"], any import of numpy raises ImportError,
# which main() does not catch: a call that reaches numpy fails with a
# traceback instead of its exit code and message.
_NO_NUMPY_SCRIPT = """
import sys
sys.modules["numpy"] = None
from mmhopfield.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv, text, code, message", [
    pytest.param("--help", None, 0, "", id="help"),
    pytest.param("bananas", None, 2, "invalid choice: 'bananas'",
                 id="unknown-command"),
    pytest.param("sweep --config {missing}", None, 2,
                 "ERROR 2: config file not found: {missing}\n",
                 id="missing-config"),
    pytest.param("sweep --config {cfg}", SWEEP_CFG + "[bananas]\n", 2,
                 "ERROR 2: {cfg}:14: unknown section [bananas]\n",
                 id="unknown-section"),
    pytest.param("sweep --config {cfg}",
                 SWEEP_CFG.replace("eta = 0.15", "eta = 0.15\neta = 0.2"), 2,
                 "ERROR 2: {cfg}:9: [coupling] eta: duplicate key\n",
                 id="duplicate-key"),
    pytest.param("sweep --config {cfg}", SWEEP_CFG.encode().replace(
                     b"labels = LC, dipolar", b"labels = caf\xe9, x"), 2,
                 "ERROR 2: {cfg}:3: non-UTF-8 byte 0xe9\n", id="non-utf8-byte"),
    pytest.param("fit --config {cfg} --peaks {missing}", FIT_CFG, 4,
                 "ERROR 4: peaks file not found: {missing}\n",
                 id="missing-peaks"),
    pytest.param("overlap --profiles {missing} {missing}", None, 4,
                 "ERROR 4: profile file not found: {missing}\n",
                 id="missing-profile"),
    # every scalar check of [photon_modes], [coupling], a THz [sweep] and
    # [spectrum] runs before numpy loads
    pytest.param("sweep --config {cfg}",
                 SWEEP_CFG.replace("eta = 0.15", "eta = 2"), 2,
                 "ERROR 2: {cfg}:8: [coupling] eta: must lie in [0, 1]\n",
                 id="eta"),
    pytest.param("sweep --config {cfg}",
                 SWEEP_CFG.replace("0.8, 1.6", "0.8, 1.6, 2.4"), 2,
                 "ERROR 2: {cfg}:3: [photon_modes] labels: 2 labels for 3 "
                 "modes\n", id="label-count"),
    pytest.param("sweep --config {cfg}",
                 SWEEP_CFG.replace("step_thz = 0.05", "step_thz = 0"), 2,
                 "ERROR 2: {cfg}:13: [sweep] step_thz: step must be "
                 "positive\n", id="sweep-step"),
    pytest.param("sweep --config {cfg}",
                 SWEEP_CFG.replace("step_thz = 0.05", "step_thz = 1e-320"), 2,
                 "ERROR 2: {cfg}:13: [sweep] step_thz: step gives more than "
                 "1000000 grid points\n", id="sweep-point-count"),
    pytest.param("sweep --config {cfg}",
                 SWEEP_CFG.replace("stop_thz = 2.2", "stop_thz = 1.0"), 2,
                 "ERROR 2: {cfg}:12: [sweep] stop_thz: sweep range [0.05, 1] "
                 "THz too narrow for feature detection; need it to span "
                 "[0.05, 2.0]\n", id="sweep-feature-span"),
    pytest.param("spectrum --config {cfg}",
                 SPECTRUM_CFG.replace("step_thz = 0.05", "step_thz = 0"), 2,
                 "ERROR 2: {cfg}:13: [sweep] step_thz: step must be "
                 "positive\n", id="spectrum-sweep-step"),
    pytest.param("spectrum --config {cfg}",
                 SPECTRUM_CFG.replace("freq_step_thz = 0.01",
                                      "freq_step_thz = 0"), 2,
                 "ERROR 2: {cfg}:19: [spectrum] freq_step_thz: step must be "
                 "positive\n", id="spectrum-step"),
    pytest.param("spectrum --config {cfg}",
                 SPECTRUM_CFG.replace("linewidth_thz = 0.04",
                                      "linewidth_thz = 0.04, 0.05"), 2,
                 "ERROR 2: {cfg}:16: [spectrum] linewidth_thz: need one "
                 "linewidth or 4\n", id="linewidth-count"),
    # fit checks [fit] and --seed before numpy loads; any existing file
    # serves as the peak file, which is read only after the config
    pytest.param("fit --config {cfg} --peaks {cfg}",
                 FIT_CFG.replace("eta_mode = fixed", "eta_mode = bananas"), 2,
                 "ERROR 2: {cfg}:13: [fit] eta_mode: must be 'fixed' or "
                 "'free'\n", id="fit-eta-mode"),
    pytest.param("fit --config {cfg} --peaks {cfg}",
                 FIT_CFG.replace("restarts = 2", "restarts = 0"), 2,
                 "ERROR 2: {cfg}:14: [fit] restarts: need at least one "
                 "restart\n", id="fit-restarts"),
    pytest.param("fit --config {cfg} --peaks {cfg}",
                 FIT_CFG.replace("restarts = 2", "restarts = 1001"), 2,
                 "ERROR 2: {cfg}:14: [fit] restarts: must not exceed 1000\n",
                 id="fit-restarts-cap"),
    pytest.param("fit --config {cfg} --peaks {cfg}",
                 FIT_CFG.replace("ratio_11_bounds = 0.0, 0.8",
                                 "ratio_11_bounds = 0.8, 0.0"), 2,
                 "ERROR 2: {cfg}:11: [fit] ratio_11_bounds: must satisfy "
                 "lo < hi\n", id="fit-bounds"),
    pytest.param("fit --config {cfg} --peaks {cfg} --seed -1", FIT_CFG, 2,
                 "ERROR 2: --seed: must be a non-negative integer\n",
                 id="fit-seed"),
    pytest.param("sweep --config {cfg}",
                 TESLA_CFG.replace("step_tesla = 0.125", "step_tesla = 0"), 2,
                 "ERROR 2: {cfg}:13: [sweep] step_tesla: step must be "
                 "positive\n", id="tesla-step"),
    pytest.param("sweep --config {cfg}", MATERIAL_CFG.replace(
                     "effective_mass_ratio = 0.07", "effective_mass_ratio = 0"), 2,
                 "ERROR 2: {cfg}:16: [material] effective_mass_ratio: must be "
                 "finite and positive\n", id="tesla-material"),
    # a tesla grid is converted without numpy, so each subcommand checks
    # its converted point count before numpy loads
    *[pytest.param(argv, TESLA_CFG.replace("step_tesla = 0.125",
                                           "step_tesla = 1e-7")
                   + FIT_CFG[FIT_CFG.index("\n[fit]"):], 2,
                   "ERROR 2: {cfg}:13: [sweep] step_tesla: step gives more "
                   "than 1000000 grid points\n",
                   id=f"{argv.split()[0]}-tesla-point-count")
      for argv in ("sweep --config {cfg}", "spectrum --config {cfg}",
                   "fit --config {cfg} --peaks {cfg}")],
    # a value is checked whether or not the command reads its section
    pytest.param("sweep --config {cfg}", SWEEP_CFG + FIT_CFG[
                     FIT_CFG.index("\n[fit]"):].replace("eta_mode = fixed",
                                                        "eta_mode = banana"), 2,
                 "ERROR 2: {cfg}:18: [fit] eta_mode: must be 'fixed' or "
                 "'free'\n", id="sweep-unread-fit-value"),
    # and so are the rules across the keys of a [spectrum] it does not read
    pytest.param("sweep --config {cfg}", SWEEP_CFG + SPECTRUM_CFG[
                     SPECTRUM_CFG.index("\n[spectrum]"):].replace(
                     "linewidth_thz = 0.04", "linewidth_thz = 0.04, 0.04, 0.04"),
                 2, "ERROR 2: {cfg}:16: [spectrum] linewidth_thz: need one "
                 "linewidth or 4\n", id="sweep-unread-linewidth-count"),
    # the keys of the retired microscopic coupling route are unknown, and
    # overlap takes no config
    *[_retired_key_row(section, line) for section, line in RETIRED_KEYS],
    pytest.param("overlap --config {cfg} --profiles {missing} {missing}",
                 None, 2, "unrecognized arguments: --config", id="overlap-config"),
])
def test_front_end_exits_without_numpy(tmp_path, argv, text, code, message):
    paths = {"cfg": str(tmp_path / "cfg.ini"),
             "missing": str(tmp_path / "missing")}
    if text is not None:
        _write(tmp_path / "cfg.ini", text)
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_SCRIPT,
         *(arg.format(**paths) for arg in argv.split())],
        capture_output=True, text=True, cwd=tmp_path, env=_package_env())
    assert proc.returncode == code, proc.stderr
    assert message.format(**paths) in proc.stderr
    if code == 0:
        assert proc.stdout.startswith("usage: mmhopfield")


def test_cyclotron_frequency_runs_without_numpy():
    script = ('import sys\nsys.modules["numpy"] = None\nimport mmhopfield\n'
              'print(mmhopfield.cyclotron_frequency(1.0))')
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=_package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{mm.cyclotron_frequency(1.0)!r}\n"


_FIT_IS_THE_FUNCTION_SCRIPT = """
import sys
import mmhopfield as mm
if sys.argv[1] == "submodule":
    import mmhopfield.fit
    from mmhopfield.fit import PeakRecord
else:
    from mmhopfield import cli
    assert cli.main(["fit", "--config", sys.argv[2], "--peaks", sys.argv[3],
                     "--out", sys.argv[4]]) == 0
from mmhopfield import fit
module = sys.modules["mmhopfield.fit"]
assert mm.fit is fit is module.fit, (mm.fit, fit)
print("ok")
"""


@pytest.mark.parametrize("first", ["submodule", "cli"])
def test_package_fit_stays_the_function(tmp_path, peaks_csv, first):
    cfg = _write(tmp_path / "cfg.ini", FIT_CFG)
    proc = subprocess.run([sys.executable, "-c", _FIT_IS_THE_FUNCTION_SCRIPT,
                           first, cfg, peaks_csv, str(tmp_path)],
                          capture_output=True, text=True, env=_package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


_PUBLIC_NAMES_SCRIPT = """
import sys
import mmhopfield
listed = set(dir(mmhopfield))
namespace = {}
exec("from mmhopfield import *", namespace)
print(sorted(set(mmhopfield.__all__) - listed),
      sorted(set(mmhopfield.__all__) - set(namespace)),
      namespace["fit"] is sys.modules["mmhopfield.fit"].fit)
"""


def test_every_public_name_resolves():
    proc = subprocess.run([sys.executable, "-c", _PUBLIC_NAMES_SCRIPT],
                          capture_output=True, text=True, env=_package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] [] True"


def _declared_entry_point():
    """The `mmhopfield` entry of [project.scripts] in the repo's pyproject."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    return scripts["mmhopfield"]


# A sitecustomize module that registers its exit hook before the child
# imports mmhopfield.cli, so the hook runs after the gc.freeze that main()
# registers. It prints whether the heap is frozen, whether the collector is
# on, and how many collections ran once numpy began to load, which happens
# only inside the command.
_EXIT_HOOK = """\
import atexit, gc, sys
_passes = []
gc.callbacks.append(lambda phase, info: phase == "start"
                    and "numpy" in sys.modules and _passes.append(phase))
atexit.register(lambda: print("gc", gc.get_freeze_count() > 0,
                              gc.isenabled(), len(_passes)))
"""


def _run_hooked(command, args, tmp_path, env):
    """Run command with args in a child that carries the exit hook; return
    the process and the hook's line."""
    hook = tmp_path / "hook"
    hook.mkdir(exist_ok=True)
    (hook / "sitecustomize.py").write_text(_EXIT_HOOK)
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(hook), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([*command, *args], capture_output=True, text=True,
                          cwd=tmp_path, env=env)
    return proc, proc.stdout.splitlines()[-1]


def _assert_sweep_runs(command, tmp_path, env=None):
    """A sweep, --help and an ERROR 2 call through command each run with the
    collector off, leave it on and the heap frozen at exit; the sweep writes
    the bytes an in-process cli.main() call writes."""
    cfg = _write(tmp_path / "cfg.ini", SWEEP_CFG)
    out = tmp_path / "child"
    proc, hook = _run_hooked(command, ["sweep", "--config", cfg,
                                       "--out", str(out)], tmp_path, env)
    assert proc.returncode == 0, proc.stderr
    assert hook == "gc True True 0"
    assert cli.main(["sweep", "--config", cfg,
                     "--out", str(tmp_path / "in-process")]) == 0
    for name in ("branches.csv", "features.json"):
        assert (out / name).read_bytes() == \
            (tmp_path / "in-process" / name).read_bytes(), name
    proc, hook = _run_hooked(command, ["--help"], tmp_path, env)
    assert proc.returncode == 0, proc.stderr
    assert hook == "gc True True 0"
    proc, hook = _run_hooked(command, ["sweep", "--config", "missing.cfg"],
                             tmp_path, env)
    assert proc.returncode == 2
    assert proc.stderr == "ERROR 2: config file not found: missing.cfg\n"
    assert hook == "gc True True 0"


def _package_env():
    """Environment in which a child imports the same package as this run."""
    src = str(Path(mm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_console_script_smoke(tmp_path):
    module, func = _declared_entry_point().split(":")
    # the body of the console script an install generates for this entry
    wrapper = ("import sys\n"
               f"from {module} import {func}\n"
               "sys.argv[0] = 'mmhopfield'\n"
               f"sys.exit({func}())\n")
    _assert_sweep_runs([sys.executable, "-c", wrapper], tmp_path,
                       env=_package_env())


def test_python_dash_m_runs_the_cli(tmp_path):
    _assert_sweep_runs([sys.executable, "-m", "mmhopfield"], tmp_path,
                       env=_package_env())


_RUNPY_SCRIPT = """
import gc, runpy, sys
if sys.argv[1] == "off":
    gc.disable()
sys.argv[1:] = ["--help"]
try:
    runpy.run_module("mmhopfield", run_name="__main__")
except SystemExit as exc:
    print(exc.code, gc.isenabled(), gc.get_freeze_count())
"""


@pytest.mark.parametrize("collector", ["on", "off"])
def test_in_process_command_line_keeps_the_callers_collector(collector):
    # main() with argv None, run in a process that goes on afterwards: the
    # collector comes back as the caller had it, and nothing stays frozen
    # before exit
    proc = subprocess.run([sys.executable, "-c", _RUNPY_SCRIPT, collector],
                          capture_output=True, text=True, env=_package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 {collector == 'on'} 0"


@pytest.mark.skipif(shutil.which("mmhopfield") is None,
                    reason="no installed mmhopfield script on PATH")
def test_installed_console_script(tmp_path):
    _assert_sweep_runs([shutil.which("mmhopfield")], tmp_path)
