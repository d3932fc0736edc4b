"""End-to-end checks of the command-line interface.

Everything runs in-process through cli.main() so exit codes and stderr can be
asserted directly. The console-script entry point declared in pyproject.toml
is run as its own process, through the same wrapper an install generates, so
no install is needed, and so is `python -m mmhopfield`; an installed script
is checked too when one is on PATH. Output files are byte-compared where
determinism is promised.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mmhopfield as mm
import oracles
from mmhopfield import cli, dispersion, model, overlap

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
    path.write_text(text)
    return str(path)


@pytest.fixture(scope="module")
def peaks_csv(tmp_path_factory):
    """Synthetic noiseless peak list from the forward model."""
    photons = [mm.PhotonMode(index=1, frequency=0.8, label="LC"),
               mm.PhotonMode(index=2, frequency=1.6, label="dipolar")]
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
    nu_lo = model.cyclotron_frequency(0.125)
    nu_hi = model.cyclotron_frequency(5.125)
    nu_step = model.cyclotron_frequency(0.125)
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
    assert all(v > 0.0 for v in data["effective_mode_volumes_m3"])

    # physical volumes from a config scale the effective volumes linearly
    cfg = _write(tmp_path / "cfg.ini",
                 "[overlap]\nphysical_volumes_m3 = 1.0e-16, 2.0e-16\n")
    out2 = tmp_path / "out2"
    rc = cli.main(["overlap", "--config", cfg, "--profiles", str(pa), str(pb),
                   "--mask", str(pm), "--out", str(out2)])
    assert rc == 0
    scaled = json.loads((out2 / "overlap.json").read_text())
    base = data["effective_mode_volumes_m3"]
    got = scaled["effective_mode_volumes_m3"]
    assert got[0] == pytest.approx(1.0e-16 * base[0], rel=1e-12)
    assert got[1] == pytest.approx(2.0e-16 * base[1], rel=1e-12)


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
    volumes = [1.3e-16, 2.7e-17, 5.1e-16][:profiles]
    cfg = _write(tmp_path / "cfg.ini", "[overlap]\nphysical_volumes_m3 = "
                 + ", ".join(map(repr, volumes)) + "\n")
    argv = ["overlap", "--config", cfg, "--profiles", *paths,
            "--out", str(tmp_path / "out")]
    f = lc_profile
    mask = overlap.full_mask(f.nx, f.ny)
    if masked:
        mask = overlap.central_square_mask(f.nx, f.ny, f.dx, f.dy, 7.5)
        overlap.save_mask(str(tmp_path / "mask.dat"), mask, f.dx, f.dy)
        argv += ["--mask", str(tmp_path / "mask.dat")]
    assert cli.main(argv) == 0
    expected = oracles.overlap_json_per_pair(
        paths, [overlap.load_profile(p) for p in paths], mask, volumes)
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
], ids=["zero", "shape", "spacing", "mask"])
def test_overlap_errors_name_the_file_at_fault(tmp_path, capsys, fault,
                                               message):
    good = overlap.synthetic_profile("lc", **_GOOD)
    second = {"zero": mm.FieldProfile(**_GOOD, values=np.zeros((8, 8))),
              "shape": overlap.synthetic_profile("lc", **{**_GOOD, "nx": 6}),
              "spacing": overlap.synthetic_profile("lc", **{**_GOOD, "dx": 2.0}),
              "mask": good}[fault]
    paths = _save_profiles(tmp_path, [good, second, good])
    argv = ["overlap", "--profiles", *paths, "--out", str(tmp_path)]
    culprit = paths[1]
    if fault == "mask":
        culprit = str(tmp_path / "mask.dat")
        overlap.save_mask(culprit, overlap.full_mask(8, 6), 2.5, 2.5)
        argv += ["--mask", culprit]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"ERROR 2: {culprit}: {message}\n"
    assert not (tmp_path / "overlap.json").exists()


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
    ("mode_volumes_m3 = nan, 1e-17",
     "[coupling] mode_volumes_m3: volumes must be finite and positive"),
])
def test_non_finite_coupling_settings_name_their_line(tmp_path, capsys, line,
                                                      message):
    key = line.split(" =")[0]
    if key == "mode_volumes_m3":  # the microscopic route replaces the ratios
        text = (SWEEP_CFG.replace("ratio_11 = 0.37\n", "")
                .replace("ratio_2_tilde = 0.2124026\n", line + "\n"))
    else:
        old = next(ln for ln in SWEEP_CFG.splitlines() if ln.startswith(key))
        text = SWEEP_CFG.replace(old, line)
    cfg = _write(tmp_path / "cfg.ini", text)
    lineno = text.splitlines().index(line) + 1
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"ERROR 2: {cfg}:{lineno}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "branches.csv").exists()


# the microscopic coupling route reads [material]
MATERIAL_CFG = SWEEP_CFG.replace("ratio_11 = 0.37\nratio_2_tilde = 0.2124026\n",
                                 "mode_volumes_m3 = 1e-17, 2e-17\n") + """
[material]
effective_mass_ratio = 0.07
sheet_density_per_cm2 = 1.25e12
qw_count = 3
background_permittivity = 12.9
"""


@pytest.mark.parametrize("key, value, problem", [
    *[("effective_mass_ratio", v, "must be finite and positive")
      for v in ("nan", "inf", "0")],
    *[("sheet_density_per_cm2", v, "must be finite and non-negative")
      for v in ("nan", "inf", "-1e12")],
    *[("background_permittivity", v, "must be finite and >= 1")
      for v in ("nan", "inf", "0.5")],
    ("qw_count", "0", "must be at least 1"),
    ("qw_count", "nan", "expected an integer, got 'nan'"),
    ("qw_count", "inf", "expected an integer, got 'inf'"),
])
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


@pytest.mark.parametrize("freqs, volumes, line, message", [
    ("0.8, 1.6, 2.4", "1e-17, 2e-17", "mode_volumes_m3 = 1e-17, 2e-17",
     "[coupling] mode_volumes_m3: 2 volumes for 3 modes"),
    ("0.8, 1.6", "1e-17, 2e-17, 3e-17", "mode_volumes_m3 = 1e-17, 2e-17, 3e-17",
     "[coupling] mode_volumes_m3: 3 volumes for 2 modes"),
    ("0.8, 1.6, 2.4", "1e-17, 2e-17, 3e-17", "frequencies_thz = 0.8, 1.6, 2.4",
     "[photon_modes] frequencies_thz: "
     "the two-mode model needs exactly two frequencies"),
])
def test_mode_volumes_must_match_the_modes(tmp_path, capsys, freqs, volumes,
                                           line, message):
    text = (MATERIAL_CFG.replace("frequencies_thz = 0.8, 1.6",
                                 f"frequencies_thz = {freqs}")
            .replace("labels = LC, dipolar\n", "")
            .replace("mode_volumes_m3 = 1e-17, 2e-17",
                     f"mode_volumes_m3 = {volumes}"))
    cfg = _write(tmp_path / "cfg.ini", text)
    lineno = text.splitlines().index(line) + 1
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"ERROR 2: {cfg}:{lineno}: {message}\n"


@pytest.mark.parametrize("volumes", ["1e-18, nan", "1e-18, inf", "-1e-18, 1e-18"])
def test_bad_physical_volumes_name_their_line(tmp_path, capsys, lc_profile,
                                              dipolar_profile, volumes):
    pa, pb = tmp_path / "lc.dat", tmp_path / "dipolar.dat"
    overlap.save_profile(str(pa), lc_profile)
    overlap.save_profile(str(pb), dipolar_profile)
    cfg = _write(tmp_path / "cfg.ini",
                 f"[overlap]\nphysical_volumes_m3 = {volumes}\n")
    rc = cli.main(["overlap", "--config", cfg, "--profiles", str(pa), str(pb),
                   "--out", str(tmp_path)])
    assert rc == 2
    assert (f"ERROR 2: {cfg}:2: [overlap] physical_volumes_m3: volumes must "
            f"be finite and positive") in capsys.readouterr().err
    assert not (tmp_path / "overlap.json").exists()


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


@pytest.mark.parametrize("command", ["sweep", "spectrum", "overlap"])
def test_seed_is_a_fit_option_only(tmp_path, capsys, command):
    cfg = _write(tmp_path / "cfg.ini", SPECTRUM_CFG)
    with pytest.raises(SystemExit) as excinfo:
        cli.main([command, "--config", cfg, "--out", str(tmp_path),
                  "--seed", "5"])
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
                 "[coupling] needs ratio_11/ratio_2_tilde or mode_volumes_m3",
                 id="no-coupling-spec"),
    pytest.param("fit", FIT_CFG.replace("labels = LC, dipolar\n", "").replace(
                     "0.8, 1.6", "0.8, 1.6, 2.4"),
                 "frequencies_thz = 0.8, 1.6, 2.4",
                 "[photon_modes] frequencies_thz: the fit needs exactly two "
                 "photon modes", id="three-mode-fit"),
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
sheet_density_per_cm2: 1.25e12
qw_count: 3
background_permittivity: 12.9

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
    pytest.param("fit --config {cfg} --peaks {missing}", FIT_CFG, 4,
                 "ERROR 4: peaks file not found: {missing}\n",
                 id="missing-peaks"),
    pytest.param("overlap --profiles {missing} {missing}", None, 4,
                 "ERROR 4: profile file not found: {missing}\n",
                 id="missing-profile"),
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


def _assert_sweep_runs(command, tmp_path, env=None):
    cfg = _write(tmp_path / "cfg.ini", SWEEP_CFG)
    proc = subprocess.run([*command, "sweep", "--config", cfg,
                           "--out", str(tmp_path)],
                          capture_output=True, text=True, cwd=tmp_path,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "branches.csv").exists()


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


@pytest.mark.skipif(shutil.which("mmhopfield") is None,
                    reason="no installed mmhopfield script on PATH")
def test_installed_console_script(tmp_path):
    _assert_sweep_runs([shutil.which("mmhopfield")], tmp_path)
