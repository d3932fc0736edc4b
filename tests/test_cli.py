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
from mmhopfield import cli, model, overlap

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
    tesla_cfg = _HEAD + """
[sweep]
start_tesla = 0.125
stop_tesla = 5.125
step_tesla = 0.125
"""
    thz_cfg = _HEAD + f"""
[sweep]
start_thz = {nu_lo!r}
stop_thz = {nu_hi!r}
step_thz = {nu_step!r}
"""
    cfg_b = _write(tmp_path / "field.ini", tesla_cfg)
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


def test_unknown_config_key_exits_2_with_line(tmp_path, capsys):
    text = SWEEP_CFG.replace("[sweep]", "[sweep]\nbananas = 12")
    cfg = _write(tmp_path / "cfg.ini", text)
    lineno = text.splitlines().index("bananas = 12") + 1
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR 2:")
    assert f"{cfg}:{lineno}" in err
    assert "bananas" in err and "unknown key" in err


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


@pytest.mark.parametrize("line, message", [
    ("linewidth_thz = nan", "[spectrum]: linewidths must be finite"),
    ("linewidth_thz = inf", "[spectrum]: linewidths must be finite"),
    ("freq_max_thz = inf", "[spectrum]: start, stop and step must be finite"),
    ("freq_step_thz = nan", "[spectrum]: start, stop and step must be finite"),
])
def test_non_finite_spectrum_settings_exit_2(tmp_path, capsys, line, message):
    key = line.split(" =")[0]
    old = next(ln for ln in SPECTRUM_CFG.splitlines() if ln.startswith(key))
    cfg = _write(tmp_path / "cfg.ini", SPECTRUM_CFG.replace(old, line))
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"ERROR 2: {cfg}: {message}" in capsys.readouterr().err
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
    cfg = _write(tmp_path / "cfg.ini",
                 SWEEP_CFG.replace("step_thz = 0.05", "step_thz = 0"))
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "step" in capsys.readouterr().err


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

    monkeypatch.setattr(cli, "fit_couplings", explode)
    rc = cli.main(["fit", "--config", cfg, "--out", str(tmp_path),
                   "--peaks", peaks_csv])
    assert rc == 3
    assert capsys.readouterr().err.startswith("ERROR 3:")


def test_missing_config_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["sweep"])
    assert excinfo.value.code == 2


# run in a fresh interpreter: the test process itself has scipy loaded
_NO_SCIPY_SCRIPT = """
import contextlib, io, sys
import mmhopfield, mmhopfield.cli
from mmhopfield import cli, overlap
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
print(sorted(name for name in sys.modules
             if name == "scipy" or name.startswith("scipy.")))
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
from mmhopfield import cli
cfg, peaks, out = sys.argv[1:]
assert cli.main(["fit", "--config", cfg, "--peaks", peaks, "--out", out]) == 0
print(sorted(name for name in sys.modules
             if name == "scipy" or name.startswith("scipy.")))
"""


def test_fit_command_does_not_import_scipy(tmp_path, peaks_csv):
    cfg = _write(tmp_path / "cfg.ini", FIT_CFG)
    proc = subprocess.run([sys.executable, "-c", _FIT_NO_SCIPY_SCRIPT, cfg,
                           peaks_csv, str(tmp_path)], capture_output=True,
                          text=True, env=_package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert (tmp_path / "fit_residuals.csv").exists()


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
