"""Command-line interface.

Subcommands: sweep, fit, overlap, spectrum. All take an INI-style config;
results are written to --out as CSV/JSON with fixed formatting so identical
configs and seeds reproduce byte-identical files. Exit codes: 0 success,
2 config or file-format error, 3 numerical error, 4 missing or insufficient
data. Errors print a single "ERROR <code>: ..." line on stderr.
"""

from __future__ import annotations

import argparse
import configparser
import io
import json
import math
import os
import re
import sys
import tempfile

import numpy as np

from . import dispersion, model, overlap
from .errors import (ConvergenceError, DataCoverageError, FitConfigError,
                     InstabilityError, NumericalError, ProfileFormatError)
# "from . import fit" would pick up the fit() function re-exported by the
# package, not the submodule, so pull the needed names in directly
from .fit import (FitConfig, FitParams, fit as fit_couplings, load_peaks,
                  record_residuals)


class ConfigError(ValueError):
    pass


_KNOWN_KEYS = {
    "photon_modes": {"frequencies_thz", "labels"},
    "coupling": {"ratio_11", "ratio_2_tilde", "eta", "mode_volumes_m3"},
    "material": {"effective_mass_ratio", "sheet_density_per_cm2", "qw_count",
                 "background_permittivity"},
    "sweep": {"start_thz", "stop_thz", "step_thz",
              "start_tesla", "stop_tesla", "step_tesla"},
    "spectrum": {"linewidth_thz", "freq_min_thz", "freq_max_thz",
                 "freq_step_thz", "weight_mode"},
    "fit": {"ratio_11_bounds", "ratio_2_bounds", "eta_mode", "eta_bounds",
            "restarts"},
    "overlap": {"physical_volumes_m3"},
}


def _key_line(path, section, key):
    """Best-effort line number of a key inside its section."""
    current = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                s = line.strip()
                if s.startswith("[") and s.endswith("]"):
                    current = s[1:-1].strip()
                elif current == section and re.match(
                        rf"{re.escape(key)}\s*[=:]", s):
                    return lineno
    except OSError:
        pass
    return None


def _cfg_error(path, section, key, problem):
    line = _key_line(path, section, key)
    where = f"{path}:{line}" if line else str(path)
    return ConfigError(f"{where}: [{section}] {key}: {problem}")


class _Config:
    """Schema-validated view of one INI config file."""

    def __init__(self, path):
        self.path = path
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        try:
            parser.read(path, encoding="utf-8")
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        for section in parser.sections():
            if section not in _KNOWN_KEYS:
                raise ConfigError(f"{path}: unknown section [{section}]")
            for key in parser[section]:
                if key not in _KNOWN_KEYS[section]:
                    raise _cfg_error(path, section, key, "unknown key")
        self.parser = parser

    def require(self, section):
        if section not in self.parser:
            raise ConfigError(f"{self.path}: missing section [{section}]")

    def has(self, section, key=None):
        if key is None:
            return section in self.parser
        return section in self.parser and key in self.parser[section]

    def get(self, section, key, default=None):
        if not self.has(section, key):
            if default is None:
                raise ConfigError(
                    f"{self.path}: missing key {key} in section [{section}]")
            return default
        return self.parser[section][key].strip()

    def get_float(self, section, key, default=None):
        raw = self.get(section, key, default)
        if isinstance(raw, float):
            return raw
        try:
            return float(raw)
        except ValueError:
            raise _cfg_error(self.path, section, key,
                             f"expected a number, got {raw!r}") from None

    def get_int(self, section, key, default=None):
        raw = self.get(section, key, default)
        if isinstance(raw, int):
            return raw
        try:
            return int(raw)
        except ValueError:
            raise _cfg_error(self.path, section, key,
                             f"expected an integer, got {raw!r}") from None

    def get_floats(self, section, key, default=None):
        raw = self.get(section, key, default)
        if not isinstance(raw, str):
            return raw
        try:
            return [float(c) for c in raw.split(",")]
        except ValueError:
            raise _cfg_error(self.path, section, key,
                             f"expected comma-separated numbers, got {raw!r}") from None


def _load_photons(cfg, volumes=None):
    cfg.require("photon_modes")
    freqs = cfg.get_floats("photon_modes", "frequencies_thz")
    if not all(0.0 < f < math.inf for f in freqs):
        raise _cfg_error(cfg.path, "photon_modes", "frequencies_thz",
                         "frequencies must be finite and positive")
    labels = [""] * len(freqs)
    if cfg.has("photon_modes", "labels"):
        labels = [c.strip() for c in cfg.get("photon_modes", "labels").split(",")]
        if len(labels) != len(freqs):
            raise _cfg_error(cfg.path, "photon_modes", "labels",
                             f"{len(labels)} labels for {len(freqs)} modes")
    if volumes is None:
        volumes = [None] * len(freqs)
    return [model.PhotonMode(index=i + 1, frequency=f, label=lab,
                             effective_mode_volume=vol)
            for i, (f, lab, vol) in enumerate(zip(freqs, labels, volumes))]


def _load_material(cfg):
    if not cfg.has("material"):
        return model.MaterialParams()
    density_cm2 = cfg.get_float("material", "sheet_density_per_cm2", 1.25e12)
    return model.MaterialParams(
        effective_mass_ratio=cfg.get_float("material", "effective_mass_ratio", 0.07),
        sheet_density=density_cm2 * 1e4,
        qw_count=cfg.get_int("material", "qw_count", 3),
        background_permittivity=cfg.get_float("material",
                                              "background_permittivity", 12.9))


def _load_coupling(cfg):
    """Photon modes plus coupling set from exactly one coupling spec."""
    cfg.require("coupling")
    has_ratios = cfg.has("coupling", "ratio_11")
    has_micro = cfg.has("coupling", "mode_volumes_m3")
    if has_ratios and has_micro:
        raise _cfg_error(cfg.path, "coupling", "mode_volumes_m3",
                         "give either normalized ratios or mode volumes, not both")
    if not has_ratios and not has_micro:
        raise ConfigError(f"{cfg.path}: [coupling] needs ratio_11/ratio_2_tilde "
                          f"or mode_volumes_m3")
    eta = cfg.get_float("coupling", "eta")
    if not 0.0 <= eta <= 1.0:
        raise _cfg_error(cfg.path, "coupling", "eta", "must lie in [0, 1]")

    if has_ratios:
        photons = _load_photons(cfg)
        if len(photons) != 2:
            raise _cfg_error(cfg.path, "photon_modes", "frequencies_thz",
                             "the two-mode model needs exactly two frequencies")
        ratio_11 = cfg.get_float("coupling", "ratio_11")
        ratio_2 = cfg.get_float("coupling", "ratio_2_tilde")
        for key, ratio in (("ratio_11", ratio_11), ("ratio_2_tilde", ratio_2)):
            if not 0.0 <= ratio < math.inf:
                raise _cfg_error(cfg.path, "coupling", key,
                                 "ratios must be non-negative" if ratio < 0.0
                                 else "ratios must be finite")
        return photons, model.couplings_from_ratios(photons, ratio_11, ratio_2, eta)

    volumes = cfg.get_floats("coupling", "mode_volumes_m3")
    if not all(0.0 < v < math.inf for v in volumes):
        raise _cfg_error(cfg.path, "coupling", "mode_volumes_m3",
                         "volumes must be finite and positive")
    photons = _load_photons(cfg, volumes=volumes)
    if len(photons) != 2 or len(volumes) != 2:
        raise _cfg_error(cfg.path, "coupling", "mode_volumes_m3",
                         "the two-mode model needs exactly two volumes")
    material = _load_material(cfg)
    ratios = [model.rabi_microscopic(m, material, m.frequency) / m.omega
              for m in photons]
    return photons, model.couplings_from_ratios(photons, ratios[0], ratios[1], eta)


def _grid(start, stop, step, what):
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError(f"{what}: start, stop and step must be finite")
    if step <= 0.0:
        raise ConfigError(f"{what}: step must be positive")
    if stop <= start:
        raise ConfigError(f"{what}: stop must exceed start")
    if start < 0.0:
        raise ConfigError(f"{what}: start must be non-negative")
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    if n < 2:
        raise ConfigError(f"{what}: grid contains fewer than two points")
    return start + step * np.arange(n)


def _load_sweep_grid(cfg):
    cfg.require("sweep")
    thz = [cfg.has("sweep", k) for k in ("start_thz", "stop_thz", "step_thz")]
    tesla = [cfg.has("sweep", k) for k in
             ("start_tesla", "stop_tesla", "step_tesla")]
    if any(thz) and any(tesla):
        raise ConfigError(f"{cfg.path}: [sweep] mixes THz and tesla keys")
    if all(thz):
        return _grid(cfg.get_float("sweep", "start_thz"),
                     cfg.get_float("sweep", "stop_thz"),
                     cfg.get_float("sweep", "step_thz"),
                     f"{cfg.path}: [sweep]")
    if all(tesla):
        material = _load_material(cfg)
        # convert the endpoints once so B- and THz-specified sweeps share the
        # exact same grid arithmetic
        return _grid(model.cyclotron_frequency(
                         cfg.get_float("sweep", "start_tesla"), material),
                     model.cyclotron_frequency(
                         cfg.get_float("sweep", "stop_tesla"), material),
                     model.cyclotron_frequency(
                         cfg.get_float("sweep", "step_tesla"), material),
                     f"{cfg.path}: [sweep]")
    raise ConfigError(f"{cfg.path}: [sweep] needs start/stop/step in THz or tesla")


def _atomic_write(path, text):
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.", text=True)
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(text)
        os.chmod(tmp, 0o644)  # mkstemp creates 0600
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _run_sweep(args):
    cfg = _Config(args.config)
    photons, coupling = _load_coupling(cfg)
    grid = _load_sweep_grid(cfg)
    result = dispersion.sweep(photons, coupling, grid)
    features = dispersion.detect_features(result, photons)

    buf = io.StringIO()
    dispersion.write_branch_csv(result, buf)
    os.makedirs(args.out, exist_ok=True)
    _atomic_write(os.path.join(args.out, "branches.csv"), buf.getvalue())
    _atomic_write(os.path.join(args.out, "features.json"), _json_text({
        "n_coupled_branches": features.n_coupled_branches,
        "n_cr_lines": features.n_cr_lines,
        "gap_at_resonance_thz": list(features.gap_at_resonance),
        "inflection_nu_c_thz": features.inflection_nu_c,
        "asymptote_low_thz": features.asymptote_low,
        "asymptote_high_thz": features.asymptote_high,
    }))
    return 0


def _spectrum_config(cfg, n_branches):
    cfg.require("spectrum")
    widths = cfg.get_floats("spectrum", "linewidth_thz")
    if len(widths) not in (1, n_branches):
        raise _cfg_error(cfg.path, "spectrum", "linewidth_thz",
                         f"need one linewidth or {n_branches}")
    grid = _grid(cfg.get_float("spectrum", "freq_min_thz"),
                 cfg.get_float("spectrum", "freq_max_thz"),
                 cfg.get_float("spectrum", "freq_step_thz"),
                 f"{cfg.path}: [spectrum]")
    mode = cfg.get("spectrum", "weight_mode", "photon_fraction")
    try:
        return dispersion.SpectrumConfig(
            frequency_grid=grid,
            linewidths=widths[0] if len(widths) == 1 else widths,
            weight_mode=mode)
    except ValueError as exc:
        raise ConfigError(f"{cfg.path}: [spectrum]: {exc}") from exc


def _run_spectrum(args):
    cfg = _Config(args.config)
    photons, coupling = _load_coupling(cfg)
    grid = _load_sweep_grid(cfg)
    result = dispersion.sweep(photons, coupling, grid)
    spec_cfg = _spectrum_config(cfg, result.n_branches)

    if spec_cfg.weight_mode == "photon_fraction":
        weights = result.photon_fractions()
    else:
        weights = np.full(result.branches.shape, 1.0 / result.n_branches)

    trans = dispersion.spectrum_from_branches(result.branches, weights, spec_cfg)
    text = "nu_c_THz,nu_THz,T\n" + dispersion.csv_rows(
        result.nu_c_values, dispersion.g9_cells(spec_cfg.frequency_grid), trans)
    os.makedirs(args.out, exist_ok=True)
    _atomic_write(os.path.join(args.out, "spectrum.csv"), text)
    return 0


def _fit_config(cfg, seed):
    cfg.require("fit")
    mode = cfg.get("fit", "eta_mode", "fixed")
    if mode not in ("fixed", "free"):
        raise _cfg_error(cfg.path, "fit", "eta_mode", "must be 'fixed' or 'free'")
    fit_eta = mode == "free"
    eta_fixed = 1.0
    if not fit_eta:
        if not cfg.has("coupling", "eta"):
            raise ConfigError(
                f"{cfg.path}: eta_mode = fixed needs [coupling] eta")
        eta_fixed = cfg.get_float("coupling", "eta")
    try:
        return FitConfig(
            ratio_11_bounds=tuple(cfg.get_floats("fit", "ratio_11_bounds",
                                                 [0.0, 1.0])),
            ratio_2_bounds=tuple(cfg.get_floats("fit", "ratio_2_bounds",
                                                [0.0, 1.0])),
            eta_fixed=eta_fixed, fit_eta=fit_eta,
            eta_bounds=tuple(cfg.get_floats("fit", "eta_bounds", [0.0, 1.0])),
            restarts=cfg.get_int("fit", "restarts", 8),
            seed=seed)
    except FitConfigError as exc:
        if exc.field == "seed":
            raise ConfigError(f"--seed: {exc.problem}") from exc
        # every other field set from the file is the [fit] key of that name,
        # but eta_fixed, which is read from [coupling] eta
        section, key = (("coupling", "eta") if exc.field == "eta_fixed"
                        else ("fit", exc.field))
        raise _cfg_error(cfg.path, section, key, exc.problem) from exc


def _run_fit(args):
    cfg = _Config(args.config)
    photons = _load_photons(cfg)
    if len(photons) != 2:
        raise ConfigError(f"{cfg.path}: the fit needs exactly two photon modes")
    if args.peaks is None:
        raise ConfigError("fit requires --peaks PATH")
    if not os.path.exists(args.peaks):
        raise DataCoverageError(f"peaks file not found: {args.peaks}")
    data = load_peaks(args.peaks)
    fit_cfg = _fit_config(cfg, args.seed)
    result = fit_couplings(data, photons, fit_cfg)
    if not result.converged:
        raise ConvergenceError(
            f"no restart converged (best rms {result.residual_rms:.6g} THz)")

    w1, w2 = photons[0].omega, photons[1].omega
    coupling = model.couplings_from_ratios(photons, result.omega_r_11 / w1,
                                           result.omega_r_2_tilde / w2,
                                           result.eta)
    back_21, back_22 = coupling.rabi[1] / math.sqrt(
        photons[0].frequency / photons[1].frequency)

    os.makedirs(args.out, exist_ok=True)
    _atomic_write(os.path.join(args.out, "fit_result.json"), _json_text({
        "omega_r_11_rad_s": result.omega_r_11,
        "omega_r_2_tilde_rad_s": result.omega_r_2_tilde,
        "ratio_11": result.omega_r_11 / w1,
        "ratio_2_tilde": result.omega_r_2_tilde / w2,
        "ratio_21_over_omega_1": back_21 / w1,
        "ratio_22_over_omega_2": back_22 / w2,
        "eta": result.eta,
        "residual_rms_thz": result.residual_rms,
        "n_evaluations": result.n_evaluations,
        "converged": result.converged,
        "seed": args.seed,
    }))

    params = FitParams(result.omega_r_11, result.omega_r_2_tilde,
                               result.eta)
    rms = record_residuals(params, data, photons).tolist()
    buf = io.StringIO()
    buf.write("record,nu_c_THz,rms_THz\n")
    for i, (rec, value) in enumerate(zip(data.records, rms)):
        buf.write(f"{i + 1},{rec.nu_c:.9g},{value:.9g}\n")
    _atomic_write(os.path.join(args.out, "fit_residuals.csv"), buf.getvalue())
    return 0


def _run_overlap(args):
    if not args.profiles or len(args.profiles) < 2:
        raise ConfigError("overlap requires at least two --profiles files")
    for path in args.profiles:
        if not os.path.exists(path):
            raise DataCoverageError(f"profile file not found: {path}")
    profiles = [overlap.load_profile(p) for p in args.profiles]
    if args.mask is not None:
        if not os.path.exists(args.mask):
            raise DataCoverageError(f"mask file not found: {args.mask}")
        mask = overlap.load_mask(args.mask)
    else:
        mask = overlap.full_mask(profiles[0].nx, profiles[0].ny)

    volumes = [1.0] * len(profiles)
    if args.config is not None:
        cfg = _Config(args.config)
        if cfg.has("overlap", "physical_volumes_m3"):
            volumes = cfg.get_floats("overlap", "physical_volumes_m3")
            if not all(0.0 < v < math.inf for v in volumes):
                raise _cfg_error(cfg.path, "overlap", "physical_volumes_m3",
                                 "volumes must be finite and positive")
            if len(volumes) != len(profiles):
                raise _cfg_error(cfg.path, "overlap", "physical_volumes_m3",
                                 f"{len(volumes)} volumes for "
                                 f"{len(profiles)} profiles")

    n = len(profiles)
    f_matrix = [[overlap.overlap_integral(profiles[i], profiles[j], mask)
                 for j in range(n)] for i in range(n)]
    eta_matrix = [[overlap.overlap_parameter(profiles[i], profiles[j], mask)
                   for j in range(n)] for i in range(n)]
    eff_volumes = [overlap.effective_mode_volume(profiles[i], mask, volumes[i])
                   for i in range(n)]

    os.makedirs(args.out, exist_ok=True)
    _atomic_write(os.path.join(args.out, "overlap.json"), _json_text({
        "profiles": list(args.profiles),
        "overlap_integrals_um2": [[[v.real, v.imag] for v in row]
                                  for row in f_matrix],
        "overlap_parameters": eta_matrix,
        "effective_mode_volumes_m3": eff_volumes,
    }))
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mmhopfield",
        description="Multi-mode ultrastrong-coupling solver: magnetic-bias "
                    "dispersion sweeps, coupling fits, near-field overlaps, "
                    "and transmission-proxy maps.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
            ("sweep", "sweep the cyclotron frequency and write branch data"),
            ("fit", "fit coupling constants to measured peak positions"),
            ("overlap", "overlap integrals of sampled near-field profiles"),
            ("spectrum", "transmission-proxy map over the sweep grid")):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", required=(name != "overlap"),
                         help="INI config file")
        cmd.add_argument("--out", default=".", help="output directory")
        if name == "fit":
            cmd.add_argument("--seed", type=int, default=0,
                             help="random seed for fit restarts")
            cmd.add_argument("--peaks", help="peak-list CSV")
        if name == "overlap":
            cmd.add_argument("--profiles", nargs="+",
                             help="field-profile files (two or more)")
            cmd.add_argument("--mask", help="integration-domain mask file")
    return parser


_RUNNERS = {"sweep": _run_sweep, "fit": _run_fit, "overlap": _run_overlap,
            "spectrum": _run_spectrum}


def _fail(code, exc):
    message = re.sub(r"\s*\n\s*", "; ", str(exc)).strip()
    print(f"ERROR {code}: {message}", file=sys.stderr)
    return code


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _RUNNERS[args.command](args)
    except DataCoverageError as exc:
        return _fail(4, exc)
    except (ConfigError, ProfileFormatError, ValueError) as exc:
        return _fail(2, exc)
    except (InstabilityError, NumericalError, ConvergenceError) as exc:
        return _fail(3, exc)
    except FileNotFoundError as exc:
        return _fail(4, exc)
    except OSError as exc:
        return _fail(4, exc)


if __name__ == "__main__":
    sys.exit(main())
