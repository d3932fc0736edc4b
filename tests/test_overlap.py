"""Near-field overlap quadrature, synthetic fixtures, and file round-trips."""

import math
import re

import numpy as np
import pytest
from scipy import optimize

import mmhopfield as mm


def _random_profile(rng, nx=16, ny=16, dx=0.5, dy=0.5):
    values = rng.normal(size=(nx, ny)) + 1j * rng.normal(size=(nx, ny))
    return mm.FieldProfile(nx=nx, ny=ny, dx=dx, dy=dy, values=values)


def test_self_overlap_is_exactly_one():
    rng = np.random.default_rng(1)
    f = _random_profile(rng)
    mask = mm.full_mask(f.nx, f.ny)
    assert mm.overlap_parameter(f, f, mask) == 1.0


def test_scaled_copy_overlap_is_one():
    rng = np.random.default_rng(2)
    for _ in range(200):
        f = _random_profile(rng)
        scale = complex(rng.normal(), rng.normal())
        if abs(scale) < 1e-3:
            continue
        g = mm.FieldProfile(nx=f.nx, ny=f.ny, dx=f.dx, dy=f.dy,
                            values=scale * np.asarray(f.values))
        mask = mm.full_mask(f.nx, f.ny)
        assert abs(mm.overlap_parameter(f, g, mask) - 1.0) < 1e-12


def test_cauchy_schwarz_bound():
    rng = np.random.default_rng(3)
    mask = mm.full_mask(16, 16)
    for _ in range(1000):
        f = _random_profile(rng)
        g = _random_profile(rng)
        f_self = mm.overlap_integral(f, f, mask).real
        g_self = mm.overlap_integral(g, g, mask).real
        raw = abs(mm.overlap_integral(f, g, mask)) / math.sqrt(f_self * g_self)
        assert raw <= 1.0 + 1e-12
        assert 0.0 <= mm.overlap_parameter(f, g, mask) <= 1.0


def test_overlap_integral_conjugate_symmetry():
    rng = np.random.default_rng(4)
    f = _random_profile(rng)
    g = _random_profile(rng)
    mask = mm.full_mask(f.nx, f.ny)
    fg = mm.overlap_integral(f, g, mask)
    gf = mm.overlap_integral(g, f, mask)
    assert fg == pytest.approx(gf.conjugate(), rel=1e-12)


def test_gaussian_self_overlap_analytic():
    # int exp(-r^2/w^2) d2r = pi w^2; domain much larger than w
    w = 3.0
    f = mm.synthetic_profile("lc", nx=256, ny=256, dx=60.0 / 256,
                             dy=60.0 / 256, center_width=w)
    mask = mm.full_mask(f.nx, f.ny)
    f_self = mm.overlap_integral(f, f, mask).real
    assert f_self == pytest.approx(math.pi * w * w, rel=1e-3)


def test_gaussian_effective_volume():
    w = 3.0
    f = mm.synthetic_profile("lc", nx=256, ny=256, dx=60.0 / 256,
                             dy=60.0 / 256, center_width=w)
    mask = mm.full_mask(f.nx, f.ny)
    volume = 2.5e-17
    assert mm.effective_mode_volume(f, mask, volume) == pytest.approx(
        volume / (math.pi * w * w), rel=1e-3)


def test_grid_convergence():
    w = 3.0
    coarse = mm.synthetic_profile("lc", nx=128, ny=128, dx=60.0 / 128,
                                  dy=60.0 / 128, center_width=w)
    fine = mm.synthetic_profile("lc", nx=256, ny=256, dx=60.0 / 256,
                                dy=60.0 / 256, center_width=w)
    a = mm.overlap_integral(coarse, coarse, mm.full_mask(128, 128)).real
    b = mm.overlap_integral(fine, fine, mm.full_mask(256, 256)).real
    assert a == pytest.approx(b, rel=1e-3)


def test_fixture_pair_central_versus_full(lc_profile, dipolar_profile):
    # shared central lobe: near-perfect overlap on a small patch around the
    # center, weak overlap once the opposite-sign corner lobes are included
    central = mm.central_square_mask(lc_profile.nx, lc_profile.ny,
                                     lc_profile.dx, lc_profile.dy,
                                     half_width=7.5)
    plane = mm.full_mask(lc_profile.nx, lc_profile.ny)
    assert mm.overlap_parameter(lc_profile, dipolar_profile, central) > 0.99
    eta_full = mm.overlap_parameter(lc_profile, dipolar_profile, plane)
    assert eta_full < 0.3
    assert eta_full > 0.01


def test_fixture_overlap_shrinks_monotonically(lc_profile, dipolar_profile):
    widths = [20.0, 15.0, 12.0, 10.0, 8.0, 6.0, 5.0]
    etas = []
    for hw in widths:
        mask = mm.central_square_mask(lc_profile.nx, lc_profile.ny,
                                      lc_profile.dx, lc_profile.dy,
                                      half_width=hw)
        etas.append(mm.overlap_parameter(lc_profile, dipolar_profile, mask))
    assert np.all(np.diff(etas) > 0.0)
    assert etas[-1] > 0.999


def test_corner_amplitude_tunes_full_plane_overlap_to_zero(lc_profile):
    # the signed full-plane integral crosses zero at some corner amplitude
    plane = mm.full_mask(lc_profile.nx, lc_profile.ny)

    def signed(amplitude):
        dp = mm.synthetic_profile("dipolar", corner_amplitude=amplitude)
        return mm.overlap_integral(lc_profile, dp, plane).real

    assert signed(2.0) > 0.0
    assert signed(20.0) < 0.0
    root = optimize.brentq(signed, 2.0, 20.0, xtol=1e-10)
    tuned = mm.synthetic_profile("dipolar", corner_amplitude=root)
    assert mm.overlap_parameter(lc_profile, tuned, plane) < 1e-6


def test_profile_round_trip(tmp_path, dipolar_profile):
    path = tmp_path / "dp.dat"
    mm.save_profile(path, dipolar_profile)
    back = mm.load_profile(path)
    assert (back.nx, back.ny, back.dx, back.dy) == (
        dipolar_profile.nx, dipolar_profile.ny,
        dipolar_profile.dx, dipolar_profile.dy)
    assert np.array_equal(back.values, dipolar_profile.values)


def test_mask_round_trip(tmp_path):
    mask = mm.central_square_mask(32, 32, 1.0, 1.0, half_width=5.0)
    path = tmp_path / "mask.dat"
    mm.save_mask(path, mask)
    back = mm.load_mask(path)
    assert np.array_equal(back.inside, mask.inside)


def test_bad_header_reports_line(tmp_path):
    path = tmp_path / "broken.dat"
    path.write_text("2 2 0.5\n0,0 0,0\n0,0 0,0\n")
    with pytest.raises(mm.ProfileFormatError) as err:
        mm.load_profile(path)
    assert f"{path}:1" in str(err.value)


def test_truncated_profile_reports_count(tmp_path):
    path = tmp_path / "short.dat"
    path.write_text("2 2 0.5 0.5\n1,0 2,0 3,0\n")
    with pytest.raises(mm.ProfileFormatError, match="expected nx\\*ny"):
        mm.load_profile(path)


def test_malformed_entry_reports_line(tmp_path):
    path = tmp_path / "bad.dat"
    path.write_text("2 2 0.5 0.5\n1,0 2,0\nbogus 4,0\n")
    with pytest.raises(mm.ProfileFormatError) as err:
        mm.load_profile(path)
    assert f"{path}:3" in str(err.value)


def test_non_finite_entry_rejected(tmp_path):
    path = tmp_path / "nan.dat"
    path.write_text("1 2 0.5 0.5\nnan,0 1,0\n")
    with pytest.raises(mm.ProfileFormatError):
        mm.load_profile(path)


def test_mask_entry_must_be_binary(tmp_path):
    path = tmp_path / "mask.dat"
    path.write_text("1 2 1.0 1.0\n1 2\n")
    with pytest.raises(mm.ProfileFormatError) as err:
        mm.load_mask(path)
    assert "not 0 or 1" in str(err.value)


def _raises_at(path, lineno, message):
    """Expect a ProfileFormatError whose message starts at path:lineno."""
    return pytest.raises(mm.ProfileFormatError,
                         match=re.escape(f"{path}:{lineno}: {message}"))


def test_entry_with_extra_comma_reports_line(tmp_path):
    # two commas in one entry and none in the next: the comma count matches
    # nx*ny, but the entries do not
    path = tmp_path / "bad.dat"
    path.write_text("1 2 0.5 0.5\n1,2,3\n4\n")
    with _raises_at(path, 2, "entry '1,2,3' is not 're,im'"):
        mm.load_profile(path)


def test_surplus_entries_report_line(tmp_path):
    path = tmp_path / "long.dat"
    path.write_text("1 2 0.5 0.5\n1,0\n2,0\n3,0\n")
    with _raises_at(path, 4, "more than nx*ny = 2 entries"):
        mm.load_profile(path)


def test_empty_half_reports_line(tmp_path):
    path = tmp_path / "half.dat"
    path.write_text("1 2 0.5 0.5\n1,0\n2,\n")
    with _raises_at(path, 3, "bad entry '2,'"):
        mm.load_profile(path)


def test_loose_whitespace_parses_like_one_row_per_line(tmp_path):
    path = tmp_path / "loose.dat"
    path.write_bytes(b"2 2 0.5 0.5\r\n  1.5,-0  2,3e-3\t\r\n\n-4,1e300 "
                     b"nan,0\r\n")
    with pytest.raises(mm.ProfileFormatError, match="finite"):
        mm.load_profile(path)
    path.write_bytes(path.read_bytes().replace(b"nan", b"-0.0"))
    back = mm.load_profile(path)
    assert np.array_equal(back.values, [[1.5 - 0j, 2 + 3e-3j],
                                        [-4 + 1e300j, complex(-0.0, 0.0)]])
    assert math.copysign(1.0, back.values[1, 1].real) == -1.0


def test_non_ascii_byte_names_file_and_line(tmp_path):
    path = tmp_path / "latin.dat"
    path.write_bytes(b"1 2 0.5 0.5\n1,0\n2,0 \xb5\n")
    for load in (mm.load_profile, mm.load_mask):
        with _raises_at(path, 3, "non-ASCII byte 0xb5"):
            load(path)


def test_mask_bulk_and_line_errors(tmp_path):
    path = tmp_path / "mask.dat"
    path.write_text("2 3 1.0 1.0\n0 1 1\n\t1 0  0\n")
    assert mm.load_mask(path).inside.tolist() == [[False, True, True],
                                                  [True, False, False]]
    path.write_text("2 3 1.0 1.0\n0 1 1\n1 01 0\n")
    with _raises_at(path, 3, "mask entry '01' is not 0 or 1"):
        mm.load_mask(path)
    path.write_text("2 3 1.0 1.0\n0 1 1\n1 0\n")
    with pytest.raises(mm.ProfileFormatError, match="expected nx\\*ny"):
        mm.load_mask(path)


def test_grid_mismatch_rejected():
    rng = np.random.default_rng(5)
    f = _random_profile(rng, nx=8, ny=8)
    g = _random_profile(rng, nx=8, ny=8, dx=0.7)
    with pytest.raises(ValueError, match="spacing"):
        mm.overlap_integral(f, g, mm.full_mask(8, 8))
    h = _random_profile(rng, nx=4, ny=8)
    with pytest.raises(ValueError, match="dimensions"):
        mm.overlap_integral(f, h, mm.full_mask(8, 8))


def test_empty_mask_rejected():
    with pytest.raises(ValueError):
        mm.DomainMask(nx=4, ny=4, inside=np.zeros((4, 4), dtype=bool))


def test_vanishing_profile_rejected():
    f = mm.FieldProfile(nx=4, ny=4, dx=1.0, dy=1.0,
                        values=np.zeros((4, 4)))
    mask = mm.full_mask(4, 4)
    with pytest.raises(ValueError, match="vanishes"):
        mm.overlap_parameter(f, f, mask)
