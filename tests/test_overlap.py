"""Near-field overlap quadrature, synthetic fixtures, and file round-trips."""

import math
import re

import numpy as np
import pytest

import mmhopfield as mm
import oracles


def _random_profile(rng, nx=16, ny=16, dx=0.5, dy=0.5):
    values = rng.normal(size=(nx, ny)) + 1j * rng.normal(size=(nx, ny))
    return mm.FieldProfile(nx=nx, ny=ny, dx=dx, dy=dy, values=values)


def _eta(f, g, mask):
    return mm.overlap_parameters(mm.gram([f, g], mask))[0, 1]


def test_self_overlap_is_exactly_one():
    rng = np.random.default_rng(1)
    f = _random_profile(rng)
    g = _random_profile(rng)
    mask = mm.full_mask(f.nx, f.ny)
    eta = mm.overlap_parameters(mm.gram([f, g, f], mask))
    assert np.all(np.diag(eta) == 1.0)


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
        assert abs(_eta(f, g, mask) - 1.0) < 1e-12


def test_cauchy_schwarz_bound():
    rng = np.random.default_rng(3)
    mask = mm.full_mask(16, 16)
    for _ in range(1000):
        f = _random_profile(rng)
        g = _random_profile(rng)
        gram = mm.gram([f, g], mask)
        raw = abs(gram[0, 1]) / math.sqrt(gram[0, 0].real * gram[1, 1].real)
        assert raw <= 1.0 + 1e-12
        assert 0.0 <= mm.overlap_parameters(gram)[0, 1] <= 1.0


def test_overlap_integral_conjugate_symmetry():
    rng = np.random.default_rng(4)
    f = _random_profile(rng)
    g = _random_profile(rng)
    mask = mm.full_mask(f.nx, f.ny)
    gram = mm.gram([f, g], mask)
    assert gram[0, 1] == pytest.approx(gram[1, 0].conjugate(), rel=1e-12)


def _lc_self_overlap(nx, w):
    f = mm.synthetic_profile("lc", nx=nx, ny=nx, dx=60.0 / nx, dy=60.0 / nx,
                             center_width=w)
    return mm.gram([f], mm.full_mask(nx, nx))


def test_gaussian_self_overlap_analytic():
    # int exp(-r^2/w^2) d2r = pi w^2; domain much larger than w
    w = 3.0
    f_self = _lc_self_overlap(256, w)[0, 0].real
    assert f_self == pytest.approx(math.pi * w * w, rel=1e-3)


def test_grid_convergence():
    w = 3.0
    a = _lc_self_overlap(128, w)[0, 0].real
    b = _lc_self_overlap(256, w)[0, 0].real
    assert a == pytest.approx(b, rel=1e-3)


def test_fixture_pair_central_versus_full(lc_profile, dipolar_profile):
    # shared central lobe: near-perfect overlap on a small patch around the
    # center, weak overlap once the opposite-sign corner lobes are included
    central = mm.central_square_mask(lc_profile.nx, lc_profile.ny,
                                     lc_profile.dx, lc_profile.dy,
                                     half_width=7.5)
    plane = mm.full_mask(lc_profile.nx, lc_profile.ny)
    assert _eta(lc_profile, dipolar_profile, central) > 0.99
    eta_full = _eta(lc_profile, dipolar_profile, plane)
    assert eta_full < 0.3
    assert eta_full > 0.01


def test_fixture_overlap_shrinks_monotonically(lc_profile, dipolar_profile):
    widths = [20.0, 15.0, 12.0, 10.0, 8.0, 6.0, 5.0]
    etas = []
    for hw in widths:
        mask = mm.central_square_mask(lc_profile.nx, lc_profile.ny,
                                      lc_profile.dx, lc_profile.dy,
                                      half_width=hw)
        etas.append(_eta(lc_profile, dipolar_profile, mask))
    assert np.all(np.diff(etas) > 0.0)
    assert etas[-1] > 0.999


def test_corner_amplitude_tunes_full_plane_overlap_to_zero(lc_profile):
    optimize = pytest.importorskip("scipy.optimize")
    # the signed full-plane integral crosses zero at some corner amplitude
    plane = mm.full_mask(lc_profile.nx, lc_profile.ny)

    def signed(amplitude):
        dp = mm.synthetic_profile("dipolar", corner_amplitude=amplitude)
        return mm.gram([lc_profile, dp], plane)[0, 1].real

    assert signed(2.0) > 0.0
    assert signed(20.0) < 0.0
    root = optimize.brentq(signed, 2.0, 20.0, xtol=1e-10)
    tuned = mm.synthetic_profile("dipolar", corner_amplitude=root)
    assert _eta(lc_profile, tuned, plane) < 1e-6


def _assert_per_pair_bits(profiles, mask):
    """gram and overlap_parameters against the per-pair reference, bit for
    bit (signed zeros included)."""
    n = len(profiles)
    gram = mm.gram(profiles, mask)
    pairs = [[(profiles[i], profiles[j]) for j in range(n)] for i in range(n)]
    expected = np.array([[oracles.overlap_integral(f, g, mask)
                          for f, g in row] for row in pairs])
    assert gram.dtype == complex and gram.tobytes() == expected.tobytes()
    expected = np.array([[oracles.overlap_parameter(f, g, mask)
                          for f, g in row] for row in pairs])
    assert mm.overlap_parameters(gram).tobytes() == expected.tobytes()


def test_gram_keeps_the_per_pair_bits():
    rng = np.random.default_rng(14)
    for _ in range(300):
        n = int(rng.integers(2, 6))
        nx, ny = (int(k) for k in rng.integers(1, 40, 2))
        dx, dy = rng.uniform(0.1, 2.0, 2)
        profiles = []
        for _ in range(n):
            # magnitudes from 1e-5 to 1e5, some profiles real
            values = rng.normal(size=(nx, ny)) * 10.0 ** rng.uniform(-5, 5)
            if rng.random() < 0.7:
                values = values + 1j * rng.normal(size=(nx, ny))
            profiles.append(mm.FieldProfile(nx=nx, ny=ny, dx=dx, dy=dy,
                                            values=values))
        inside = rng.random((nx, ny)) < rng.uniform(0.1, 1.0)
        inside.flat[rng.integers(nx * ny)] = True
        mask = mm.DomainMask(nx=nx, ny=ny, inside=inside)
        _assert_per_pair_bits(profiles, mask)


def test_gram_keeps_the_bits_of_a_repeated_profile():
    # a copy of a profile takes the reference's general route, not its
    # exact one for a profile with itself
    rng = np.random.default_rng(15)
    f = _random_profile(rng)
    copy = mm.FieldProfile(nx=f.nx, ny=f.ny, dx=f.dx, dy=f.dy, values=f.values)
    g = _random_profile(rng)
    mask = mm.full_mask(f.nx, f.ny)
    _assert_per_pair_bits([f, copy, g], mask)


@pytest.mark.parametrize("domain", ["patch", "plane"])
def test_gram_keeps_the_bits_of_the_fixture_pair(lc_profile, dipolar_profile,
                                                 domain):
    f = lc_profile
    mask = (mm.central_square_mask(f.nx, f.ny, f.dx, f.dy, half_width=7.5)
            if domain == "patch" else mm.full_mask(f.nx, f.ny))
    _assert_per_pair_bits([lc_profile, dipolar_profile], mask)


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


def _edge_profile():
    """7 x 5 and stored column-major, with signed zeros, the smallest
    subnormal, 1e308 and negative or tiny imaginary parts."""
    values = np.empty((5, 7), dtype=complex)
    values.real = np.resize([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1,
                             -1 / 3, 2.5e-8], values.shape)
    values.imag = np.resize([-0.0, -5e-324, 1e-300, -1e308, -0.1, 7.0,
                             -2.2250738585072014e-308, 0.0], values.shape)
    return mm.FieldProfile(nx=7, ny=5, dx=0.1, dy=1 / 3, values=values.T)


@pytest.mark.parametrize("kind", ["lc", "dipolar", "edge"])
def test_profile_writer_keeps_the_per_value_bytes(tmp_path, kind, lc_profile,
                                                   dipolar_profile):
    profile = {"lc": lc_profile, "dipolar": dipolar_profile,
               "edge": _edge_profile()}[kind]
    rows, per_value = tmp_path / "rows.dat", tmp_path / "per_value.dat"
    mm.save_profile(rows, profile)
    oracles.save_profile_per_value(per_value, profile)
    assert rows.read_bytes() == per_value.read_bytes()
    # bit for bit, so the signs of the zeros count too
    back = mm.load_profile(rows)
    assert back.values.tobytes() == np.ascontiguousarray(
        profile.values).tobytes()


@pytest.mark.parametrize("kind", ["square", "edge"])
def test_mask_writer_keeps_the_per_cell_bytes(tmp_path, kind):
    if kind == "square":
        dx = dy = 0.25
        mask = mm.central_square_mask(192, 192, dx, dy, half_width=7.5)
    else:  # 7 x 5, stored column-major
        dx, dy = 0.1, 1 / 3
        inside = np.resize([True, False, False, True, True, True], (5, 7)).T
        mask = mm.DomainMask(nx=7, ny=5, inside=inside)
    rows, per_cell = tmp_path / "rows.dat", tmp_path / "per_cell.dat"
    mm.save_mask(rows, mask, dx, dy)
    oracles.save_mask_per_cell(per_cell, mask, dx, dy)
    assert rows.read_bytes() == per_cell.read_bytes()
    assert np.array_equal(mm.load_mask(rows).inside, mask.inside)


def test_bad_header_reports_line(tmp_path):
    path = tmp_path / "broken.dat"
    path.write_text("2 2 0.5\n0,0 0,0\n0,0 0,0\n")
    with pytest.raises(mm.ProfileFormatError) as err:
        mm.load_profile(path)
    assert f"{path}:1" in str(err.value)


@pytest.mark.parametrize("spacing", ["inf", "nan", "0", "-1"])
def test_non_finite_or_non_positive_spacing_rejected_at_the_header(tmp_path,
                                                                   spacing):
    path = tmp_path / "spacing.dat"
    path.write_text(f"2 2 0.5 {spacing}\n1,0 2,0\n3,0 4,0\n")
    message = "bad header value: grid spacing must be finite and positive"
    with _raises_at(path, 1, message):
        mm.load_profile(path)
    path.write_text(f"2 2 {spacing} 0.5\n1 0\n0 1\n")
    with _raises_at(path, 1, message):
        mm.load_mask(path)
    with pytest.raises(ValueError, match="finite and positive"):
        mm.FieldProfile(nx=2, ny=2, dx=0.5, dy=float(spacing),
                        values=np.ones((2, 2)))


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
    path.write_text("2 3 1.0 1.0\n0 0 0\n0 0 0\n")
    with pytest.raises(mm.ProfileFormatError) as err:
        mm.load_mask(path)
    assert str(err.value) == f"{path}: mask selects no cells"


def test_grid_mismatch_rejected():
    rng = np.random.default_rng(5)
    f = _random_profile(rng, nx=8, ny=8)
    mask = mm.full_mask(8, 8)
    g = _random_profile(rng, nx=8, ny=8, dx=0.7)
    with pytest.raises(mm.OverlapError, match="grid") as err:
        mm.gram([f, f, g], mask)
    assert err.value.entry == 2
    h = _random_profile(rng, nx=4, ny=8)
    with pytest.raises(mm.OverlapError, match="grid") as err:
        mm.gram([f, h], mask)
    assert err.value.entry == 1
    with pytest.raises(mm.OverlapError, match="mask grid") as err:
        mm.gram([h, h], mask)
    assert err.value.entry is None


def test_mask_spacing_must_match(tmp_path):
    rng = np.random.default_rng(7)
    f = _random_profile(rng, nx=8, ny=8, dx=2.5, dy=2.5)
    path = tmp_path / "mask.dat"
    mm.save_mask(path, mm.full_mask(8, 8))  # header spacing 1.0 1.0
    loaded = mm.load_mask(path)
    assert (loaded.dx, loaded.dy) == (1.0, 1.0)
    for mask in (loaded, mm.central_square_mask(8, 8, 2.5, 2.0, 5.0)):
        with pytest.raises(mm.OverlapError, match="mask spacing") as err:
            mm.gram([f, f], mask)
        assert err.value.entry is None
    mm.save_mask(path, mm.full_mask(8, 8), 2.5, 2.5)
    for mask in (mm.load_mask(path), mm.full_mask(8, 8),
                 mm.central_square_mask(8, 8, 2.5, 2.5, 5.0)):
        assert mm.gram([f, f], mask).shape == (2, 2)


def test_empty_mask_rejected():
    with pytest.raises(ValueError):
        mm.DomainMask(nx=4, ny=4, inside=np.zeros((4, 4), dtype=bool))


def test_vanishing_profile_rejected():
    rng = np.random.default_rng(6)
    f = mm.FieldProfile(nx=4, ny=4, dx=1.0, dy=1.0,
                        values=np.zeros((4, 4)))
    g = _random_profile(rng, nx=4, ny=4, dx=1.0, dy=1.0)
    gram = mm.gram([g, f], mm.full_mask(4, 4))
    with pytest.raises(mm.OverlapError, match="vanishes") as err:
        mm.overlap_parameters(gram)
    assert err.value.entry == 1


@pytest.mark.parametrize("call, message", [
    (lambda: mm.FieldProfile(nx=2, ny=3, dx=1.0, dy=1.0,
                             values=np.ones((3, 2))),
     "values shape (3, 2) does not match (2, 3)"),
    (lambda: mm.DomainMask(nx=2, ny=3, inside=np.ones((3, 2))),
     "mask shape (3, 2) does not match (2, 3)"),
    (lambda: mm.central_square_mask(8, 8, 1.0, 1.0, 0.0),
     "half_width must be positive"),
    # the cell centers nearest the middle sit 0.5 um off it
    (lambda: mm.central_square_mask(8, 8, 1.0, 1.0, 0.4),
     "half_width smaller than one grid cell"),
    (lambda: mm.synthetic_profile("lc", center_width=0.0),
     "gaussian widths must be positive"),
    (lambda: mm.synthetic_profile("dipolar", corner_width=-1.0),
     "gaussian widths must be positive"),
    (lambda: mm.synthetic_profile("ring"), "unknown profile kind 'ring'"),
], ids=["profile-shape", "mask-shape", "zero-half-width",
        "sub-cell-half-width", "zero-center-width", "negative-corner-width",
        "unknown-kind"])
def test_overlap_inputs_raise_their_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_mask_round_trip_keeps_the_spacing(tmp_path, lc_profile,
                                           dipolar_profile):
    f = lc_profile
    mask = mm.central_square_mask(f.nx, f.ny, f.dx, f.dy, 7.5)
    path = tmp_path / "patch.dat"
    mm.save_mask(path, mask)
    back = mm.load_mask(path)
    assert (back.dx, back.dy) == (f.dx, f.dy)
    assert np.array_equal(back.inside, mask.inside)
    np.testing.assert_array_equal(mm.gram([lc_profile, dipolar_profile], back),
                                  mm.gram([lc_profile, dipolar_profile], mask))
    # given values win, and a mask without spacing writes 1.0
    mm.save_mask(path, mask, 2.5, 2.5)
    assert path.read_text().startswith(f"{f.nx} {f.ny} 2.5 2.5\n")
    mm.save_mask(path, mm.full_mask(4, 4))
    assert path.read_text().startswith("4 4 1.0 1.0\n")
