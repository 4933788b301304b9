import csv
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbound import measurement

from qbound.measurement import (
    EstimationContext,
    PovmFamily,
    _invert_cdf,
    estimator_moments,
    gaussian_sharp_family,
    load_tabulated_csv,
    outcome_distribution,
    sample_outcomes,
    tabulated_family,
    tapered_sharp_family,
    validate_povm,
)
from qbound.quadrature import QuadSpec, integrate_1d
from qbound.qubit import DomainError, QubitState

from conftest import PI, SharpOracle, grid_36

STANDARD = QubitState(0.5, PI / 2, 3 * PI / 4)


def standard_ctx(eps=0.0):
    return EstimationContext(STANDARD, eps=eps)


def uniform_diagonal_family(center):
    """Flat diagonal family: x11 = 1/(2 pi), x12 = y12 = 0."""
    grid = np.linspace(center - PI, center + PI, 33)
    flat = np.full_like(grid, 1.0 / (2.0 * PI))
    zeros = np.zeros_like(grid)
    return tabulated_family(grid, flat, zeros, zeros, label="uniform")


# ------------------------------------------------------------------- contexts
def test_context_defaults_to_state_phi():
    ctx = standard_ctx()
    assert abs(ctx.center - STANDARD.phi) <= 1e-15


def test_context_rejects_cos_zero():
    with pytest.raises(DomainError):
        EstimationContext(QubitState(0.5, 1.0, PI / 2))


# --------------------------------------------------------------- sharp family
def test_sharp_family_normalization():
    fam = gaussian_sharp_family(standard_ctx())
    lo, hi = fam.window
    total = integrate_1d(fam.x11, lo, hi, fam.quad_spec())
    assert abs(total - 1.0) <= 1e-10


def test_sharp_family_edge_value():
    oracle = SharpOracle(3.0)
    fam = gaussian_sharp_family(standard_ctx())
    lo, hi = fam.window
    assert abs(float(fam.x11(hi)) - oracle.x11_edge) <= 1e-14
    assert abs(float(fam.x11(lo)) - float(fam.x11(hi))) <= 1e-16


def test_sharp_family_eigenvalues():
    fam = gaussian_sharp_family(standard_ctx())
    lo, hi = fam.window
    u = np.linspace(lo, hi, 4001)
    u = u[np.abs(u - fam.center) > 1e-9]
    lam1, lam2 = fam.eigenvalues(u)
    assert np.max(np.abs(lam1)) <= 1e-12
    assert np.max(np.abs(lam2 - 2.0 * np.asarray(fam.x11(u)))) <= 1e-12
    # at the center the sign factor is zero and both eigenvalues collapse
    c1, c2 = fam.eigenvalues(fam.center)
    assert abs(c1 - c2) <= 1e-15


def test_sharp_family_matrix_is_hermitian():
    fam = gaussian_sharp_family(standard_ctx())
    mats = fam.matrix(np.linspace(*fam.window, 11))
    assert np.max(np.abs(mats - np.conj(np.transpose(mats, (0, 2, 1))))) <= 1e-15


def test_sharp_family_rejects_bad_sigma():
    with pytest.raises(DomainError):
        gaussian_sharp_family(standard_ctx(), sigma=0.0)


def test_families_reject_nan_parameters():
    ctx = standard_ctx()
    for build in (gaussian_sharp_family, tapered_sharp_family):
        with pytest.raises(DomainError, match="sigma must be positive"):
            build(ctx, sigma=math.nan)
    with pytest.raises(DomainError, match="offdiag_scale"):
        tapered_sharp_family(ctx, offdiag_scale=math.nan)


def test_tapered_family_takes_integral_powers_only():
    ctx = standard_ctx()
    for power in (1.5, 0, 0.5, math.nan, math.inf):
        with pytest.raises(DomainError, match="taper_power must be an integer >= 1"):
            tapered_sharp_family(ctx, taper_power=power)
    assert tapered_sharp_family(ctx, taper_power=2.0).label == tapered_sharp_family(
        ctx, taper_power=2).label == "tapered-sharp(sigma=3,k=2,scale=1)"


def test_sharp_family_derivatives_match_finite_differences():
    # total parameter derivative: compare against families rebuilt at mu +/- h
    h = 1e-6
    base = QubitState(0.5, PI / 2, 3 * PI / 4)
    up = EstimationContext(base, eps=+h)
    dn = EstimationContext(base, eps=-h)
    fam = gaussian_sharp_family(EstimationContext(base))
    fam_up = gaussian_sharp_family(up)
    fam_dn = gaussian_sharp_family(dn)
    # construction angle moves with the parameter as well
    up_c = EstimationContext(QubitState(0.5, PI / 2, base.phi + h))
    dn_c = EstimationContext(QubitState(0.5, PI / 2, base.phi - h))
    fam_up_c = gaussian_sharp_family(up_c)
    fam_dn_c = gaussian_sharp_family(dn_c)
    pts = np.array([base.phi - 2.0, base.phi - 0.5, base.phi + 0.7, base.phi + 2.5])
    fd_x11 = (np.asarray(fam_up.x11(pts)) - np.asarray(fam_dn.x11(pts))) / (2 * h)
    assert np.max(np.abs(fd_x11 - np.asarray(fam.d_x11(pts)))) <= 1e-6
    fd_x12 = (np.asarray(fam_up_c.x12(pts)) - np.asarray(fam_dn_c.x12(pts))) / (2 * h)
    assert np.max(np.abs(fd_x12 - np.asarray(fam.d_x12(pts)))) <= 1e-6
    fd_y12 = (np.asarray(fam_up_c.y12(pts)) - np.asarray(fam_dn_c.y12(pts))) / (2 * h)
    assert np.max(np.abs(fd_y12 - np.asarray(fam.d_y12(pts)))) <= 1e-6


# ------------------------------------------------------------------ validation
def test_validate_sharp_family():
    ctx = standard_ctx()
    rep = validate_povm(gaussian_sharp_family(ctx), ctx)
    assert rep.completeness_residual <= 1e-9
    assert rep.min_eigenvalue >= -1e-12
    assert rep.x11_symmetry_residual <= 1e-12
    assert rep.x12_mean_residual <= 1e-12
    assert rep.y12_mean_residual <= 1e-12
    assert abs(rep.unbiasedness_residual) <= 1e-9
    assert rep.sign_conditions_ok
    assert rep.all_ok


def test_validate_flags_unnormalized_family():
    ctx = standard_ctx()
    grid = np.linspace(ctx.center - PI, ctx.center + PI, 17)
    fam = tabulated_family(grid, np.full_like(grid, 1.0 / PI), np.zeros_like(grid),
                           np.zeros_like(grid))
    rep = validate_povm(fam, ctx)
    assert abs(rep.completeness_residual - 1.0) <= 1e-9
    assert not rep.completeness_ok
    assert not rep.all_ok


def test_validate_flags_sign_violation():
    ctx = standard_ctx()
    fam = tapered_sharp_family(ctx, offdiag_scale=-0.5)
    rep = validate_povm(fam, ctx)
    assert not rep.sign_conditions_ok
    assert rep.positivity_ok  # still a valid POVM


def test_validate_tapered_family():
    ctx = standard_ctx()
    fam = tapered_sharp_family(ctx, sigma=2.5, taper_power=2, offdiag_scale=0.7)
    rep = validate_povm(fam, ctx)
    assert rep.all_ok
    lo, hi = fam.window
    assert abs(float(fam.x11(lo))) <= 1e-15
    assert abs(float(fam.x11(hi))) <= 1e-15
    # small eigenvalue is (1 - scale) * x11
    u = np.linspace(lo, hi, 101)[1:-1]
    lam1, _ = fam.eigenvalues(u)
    assert np.max(np.abs(lam1 - 0.3 * np.asarray(fam.x11(u)))) <= 1e-12


# ---------------------------------------------------------------- distribution
def test_outcome_density_equals_x11_at_construction_angle():
    ctx = standard_ctx()
    fam = gaussian_sharp_family(ctx)
    dist = outcome_distribution(ctx, fam)
    pts = np.linspace(*fam.window, 501)
    assert np.max(np.abs(dist.pdf(pts) - np.asarray(fam.x11(pts)))) <= 1e-15


def test_outcome_density_maximally_mixed():
    state = QubitState(0.0, PI / 2, 3 * PI / 4)
    ctx = EstimationContext(state)
    fam = gaussian_sharp_family(ctx)
    dist = outcome_distribution(ctx, fam)
    pts = np.linspace(*fam.window, 201)
    assert np.max(np.abs(dist.pdf(pts) - np.asarray(fam.x11(pts)))) <= 1e-16


def test_outcome_density_normalized_on_grid():
    for r, th, ph in grid_36():
        state = QubitState(r, th, ph)
        ctx = EstimationContext(state)
        fam = gaussian_sharp_family(ctx)
        dist = outcome_distribution(ctx, fam)
        total = integrate_1d(dist.pdf, *fam.window, fam.quad_spec())
        assert abs(total - 1.0) <= 1e-9


def test_outcome_distribution_rejects_negative_density():
    ctx = EstimationContext(QubitState(0.9, PI / 2, 3 * PI / 4))
    base = gaussian_sharp_family(ctx)

    def big_offdiag(u):
        return 3.0 * np.asarray(base.x11(u))

    bogus = PovmFamily(
        center=base.center,
        x11=base.x11,
        x12=big_offdiag,
        y12=base.y12,
        d_x11=base.d_x11,
        d_x12=base.d_x12,
        d_y12=base.d_y12,
        discontinuities=base.discontinuities,
    )
    with pytest.raises(DomainError, match=r"phi_hat = -?\d[\d.e+-]*$"):
        outcome_distribution(ctx, bogus)


# ----------------------------------------------------------------- family grid
def test_family_grid_is_built_once_per_spec():
    fam = gaussian_sharp_family(standard_ctx())
    spec = fam.quad_spec()
    assert fam.grid(spec) is fam.grid(spec)
    assert fam.grid() is fam.grid(spec)
    doubled = fam.grid(spec.doubled())
    assert doubled is not fam.grid(spec)
    assert doubled.x.size == 2 * fam.grid(spec).x.size


# --------------------------------------------------------------------- moments
def test_moments_mean_is_phi():
    ctx = standard_ctx()
    mean, _ = estimator_moments(ctx, gaussian_sharp_family(ctx))
    assert abs(mean - STANDARD.phi) <= 1e-9


def test_moments_variance_matches_truncated_gaussian_oracle():
    oracle = SharpOracle(3.0)
    ctx = standard_ctx()
    _, var = estimator_moments(ctx, gaussian_sharp_family(ctx))
    assert abs(var - oracle.variance) <= 1e-10
    assert abs(var - 2.8347) <= 1e-3


def test_moments_with_offset_window():
    eps = 0.25
    ctx = standard_ctx(eps=eps)
    mean, var = estimator_moments(ctx, gaussian_sharp_family(ctx))
    assert abs(mean - (STANDARD.phi + eps)) <= 1e-9
    # second moment about the true phi picks up the bias squared
    oracle = SharpOracle(3.0)
    assert abs(var - (oracle.variance + eps * eps)) <= 1e-9


# -------------------------------------------------------------------- sampling
def test_sampling_deterministic():
    ctx = standard_ctx()
    dist = outcome_distribution(ctx, gaussian_sharp_family(ctx))
    one = sample_outcomes(dist, 1000, seed=42)
    two = sample_outcomes(dist, 1000, seed=42)
    assert np.array_equal(one, two)
    other = sample_outcomes(dist, 1000, seed=43)
    assert not np.array_equal(one, other)


def test_sampling_empty_and_validation():
    ctx = standard_ctx()
    dist = outcome_distribution(ctx, gaussian_sharp_family(ctx))
    assert sample_outcomes(dist, 0, seed=1).size == 0
    with pytest.raises(ValueError):
        sample_outcomes(dist, -1, seed=1)


def interp_sampler(dist, n, seed):
    """Reference sampler: the trapezoid CDF inverted by np.interp."""
    grid = dist.grid()
    dens = np.maximum(np.asarray(dist.pdf(grid), dtype=float), 0.0)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
    cdf /= cdf[-1]
    return np.interp(np.random.default_rng(seed).random(n), cdf, grid)


def same_bits(a, b):
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize(
    "r, theta, phi, eps, seed",
    [
        (0.5, PI / 2, 3 * PI / 4, 0.0, 1),
        (0.95, PI / 3, 0.3, 0.5, 2),
        (0.95, 2.5, -2.0, -0.5, 3),
        (0.1, 0.2, 1.0, 0.25, 4),
        (0.8, PI / 2, -0.5, -0.5, 5),
    ],
)
def test_sampling_equals_interp_inversion_bit_for_bit(r, theta, phi, eps, seed):
    ctx = EstimationContext(QubitState(r, theta, phi), eps=eps)
    dist = outcome_distribution(ctx, gaussian_sharp_family(ctx))
    n = 100_003
    assert same_bits(sample_outcomes(dist, n, seed), interp_sampler(dist, n, seed))


def crafted_cdf():
    """A CDF with a leading zero stretch, subnormal increments (slopes that
    overflow), a long flat middle, a spike and a flat top."""
    dens = np.concatenate([
        np.zeros(40),
        np.full(20, 1e-310),
        np.linspace(0.0, 3.0, 300),
        np.zeros(2500),
        np.full(5, 1e3),
        np.linspace(1.0, 0.0, 400),
        np.zeros(60),
    ])
    grid = np.linspace(-1.0, 2.0, dens.size)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
    cdf /= cdf[-1]
    return cdf, grid


@pytest.mark.parametrize("n", [1, 2**15 - 1, 2**15 + 1, 100_000])
def test_invert_cdf_equals_interp_on_crafted_cdf(n):
    cdf, grid = crafted_cdf()
    steps = np.diff(cdf)
    assert np.any(steps == 0.0)
    assert np.any((steps > 0.0) & (steps < (grid[1] - grid[0]) / np.finfo(float).max))
    u = np.random.default_rng(n).random(n)
    special = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], cdf[cdf < 1.0]])
    u[: special.size] = special[:n]
    assert same_bits(_invert_cdf(u, cdf, grid), np.interp(u, cdf, grid))


def test_sampling_clt_agreement():
    oracle = SharpOracle(3.0)
    ctx = standard_ctx()
    dist = outcome_distribution(ctx, gaussian_sharp_family(ctx))
    n = 100_000
    draws = sample_outcomes(dist, n, seed=20260810)
    dev = draws - STANDARD.phi
    mean_se = np.std(draws, ddof=1) / math.sqrt(n)
    assert abs(np.mean(draws) - STANDARD.phi) <= 3.0 * mean_se
    sq = dev * dev
    var_se = np.std(sq, ddof=1) / math.sqrt(n)
    assert abs(np.mean(sq) - oracle.variance) <= 3.0 * var_se


def test_sampling_variance_tightens_with_n():
    oracle = SharpOracle(3.0)
    ctx = standard_ctx()
    dist = outcome_distribution(ctx, gaussian_sharp_family(ctx))
    errs = []
    for n in (10_000, 100_000):
        draws = sample_outcomes(dist, n, seed=7)
        errs.append(abs(np.mean((draws - STANDARD.phi) ** 2) - oracle.variance))
    assert errs[1] <= errs[0]


# ------------------------------------------------------------------- tabulated
def test_tabulated_family_interpolates_nodes():
    grid = np.linspace(-1.0, 1.0, 9)
    vals = 0.25 * (1.0 + 0.5 * np.cos(grid))
    fam = tabulated_family(grid, vals, np.zeros_like(grid), np.zeros_like(grid))
    assert np.max(np.abs(np.asarray(fam.x11(grid)) - vals)) <= 1e-15
    assert fam.center == 0.0
    # window inferred from the tabulation extremes
    assert fam.window == (-1.0, 1.0)


def test_tabulated_family_validation_errors():
    grid = np.linspace(0.0, 1.0, 5)
    zeros = np.zeros_like(grid)
    with pytest.raises(ValueError, match="increasing"):
        tabulated_family(grid[::-1], zeros, zeros, zeros)
    with pytest.raises(ValueError, match="shape"):
        tabulated_family(grid, zeros[:-1], zeros, zeros)
    with pytest.raises(ValueError, match="two"):
        tabulated_family(grid[:1], zeros[:1], zeros[:1], zeros[:1])


def test_tabulated_family_copies_its_columns():
    ctx = standard_ctx()
    base = gaussian_sharp_family(ctx)
    grid = np.linspace(ctx.center - PI, ctx.center + PI, 41)
    cols = [np.asarray(f(grid), dtype=float) for f in (base.x11, base.x12, base.y12)]
    fam = tabulated_family(grid, *cols)
    before = validate_povm(fam, ctx).as_dict()
    grid += 0.5
    for col in cols:
        col *= 3.0
    assert validate_povm(fam, ctx).as_dict() == before


def test_uniform_family_is_complete():
    ctx = standard_ctx()
    fam = uniform_diagonal_family(ctx.center)
    rep = validate_povm(fam, ctx)
    assert rep.completeness_residual <= 1e-9
    assert rep.all_ok


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "family.csv"
    grid = np.linspace(-PI, PI, 21)
    flat = np.full_like(grid, 1.0 / (2.0 * PI))
    lines = ["phi_hat,x11,x12,y12"]
    for i in range(grid.size):
        lines.append(f"{float(grid[i])!r},{float(flat[i])!r},0.0,0.0")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    fam = load_tabulated_csv(path)
    assert abs(fam.center) <= 1e-12
    pts = np.linspace(-3.0, 3.0, 11)
    assert np.max(np.abs(np.asarray(fam.x11(pts)) - 1.0 / (2.0 * PI))) <= 1e-15


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c,d\n0,1,0,0\n1,1,0,0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        load_tabulated_csv(path)


def test_csv_rejects_non_numeric_cell(tmp_path):
    path = tmp_path / "repr.csv"
    path.write_text("phi_hat,x11,x12,y12\n-1.0,0.5,0,0\nnp.float64(0.5),0.5,0,0\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3:") + ".*np.float64"):
        load_tabulated_csv(path)


def _reference_rows(path):
    """load_tabulated_csv's csv.reader + float() loop, kept here as the
    reference the loader must match: the (n, 4) array it hands to
    tabulated_family, or the error it raises."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty POVM table")
        expected = ["phi_hat", "x11", "x12", "y12"]
        if [h.strip() for h in header] != expected:
            raise ValueError(f"{path}: header must be {','.join(expected)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 columns")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least two rows")
    return np.asarray(rows, dtype=float)


def _loaded_rows(path):
    """The columns load_tabulated_csv hands to tabulated_family, as (n, 4)."""
    with mock.patch.object(measurement, "tabulated_family",
                           lambda *cols, label: np.column_stack(cols)):
        return load_tabulated_csv(path)


def _outcome(load, path):
    """The rows as uint64 bit patterns, or the exception class and message."""
    try:
        return load(path).view(np.uint64).tolist()
    except Exception as exc:
        return type(exc), str(exc)


def _assert_loader_matches_reference(path, data: bytes):
    path.write_bytes(data)
    want = _outcome(_reference_rows, path)
    assert _outcome(_loaded_rows, path) == want, data


HEADER = "phi_hat,x11,x12,y12"
ROW = "0.25,0.5,0,0"
LAST = "1.0,0.5,0,0"
# bodies whose first line carries the case; blank and padded lines included
LOADER_CASES = {
    "repr": "-1.0,0.15915494309189535,0.0,-0.0\n2.5,1e-300,5e-324,1.7976931348623157e+308\n",
    "np.float64": "np.float64(0.5),0.5,0,0\n" + LAST + "\n",
    "underscores": "1_000,0.5,0,0\n2_000.5,0.5,0,0\n",
    "unicode digits": "\u0661\u0662,\uff11,\u0967.5,0\n20,0.5,0,0\n",
    "nbsp padding": "\xa00.25\xa0,0.5,0,0\n" + LAST + "\n",
    "whitespace padding": " 0.25 ,\t0.5\t,  0,0  \n" + LAST + "\n",
    "other unicode spaces": "\u20000.25\u3000,\u20280.5,\x850,0\n" + LAST + "\n",
    "nan and inf": "nan,-inf,Infinity,-nan\n+inf,NaN,-Infinity,iNf\n",
    "bad exponent": ROW + "\n1e,0.5,0,0\n",
    "hash": ROW + "\n1.0,0.5,0,0#\n",
    "hash line": ROW + "\n# comment\n" + LAST + "\n",
    "quoted cells": '"0.25",0.5,"0",0\n' + LAST + "\n",
    "quoted comma": '"0,25",0.5,0\n' + LAST + "\n",
    "crlf": ROW + "\r\n" + LAST + "\r\n",
    "bare cr": ROW + "\r" + LAST + "\r",
    "mixed line ends": ROW + "\r\n\r" + LAST + "\n\r\n",
    "blank lines": "\n\n" + ROW + "\n\n\n" + LAST + "\n\n",
    "whitespace-only line": ROW + "\n   \n" + LAST + "\n",
    "tab-only line": ROW + "\n\t\n" + LAST + "\n",
    "trailing comma": ROW + ",\n" + LAST + ",\n",
    "3 columns": "0.25,0.5,0\n1.0,0.5,0\n",
    "5 columns": ROW + ",0\n" + LAST + ",0\n",
    "ragged": ROW + "\n1.0,0.5,0\n",
    "empty cell": "0.25,,0,0\n" + LAST + "\n",
    "comma only line": ROW + "\n,,,\n" + LAST + "\n",
    "empty body": "",
    "blank body": "\n\r\n\r",
    "single row": ROW + "\n",
    "no final line end": ROW + "\n" + LAST,
    "nul in cell": ROW + "\n1.0\x00,0.5,0,0\n",
    "nul before extra cell": ROW + "\n" + LAST + "\x00,9\n",
    "ascii separators": "\x1c0.25,0.5\x1f,0,0\n" + LAST + "\n",
    "vertical tab and form feed": "\x0b0.25,0.5\x0c,0,0\n" + LAST + "\n",
    "hex and complex": "0x10,1j,0,0\n" + LAST + "\n",
    "field over the csv limit": " " * (csv.field_size_limit() + 1) + "0.25,0.5,0,0\n" + LAST + "\n",
}
# str.splitlines breaks a line at each of these, the file reader does not
for ch in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029":
    LOADER_CASES[f"U+{ord(ch):04X} inside a row"] = ROW + ch + LAST + "\n" + ROW + "\n"


@pytest.mark.parametrize("body", LOADER_CASES.values(), ids=LOADER_CASES.keys())
def test_csv_loader_matches_row_loop(tmp_path, body):
    _assert_loader_matches_reference(tmp_path / "t.csv", (HEADER + "\n" + body).encode("utf-8"))


@pytest.mark.parametrize("data", [b"", HEADER.encode(), b"a,b,c,d\n" + ROW.encode(),
                                  (HEADER + "\n" + ROW + "\n").encode() + b"\xff,0,0,0\n",
                                  # the bad row is read and named before the
                                  # decoder reaches the bad byte
                                  (HEADER + "\n" + ROW + "\n1,2\n" + (ROW + "\n") * 2000).encode()
                                  + b"\xff\n"],
                         ids=["empty file", "header only", "bad header", "bad utf-8", "bad row before bad utf-8"])
def test_csv_loader_matches_row_loop_on_whole_files(tmp_path, data):
    _assert_loader_matches_reference(tmp_path / "t.csv", data)


LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(values=st.lists(st.lists(st.floats(), min_size=4, max_size=4), max_size=12),
       end=LINE_ENDS, blank=st.integers(0, 12))
def test_csv_loader_matches_row_loop_on_repr_tables(tmp_path_factory, values, end, blank):
    lines = [",".join(repr(float(x)) for x in row) for row in values]
    lines.insert(min(blank, len(lines)), "")
    data = end.join([HEADER, *lines, ""]).encode("utf-8")
    path = tmp_path_factory.mktemp("repr") / "t.csv"
    _assert_loader_matches_reference(path, data)


CELLS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["0", "-0.5", " 1 ", "\t2", "1_0", "nan", "-inf", "Infinity", "1e", "#",
                     '"3"', "", " ", "\xa04", "\x1c5", "\x006", "\u0665", "np.float64(0.5)"]),
    st.text(max_size=6),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=st.lists(st.lists(CELLS, min_size=0, max_size=6), max_size=6), end=LINE_ENDS)
def test_csv_loader_matches_row_loop_on_arbitrary_cells(tmp_path_factory, rows, end):
    data = end.join([HEADER, *(",".join(row) for row in rows), ""]).encode("utf-8")
    path = tmp_path_factory.mktemp("cells") / "t.csv"
    _assert_loader_matches_reference(path, data)


def test_csv_loader_parses_plain_tables_in_one_call(tmp_path):
    path = tmp_path / "t.csv"
    grid = np.linspace(-PI, PI, 301)
    lines = [HEADER, *(f"{x!r},{1.0 / (2.0 * PI)!r},0.0,{0.1 * x!r}" for x in grid.tolist())]
    path.write_text("\r\n".join(lines) + "\r\n\r\n", encoding="utf-8")
    with mock.patch.object(measurement, "_parse_rows", side_effect=AssertionError("row loop")):
        fam = load_tabulated_csv(path)
    assert fam.discontinuities == tuple(grid[1:-1].tolist())
