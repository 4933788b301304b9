"""POVM families on a moving outcome window, outcome statistics, and sampling.

A family here is a continuous-outcome POVM on the window
[center - pi, center + pi] whose element at outcome phi_hat is

    Pi(phi_hat) = [[x11, x12 + i y12], [x12 - i y12, x11]],

with equal diagonal entries (x22 = x11 throughout).  `center` is the
construction point mu = phi + eps, phi the state's azimuth: the window moves
with the parameter, which is the source of the boundary terms surfaced by the
audit module.

Element derivative callables (`d_x11`, ...) hold the total derivative with
respect to the construction parameter, including the dependence through the
trigonometric construction coefficients, not just through the window center.
They carry the piecewise-smooth part only: the distributional contribution
from differentiating a jump (the sign factor at the center) is not
represented.  In every combination the package integrates, that contribution
cancels identically because the families are constructed at the state's own
azimuth, the angle at which they are evaluated.

The saturating Gaussian family takes

    x11 = exp(-(phi_hat - mu)^2 / (2 sigma^2)) / (sigma sqrt(2 pi) erf(pi / (sigma sqrt 2)))
    y12 = cos(phi) * x11 * sgn(mu - phi_hat)
    x12 = sin(phi) * x11 * sgn(mu - phi_hat)

with sgn(0) = 0.  Its small eigenvalue vanishes identically away from the
center ("sharp" measurement) and the off-diagonal sign pattern makes the
maximized bound an equality.

Every window integral of a family is a contraction over the `FamilyGrid`
that `PovmFamily.grid(spec)` builds once per effective spec and keeps on the
family; the window is always split at its center.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .quadrature import QuadSpec, _check_finite, integrate_1d, nodes_1d
from .qubit import DomainError, QubitState, density_matrix

COMPLETENESS_TOL = 1e-9
EIGENVALUE_TOL = 1e-12
UNBIASEDNESS_TOL = 1e-8
DENSITY_NEG_TOL = 1e-12

# interior scan of validate_povm's eigenvalue and sign-pattern checks
VALIDATION_SCAN = 2001
# scan of outcome_distribution's negativity check
DENSITY_SCAN = 4097
# nodes of the tabulated CDF that sample_outcomes inverts
SAMPLING_NODES = 8192

_COS_MIN = 1e-12


@dataclass(frozen=True)
class EstimationContext:
    """State plus the window offset eps of the measurement construction.

    Families are constructed at the state's azimuth phi, with their window
    centred at mu = phi + eps.  cos(phi) must be nonzero because the
    construction divides by it.
    """

    state: QubitState
    eps: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.eps):
            raise DomainError("eps must be finite")
        if abs(math.cos(self.state.phi)) < _COS_MIN:
            raise DomainError(
                "construction angle has cos(phi) ~ 0; the off-diagonal "
                "construction divides by it"
            )

    @property
    def center(self) -> float:
        """Window center mu = phi + eps."""
        return self.state.phi + self.eps


@dataclass(frozen=True, eq=False)
class FamilyGrid:
    """A family's quadrature nodes and weights on its window, with its
    element arrays and their parameter derivatives at every node."""

    x: np.ndarray
    w: np.ndarray
    x11: np.ndarray
    x12: np.ndarray
    y12: np.ndarray
    d_x11: np.ndarray
    d_x12: np.ndarray
    d_y12: np.ndarray

    def trace(self, m: np.ndarray) -> np.ndarray:
        """tr(M Pi) at every node."""
        return trace_with_elements(m, self.x11, self.x12, self.y12)

    def d_trace(self, m: np.ndarray) -> np.ndarray:
        """tr(M dPi) at every node, dPi the total parameter derivative."""
        return trace_with_elements(m, self.d_x11, self.d_x12, self.d_y12)

    def integrate(self, values):
        """Window integral of per-node values; non-finite values raise
        QuadratureError naming their abscissa."""
        _check_finite(values[:, None], self.x)
        return self.w @ values


@dataclass(frozen=True)
class PovmFamily:
    """Matrix-element functions of one POVM family, plus window metadata.

    The outcome window is [center - half_width, center + half_width];
    constructed families use the full half_width = pi, tabulated ones infer
    it from their abscissa extremes.
    """

    center: float
    x11: Callable
    x12: Callable
    y12: Callable
    d_x11: Callable
    d_x12: Callable
    d_y12: Callable
    discontinuities: tuple[float, ...] = ()
    label: str = ""
    half_width: float = math.pi
    # quadrature sizing hint; tabulated families override it
    panels_hint: int = 64
    order_hint: int = 16
    # FamilyGrid per effective QuadSpec; lives and dies with the family
    _grids: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def window(self) -> tuple[float, float]:
        return (self.center - self.half_width, self.center + self.half_width)

    def quad_spec(self, spec: QuadSpec | None = None) -> QuadSpec:
        """Spec for integrals over this family's window, split at its
        discontinuities and its center.  An explicit spec keeps its
        panel/order sizing."""
        if spec is None:
            spec = QuadSpec(self.panels_hint, self.order_hint)
        splits = self.discontinuities
        if self.center not in splits:
            splits = (*splits, self.center)
        return spec.with_splits(splits)

    def grid(self, spec: QuadSpec | None = None) -> FamilyGrid:
        """Nodes, weights and element arrays for window integrals, built
        once per effective spec.  Non-finite element values raise
        QuadratureError naming their abscissa."""
        qspec = self.quad_spec(spec)
        grid = self._grids.get(qspec)
        if grid is None:
            x, w = nodes_1d(*self.window, qspec)
            x.flags.writeable = w.flags.writeable = False
            arrays = {}
            for name in ("x11", "x12", "y12", "d_x11", "d_x12", "d_y12"):
                vals = np.broadcast_to(np.asarray(getattr(self, name)(x), dtype=float), x.shape)
                _check_finite(vals[:, None], x)
                arrays[name] = vals
            grid = self._grids[qspec] = FamilyGrid(x, w, **arrays)
        return grid

    def matrix(self, phi_hat) -> np.ndarray:
        """Element matrix Pi(phi_hat); (..., 2, 2) for array input."""
        phi_hat = np.asarray(phi_hat, dtype=float)
        a = np.broadcast_to(np.asarray(self.x11(phi_hat)), phi_hat.shape)
        b = np.broadcast_to(np.asarray(self.x12(phi_hat)), phi_hat.shape)
        c = np.broadcast_to(np.asarray(self.y12(phi_hat)), phi_hat.shape)
        out = np.empty(phi_hat.shape + (2, 2), dtype=complex)
        out[..., 0, 0] = a
        out[..., 0, 1] = b + 1j * c
        out[..., 1, 0] = b - 1j * c
        out[..., 1, 1] = a
        return out

    def eigenvalues(self, phi_hat) -> tuple[np.ndarray, np.ndarray]:
        """(lam1, lam2) with lam1 <= lam2, elementwise over phi_hat."""
        a = np.asarray(self.x11(phi_hat), dtype=float)
        root = np.sqrt(np.asarray(self.x12(phi_hat)) ** 2 + np.asarray(self.y12(phi_hat)) ** 2)
        return a - root, a + root


def _zero(phi_hat):
    return np.zeros_like(np.asarray(phi_hat, dtype=float))


def _sharp_family(ctx: EstimationContext, x11, d_x11, scale: float, label: str) -> PovmFamily:
    """Sharp construction on the diagonal profile x11: the off-diagonals are
    scale * (sin, cos)(phi) * x11 * sgn(mu - phi_hat), and d_x11 is the
    profile's total parameter derivative."""
    mu = ctx.center
    sin_c, cos_c = math.sin(ctx.state.phi), math.cos(ctx.state.phi)

    def sgn(u):
        return np.sign(mu - np.asarray(u, dtype=float))

    def x12(u):
        return scale * sin_c * x11(u) * sgn(u)

    def y12(u):
        return scale * cos_c * x11(u) * sgn(u)

    def d_x12(u):
        return scale * (cos_c * x11(u) + sin_c * d_x11(u)) * sgn(u)

    def d_y12(u):
        return scale * (-sin_c * x11(u) + cos_c * d_x11(u)) * sgn(u)

    return PovmFamily(
        center=mu,
        x11=x11,
        x12=x12,
        y12=y12,
        d_x11=d_x11,
        d_x12=d_x12,
        d_y12=d_y12,
        discontinuities=(mu,),
        label=label,
    )


def gaussian_sharp_family(ctx: EstimationContext, sigma: float = 3.0) -> PovmFamily:
    """The saturating Gaussian family (default sigma = 3)."""
    if not sigma > 0:
        raise DomainError("sigma must be positive")
    mu = ctx.center
    norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi) * math.erf(math.pi / (sigma * math.sqrt(2.0))))
    inv_s2 = 1.0 / (sigma * sigma)

    def x11(u):
        u = np.asarray(u, dtype=float)
        return norm * np.exp(-0.5 * (u - mu) ** 2 * inv_s2)

    def d_x11(u):
        u = np.asarray(u, dtype=float)
        return x11(u) * (u - mu) * inv_s2

    return _sharp_family(ctx, x11, d_x11, 1.0, f"gaussian-sharp(sigma={sigma:g})")


def tapered_sharp_family(
    ctx: EstimationContext,
    sigma: float = 3.0,
    taper_power: int = 1,
    offdiag_scale: float = 1.0,
) -> PovmFamily:
    """Gaussian-profile family whose elements vanish at the window edges.

    x11 is the Gaussian profile multiplied by cos^{2k}((phi_hat - mu)/2) and
    renormalized; the off-diagonals follow the sharp construction scaled by
    |offdiag_scale| <= 1, so the small eigenvalue is (1 - |scale|) x11 >= 0.
    Because the elements vanish at the edges, the moving-window boundary term
    vanishes for this family.
    """
    if not sigma > 0:
        raise DomainError("sigma must be positive")
    if not (math.isfinite(taper_power) and taper_power >= 1 and taper_power == int(taper_power)):
        raise DomainError("taper_power must be an integer >= 1")
    if not abs(offdiag_scale) <= 1.0:
        raise DomainError("|offdiag_scale| must be <= 1 to keep the POVM positive")
    mu = ctx.center
    inv_s2 = 1.0 / (sigma * sigma)
    k = int(taper_power)

    def shape(u):
        # profile as a function of u = phi_hat - mu
        return np.exp(-0.5 * u * u * inv_s2) * np.cos(0.5 * u) ** (2 * k)

    def shape_prime(u):
        cos_half = np.cos(0.5 * u)
        return np.exp(-0.5 * u * u * inv_s2) * (
            -u * inv_s2 * cos_half ** (2 * k)
            - k * cos_half ** (2 * k - 1) * np.sin(0.5 * u)
        )

    norm = 1.0 / integrate_1d(shape, -math.pi, math.pi, QuadSpec(64, 16))

    def x11(u):
        return norm * shape(np.asarray(u, dtype=float) - mu)

    def d_x11(u):
        return -norm * shape_prime(np.asarray(u, dtype=float) - mu)

    return _sharp_family(
        ctx, x11, d_x11, offdiag_scale,
        f"tapered-sharp(sigma={sigma:g},k={k},scale={offdiag_scale:g})",
    )


def tabulated_family(phi_hat, x11, x12, y12, label: str = "tabulated") -> PovmFamily:
    """Piecewise-linear family from sampled matrix elements.

    The samples are interpreted as a parameter-independent POVM (its total
    parameter derivative is zero), the window is inferred from the abscissa
    extremes, and interpolation kinks are registered as split points so
    low-order panels integrate the elements exactly.  The columns are
    copied, so later changes to the caller's arrays do not reach the family.
    """
    phi_hat = np.array(phi_hat, dtype=float)
    if phi_hat.ndim != 1 or phi_hat.size < 2:
        raise ValueError("need at least two tabulation nodes")
    if not np.all(np.diff(phi_hat) > 0):
        raise ValueError("phi_hat column must be strictly increasing")
    cols = []
    for name, col in (("x11", x11), ("x12", x12), ("y12", y12)):
        col = np.array(col, dtype=float)
        if col.shape != phi_hat.shape:
            raise ValueError(f"column {name} has shape {col.shape}, expected {phi_hat.shape}")
        if not np.all(np.isfinite(col)):
            raise ValueError(f"column {name} contains non-finite values")
        cols.append(col)
    x11c, x12c, y12c = cols
    lo, hi = float(phi_hat[0]), float(phi_hat[-1])
    center = 0.5 * (lo + hi)

    def interp(col):
        def f(u):
            return np.interp(np.asarray(u, dtype=float), phi_hat, col)

        return f

    return PovmFamily(
        center=center,
        x11=interp(x11c),
        x12=interp(x12c),
        y12=interp(y12c),
        d_x11=_zero,
        d_x12=_zero,
        d_y12=_zero,
        discontinuities=tuple(phi_hat[1:-1].tolist()),
        label=label,
        half_width=0.5 * (hi - lo),
        panels_hint=1,
        order_hint=4,
    )


# Characters on which the fast path would part from the row loop:
# np.loadtxt strips \x1c-\x1f around an ASCII cell, which float() rejects,
# and str.splitlines breaks lines at \x0b, \x0c, \x1c-\x1e, \x85, \u2028
# and \u2029, which reading the file does not.  A body holding one goes to
# the loop.
_LOOP_ONLY = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\u2029")


def load_tabulated_csv(path) -> PovmFamily:
    """Read a (phi_hat, x11, x12, y12) CSV into a piecewise-linear family.

    The file is UTF-8 in the excel CSV dialect: a header naming the four
    columns (cells stripped), then rows of exactly four cells, each cell
    exactly what float() accepts; blank lines are skipped, and at least two
    rows are needed.  The body is parsed in one np.loadtxt call; anything
    that call cannot take, or takes as another shape, is parsed again row
    by row, and that loop names the first bad line as path:line.  Both
    paths accept the same files and return the same bits.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        data = _parse_body(fh, path)
        if data is None:
            fh.seek(0)
            data = _parse_rows(fh, path)
    return tabulated_family(data[:, 0], data[:, 1], data[:, 2], data[:, 3], label=str(path))


def _check_header(reader, path) -> None:
    header = next(reader, None)
    if header is None:
        raise ValueError(f"{path}: empty POVM table")
    expected = ["phi_hat", "x11", "x12", "y12"]
    if [h.strip() for h in header] != expected:
        raise ValueError(f"{path}: header must be {','.join(expected)}")


def _parse_body(fh, path) -> np.ndarray | None:
    """The table as an (n, 4) array from one np.loadtxt call over its lines,
    or None where the row loop must decide: a body that is blank,
    undecodable, holds one of _LOOP_ONLY or a line longer than csv's field
    limit, or that loadtxt rejects or reads as another shape."""
    _check_header(csv.reader(fh), path)
    try:
        body = fh.read()
    except ValueError:
        return None
    # loadtxt warns on a body without rows
    if not body.strip() or any(c in body for c in _LOOP_ONLY):
        return None
    lines = body.splitlines()
    # csv.reader raises csv.Error on a cell longer than its limit
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    try:
        data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return data if data.shape[1] == 4 and data.shape[0] >= 2 else None


def _parse_rows(fh, path) -> np.ndarray:
    """The table cell by cell through csv.reader and float(); every error
    names its path and, past the header, its line."""
    rows = []
    reader = csv.reader(fh)
    _check_header(reader, path)
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


def trace_with_elements(m: np.ndarray, x11, x12, y12):
    """tr(M Pi) for element-value arrays of a family with equal diagonals."""
    return (m[0, 0] + m[1, 1]) * x11 + m[0, 1] * (x12 - 1j * y12) + m[1, 0] * (x12 + 1j * y12)


def outcome_density_values(ctx: EstimationContext, p: PovmFamily, phi_hat) -> np.ndarray:
    """q(phi_hat) = tr[rho Pi(phi_hat)] evaluated vectorized (real part)."""
    rho = density_matrix(ctx.state)
    vals = trace_with_elements(rho, p.x11(phi_hat), p.x12(phi_hat), p.y12(phi_hat))
    return np.asarray(vals).real


@dataclass(frozen=True)
class ValidationReport:
    """Diagnostic residuals for one family at one estimation context."""

    completeness_residual: float
    min_eigenvalue: float
    x11_symmetry_residual: float
    x12_mean_residual: float
    y12_mean_residual: float
    unbiasedness_residual: float
    sign_conditions_ok: bool
    completeness_ok: bool = field(init=False)
    positivity_ok: bool = field(init=False)
    unbiasedness_ok: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "completeness_ok", self.completeness_residual <= COMPLETENESS_TOL)
        object.__setattr__(self, "positivity_ok", self.min_eigenvalue >= -EIGENVALUE_TOL)
        object.__setattr__(self, "unbiasedness_ok", abs(self.unbiasedness_residual) <= UNBIASEDNESS_TOL)

    @property
    def all_ok(self) -> bool:
        return (
            self.completeness_ok
            and self.positivity_ok
            and self.unbiasedness_ok
            and self.sign_conditions_ok
        )

    def as_dict(self) -> dict:
        fields = {k: getattr(self, k) for k in self.__dataclass_fields__}
        return {**fields, "all_ok": self.all_ok}


def validate_povm(
    p: PovmFamily,
    ctx: EstimationContext,
    spec: QuadSpec | None = None,
) -> ValidationReport:
    """Check completeness, positivity, the symmetry and zero-mean element
    conditions, the shifted unbiasedness integral, and the off-diagonal sign
    pattern.  Purely diagnostic: nothing raises."""
    g = p.grid(spec)
    lo, hi = p.window
    mu = p.center

    comp_diag = float(g.integrate(g.x11)) - 1.0
    comp_x = float(g.integrate(g.x12))
    comp_y = float(g.integrate(g.y12))
    completeness = max(abs(comp_diag), math.hypot(comp_x, comp_y))

    # interior grid, avoiding the exact center and edges
    u = np.linspace(lo, hi, VALIDATION_SCAN)[1:-1]
    lam1, _ = p.eigenvalues(u)
    min_eig = float(np.min(lam1))

    half = np.linspace(0.0, p.half_width, VALIDATION_SCAN // 2)[1:-1]
    sym = float(np.max(np.abs(np.asarray(p.x11(mu + half)) - np.asarray(p.x11(mu - half)))))

    unbias = g.integrate((g.x - mu) * g.trace(density_matrix(ctx.state)).real)

    return ValidationReport(
        completeness_residual=float(completeness),
        min_eigenvalue=min_eig,
        x11_symmetry_residual=sym,
        x12_mean_residual=float(abs(comp_x)),
        y12_mean_residual=float(abs(comp_y)),
        unbiasedness_residual=float(unbias),
        sign_conditions_ok=_sign_conditions_ok(p, ctx),
    )


def _sign_conditions_ok(p: PovmFamily, ctx: EstimationContext) -> bool:
    """The off-diagonal sign pattern: y12 / cos(phi) has the sign of
    mu - phi_hat on validate_povm's interior grid, and y12(mu) vanishes."""
    lo, hi = p.window
    mu = p.center
    u = np.linspace(lo, hi, VALIDATION_SCAN)[1:-1]
    ratio = np.asarray(p.y12(u)) / math.cos(ctx.state.phi)
    pattern = ratio * np.sign(mu - u)
    return bool(np.all(pattern >= -EIGENVALUE_TOL)) and abs(float(p.y12(mu))) <= EIGENVALUE_TOL


@dataclass(frozen=True)
class OutcomeDistribution:
    """Outcome density q(phi_hat) = tr[rho Pi(phi_hat)] on the family window."""

    pdf: Callable
    window: tuple[float, float]
    split_points: tuple[float, ...]

    def grid(self) -> np.ndarray:
        """SAMPLING_NODES equispaced window nodes plus the split points."""
        lo, hi = self.window
        pts = np.linspace(lo, hi, SAMPLING_NODES)
        return np.unique(np.concatenate([pts, np.asarray(self.split_points)]))


def outcome_distribution(ctx: EstimationContext, p: PovmFamily) -> OutcomeDistribution:
    """Build the outcome density, rejecting families that go genuinely negative."""
    lo, hi = p.window

    def pdf(phi_hat):
        return outcome_density_values(ctx, p, phi_hat)

    scan = np.linspace(lo, hi, DENSITY_SCAN)
    vals = pdf(scan)
    worst = int(np.argmin(vals))
    if vals[worst] < -DENSITY_NEG_TOL:
        raise DomainError(
            f"outcome density is negative ({vals[worst]:.3e}) at phi_hat = {float(scan[worst])!r}"
        )
    return OutcomeDistribution(pdf=pdf, window=(lo, hi), split_points=p.discontinuities)


def estimator_moments(
    ctx: EstimationContext,
    p: PovmFamily,
    spec: QuadSpec | None = None,
) -> tuple[float, float]:
    """Mean of phi_hat and the second moment about the true parameter.

    The variance returned is E[(phi_hat - phi)^2] with phi the state's
    azimuth, i.e. deviation from the true value rather than from the sample
    mean; the two coincide when eps = 0.
    """
    g = p.grid(spec)
    q = g.trace(density_matrix(ctx.state)).real
    return float(g.integrate(g.x * q)), _second_moment(g, q, ctx.state.phi)


def _second_moment(g: FamilyGrid, q: np.ndarray, phi: float) -> float:
    """E[(phi_hat - phi)^2] for the outcome density q at the nodes of g."""
    return float(g.integrate((g.x - phi) ** 2 * q))


def sample_outcomes(dist: OutcomeDistribution, n: int, seed: int) -> np.ndarray:
    """Draw n outcomes by inverse-CDF on a tabulated cumulative grid.

    The CDF is a trapezoid accumulation on `dist.grid()`, inverted by linear
    interpolation through a guide table: the draws are identical, bit for
    bit, to np.interp(u, cdf, grid) on the same uniforms.  Identical
    (seed, n) give identical output.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    grid = dist.grid()
    dens = np.maximum(np.asarray(dist.pdf(grid), dtype=float), 0.0)
    steps = np.diff(grid)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * steps)])
    total = cdf[-1]
    if not (np.isfinite(total) and total > 0):
        raise ValueError("density does not integrate to a positive finite mass")
    cdf /= total
    if n == 0:
        return np.empty(0, dtype=float)
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    return _invert_cdf(u, cdf, grid)


# draws per pass of the guide-table search; keeps its temporaries in cache
_CHUNK = 1 << 15


def _invert_cdf(u: np.ndarray, cdf: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """np.interp(u, cdf, grid), bit for bit, for u in [0, 1) and a
    nondecreasing cdf from cdf[0] = 0 to cdf[-1] = 1.

    A guide table (Chen & Asau 1974) of G = 2 len(cdf) equal u-buckets gives
    each draw a start node at or below the last node j with cdf[j] <= u,
    which is the index np.interp's binary search returns.  Fixed halving
    steps, as many as the widest bucket needs, reach that j; on smooth
    densities that is one step, and a flat stretch costs log2 of its length
    rather than its length.  The value is then np.interp's: grid[j] where
    u == cdf[j], else slope[j] * (u - cdf[j]) + grid[j] (j is never the last
    node, as u < cdf[-1]).
    """
    n_buckets = 2 * cdf.size
    # A node whose bucket, rounded like the draws', precedes a draw's bucket
    # lies strictly below that draw: the start is never past the answer, and
    # the answer is at most the bucket's last node.
    node_bucket = (cdf * n_buckets).astype(np.intp)
    buckets = np.arange(n_buckets)
    start = np.maximum(np.searchsorted(node_bucket, buckets, side="left") - 1, 0)
    span = int((np.searchsorted(node_bucket, buckets, side="right") - 1 - start).max())
    steps = [1 << k for k in reversed(range(span.bit_length()))]
    cdf_ext = np.concatenate([cdf, np.full(span, np.inf)])
    out = np.empty_like(u)
    # np.interp raises no floating-point warnings.  Slopes over flat
    # stretches (inf or nan) are never read; an inf slope times u - cdf[j] = 0
    # is replaced by the u == cdf[j] branch; an overflow is np.interp's inf.
    with np.errstate(all="ignore"):
        slope = (grid[1:] - grid[:-1]) / (cdf[1:] - cdf[:-1])
        for s in range(0, u.size, _CHUNK):
            uc = u[s : s + _CHUNK]
            j = start[(uc * n_buckets).astype(np.intp)]
            for step in steps:
                j += step * (cdf_ext[j + step] <= uc)
            c, g = cdf[j], grid[j]
            out[s : s + _CHUNK] = np.where(uc == c, g, slope[j] * (uc - c) + g)
    return out
