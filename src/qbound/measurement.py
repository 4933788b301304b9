"""POVM families on a moving outcome window, outcome statistics, and sampling.

A family here is a continuous-outcome POVM on the window
[center - pi, center + pi] whose element at outcome phi_hat is

    Pi(phi_hat) = [[x11, x12 + i y12], [x12 - i y12, x11]],

with equal diagonal entries (x22 = x11 throughout).  `center` is the
construction point mu = phi + eps, phi the state's azimuth: the window moves
with the parameter, which is the source of the boundary terms surfaced by the
audit module.

A family's one element function, `PovmFamily.elements(u)`, returns the six
arrays x11, x12, y12, d_x11, d_x12, d_y12 at the abscissae u in one pass;
every consumer evaluates a point set with one call.  The derivatives d_* are
total derivatives with respect to the construction parameter, including the
dependence through the trigonometric construction coefficients, not just
through the window center.  They carry the piecewise-smooth part only: the
distributional contribution from differentiating a jump (the sign factor at
the center) is not represented.  In every combination the package
integrates, that contribution cancels identically because the families are
constructed at the state's own azimuth, the angle at which they are
evaluated.

The saturating Gaussian family takes

    x11 = exp(-(phi_hat - mu)^2 / (2 sigma^2)) / (sigma sqrt(2 pi) erf(pi / (sigma sqrt 2)))
    y12 = cos(phi) * x11 * sgn(mu - phi_hat)
    x12 = sin(phi) * x11 * sgn(mu - phi_hat)

with sgn(0) = 0.  Its small eigenvalue vanishes identically away from the
center ("sharp" measurement) and the off-diagonal sign pattern makes the
maximized bound an equality.  At the state's azimuth tr(d_r rho Pi) = 0 and
tr(d_phi rho Pi)^2 = q^2 r^2 sin^2(theta) x11^2 at every node, q the
off-diagonal scale, so the Fisher entry is q^2 r^2 sin^2(theta) m0, m0 the
integral of x11: B_Fisher = B_SLD, "saturating", where q^2 = m0 = 1.

Every window integral of a family is a contraction over a `FamilyGrid`,
which `PovmFamily.grid()` builds anew on each call with the family's one
rule, `PovmFamily.spec`, split at its own split points, the family's
discontinuities and always at its center; a caller resizes a family with
`dataclasses.replace(family, spec=...)`.  Integrals of (phi_hat - mu)^j
tr(M Pi), j <= 2, are scalar arithmetic on the grid's element moments
(`FamilyGrid.moment`).  Traces tr(M Pi) are real arrays for Hermitian M,
and an integral over nodes is `quadrature._weighted_sum`.  Every grid reader
but the diagnostic `validate_povm` calls `PovmFamily.require_unit_mass`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .quadrature import DEFAULT_SPEC, QuadSpec, _check_finite, _weighted_sum, integrate_1d, nodes_1d
from .qubit import DomainError, ParamIndex, QubitState, d_rho, density_matrix

COMPLETENESS_TOL = 1e-9
EIGENVALUE_TOL = 1e-12
UNBIASEDNESS_TOL = 1e-8
DENSITY_NEG_TOL = 1e-12

# interior scan of validate_povm's eigenvalue and sign-pattern checks
VALIDATION_SCAN = 2001
# window nodes of the grid that outcome_distribution tabulates and sample_outcomes inverts
SAMPLING_NODES = 8192

_COS_MIN = 1e-12


@dataclass(frozen=True)
class EstimationContext:
    """State plus the window offset eps of the measurement construction.

    Families are constructed at the state's azimuth phi, with their window
    centred at mu = phi + eps.  cos(phi) must be nonzero: the construction
    only multiplies by it, but I1 in `bounds._r_free_integrals` divides eps y12
    by it, and so does `interior_scan`'s off-diagonal sign pattern.
    """

    state: QubitState
    eps: float = 0.0

    def __post_init__(self):
        _check_window(self.state.phi, self.eps)
        if abs(math.cos(self.state.phi)) < _COS_MIN:
            raise DomainError(
                "construction angle has cos(phi) ~ 0; the off-diagonal "
                "construction divides by it"
            )

    @property
    def center(self) -> float:
        """Window center mu = phi + eps."""
        return self.state.phi + self.eps


def _check_window(phi: float, eps: float) -> None:
    """eps must be finite and keep mu = phi + eps inside [mu - pi, mu + pi]."""
    if not math.isfinite(eps):
        raise DomainError("eps must be finite")
    mu = phi + eps
    if not mu - math.pi < mu < mu + math.pi:
        raise DomainError(f"eps = {eps!r} collapses the window [mu - pi, mu + pi] at mu = {mu!r}")


def _inv_square(sigma: float) -> float:
    """1/sigma^2, for a positive sigma whose square does not underflow."""
    if not sigma > 0:
        raise DomainError("sigma must be positive")
    inv = 1.0 / (sigma * sigma) if sigma * sigma else math.inf
    if inv == math.inf:
        raise DomainError(f"sigma = {sigma!r} is too small: 1/sigma^2 overflows")
    return inv


def gaussian_inputs(phi: float, eps: float, sigma: float) -> tuple[float, float] | None:
    """The Gaussian sharp family's checks, in its order: eps's window, sigma too
    small for 1/sigma^2, too large for the normalization.  Then (1/sigma^2,
    norm), or None where cos(phi) ~ 0 leaves the construction undefined."""
    _check_window(phi, eps)
    inv_s2 = _inv_square(sigma)
    norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi) * math.erf(math.pi / (sigma * math.sqrt(2.0))))
    if not 0.0 < norm < math.inf:
        raise DomainError(f"sigma = {sigma!r} is too large: the normalization overflows")
    return (inv_s2, norm) if abs(math.cos(phi)) >= _COS_MIN else None


# PovmFamily.elements order and FamilyGrid fields; tr(M Pi) reads the VALUES, tr(M dPi) the rest
ELEMENT_NAMES = ("x11", "x12", "y12", "d_x11", "d_x12", "d_y12")
VALUES, DERIVATIVES = ELEMENT_NAMES[:3], ELEMENT_NAMES[3:]


@dataclass(frozen=True, eq=False)
class FamilyGrid:
    """A family's quadrature nodes and weights on its window, with its
    element arrays and their parameter derivatives at every node.  The
    weight powers w (x - center)^j, j <= 2, and the index that splits the
    nodes at the center are computed when the grid is built."""

    x: np.ndarray
    w: np.ndarray
    x11: np.ndarray
    x12: np.ndarray
    y12: np.ndarray
    d_x11: np.ndarray
    d_x12: np.ndarray
    d_y12: np.ndarray
    center: float = 0.0
    _split: int = field(init=False, repr=False)
    _powers: tuple = field(init=False, repr=False)

    def __post_init__(self):
        d = self.x - self.center
        wd = self.w * d
        object.__setattr__(self, "_split", int(np.searchsorted(self.x, self.center)))
        object.__setattr__(self, "_powers", (self.w, wd, wd * d))

    def trace(self, m: np.ndarray) -> np.ndarray:
        """tr(M Pi) at every node; a real array when M is Hermitian."""
        return trace_with_elements(m, self.x11, self.x12, self.y12)

    def integrate(self, values):
        """Window integral of per-node values, by `quadrature._weighted_sum`."""
        return _weighted_sum(self.w, values, self.x)

    def moment(self, name: str, j: int, side: int = 0) -> float:
        """The sum of w (x - center)^j e, j <= 2, e the element array `name`,
        over the window (side 0) or its nodes below (-1) or above (+1) the
        center."""
        part = (slice(None), slice(self._split, None), slice(None, self._split))[side]
        return float(self._powers[j][part] @ getattr(self, name)[part])


@dataclass(frozen=True)
class PovmFamily:
    """One POVM family: its element function, plus window metadata.

    `elements(u)` returns the six element arrays at the abscissae u, in
    ELEMENT_NAMES order: x11, x12, y12 and their total parameter
    derivatives.  The outcome window is [center - half_width, center +
    half_width]; constructed families use the full half_width = pi,
    tabulated ones infer it from their abscissa extremes.  `spec` is the
    rule of every window integral of the family: the 64 x 16 default, or
    1 x 4 for a tabulated family.  `sigma` is the width a sharp family's rule
    must resolve; a tabulated or hand-built family has None, and no check.
    """

    center: float
    elements: Callable
    discontinuities: tuple[float, ...] = ()
    label: str = ""
    half_width: float = math.pi
    spec: QuadSpec = DEFAULT_SPEC
    sigma: float | None = None

    @property
    def window(self) -> tuple[float, float]:
        return (self.center - self.half_width, self.center + self.half_width)

    def quad_spec(self) -> QuadSpec:
        """The family's `spec`, split at its discontinuities, at the spec's
        own split points and at its center: the rule of its window integrals."""
        splits = self.discontinuities
        for s in (*self.spec.split_points, self.center):
            if s not in splits:
                splits = (*splits, s)
        return replace(self.spec, split_points=splits)

    def grid(self) -> FamilyGrid:
        """A new read-only grid of nodes, weights and element arrays for
        window integrals at `quad_spec()`.  A non-finite element value
        raises QuadratureError naming the first abscissa that has one."""
        x, w = nodes_1d(*self.window, self.quad_spec())
        stacked = np.array(np.broadcast_arrays(x, *self.elements(x))[1:], dtype=float)
        if not np.isfinite(stacked).all():
            _check_finite(stacked.T, x)
        for a in (x, w, stacked):
            a.flags.writeable = False
        return FamilyGrid(x, w, *stacked, center=self.center)

    def require_unit_mass(self, m0: float) -> None:
        """m0, a sharp family's x11 summed on its grid, is 1 where the rule resolves
        the width sigma; a miss beyond COMPLETENESS_TOL raises DomainError."""
        if self.sigma is not None and not abs(m0 - 1.0) <= COMPLETENESS_TOL:
            raise DomainError(f"{self.label}: x11 sums to m0 = {m0!r} on the family's grid, not 1 within "
                              f"{COMPLETENESS_TOL:g}: its rule does not resolve sigma = {self.sigma!r}")

    def eigenvalues(self, phi_hat) -> tuple[np.ndarray, np.ndarray]:
        """(lam1, lam2) with lam1 <= lam2, elementwise over phi_hat."""
        return _eigenvalues(*self.elements(phi_hat)[:3])


def _eigenvalues(x11, x12, y12) -> tuple[np.ndarray, np.ndarray]:
    """(lam1, lam2) with lam1 <= lam2 from the elements x11, x12, y12."""
    a = np.asarray(x11, dtype=float)
    root = np.sqrt(np.asarray(x12) ** 2 + np.asarray(y12) ** 2)
    return a - root, a + root


def _sharp_family(ctx: EstimationContext, profile, scale: float, label: str, sigma: float) -> PovmFamily:
    """Sharp construction of width sigma on a diagonal profile: profile(v), v =
    phi_hat - mu, returns x11 and its total parameter derivative; the
    off-diagonals are scale * (sin, cos)(phi) * x11 * sgn(mu - phi_hat)."""
    mu = ctx.center
    sin_c, cos_c = math.sin(ctx.state.phi), math.cos(ctx.state.phi)

    def elements(u):
        u = np.asarray(u, dtype=float)
        (p, dp), s = profile(u - mu), np.sign(mu - u)
        return (p, scale * sin_c * p * s, scale * cos_c * p * s, dp,
                scale * (cos_c * p + sin_c * dp) * s, scale * (-sin_c * p + cos_c * dp) * s)

    return PovmFamily(mu, elements, discontinuities=(mu,), label=label, sigma=sigma)


def gaussian_sharp_family(ctx: EstimationContext, sigma: float = 3.0) -> PovmFamily:
    """The saturating Gaussian family (default sigma = 3)."""
    inv_s2, norm = gaussian_inputs(ctx.state.phi, ctx.eps, sigma)

    @np.errstate(over="ignore")  # the exponent may overflow to -inf; exp(-inf) = 0 is exact
    def profile(v):
        p = norm * np.exp(-0.5 * v ** 2 * inv_s2)
        return p, p * v * inv_s2

    return _sharp_family(ctx, profile, 1.0, f"gaussian-sharp(sigma={sigma:g})", sigma)


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
    vanishes for this family.  Its profile callable evaluates the exponential
    and the cosine once for x11 and its derivative, and is normalized by
    integrating its x11.
    """
    inv_s2 = _inv_square(sigma)
    if not (math.isfinite(taper_power) and taper_power >= 1 and taper_power == int(taper_power)):
        raise DomainError("taper_power must be an integer >= 1")
    if not abs(offdiag_scale) <= 1.0:
        raise DomainError("|offdiag_scale| must be <= 1 to keep the POVM positive")
    k = int(taper_power)
    norm = 1.0  # read at each call: 1 while the profile is normalized

    # the exponent may overflow to -inf, and exp(-inf) = 0 is exact
    @np.errstate(over="ignore")
    def profile(v):
        e, cos_half = np.exp(-0.5 * v * v * inv_s2), np.cos(0.5 * v)
        slope = -v * inv_s2 * cos_half ** (2 * k) - k * cos_half ** (2 * k - 1) * np.sin(0.5 * v)
        return norm * (e * cos_half ** (2 * k)), -norm * (e * slope)

    # the slope, unused here, reads 0 * inf where v / sigma^2 overflows too
    with np.errstate(invalid="ignore"):
        total = integrate_1d(lambda v: profile(v)[0], -math.pi, math.pi)
    if not total > 0:
        raise DomainError(f"sigma = {sigma!r} is too small: the profile vanishes at every node")
    norm = 1.0 / total
    return _sharp_family(
        ctx, profile, offdiag_scale,
        f"tapered-sharp(sigma={sigma:g},k={k},scale={offdiag_scale:g})", sigma,
    )


@np.errstate(over="ignore")
def tabulated_family(phi_hat, x11, x12, y12, label: str = "tabulated") -> PovmFamily:
    """Piecewise-linear family from sampled matrix elements.

    The samples are interpreted as a parameter-independent POVM (its total
    parameter derivative is zero), the window is inferred from the abscissa
    extremes, and interpolation kinks are registered as split points so
    low-order panels integrate the elements exactly.  The columns are
    copied, so later changes to the caller's arrays do not reach the family.
    A table whose window or interpolation slope overflows is rejected.
    """
    phi_hat = np.array(phi_hat, dtype=float)
    if phi_hat.ndim != 1 or phi_hat.size < 2:
        raise ValueError("need at least two tabulation nodes")
    steps = np.diff(phi_hat)
    if not np.all(steps > 0):
        raise ValueError("phi_hat column must be strictly increasing")
    lo, hi = float(phi_hat[0]), float(phi_hat[-1])
    if not math.isfinite(hi - lo):
        raise ValueError("phi_hat column must span a finite window")
    cols = []
    for name, col in (("x11", x11), ("x12", x12), ("y12", y12)):
        col = np.array(col, dtype=float)
        if col.shape != phi_hat.shape:
            raise ValueError(f"column {name} has shape {col.shape}, expected {phi_hat.shape}")
        if not np.all(np.isfinite(col)):
            raise ValueError(f"column {name} contains non-finite values")
        finite = np.isfinite(np.diff(col) / steps)
        if not finite.all():
            i = int(np.argmin(finite)) + 1
            raise ValueError(f"column {name} has a non-finite slope between rows {i} and {i + 1}")
        cols.append(col)

    def elements(u):
        u = np.asarray(u, dtype=float)
        zero = np.zeros_like(u)
        return (*(np.interp(u, phi_hat, col) for col in cols), zero, zero, zero)

    return PovmFamily(
        center=0.5 * (lo + hi),
        elements=elements,
        discontinuities=tuple(phi_hat[1:-1].tolist()),
        label=label,
        half_width=0.5 * (hi - lo),
        spec=QuadSpec(1, 4),
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
    paths accept the same files and return the same bits.  An error of
    `tabulated_family` on the parsed columns is raised again with the path
    in front.
    """
    import csv  # here, so that a command without a table does not load it

    def rows(fh):
        """fh's CSV rows; a csv.Error becomes a ValueError naming path:line."""
        reader = csv.reader(fh)
        try:
            yield from reader
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None

    with open(path, newline="", encoding="utf-8") as fh:
        data = _parse_body(fh, rows(fh), path, csv.field_size_limit())
        if data is None:
            fh.seek(0)
            data = _parse_rows(rows(fh), path)
    try:
        return tabulated_family(data[:, 0], data[:, 1], data[:, 2], data[:, 3], label=str(path))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _check_header(reader, path) -> None:
    header = next(reader, None)
    if header is None:
        raise ValueError(f"{path}: empty POVM table")
    expected = ["phi_hat", "x11", "x12", "y12"]
    if [h.strip() for h in header] != expected:
        raise ValueError(f"{path}: header must be {','.join(expected)}")


def _parse_body(fh, rows, path, limit: int) -> np.ndarray | None:
    """The table as an (n, 4) array: `rows`, fh's CSV rows, checks the
    header, and one np.loadtxt call reads the lines after it.  None where
    the row loop must decide: a body that is blank, undecodable, holds one
    of _LOOP_ONLY or a line longer than csv's field limit, or that loadtxt
    rejects or reads as another shape."""
    _check_header(rows, path)
    try:
        body = fh.read()
    except ValueError:
        return None
    # loadtxt warns on a body without rows
    if not body.strip() or any(c in body for c in _LOOP_ONLY):
        return None
    lines = body.splitlines()
    # csv.reader raises csv.Error on a cell longer than its limit
    if max(map(len, lines)) > limit:
        return None
    try:
        data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return data if data.shape[1] == 4 and data.shape[0] >= 2 else None


def _parse_rows(reader, path) -> np.ndarray:
    """The table cell by cell from its CSV rows and float(); every error
    names its path and, past the header, its line."""
    rows = []
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
    """tr(M Pi) for element-value arrays of a family with equal diagonals,
    in real arithmetic: M = H + iK with H, K Hermitian, and tr(H Pi) + i tr(K Pi)
    is the real tr(H Pi) when K = 0 exactly (rho, d rho, h_k)."""
    (m00, m01), (m10, m11) = np.asarray(m, dtype=complex).tolist()

    def hermitian_trace(diag, off):
        return diag * x11 + 2.0 * (off.real * x12 + off.imag * y12)

    out = hermitian_trace(m00.real + m11.real, 0.5 * (m01 + m10.conjugate()))
    k01 = -0.5j * (m01 - m10.conjugate())
    if m00.imag or m11.imag or k01:
        out = out + 1j * hermitian_trace(m00.imag + m11.imag, k01)
    return out


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


@np.errstate(over="ignore", invalid="ignore")
def validate_povm(p: PovmFamily, ctx: EstimationContext) -> ValidationReport:
    """Check completeness, positivity, the symmetry and zero-mean element
    conditions, the shifted unbiasedness integral, and the off-diagonal sign
    pattern.  Purely diagnostic: nothing raises or warns, and an overflow
    reads inf."""
    g = p.grid()
    mu = p.center

    comp_diag = g.moment("x11", 0) - 1.0
    comp_x = g.moment("x12", 0)
    comp_y = g.moment("y12", 0)
    completeness = max(abs(comp_diag), math.hypot(comp_x, comp_y))

    min_eig, sign_ok = interior_scan(p, ctx)

    half = np.linspace(0.0, p.half_width, VALIDATION_SCAN // 2)[1:-1]
    above, below = np.split(np.asarray(p.elements(np.concatenate([mu + half, mu - half]))[0]), 2)
    sym = float(np.max(np.abs(above - below)))

    unbias = trace_with_elements(density_matrix(ctx.state), *(g.moment(n, 1) for n in VALUES))

    return ValidationReport(
        completeness_residual=float(completeness),
        min_eigenvalue=min_eig,
        x11_symmetry_residual=sym,
        x12_mean_residual=float(abs(comp_x)),
        y12_mean_residual=float(abs(comp_y)),
        unbiasedness_residual=float(unbias),
        sign_conditions_ok=sign_ok,
    )


@np.errstate(over="ignore", invalid="ignore")
def interior_scan(p: PovmFamily, ctx: EstimationContext) -> tuple[float, bool]:
    """From one evaluation on an interior grid, avoiding the edges, and at mu:
    the least eigenvalue on the grid, and the off-diagonal sign pattern (y12 /
    cos(phi) has the sign of mu - phi_hat on the grid, and y12(mu) vanishes)."""
    lo, hi = p.window
    mu = p.center
    u = np.linspace(lo, hi, VALIDATION_SCAN)[1:-1]
    x11, x12, y12 = (np.asarray(e) for e in p.elements(np.append(u, mu))[:3])
    min_eig = float(np.min(_eigenvalues(x11[:-1], x12[:-1], y12[:-1])[0]))
    pattern = y12[:-1] / math.cos(ctx.state.phi) * np.sign(mu - u)
    sign_ok = bool(np.all(pattern >= -EIGENVALUE_TOL)) and abs(float(y12[-1])) <= EIGENVALUE_TOL
    return min_eig, sign_ok


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Outcome density q(phi_hat) = tr[rho Pi(phi_hat)] on the family window,
    tabulated once: `grid` is SAMPLING_NODES equispaced window nodes plus the
    family's discontinuities, `cdf` the normalized trapezoid accumulation of
    the density, clipped at 0, on it, and `inverse_cdf` its inverse, through
    the guide table built with it.  Both arrays are read-only."""

    pdf: Callable
    grid: np.ndarray
    cdf: np.ndarray
    _invert: Callable = field(repr=False)

    def inverse_cdf(self, u) -> np.ndarray:
        """np.interp(u, cdf, grid), bit for bit, as a new array; u must lie in [0, 1)."""
        u = np.asarray(u, dtype=float)
        inside = (u >= 0.0) & (u < 1.0)
        if not inside.all():
            raise ValueError(f"inverse_cdf needs u in [0, 1), got {float(u[~inside][0])!r}")
        return self._invert(u.ravel()).reshape(u.shape)


def outcome_distribution(ctx: EstimationContext, p: PovmFamily) -> OutcomeDistribution:
    """Tabulate the outcome density with one evaluation of the family on
    the sampling grid, and build the guide table of its inverse CDF.  A
    density below -DENSITY_NEG_TOL raises DomainError naming the grid
    abscissa of its least value; one that does not integrate to a positive
    finite mass raises ValueError."""
    rho = density_matrix(ctx.state)

    def pdf(phi_hat):
        return trace_with_elements(rho, *p.elements(phi_hat)[:3])

    # np.unique's own two steps, without the numpy.ma import it pays for
    grid = np.concatenate([np.linspace(*p.window, SAMPLING_NODES), p.discontinuities])
    grid.sort()
    grid = grid[np.append(True, grid[1:] != grid[:-1])]
    vals = np.asarray(pdf(grid), dtype=float)
    worst = int(np.argmin(vals))
    if vals[worst] < -DENSITY_NEG_TOL:
        raise DomainError(
            f"outcome density is negative ({vals[worst]:.3e}) at phi_hat = {float(grid[worst])!r}"
        )
    dens = np.maximum(vals, 0.0)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
    total = cdf[-1]
    if not (np.isfinite(total) and total > 0):
        raise ValueError("density does not integrate to a positive finite mass")
    cdf /= total
    grid.flags.writeable = cdf.flags.writeable = False
    return OutcomeDistribution(pdf, grid, cdf, _inverse_cdf(cdf, grid))


def estimator_moments(ctx: EstimationContext, p: PovmFamily) -> tuple[float, float]:
    """Mean of phi_hat and the second moment about the true parameter, by
    scalar arithmetic on the grid's moments (`moment_integrals`), then the mass check.

    The variance is E[(phi_hat - phi)^2], phi the state's azimuth: the
    deviation from the true value, not from the mean; equal when eps = 0.
    """
    g = p.grid()
    mean, variance = moment_integrals(g, ctx.state)(ctx.state.r)[2:]
    p.require_unit_mass(g.moment("x11", 0))
    return mean, variance


def moment_integrals(g: FamilyGrid, state: QubitState):
    """(a, b, E[phi_hat], E[(phi_hat - phi)^2]) as a function of r at the
    state's angles.  As rho = I/2 + r d_r rho, the moments m_j of tr(rho Pi)
    and t_j of tr(rho dPi) about the center mu are grid moments of x11 and
    d_x11 plus r times those of tr(d_r rho Pi) and tr(d_r rho dPi).  The
    variance m2 + 2 d m1 + d^2 m0, d = mu - phi, can cancel for large |d|."""
    dr = d_rho(state, ParamIndex.R)
    moments = ((VALUES, 0), (VALUES, 1), (VALUES, 2), (DERIVATIVES, 0), (DERIVATIVES, 1))
    lines = [(g.moment(names[0], j), trace_with_elements(dr, *(g.moment(n, j) for n in names)))
             for names, j in moments]
    mu, phi = g.center, state.phi
    d = mu - phi

    def at(r: float) -> tuple[float, float, float, float]:
        m0, m1, m2, t0, t1 = (c + r * s for c, s in lines)
        return phi * t0, 1.0 - (t1 + mu * t0), m1 + mu * m0, m2 + 2.0 * d * m1 + d * d * m0

    return at


def sample_outcomes(dist: OutcomeDistribution, n: int, seed: int) -> np.ndarray:
    """Draw n outcomes, written over their n uniforms u: identical, bit for
    bit, to np.interp(u, cdf, grid) on `dist`.  Identical (seed, n) give
    identical output."""
    if n < 0:
        raise ValueError("n must be >= 0")
    u = np.random.default_rng(seed).random(n)
    return dist._invert(u, out=u)


# draws per pass of the guide-table search; keeps its temporaries in cache
_CHUNK = 1 << 15


def _inverse_cdf(cdf: np.ndarray, grid: np.ndarray) -> Callable[..., np.ndarray]:
    """(u, out=None) -> np.interp(u, cdf, grid) into out (u itself or a new
    array), bit for bit, for u in [0, 1) and a nondecreasing cdf from cdf[0]
    = 0 to cdf[-1] = 1, through a table built here.

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
    # np.interp raises no floating-point warnings.  Slopes over flat
    # stretches (inf or nan) are never read; an inf slope times u - cdf[j] = 0
    # is replaced by the u == cdf[j] branch; an overflow is np.interp's inf.
    with np.errstate(all="ignore"):
        slope = (grid[1:] - grid[:-1]) / (cdf[1:] - cdf[:-1])

    @np.errstate(all="ignore")
    def invert(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = np.empty_like(u) if out is None else out
        for s in range(0, u.size, _CHUNK):
            uc = u[s : s + _CHUNK]
            j = start[(uc * n_buckets).astype(np.intp)]
            for step in steps:
                j += step * (cdf_ext[j + step] <= uc)
            c, g = cdf[j], grid[j]
            out[s : s + _CHUNK] = np.where(uc == c, g, slope[j] * (uc - c) + g)
        return out

    return invert
