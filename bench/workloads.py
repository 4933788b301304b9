"""The four benchmark workloads: seeded inputs, the timed op, and its gate.

Each workload draws every input from its own `numpy.random.Generator`
seeded by the benchmark seed, so one seed always yields the same sequence
of inputs.  `run(inp)` is the timed op and calls only the public qbound API.
`check(inp, out)` is the untimed correctness gate; it uses closed forms
written out here, never the package's own code paths, and returns one of

    OK    the outputs pass the gate;
    MISS  an accuracy gate missed its tolerance (lowers ok_frac);
    WRONG the outputs are wrong (a failed op, and the run is not correct).

Only the `oracle` workload can MISS: its gate compares the closed forms with
the sphere quadrature, and the sphere rule is known not to converge near
r -> 1.  That share of misses is a measured property of the program, reported
in `ok_frac` (and the traced run's `fail_frac`), not an operation that failed.

`cli_argv(inp)` gives the arguments of the workload's command-line form
and `check_cli(inp, stdout)` is its gate.  `kernel` names the calibration
kernel whose shape matches the op (see calibrate.py).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import qbound as qb

OK, MISS, WRONG = "ok", "miss", "wrong"
PI = math.pi

# The package's working domain [R_MIN, R_MAX] for r, written out so that a
# change to the package constants cannot silently change the inputs.
R_EDGE = 1e-6


def _azimuth(rng) -> float:
    """phi in [0, 2 pi), where the package keeps it, with |cos(phi)| >= 0.05:
    the family construction divides by cos(phi)."""
    while True:
        phi = float(rng.uniform(0.0, 2.0 * PI))
        if abs(math.cos(phi)) >= 0.05:
            return phi


def _polar(rng) -> float:
    return float(rng.uniform(0.3, PI - 0.3))


def truncated_gaussian_variance(sigma: float, half_width: float = PI) -> float:
    """Variance of N(0, sigma^2) truncated to [-half_width, half_width]."""
    a = half_width
    z = math.erf(a / (sigma * math.sqrt(2.0)))
    return sigma * sigma * (1.0 - 2.0 * a * math.exp(-a * a / (2.0 * sigma * sigma))
                            / (sigma * math.sqrt(2.0 * PI) * z))


def _close(got: float, want: float, rtol: float, atol: float = 0.0) -> bool:
    return math.isfinite(got) and abs(got - want) <= atol + rtol * abs(want)


def flatten(out) -> np.ndarray:
    """All numbers of an op's output as one flat array (for equality checks)."""
    parts = []

    def walk(x):
        if isinstance(x, dict):
            for k in sorted(x):
                walk(x[k])
        elif isinstance(x, (list, tuple)):
            for v in x:
                walk(v)
        elif isinstance(x, (bool, np.bool_)):
            parts.append(np.array([float(x)]))
        elif isinstance(x, (int, float, complex, np.number, np.ndarray)):
            parts.append(np.asarray(x, dtype=complex).ravel())
        elif x is None:
            parts.append(np.array([np.nan]))
        # strings (labels, paths) carry no numbers
    walk(out)
    return np.concatenate(parts) if parts else np.empty(0)


def same_output(a, b) -> bool:
    return bool(np.array_equal(flatten(a), flatten(b), equal_nan=True))


# ---------------------------------------------------------------- sweep


@dataclass(frozen=True)
class SweepInput:
    theta: float
    phi: float
    eps: float


class Sweep:
    """One `bounds_sweep` over a dense r grid at a fresh (theta, phi, eps)."""

    name = "sweep"
    kernel = "python"
    unit = "rows"
    ROWS = 16
    R_LO, R_HI = 0.02, 0.98
    SIGMA = 3.0
    RTOL = 1e-9

    def __init__(self, rng, workdir: Path):
        self.rng = rng
        self.v_trunc = truncated_gaussian_variance(self.SIGMA)
        self.vg_minus_C = []  # reported, never asserted

    def next_input(self) -> SweepInput:
        return SweepInput(_polar(self.rng), _azimuth(self.rng), float(self.rng.uniform(-0.5, 0.5)))

    def release(self, inp) -> None:
        pass

    def units(self, inp) -> int:
        return self.ROWS

    def grid(self) -> np.ndarray:
        return np.linspace(self.R_LO, self.R_HI, self.ROWS)

    def run(self, inp):
        rows = qb.bounds_sweep(self.grid(), theta=inp.theta, phi=inp.phi, eps=inp.eps,
                               sigma=self.SIGMA)
        return [row.as_dict() for row in rows]

    def _check_rows(self, inp, rows) -> str:
        if len(rows) != self.ROWS:
            return WRONG
        sin2 = math.sin(inp.theta) ** 2
        v_want = self.v_trunc + inp.eps ** 2
        tol = 1.0 - self.RTOL
        for r_want, row in zip(self.grid(), rows):
            if row.get("error") or not _close(row["r"], float(r_want), 1e-11):
                return WRONG
            r = row["r"]
            if not _close(row["B_SLD"], 1.0 / (r * r * sin2), self.RTOL):
                return WRONG
            if not _close(row["v"], v_want, self.RTOL):
                return WRONG
            if not (row["B_Fisher"] >= row["B_SLD"] * tol and row["B_SLD"] >= row["B_RLD"] * tol):
                return WRONG
            self.vg_minus_C.append(row["vg_minus_C"])
        return OK

    def check(self, inp, out) -> str:
        return self._check_rows(inp, out)

    def cli_argv(self, inp) -> list[str]:
        return ["bounds", "sweep", "--r-min", repr(self.R_LO), "--r-max", repr(self.R_HI),
                "--steps", str(self.ROWS), "--theta", repr(inp.theta), "--phi", repr(inp.phi),
                "--eps", repr(inp.eps), "--sigma", repr(self.SIGMA), "--format", "csv"]

    def check_cli(self, inp, stdout: str) -> str:
        rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(stdout))]
        return self._check_rows(inp, rows)

    def detail(self) -> dict:
        vals = np.asarray(self.vg_minus_C)
        if vals.size == 0:
            return {}
        return {"vg_minus_C": {"rows": int(vals.size), "min": float(vals.min()),
                               "max": float(vals.max()), "negative_rows": int((vals < 0).sum())}}


# ------------------------------------------------------------- simulate


@dataclass(frozen=True)
class SimulateInput:
    r: float
    theta: float
    phi: float
    eps: float
    seed: int


class Simulate:
    """`outcome_distribution` plus `sample_outcomes`, with the quadrature
    moments the draws are checked against, as the `simulate` command does."""

    name = "simulate"
    kernel = "interp"
    unit = "draws"
    DRAWS = 1_000_000
    SIGMA = 3.0
    Z = 5.0  # standard errors allowed between sample and quadrature moments

    def __init__(self, rng, workdir: Path):
        self.rng = rng

    def next_input(self) -> SimulateInput:
        return SimulateInput(float(self.rng.uniform(0.05, 0.95)), _polar(self.rng),
                             _azimuth(self.rng), float(self.rng.uniform(-0.5, 0.5)),
                             int(self.rng.integers(0, 2 ** 31)))

    def release(self, inp) -> None:
        pass

    def units(self, inp) -> int:
        return self.DRAWS

    def run(self, inp):
        ctx = qb.EstimationContext(qb.QubitState(inp.r, inp.theta, inp.phi), eps=inp.eps)
        family = qb.gaussian_sharp_family(ctx, sigma=self.SIGMA)
        mean_q, var_q = qb.estimator_moments(ctx, family)
        dist = qb.outcome_distribution(ctx, family)
        draws = qb.sample_outcomes(dist, self.DRAWS, seed=inp.seed)
        return {"mean_q": mean_q, "var_q": var_q, "draws": draws}

    def _agree(self, mean_emp, mean_se, mean_q, var_emp, var_se, var_q) -> str:
        ok = (abs(mean_emp - mean_q) <= self.Z * mean_se
              and abs(var_emp - var_q) <= self.Z * var_se)
        return OK if ok else WRONG

    def check(self, inp, out) -> str:
        draws = out["draws"]
        if draws.shape != (self.DRAWS,) or not np.all(np.isfinite(draws)):
            return WRONG
        sq = (draws - inp.phi) ** 2
        n = draws.size
        return self._agree(float(draws.mean()), float(draws.std(ddof=1)) / math.sqrt(n),
                           out["mean_q"], float(sq.mean()), float(sq.std(ddof=1)) / math.sqrt(n),
                           out["var_q"])

    def cli_argv(self, inp) -> list[str]:
        return ["simulate", "--r", repr(inp.r), "--theta", repr(inp.theta), "--phi", repr(inp.phi),
                "--eps", repr(inp.eps), "--sigma", repr(self.SIGMA),
                "--samples", str(self.DRAWS), "--seed", str(inp.seed), "--format", "json"]

    def check_cli(self, inp, stdout: str) -> str:
        d = json.loads(stdout)
        if d["samples"] != self.DRAWS or d["seed"] != inp.seed:
            return WRONG
        return self._agree(d["mean_empirical"], d["mean_standard_error"], d["mean_quadrature"],
                           d["variance_empirical"], d["variance_standard_error"],
                           d["variance_quadrature"])

    def detail(self) -> dict:
        return {}


# --------------------------------------------------------------- oracle


@dataclass(frozen=True)
class OracleInput:
    r: float
    theta: float
    phi: float


class Oracle:
    """L_k (k = r, theta, phi), the Husimi metric and the Husimi normalization,
    each by its closed form and by sphere quadrature, at one state.

    (r, theta, phi) follow a seeded additive recurrence (the R3 sequence of
    the generalized golden ratio), with r mapped to log spacing toward both
    edges of the working domain.  Any prefix of the op sequence then covers
    the domain evenly, so the share of misses near r -> 1 hardly depends on
    how many ops fit in a run.
    """

    name = "oracle"
    kernel = "elementwise"
    unit = "states"
    TOL = 1e-8  # the selftest's closed-vs-quadrature tolerance
    PHI3 = 1.2207440846057596  # real root of x^4 = x + 1
    STEP = np.array([PHI3 ** -1, PHI3 ** -2, PHI3 ** -3])

    def __init__(self, rng, workdir: Path):
        self.point = rng.random(3)
        self.missed_r = []
        self.passed_r = []

    @staticmethod
    def r_of(u: float) -> float:
        """u in [0, 1/2) -> r log-spaced in [R_EDGE, 1/2); u in [1/2, 1) -> 1 - r
        log-spaced in (R_EDGE, 1/2]."""
        lo, hi = math.log10(R_EDGE), math.log10(0.5)
        if u < 0.5:
            return 10.0 ** (lo + (u / 0.5) * (hi - lo))
        return 1.0 - 10.0 ** (lo + ((1.0 - u) / 0.5) * (hi - lo))

    def next_input(self) -> OracleInput:
        self.point = (self.point + self.STEP) % 1.0
        u, v, w = (float(x) for x in self.point)
        return OracleInput(self.r_of(u), 0.2 + v * (PI - 0.4), 2.0 * PI * w)

    def release(self, inp) -> None:
        pass

    def units(self, inp) -> int:
        return 1

    def run(self, inp):
        state = qb.QubitState(inp.r, inp.theta, inp.phi)
        out = {}
        for k in qb.ParamIndex:
            out[f"L{k.value}_closed"] = qb.new_log_derivative(state, k, "closed")
            out[f"L{k.value}_quadrature"] = qb.new_log_derivative(state, k, "quadrature")
        out["husimi_metric_closed"] = qb.husimi_classical_metric(state, "closed")
        out["husimi_metric_quadrature"] = qb.husimi_classical_metric(state, "quadrature")
        out["husimi_norm_quadrature"] = qb.sphere_integrate(qb.husimi(state))
        return out

    def check(self, inp, out) -> str:
        if not all(np.all(np.isfinite(v)) for v in out.values()):
            return WRONG
        worst = abs(out["husimi_norm_quadrature"] - 1.0)
        pairs = [(f"L{k}_closed", f"L{k}_quadrature") for k in (1, 2, 3)]
        pairs.append(("husimi_metric_closed", "husimi_metric_quadrature"))
        for a, b in pairs:
            worst = max(worst, float(np.max(np.abs(out[a] - out[b]))))
        if worst <= self.TOL:
            self.passed_r.append(inp.r)
            return OK
        self.missed_r.append(inp.r)
        return MISS

    def cli_argv(self, inp) -> list[str]:
        return ["selftest"]

    def check_cli(self, inp, stdout: str) -> str:
        lines = stdout.splitlines()
        ok = bool(lines) and all(line.startswith("PASS") for line in lines)
        return OK if ok else WRONG

    def detail(self) -> dict:
        return {"misses": len(self.missed_r),
                "smallest_missed_r": min(self.missed_r, default=None),
                "largest_passed_r": max(self.passed_r, default=None)}


# ------------------------------------------------------------ tabulated


@dataclass(frozen=True)
class TabulatedInput:
    path: Path
    phi_hat: np.ndarray
    x11: np.ndarray
    x12: np.ndarray
    y12: np.ndarray
    r: float
    theta: float
    phi: float


class Tabulated:
    """Load one seeded (phi_hat, x11, x12, y12) CSV table and validate it,
    the path of `povm validate --csv`.  Every op gets a fresh table."""

    name = "tabulated"
    kernel = "python"
    unit = "table_rows"
    ROWS = 3000
    ATOL = 1e-12

    def __init__(self, rng, workdir: Path):
        self.rng = rng
        self.workdir = workdir
        self.count = 0

    def next_input(self) -> TabulatedInput:
        rng = self.rng
        n = self.ROWS
        center = float(rng.uniform(-PI, PI))
        sigma = float(rng.uniform(1.5, 3.0))
        scale = float(rng.uniform(0.2, 1.0))
        angle = float(rng.uniform(-PI, PI))
        h = 2.0 * PI / (n - 1)
        jitter = rng.uniform(-0.4, 0.4, n)
        jitter[[0, -1]] = 0.0
        phi_hat = center - PI + h * (np.arange(n) + jitter)
        # analytic normalization, so the tabulated completeness residual is
        # small but not zero
        norm = 1.0 / (sigma * math.sqrt(2.0 * PI) * math.erf(PI / (sigma * math.sqrt(2.0))))
        x11 = norm * np.exp(-0.5 * ((phi_hat - center) / sigma) ** 2)
        sgn = np.sign(center - phi_hat)
        x12 = scale * math.sin(angle) * x11 * sgn
        y12 = scale * math.cos(angle) * x11 * sgn
        path = self.workdir / f"table_{self.count}.csv"
        self.count += 1
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("phi_hat,x11,x12,y12\n")
            for row in zip(phi_hat, x11, x12, y12):
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        return TabulatedInput(path, phi_hat, x11, x12, y12, float(rng.uniform(0.05, 0.95)),
                              _polar(rng), _azimuth(rng))

    def release(self, inp) -> None:
        inp.path.unlink(missing_ok=True)

    def units(self, inp) -> int:
        return self.ROWS

    def run(self, inp):
        family = qb.load_tabulated_csv(inp.path)
        ctx = qb.EstimationContext(qb.QubitState(inp.r, inp.theta, inp.phi))
        return qb.validate_povm(family, ctx).as_dict()

    @staticmethod
    def exact(inp) -> dict:
        """Residuals of the piecewise-linear table, integrated exactly."""
        x = inp.phi_hat
        dx = np.diff(x)

        def integral(f):
            return float(np.sum(0.5 * dx * (f[1:] + f[:-1])))

        def first_moment(f, m):
            # integral of (x - m) f(x) for f linear on each segment
            return float(np.sum(dx / 6.0 * ((x[:-1] - m) * (2.0 * f[:-1] + f[1:])
                                            + (x[1:] - m) * (f[:-1] + 2.0 * f[1:]))))

        comp_x, comp_y = integral(inp.x12), integral(inp.y12)
        st = math.sin(inp.theta)
        q = inp.x11 + inp.r * st * (math.cos(inp.phi) * inp.x12 - math.sin(inp.phi) * inp.y12)
        mu = 0.5 * (x[0] + x[-1])
        return {
            "completeness_residual": max(abs(integral(inp.x11) - 1.0), math.hypot(comp_x, comp_y)),
            "x12_mean_residual": abs(comp_x),
            "y12_mean_residual": abs(comp_y),
            "unbiasedness_residual": first_moment(q, mu),
        }

    def check(self, inp, out) -> str:
        want = self.exact(inp)
        ok = all(_close(float(out[k]), v, 1e-9, self.ATOL) for k, v in want.items())
        return OK if ok else WRONG

    def cli_argv(self, inp) -> list[str]:
        return ["povm", "validate", "--csv", str(inp.path), "--r", repr(inp.r),
                "--theta", repr(inp.theta), "--phi", repr(inp.phi), "--format", "json"]

    def check_cli(self, inp, stdout: str) -> str:
        return self.check(inp, json.loads(stdout))

    def detail(self) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (Sweep, Simulate, Oracle, Tabulated)}
