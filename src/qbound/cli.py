"""qbound command line: metric reports, POVM validation, bound sweeps,
derivation audits, Monte Carlo runs, and the built-in self-test.

All numeric cells in CSV output carry 12 significant digits with a '.'
decimal separator; identical configurations produce byte-identical output.
Angles are radians only.

Exit codes: 0 success; 1 a domain error, a bad table or config value, or a
failed sweep row; 2 a command-line usage error (argparse's own code); 3 a
self-test failure; 4 an I/O failure.  `povm validate` is diagnostic: it
exits 0 whatever its checks report, all_ok false included.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import fields, replace

import numpy as np

from .bounds import SweepRow, audit_derivation, bounds_sweep, metric_report
from .measurement import (
    EstimationContext,
    estimator_moments,
    gaussian_sharp_family,
    load_tabulated_csv,
    outcome_distribution,
    sample_outcomes,
    validate_povm,
)
from .quadrature import DEFAULT_SPEC, QuadSpec
from .qubit import DomainError, QubitState

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 4
EXIT_SELFTEST = 3

_SERIES_COLORS = {
    "B_max": "#c0392b",
    "B_SLD": "#2980b9",
    "B_RLD": "#27ae60",
    "B_Fisher": "#8e44ad",
    "B_Husimi": "#e67e22",
}


def fmt(x) -> str:
    """One cell, locale-independent: None as empty, a bool as true or false,
    a list, tuple or array as its cells joined by ';', an int or a str as
    written, and any other number to 12 significant digits."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (list, tuple, np.ndarray)):
        return ";".join(fmt(v) for v in np.asarray(x).ravel())
    if isinstance(x, (int, str)):
        return str(x)
    return f"{float(x):.11e}"


def dict_to_csv(data: dict) -> str:
    lines = ["quantity,value"]
    for key, value in data.items():
        lines.append(f"{key},{fmt(value)}")
    return "\n".join(lines) + "\n"


def rows_to_csv(columns, rows) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(fmt(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _json_value(obj):
    """obj with numpy values made plain and non-finite floats as None (null)."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _json_value(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_value(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def dict_to_json(data: dict) -> str:
    """RFC 8259 JSON: a non-finite float is written as null."""
    import json  # here, so that a CSV command does not load it
    return json.dumps(_json_value(data), indent=2, allow_nan=False) + "\n"


def write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def sweep_svg(rows, log_y: bool = False) -> str:
    """Minimal deterministic line chart of the bound series vs r."""
    width, height = 840, 520
    ml, mr, mt, mb = 70, 170, 30, 50
    plot_w, plot_h = width - ml - mr, height - mt - mb
    ok_rows = [row for row in rows if row.error is None]
    if not ok_rows:
        raise ValueError("no successful sweep rows to plot")
    xs = [row.r for row in ok_rows]
    scale = math.log10 if log_y else float
    series = {name: [scale(getattr(row, name)) for row in ok_rows] for name in _SERIES_COLORS}
    values = [y for ys in series.values() for y in ys]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(values), max(values)
    span_x = hi_x - lo_x or 1.0
    span_y = hi_y - lo_y or 1.0

    def px(x):
        return ml + (x - lo_x) / span_x * plot_w

    def py(y):
        return mt + plot_h - (y - lo_y) / span_y * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333333"/>',
    ]
    for i in range(5):
        yv = lo_y + span_y * i / 4
        ypix = py(yv)
        label = f"{10 ** yv:.3g}" if log_y else f"{yv:.3g}"
        parts.append(
            f'<line x1="{ml}" y1="{ypix:.2f}" x2="{ml + plot_w}" y2="{ypix:.2f}" '
            'stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{ml - 8}" y="{ypix + 4:.2f}" text-anchor="end" '
            f'font-size="12">{label}</text>'
        )
    for i in range(5):
        xv = lo_x + span_x * i / 4
        parts.append(
            f'<text x="{px(xv):.2f}" y="{mt + plot_h + 18}" text-anchor="middle" '
            f'font-size="12">{xv:.3g}</text>'
        )
    parts.append(
        f'<text x="{ml + plot_w / 2:.2f}" y="{height - 12}" text-anchor="middle" '
        'font-size="13">r</text>'
    )
    for idx, (name, color) in enumerate(_SERIES_COLORS.items()):
        pts = [f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, series[name])]
        parts.append(
            f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}" '
            'stroke-width="2"/>'
        )
        ly = mt + 16 + 20 * idx
        parts.append(
            f'<line x1="{ml + plot_w + 12}" y1="{ly}" x2="{ml + plot_w + 36}" '
            f'y2="{ly}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{ml + plot_w + 42}" y="{ly + 4}" font-size="12">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _add_state_args(parser):
    # r stays optional at parse time so a config file can supply it;
    # its presence is enforced after the merge.
    parser.add_argument("--r", type=float, default=None, help="purity radius in (0,1)")
    parser.add_argument("--theta", type=float, default=math.pi / 2, help="polar angle, radians")
    parser.add_argument("--phi", type=float, default=3 * math.pi / 4, help="azimuth, radians")


def _add_common_args(parser):
    parser.add_argument("--eps", type=float, default=0.0, help="window offset epsilon")
    parser.add_argument("--sigma", type=float, default=3.0, help="gaussian family width")
    parser.add_argument("--panels", type=int, default=None, help="quadrature panels override")
    parser.add_argument("--order", type=int, default=None, help="quadrature order override")
    parser.add_argument("--format", choices=("csv", "json"), default="json")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--config", default=None, help="key=value config file; flags win")


class _Parser(argparse.ArgumentParser):
    """Reads "-1e-05", "-inf" and "-nan" as values, not flags; subparsers are built with type(self)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"(?i)^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qbound", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metrics", help="metric report at one state point")
    p.set_defaults(run=_cmd_metrics, parser=p)
    _add_state_args(p)
    _add_common_args(p)

    p = sub.add_parser("povm", help="POVM family tools")
    povm_sub = p.add_subparsers(dest="povm_command", required=True)
    v = povm_sub.add_parser("validate", help="diagnostic validation report for a family; exits 0")
    _add_state_args(v)
    _add_common_args(v)
    v.add_argument("--csv", default=None, help="tabulated family CSV (phi_hat,x11,x12,y12)")
    # None marks "not given", which --csv requires: a table carries its own window
    v.set_defaults(eps=None, sigma=None, run=_cmd_povm_validate, parser=v)

    p = sub.add_parser("bounds", help="estimation bound tools")
    bounds_sub = p.add_subparsers(dest="bounds_command", required=True)
    s = bounds_sub.add_parser("sweep", help="bound comparison over an r grid")
    s.set_defaults(run=_cmd_bounds_sweep, parser=s)
    s.add_argument("--r-min", type=float, default=0.1)
    s.add_argument("--r-max", type=float, default=0.9)
    s.add_argument("--steps", type=int, default=9)
    s.add_argument("--theta", type=float, default=math.pi / 2,
                   help="polar angle, radians; rows fail where a phi-phi entry underflows")
    s.add_argument("--phi", type=float, default=3 * math.pi / 4)
    _add_common_args(s)
    s.add_argument("--svg", default=None, help="also write an SVG chart here")
    s.add_argument("--log-y", action="store_true", help="log-scale the SVG y axis")

    p = sub.add_parser("audit", help="derivation audit report")
    p.set_defaults(run=_cmd_audit, parser=p)
    _add_state_args(p)
    _add_common_args(p)

    p = sub.add_parser("simulate", help="Monte Carlo check of the estimator moments")
    p.set_defaults(run=_cmd_simulate, parser=p)
    _add_state_args(p)
    _add_common_args(p)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (falls back to QBOUND_SEED, then 0)")

    p = sub.add_parser("selftest", help="run the built-in oracle/invariant suite")
    p.set_defaults(run=_cmd_selftest, parser=p)
    return parser


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _config_value(action: argparse.Action, text: str):
    """Convert and check one config value the way its flag would be."""
    if action.nargs == 0:  # store_true flag
        if text.lower() not in _BOOL_WORDS:
            raise ValueError(f"expected one of {', '.join(_BOOL_WORDS)}, got {text!r}")
        return _BOOL_WORDS[text.lower()]
    value = action.type(text) if action.type else text
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"invalid choice {value!r} (choose from {', '.join(action.choices)})")
    return value


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv; values from a --config file become the defaults of the
    selected command's parser, which each command sets as `parser`, so any
    flag spelling argparse accepts wins over them."""
    args = parser.parse_args(argv)
    path = getattr(args, "config", None)
    if not path:
        return args
    actions = {a.dest: a for a in args.parser._actions if a.dest in vars(args)}
    defaults = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in actions:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                defaults[key] = _config_value(actions[key], value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    args.parser.set_defaults(**defaults)
    return parser.parse_args(argv)


def _state(args) -> QubitState:
    if args.r is None:
        raise DomainError("--r is required (flag or config file)")
    return QubitState(args.r, args.theta, args.phi)


def _quad_spec(args, own: QuadSpec = DEFAULT_SPEC) -> QuadSpec:
    """QuadSpec of the flags given, the rest defaulted; `own` when neither is given."""
    given = {k: v for k, v in (("panels", args.panels), ("order", args.order)) if v is not None}
    return QuadSpec(**given) if given else own


def _emit(args, data: dict | None = None, csv_text: str | None = None) -> None:
    if args.format == "json":
        write_output(dict_to_json(data), args.out)
    else:
        write_output(csv_text if csv_text is not None else dict_to_csv(data), args.out)


def _cmd_metrics(args) -> int:
    _emit(args, metric_report(_state(args), eps=args.eps, sigma=args.sigma, spec=_quad_spec(args)))
    return EXIT_OK


def _cmd_povm_validate(args) -> int:
    state = _state(args)
    given = {k: v for k, v in (("eps", args.eps), ("sigma", args.sigma)) if v is not None}
    if args.csv and given:
        raise DomainError(
            f"--csv takes its window from the table; --{' and --'.join(given)} cannot be used with it"
        )
    ctx = EstimationContext(state, eps=given.get("eps", 0.0))
    if args.csv:
        family = load_tabulated_csv(args.csv)
    else:
        family = gaussian_sharp_family(ctx, sigma=given.get("sigma", 3.0))
    family = replace(family, spec=_quad_spec(args, family.spec))
    report = validate_povm(family, ctx)
    data = {"family": family.label, **report.as_dict()}
    _emit(args, data)
    return EXIT_OK


def _cmd_bounds_sweep(args) -> int:
    if args.steps < 1:
        raise DomainError("steps must be >= 1")
    if args.log_y and not args.svg:
        raise DomainError("--log-y scales the --svg chart only; give --svg with it")
    grid = np.linspace(args.r_min, args.r_max, args.steps)
    rows = bounds_sweep(grid, theta=args.theta, phi=args.phi, eps=args.eps,
                        sigma=args.sigma, spec=_quad_spec(args))
    table = [row.as_dict() for row in rows]
    if args.format == "json":
        _emit(args, {"rows": table})
    else:
        columns = [f.name for f in fields(SweepRow) if f.name != "error"]
        _emit(args, csv_text=rows_to_csv(columns, table))
    failed = [row for row in rows if row.error is not None]
    for row in failed:
        print(f"row r={row.r:g} failed: {row.error}", file=sys.stderr)
    if args.svg:
        write_output(sweep_svg(rows, log_y=args.log_y), args.svg)
    return EXIT_DOMAIN if failed else EXIT_OK


def _cmd_audit(args) -> int:
    ctx = EstimationContext(_state(args), eps=args.eps)
    family = replace(gaussian_sharp_family(ctx, sigma=args.sigma), spec=_quad_spec(args))
    report = audit_derivation(ctx, family)
    _emit(args, {"family": family.label, **report})
    return EXIT_OK


_LEAF = 8192


def _sample_std(x: np.ndarray) -> np.float64:
    """np.std(x, ddof=1) bit for bit, holding x and one _LEAF-element temporary:
    add.reduce sums a contiguous float64 array pairwise, splitting n > 128 at
    n // 2 - (n // 2) % 8, and each leaf is a node of that tree, added in order."""
    mean = np.add.reduce(x) / x.size

    def tree(lo: int, m: int) -> np.float64:
        if m <= _LEAF:
            d = x[lo : lo + m] - mean
            return np.add.reduce(np.multiply(d, d, out=d))
        m2 = m // 2 - (m // 2) % 8
        return tree(lo, m2) + tree(lo + m2, m - m2)

    return np.sqrt(tree(0, x.size) / (x.size - 1))


def _cmd_simulate(args) -> int:
    seed, source = args.seed, "--seed"
    if seed is None:
        source, text = "QBOUND_SEED", os.environ.get("QBOUND_SEED", "0")
        try:
            seed = int(text)
        except ValueError:
            raise ValueError(f"{source}: expected a non-negative integer, got {text!r}") from None
    for name, value in ((source, seed), ("--samples", args.samples)):
        if value < 0:
            raise ValueError(f"{name}: expected a non-negative integer, got {value}")
    state = _state(args)
    ctx = EstimationContext(state, eps=args.eps)
    family = replace(gaussian_sharp_family(ctx, sigma=args.sigma), spec=_quad_spec(args))
    mean_q, var_q = estimator_moments(ctx, family)
    dist = outcome_distribution(ctx, family)
    n = args.samples
    try:
        draws = sample_outcomes(dist, n, seed=seed)
        mean_emp = float(np.mean(draws)) if n else math.nan
        mean_se = float(_sample_std(draws) / math.sqrt(n)) if n > 1 else math.nan
        draws -= state.phi
        sq = np.multiply(draws, draws, out=draws)
        var_emp = float(np.mean(sq)) if n else math.nan
        var_se = float(_sample_std(sq) / math.sqrt(n)) if n > 1 else math.nan
    except MemoryError as exc:
        raise ValueError(f"--samples: {exc}") from None
    data = {
        "samples": n,
        "seed": seed,
        "mean_empirical": mean_emp,
        "mean_standard_error": mean_se,
        "mean_quadrature": mean_q,
        "variance_empirical": var_emp,
        "variance_standard_error": var_se,
        "variance_quadrature": var_q,
    }
    _emit(args, data)
    return EXIT_OK


def _cmd_selftest(_args) -> int:
    from .selftest import run_selftest
    results = run_selftest()
    status = EXIT_OK
    for res in results:
        line = f"{'PASS' if res.ok else 'FAIL'}  {res.name}"
        if res.detail:
            line += f"  [{res.detail}]"
        print(line)
        if not res.ok:
            status = EXIT_SELFTEST
    return status


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = _apply_config(parser, argv)
        return args.run(args)
    except (DomainError, ValueError) as exc:
        print(f"qbound: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"qbound: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
