"""qbound benchmark: one seeded workload, end-to-end or per-layer.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from `src/`.
With `--trace 0` it measures, with tracing off, for `--seconds` seconds:

    setup_s      median time for a fresh interpreter to import qbound.cli
    cli_s        median time of the workload's CLI form in a fresh process
    peak_rss_mb  median peak resident memory of those CLI processes
    units_per_s  units of work per second of op time, over the closed loop
    op_ms.p50    median op time
    op_ms.tail   op time at the highest percentile with >= 10 samples beyond it
    ok_frac      share of attempted ops and CLI runs that passed their gate;
                 an oracle accuracy miss does not pass, but only a wrong
                 output or a raised exception counts in `failed`

Times are scaled to an idle reference core (calibrate.py); the raw medians
are in the details line.

With `--trace 1` it runs each op twice, untraced and traced, in alternating
order, and reports per-layer self time, calls and work per op (README.md
lists them).  Load is one process and one thread in a closed loop: each op
starts after the previous one ends.  The last stdout line is the result
object; the line before it holds the run's details and environment.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy loads, here and in every
# process this benchmark spawns.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SPAWN_SHARE = 0.5      # share of --seconds spent on fresh processes
MIN_SPAWN_PAIRS = 5    # import + CLI process pairs per run, at least
TRACE_CLI_RUNS = 3     # in-process traced CLI invocations per traced run
RECHECK_EVERY = 10     # every n-th op is re-run and must repeat exactly
SPAWN_TIMEOUT_S = 60.0
TAIL_BEYOND = 10       # samples required beyond the tail percentile

CLI_PARSE_SPANS = ("cli.main", "cli.build_parser")
CLI_FORMAT_SPANS = ("cli.fmt", "cli.rows_to_csv", "cli.dict_to_csv", "cli.dict_to_json",
                    "cli.write_output", "cli.sweep_svg")


class HarnessError(RuntimeError):
    """The benchmark cannot produce a result (missing sources, broken import)."""


# ------------------------------------------------------------ processes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], workdir: Path):
    """Run argv to completion; return (wall_s, exit_code, stdout, stderr).

    A watchdog kills the child after SPAWN_TIMEOUT_S.
    """
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(SPAWN_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    return (wall, code, out_path.read_text(encoding="utf-8"),
            err_path.read_text(encoding="utf-8"))


IMPORT_ARGV = [sys.executable, "-c", "import qbound.cli"]
CALIBRATION_ARGV = [sys.executable, "-c", "import numpy"]

# `python -m qbound.cli ...` that also reports the process's peak RSS on its
# last stderr line.  The kernel's rusage for a child carries the parent's
# RSS from before exec, so the child reads its own high-water mark.
RSS_MARK = "bench-vmhwm-kb"
CLI_MAIN = f"""import runpy, sys
try:
    runpy.run_module("qbound.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status", encoding="ascii") as fh:
        hwm = next(line.split()[1] for line in fh if line.startswith("VmHWM"))
    sys.stderr.write("\\n{RSS_MARK} " + hwm + "\\n")
"""


def cli_argv(wl, inp) -> list[str]:
    return [sys.executable, "-c", CLI_MAIN, *wl.cli_argv(inp)]


def split_peak_rss(err: str) -> tuple[float, str]:
    """(peak RSS in MB, the rest of stderr) from a CLI_MAIN child's stderr."""
    head, _, mark = err.rstrip("\n").rpartition("\n")
    if not mark.startswith(RSS_MARK):
        return float("nan"), err
    return int(mark.split()[1]) / 1024.0, head


# ------------------------------------------------------------- tallies


class Tally:
    """Attempted ops and CLI runs, by gate status.

    `failed` counts outputs that are wrong or ops that raised.  `missed`
    counts misses of the oracle's accuracy gate: they are the measured
    accuracy of the sphere rule (see workloads.py), and they lower
    `ok_frac` but are not failed operations.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.missed = 0
        self.reported = 0

    def add(self, status: str) -> None:
        self.attempted += 1
        if status == "wrong":
            self.failed += 1
        elif status == "miss":
            self.missed += 1

    @property
    def ok_frac(self) -> float:
        return (self.attempted - self.failed - self.missed) / self.attempted

    def error(self, what: str, exc: BaseException) -> None:
        if self.reported < 5:
            print(f"{what}: {type(exc).__name__}: {exc}", file=sys.stderr)
            self.reported += 1


def timed(fn, *args):
    t0 = time.perf_counter_ns()
    out = fn(*args)
    return out, time.perf_counter_ns() - t0


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with TAIL_BEYOND samples
    beyond it; the maximum when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------- end to end


def end_to_end(wl, wl_cli, seconds: float, workdir: Path):
    from calibrate import REFERENCE_SPAWN_S, RefClock
    from workloads import same_output

    tally = Tally()
    raw_ms, ref_ms, units = [], [], 0
    setup_raw, setup_ref, cli_raw, cli_ref, cli_rss = [], [], [], [], []

    def calibration_spawn() -> float:
        wall, code, _, err = spawn(CALIBRATION_ARGV, workdir)
        if code != 0:
            raise HarnessError(f"calibration process failed:\n{err}")
        return wall

    cal_before = calibration_spawn()

    def spawn_pair(counted: bool):
        """An import and a CLI process between two calibration processes;
        consecutive pairs share the calibration process between them."""
        nonlocal cal_before
        wall, code, _, err = spawn(IMPORT_ARGV, workdir)
        if code != 0:
            raise HarnessError(f"importing qbound.cli failed:\n{err}")
        inp = wl_cli.next_input()
        try:
            argv = cli_argv(wl_cli, inp)
            cwall, code, out, err = spawn(argv, workdir)
            peak, err = split_peak_rss(err)
            if code != 0:
                print(f"cli exit {code}: {' '.join(argv[3:])}\n{err}", file=sys.stderr)
            tally.add(wl_cli.check_cli(inp, out) if code == 0 else "wrong")
        finally:
            wl_cli.release(inp)
        cal_after = calibration_spawn()
        scale = REFERENCE_SPAWN_S / (0.5 * (cal_before + cal_after))
        cal_before = cal_after
        if counted:
            setup_raw.append(wall)
            setup_ref.append(wall * scale)
            cli_raw.append(cwall)
            cli_ref.append(cwall * scale)
            if math.isfinite(peak):
                cli_rss.append(peak)

    # Processes first, then ops.  The processes carry their own calibration,
    # and ops that ran right after a child would start with cold caches.
    start = time.perf_counter()
    spawn_pair(counted=False)  # compiles bytecode, fills the page cache
    while len(setup_ref) < MIN_SPAWN_PAIRS or time.perf_counter() < start + SPAWN_SHARE * seconds:
        spawn_pair(counted=True)

    op_clock = RefClock(wl.kernel)
    warm = wl.next_input()  # lazy imports, cached Gauss rules
    wl.run(warm)
    wl.release(warm)
    now = time.perf_counter()
    deadline = max(start + seconds, now + (1.0 - SPAWN_SHARE) * seconds)
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        inp = wl.next_input()
        try:
            out, raw, scaled = op_clock.call(wl.run, inp)
            raw_ms.append(raw * 1e3)
            ref_ms.append(scaled * 1e3)
            units += wl.units(inp)
            status = wl.check(inp, out)
            if status == "ok" and index % RECHECK_EVERY == 0 and not same_output(out, wl.run(inp)):
                status = "wrong"
        except Exception as exc:  # a raising op is a failed op; keep measuring
            tally.error(f"op {index}", exc)
            status = "wrong"
        finally:
            wl.release(inp)
        tally.add(status)
        index += 1

    if not ref_ms or not cli_rss:
        raise HarnessError("no op completed" if not ref_ms else "no CLI run reported its peak RSS")
    tail_ms, tail_pct = tail(ref_ms)
    metrics = {
        "setup_s": metric(statistics.median(setup_ref), "s"),
        "cli_s": metric(statistics.median(cli_ref), "s"),
        "units_per_s": metric(units / (sum(ref_ms) * 1e-3), "1/s"),
        "op_ms.p50": metric(statistics.median(ref_ms), "ms"),
        "op_ms.tail": metric(tail_ms, "ms"),
        "ok_frac": metric(tally.ok_frac, "frac"),
        "peak_rss_mb": metric(statistics.median(cli_rss), "MB"),
    }
    detail = {
        "ops": len(ref_ms),
        "unit": wl.unit,
        "op_ms.tail_percentile": tail_pct,
        "op_ms.samples": len(ref_ms),
        "spawn_pairs": len(setup_ref),
        "raw": {"setup_s": statistics.median(setup_raw), "cli_s": statistics.median(cli_raw),
                "units_per_s": units / (sum(raw_ms) * 1e-3),
                "op_ms.p50": statistics.median(raw_ms), "op_ms.tail": tail(raw_ms)[0]},
        "calibration": {"op_kernel": wl.kernel, "processes": 3 * len(setup_ref) + 4},
    }
    return tally, metrics, detail


# ---------------------------------------------------------------- trace


def per_op(stats, names, field, ops):
    total = 0
    for name in names:
        st = stats.get(name)
        if st is None:
            continue
        if field == "calls":
            total += st.calls
        elif field == "self_ms":
            total += st.self_ns * 1e-6
        else:
            total += st.work.get(field, 0)
    return total / ops


# (metric name, spans it sums, field, unit)
_INTEGRAND = ("phasespace.integrand", "phasespace.sw_kernel")
LAYER_METRICS = [
    ("quadrature.nodes_1d.calls", ("quadrature.nodes_1d",), "calls", "count"),
    ("quadrature.nodes_1d.self_ms", ("quadrature.nodes_1d",), "self_ms", "ms"),
    ("quadrature.nodes_1d.nodes", ("quadrature.nodes_1d",), "nodes", "count"),
    ("measurement.element.calls", ("measurement.element",), "calls", "count"),
    ("measurement.element.points", ("measurement.element",), "points", "count"),
    ("measurement.element.self_ms", ("measurement.element",), "self_ms", "ms"),
    ("quadrature.integrate_1d.calls", ("quadrature.integrate_1d",), "calls", "count"),
    ("quadrature.integrate_1d.self_ms", ("quadrature.integrate_1d",), "self_ms", "ms"),
    ("measurement.validate_povm.self_ms", ("measurement.validate_povm",), "self_ms", "ms"),
    ("measurement.estimator_moments.self_ms", ("measurement.estimator_moments",), "self_ms", "ms"),
    ("bounds.ab_coefficients.calls", ("bounds.ab_coefficients",), "calls", "count"),
    ("bounds.bound_C.self_ms", ("bounds.bound_C",), "self_ms", "ms"),
    ("bounds.bound_Cmax.self_ms", ("bounds.bound_Cmax",), "self_ms", "ms"),
    ("metrics.measurement_fisher.self_ms", ("metrics.measurement_fisher",), "self_ms", "ms"),
    ("measurement.sample_outcomes.self_ms", ("measurement.sample_outcomes",), "self_ms", "ms"),
    ("measurement.outcome_distribution.self_ms", ("measurement.outcome_distribution",),
     "self_ms", "ms"),
    ("quadrature.sphere_integrate.calls", ("quadrature.sphere_integrate",), "calls", "count"),
    ("quadrature.sphere_integrate.self_ms", ("quadrature.sphere_integrate",), "self_ms", "ms"),
    ("quadrature.sphere_integrate.nodes", ("quadrature.sphere_integrate",), "nodes", "count"),
    ("phasespace.integrand.calls", _INTEGRAND, "calls", "count"),
    ("phasespace.integrand.points", _INTEGRAND, "points", "count"),
    ("phasespace.integrand.self_ms", _INTEGRAND, "self_ms", "ms"),
    ("derivatives.new_log_derivative.self_ms", ("derivatives.new_log_derivative",),
     "self_ms", "ms"),
    ("metrics.husimi_classical_metric.self_ms", ("metrics.husimi_classical_metric",),
     "self_ms", "ms"),
    ("measurement.load_tabulated_csv.self_ms", ("measurement.load_tabulated_csv",),
     "self_ms", "ms"),
    ("measurement.load_tabulated_csv.bytes", ("measurement.load_tabulated_csv",), "bytes", "B"),
]


def layer_metrics(stats, ops: int) -> dict:
    out = {name: metric(per_op(stats, spans, field, ops), unit)
           for name, spans, field, unit in LAYER_METRICS}
    nodes = stats.get("quadrature.nodes_1d")
    repeats = nodes.work.get("repeats", 0) / nodes.calls if nodes else 0.0
    out["quadrature.nodes_1d.repeat_frac"] = metric(repeats, "frac")
    sampler = stats.get("measurement.sample_outcomes")
    draws = sampler.work.get("draws", 0) if sampler else 0
    out["measurement.sample_outcomes.ns_per_draw"] = metric(
        sampler.self_ns / draws if draws else 0.0, "ns")
    return out


def traced(wl, wl_cli, seconds: float, workdir: Path):
    from tracer import ROOT as ROOT_SPAN, Tracer
    from workloads import same_output

    import qbound.cli

    tracer = Tracer()
    tally = Tally()

    def run_traced(inp):
        tracer.install()
        try:
            return timed(tracer.run_op, wl.run, inp)
        finally:
            tracer.uninstall()

    warm = wl.next_input()  # warm both paths, then count afresh
    wl.run(warm)
    run_traced(warm)
    wl.release(warm)
    tracer.reset()

    untraced_ns = traced_ns = ops = 0
    deadline = time.perf_counter() + seconds
    while ops == 0 or time.perf_counter() < deadline:
        inp = wl.next_input()
        try:
            if ops % 2 == 0:
                out_u, dt_u = timed(wl.run, inp)
                out_t, dt_t = run_traced(inp)
            else:
                out_t, dt_t = run_traced(inp)
                out_u, dt_u = timed(wl.run, inp)
            untraced_ns += dt_u
            traced_ns += dt_t
            status = wl.check(inp, out_u)
            if status == "ok" and not same_output(out_u, out_t):
                status = "wrong"
        except Exception as exc:  # a raising op is a failed op; keep measuring
            tally.error(f"traced op {ops}", exc)
            status = "wrong"
        finally:
            wl.release(inp)
        tally.add(status)
        ops += 1

    stats = tracer.stats
    self_ns = sum(st.self_ns for st in stats.values())
    # every nanosecond of a traced op lands in exactly one span's self time
    if abs(self_ns - traced_ns) > 0.01 * traced_ns:
        raise HarnessError(f"span self times sum to {self_ns} ns, traced ops took {traced_ns} ns")
    metrics = layer_metrics(stats, ops)
    metrics["trace.overhead_frac"] = metric(traced_ns / untraced_ns - 1.0, "frac")
    metrics["trace.unattributed_frac"] = metric(stats[ROOT_SPAN].self_ns / self_ns, "frac")
    metrics["fail_frac"] = metric(1.0 - tally.ok_frac, "frac")
    detail = {"ops": ops, "unit": wl.unit, "untraced_ms": untraced_ns * 1e-6,
              "traced_ms": traced_ns * 1e-6, "span_self_sum_ms": self_ns * 1e-6,
              "spans": {name: {"calls": st.calls, "self_ms_per_op": st.self_ns * 1e-6 / ops,
                               **st.work} for name, st in sorted(stats.items())}}
    if wl.name == "sweep":
        rows = ops * wl.ROWS
        detail["per_row"] = {
            "nodes_1d_calls": per_op(stats, ["quadrature.nodes_1d"], "calls", rows),
            "ab_coefficients_calls": per_op(stats, ["bounds.ab_coefficients"], "calls", rows)}

    tracer.reset()
    for _ in range(TRACE_CLI_RUNS):
        inp = wl_cli.next_input()
        buf = io.StringIO()
        tracer.install()
        try:
            with contextlib.redirect_stdout(buf):
                code = qbound.cli.main(wl_cli.cli_argv(inp))
        finally:
            tracer.uninstall()
            wl_cli.release(inp)
        tally.add(wl_cli.check_cli(inp, buf.getvalue()) if code == 0 else "wrong")
    metrics["cli.parse_ms"] = metric(
        per_op(tracer.stats, CLI_PARSE_SPANS, "self_ms", TRACE_CLI_RUNS), "ms")
    metrics["cli.format_ms"] = metric(
        per_op(tracer.stats, CLI_FORMAT_SPANS, "self_ms", TRACE_CLI_RUNS), "ms")
    return tally, metrics, detail


# ----------------------------------------------------------------- main


def environment() -> dict:
    import numpy
    import qbound

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "qbound": qbound.__version__, "threads": {v: os.environ[v] for v in THREAD_VARS}}


def load_package():
    if not (SRC / "qbound" / "__init__.py").is_file():
        raise HarnessError(f"no qbound sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qbound

    if Path(qbound.__file__).resolve().parent != (SRC / "qbound").resolve():
        raise HarnessError(f"imported qbound from {qbound.__file__}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "simulate", "oracle", "tabulated"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_package()
        import numpy as np
        from workloads import WORKLOADS

        with tempfile.TemporaryDirectory(prefix=".bench_work_", dir=ROOT) as tmp:
            workdir = Path(tmp)
            (workdir / "cli").mkdir()
            cls = WORKLOADS[args.workload]
            # separate input streams for ops and CLI runs: how many CLI runs
            # fit in a run depends on timing, the op inputs must not
            wl = cls(np.random.default_rng([args.seed, 0]), workdir)
            wl_cli = cls(np.random.default_rng([args.seed, 1]), workdir / "cli")
            measure = traced if args.trace else end_to_end
            tally, metrics, detail = measure(wl, wl_cli, args.seconds, workdir)
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    detail.update(wl.detail())
    detail.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "missed": tally.missed,
                   "environment": environment()})
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
