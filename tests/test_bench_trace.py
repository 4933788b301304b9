"""Every benchmark workload runs alike with and without the bench tracer.

The tracer wraps the package's public functions and the callables they
return, so a change to a call contract (say, how a sphere integrand is
called) can break a traced run while every untraced test passes.  One op
per workload, untraced and traced, catches that here.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = str(Path(__file__).resolve().parent.parent / "bench")
sys.path.insert(0, BENCH)
try:
    import tracer
    import workloads
finally:
    sys.path.remove(BENCH)

SEED = 22


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_op_gives_the_same_output_under_the_tracer(name, tmp_path):
    wl = workloads.WORKLOADS[name](np.random.default_rng([SEED, 0]), tmp_path)
    inp = wl.next_input()
    try:
        plain = wl.run(inp)
        t = tracer.Tracer()
        t.install()
        try:
            traced = t.run_op(wl.run, inp)
        finally:
            t.uninstall()
        assert workloads.same_output(plain, traced)
        assert wl.check(inp, plain) in (workloads.OK, workloads.MISS)
    finally:
        wl.release(inp)
    assert t.stats[tracer.ROOT].calls == 1
