"""The benchmark's tracer (perfbench/tracing.py) still fits the package.

A traced benchmark run wraps every name in tracing.WRAPPED and sizes
each system that transform returns. A rename or a changed field in the
package would break those runs only; this test loads the tracer by path
and runs both on a small problem.
"""

import importlib.util
import sys
from pathlib import Path

import gamblets as gb
from gamblets import cli, denoise, graphdenoise, hierarchy, numerics, operators, transform  # noqa: F401

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_wraps_every_name_and_sizes_a_system():
    tracing = _load_tracing()
    originals = {}
    for name, mod, attr in tracing.WRAPPED:
        owner = sys.modules[f"gamblets.{mod}"]
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), name
        originals[(mod, attr)] = owner

    hier = gb.build_dyadic(1, 4)
    op = gb.assemble_fem(gb.coeff_1d(), hier)
    tracer = tracing.Tracer()
    tracer.install(0)
    try:
        assert gb.transform is not originals[("transform", "transform")]
        system = gb.transform(op, hier)
    finally:
        tracer.uninstall()
    assert {"transform.transform", "transform.validate"} <= {span[0] for span in tracer.spans}
    assert tracer.sizes[0]["transform.system_mb"] > 0
    assert tracing.system_bytes(system) > 0
    for (mod, attr), orig in originals.items():
        owner = sys.modules[f"gamblets.{mod}"]
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert owner is orig, attr
