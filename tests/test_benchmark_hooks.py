"""Names the benchmark harness looks up in chaincast.

``benchmarks/`` lies outside the test paths, so a change that renames or
deletes one of these names would otherwise only break the traced
benchmark run (``benchmarks/run.py --trace 1``).
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import chaincast as cc

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("chaincast_bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _bindings():
    """Every attribute of every chaincast module and of every class they
    define, by identity."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname != "chaincast" and not modname.startswith("chaincast."):
            continue
        for attr, obj in vars(mod).items():
            out[(modname, attr)] = obj
            if inspect.isclass(obj) and obj.__module__ == modname:
                for member, val in vars(obj).items():
                    out[(modname, attr, member)] = val
    return out


def test_route_probes_resolve(tracing):
    for layer, attr in tracing.ROUTE_PROBES:
        mod = importlib.import_module(f"chaincast.{layer}")
        assert callable(getattr(mod, attr, None)), f"chaincast.{layer}.{attr}"


def test_install_then_uninstall_restores_originals(tracing):
    for layer in tracing.LAYERS:
        importlib.import_module(f"chaincast.{layer}")
    before = _bindings()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert sys.modules["chaincast.stieltjes"]._reducer_lipschitz \
            is not before[("chaincast.stieltjes", "_reducer_lipschitz")]
        sys.modules["chaincast.chainmap"].chain_coefficients(
            cc.power_law_sd(1.0, 0.1, 1.0), 0.0, 5)
    finally:
        tracing.uninstall(restore)
    assert tracer.spans
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, obj in before.items() if after[key] is not obj]
    assert changed == []


def test_traced_reducer_records_node_maps(tracing):
    # ``kernel_cells`` counts the map_nodes spans directly under the
    # Lipschitz reducer's span: map_nodes must stay a plain function that
    # ``install`` wraps, whatever cache stands behind it, and the private
    # refinement loop the reducer's levels run through must put no traced
    # span between the two.
    for layer in tracing.LAYERS:
        importlib.import_module(f"chaincast.{layer}")
    quadrature = sys.modules["chaincast.quadrature"]
    original = quadrature.map_nodes
    m = cc.Measure(lambda x: np.sqrt(np.maximum((x - 0.3) * (2.1 - x), 0.0)),
                   ((0.3, 2.1),))
    xs = np.linspace(*cc.stieltjes.evaluation_band(m), 257)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert quadrature.map_nodes is not original
        assert quadrature.map_nodes.__wrapped__ is original
        sys.modules["chaincast.stieltjes"].reducer(m, xs)
    finally:
        tracing.uninstall(restore)
    by_id = {s[0]: s for s in tracer.spans}
    (lipschitz,) = [s[0] for s in tracer.spans
                    if s[3] == "stieltjes.reducer.lipschitz"]

    def inside(span):
        while span[1] in by_id:
            span = by_id[span[1]]
            if span[0] == lipschitz:
                return True
        return False

    maps = [s for s in tracer.spans
            if s[3] == "quadrature.map_nodes" and inside(s)]
    # _first_level's maps, then one per level the rows run: the rows at
    # the band ends run to the last level
    assert len(maps) > cc.quadrature.MAX_LEVEL - cc.stieltjes._first_level(m)
    assert all(s[1] == lipschitz for s in maps)
    assert tracing.aggregate(tracer.spans, 1)["stieltjes.reducer.kernel_cells"] > 0


def test_custom_sd_takes_exponents_positionally():
    # benchmarks/workloads.py builds its family-less semicircle this way
    f = lambda w: np.sqrt(np.maximum(w * (1.0 - w), 0.0))
    sd = cc.custom_sd(f, ((0.0, 1.0),), ((0.5, 0.5),))
    assert sd.endpoint_exponents == ((0.5, 0.5),)
    assert sd(0.25) == f(0.25)
