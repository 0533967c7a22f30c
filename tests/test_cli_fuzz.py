"""Seeded property test of `chaincast run`'s exit codes and outputs.

Configs are drawn over every family, mapping q, sites, residual orders and
grids, valid and invalid, and run through ``cli.main`` in process.  Each
must exit 0, 2, 3 or 4 without raising; a failure prints one line; a
success writes a chain of ``sites`` rows and only finite numbers.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from chaincast import cli, orthopoly

EXITS = (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERICAL, cli.EXIT_UNSUPPORTED)
PREFIXES = ("config error:", "numerical failure:", "unsupported:")

# Most draws sit at ordinary scales; the rest span the float range.
_scales = st.one_of(st.floats(0.05, 20.0),
                    st.builds(lambda e: 10.0**e, st.integers(-300, 300)))


@st.composite
def _power_law(draw, family):
    return {"family": family,
            "s": draw(st.one_of(st.sampled_from([-0.5, 0, 0.5, 1, 2, 3]),
                                st.floats(-0.99, 60.0))),
            "alpha": draw(_scales), "omega_c": draw(_scales)}


_SHAPES = {
    "linear": lambda w: 0.5 + w,
    "constant": lambda w: 1.0 + 0 * w,
    "sqrt": lambda w: math.sqrt(w),
    "bump": lambda w: w * (1.0 - w) + 1e-3,
}


@st.composite
def _tabulated(draw):
    count = draw(st.integers(2, 200))
    shape = draw(st.sampled_from(sorted(_SHAPES)))
    rows = [(k / (count - 1), _SHAPES[shape](k / (count - 1))) for k in range(count)]
    return {"family": "tabulated", "samples_path": "samples.csv"}, rows


@st.composite
def _piecewise(draw):
    # each piece starts at the previous end plus a gap that may be zero
    # (touching) or negative (overlapping)
    lo, pieces = draw(st.floats(0.0, 2.0)), []
    for _ in range(draw(st.integers(1, 3))):
        hi = lo + draw(st.floats(0.1, 3.0))
        pieces.append([lo, hi, draw(st.one_of(st.floats(0.0, 5.0), _scales))])
        lo = hi + draw(st.sampled_from([-0.5, 0.0, 0.3, 1.0]))
    return {"family": "piecewise", "intervals": pieces}


@st.composite
def _valid(draw):
    """(config, tabulated rows or None), with a family and q that the
    generic routes serve given fewer sites, so that a draw runs quickly."""
    kind = draw(st.sampled_from(["power_law", "power_law_exp_cutoff",
                                 "tabulated", "piecewise"]))
    rows = None
    if kind == "tabulated":
        spec, rows = draw(_tabulated())
    elif kind == "piecewise":
        spec = draw(_piecewise())
    else:
        spec = draw(_power_law(kind))
    q = draw(st.one_of(st.sampled_from([0, 0.5, 1]), st.floats(0.0, 1.0)))
    closed = kind == "power_law" or (kind == "piecewise" and len(spec["intervals"]) == 1)
    generic = not closed or q not in (0, 1)
    sites = draw(st.integers(1, 40 if generic else orthopoly.MAX_ORDER - 1))
    config = {"spectral_density": spec, "mapping_q": q, "sites": sites,
              "grid": {"points": draw(st.integers(2, 64))}}
    if q in (0, 1) and draw(st.booleans()):
        config["residual_orders"] = draw(st.lists(st.integers(0, 4), max_size=3))
    if draw(st.booleans()):
        config["grid"]["range"] = sorted(draw(st.lists(st.floats(0.0, 3.0),
                                                       min_size=2, max_size=2)))
    return config, rows


_BAD_VALUES = st.sampled_from([None, True, "x", [], {}, -1, 0, 1e400, math.nan,
                               math.inf, 2.5, 500])


@st.composite
def _invalid(draw):
    """A valid draw with one field broken: removed, retyped or unknown."""
    config, rows = draw(_valid())
    spec = config["spectral_density"]
    target = draw(st.sampled_from([config, spec, config["grid"]]))
    how = draw(st.sampled_from(["drop", "retype", "unknown"]))
    if how == "unknown":
        target["colour"] = 1
    elif how == "drop" or not target:
        target.pop(draw(st.sampled_from(sorted(target))), None)
    else:
        target[draw(st.sampled_from(sorted(target)))] = draw(_BAD_VALUES)
    return config, rows


def _finite_cells(path):
    """Every number of a CSV output, its comment header's values included,
    except a support end, which is inf on unbounded support."""
    text = path.read_text()
    header, body = text.split("\n", 1)
    cells = [v.split("=", 1)[1] for v in header.lstrip("# ").split()
             if not v.startswith("support=")]
    cells = [c for v in cells for c in v.strip("[]").split(",")]
    rows = list(csv.reader(io.StringIO(body)))
    return rows[1:], all(math.isfinite(float(c)) for c in cells
                         + [c for row in rows[1:] for c in row])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(draw=st.one_of(_valid(), _invalid()))
def test_run_exits_cleanly(draw):
    config, rows = draw
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        if rows is not None:
            (root / "samples.csv").write_text(
                "".join(f"{w!r},{j!r}\n" for w, j in rows))
        (root / "job.json").write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--config", str(root / "job.json")])
        assert code in EXITS
        lines = err.getvalue().splitlines()
        if code != cli.EXIT_OK:
            assert len(lines) == 1 and lines[0].startswith(PREFIXES), lines
            return
        chain, finite = _finite_cells(root / "chain.csv")
        assert finite and len(chain) == config.get("sites", 50)
        assert _finite_cells(root / "residual.csv")[1]
        json.loads((root / "report.json").read_text(), parse_constant=_reject)


def _reject(constant):
    raise AssertionError(f"non-finite JSON number {constant}")
