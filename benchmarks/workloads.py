"""The benchmark's workloads: seeded job generation, the timed call, checks.

Each workload yields *cycles*: one job of every kind it covers, with
parameters drawn afresh from the seeded generator, so no two jobs share an
input and every run sees the same mix.  A job's ``run`` is the timed call;
its ``check`` runs afterwards, untimed, and returns the correct digits of
the outputs that have a closed form (``None`` if none has), or raises
``Failed`` / ``WrongOutput``.

Jobs that fail or give wrong numbers at the seed because of a known defect
stay in and carry that defect's name in ``known_defect``; they count as
failures.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import references as ref

# Address-space cap of the benchmark process and of each CLI child, so a
# runaway grid x node allocation is a counted MemoryError, not an OOM kill.
MEMORY_CAP_BYTES = 3584 * 2**20
# A job's outputs must match their closed form to this many digits.
MIN_DIGITS = 10.0
CLI_TIMEOUT_S = 60

DEFECT_UNBOUNDED_Q = "defect 1: q > 0 on unbounded support (empty support interval [0.0, nan])"
DEFECT_TAIL = "defect 2: generic route truncates unbounded tails"
DEFECT_TABULATED = "defect 3: tabulated nonlinear samples raise IllConditioned"
DEFECT_REDUCER_MEMORY = "reducer memory grows with grid x nodes (MemoryError under the cap)"
DEFECT_BAND_EDGE = ("q = 1 grid endpoints round out of the reducer's evaluation band "
                    "(EndpointEvaluation)")


class Failed(Exception):
    """The job did not produce its expected result (exit code, exception)."""


class WrongOutput(Exception):
    """The job produced an output that fails its check."""


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], float | None]
    known_defect: str | None = None


def cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))


def _valid_recurrence(alpha, beta) -> None:
    if not (np.all(np.isfinite(alpha)) and np.all(np.isfinite(beta))
            and np.all(beta > 0)):
        raise WrongOutput("recurrence coefficients not finite and positive")


def _coefficient_digits(alpha, beta, ref_alpha, ref_beta, span) -> float:
    _valid_recurrence(alpha, beta)
    return min(ref.digits(alpha, ref_alpha, floor=span), ref.digits(beta, ref_beta))


# ---------------------------------------------------------------------------
# generic_chain: chain_coefficients / recurrence_coefficients(method="stieltjes")
# ---------------------------------------------------------------------------

class GenericChain:
    """In-process generic-route recurrences at N in {50, 100, 200}."""

    ORDERS = (50, 100, 200)

    def prepare(self) -> None:
        import chaincast as cc
        self.cc = cc
        # Warm-up at a small order fills the quadrature node cache.
        cc.chain_coefficients(cc.piecewise_uniform_sd([(0.0, 1.0, 1.0)]), 0.0, 9)

    def cycle(self, rng: np.random.Generator) -> list[Job]:
        jobs = []
        for n in self.ORDERS:
            for make in (self._power_law, self._laguerre, self._semicircle,
                         self._power_law_q05, self._flat, self._gapped):
                jobs.extend(make(rng, n))
        return jobs

    def _power_law(self, rng, n):
        cc = self.cc
        c, s, cut = rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.5), rng.uniform(0.5, 2.0)
        m = cc.power_law_measure(c, s, cut)
        ra, rb = ref.jacobi_power_law(c, s, cut, n)
        return [Job(f"power_law_generic/N={n}",
                    lambda: cc.recurrence_coefficients(m, n, method="stieltjes"),
                    lambda rc: _coefficient_digits(rc.alpha, rc.beta, ra, rb, cut))]

    def _laguerre(self, rng, n):
        cc = self.cc
        c, s, scale = rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.5), rng.uniform(0.5, 2.0)
        m = cc.power_law_exp_measure(c, s, scale)
        ra, rb = ref.laguerre(c, s, scale, n)
        return [Job(f"laguerre_generic/N={n}",
                    lambda: cc.recurrence_coefficients(m, n, method="stieltjes"),
                    lambda rc: _coefficient_digits(rc.alpha, rc.beta, ra, rb, scale),
                    DEFECT_TAIL if n >= 100 else None)]

    def _semicircle(self, rng, n):
        cc = self.cc
        a = rng.uniform(0.0, 0.5)
        b, c = a + rng.uniform(0.5, 2.0), rng.uniform(0.2, 2.0)
        sd = cc.custom_sd(lambda w: c * np.sqrt(np.maximum((w - a) * (b - w), 0.0)),
                          ((a, b),), ((0.5, 0.5),))
        ra, rb = ref.semicircle(c / math.pi, a, b, n)
        return [Job(f"semicircle_custom_sd/N={n}",
                    lambda: cc.chain_coefficients(sd, 0.0, n - 1),
                    lambda ch: _coefficient_digits(ch.rc.alpha, ch.rc.beta, ra, rb, b - a))]

    def _power_law_q05(self, rng, n):
        cc = self.cc
        sd = cc.power_law_sd(rng.uniform(0.5, 2.0), rng.uniform(0.05, 0.3),
                             rng.uniform(0.5, 2.0))

        def check(ch):
            # No closed form at 0 < q < 1: validity only.
            _valid_recurrence(ch.rc.alpha, ch.rc.beta)
            if not np.allclose(ch.E4, np.sqrt(ch.rc.beta[1:n]), rtol=1e-14):
                raise WrongOutput("E4 differs from sqrt(beta)")
            return None

        return [Job(f"power_law_q0.5/N={n}",
                    lambda: cc.chain_coefficients(sd, 0.5, n - 1), check)]

    def _flat(self, rng, n):
        cc = self.cc
        lo = rng.uniform(0.0, 0.5)
        hi, h = lo + rng.uniform(0.5, 2.0), rng.uniform(0.2, 2.0)
        sd = cc.piecewise_uniform_sd([(lo, hi, h)])
        jobs = []
        for q in (0, 1):
            a, b = (lo, hi) if q == 0 else (lo * lo, hi * hi)
            ra, rb = ref.legendre(h / math.pi, a, b, n)
            jobs.append(Job(
                f"flat_piecewise_q{q}/N={n}",
                lambda q=q: cc.chain_coefficients(sd, float(q), n - 1),
                lambda ch, ra=ra, rb=rb, span=b - a:
                    _coefficient_digits(ch.rc.alpha, ch.rc.beta, ra, rb, span)))
        return jobs

    def _gapped(self, rng, n):
        cc = self.cc
        pieces = _gapped_pieces(rng)
        sd = cc.piecewise_uniform_sd(pieces)
        jobs = []
        for q in (0, 1):
            mapped = [(lo ** (q + 1), hi ** (q + 1), h / math.pi) for lo, hi, h in pieces]
            ra, rb = ref.piecewise_constant(mapped, n)
            span = mapped[-1][1] - mapped[0][0]
            jobs.append(Job(
                f"gapped_piecewise_q{q}/N={n}",
                lambda q=q: cc.chain_coefficients(sd, float(q), n - 1),
                lambda ch, ra=ra, rb=rb, span=span:
                    _coefficient_digits(ch.rc.alpha, ch.rc.beta, ra, rb, span)))
        return jobs


def _gapped_pieces(rng):
    lo1 = rng.uniform(0.0, 0.3)
    hi1 = lo1 + rng.uniform(0.3, 1.0)
    lo2 = hi1 + rng.uniform(0.2, 1.0)
    hi2 = lo2 + rng.uniform(0.3, 1.0)
    return [(lo1, hi1, rng.uniform(0.2, 2.0)), (lo2, hi2, rng.uniform(0.2, 2.0))]


def _q1_grid_in_band(lo: float, hi: float, square=lambda w: w * w) -> bool:
    """Whether J_n at q = 1 can be sampled at the ends of its own clipped
    range for a J on [lo, hi].

    The range ends are sqrt of the evaluation band [A + g, B - g] of the
    chain measure on [A, B] = [square(lo), square(hi)] (g = 1e-12 (B - A)),
    and J_n squares them back as w * w; for about 44% of supports the
    rounding lands outside the band and chaincast raises
    EndpointEvaluation.  This mirrors that arithmetic.  ``square`` is how
    chaincast maps the support: w * w for a generic density, w ** 2 for
    the power-law family (the two differ in the last bit for some w).
    """
    a, b = square(lo), square(hi)
    g = 1e-12 * (b - a)
    w_lo, w_hi = math.sqrt(a + g), math.sqrt(b - g)
    return w_lo * w_lo >= a + g and w_hi * w_hi <= b - g


def _draw_support(rng, lo_range, width_range, q1_in_band=None, square=lambda w: w * w):
    """A support [lo, hi]; with ``q1_in_band`` set, drawn again until
    ``_q1_grid_in_band`` gives that answer, so every cycle has the same
    number of band-edge failures."""
    while True:
        lo = rng.uniform(*lo_range)
        hi = lo + rng.uniform(*width_range)
        if q1_in_band is None or _q1_grid_in_band(lo, hi, square) == q1_in_band:
            return lo, hi


# ---------------------------------------------------------------------------
# residual_report: the sequence of cli.run, in process
# ---------------------------------------------------------------------------

class ResidualReport:
    """Chain, J_1..J_3 on 512- and 2048-point grids, then convergence_report.

    Flat piecewise densities at q in {0, 1} have closed-form residual
    densities; the family-less semicircle on [0, b] at q = 1 is the job
    whose report runs out of memory at the seed, and the band-edge job
    samples J_n where the q = 1 rounding defect shows.
    """

    GRIDS = (512, 2048)
    ORDERS = (1, 2, 3)

    def prepare(self) -> None:
        import chaincast as cc
        self.cc = cc
        sd = cc.piecewise_uniform_sd([(0.0, 1.0, 1.0)])
        rd = cc.ResidualDensity.build(sd, 0, 1)
        rd(1, np.linspace(*rd.clipped_range(), 16))
        cc.szego_check(sd, 0.0)

    def cycle(self, rng: np.random.Generator) -> list[Job]:
        cc = self.cc
        jobs = []
        for kind, q, in_band, defect in (
                ("flat_piecewise_q0", 0, None, None),
                ("flat_piecewise_q1", 1, True, None),
                ("flat_piecewise_q1_band_edge", 1, False, DEFECT_BAND_EDGE)):
            lo, hi = _draw_support(rng, (0.0, 0.5), (0.5, 2.0), in_band)
            h = rng.uniform(0.2, 2.0)
            jobs.append(self._job(kind, cc.piecewise_uniform_sd([(lo, hi, h)]), q, rng,
                                  flat_height=h, known_defect=defect))
        _, b = _draw_support(rng, (0.0, 0.0), (0.8, 2.0), q1_in_band=True)
        c = rng.uniform(0.2, 2.0)
        semi = cc.custom_sd(lambda w: c * np.sqrt(np.maximum(w * (b - w), 0.0)),
                            ((0.0, b),), ((0.5, 0.5),))
        jobs.append(self._job("semicircle_custom_sd_q1", semi, 1, rng,
                              known_defect=DEFECT_REDUCER_MEMORY))
        return jobs

    def _job(self, kind, sd, q, rng, flat_height=None, known_defect=None):
        cc = self.cc
        sites = int(rng.integers(4, 8))

        def run():
            chain = cc.chain_coefficients(sd, float(q), sites)
            rd = cc.ResidualDensity.build(sd, q, max(self.ORDERS))
            clipped = rd.clipped_range()
            grids = {}
            for points in self.GRIDS:
                grid = np.linspace(*clipped, points)
                cols = {0: np.asarray(sd(grid), float)}
                for n in self.ORDERS:
                    cols[n] = np.asarray(rd(n, grid), float)
                grids[points] = (grid, cols)
            report = cc.convergence_report(sd, float(q), sites)
            return chain, grids, report

        def check(out):
            chain, grids, report = out
            lo, hi = sd.hull
            a, b = (lo, hi) if q == 0 else (lo * lo, hi * hi)
            got = [ref.digits([report.alpha_limit, report.beta_limit],
                              [0.5 * (a + b), (b - a) ** 2 / 16.0])]
            if str(report.szego) != "in_class":
                raise WrongOutput(f"szego verdict {report.szego} for a bounded gapless J")
            for grid, cols in grids.values():
                for n in self.ORDERS:
                    if not np.all(np.isfinite(cols[n]) & (cols[n] >= 0)):
                        raise WrongOutput(f"J_{n} not finite and nonnegative")
            if flat_height is None:
                _valid_recurrence(chain.rc.alpha, chain.rc.beta)
                return min(got)
            ra, rb = ref.legendre(flat_height / math.pi, a, b, sites + 1)
            got.append(_coefficient_digits(chain.rc.alpha, chain.rc.beta, ra, rb, b - a))
            for grid, cols in grids.values():
                # The band-edge samples sit 1e-12 of the span from the
                # reducer's log singularity, where rounding y = w**2 alone
                # moves J_n in the fifth digit: compare the interior.
                y = grid[1:-1] if q == 0 else grid[1:-1] ** 2
                expect = ref.flat_residual(flat_height, a, b, self.ORDERS, y)
                got.extend(ref.digits(cols[n][1:-1], expect[n]) for n in self.ORDERS)
            return min(got)

        return Job(kind, run, check, known_defect)


# ---------------------------------------------------------------------------
# cli_jobs: one `chaincast run` subprocess at a time
# ---------------------------------------------------------------------------

@dataclass
class CliResult:
    code: int
    stderr: str
    outdir: Path


def _read_csv(path: Path) -> dict[str, np.ndarray]:
    """Columns of a chaincast CSV output, skipping its ``#`` metadata line."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    body = np.array(rows[1:], float)
    return {name: body[:, i] for i, name in enumerate(rows[0])}


# Exponents whose residual densities use the closed-form reducer: the
# power-law reducer needs 2s integer for J/pi (q = 0) and s integer for
# J(sqrt x)/pi (q = 1).
POWER_LAW_S = {0.0: [0.5, 1.0, 1.5, 2.0], 1.0: [1.0, 2.0]}


class CliJobs:
    """`chaincast run` over generated configs, every family x q in {0, 0.5, 1}."""

    def __init__(self, root: Path, workdir: Path):
        self.workdir = workdir
        self.count = 0
        self.spans_dir: Path | None = None  # set for the traced phase
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def prepare(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        # Warm-up: one validate run loads the interpreter and libraries.
        config = self.workdir / "warmup.json"
        config.write_text(json.dumps({"spectral_density": {
            "family": "power_law", "s": 1, "alpha": 0.1}}))
        subprocess.run([sys.executable, "-m", "chaincast.cli", "validate",
                        "--config", str(config)], env=self.env,
                       capture_output=True, timeout=CLI_TIMEOUT_S,
                       preexec_fn=cap_memory, check=True)
        config.unlink()

    def command(self, config: Path, outdir: Path, spans: Path | None) -> list[str]:
        args = ["run", "--config", str(config), "--out-dir", str(outdir)]
        if spans is None:
            return [sys.executable, "-m", "chaincast.cli", *args]
        child = Path(__file__).with_name("cli_child.py")
        return [sys.executable, str(child), str(spans), *args]

    def cycle(self, rng: np.random.Generator) -> list[Job]:
        jobs = []
        for kind, q, in_band, defect in (
                ("power_law_q0", 0.0, None, None),
                ("power_law_q0.5", 0.5, None, None),
                ("power_law_q1", 1.0, True, None),
                ("power_law_q1_band_edge", 1.0, False, DEFECT_BAND_EDGE)):
            s = (float(rng.choice(POWER_LAW_S[q])) if q in POWER_LAW_S
                 else rng.uniform(0.5, 2.0))
            _, omega_c = _draw_support(rng, (0.0, 0.0), (0.5, 2.0), in_band,
                                       square=lambda w: w ** 2)
            spec = {"family": "power_law", "s": s, "alpha": rng.uniform(0.05, 0.3),
                    "omega_c": omega_c}
            jobs.append(self._job(kind, spec, q, 0, orders=[1, 2, 3] if q != 0.5 else [],
                                  sites=int(rng.integers(100, 200)), known_defect=defect))
        for q in (0.0, 0.5, 1.0):
            spec = {"family": "power_law_exp_cutoff", "s": rng.uniform(0.5, 2.0),
                    "alpha": rng.uniform(0.05, 0.3), "omega_c": rng.uniform(0.5, 2.0)}
            jobs.append(self._job(f"exp_cutoff_q{q:g}", spec, q, 0,
                                  sites=int(rng.integers(50, 101)),
                                  known_defect=DEFECT_UNBOUNDED_Q if q > 0 else None))
        for q in (0.0, 0.5, 1.0):
            pieces = _gapped_pieces(rng)
            spec = {"family": "piecewise", "intervals": [list(p) for p in pieces]}
            jobs.append(self._job(f"gapped_piecewise_q{q:g}", spec, q,
                                  4 if q == 0 else 0, orders=[1, 2, 3] if q == 0 else [],
                                  sites=int(rng.integers(50, 101))))
        for q in (0.0, 0.5, 1.0):
            top = rng.uniform(0.5, 2.0)
            omega = np.linspace(0.0, top, int(rng.integers(20, 201)))
            samples = np.stack([omega, rng.uniform(0.5, 2.0) * np.sqrt(omega)], axis=1)
            jobs.append(self._job(f"tabulated_sqrt_q{q:g}",
                                  {"family": "tabulated", "samples_path": "samples.csv"},
                                  q, 0, sites=int(rng.integers(50, 101)),
                                  samples=samples, known_defect=DEFECT_TABULATED))
        return jobs

    def _job(self, kind, spec, q, expect, orders=(), sites=50, samples=None,
             known_defect=None):
        self.count += 1
        jobdir = self.workdir / f"job{self.count:05d}"
        jobdir.mkdir(parents=True, exist_ok=True)
        config = {"spectral_density": spec, "mapping_q": q, "sites": sites,
                  "residual_orders": list(orders), "grid": {"points": 512}}
        (jobdir / "config.json").write_text(json.dumps(config))
        if samples is not None:
            np.savetxt(jobdir / "samples.csv", samples, delimiter=",", fmt="%.17g")
        index = self.count

        def run(jobdir=jobdir):
            spans = None if self.spans_dir is None else self.spans_dir / f"job{index:05d}.jsonl"
            proc = subprocess.run(
                self.command(jobdir / "config.json", jobdir, spans), env=self.env,
                capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
                preexec_fn=cap_memory)
            return CliResult(proc.returncode, proc.stderr, jobdir)

        def check(res: CliResult):
            try:
                return _check_cli(res, spec, q, expect, sites, samples)
            finally:
                shutil.rmtree(res.outdir, ignore_errors=True)

        return Job(kind, run, check, known_defect)


def _check_cli(res: CliResult, spec, q, expect, sites, samples) -> float | None:
    if res.code != expect:
        tail = res.stderr.strip().splitlines()[-1:] or [""]
        raise Failed(f"exit {res.code}, expected {expect}: {tail[0][:160]}")
    family = spec["family"]
    if expect == 4:
        found = re.search(r"z0=([-+0-9.eE]+)", res.stderr)
        if not found:
            raise WrongOutput("exit 4 without the gap zero z0")
        z0 = float(found.group(1))
        (_, hi1, _), (lo2, _, _) = spec["intervals"]
        if not hi1 < z0 < lo2:
            raise WrongOutput(f"z0={z0} outside the gap ({hi1}, {lo2})")
        # z0 is printed to 12 significant digits: a tolerance, not digits.
        if abs(z0 - ref.gap_zero(spec["intervals"])) > 1e-11 * abs(z0):
            raise WrongOutput(f"z0={z0} is not the zero of S in the gap")
        return None

    chain = _read_csv(res.outdir / "chain.csv")
    alpha, beta, e4 = chain["alpha"], chain["beta"], chain["E4"]
    if len(alpha) != sites:
        raise WrongOutput(f"{len(alpha)} chain rows for {sites} sites")
    _valid_recurrence(alpha, beta)
    got = []
    reference = None
    if family in ("power_law", "power_law_exp_cutoff"):
        s, a, wc = spec["s"], spec["alpha"], spec["omega_c"]
        coeff = 2.0 * a * wc ** (1 - s)
        if family == "power_law" and q in (0, 1):
            reference = ref.jacobi_power_law(coeff, s / (1 + q), wc ** (1 + q), sites + 1)
            span = wc ** (1 + q)
        elif family == "power_law_exp_cutoff" and q == 0:
            reference = ref.laguerre(coeff, s, wc, sites + 1)
            span = wc
    elif family == "piecewise" and q == 1:
        mapped = [(lo * lo, hi * hi, h / math.pi) for lo, hi, h in spec["intervals"]]
        reference = ref.piecewise_constant(mapped, sites + 1)
        span = mapped[-1][1] - mapped[0][0]
    if reference is not None:
        ra, rb = reference
        got.append(_coefficient_digits(alpha, beta, ra[:sites], rb[:sites], span))
        got.append(ref.digits(e4, np.sqrt(rb[1:sites + 1])))

    resid = _read_csv(res.outdir / "residual.csv")
    w = resid["omega"]
    if family in ("power_law", "power_law_exp_cutoff"):
        j0 = math.pi * coeff * w ** s
        if family == "power_law_exp_cutoff":
            j0 = j0 * np.exp(-w / wc)
    elif family == "tabulated":
        j0 = np.interp(w, samples[:, 0], samples[:, 1])
    else:
        j0 = np.zeros_like(w)
        for lo, hi, h in spec["intervals"]:
            j0 = np.where((w >= lo) & (w <= hi), h, j0)
    got.append(ref.digits(resid["J0"], j0, floor=float(np.max(np.abs(j0)))))
    for col, vals in resid.items():
        if col not in ("omega", "J0") and not np.all(np.isfinite(vals) & (vals >= 0)):
            raise WrongOutput(f"{col} not finite and nonnegative")

    report = json.loads((res.outdir / "report.json").read_text())
    verdict = {"power_law": "in_class", "power_law_exp_cutoff": "out_of_class(unbounded)",
               "piecewise": "out_of_class(gapped)"}.get(family)
    if verdict is not None and report["szego"] != verdict:
        raise WrongOutput(f"szego verdict {report['szego']}, expected {verdict}")
    if report["szego"] == "in_class" and q in (0, 1):
        lo, hi = ((0.0, spec["omega_c"]) if family == "power_law"
                  else (samples[0, 0], samples[-1, 0]))
        g_lo, g_hi = lo ** (1 + q), hi ** (1 + q)
        got.append(ref.digits([report["alpha_limit"], report["beta_limit"]],
                              [0.5 * (g_lo + g_hi), (g_hi - g_lo) ** 2 / 16.0]))
    return min(got) if got else None


WORKLOADS = {
    "cli_jobs": CliJobs,
    "generic_chain": GenericChain,
    "residual_report": ResidualReport,
}
