"""The three benchmark workloads and the checks on their outputs.

Each workload's ``run_pass()`` makes one full pass and returns one
:class:`Item` per unit of user-visible work, timed with
``time.perf_counter``.  Outputs are checked outside the timed region; an
item that raised or failed its check is a failed item.

* ``figures`` -- the nine scenarios at their default grids, threads=1, as
  ``fermichain figure`` users regenerate the paper's data.  An item is one
  scenario run plus its CSV write.  Checked against reference CSVs.
* ``gate`` -- ``acceptance.run_acceptance()`` on all ten criteria.  An item
  is one criterion; a criterion that fails is a failed item.  The short
  criteria are also run before and after the pass.

An item's time is the median of its timings in the run.
* ``sweep`` -- seeded draws of ``custom`` configs at threads=2, the
  parameter-scan traffic that goes through the thread pool.  An item is one
  config run plus its CSV write.  Checked by identities that hold for every
  draw, and on the default seed against reference values.
"""

from __future__ import annotations

import csv
import math
import os
import random
import statistics
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
PANELS_DIR = os.path.join(REFERENCE_DIR, "panels")  # figures workload's CSVs

FIGURE_IDS = ("ons1", "onsevo1", "onsevo2", "entroevo", "entroprod", "mutint",
              "onsteste1", "onsteste2", "custom")
CUSTOM_T_GRID = (0.0, 2.5, 5.0, 10.0, 20.0)

DEFAULT_SEED = 0
SWEEP_DRAWS = 256  # configs in one sweep pass; fewer let the seed move p90
SWEEP_WARM_UP = 32  # draws run untimed before the passes
SWEEP_POINTS = 8
LONG_CRITERIA = ("c3",)  # about 24 s of the 26 s gate; timed once per pass


@dataclass
class Item:
    label: str
    start: float  # time.perf_counter() when the item began and ended
    end: float
    error: str | None = None  # None when the item ran and passed its check

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _failure() -> str:
    return traceback.format_exc(limit=3).strip().splitlines()[-1]


# ---------------------------------------------------------------------------
# numeric comparison of CSV output
# ---------------------------------------------------------------------------

def read_csv(path: str):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def compare_rows(headers, rows, ref_headers, ref_rows, tol: float) -> str | None:
    """None when every value is within tol times its reference column's scale."""
    if list(headers) != list(ref_headers):
        return "headers differ: %s vs %s" % (headers, ref_headers)
    if len(rows) != len(ref_rows):
        return "%d rows vs %d in the reference" % (len(rows), len(ref_rows))
    for j, name in enumerate(ref_headers):
        scale = max((abs(r[j]) for r in ref_rows), default=0.0)
        worst = max((abs(a[j] - b[j]) for a, b in zip(rows, ref_rows)), default=0.0)
        if not worst <= tol * scale:
            return "column %s moved by %.3g, allowed %.3g" % (name, worst, tol * scale)
    return None


def compare_csv(path: str, ref_path: str, tol: float) -> str | None:
    with open(path, "rb") as fh, open(ref_path, "rb") as ref:
        if fh.read() == ref.read():
            return None
    return compare_rows(*read_csv(path), *read_csv(ref_path), tol=tol)


def _report_failures(result) -> str | None:
    bad = [r.line() for r in result.reports if not r.within]
    return "; ".join(bad) if bad else None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """One workload; run_pass() makes one full pass over it.

    ``tick``, when given, is called between items.  ``threads`` is the
    number of threads the workload computes on.
    """

    threads = 1

    def warm_up(self) -> list:
        """Untimed work before the timed passes: one pass."""
        return self.run_pass()

    def fill(self, deadline: float, tick=None) -> list:
        """Timed work besides the passes; none for most workloads."""
        return []

    @staticmethod
    def item_times(items: list, seconds=lambda it: it.seconds) -> list:
        """One time per item: the median of its timings in the run.

        ``seconds`` gives a timing's duration.  A per-item median over the
        run is steadier than quantiles of the pooled timings, which the mix
        of fast and slow host moments moves.
        """
        by_label = {}
        for it in items:
            by_label.setdefault(it.label, []).append(seconds(it))
        return [statistics.median(t) for t in by_label.values()]


class Figures(Workload):
    name = "figures"

    def __init__(self, fc, seed: int, out_dir: str):
        self.fc = fc
        self.out_dir = out_dir
        self.configs = [fc.scenarios.parse_config(data) for data in self.config_data()]

    @staticmethod
    def config_data() -> list:
        data = [{"scenario": sid, "threads": 1} for sid in FIGURE_IDS]
        data[FIGURE_IDS.index("custom")]["t_grid"] = list(CUSTOM_T_GRID)
        return data

    def run_pass(self, tick=None) -> list:
        sc = self.fc.scenarios
        items = []
        for cfg in self.configs:
            tic = time.perf_counter()
            try:
                result = sc.run_scenario(cfg)
                paths = sc.write_result(result, self.out_dir, cfg.sig_digits)
            except Exception:
                items.append(Item(cfg.scenario, tic, time.perf_counter(), _failure()))
                continue
            item = Item(cfg.scenario, tic, time.perf_counter())
            item.error = self.check(cfg, result, paths)
            items.append(item)
            if tick is not None:
                tick()
        return items

    @staticmethod
    def check(cfg, result, paths) -> str | None:
        problems = []
        for path in paths:
            ref = os.path.join(PANELS_DIR, os.path.basename(path))
            if not os.path.exists(ref):
                problems.append("no reference for %s" % os.path.basename(path))
                continue
            bad = compare_csv(path, ref, cfg.tol)
            if bad:
                problems.append("%s: %s" % (os.path.basename(path), bad))
        bad = _report_failures(result)
        if bad:
            problems.append(bad)
        return "; ".join(problems) or None


class Gate(Workload):
    name = "gate"

    def __init__(self, fc, seed: int, out_dir: str):
        self.fc = fc

    @staticmethod
    def config_data() -> list:
        return []

    def run_pass(self, tick=None, only: str | None = None) -> list:
        """The whole gate, or the one criterion ``only``, as run_acceptance runs it."""
        items = []
        last = [time.perf_counter()]

        def echo(line: str):
            # run_acceptance echoes once per criterion as it finishes, then a
            # summary line; the gap between echoes is that criterion's time
            now = time.perf_counter()
            word, _, rest = line.partition(" ")
            if word in ("PASS", "FAIL"):
                cid = rest.split()[0]
                items.append(Item(cid, last[0], now, None if word == "PASS" else line))
                if tick is not None:
                    tick()
            last[0] = time.perf_counter()

        try:
            self.fc.acceptance.run_acceptance(only=only, echo=echo)
        except Exception:
            items.append(Item(only or "c%d" % (len(items) + 1),
                              last[0], time.perf_counter(), _failure()))
        return items

    def warm_up(self) -> list:
        return self.fill(0.0)

    def fill(self, deadline: float, tick=None) -> list:
        """Rounds of every short criterion until the deadline, one at least.

        A single timing of a 10-100 ms criterion catches one moment of the
        host; a gate run fills before and after its pass, so that a short
        criterion's median spans the run.  The long one keeps one timing.
        """
        items = []
        while True:
            tic = time.perf_counter()
            for crit in self.fc.acceptance.CRITERIA:
                if crit.cid not in LONG_CRITERIA:
                    items.extend(self.run_pass(tick, only=crit.cid))
            toc = time.perf_counter()
            if toc + (toc - tic) > deadline:
                return items


def sweep_draws(seed: int, n: int = SWEEP_DRAWS) -> list:
    """n custom configs from the seed, Latin-hypercube stratified.

    Each parameter's n values fall one in each of n equal strata (of log T
    for the temperature), in a seeded order, so every pass covers the whole
    range and the low-T tail has the same weight on every seed.
    """
    rng = random.Random(seed)

    def strata():
        order = list(range(n))
        rng.shuffle(order)
        out = []
        for k in order:
            u = rng.random()
            while u == 0.0:  # keep the open ends of open ranges open
                u = rng.random()
            out.append((k + u) / n)
        return out

    u_temp, u_mu, u_lam, u_g, u_tmax = (strata() for _ in range(5))
    draws = []
    for i in range(n):
        t_max = 1.0 + 99.0 * u_tmax[i]
        draws.append({
            "scenario": "custom",
            "temperature": math.exp(math.log(1e-3) + u_temp[i] * math.log(1e3)),
            "mu": -2.5 + 5.0 * u_mu[i],
            "dephasing": 0.01 + 0.49 * u_lam[i],
            "g": 0.5 + 1.5 * u_g[i],
            "t_grid": [t_max * (j + 1) / SWEEP_POINTS for j in range(SWEEP_POINTS)],
            "stats": "fd",
            "threads": 2,
        })
    return draws


class Sweep(Workload):
    name = "sweep"
    threads = 2
    reference_path = os.path.join(REFERENCE_DIR, "sweep_seed%d.csv" % DEFAULT_SEED)

    def __init__(self, fc, seed: int, out_dir: str):
        self.fc = fc
        self.out_dir = out_dir
        self.data = sweep_draws(seed)
        self.configs = [fc.scenarios.parse_config(d) for d in self.data]
        self.reference = (self.load_reference() if seed == DEFAULT_SEED else None)

    def config_data(self) -> list:
        return self.data

    def warm_up(self) -> list:
        """Untimed work before the passes: the first SWEEP_WARM_UP draws."""
        return self.run_pass(count=SWEEP_WARM_UP)

    def load_reference(self) -> dict:
        headers, rows = read_csv(self.reference_path)
        by_draw = {}
        for row in rows:
            by_draw.setdefault(int(row[0]), []).append(row[1:])
        return {"headers": headers[1:], "rows": by_draw}

    def run_pass(self, tick=None, count: int | None = None) -> list:
        """One pass over every draw, or over the first ``count``."""
        sc = self.fc.scenarios
        items = []
        for index, cfg in enumerate(self.configs[:count]):
            label = "draw%d" % index
            tic = time.perf_counter()
            try:
                result = sc.run_scenario(cfg)
                paths = sc.write_result(result, self.out_dir, cfg.sig_digits)
            except Exception:
                items.append(Item(label, tic, time.perf_counter(), _failure()))
                continue
            item = Item(label, tic, time.perf_counter())
            item.error = self.check(index, cfg, result, paths[0])
            items.append(item)
            if tick is not None:
                tick()
        return items

    def check(self, index: int, cfg, result, path: str) -> str | None:
        panel = result.panels[0]
        col = dict(zip((h.split("[")[0] for h in panel.headers), panel.columns))
        tol = cfg.tol
        n, e, q = col["N"], col["E"], col["Q"]
        mu_n = [cfg.mu * ni for ni in n]
        heat = [ei - mn for ei, mn in zip(e, mu_n)]
        bad = _identity("Q == E - mu*N", q, heat, tol * _scale(e, mu_n))
        # the four coefficients converge together, relative to the largest
        # (onsager's docstring); J_NT and J_QM alone can vanish by symmetry
        block = _scale(*(col[k] for k in ("J_NM", "J_NT", "J_QM", "J_QT")))
        bad = bad or _identity("J_NT == J_QM", col["J_NT"], col["J_QM"], tol * block)
        if bad or self.reference is None:
            return bad
        headers, rows = read_csv(path)
        return compare_rows(headers, rows, self.reference["headers"],
                            self.reference["rows"].get(index, []), tol)


def _scale(*columns) -> float:
    return max(abs(float(v)) for column in columns for v in column)


def _identity(name: str, lhs, rhs, allowed: float) -> str | None:
    worst = max(abs(float(a) - float(b)) for a, b in zip(lhs, rhs))
    if not worst <= allowed:
        return "%s off by %.3g (allowed %.3g)" % (name, worst, allowed)
    return None


WORKLOADS = {cls.name: cls for cls in (Figures, Gate, Sweep)}
