"""Checks on the benchmark's tracing: it changes no result, patches every
binding site, and its counts are exact and repeatable.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
The c3 anchor runs that criterion in full (about 20 s on a 2-CPU sandbox).
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import run
from tracer import LAYERS, MissingName, Tracer, binding_sites
from workloads import (DEFAULT_SEED, LONG_CRITERIA, SWEEP_DRAWS, Figures, Gate, Item,
                       Sweep, Workload, sweep_draws)

fc = run.import_fermichain()


def _spec():
    with open(run.SPEC_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _counts(metrics: dict) -> dict:
    units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    return {k: v for k, v in metrics.items() if units.get(k, "s") != "s"}


def test_fermichain_comes_from_this_tree():
    assert os.path.realpath(fc.__file__).startswith(os.path.realpath(run.SRC) + os.sep)


def test_every_binding_site_is_patched():
    originals = {
        "integrate_interval": fc.transport.integrate_interval,
        "SpecialFnTable": fc.special.SpecialFnTable,
        "onsager": fc.transport.onsager,
        "CRITERIA": fc.acceptance.CRITERIA,
    }
    sites = {name: binding_sites(obj) for name, obj in originals.items()}
    assert (fc.closedforms, "integrate_interval") in sites["integrate_interval"]
    assert (fc.closedforms, "SpecialFnTable") in sites["SpecialFnTable"]
    with Tracer().install(fc) as tracer:
        for name, obj in originals.items():
            assert binding_sites(obj) == [], name
        assert fc.closedforms.integrate_interval is fc.transport.integrate_interval
        assert fc.integrate_interval is fc.transport.integrate_interval
        assert fc.closedforms.SpecialFnTable is fc.special.SpecialFnTable
        assert issubclass(fc.closedforms.SpecialFnTable, originals["SpecialFnTable"])
        for layer, (mod_name, names) in LAYERS.items():
            for name in names or ():
                assert tracer.wrapped["%s.%s" % (mod_name, name)] >= 2, name
    for name, obj in originals.items():
        assert binding_sites(obj) == sites[name], name


def test_a_missing_traced_name_fails_by_name(monkeypatch):
    integrate = fc.transport.integrate_interval
    monkeypatch.delattr(fc.transport, "onsager")
    with pytest.raises(MissingName, match="transport.onsager"):
        Tracer().install(fc)
    assert fc.transport.integrate_interval is integrate  # nothing was patched


def test_traced_figures_csvs_are_byte_identical(tmp_path):
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    assert all(it.error is None for it in Figures(fc, 0, str(plain)).run_pass())
    with Tracer().install(fc):
        assert all(it.error is None for it in Figures(fc, 0, str(traced)).run_pass())
    names = sorted(os.listdir(plain))
    assert names == sorted(os.listdir(traced)) and len(names) == 18
    for name in names:
        assert (plain / name).read_bytes() == (traced / name).read_bytes(), name


def test_low_temperature_onsager_anchor():
    with Tracer().install(fc) as tracer:
        fc.transport.onsager(math.inf, fc.ReservoirParams(0.005, 1.0), 0.05, 1.0)
        m = tracer.pass_metrics()
    assert m["transport.onsager.calls"] == 1
    assert m["transport.integrate.calls"] == 1
    assert m["transport.integrate.levels"] == 5
    assert m["transport.integrate.nodes"] == 15_872
    assert m["transport.integrate.kept_ratio"] == 8192 / 15_872


def test_c3_anchor():
    with Tracer().install(fc) as tracer:
        fc.acceptance.run_acceptance(only="c3", echo=lambda line: None)
        m = tracer.pass_metrics()
    assert m["dynamics.lindblad.calls"] == 100
    assert m["dynamics.lindblad.modes"] == 100
    assert m["dynamics.lindblad.steps"] == 1_000_000
    assert m["dynamics.closed.calls"] == 1000
    assert m["acceptance.c3.s"] > 0.0 and m["acceptance.c1.s"] == 0.0


def _two_traced_passes(workload):
    with Tracer().install(fc) as tracer:
        first = workload.run_pass()
        counts = _counts(tracer.pass_metrics())
        tracer.reset()
        second = workload.run_pass()
        again = _counts(tracer.pass_metrics())
    assert all(it.error is None for it in first + second)
    return counts, again


def test_counts_repeat_on_figures(tmp_path):
    counts, again = _two_traced_passes(Figures(fc, 0, str(tmp_path)))
    assert counts == again
    assert counts["transport.onsager.calls"] == 934


def test_counts_repeat_on_sweep_through_the_pool(tmp_path):
    counts, again = _two_traced_passes(Sweep(fc, 3, str(tmp_path)))
    assert counts == again
    # custom runs nbar, ebar and onsager at each of 8 points per draw
    assert counts["transport.onsager.calls"] == 8 * SWEEP_DRAWS
    assert counts["transport.counters.calls"] == 2 * 8 * SWEEP_DRAWS


def test_counts_repeat_on_gate_without_c3(monkeypatch):
    # c3 alone takes ~20 s; run.py's traced passes (two at least) compare
    # its counts on every --trace 1 run of the gate
    fast = tuple(c for c in fc.acceptance.CRITERIA if c.cid != "c3")
    for module, attr in binding_sites(fc.acceptance.CRITERIA):
        monkeypatch.setattr(module, attr, fast)
    counts, again = _two_traced_passes(Gate(fc, 0, ""))
    assert counts == again
    assert counts["fluctuation.calls"] > 0 and counts["closedforms.omega.fallbacks"] > 0


def test_per_layer_names_match_benchmark_json():
    with Tracer().install(fc) as tracer:
        produced = set(tracer.pass_metrics())
    produced |= {"setup.numpy_s", "setup.fermichain_s", "trace.overhead_s"}
    assert produced == {m["name"] for m in _spec()["per_layer"]}


def test_sweep_draws_are_seeded_and_in_range():
    draws = sweep_draws(5)
    assert draws == sweep_draws(5) and draws != sweep_draws(6)
    for d in draws:
        assert 1e-3 <= d["temperature"] <= 1.0
        assert -2.5 < d["mu"] < 2.5
        assert 0.01 <= d["dephasing"] <= 0.5 and 0.5 <= d["g"] <= 2.0
        assert len(d["t_grid"]) == 8 and 1.0 <= d["t_grid"][-1] <= 100.0
    assert Sweep(fc, DEFAULT_SEED, "").reference is not None


def test_end_to_end_run_prints_every_metric(capsys):
    assert run.main(["--workload", "figures", "--seconds", "0.5"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in _spec()["end_to_end"]}


def test_gate_fill_times_every_short_criterion_once_per_round():
    extra = Gate(fc, 0, "").fill(deadline=0.0)
    short = [c.cid for c in fc.acceptance.CRITERIA if c.cid not in LONG_CRITERIA]
    assert [it.label for it in extra] == short and "c3" not in short
    assert all(it.error is None for it in extra)


def test_item_time_is_the_median_of_its_timings():
    items = [Item("a", 0.0, 1.0), Item("b", 1.0, 6.0), Item("a", 6.0, 9.0),
             Item("a", 9.0, 11.0)]
    assert Workload.item_times(items) == [2.0, 5.0]
    assert Workload.item_times(items, lambda it: 2.0 * it.seconds) == [4.0, 10.0]


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "figures",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no fermichain package" in proc.stderr
