"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracer.py`` wraps fermichain's public functions by name and
reads ``terms_used`` and ``converged`` off the series results; its
quadrature hook rebinds ``integrate_interval``'s argument ``f`` by name, and
its scenario hooks read ``cfg.scenario``, each panel's ``columns`` and the
written paths.  A rename or a signature change in ``src/`` would break it,
yet its own tests live under ``perfbench/tests``, which the package suite
does not run.  This module loads the tracer from its file, read only,
installs it and runs the closed forms, the band quadrature and a scenario
run and write through it.
"""

import importlib.util
import os
import pathlib
import sys

import numpy as np

import fermichain as fc

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_tracer_installs_and_reads_the_series_results():
    tracer_module = _load_tracer()
    res = fc.ReservoirParams(0.1, 0.5)
    with tracer_module.Tracer().install(fc) as tracer:  # MissingName if a name is gone
        series = fc.nbar_fd_sommerfeld(3.0, res, 0.35, 1.0)
        fc.ebar_fd_sommerfeld(3.0, res, 0.35, 1.0)
        fc.omega(1, 12.0, 3.0)
        fc.omega_defining_integral(0, 2.0, 1.0)
        counts = tracer.pass_metrics()
    assert series.converged and series.terms_used > 0
    assert counts["closedforms.sommerfeld.calls"] == 2
    assert counts["closedforms.sommerfeld.terms"] == 2 * series.terms_used
    assert counts["closedforms.sommerfeld.unconverged"] == 0
    assert counts["closedforms.omega.calls"] == 2
    assert counts["closedforms.omega.terms"] > 0
    assert counts["closedforms.omega.fallbacks"] == 1
    assert counts["special.table.calls"] >= 3  # each band sum builds one J column
    assert fc.closedforms.SpecialFnTable is fc.special.SpecialFnTable  # uninstalled


def test_tracer_counts_the_band_quadrature():
    tracer_module = _load_tracer()
    res = fc.ReservoirParams(0.1, 0.5)
    with tracer_module.Tracer().install(fc) as tracer:
        fc.nbar(2.0, res, 0.35, 1.0)
        (value,), _ = fc.transport.integrate_interval(lambda x: (np.cos(x),), 0.0, 1.0,
                                                      1e-12, 40)
        counts = tracer.pass_metrics()
    assert abs(value - np.sin(1.0)) < 1e-12
    assert counts["transport.counters.calls"] == 1
    assert counts["transport.integrate.calls"] == 2
    for key in ("levels", "nodes"):
        assert counts["transport.integrate.%s" % key] > 0
    assert fc.transport.integrate_interval is fc.integrate_interval  # uninstalled


def test_tracer_reads_a_sommerfeld_call_over_a_time_array():
    tracer_module = _load_tracer()
    res = fc.ReservoirParams(0.1, 0.5)
    times = np.linspace(0.0, 10.0, 41)
    names = ("nbar_fd_sommerfeld", "ebar_fd_sommerfeld")
    solo_terms = sum(getattr(fc, name)(float(t), res, 0.35, 1.0).terms_used
                     for name in names for t in times)
    with tracer_module.Tracer().install(fc) as tracer:
        for name in names:  # looked up here: the tracer rebinds them
            assert getattr(fc, name)(times, res, 0.35, 1.0).converged
        counts = tracer.pass_metrics()
    assert counts["closedforms.sommerfeld.calls"] == 2
    assert counts["closedforms.sommerfeld.terms"] == solo_terms
    assert counts["closedforms.sommerfeld.unconverged"] == 0
    assert counts["special.table.calls"] == 2  # one J table per call


def test_tracer_reads_a_multi_panel_scenario_and_its_csv_files(tmp_path):
    tracer_module = _load_tracer()
    cfg = fc.parse_config({"scenario": "onsteste2", "t_grid": [0.0, 1.0, 2.5],
                           "tol": 1e-8})
    with tracer_module.Tracer().install(fc) as tracer:
        result = fc.run_scenario(cfg)
        paths = fc.write_result(result, str(tmp_path), 12)
        counts = tracer.pass_metrics()
    assert len(paths) == len(result.panels) == 2
    assert counts["scenarios.onsteste2.s"] > 0
    rows = [len(pathlib.Path(p).read_text(encoding="utf-8").splitlines()) - 1 for p in paths]
    assert counts["scenarios.write.rows"] == sum(rows) == 6  # headers are not rows
    assert counts["scenarios.write.bytes"] == sum(map(os.path.getsize, paths))
    assert fc.scenarios.run_scenario is fc.run_scenario  # uninstalled
