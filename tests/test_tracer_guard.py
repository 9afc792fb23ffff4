"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracer.py`` wraps fermichain's public functions by name and
reads ``terms_used`` and ``converged`` off the series results; its
quadrature hook rebinds ``integrate_interval``'s argument ``f`` by name, and
its scenario hooks read ``cfg.scenario``, each panel's ``columns`` and the
written paths.  A rename or a signature change in ``src/`` would break it,
yet its own tests live under ``perfbench/tests``, which the package suite
does not run.  This module loads the tracer from its file, read only,
installs it and runs the closed forms, the band quadrature, the Lindblad
stepper (whose hook binds ``mode``, ``t_grid`` and ``dt_max`` by name) and
scenario runs and writes through it.
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


def test_tracer_reads_one_j_table_and_no_public_series_call_for_onsteste2():
    tracer_module = _load_tracer()
    cfg = fc.parse_config({"scenario": "onsteste2"})
    with tracer_module.Tracer().install(fc) as tracer:
        fc.run_scenario(cfg)
        counts = tracer.pass_metrics()
    # N and E of both panels are one private evaluation, which the tracer's
    # public-name series layer does not see
    assert counts["closedforms.sommerfeld.calls"] == 0
    assert counts["closedforms.sommerfeld.terms"] == 0
    assert counts["special.table.calls"] == 1  # N and E of both panels share it
    assert fc.closedforms.SpecialFnTable is fc.special.SpecialFnTable  # uninstalled
    assert fc.closedforms.integrate_interval is fc.transport.integrate_interval


def test_tracer_counts_one_batched_stepper_call():
    tracer_module = _load_tracer()
    mode = fc.ModeSpec(-0.9, np.array([0.5, 1.0, 1.5]), np.array([[0.0], [0.2]]))
    t_grid, dt_max = [0.0, 0.25, 0.5], 0.01
    with tracer_module.Tracer().install(fc) as tracer:
        states = fc.lindblad_trajectory(mode, fc.ReservoirParams(0.5, 0.3),
                                        fc.ReservoirParams(0.5, -0.3), t_grid, dt_max)
        counts = tracer.pass_metrics()
    assert states.shape == (2, 3, 3, 4, 4)
    assert counts["dynamics.lindblad.calls"] == 1
    assert counts["dynamics.lindblad.steps"] == tracer_module.lindblad_mode_steps(t_grid,
                                                                                  dt_max)
    assert fc.dynamics.lindblad_trajectory is fc.lindblad_trajectory  # uninstalled


def test_tracer_sees_the_library_calling_its_exports():
    # library code calls an export as any caller does, through the name the
    # tracer rebinds: a Boltzmann closed form's omega, criterion c2's occ_a
    # and occ_b
    tracer_module = _load_tracer()
    with tracer_module.Tracer().install(fc) as tracer:
        fc.nbar_boltzmann_closed(2.0, fc.ReservoirParams(0.1, -3.0), 0.35, 1.0)
        omega_calls = tracer.pass_metrics()["closedforms.omega.calls"]
        tracer.reset()
        fc.run_acceptance(only="c2", echo=lambda line: None)
        closed_calls = tracer.pass_metrics()["dynamics.closed.calls"]
    assert (omega_calls, closed_calls) == (1, 2)
    assert fc.closedforms.omega is fc.omega  # uninstalled
