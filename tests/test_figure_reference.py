"""The default-grid figures and the seed-0 sweep are the benchmark's references.

``perfbench/reference/panels/`` holds the 18 CSVs of the nine scenarios at
their default grids, which the benchmark's ``figures`` workload compares
against, and ``perfbench/reference/sweep_seed0.csv`` the rows of the 256
``custom`` draws its ``sweep`` workload makes on seed 0.  Those comparisons
forgive a move within ``tol`` of a column's largest value, which a column of
pure round-off (a sweep draw's E where n == 1) fails on any bit move; these
tests forgive nothing, so a change that moves any output bit far enough to
change a printed digit fails here, in about four seconds.  The workloads'
configs are read from ``perfbench/workloads.py``, loaded from its file; the
reference files are only read.
"""

import importlib.util
import pathlib
import sys

import fermichain as fc

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_default_figure_csvs_equal_the_references_byte_for_byte(tmp_path):
    workloads = _load_workloads()
    sc = fc.scenarios
    written = []
    for data in workloads.Figures.config_data():
        cfg = sc.parse_config(data)
        written += sc.write_result(sc.run_scenario(cfg), str(tmp_path), cfg.sig_digits)
    references = sorted(pathlib.Path(workloads.PANELS_DIR).glob("*.csv"))
    assert len(references) == 18
    assert sorted(pathlib.Path(p).name for p in written) == [p.name for p in references]
    for ref in references:
        assert (tmp_path / ref.name).read_bytes() == ref.read_bytes(), ref.name


def test_seed0_sweep_rows_equal_the_reference_as_text(tmp_path):
    workloads = _load_workloads()
    sc = fc.scenarios
    with open(workloads.Sweep.reference_path, "r", encoding="utf-8") as fh:
        header, *reference = fh.read().splitlines()
    written = []
    for index, data in enumerate(workloads.sweep_draws(workloads.DEFAULT_SEED)):
        cfg = sc.parse_config(data)
        (path,) = sc.write_result(sc.run_scenario(cfg), str(tmp_path), cfg.sig_digits)
        with open(path, "r", encoding="utf-8") as fh:
            head, *rows = fh.read().splitlines()
        assert header == "draw," + head
        written += ["%d,%s" % (index, row) for row in rows]
    assert len(written) == len(reference) == workloads.SWEEP_DRAWS * workloads.SWEEP_POINTS
    for got, want in zip(written, reference):
        assert got == want
