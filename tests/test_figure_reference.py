"""The default-grid figures are byte for byte the benchmark's references.

``perfbench/reference/panels/`` holds the 18 CSVs of the nine scenarios at
their default grids, which the benchmark's ``figures`` workload compares
against.  That comparison forgives a move within ``tol``; this test does
not, so a change that moves any output bit far enough to change a printed
digit fails here, in about a second.  The workload's configs are read from
``perfbench/workloads.py``, loaded from its file; the reference files are
only read.
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
