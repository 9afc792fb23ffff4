"""Config parsing, scenario runs, CSV writing, and the command line."""

import json
import math
import pathlib
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermichain import (RegimeWarning, ReservoirParams, acceptance, cli, closedforms, special,
                        transport)
from fermichain.scenarios import (
    SCENARIOS,
    ComparisonReport,
    ConfigError,
    LinearResponseWarning,
    Panel,
    ScenarioConfig,
    ScenarioResult,
    _run_panels,
    parse_config,
    read_config,
    run_scenario,
    write_csv,
    write_result,
)
from test_closedforms import sommerfeld_oracle


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_defaults():
    cfg = parse_config({"scenario": "ons1"})
    assert cfg.temperature == 0.1
    assert cfg.mu == 0.0
    assert cfg.dephasing == 0.05
    assert cfg.g == 1.0
    assert cfg.stats == "fd"
    assert cfg.tol == 1e-10
    assert cfg.sig_digits == 12
    assert cfg.out_dir == "figures"


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="zzz_wrong"):
        parse_config({"scenario": "ons1", "zzz_wrong": 1})


def test_parse_names_first_unknown_key_alphabetically():
    with pytest.raises(ConfigError, match="'aaa'"):
        parse_config({"scenario": "ons1", "bbb": 1, "aaa": 2})


def test_parse_requires_scenario():
    with pytest.raises(ConfigError, match="scenario"):
        parse_config({"temperature": 0.1})


def test_parse_rejects_unknown_scenario():
    with pytest.raises(ConfigError, match="unknown scenario 'nope'"):
        parse_config({"scenario": "nope"})


def test_parse_rejects_non_monotone_grid():
    with pytest.raises(ConfigError, match="'t_grid'"):
        parse_config({"scenario": "custom", "t_grid": [0.0, 2.0, 1.0]})
    with pytest.raises(ConfigError, match="'mu_grid'"):
        parse_config({"scenario": "ons1", "mu_grid": [0.5, 0.5]})


def test_parse_range_violations_name_the_field():
    with pytest.raises(ConfigError, match="'temperature'"):
        parse_config({"scenario": "ons1", "temperature": 0.0})
    with pytest.raises(ConfigError, match="'temperature'"):
        parse_config({"scenario": "ons1", "temperature": math.inf})
    with pytest.raises(ConfigError, match="'dephasing'"):
        parse_config({"scenario": "ons1", "dephasing": math.inf})
    with pytest.raises(ConfigError, match="'sig_digits'"):
        parse_config({"scenario": "ons1", "sig_digits": 2})
    with pytest.raises(ConfigError, match="'threads'"):
        parse_config({"scenario": "ons1", "threads": 0})
    with pytest.raises(ConfigError, match="'stats'"):
        parse_config({"scenario": "ons1", "stats": "be"})
    # below ~1e-15 the doubling test chases round-off until the budget is spent
    for tol in (1e-16, 1e-300):
        with pytest.raises(ConfigError, match="'tol'"):
            parse_config({"scenario": "custom", "tol": tol})


def test_parse_rejects_bool_masquerading_as_number():
    # bool is an int subclass; it must not slip through the numeric fields
    with pytest.raises(ConfigError, match="'mu'"):
        parse_config({"scenario": "ons1", "mu": True})


def test_parsed_config_holds_the_resolved_pins():
    cfg = parse_config({"scenario": "entroevo", "n_eq": 0.3})
    assert "n_eq" in cfg.explicit
    assert cfg.n_eq == 0.3
    assert parse_config({"scenario": "entroevo"}).n_eq == 0.1
    onsevo1 = parse_config({"scenario": "onsevo1"})
    assert (onsevo1.temperature, onsevo1.dephasing) == (0.005, 0.05)
    assert len(parse_config({"scenario": "ons1"}).mu_grid) == 161
    assert "threads" not in vars(parse_config({"scenario": "ons1", "threads": 2}))


_TINY = {"t_grid": [0.0, 1.0], "mu_grid": [-0.5, 0.5], "tol": 1e-6}


def test_split_check_sees_the_resolved_temperature():
    # delta_t = 0.02 is harmless at the field default T = 0.1, but onsevo1
    # runs at T = 0.005, where it would drive reservoir B below zero
    with pytest.warns(LinearResponseWarning, match="delta_t"):
        run_scenario(parse_config(dict(_TINY, scenario="custom", delta_t=0.02)))
    with pytest.raises(ConfigError, match="'delta_t' at temperature 0.005"):
        run_scenario(parse_config(dict(_TINY, scenario="onsevo1", delta_t=0.02)))


_PARENT_PANEL_NAMES = {
    "ons1": ["T0p1", "T0p5"],
    "onsevo1": ["mu0", "mu1", "mu1p9"],
    "onsevo2": ["lam0p05", "lam0"],
    "entroevo": ["lam0p2", "lam0"],
    "entroprod": ["lam0p2", "lam0"],
    "mutint": ["lam0p2", "lam0"],
    "onsteste1": ["T0p1", "T0p25"],
    "onsteste2": ["mu0", "mu1"],
    "custom": [""],
}


def test_a_field_off_its_default_keeps_its_value_over_the_pins():
    # set on a directly built or replaced config, a value used to be dropped
    # for the pin unless ``explicit`` named its key
    result = run_scenario(ScenarioConfig("ons1", temperature=0.3, mu_grid=(-0.5, 0.5)))
    assert [p.name for p in result.panels] == ["T0p3"]
    mu, j_n_mu = result.panels[0].columns[:2]
    assert mu.tolist() == [-0.5, 0.5]
    assert j_n_mu.tolist() == [transport.onsager(math.inf, ReservoirParams(0.3, m), 0.05,
                                                 1.0).j_n_mu for m in (-0.5, 0.5)]
    parsed = parse_config({"scenario": "onsevo1", "t_grid": [0, 1]})
    assert parsed.temperature == 0.005
    for temp, cfg in ((0.3, replace(parsed, temperature=0.3)),
                      (0.005, parsed),
                      (0.005, ScenarioConfig("onsevo1", t_grid=(0.0, 1.0)))):  # at its default
        result = run_scenario(cfg)
        assert [p.name for p in result.panels] == ["mu0", "mu1", "mu1p9"]
        for panel, mu in zip(result.panels, (0.0, 1.0, 1.9)):
            block = transport.onsager(1.0, ReservoirParams(temp, mu), 0.05, 1.0)
            assert panel.columns[1].tolist() == [0.0, block.j_n_mu]


def _regime_warnings(data) -> list:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_scenario(parse_config(data))
    return [str(w.message) for w in caught if w.category is RegimeWarning]


def test_a_boltzmann_scan_warns_once_per_reservoir():
    # onsevo2's 121 times share one reservoir, far from dilute at mu = 0:
    # that panel used to warn once per point
    messages = _regime_warnings({"scenario": "onsevo2", "stats": "boltzmann",
                                 "dephasing": 0.05})
    assert len(messages) == 1
    assert "mu = 0 is not below" in messages[0]
    # its two default panels (lam = 0.05 and 0) share that reservoir and one
    # scan: one warning, not one per panel
    messages = _regime_warnings({"scenario": "onsevo2", "stats": "boltzmann",
                                 "t_grid": [0.0, 1.0, 2.0]})
    assert len(messages) == 1
    # a mu-scan still names each reservoir outside the dilute regime
    messages = _regime_warnings({"scenario": "ons1", "stats": "boltzmann",
                                 "temperature": 0.1, "mu_grid": [-3.5, -0.5, 0.5]})
    assert [m.split(": ")[1].split(" is not")[0] for m in messages] == [
        "mu = -0.5", "mu = 0.5"]


@pytest.mark.parametrize("sid", sorted(SCENARIOS))
def test_every_scenario_panels_and_pins(sid):
    data = dict(_TINY, scenario=sid)
    parsed = run_scenario(parse_config(data))
    assert [p.name for p in parsed.panels] == _PARENT_PANEL_NAMES[sid]
    # a directly built config runs with the same pins as a parsed one
    direct = run_scenario(ScenarioConfig(
        scenario=sid, t_grid=(0.0, 1.0), mu_grid=(-0.5, 0.5), tol=1e-6,
        explicit=frozenset(_TINY)))
    assert [p.name for p in direct.panels] == _PARENT_PANEL_NAMES[sid]
    for a, b in zip(parsed.panels, direct.panels):
        assert a.headers == b.headers
        for col_a, col_b in zip(a.columns, b.columns):
            np.testing.assert_array_equal(col_a, col_b)
    panels = SCENARIOS[sid][1]
    if panels is not None:
        key = panels[0]
        one = run_scenario(parse_config(dict(data, **{key: 0.15})))
        assert [p.name for p in one.panels] == [
            {"temperature": "T", "mu": "mu", "dephasing": "lam"}[key] + "0p15"]


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": "custom", "t_grid": [0.0, 1.0],
                                "mu": -0.4}), encoding="utf-8")
    cfg = parse_config(read_config(str(path)))
    assert cfg.scenario == "custom"
    assert cfg.t_grid == (0.0, 1.0)
    assert cfg.mu == -0.4


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        read_config(str(path))


# ---------------------------------------------------------------------------
# linear-response warnings
# ---------------------------------------------------------------------------

def _split_warnings(scenario="custom", **fields):
    """Messages of the LinearResponseWarnings one tiny run raises."""
    cfg = parse_config(dict(_TINY, scenario=scenario, **fields))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_scenario(cfg)
    return [str(w.message) for w in caught
            if issubclass(w.category, LinearResponseWarning)]


def test_linear_response_warning_names_offending_split():
    (message,) = _split_warnings(temperature=0.2, delta_t=0.1)
    assert message.startswith("delta_t split exceeds 0.05 of T = 0.2")


def test_preparation_flags_large_gradients():
    # the dT/T and dmu/mu cases of the removed BipartitePreparation, each
    # now checked on the panel's own config by run_scenario
    assert [m.split()[0] for m in _split_warnings(
        temperature=1.0, mu=0.5, delta_t=0.5)] == ["delta_t"]
    assert [m.split()[0] for m in _split_warnings(
        temperature=1.0, mu=0.5, delta_mu=0.1)] == ["delta_mu"]
    assert _split_warnings(temperature=1.0, mu=0.5, delta_t=0.01, delta_mu=0.001) == []
    # dmu/mu is undefined at mu = 0 and skipped there
    assert _split_warnings(temperature=1.0, mu=0.0, delta_mu=0.1) == []


def test_split_is_checked_on_every_panel():
    # onsevo1 sweeps mu over 0, 1 and 1.9: dmu = 0.2 is 20% and 10.5% of
    # the last two; parse_config used to check only the field default mu = 0
    messages = _split_warnings("onsevo1", delta_mu=0.2)
    assert [m.split(";")[0] for m in messages] == [
        "delta_mu split exceeds 0.05 of mu = 1",
        "delta_mu split exceeds 0.05 of mu = 1.9"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parse_config(dict(_TINY, scenario="onsevo1", delta_mu=0.2))


def test_directly_built_config_split_is_rejected_before_any_panel(monkeypatch):
    # every band scenario is one transport._scan; it records, then runs
    built = []
    inner = transport._scan
    monkeypatch.setattr(transport, "_scan", lambda *args: built.append(args) or inner(*args))
    cfg = ScenarioConfig(scenario="custom", t_grid=(0.0, 1.0), delta_t=0.5,
                         explicit=frozenset({"t_grid", "delta_t"}))
    with pytest.raises(ConfigError, match="'delta_t' at temperature 0.1 must .*T <= 0"):
        run_scenario(cfg)
    assert built == []


def test_warned_config_still_runs():
    cfg = parse_config({"scenario": "custom", "t_grid": [0.0, 0.5],
                        "temperature": 0.2, "delta_t": 0.1, "tol": 1e-6})
    with pytest.warns(LinearResponseWarning):
        result = run_scenario(cfg)
    assert len(result.panels) == 1


def test_no_warning_for_small_or_zero_bias():
    assert _split_warnings() == []
    assert _split_warnings(temperature=1.0, delta_mu=0.01) == []


def test_threshold_is_not_a_config_key():
    with pytest.raises(ConfigError, match="'linear_response_threshold'"):
        parse_config({"scenario": "custom", "linear_response_threshold": 0.1})


# ---------------------------------------------------------------------------
# scenario runs
# ---------------------------------------------------------------------------

def test_custom_requires_time_grid():
    cfg = parse_config({"scenario": "custom"})
    with pytest.raises(ConfigError, match="'t_grid'"):
        run_scenario(cfg)


def test_custom_panel_internal_consistency():
    cfg = parse_config({"scenario": "custom", "t_grid": [0.0, 0.8, 1.7],
                        "mu": 0.3, "delta_mu": 0.002, "tol": 1e-8})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = run_scenario(cfg)
    (panel,) = result.panels
    assert panel.headers[0] == "t[1/alpha]"
    col = dict(zip(panel.headers, panel.columns))
    # heat counter is assembled from the other two inside the same run
    np.testing.assert_allclose(col["Q[alpha]"],
                               col["E[alpha]"] - 0.3 * col["N[1]"], atol=1e-14)
    # pure chemical bias: particle flux reduces to J_NM * (delta_mu / T)
    np.testing.assert_allclose(col["flux_N[1]"],
                               col["J_NM[1]"] * 0.002 / 0.1, rtol=1e-12)
    # everything starts from the uncoupled state
    assert col["N[1]"][0] == 0.0
    assert col["E[alpha]"][0] == 0.0


def test_custom_counters_are_bit_equal_to_nbar_and_ebar():
    cfg = parse_config({"scenario": "custom", "t_grid": [0.0, 0.8, 1.7, 30.0],
                        "mu": -0.4, "temperature": 0.05, "tol": 1e-9})
    (panel,) = run_scenario(cfg).panels
    col = dict(zip(panel.headers, panel.columns))
    res = ReservoirParams(cfg.temperature, cfg.mu)
    for i, t in enumerate(cfg.t_grid):
        args = (t, res, cfg.dephasing, cfg.g, cfg.tol, cfg.stats)
        assert col["N[1]"][i] == transport.nbar(*args)
        assert col["E[alpha]"][i] == transport.ebar(*args)


def _count_quadratures(monkeypatch):
    calls = []
    original = transport.integrate_interval

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(transport, "integrate_interval", counted)
    return calls


def test_custom_block_is_bit_equal_to_onsager():
    cfg = parse_config({"scenario": "custom", "t_grid": [0.0, 0.8, 1.7, 30.0],
                        "mu": 0.9, "temperature": 0.05, "tol": 1e-9})
    (panel,) = run_scenario(cfg).panels
    col = dict(zip(panel.headers, panel.columns))
    res = ReservoirParams(cfg.temperature, cfg.mu)
    for i, t in enumerate(cfg.t_grid):
        blk = transport.onsager(t, res, cfg.dephasing, cfg.g, cfg.tol, cfg.stats)
        assert col["J_NM[1]"][i] == blk.j_n_mu
        assert col["J_NT[alpha]"][i] == blk.j_n_t
        assert col["J_QM[alpha]"][i] == blk.j_q_mu
        assert col["J_QT[alpha^2]"][i] == blk.j_q_t


@pytest.mark.parametrize("data", [
    {"scenario": "custom", "t_grid": [0.0, 1.0, 2.5, 4.0, 6.0]},
    {"scenario": "onsteste2", "t_grid": [0.0, 1.0, 2.5, 4.0]},
    {"scenario": "onsevo1", "t_grid": [0.0, 1.0, 2.5, 4.0]},
    {"scenario": "onsevo2", "t_grid": [0.0, 1.0, 2.5, 4.0, 30.0]},
    {"scenario": "ons1", "mu_grid": [-1.5, 0.0, 0.4, 1.9]},
    {"scenario": "onsteste1", "mu_grid": [-1.0, 0.0, 1.0]},
], ids=lambda data: data["scenario"])
def test_a_band_scenario_runs_one_quadrature(monkeypatch, data):
    cfg = parse_config(dict(data, tol=1e-8))
    calls = _count_quadratures(monkeypatch)
    scans = []
    inner = transport._scan
    monkeypatch.setattr(transport, "_scan", lambda *args: scans.append(args) or inner(*args))
    result = run_scenario(cfg)
    # every point of every panel, and the counters and the Onsager block of
    # a custom point, share the nodes of one quadrature
    assert [p.name for p in result.panels] == _PARENT_PANEL_NAMES[cfg.scenario]
    assert len(scans) == len(calls) == 1


@pytest.mark.parametrize("sid", [sid for sid in sorted(SCENARIOS) if SCENARIOS[sid][1]])
def test_panels_scanned_together_write_the_bytes_of_each_panel_alone(tmp_path, sid):
    # at the default grids: each panel run on its own, with the panel key set
    joint = write_result(run_scenario(parse_config({"scenario": sid})), str(tmp_path / "all"), 12)
    key, values = SCENARIOS[sid][1]
    alone = [path for v in values for path in write_result(
        run_scenario(parse_config({"scenario": sid, key: v})), str(tmp_path / "one"), 12)]
    assert [pathlib.Path(p).name for p in joint] == [pathlib.Path(p).name for p in alone]
    for a, b in zip(joint, alone):
        assert pathlib.Path(a).read_bytes() == pathlib.Path(b).read_bytes(), a


def test_entroevo_closed_system_conserves_total_correlation():
    # with the noise turned off S_A + S_B - I must not move at all
    cfg = parse_config({"scenario": "entroevo", "dephasing": 0.0,
                        "t_grid": list(np.linspace(0.0, 6.0, 61))})
    result = run_scenario(cfg)
    (panel,) = result.panels
    assert panel.name == "lam0"
    constant = panel.columns[panel.headers.index("S_sum_minus_I[k_B]")]
    assert float(np.ptp(constant)) < 1e-10


def test_entroevo_default_builds_two_noise_panels():
    cfg = parse_config({"scenario": "entroevo", "t_grid": [0.0, 1.0, 2.0]})
    result = run_scenario(cfg)
    assert [p.name for p in result.panels] == ["lam0p2", "lam0"]


def test_onsteste2_series_tracks_quadrature_within_reports():
    cfg = parse_config({"scenario": "onsteste2", "mu": 1.0,
                        "t_grid": [0.0, 1.0, 2.5, 4.0, 6.0], "tol": 1e-8})
    result = run_scenario(cfg)
    assert [r.quantity for r in result.reports] == ["N", "E"]
    for report in result.reports:
        assert report.threshold == 0.05
        assert report.within
        assert report.max_rel_deviation < 0.05
        assert "ok" in report.line()


def test_onsteste2_runs_the_statistics_its_config_names():
    # its scan used to run Fermi-Dirac whatever the config said, so a
    # Boltzmann config wrote the FD columns byte for byte, without a warning
    data = {"scenario": "onsteste2", "t_grid": [0.0, 1.0, 2.5], "tol": 1e-8}
    fd = run_scenario(parse_config(data))
    with pytest.warns(RegimeWarning, match="outside the dilute regime"):
        boltzmann = run_scenario(parse_config(dict(data, stats="boltzmann")))
    for a, b in zip(fd.panels, boltzmann.panels):
        col_a, col_b = dict(zip(a.headers, a.columns)), dict(zip(b.headers, b.columns))
        for quad in ("N_quad[1]", "E_quad[alpha]"):
            assert col_a[quad].tolist() != col_b[quad].tolist()
        for series in ("N_series[1]", "E_series[alpha]"):  # the FD Sommerfeld form
            assert col_a[series].tolist() == col_b[series].tolist()
    # the gap between Boltzmann quadrature and FD series is reported
    assert [r.within for r in boltzmann.reports] == [False] * 4


_BAND = {"ons1", "onsevo1", "onsevo2", "onsteste1", "onsteste2", "custom"}


class _Scanned(Exception):
    pass


@pytest.mark.parametrize("sid", sorted(SCENARIOS))
def test_every_band_scan_runs_the_statistics_its_config_names(monkeypatch, sid):
    stats = []

    def scan(kernel_groups, points, g, tol, scan_stats):
        stats.append(scan_stats)
        raise _Scanned  # the arguments are all this test reads

    monkeypatch.setattr(transport, "_scan", scan)
    try:
        run_scenario(parse_config(dict(_TINY, scenario=sid, stats="boltzmann")))
    except _Scanned:
        pass
    assert stats == (["boltzmann"] if sid in _BAND else [])


def test_onsteste1_reports_are_informational():
    cfg = parse_config({"scenario": "onsteste1", "temperature": 0.1,
                        "mu_grid": [-0.5, 0.0, 0.5], "tol": 1e-8})
    result = run_scenario(cfg)
    assert len(result.reports) == 4  # one per coefficient at this temperature
    for report in result.reports:
        assert math.isinf(report.threshold)
        assert "(informational)" in report.line()
    with pytest.raises(ConfigError, match="'mu_grid'"):
        run_scenario(parse_config({"scenario": "onsteste1",
                                   "mu_grid": [0.0, 2.5]}))


# ---------------------------------------------------------------------------
# determinism and CSV output
# ---------------------------------------------------------------------------

def _count_tables(monkeypatch) -> list:
    """The arguments of every J table built from here on."""
    built = []

    class Counted(special.SpecialFnTable):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(special, "SpecialFnTable", Counted)
    return built


def test_an_onsteste2_run_builds_one_j_table_and_a_second_run_its_own(monkeypatch):
    built = _count_tables(monkeypatch)
    cfg = parse_config({"scenario": "onsteste2"})
    first = run_scenario(cfg)
    assert len(built) == 1  # two panels x (N, E) built four
    second = run_scenario(cfg)
    assert len(built) == 2  # no table outlives its run
    for a, b in zip(first.panels, second.panels):
        assert [c.tolist() for c in a.columns] == [c.tolist() for c in b.columns]


def _bits(columns) -> list:
    return [[float(v).hex() for v in np.ravel(c)] for c in columns]


def _c8_runs(monkeypatch) -> list:
    """The (cfg, name) panels that the gate's c8 builds."""
    seen = []
    monkeypatch.setattr(acceptance, "_run_panels", lambda runs: seen.append(runs) or
                        _run_panels(runs))
    acceptance._c8()
    return seen[0]


_CUSTOM_RUNS = [({"scenario": "custom", "temperature": temp, "mu": mu, "delta_t": dt,
                  "t_grid": [0.0, 0.7, 2.1, 5.0], "tol": 1e-8}, name)
                for temp, mu, dt, name in ((0.05, 0.0, 0.0, "a"), (0.1, 0.6, 0.002, "b"),
                                           (0.3, -1.2, 0.0, "c"))]


@pytest.mark.parametrize("which", ["c8", "custom"])
def test_panels_built_together_have_the_bits_of_each_config_run_alone(monkeypatch, which):
    runs = _c8_runs(monkeypatch) if which == "c8" else [
        (parse_config(data), name) for data, name in _CUSTOM_RUNS]
    joint = _run_panels(runs)
    assert len(joint.panels) == len(runs)
    for (cfg, name), panel in zip(runs, joint.panels):
        alone = run_scenario(cfg)
        (solo,) = alone.panels
        assert panel.name == name and panel.headers == solo.headers
        assert _bits(panel.columns) == _bits(solo.columns)
        assert [(r.quantity, r.max_rel_deviation.hex(), r.threshold)
                for r in joint.reports if r.panel == name] == [
            (r.quantity, r.max_rel_deviation.hex(), r.threshold) for r in alone.reports]
    assert len(joint.reports) == (18 if which == "c8" else 0)


@pytest.mark.parametrize("key, value", [("scenario", "onsteste2"), ("g", 0.5), ("tol", 1e-9),
                                        ("stats", transport.STATS_BOLTZMANN)])
def test_panels_of_one_build_share_its_scan_settings(monkeypatch, key, value):
    monkeypatch.setattr(transport, "_scan", None)  # rejected before any scan
    base = {"scenario": "custom", "t_grid": [0.0, 1.0]}
    runs = [(parse_config(base), "a"), (parse_config(dict(base, **{key: value})), "b")]
    with pytest.raises(ConfigError, match="differ in config field '%s'" % key):
        _run_panels(runs)
    with pytest.raises(ConfigError, match="scenario runs must hold at least one panel"):
        _run_panels([])


def test_a_series_call_outside_a_run_builds_its_own_table(monkeypatch):
    built = _count_tables(monkeypatch)
    for _ in range(2):
        closedforms.nbar_fd_sommerfeld(np.array([0.0, 1.0]), ReservoirParams(0.1, 0.0), 0.35, 1.0)
    assert len(built) == 2  # outside a run, one table per call


_DET_CONFIG = {"scenario": "custom", "t_grid": [0.0, 0.7, 1.3, 2.1],
               "mu": 0.6, "tol": 1e-8}


def _run_to_bytes(tmp_path, name, threads):
    cfg = parse_config(dict(_DET_CONFIG, threads=threads))
    out = tmp_path / name
    paths = write_result(run_scenario(cfg), str(out), cfg.sig_digits)
    return [pathlib.Path(p).read_bytes() for p in sorted(paths)]


def test_csv_bytes_identical_across_thread_counts(tmp_path):
    assert _run_to_bytes(tmp_path, "one", 1) == _run_to_bytes(tmp_path, "four", 4)


def test_csv_layout(tmp_path):
    cfg = parse_config({"scenario": "custom", "t_grid": [0.0, 1.0], "tol": 1e-8})
    (path,) = write_result(run_scenario(cfg), str(tmp_path), cfg.sig_digits)
    raw = pathlib.Path(path).read_bytes()
    assert b"\r" not in raw  # LF only, even on Windows
    assert raw.endswith(b"\n") and not raw.endswith(b"\n\n")
    lines = raw.decode("utf-8").splitlines()
    header = lines[0].split(",")
    assert header[0] == "t[1/alpha]"  # independent variable leads
    assert all("[" in h and h.endswith("]") for h in header)
    assert len(lines) == 1 + 2
    for line in lines[1:]:
        for field in line.split(","):
            float(field)  # every payload field is a bare number


def test_csv_sig_digits_control(tmp_path):
    result = ScenarioResult(scenario="probe", panels=(
        Panel(name="", headers=("x[1]",), columns=(np.array([math.pi]),)),))
    (p12,) = write_result(result, str(tmp_path / "a"), sig_digits=12)
    (p3,) = write_result(result, str(tmp_path / "b"), sig_digits=3)
    assert pathlib.Path(p12).read_text() == "x[1]\n3.14159265359\n"
    assert pathlib.Path(p3).read_text() == "x[1]\n3.14\n"


_CELL = st.one_of(st.floats(), st.integers(-2 ** 70, 2 ** 70))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(sig=st.integers(3, 17), columns=st.integers(0, 4).flatmap(
    lambda rows: st.lists(st.lists(_CELL, min_size=rows, max_size=rows), min_size=1,
                          max_size=4)))
def test_write_result_writes_the_bytes_of_one_quoted_field_at_a_time(tmp_path_factory, sig,
                                                                    columns):
    out = tmp_path_factory.mktemp("rows")
    headers = ('x "quoted", [1]',) + tuple("c%d[1]" % i for i in range(1, len(columns)))
    result = ScenarioResult("probe", (Panel("", headers, tuple(map(tuple, columns))),))
    (path,) = write_result(result, str(out), sig)
    write_csv(str(out / "ref.csv"), [headers] + [["%.*g" % (sig, float(x)) for x in row]
                                                for row in zip(*columns)])
    assert pathlib.Path(path).read_bytes() == (out / "ref.csv").read_bytes()


def test_write_result_names_one_file_per_panel(tmp_path):
    cfg = parse_config({"scenario": "ons1", "temperature": 0.25,
                        "mu_grid": [-0.5, 0.5], "tol": 1e-6})
    paths = write_result(run_scenario(cfg), str(tmp_path), cfg.sig_digits)
    # panel tag folds the sign and decimal point into filename-safe letters
    assert [p.rsplit("/", 1)[1] for p in paths] == ["ons1_T0p25.csv"]


def test_panel_rejects_ragged_columns():
    with pytest.raises(ValueError, match="ragged"):
        Panel(name="", headers=("a[1]", "b[1]"),
              columns=(np.zeros(3), np.zeros(2)))
    with pytest.raises(ValueError, match="disagree"):
        Panel(name="", headers=("a[1]",), columns=(np.zeros(3), np.zeros(3)))


def test_report_line_wording():
    ok = ComparisonReport(panel="mu0", quantity="N",
                          max_rel_deviation=0.01, threshold=0.05)
    bad = ComparisonReport(panel="mu0", quantity="E",
                           max_rel_deviation=0.2, threshold=0.05)
    assert ok.within and "ok" in ok.line()
    assert not bad.within and "EXCEEDED" in bad.line()


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_cli_run_writes_files(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_DET_CONFIG), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg_path), "--set", "out_dir=%s" % out]) == 0
    assert (out / "custom.csv").exists()
    assert "wrote" in capsys.readouterr().out


def test_cli_run_and_figure_share_one_override_path(tmp_path, capsys):
    # --out, --tol and --stats duplicated the out_dir, tol and stats keys
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_DET_CONFIG), encoding="utf-8")
    for flag, value in (("--out", str(tmp_path)), ("--tol", "1e-8"), ("--stats", "fd")):
        for argv in (["run", str(cfg_path)], ["figure", "custom"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv + [flag, value])
            assert exc.value.code == 2
    assert cli.main(["run", str(cfg_path), "--set", "t_grid=[0, 0.5]",
                     "--set", "out_dir=%s" % tmp_path, "--set", "stats=boltzmann",
                     "--set", "mu=-3"]) == 0
    assert (tmp_path / "custom.csv").read_text(encoding="utf-8").count("\n") == 3
    assert cli.main(["run", str(cfg_path), "--set", "stats=FD"]) == 2
    assert "'stats'" in capsys.readouterr().err
    assert cli.main(["run", str(cfg_path), "--set", "linear_response_threshold=0.1"]) == 2
    assert "'linear_response_threshold'" in capsys.readouterr().err


def test_cli_figure_accepts_inline_overrides(tmp_path):
    rc = cli.main(["figure", "custom", "--set", "t_grid=[0.0, 1.0]",
                   "--set", "tol=1e-8", "--set", "out_dir=%s" % tmp_path])
    assert rc == 0
    assert (tmp_path / "custom.csv").exists()


def test_cli_threads_flag_is_gone():
    with pytest.raises(SystemExit) as exc:
        cli.main(["figure", "custom", "--set", "t_grid=[0.0, 0.9]",
                  "--threads", "2"])
    assert exc.value.code == 2


def test_cli_split_below_zero_temperature_exits_2(tmp_path, capsys):
    # used to escape as a plain ValueError from the preparation (exit 1)
    rc = cli.main(["figure", "custom", "--set", "t_grid=[0,1]",
                   "--set", "delta_t=0.5", "--set", "out_dir=%s" % tmp_path])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: config field 'delta_t'" in err
    assert "T <= 0" in err


def test_cli_bad_inputs_exit_2(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": "ons1", "zzz": 1}), encoding="utf-8")
    assert cli.main(["run", str(bad)]) == 2
    assert cli.main(["figure", "custom", "--set", "broken"]) == 2
    assert "error:" in capsys.readouterr().err
    bad.write_text("{not json", encoding="utf-8")
    assert cli.main(["run", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    bad.write_text("[1, 2]", encoding="utf-8")
    assert cli.main(["run", str(bad)]) == 2
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["temperature", "dephasing"])
def test_cli_infinite_temperature_or_dephasing_exit_2(tmp_path, capsys, field):
    # JSON Infinity used to pass the config check and fail the run (exit 1)
    rc = cli.main(["figure", "custom", "--set", "t_grid=[0, 1]",
                   "--set", "%s=Infinity" % field, "--set", "out_dir=%s" % tmp_path])
    assert rc == 2
    assert "'%s'" % field in capsys.readouterr().err


def test_cli_underflowing_temperature_exits_1_with_error_line(tmp_path, capsys):
    # T**2 underflows to 0 in the flux forces; this used to be a traceback
    rc = cli.main(["figure", "custom", "--set", "t_grid=[0, 1]",
                   "--set", "temperature=1e-300", "--set", "out_dir=%s" % tmp_path])
    assert rc == 1
    assert ("error: block temperature must not be so small that T**2 underflows to 0, "
            "got 1e-300") in capsys.readouterr().err


@pytest.mark.parametrize("key, value, line", [
    ("mu", "2.5", "mu must lie strictly inside the band (-2, 2) for the Sommerfeld form, got 2.5"),
    ("temperature", "0.7", "temperature must satisfy (pi T)^2/(4 - mu^2) < 1 for the Sommerfeld "
                           "form, got 0.7"),
])
def test_cli_names_a_reservoir_outside_the_sommerfeld_reach_as_set(tmp_path, capsys, key, value,
                                                                   line):
    # the panels' series are one evaluation: its batch must not be the value named
    rc = cli.main(["figure", "onsteste2", "--set", "%s=%s" % (key, value),
                   "--set", "out_dir=%s" % tmp_path])
    assert rc == 1
    assert capsys.readouterr().err == "error: %s\n" % line
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("sid", ["custom", "onsteste1", "onsteste2"])
def test_cli_temperature_with_an_overflowing_square_exits_2(tmp_path, capsys, sid):
    # T**2 overflows in the Onsager block and the Sommerfeld series; this
    # was a raw OverflowError traceback, then a run that parsed and exited 1
    # with the ReservoirParams message.  The config key now has that domain.
    rc = cli.main(["figure", sid, "--set", "t_grid=[0, 1]", "--set", "mu_grid=[0, 1]",
                   "--set", "temperature=1e200", "--set", "out_dir=%s" % tmp_path])
    assert rc == 2
    assert ("error: config field 'temperature' must lie in (0, 1.34078e+154] so that T**2 "
            "is finite, got 1e+200") in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_config_temperature_accepts_the_whole_reservoir_range():
    top = math.sqrt(sys.float_info.max)
    assert parse_config({"scenario": "custom", "temperature": top}).temperature == top
    ReservoirParams(top)
    with pytest.raises(ConfigError, match="'temperature' must lie in"):
        parse_config({"scenario": "custom", "temperature": math.nextafter(top, math.inf)})


def test_cli_sommerfeld_outside_its_regime_exits_1_with_error_line(tmp_path, capsys):
    # (pi T)^2/(4 - mu^2) ~ 4e308 at T = 1.3e154; this used to exit 0 and
    # write inf/nan deviations
    rc = cli.main(["figure", "onsteste1", "--set", "mu_grid=[0, 1]",
                   "--set", "temperature=1.3e154", "--set", "tol=1e-6",
                   "--set", "out_dir=%s" % tmp_path])
    assert rc == 1
    assert ("error: temperature must satisfy (pi T)^2/(4 - mu^2) < 1 for the Sommerfeld "
            "form") in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_overflowing_phase_exits_1_with_error_line(tmp_path, capsys):
    # 2 t overflows at t = 1e308; this used to be a raw OverflowError traceback
    rc = cli.main(["figure", "custom", "--set", "t_grid=[0, 1e308]",
                   "--set", "dephasing=0", "--set", "out_dir=%s" % tmp_path])
    assert rc == 1
    assert "error: phase 2 g t must be finite" in capsys.readouterr().err


def test_warnings_name_the_calling_line_as_their_source():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_scenario(parse_config({"scenario": "onsteste2", "stats": "boltzmann",
                                   "t_grid": [0.0, 1.0]}))
        run_scenario(parse_config({"scenario": "custom", "t_grid": [0.0, 1.0],
                                   "delta_t": 0.05}))
        closedforms.nbar_boltzmann_closed(1.0, ReservoirParams(0.1, 0.0), 0.35, 1.0)
    assert [w.category for w in caught] == [RegimeWarning] * 2 + [LinearResponseWarning,
                                                                  RegimeWarning]
    assert {w.filename for w in caught} == {__file__}


def test_cli_prints_each_warning_as_one_line(tmp_path, capsys):
    argv = ["figure", "onsteste2", "--set", "stats=boltzmann", "--set", "t_grid=[0, 1]",
            "--set", "out_dir=%s" % tmp_path]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().err.splitlines()
    assert [line[:len("warning: Boltzmann")] for line in lines] == ["warning: Boltzmann"] * 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning made an error fails the run
        assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error: Boltzmann statistics")


def test_cli_accept_single_fast_criterion(tmp_path, capsys):
    rc = cli.main(["accept", "--only", "c1", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS c1" in out
    assert "1/1 criteria passed" in out
    assert (tmp_path / "acceptance.csv").exists()


def test_cli_accept_unknown_criterion(capsys):
    # bad input exits 2 with a usage line, as for every other command
    with pytest.raises(SystemExit) as exc:
        cli.main(["accept", "--only", "c99"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "invalid choice: 'c99'" in err


def test_directly_built_config_is_checked_like_a_parsed_one():
    # a direct ScenarioConfig used to accept these until a panel ran
    for key, value in (("temperature", math.nan), ("tol", 1e-16), ("sig_digits", 18),
                       ("stats", "FD"), ("t_grid", (1.0, 0.0)), ("sig_digits", 2.5)):
        with pytest.raises(ConfigError, match="config field '%s' must" % key) as direct:
            ScenarioConfig(scenario="custom", **{key: value})
        with pytest.raises(ConfigError) as parsed:
            parse_config({"scenario": "custom", key: value})
        assert str(parsed.value) == str(direct.value)


def test_cli_integer_beyond_the_float_range_exits_2(tmp_path, capsys):
    # float() of this JSON integer raised a raw OverflowError traceback
    rc = cli.main(["figure", "custom", "--set", "mu=1" + "0" * 400,
                   "--set", "out_dir=%s" % tmp_path])
    assert rc == 2
    assert "error: config field 'mu' must be a number in the float range, got 1.00e+400" in capsys.readouterr().err


def test_cli_sommerfeld_series_converges_at_large_g_t(tmp_path):
    # the old series ran out of its n_max terms from g t = 40 on and warned;
    # the band sum follows g t, agrees with the term-by-term oracle and is quiet
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["figure", "onsteste2", "--set", "t_grid=[0,40,60]",
                       "--set", "dephasing=0.0", "--set", "out_dir=%s" % tmp_path])
    assert rc == 0
    for mu, name in ((0.0, "onsteste2_mu0.csv"), (1.0, "onsteste2_mu1.csv")):
        rows = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1)
        res = ReservoirParams(0.1, mu)
        for t, _, n_series, _, e_series in rows:
            for energy, got in ((False, n_series), (True, e_series)):
                want, converged = sommerfeld_oracle(t, res, 0.0, 1.0, energy, 60)
                assert converged
                assert got == pytest.approx(want, rel=1e-11, abs=1e-12)


def test_n_max_is_not_a_config_key(tmp_path, capsys):
    # the series length follows g t; the knob is gone, and an old config
    # that sets it is rejected by name
    with pytest.raises(ConfigError, match="'n_max'"):
        parse_config({"scenario": "onsteste2", "n_max": 25})
    assert cli.main(["figure", "onsteste2", "--set", "n_max=25",
                     "--set", "out_dir=%s" % tmp_path]) == 2
    assert "'n_max'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


