"""Bounded fuzz of the command line: every input ends in exit 0, 1 or 2.

``fermichain figure <id> --set ...`` and ``fermichain run <file> --set ...``
are driven with every scenario id and every config key, set to finite,
huge, tiny, NaN/inf and wrong-type values, on 2-point grids at tol 1e-6.
Whatever the input, ``cli.main`` must return 0, 1 or 2 or stop in
argparse with exit 2; any other exception is a raw traceback for the user.
The examples are derandomized so the suite's run time stays bounded.  A JSON
list for a config number, a ragged one too, must exit 2 naming the field.
"""

import json
import math
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermichain import cli
from fermichain.scenarios import _FIELDS, SCENARIOS

_BASE = {"t_grid": [0.0, 1.0], "mu_grid": [-0.5, 0.5], "tol": 1e-6}

_NUMBERS = st.one_of(
    st.floats(-10.0, 10.0),
    st.integers(-3, 40),
    st.sampled_from([1e200, -1e200, 1.3e154, 1e308, -1.7e308]),  # huge
    st.sampled_from([1e-300, -1e-300, 5e-324, 0.0]),  # tiny
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
_WRONG_TYPES = st.sampled_from([True, None, [], {}, [1.0], {"a": 1}])
_STRINGS = st.sampled_from(["abc", "", "FD"] + sorted(SCENARIOS))
_VALUES = st.one_of(_NUMBERS, st.lists(_NUMBERS, min_size=2, max_size=2),
                    _WRONG_TYPES, _STRINGS)
# out_dir is fuzzed with non-strings only: a string would be a real path
_KEYS = sorted(_FIELDS) + ["not_a_key"]
_OVERRIDE = st.sampled_from(_KEYS).flatmap(
    lambda key: st.tuples(st.just(key),
                          _WRONG_TYPES if key == "out_dir" else _VALUES))


def _set_args(pairs) -> list:
    return [arg for key, value in pairs
            for arg in ("--set", "%s=%s" % (key, json.dumps(value)))]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(command=st.sampled_from(["figure", "run"]),
       sid=st.sampled_from(sorted(SCENARIOS)),
       overrides=st.lists(_OVERRIDE, min_size=1, max_size=3))
@example(command="figure", sid="custom", overrides=[("temperature", 1e200)])
@example(command="run", sid="onsteste2", overrides=[("temperature", 1e200)])
@example(command="figure", sid="custom", overrides=[("temperature", 1e-300)])
@example(command="figure", sid="custom",
         overrides=[("t_grid", [0.0, 1e308]), ("dephasing", 0.0)])
def test_cli_exit_code_contract_holds_for_any_override(tmp_path_factory, command,
                                                       sid, overrides):
    out = tmp_path_factory.mktemp("fuzz")
    base = dict(_BASE, out_dir=str(out))
    if command == "figure":
        argv = ["figure", sid] + _set_args(base.items())
    else:
        path = out / "cfg.json"
        path.write_text(json.dumps(dict(base, scenario=sid)), encoding="utf-8")
        argv = ["run", str(path)]
    argv += _set_args(overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad usage with exit 2
            rc = exc.code
    assert rc in (0, 1, 2), argv


# the config keys declared by a lattice._REACH row, as the library's numbers are
_NUMBER_KEYS = sorted(key for key, arg in _FIELDS.items() if isinstance(arg.rule, str))


@pytest.mark.parametrize("value", ["[0.1]", "[1, [2]]"])
@pytest.mark.parametrize("key", _NUMBER_KEYS)
def test_a_list_for_a_config_number_exits_2_naming_the_field(key, value, tmp_path, capsys):
    # a number declared one scalar rejects a list, a ragged one included, as
    # bad input (exit 2), not as a failed run (exit 1)
    rc = cli.main(["figure", "custom", "--set", "%s=%s" % (key, value),
                   "--set", "out_dir=%s" % tmp_path])
    assert rc == 2
    assert "error: config field '%s'" % key in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
