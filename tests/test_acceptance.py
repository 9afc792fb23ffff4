"""Release gate: every shipped claim re-checked at its stated tolerance.

Each criterion prints its own PASS/FAIL line (run with -s to see them all
even on success).  The whole gate takes a few seconds; no single
criterion takes more than about one.
"""

import numpy as np
import pytest

from fermichain import ModeSpec, acceptance, closedforms, dynamics, fluctuation, special, transport
from fermichain.acceptance import CRITERIA
from fermichain.fluctuation import ft_log_ratio


@pytest.mark.parametrize("crit", CRITERIA, ids=[c.cid for c in CRITERIA])
def test_criterion(crit):
    passed, detail = crit.fn()
    print("%s %s %s (%s)" % ("PASS" if passed else "FAIL", crit.cid,
                             crit.title, detail))
    assert type(passed) is bool  # json.dumps rejects numpy's bool
    assert passed, "%s %s: %s" % (crit.cid, crit.title, detail)


def test_c4_checks_every_reservoir_pair_in_one_call(monkeypatch):
    # the 625 pairs are two broadcast reservoir batches, not a loop of calls
    calls = []

    def counted(*args):
        calls.append(args)
        return ft_log_ratio(*args)

    monkeypatch.setattr(fluctuation, "ft_log_ratio", counted)
    passed, detail = acceptance._c4()
    assert len(calls) == 1 and passed is True
    assert detail == ("max |residual| 3.55e-15 over 5^5 states; "
                      "identical at all 9 (noise, t): True")


def test_c3_steps_one_batch_of_100_modes_and_compares_one_shape(monkeypatch):
    # one ModeSpec of 100 modes for the stepper and the closed form, not a
    # list of 100 records beside a batch of the same modes
    stepped, closed = [], []
    stepper, state = dynamics.lindblad_trajectory, dynamics.density_matrix

    def counted_stepper(mode, *args, **kwargs):
        out = stepper(mode, *args, **kwargs)
        stepped.append((mode, out.shape))
        return out

    def counted_state(mode, *args):
        out = state(mode, *args)
        closed.append((mode, out.shape))
        return out

    monkeypatch.setattr(dynamics, "lindblad_trajectory", counted_stepper)
    monkeypatch.setattr(dynamics, "density_matrix", counted_state)
    passed, detail = acceptance._c3()
    assert len(stepped) == 1 and len(closed) == 1 and passed is True
    (mode, states), (same_mode, ref) = stepped[0], closed[0]
    assert isinstance(mode, ModeSpec) and mode is same_mode
    assert np.broadcast(mode.energy, mode.coupling, mode.dephasing).shape == (100, 1)
    # the stepper's axis of length 1 dropped, both are (mode, t, 4, 4)
    assert states == (100, 1, 10, 4, 4) and ref == (100, 10, 4, 4)
    assert detail.startswith("max entrywise gap 4.91e-12 over 10x10x10 grid in ")


def test_c8_runs_its_nine_settings_as_one_scan_and_one_j_table(monkeypatch):
    # nine settings x 11 times in one quadrature, and one table for the
    # 18 Sommerfeld calls, not one of each per setting
    scans, tables = [], []
    scan = transport._scan

    def counted_scan(kernel_groups, points, *args):
        scans.append(len(points))
        return scan(kernel_groups, points, *args)

    class Counted(special.SpecialFnTable):
        def __init__(self, *args):
            tables.append(args)
            super().__init__(*args)

    monkeypatch.setattr(transport, "_scan", counted_scan)
    monkeypatch.setattr(special, "SpecialFnTable", Counted)
    passed, detail = acceptance._c8()
    assert scans == [99] and len(tables) == 1 and passed is True
    assert detail == "max deviation 0.011 at T=0.1; worsens at T=0.25: True"


def test_c7_makes_one_scan_and_builds_each_i_column_once(monkeypatch):
    # one call per closed form over the three times: its six I columns
    # (two omega columns and one I_nu(2/T) per form) each once, and the
    # three quadrature points in one scan
    scans, columns = [], []
    scan, column = transport._scan, special._column

    def counted_scan(kernel_groups, points, *args):
        scans.append(len(points))
        return scan(kernel_groups, points, *args)

    def counted_column(max_order, x, modified):
        if modified:
            columns.append((tuple(max_order), tuple(x)))
        return column(max_order, x, modified)

    monkeypatch.setattr(transport, "_scan", counted_scan)
    for module in (special, closedforms):  # closedforms holds its own binding
        monkeypatch.setattr(module, "_column", counted_column)
    assert acceptance._c7() == (True, "max |closed - quadrature| = 3.39e-21")
    assert scans == [3] and len(columns) == 6 and len(set(columns)) == 6
