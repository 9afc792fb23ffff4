"""Release gate: every shipped claim re-checked at its stated tolerance.

Each criterion prints its own PASS/FAIL line (run with -s to see them all
even on success).  The whole gate takes a few seconds; no single
criterion takes more than about one.
"""

import pytest

from fermichain import acceptance, fluctuation, special, transport
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
