"""Release gate: every shipped claim re-checked at its stated tolerance.

Each criterion prints its own PASS/FAIL line (run with -s to see them all
even on success).  The whole gate takes a few seconds; no single
criterion takes more than about one.
"""

import pytest

from fermichain import acceptance, fluctuation
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
