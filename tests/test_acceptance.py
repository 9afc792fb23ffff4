"""Release gate: every shipped claim re-checked at its stated tolerance.

Each criterion prints its own PASS/FAIL line (run with -s to see them all
even on success).  The whole gate takes a few seconds; no single
criterion takes more than about one.
"""

import pytest

from fermichain.acceptance import CRITERIA


@pytest.mark.parametrize("crit", CRITERIA, ids=[c.cid for c in CRITERIA])
def test_criterion(crit):
    passed, detail = crit.fn()
    print("%s %s %s (%s)" % ("PASS" if passed else "FAIL", crit.cid,
                             crit.title, detail))
    assert passed, "%s %s: %s" % (crit.cid, crit.title, detail)
