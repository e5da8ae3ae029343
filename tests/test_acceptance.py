"""Acceptance gate: every criterion at its stated size and tolerance.

The criteria come from `qbaker.verify.criteria`, the list `qbaker verify`
runs.  Each test prints one PASS/FAIL line per check (visible with pytest -s;
the same lines come out of `qbaker verify`).
"""

import pytest

from qbaker import verify
from qbaker.bakermap import FAST_CAP_N
from qbaker.verify import DEFAULT_SEED, criteria, run_all


# no restriction: every sub-check runs at its stated size
@pytest.mark.parametrize(
    "criterion", criteria(FAST_CAP_N, DEFAULT_SEED), ids=lambda c: c.func.__name__
)
def test_criterion(criterion):
    results = criterion()
    for r in results:
        print(f"[acceptance] {r.line()}")
    assert [r.name for r in results if r.skipped] == []
    assert [r.line() for r in results if not r.passed] == []


@pytest.mark.parametrize("max_n,seed", [(0, DEFAULT_SEED), (-3, DEFAULT_SEED), (2, -1)])
def test_run_all_rejects_bad_arguments_before_any_check(monkeypatch, max_n, seed):
    def unreachable(*args):
        raise AssertionError("a criterion ran before the arguments were checked")

    monkeypatch.setattr(verify, "check_unitarity", unreachable)
    with pytest.raises(ValueError):
        run_all(max_n=max_n, seed=seed)
