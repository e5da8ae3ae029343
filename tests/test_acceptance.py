"""Acceptance gate: every criterion at its stated size and tolerance.

The criteria come from `qbaker.verify.criteria`, the list `qbaker verify`
runs.  Each test prints one PASS/FAIL line per check (visible with pytest -s;
the same lines come out of `qbaker verify`).
"""

import pytest

from qbaker import analysis, verify
from qbaker.bakermap import FAST_CAP_N
from qbaker.qfourier import StateVector
from qbaker.verify import DEFAULT_SEED, check_localization, criteria, run_all


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


def test_support_row_fails_on_one_tiny_off_window_amplitude(monkeypatch):
    # any amplitude above 1e-15 off the label's window fails the support row,
    # and its observed value and margin say so as well as its verdict
    real = analysis.dot_state_transform

    def leaky(label):
        state = real(label)
        if label.text() != "1.0":  # window {0, 1} of N=2
            return state
        amps = state.amps.copy()
        amps[3] = 1e-14
        return StateVector._adopt(2, amps)

    monkeypatch.setattr(analysis, "dot_state_transform", leaky)
    rows = {r.name: r for r in check_localization(2)}
    support = rows["9a exact position support"]
    assert (support.passed, support.observed, support.margin) == (False, 1.0, -1.0)
    assert support.details == "first mismatch at 1.0"
