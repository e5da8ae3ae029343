"""Acceptance gate: every criterion at its stated size and tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s; the same lines
come out of `qbaker verify`).
"""

import pytest

from qbaker import verify
from qbaker.bakermap import FAST_CAP_N
from qbaker.verify import (
    DEFAULT_SEED,
    check_b1_reduction,
    check_bn_structure,
    check_boundary_identities,
    check_circuit_lowering,
    check_circuit_vs_fast,
    check_classical_oracle,
    check_displacement_algebra,
    check_dot_shift_law,
    check_fast_path,
    check_localization,
    check_product_form,
    check_route_equivalence,
    check_unitarity,
    run_all,
)

FULL = FAST_CAP_N  # no restriction: every sub-check runs at its stated size


def _report(results):
    failures = []
    for r in results:
        line = f"[acceptance] {r.line()}"
        print(line)
        if not r.skipped and not r.passed:
            failures.append(line)
    assert not failures, "\n".join(failures)


def test_c01_unitarity():
    _report(check_unitarity(FULL))


def test_c02_boundary_identities():
    _report(check_boundary_identities(FULL))


def test_c03_b1_reduction():
    _report(check_b1_reduction(FULL))


def test_c04_route_equivalence():
    _report(check_route_equivalence(FULL))


def test_c05_dot_shift_law():
    _report(check_dot_shift_law(FULL))


def test_c06_product_form():
    _report(check_product_form(FULL))


def test_c07_bn_structure():
    _report(check_bn_structure(FULL, DEFAULT_SEED))


def test_c08_displacement_algebra():
    _report(check_displacement_algebra(FULL))


def test_c09_localization():
    _report(check_localization(FULL))


def test_c10_classical_oracle():
    _report(check_classical_oracle(FULL, DEFAULT_SEED))


def test_c11_fast_path():
    _report(check_fast_path(FULL, DEFAULT_SEED))


def test_c12_circuit_lowering():
    _report(check_circuit_lowering(FULL))


def test_c13_circuit_vs_fast_apply():
    results = check_circuit_vs_fast(FULL, DEFAULT_SEED)
    assert [r.skipped for r in results] == [False, False]
    _report(results)


@pytest.mark.parametrize("max_n,seed", [(0, DEFAULT_SEED), (-3, DEFAULT_SEED), (2, -1)])
def test_run_all_rejects_bad_arguments_before_any_check(monkeypatch, max_n, seed):
    def unreachable(*args):
        raise AssertionError("a criterion ran before the arguments were checked")

    monkeypatch.setattr(verify, "check_unitarity", unreachable)
    with pytest.raises(ValueError):
        run_all(max_n=max_n, seed=seed)
