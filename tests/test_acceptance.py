"""Acceptance suite: one test per release criterion, each printing a
pass/fail line so the full gate can be read off the pytest -s output."""

import subprocess
import sys
import time

import numpy as np
import pytest

from witnesskit.linalg import hs_inner, hs_norm
from witnesskit.measures import bnt_check, hs_measure_isotropic
from witnesskit.states import (
    gamma_signs,
    is_ppt,
    isotropic,
    isotropic_gamma_form,
    twirl_invariance_check,
)
from witnesskit.witness import (
    DensityMatrix,
    SolverConfig,
    chsh_max_violation,
    min_over_separable,
    optimal_witness_isotropic,
    verify_nearest_separable,
    witness_candidate,
)

from operators import lambda_operator, sigma_operator


def report(name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok


def test_criterion_01_qubit_witness_closed_form():
    expected = (np.eye(4) - sigma_operator()) / (2 * np.sqrt(3))
    ok = all(
        np.max(np.abs(
            witness_candidate(isotropic(2, 1 / 3), isotropic(2, alpha))
            - expected
        )) <= 1e-12
        for alpha in (0.4, 0.7, 1.0)
    )
    report("criterion 1: qubit witness closed form (entrywise 1e-12)", ok)


def test_criterion_02_qutrit_witness_closed_form():
    expected = (np.eye(9) - 0.75 * lambda_operator()) / (3 * np.sqrt(2))
    ok = all(
        np.max(np.abs(
            witness_candidate(isotropic(3, 1 / 4), isotropic(3, alpha))
            - expected
        )) <= 1e-12
        for alpha in (0.4, 0.7, 1.0)
    )
    report("criterion 2: qutrit witness closed form (entrywise 1e-12)", ok)


def test_criterion_03_norm_constants():
    ok = (
        abs(hs_norm(sigma_operator()) - 2 * np.sqrt(3)) <= 1e-12
        and abs(hs_norm(lambda_operator()) - 4 * np.sqrt(2)) <= 1e-12
    )
    report("criterion 3: norm constants 2*sqrt(3) and 4*sqrt(2)", ok)


def test_criterion_04_tangency():
    ok = True
    for d in (2, 3, 4):
        a_opt = optimal_witness_isotropic(d, 1.0)
        value = min_over_separable(a_opt, d, d, SolverConfig(n_starts=64, seed=0))[0][0]
        ok &= abs(value) <= 1e-7
        ok &= abs(hs_inner(isotropic(d, 1 / (d + 1)).matrix, a_opt)) <= 1e-12
    report("criterion 4: optimal witness tangent to the separable set", ok)


def test_criterion_05_distance_equals_violation():
    ok = True
    for d in (2, 3):
        for alpha in (0.4, 0.6, 0.8, 1.0):
            if alpha <= 1 / (d + 1):
                continue
            start = time.monotonic()
            rep = bnt_check(isotropic(d, alpha))
            elapsed = time.monotonic() - start
            closed = hs_measure_isotropic(d, alpha)
            ok &= abs(rep.d_value - closed) <= 5e-4
            ok &= rep.discrepancy <= 5e-4
            ok &= elapsed < 60
    report("criterion 5: numeric distance equals maximal violation (5e-4)", ok)


def test_criterion_06_interior_guess_is_not_a_witness():
    guess = DensityMatrix(np.eye(4) / 4, 2, 2)
    rep = verify_nearest_separable(guess, isotropic(2, 0.8))
    ok = (not rep.is_witness) and rep.sep_minimum < -1e-3
    report("criterion 6: maximally mixed guess correctly rejected", ok)


def test_criterion_07_ppt_flip_at_threshold():
    ok = True
    for d in (2, 3, 4, 5):
        thr = 1 / (d + 1)
        lo = -1 / (d**2 - 1)
        grid = np.arange(np.ceil(lo * 1000) / 1000, 1.0 + 1e-9, 1e-3)
        for alpha in grid:
            ok &= is_ppt(isotropic(d, alpha)) == (alpha <= thr + 1e-12)
        if not ok:
            break
    report("criterion 7: PPT flips at 1/(d+1) on the 1e-3 grid", ok)


def test_criterion_08_gamma_form_consistency():
    ok = True
    for d in range(2, 9):
        signs = gamma_signs(d)
        for alpha in (-1 / (d**2 - 1), 0.0, 1 / (d + 1), 1.0):
            diff = isotropic_gamma_form(d, alpha).matrix - isotropic(d, alpha).matrix
            ok &= np.max(np.abs(diff)) <= 1e-10
        if d == 2:
            ok &= signs.tolist() == [1, -1, 1]
        if d == 3:
            ok &= signs.tolist() == [1, -1, 1, 1, -1, 1, -1, 1]
    report("criterion 8: correlation-operator form matches isotropic states", ok)


def test_criterion_09_twirl_invariance():
    dev = twirl_invariance_check(isotropic(3, 0.7), trials=20, seed=0)
    ok = dev <= 1e-9
    report("criterion 9: twirl invariance over 20 seeded Haar trials", ok)


def test_criterion_10_chsh_maximum():
    ok = all(
        abs(chsh_max_violation(isotropic(2, alpha)) - 2 * np.sqrt(2) * alpha) <= 1e-12
        for alpha in (0.5, 0.8, 1.0)
    )
    report("criterion 10: CHSH maximum equals 2*sqrt(2)*alpha", ok)


def test_criterion_11_cli_determinism():
    cmd = [sys.executable, "-m", "witnesskit.cli",
           "bnt", "--d", "3", "--alpha", "1.0", "--seed", "0"]
    first = subprocess.run(cmd, capture_output=True, timeout=300)
    second = subprocess.run(cmd, capture_output=True, timeout=300)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
    )
    report("criterion 11: bnt CLI output is byte-identical across runs", ok)
