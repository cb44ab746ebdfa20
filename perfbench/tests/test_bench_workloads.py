"""Failure accounting, the independent references, and a smoke run of each
workload at its smallest size."""

import numpy as np
import pytest

import layers
import run
import workloads
from witnesskit import states


def iso_case(reference_shift=0.0):
    rho = states.DensityMatrix(workloads.isotropic_matrix(2, 1.0), 2, 2)
    return workloads.projection_case("iso 2 1.0", rho, workloads.iso_closed(2, 1.0) + reference_shift)


def test_wrong_reference_counts_as_failed(capsys):
    results = run.run_pass([iso_case(), iso_case(reference_shift=0.1)], lambda c: c.run())
    assert run.report_failures(results) == 1
    assert "FAIL iso 2 1.0: |D - D_closed|" in capsys.readouterr().out


def test_raising_case_counts_as_failed():
    def boom():
        raise RuntimeError("solver blew up")

    *_, outcome = run.run_case(workloads.Case("boom", boom), lambda c: c.run())
    assert outcome.failures == ["RuntimeError: solver blew up"]


def test_cli_checks_reject_wrong_output():
    assert workloads.check_gamma_signs(3)("+ - + + - + - +\n").failures == []
    assert workloads.check_gamma_signs(3)("+ + + + - + - +\n").failures
    sweep = "d,alpha,threshold,separable,D\n2,0.8,0.333333333333,false,0.5\n"
    assert workloads.check_iso_sweep(2)(sweep).failures
    chsh = "d,alpha,chsh_max,lhv_bound,violates_chsh\n2,1,2.5,2,true\n"
    assert workloads.check_chsh(chsh).failures


def test_references_match_known_values():
    assert workloads.iso_closed(2, 1.0) == pytest.approx(np.sqrt(3) / 3)
    assert workloads.gamma_pattern(2) == "+ - +"
    assert workloads.gamma_pattern(4) == "+ + + + + + - - - - - - + + +"
    m = workloads.npt_state(np.random.default_rng(0), 2, 3, 1, 0.8)
    assert not states.is_ppt(states.DensityMatrix(m, 2, 3))


def test_rank1_states_keep_their_margin():
    # seed 20 first drew a state with a least partial-transpose eigenvalue of -7e-4
    rng = np.random.default_rng(20)
    for d_a, d_b in workloads.RANK1_KINDS:
        m = workloads.npt_state(rng, d_a, d_b, 1, workloads.RANK1_PURITY, workloads.RANK1_MARGIN)
        pt = m.reshape(d_a, d_b, d_a, d_b).transpose(0, 3, 2, 1).reshape(d_a * d_b, -1)
        assert np.linalg.eigvalsh(pt)[0] < -workloads.RANK1_MARGIN


def test_seed_fixes_the_inputs(tmp_path):
    def draw(seed):
        return workloads.npt_state(np.random.default_rng(seed), 2, 2, 2, 0.9)

    assert np.array_equal(draw(5), draw(5))
    assert not np.allclose(draw(5), draw(6))
    argvs = [[c.argv for c in workloads.cli_mix(seed, str(tmp_path))] for seed in (5, 5, 6)]
    assert argvs[0] == argvs[1] != argvs[2]


def test_setup_samples_spread_over_the_run():
    for gaps in (1, 6, 21, 51):
        due = run.setup_schedule(gaps)
        assert len(due) == gaps and sum(due) == run.SETUP_SAMPLES
        assert max(due) - min(due) <= 1 if gaps <= run.SETUP_SAMPLES else max(due) == 1
    assert run.setup_schedule(21)[::3] == [1] * run.SETUP_SAMPLES


def smoke(name, tmp_path, seed=3):
    wl = run.Workload(name, seed, str(tmp_path))
    wl.cases = wl.cases[:1]
    return wl


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_end_to_end_smoke(name, tmp_path):
    attempted, failed, metrics, ok = run.end_to_end(smoke(name, tmp_path), seconds=0, seed=3)
    assert (attempted, failed, ok) == (run.MIN_PASSES, 0, True)
    assert set(metrics) == {"wall_s", "cpu_s", "setup_s", "peak_rss_mb"}
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_smoke(name, tmp_path):
    attempted, failed, metrics, counts_ok = run.traced(smoke(name, tmp_path), seed=3)
    assert failed == 0 and counts_ok
    assert {k: u for k, (_, u) in metrics.items()} == layers.UNITS
