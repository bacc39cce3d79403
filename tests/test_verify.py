import dataclasses
import time

import pytest

from fblab import verify


class TestSuiteComposition:
    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            verify.run_suite("paranoid")

    def test_quick_is_a_subset_of_full(self):
        assert set(verify.QUICK_CRITERIA) <= set(verify.FULL_CRITERIA)
        names = [fn.__name__ for fn in verify.FULL_CRITERIA]
        assert len(names) == len(set(names)) == 12

    def test_quick_leaves_out_the_converged_run_criteria(self):
        assert [fn.__name__ for fn in verify.QUICK_CRITERIA] == [
            "criterion_two_plane_stationarity",
            "criterion_weiss_closed_form",
            "criterion_disk_roots",
            "criterion_elliptic_convergence",
            "criterion_branch_ordering",
            "criterion_negative_control",
            "criterion_open_question_audits",
        ]

    def test_crashing_criterion_reports_failure(self, monkeypatch):
        def boom(ctx, out_dir=None):
            raise RuntimeError("intentional")

        boom.__name__ = "criterion_boom"
        monkeypatch.setattr(verify, "QUICK_CRITERIA", (boom,))
        results = verify.run_suite("quick")
        assert len(results) == 1
        assert not results[0].passed
        assert "intentional" in results[0].detail

    def test_crashing_criterion_reports_its_time(self, monkeypatch):
        def slow_boom(ctx, out_dir=None):
            time.sleep(0.05)
            raise RuntimeError("late")

        monkeypatch.setattr(verify, "QUICK_CRITERIA", (slow_boom,))
        (result,) = verify.run_suite("quick")
        assert not result.passed
        assert result.seconds >= 0.05

    def test_results_named_graded_and_timed(self, monkeypatch, tmp_path):
        def criterion_fine(ctx, out_dir=None):
            return True, "fine"

        monkeypatch.setattr(verify, "QUICK_CRITERIA", (
            criterion_fine, verify.criterion_open_question_audits))
        fine, audit = verify.run_suite("quick", out_dir=str(tmp_path))
        assert (fine.name, fine.passed, fine.hard, fine.detail) \
            == ("fine", True, True, "fine")
        assert (audit.name, audit.passed, audit.hard) \
            == ("open_question_audits", True, False)
        assert fine.seconds >= 0 and audit.seconds > 0

    def test_crashing_audit_fails_hard(self, monkeypatch, tmp_path, capsys):
        from fblab.cli import EXIT_VERIFY_FAIL, main

        # the output directory sits below a regular file, so the audit's
        # os.makedirs raises before any report is written
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = str(blocker / "reports")
        monkeypatch.setattr(verify, "QUICK_CRITERIA",
                            (verify.criterion_open_question_audits,))
        (audit,) = verify.run_suite("quick", out_dir=out)
        assert (audit.name, audit.passed, audit.hard) \
            == ("open_question_audits", False, True)
        assert audit.detail.startswith("raised ")
        assert main(["verify", "--level", "quick", "--out", out]) \
            == EXIT_VERIFY_FAIL
        assert "hard criteria failed: open_question_audits" \
            in capsys.readouterr().err


def test_disk_fixed_point_gates_on_build_time(pb_run):
    # the gate times the disk run itself, whichever criterion built it
    assert verify.criterion_disk_fixed_point(
        verify.SuiteContext(disk=pb_run))[0]
    passed, detail = verify.criterion_disk_fixed_point(
        verify.SuiteContext(disk=dict(pb_run, seconds=301.0)))
    assert not passed
    assert detail.endswith("built in 301.0s")


def test_runs_record_their_build_seconds(pb_run, perturbed_run):
    assert 0 < pb_run["seconds"] < 300
    assert 0 < perturbed_run["seconds"] < 300


CONVERGED_RUN_CRITERIA = (
    verify.criterion_weiss_rescaling,
    verify.criterion_weiss_monotonicity,
    verify.criterion_flatness_decay,
    verify.criterion_nondegeneracy,
)


@pytest.mark.parametrize("criterion", CONVERGED_RUN_CRITERIA,
                         ids=lambda fn: fn.__name__)
def test_criteria_need_a_converged_run(criterion, pb_run, perturbed_run):
    # run() hands back its best iterate when it stops early; a criterion
    # on that iterate must not pass for a run that never converged
    passed, detail = criterion(
        verify.SuiteContext(disk=pb_run, perturbed=perturbed_run))
    assert passed, detail
    assert detail.endswith("converged=True")
    unconverged = verify.SuiteContext(*(
        dict(run, report=dataclasses.replace(
            run["report"], stop_reason="budget_exhausted"))
        for run in (pb_run, perturbed_run)))
    passed, detail = criterion(unconverged)
    assert not passed
    assert detail.endswith("converged=False")
