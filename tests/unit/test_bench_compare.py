"""Tests for the CI perf-regression gate in benchmarks/run_bench.py.

The gate is pure bookkeeping over JSON trajectories, so it is tested
directly: an injected regression beyond tolerance must produce a
violation (and a non-zero exit through main), equal-or-faster entries
must pass, and correctness flags must never silently flip to false.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.exceptions import ValidationError

_BENCH_PATH = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "run_bench.py"
)


@pytest.fixture(scope="module")
def run_bench():
    spec = importlib.util.spec_from_file_location("run_bench", _BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _doc(*entries):
    return {"benchmark": "core-ops", "entries": list(entries)}


class TestBaselineValue:
    def test_latest_entry_carrying_the_key_wins(self, run_bench):
        doc = _doc({"a": 1.0}, {"a": 2.0, "b": 5.0}, {"b": 6.0})
        assert run_bench.baseline_value(doc, "a") == 2.0
        assert run_bench.baseline_value(doc, "b") == 6.0

    def test_missing_key_returns_none(self, run_bench):
        assert run_bench.baseline_value(_doc({"a": 1.0}), "zzz") is None
        assert run_bench.baseline_value({}, "a") is None


class TestCompareToBaseline:
    BASE = {
        "fit_M400_N20_K8_r2_s": 0.050,
        "serving_transform_1rec_p99_s": 1e-4,
        "halving_agree_optimal": True,
        "fit_warm_pool_parity": True,
    }

    def test_equal_entry_passes(self, run_bench):
        assert run_bench.compare_to_baseline(dict(self.BASE), _doc(self.BASE), 0.5) == []

    def test_faster_entry_passes(self, run_bench):
        entry = dict(self.BASE, fit_M400_N20_K8_r2_s=0.010)
        assert run_bench.compare_to_baseline(entry, _doc(self.BASE), 0.0) == []

    def test_injected_regression_beyond_tolerance_fails(self, run_bench):
        entry = dict(self.BASE, serving_transform_1rec_p99_s=1e-3)  # 10x
        violations = run_bench.compare_to_baseline(entry, _doc(self.BASE), 0.5)
        assert len(violations) == 1
        assert "serving_transform_1rec_p99_s" in violations[0]

    def test_regression_within_tolerance_passes(self, run_bench):
        entry = dict(self.BASE, fit_M400_N20_K8_r2_s=0.070)  # 1.4x
        assert run_bench.compare_to_baseline(entry, _doc(self.BASE), 0.5) == []

    def test_agreement_flag_flip_fails_regardless_of_tolerance(self, run_bench):
        entry = dict(self.BASE, halving_agree_optimal=False)
        violations = run_bench.compare_to_baseline(entry, _doc(self.BASE), 100.0)
        assert violations and "halving_agree_optimal" in violations[0]

    def test_warm_pool_parity_flip_fails(self, run_bench):
        entry = dict(self.BASE, fit_warm_pool_parity=False)
        violations = run_bench.compare_to_baseline(entry, _doc(self.BASE), 10.0)
        assert violations and "fit_warm_pool_parity" in violations[0]

    def test_metrics_missing_on_either_side_are_skipped(self, run_bench):
        entry = {"fit_M400_N20_K8_r2_s": 9.9}
        assert run_bench.compare_to_baseline(entry, _doc({}), 0.5) == []
        assert run_bench.compare_to_baseline({}, _doc(self.BASE), 0.5) == []

    def test_negative_tolerance_rejected(self, run_bench):
        with pytest.raises(ValidationError):
            run_bench.compare_to_baseline({}, _doc(), -0.1)

    def test_gated_metrics_are_quick_stable(self, run_bench):
        # The gate may only hold quick entries against full-run
        # baselines for metrics whose problem shape does not depend on
        # --quick: large-M oracle rows (M differs) and absolute tuning
        # rows (records/grid differ) must stay out.
        for key in run_bench.GATE_LOWER_IS_BETTER:
            assert "largeM" not in key and not key.startswith("tuning_")


class TestMainGate:
    def test_main_exits_nonzero_on_injected_regression(
        self, run_bench, tmp_path, monkeypatch
    ):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(_doc({"fit_M400_N20_K8_r2_s": 1e-9}))
        )
        out = tmp_path / "out.json"
        # Stub the expensive run: main()'s gate logic is the target.
        monkeypatch.setattr(
            run_bench,
            "run",
            lambda label, quick, tune_jobs, trace_out=None: {
                "label": label,
                "fit_M400_N20_K8_r2_s": 1.0,
            },
        )
        argv = [
            "run_bench.py", "--quick", "--out", str(out),
            "--compare", str(baseline), "--tolerance", "0.5",
        ]
        monkeypatch.setattr(run_bench.sys, "argv", argv)
        with pytest.raises(SystemExit) as excinfo:
            run_bench.main()
        assert excinfo.value.code == 1
        assert json.loads(out.read_text())["entries"]  # entry still recorded

    def test_main_passes_against_equal_baseline(
        self, run_bench, tmp_path, monkeypatch
    ):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(_doc({"fit_M400_N20_K8_r2_s": 1.0})))
        out = tmp_path / "out.json"
        monkeypatch.setattr(
            run_bench,
            "run",
            lambda label, quick, tune_jobs, trace_out=None: {
                "label": label,
                "fit_M400_N20_K8_r2_s": 1.0,
            },
        )
        argv = [
            "run_bench.py", "--out", str(out),
            "--compare", str(baseline), "--tolerance", "0.0",
        ]
        monkeypatch.setattr(run_bench.sys, "argv", argv)
        run_bench.main()  # no SystemExit

    def test_main_fails_loudly_on_missing_baseline(
        self, run_bench, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            run_bench, "run", lambda label, quick, tune_jobs, trace_out=None: {"label": label}
        )
        argv = [
            "run_bench.py", "--out", str(tmp_path / "out.json"),
            "--compare", str(tmp_path / "nope.json"),
        ]
        monkeypatch.setattr(run_bench.sys, "argv", argv)
        with pytest.raises(SystemExit) as excinfo:
            run_bench.main()
        assert excinfo.value.code == 2


class TestScalingEntry:
    def test_scaling_mode_appends_measured_speedup_row(
        self, run_bench, tmp_path, monkeypatch
    ):
        out = tmp_path / "bench.json"
        timings = iter([4.0, 2.0])
        monkeypatch.setattr(
            run_bench,
            "_run_tune_mode",
            lambda grid, spec, shared, n_jobs, strategy, pool="per-call": (
                next(timings),
                None,
            ),
        )
        monkeypatch.setattr(
            run_bench, "_tuning_setup", lambda quick: ([{}] * 18, {}, {})
        )
        argv = [
            "run_bench.py", "--quick", "--scaling",
            "--label", "scale-test", "--out", str(out),
        ]
        monkeypatch.setattr(run_bench.sys, "argv", argv)
        run_bench.main()
        entry = json.loads(out.read_text())["entries"][-1]
        assert entry["label"] == "scale-test"
        assert entry["scaling_jobs"] == [1, 2]
        assert entry["scaling_jobs1_s"] == 4.0
        assert entry["scaling_jobs2_s"] == 2.0
        assert entry["scaling_speedup_jobs2"] == 2.0
        assert entry["scaling_grid_points"] == 18


class TestSelfCompareGate:
    def test_out_equal_to_compare_still_catches_regression(
        self, run_bench, tmp_path, monkeypatch
    ):
        # The documented local usage writes to the same file it gates
        # against; the baseline must be the PRE-run trajectory, never
        # the entry this run just appended.
        trajectory = tmp_path / "BENCH.json"
        trajectory.write_text(
            json.dumps(
                {"entries": [{"fit_M400_N20_K8_r2_s": 0.01}]}
            )
        )
        monkeypatch.setattr(
            run_bench,
            "run",
            lambda label, quick, tune_jobs, trace_out=None: {
                "label": label,
                "fit_M400_N20_K8_r2_s": 1.0,  # 100x regression
            },
        )
        argv = [
            "run_bench.py", "--out", str(trajectory),
            "--compare", str(trajectory), "--tolerance", "0.5",
        ]
        monkeypatch.setattr(run_bench.sys, "argv", argv)
        with pytest.raises(SystemExit) as excinfo:
            run_bench.main()
        assert excinfo.value.code == 1
        # ...and the regressed entry was still appended for forensics.
        assert len(json.loads(trajectory.read_text())["entries"]) == 2
