"""Tiny-size runs of every workload, untraced and traced."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for p in (str(ROOT / "src"), str(ROOT)):
    if p not in sys.path:
        sys.path.insert(0, p)

from perfbench import bench, workloads  # noqa: E402
from trajbehav import train as T  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_run(name, trace, tmp_path):
    result, detail, spans = bench.run(name, seed=3, seconds=0, trace=trace, root=tmp_path,
                                      sizes=workloads.TINY_SIZES)
    assert detail["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    # raises unless the metrics are exactly the ones BENCHMARK.json declares
    metrics = bench.with_units(result["metrics"], bench.declared_metrics(ROOT, trace))
    assert not (tmp_path / ".perfbench").exists()
    if trace:
        assert detail["rounds_traced"] == [False, True]
        assert "setup" in spans and "round 1" in spans
        kind = {"fusion_train": "train.step", "conv1d_train": "train.step",
                "hmm_fit": "hmm.baum_welch_fit", "prep_infer": "models.predict"}[name]
        assert detail["step_kind"] == kind
        # HMM spans cover only the E-step helpers, not the M-step
        assert metrics["trace.coverage"]["value"] > (0.0 if name == "hmm_fit" else 0.5)
        if name == "prep_infer":
            assert metrics["checkpoint.save_checkpoint.s"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in metrics.values())


def test_fusion_layers_show_up_where_expected(tmp_path):
    result, detail, _ = bench.run("fusion_train", seed=3, seconds=0, trace=1, root=tmp_path,
                                  sizes=workloads.TINY_SIZES)
    m = result["metrics"]
    assert m["autodiff.lstm_cell.calls_per_step"] == 20
    assert m["autodiff.conv1d_valid.calls_per_step"] == 3
    assert m["optim.step.ms_per_step"] > 0
    assert m["hmm.em_iters"] == 0
    # prep runs in every round; gen and loading only in set-up, timed there
    assert m["data.ros.s"] > 0 and m["container.write_container.bytes"] > 0
    assert m["synth.gen_dataset.s"] > 0 and m["data.load_prepared.s"] > 0


def test_a_failed_check_fails_the_run(tmp_path, monkeypatch):
    calls = iter(range(1000))
    original = bench.PredictProbe.take

    def corrupt(self, ledger):
        out = dict(original(self, ledger))
        out["sha256"] = str(next(calls))   # every round "predicts" differently
        return out

    monkeypatch.setattr(bench.PredictProbe, "take", corrupt)
    result, detail, _ = bench.run("hmm_fit", seed=3, seconds=0, trace=0, root=tmp_path,
                                  sizes=workloads.TINY_SIZES)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert "predictions differ between rounds" in detail["failures"]


def test_a_round_must_make_exactly_one_prediction_call(tmp_path, monkeypatch):
    workload = workloads.make("conv1d_train", workloads.TINY_SIZES)
    original = type(workload).round

    def round_with_an_extra_evaluate(self, ctx, state):
        split = state["split"]
        model, _ = T.train(self.kind, self.config(ctx.seed, warm=True), split)
        T.evaluate(model, split.test, split.class_names)
        return original(self, ctx, state)

    monkeypatch.setattr(type(workload), "round", round_with_an_extra_evaluate)
    result, detail, _ = bench.run("conv1d_train", seed=3, seconds=0, trace=0, root=tmp_path,
                                  sizes=workloads.TINY_SIZES)
    assert not result["correct"]
    assert "round made 2 predict_batch calls, not 1" in detail["failures"]


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hmm_fit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
