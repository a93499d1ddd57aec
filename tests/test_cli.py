"""CLI behavior: exit codes, manifests, atomicity, emitted artifacts."""

import dataclasses
import errno
import hashlib
import inspect
import json
import os
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from conftest import checksummed

from trajbehav import cli
from trajbehav.checkpoint import Checkpoint, save_checkpoint
from trajbehav.cli import main
from trajbehav.container import read_container, write_container
from trajbehav.errors import ConfigError
from trajbehav.data import load_prepared
from trajbehav.gradcheck import grad_check
from trajbehav.hmm import GaussianHMM, HMMClassifier, baum_welch_fit, fit_classifier
from trajbehav.metrics import report
from trajbehav.models import build_model
from trajbehav.optim import Adam
from trajbehav.synth import SynthSpec
from trajbehav.train import TrainConfig, predict_batch


GEN_SPEC = """
length = 12
noise = 0.3
seed = 7
count.USD = 16
count.SA = 8
count.S = 8
"""

TINY_CFG = """
epochs = 3
batch_size = 64
lr_switch_epoch = 2
hmm_max_iters = 10
"""


@pytest.fixture
def workspace(tmp_path):
    spec = tmp_path / "spec.txt"
    spec.write_text(GEN_SPEC)
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    return tmp_path


def run(argv):
    return main([str(a) for a in argv])


def run_in_child(argv, timeout, stdin=subprocess.DEVNULL):
    """(exit code, stderr) of `main(argv)` run in a child process."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys\nfrom trajbehav.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    done = subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env,
                          stdin=stdin, capture_output=True, text=True, timeout=timeout)
    return done.returncode, done.stderr


def with_line(text, line):
    """`text` with `line` in place of the line setting the same key, or
    appended; a key may appear only once in a spec or config."""
    key = line.split("=", 1)[0].strip()
    kept = [row for row in text.splitlines() if row.split("=", 1)[0].strip() != key]
    return "\n".join(kept + [line]) + "\n"


def gen_and_prep(ws, resample="none", prep_name="prep"):
    if not (ws / "gen").exists():
        assert run(["gen", "--spec", ws / "spec.txt", "--out", ws / "gen"]) == 0
    assert run([
        "prep", "--data", ws / "gen" / "trajectories.csv",
        "--labels", ws / "gen" / "labels.csv", "--kind", "vehicle",
        "--out", ws / prep_name, "--seed", 3, "--resample", resample,
        "--min-class-count", 20,
    ]) == 0
    return ws / prep_name


class TestGen:
    def test_outputs_and_manifest(self, workspace):
        assert run(["gen", "--spec", workspace / "spec.txt",
                    "--out", workspace / "gen"]) == 0
        out = workspace / "gen"
        assert (out / "trajectories.csv").exists()
        assert (out / "labels.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "gen"
        assert "trajectories.csv" in manifest["outputs"]

    def test_same_spec_identical_hashes(self, workspace):
        run(["gen", "--spec", workspace / "spec.txt", "--out", workspace / "g1"])
        run(["gen", "--spec", workspace / "spec.txt", "--out", workspace / "g2"])
        m1 = json.loads((workspace / "g1" / "manifest.json").read_text())
        m2 = json.loads((workspace / "g2" / "manifest.json").read_text())
        assert m1["outputs"] == m2["outputs"]

    def test_unknown_class_exit_2_no_partial_output(self, workspace):
        bad = workspace / "bad.txt"
        bad.write_text("length = 10\nseed = 1\ncount.NOPE = 5\n")
        code = run(["gen", "--spec", bad, "--out", workspace / "gen_bad"])
        assert code == 2
        assert not (workspace / "gen_bad").exists()

    def test_every_count_zero_exit_2(self, workspace, capsys):
        spec = workspace / "zero.txt"
        spec.write_text("length = 12\nseed = 7\ncount.USD = 0\ncount.SA = 0\n")
        assert run(["gen", "--spec", spec, "--out", workspace / "gen_zero"]) == 2
        err = capsys.readouterr().err
        assert "every class count is 0" in err and "Traceback" not in err
        assert not (workspace / "gen_zero").exists()

    def test_existing_nonempty_out_dir_rejected(self, workspace):
        out = workspace / "busy"
        out.mkdir()
        (out / "file.txt").write_text("x")
        code = run(["gen", "--spec", workspace / "spec.txt", "--out", out])
        assert code == 2
        assert (out / "file.txt").exists()

    @pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
    def test_out_at_or_under_a_file_exit_2(self, workspace, capsys, under):
        blocker = workspace / "blocker.txt"
        blocker.write_text("x")
        out = blocker / "sub" if under else blocker
        assert run(["gen", "--spec", workspace / "spec.txt", "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"cannot use {out} as an output directory" in err
        assert blocker.read_text() == "x"

    def test_spec_keys_take_the_synth_spec_field_types(self, workspace):
        spec = cli.load_synth_spec(workspace / "spec.txt")
        assert dataclasses.asdict(spec) == {
            "counts": {"USD": 16, "SA": 8, "S": 8}, "length": 12, "noise": 0.3,
            "seed": 7}
        assert [type(getattr(spec, k)) for k in ("length", "noise", "seed")] == [
            int, float, int]

    @pytest.mark.parametrize("line, message", [
        ("counts = 5", "unknown generator key 'counts'"),
        ("speed = 2", "unknown generator key 'speed'"),
        ("length = 12.5", "bad value for length: '12.5'"),
        ("dt = fast", "unknown generator key 'dt'"),
        ("count.SA = many", "bad value for count.SA: 'many'"),
        ("noise = -1", "noise must be a finite number >= 0, got -1.0"),
        ("noise = nan", "noise must be a finite number >= 0, got nan"),
    ])
    def test_bad_spec_line_exit_2(self, workspace, capsys, line, message):
        spec = workspace / "bad.txt"
        spec.write_text(with_line(GEN_SPEC, line))
        assert run(["gen", "--spec", spec, "--out", workspace / "g"]) == 2
        assert message in capsys.readouterr().err
        assert not (workspace / "g").exists()

    @pytest.mark.parametrize("line, key, first", [
        ("seed = 7", "seed", 4),
        ("count.SA = 9", "count.SA", 6),
        ("  noise=0.5  # again", "noise", 3),
    ])
    def test_repeated_spec_key_exit_2(self, workspace, capsys, line, key, first):
        spec = workspace / "rep.txt"
        spec.write_text(GEN_SPEC + line + "\n")
        assert run(["gen", "--spec", spec, "--out", workspace / "g"]) == 2
        assert f"line 8: key '{key}' repeats line {first}" in capsys.readouterr().err
        assert not (workspace / "g").exists()

    @pytest.mark.parametrize("noise", ["1e308", "1e300", "1e40"])
    def test_noise_past_float32_range_exit_2(self, workspace, capsys, noise):
        """Coordinates `train` would reject are refused where they are made."""
        spec = workspace / "loud.txt"
        spec.write_text(GEN_SPEC.replace("noise = 0.3", f"noise = {noise}"))
        assert run(["gen", "--spec", spec, "--out", workspace / "g"]) == 2
        err = capsys.readouterr().err
        assert f"noise = {float(noise):g} gives trajectory SA-0000 coordinates" in err
        assert "not finite in float32" in err and "Traceback" not in err
        assert not (workspace / "g").exists()


class TestPrep:
    def test_counts_table_stages(self, workspace):
        prep = gen_and_prep(workspace)
        lines = dict(
            line.split("\t", 1)
            for line in (prep / "counts.txt").read_text().splitlines()
        )
        # 32 trajectories of length 12 -> 8 windows each
        assert lines["trajectories_loaded"] == "32"
        assert lines["after_min_length_filter"] == "32"
        assert lines["window_samples"] == "256"
        assert lines["windows_skipped_at_frame_gaps"] == "0"
        assert "train_samples" in lines and "test_samples" in lines

    def test_seven_point_trajectory_three_windows(self, tmp_path):
        csv = tmp_path / "t.csv"
        rows = ["agent_id,kind,frame,x,y,z,d,label"]
        for i in range(7):
            rows.append(f"a,vehicle,{i},{float(i)},0.0,0.0,0.0,X")
        csv.write_text("\n".join(rows) + "\n")
        code = run([
            "prep", "--data", csv, "--out", tmp_path / "p",
            "--min-class-count", 2, "--ratio", "0.5",
        ])
        assert code == 0
        lines = dict(
            line.split("\t", 1)
            for line in (tmp_path / "p" / "counts.txt").read_text().splitlines()
        )
        assert lines["window_samples"] == "3"

    def test_frame_gap_windows_skipped_and_counted(self, tmp_path):
        csv = tmp_path / "t.csv"
        rows = ["agent_id,kind,frame,x,y,z,d,label"]
        for i in [f for f in range(13) if f != 6]:
            rows.append(f"a,vehicle,{i},{float(i)},0.0,0.0,0.0,X")
        csv.write_text("\n".join(rows) + "\n")
        code = run([
            "prep", "--data", csv, "--out", tmp_path / "p",
            "--min-class-count", 2, "--ratio", "0.5",
        ])
        assert code == 0
        lines = dict(
            line.split("\t", 1)
            for line in (tmp_path / "p" / "counts.txt").read_text().splitlines()
        )
        assert lines["window_samples"] == "4"
        assert lines["windows_skipped_at_frame_gaps"] == "4"

    @pytest.mark.parametrize("ratio", ["nan", "0", "1", "-0.2", "inf"])
    def test_ratio_outside_unit_interval_exit_2(self, tmp_path, capsys, ratio):
        csv = tmp_path / "t.csv"
        rows = ["agent_id,kind,frame,x,y,z,d,label"]
        rows += [f"a,vehicle,{i},{float(i)},0.0,0.0,0.0,X" for i in range(9)]
        csv.write_text("\n".join(rows) + "\n")
        code = run(["prep", "--data", csv, "--out", tmp_path / "p",
                    "--min-class-count", 2, "--ratio", ratio])
        assert code == 2
        err = capsys.readouterr().err
        assert "ratio" in err and "Traceback" not in err
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("count", ["-5", "0", "1"])
    def test_min_class_count_below_2_exit_2(self, tmp_path, capsys, count):
        # a class of one window survives such a filter and then cannot be split
        csv = tmp_path / "t.csv"
        rows = ["agent_id,kind,frame,x,y,z,d,label"]
        rows += [f"a,vehicle,{i},{float(i)},0.0,0.0,0.0,X" for i in range(9)]
        rows += [f"b,vehicle,{i},{float(i)},1.0,0.0,0.0,Y" for i in range(5)]
        csv.write_text("\n".join(rows) + "\n")
        code = run(["prep", "--data", csv, "--out", tmp_path / "p",
                    "--min-class-count", count])
        assert code == 2
        err = capsys.readouterr().err
        assert f"--min-class-count must be >= 2, got {count}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "p").exists()

    def test_window_size_option_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["prep", "--data", tmp_path / "t.csv", "--out", tmp_path / "p",
                 "--window-size", 5])
        assert exc.value.code == 2

    def test_ros_flat_histogram_reported(self, workspace):
        prep = gen_and_prep(workspace, resample="ros", prep_name="prep_ros")
        lines = dict(
            line.split("\t", 1)
            for line in (prep / "counts.txt").read_text().splitlines()
        )
        hist = dict(kv.split("=") for kv in lines["post_resample_histogram"].split())
        counts = {int(v) for v in hist.values()}
        assert len(counts) == 1, f"ROS histogram not flat: {hist}"

    def test_prepared_dataset_loadable(self, workspace):
        prep = gen_and_prep(workspace)
        ds = load_prepared(prep / "prepared.tbh")
        assert ds.split.class_names == ["SA", "USD", "S"]
        assert ds.config["resample"] == "none"

    def test_wl_records_loss_weights(self, workspace):
        prep = gen_and_prep(workspace, resample="wl", prep_name="prep_wl")
        ds = load_prepared(prep / "prepared.tbh")
        assert ds.loss_weights is not None
        assert len(ds.loss_weights) == 3

    def test_byte_identical_dumps_same_inputs(self, workspace):
        p1 = gen_and_prep(workspace, prep_name="p1")
        p2 = gen_and_prep(workspace, prep_name="p2")
        assert (p1 / "prepared.tbh").read_bytes() == (p2 / "prepared.tbh").read_bytes()

    def test_ingestion_error_exit_3_with_rows(self, tmp_path, capsys):
        csv = tmp_path / "t.csv"
        csv.write_text(
            "agent_id,kind,frame,x,y,z,d,label\n"
            "a,vehicle,0,bad,0,0,0,X\n"
        )
        code = run(["prep", "--data", csv, "--out", tmp_path / "p"])
        assert code == 3
        assert "row 2" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("frame", [2**63, 2**70], ids=["2**63", "2**70"])
    def test_frame_beyond_int64_exit_3(self, tmp_path, capsys, frame):
        csv = tmp_path / "t.csv"
        rows = ["agent_id,kind,frame,x,y,z,d,label"]
        rows += [f"a,vehicle,{i},{float(i)},0.0,0.0,0.0,X" for i in range(8)]
        rows.append(f"a,vehicle,{frame},0.0,0.0,0.0,0.0,X")
        csv.write_text("\n".join(rows) + "\n")
        code = run(["prep", "--data", csv, "--out", tmp_path / "p",
                    "--min-class-count", 2, "--ratio", "0.5"])
        assert code == 3
        err = capsys.readouterr().err
        assert "row 10" in err and "int64" in err and "Traceback" not in err
        assert not (tmp_path / "p").exists()


    def test_normalize_overflowing_coordinates_exit_3(self, tmp_path, capsys):
        # finite x = +-1.5e308 overflows float64 in the mean and variance sums
        csv = tmp_path / "t.csv"
        rows = ["agent_id,kind,frame,x,y,z,d,label"]
        for agent, x, label in (("a", 1.5e308, "X"), ("b", -1.5e308, "X"),
                                ("c", 1.5e308, "Y"), ("d", -1.5e308, "Y")):
            rows += [f"{agent},vehicle,{i},{x!r},0.0,0.0,0.0,{label}" for i in range(7)]
        csv.write_text("\n".join(rows) + "\n")
        code = run(["prep", "--data", csv, "--out", tmp_path / "p", "--min-class-count", 2,
                    "--ratio", "0.5", "--normalize"])
        assert code == 3
        err = capsys.readouterr().err
        assert "of feature x are not finite" in err and "Traceback" not in err
        assert not (tmp_path / "p").exists()


class TestTrainEvalCommands:
    def test_unknown_model_kind_exit_2(self, workspace, capsys):
        prep = gen_and_prep(workspace)
        with pytest.raises(SystemExit) as exc:
            run(["train", "--data", prep, "--model", "transformer",
                 "--out", workspace / "t"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("model, line", [
        ("hmm", "hmm_states = 0"),
        ("hmm", "hmm_max_iters = 0"),
        ("hmm", "hmm_tol = 0.001"),
        ("lstm", "precision = verify"),
        ("lstm", "lr_initial = nan"),
        ("lstm", "lr_initial = 0"),
        ("lstm", "lr_after = inf"),
        ("lstm", "lr_after = -0.001"),
        ("lstm", "beta1 = 1"),
        ("lstm", "beta1 = -0.1"),
        ("lstm", "beta2 = 1"),
        ("lstm", "beta2 = nan"),
        ("lstm", "epsilon = 0"),
        ("lstm", "epsilon = -1e-8"),
        ("lstm", "lr_switch_epoch = -3"),
    ])
    def test_bad_config_value_exit_2(self, workspace, capsys, model, line):
        prep = gen_and_prep(workspace)
        cfg = workspace / "bad.cfg"
        cfg.write_text(with_line(TINY_CFG, line))
        code = run(["train", "--data", prep, "--model", model,
                    "--out", workspace / "t", "--config", cfg])
        assert code == 2
        err = capsys.readouterr().err
        assert line.split(" =")[0] in err and "Traceback" not in err
        assert not (workspace / "t").exists()

    def test_repeated_config_key_exit_2(self, workspace, capsys):
        """`epochs = 3` then `epochs = 5` used to train 5 epochs."""
        prep = gen_and_prep(workspace)
        cfg = workspace / "rep.cfg"
        cfg.write_text(TINY_CFG + "epochs = 5\n")
        code = run(["train", "--data", prep, "--model", "conv1d",
                    "--out", workspace / "t", "--config", cfg])
        assert code == 2
        assert "line 6: key 'epochs' repeats line 2" in capsys.readouterr().err
        assert not (workspace / "t").exists()

    def test_train_writes_checkpoint_log_config(self, workspace):
        prep = gen_and_prep(workspace)
        out = workspace / "t_fusion"
        assert run(["train", "--data", prep, "--model", "fusion", "--out", out,
                    "--config", workspace / "tiny.cfg", "--seed", 1]) == 0
        assert (out / "model.ckpt").exists()
        log = (out / "train_log.txt").read_text().splitlines()
        assert log[0] == "epoch\tloss\tlr\tseconds"
        assert len(log) == 4
        config_text = (out / "config.txt").read_text()
        assert "epochs = 3" in config_text
        assert "# paper-silent" in config_text
        manifest = json.loads((out / "manifest.json").read_text())
        assert "model.ckpt" in manifest["outputs"]
        assert "train_log.txt" in manifest["outputs_unhashed"]

    @pytest.mark.parametrize("model", ["lstm", "hmm"])
    def test_config_txt_round_trips_byte_identical(self, workspace, model):
        """A run's config.txt fed back through --config repeats the run."""
        prep = gen_and_prep(workspace)
        first, second = workspace / "t1", workspace / "t2"
        assert run(["train", "--data", prep, "--model", model, "--out", first,
                    "--config", workspace / "tiny.cfg", "--seed", 4]) == 0
        assert run(["train", "--data", prep, "--model", model, "--out", second,
                    "--config", first / "config.txt"]) == 0
        for name in ("model.ckpt", "config.txt"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        assert "seed = 4  # paper-silent" in (second / "config.txt").read_text()

    def test_hmm_checkpoint_one_model_per_class(self, workspace):
        prep = gen_and_prep(workspace)
        out = workspace / "t_hmm"
        assert run(["train", "--data", prep, "--model", "hmm", "--out", out,
                    "--config", workspace / "tiny.cfg"]) == 0
        from trajbehav.checkpoint import load_checkpoint
        ck = load_checkpoint(out / "model.ckpt")
        assert ck.model.kind == "hmm"
        assert len(ck.model.models) == 3

    def test_hmm_em_log_per_class(self, workspace):
        prep = gen_and_prep(workspace)
        out = workspace / "t_hmm"
        assert run(["train", "--data", prep, "--model", "hmm", "--out", out,
                    "--config", workspace / "tiny.cfg"]) == 0
        lines = (out / "hmm_em.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["class"] for r in records] == load_prepared(prep / "prepared.tbh").split.class_names
        for r in records:
            assert set(r) == {"class", "iterations", "converged", "fit_loglik"}
            assert r["iterations"] == len(r["fit_loglik"]) >= 1
            assert r["converged"] or r["iterations"] == 10
            assert (np.diff(r["fit_loglik"]) >= -1e-8).all()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs_unhashed"] == ["hmm_em.jsonl", "train_log.txt"]
        assert "hmm_em.jsonl" not in manifest["outputs"]

    def test_train_determinism_bit_identical_checkpoints(self, workspace):
        prep = gen_and_prep(workspace)
        o1, o2 = workspace / "d1", workspace / "d2"
        for out in (o1, o2):
            assert run(["train", "--data", prep, "--model", "lstm", "--out", out,
                        "--config", workspace / "tiny.cfg", "--seed", 5]) == 0
        assert (o1 / "model.ckpt").read_bytes() == (o2 / "model.ckpt").read_bytes()

    def test_eval_single_and_comparison(self, workspace):
        prep = gen_and_prep(workspace)
        for kind in ("fusion", "hmm"):
            assert run(["train", "--data", prep, "--model", kind,
                        "--out", workspace / f"m_{kind}",
                        "--config", workspace / "tiny.cfg"]) == 0
        out = workspace / "ev"
        assert run([
            "eval", "--checkpoint", workspace / "m_fusion" / "model.ckpt",
            "--checkpoint", workspace / "m_hmm" / "model.ckpt",
            "--data", prep, "--out", out,
        ]) == 0
        comparison = (out / "comparison.txt").read_text().splitlines()
        assert comparison[0] == "model\tbalanced_accuracy\tf1_score\trecall"
        assert len(comparison) == 3
        assert (out / "metrics_fusion.txt").exists()
        assert (out / "confusion_hmm.svg").exists()

    def test_eval_metrics_match_report_json(self, workspace):
        prep = gen_and_prep(workspace)
        assert run(["train", "--data", prep, "--model", "hmm",
                    "--out", workspace / "m", "--config", workspace / "tiny.cfg"]) == 0
        out = workspace / "ev1"
        assert run(["eval", "--checkpoint", workspace / "m" / "model.ckpt",
                    "--data", prep, "--out", out]) == 0
        rep = json.loads((out / "report_hmm.json").read_text())
        text = (out / "metrics_hmm.txt").read_text()
        assert f"{rep['balanced_accuracy']:.6f}" in text

    def test_eval_class_map_mismatch_exit_3(self, workspace, tmp_path):
        prep = gen_and_prep(workspace)
        other_spec = workspace / "other.txt"
        other_spec.write_text(
            "length = 12\nseed = 1\nnoise = 0.2\n"
            "count.USD = 12\ncount.SD = 12\n"
        )
        assert run(["gen", "--spec", other_spec, "--out", workspace / "g2"]) == 0
        assert run([
            "prep", "--data", workspace / "g2" / "trajectories.csv",
            "--labels", workspace / "g2" / "labels.csv",
            "--out", workspace / "p2", "--min-class-count", 10,
        ]) == 0
        assert run(["train", "--data", workspace / "p2", "--model", "lstm",
                    "--out", workspace / "m2",
                    "--config", workspace / "tiny.cfg"]) == 0
        code = run(["eval", "--checkpoint", workspace / "m2" / "model.ckpt",
                    "--data", prep, "--out", workspace / "ev_bad"])
        assert code == 3
        assert not (workspace / "ev_bad").exists()

    def test_manifest_reproducibility_full_chain(self, workspace):
        prep = gen_and_prep(workspace)
        for tag in ("r1", "r2"):
            assert run(["train", "--data", prep, "--model", "conv1d",
                        "--out", workspace / tag,
                        "--config", workspace / "tiny.cfg", "--seed", 9]) == 0
            assert run(["eval",
                        "--checkpoint", workspace / tag / "model.ckpt",
                        "--data", prep, "--out", workspace / f"ev_{tag}"]) == 0
        m1 = json.loads((workspace / "ev_r1" / "manifest.json").read_text())
        m2 = json.loads((workspace / "ev_r2" / "manifest.json").read_text())
        assert m1["outputs"] == m2["outputs"]
        t1 = json.loads((workspace / "r1" / "manifest.json").read_text())
        t2 = json.loads((workspace / "r2" / "manifest.json").read_text())
        assert t1["outputs"] == t2["outputs"]

    def test_eval_tag_collision_exit_2_naming_both_paths(self, workspace, capsys):
        # r0's checkpoint is tagged conv1d, r1's conv1d_r1, and so would a/r1's be
        prep = gen_and_prep(workspace)
        base, first, other = (workspace / d / "model.ckpt" for d in ("r0", "r1", "a/r1"))
        for ckpt in (base, first, other):
            assert run(["train", "--data", prep, "--model", "conv1d",
                        "--out", ckpt.parent, "--config", workspace / "tiny.cfg"]) == 0
        out = workspace / "ev"
        capsys.readouterr()
        assert run(["eval", "--checkpoint", base, "--checkpoint", first,
                    "--checkpoint", other, "--data", prep, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"checkpoints {first} and {other} would both write" in err
        assert "'conv1d_r1'" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("again", ["m/model.ckpt", "m/../m/model.ckpt"])
    def test_eval_repeated_checkpoint_exit_2_naming_it(self, workspace, capsys, again):
        prep = gen_and_prep(workspace)
        ckpt = workspace / "m" / "model.ckpt"
        assert run(["train", "--data", prep, "--model", "conv1d",
                    "--out", ckpt.parent, "--config", workspace / "tiny.cfg"]) == 0
        out = workspace / "ev"
        capsys.readouterr()
        assert run(["eval", "--checkpoint", ckpt, "--checkpoint", workspace / again,
                    "--data", prep, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"checkpoint {workspace / again} is given more than once" in err
        assert "Traceback" not in err and not out.exists()


def _drop_and_rewrite(src, dst, meta_key=None, array_key=None):
    kind, meta, arrays = read_container(src)
    meta.pop(meta_key, None)
    arrays.pop(array_key, None)
    write_container(dst, kind, meta, arrays)


class TestMalformedContainers:
    """Checksummed containers that lack a field exit 3, never a traceback."""

    @pytest.mark.parametrize("key", ["model_kind", "class_names", "config", "precision"])
    def test_checkpoint_missing_meta_key_exit_3(self, workspace, capsys, key):
        prep = gen_and_prep(workspace)
        good, bad = workspace / "good.ckpt", workspace / "bad.ckpt"
        save_checkpoint(build_model("fusion", 3, seed=0), ["SA", "USD", "S"], good)
        _drop_and_rewrite(good, bad, meta_key=key)
        code = run(["eval", "--checkpoint", bad, "--data", prep, "--out", workspace / "ev"])
        assert code == 3
        err = capsys.readouterr().err
        assert repr(key) in err and "Traceback" not in err
        assert not (workspace / "ev").exists()

    @pytest.mark.parametrize("meta_key, array_key", [
        ("agents", None), ("class_names", None), ("seed", None), ("has_loss_weights", None),
        (None, "train_states"), (None, "test_labels"),
    ])
    def test_dataset_missing_key_exit_3(self, workspace, capsys, meta_key, array_key):
        prep = gen_and_prep(workspace)
        bad = workspace / "bad.tbh"
        _drop_and_rewrite(prep / "prepared.tbh", bad, meta_key, array_key)
        code = run(["train", "--data", bad, "--model", "lstm", "--out", workspace / "t",
                    "--config", workspace / "tiny.cfg"])
        assert code == 3
        err = capsys.readouterr().err
        assert repr(meta_key or array_key) in err and "Traceback" not in err
        assert not (workspace / "t").exists()

    @pytest.mark.parametrize("array_key, edit", [
        ("train_agents", lambda a: np.where(np.arange(a.size) == 0, 10**6, a)),
        ("train_labels", lambda a: a[:-3]),
        ("train_labels", lambda a: np.where(np.arange(a.size) == 0, 99, a)),
        ("test_labels", lambda a: a - 1),
        ("test_states", lambda a: np.concatenate([a, a[:, :2]], axis=1)),
        ("test_frames", lambda a: a.astype(np.float64)),
        ("loss_weights", lambda a: np.append(a, 1.0)),
        ("test_states", lambda a: np.where(np.arange(a.size).reshape(a.shape) == 7, np.nan, a)),
        ("test_states", lambda a: a + np.inf),
        ("test_states", lambda a: a.astype(np.float32)),
        ("loss_weights", lambda a: a * np.inf),
        ("extra", lambda a: np.zeros(3)),
    ], ids=["agent-1e6", "labels-short", "label-99", "label-minus-1",
            "states-7-frames", "float-frames", "weights-too-long", "nan-state",
            "inf-states", "float32-states", "inf-weights", "extra-array"])
    def test_dataset_malformed_array_exit_3(self, workspace, capsys, array_key, edit):
        prep = gen_and_prep(workspace, resample="wl", prep_name="prep_wl")
        kind, meta, arrays = read_container(prep / "prepared.tbh")
        arrays[array_key] = edit(arrays.get(array_key))
        bad = workspace / "bad.tbh"
        write_container(bad, kind, meta, arrays)
        code = run(["train", "--data", bad, "--model", "hmm", "--out", workspace / "t",
                    "--config", workspace / "tiny.cfg"])
        assert code == 3
        err = capsys.readouterr().err
        assert repr(array_key) in err and "Traceback" not in err
        assert not (workspace / "t").exists()

    def test_weighted_dataset_without_weights_exit_3(self, workspace, capsys):
        prep = gen_and_prep(workspace, resample="wl", prep_name="prep_wl")
        bad = workspace / "bad.tbh"
        _drop_and_rewrite(prep / "prepared.tbh", bad, array_key="loss_weights")
        code = run(["train", "--data", bad, "--model", "lstm", "--out", workspace / "t",
                    "--config", workspace / "tiny.cfg"])
        assert code == 3
        assert "'loss_weights'" in capsys.readouterr().err

    @pytest.mark.parametrize("model_kind", ["fusion", "lstm", "conv1d", "hmm"])
    def test_coordinate_too_large_to_train_exit_3(self, workspace, capsys, model_kind):
        """1e300 is a finite float64, so the dump holds it; it is inf in float32."""
        prep = gen_and_prep(workspace)
        kind, meta, arrays = read_container(prep / "prepared.tbh")
        arrays["train_states"][2, 1, 0] = 1e300
        bad = workspace / "big.tbh"
        write_container(bad, kind, meta, arrays)
        code = run(["train", "--data", bad, "--model", model_kind, "--out", workspace / "t",
                    "--config", workspace / "tiny.cfg"])
        assert code == 3
        err = capsys.readouterr().err
        assert "training window 2 " in err and "not finite in float32" in err
        assert "Traceback" not in err
        assert not (workspace / "t").exists()

    @pytest.mark.parametrize("model_kind", ["conv1d", "hmm"])
    def test_coordinate_too_large_to_score_exit_3(self, workspace, capsys, model_kind):
        """1e300 is finite, so prep keeps it; no model can score its windows."""
        clean = gen_and_prep(workspace)
        test = load_prepared(clean / "prepared.tbh").split.test
        agent, frame = test.agents[test.agent_idx[0]], str(test.end_frame[0])
        rows = (workspace / "gen" / "trajectories.csv").read_text().splitlines()
        edited = [r.split(",") for r in rows]
        for r in edited:
            if r[0] == agent and r[2] == frame:
                r[3] = "1e300"
        big = workspace / "big.csv"
        big.write_text("".join(",".join(r) + "\r\n" for r in edited))
        prep = workspace / "prep_big"
        assert run(["prep", "--data", big, "--labels", workspace / "gen" / "labels.csv",
                    "--kind", "vehicle", "--out", prep, "--seed", 3,
                    "--min-class-count", 20]) == 0
        assert (load_prepared(prep / "prepared.tbh").split.test.states[0] == 1e300).any()
        ckpt = workspace / "m.ckpt"
        names = ["SA", "USD", "S"]
        if model_kind == "hmm":
            k = 3
            model = GaussianHMM(np.full(k, 1 / k), np.full((k, k), 1 / k),
                                np.zeros((k, 4)), np.ones((k, 4)))
            save_checkpoint(HMMClassifier([model] * 3, names), names, ckpt)
        else:
            save_checkpoint(build_model(model_kind, 3, seed=0), names, ckpt)
        code = run(["eval", "--checkpoint", ckpt, "--data", prep, "--out", workspace / "ev"])
        assert code == 3
        err = capsys.readouterr().err
        assert ("NaN class score" if model_kind == "hmm" else "non-finite float32") in err
        assert not (workspace / "ev").exists()

    def test_unscoreable_window_past_the_first_chunk_exit_3_naming_it(self, workspace, capsys):
        """Inference runs in 256-window chunks; the error names the window's
        index in the test set (300), not in its chunk (44)."""
        prep = gen_and_prep(workspace)
        kind, meta, arrays = read_container(prep / "prepared.tbh")
        n = arrays["test_labels"].shape[0]
        tile = np.arange(600) % n
        for key in ("test_states", "test_labels", "test_agents", "test_frames"):
            arrays[key] = arrays[key][tile]
        arrays["test_states"][300, 1, 0] = 1e300   # finite in float64, inf in float32
        big = workspace / "big.tbh"
        write_container(big, kind, meta, arrays)
        ckpt = workspace / "m.ckpt"
        save_checkpoint(build_model("conv1d", 3, seed=0), ["SA", "USD", "S"], ckpt)
        code = run(["eval", "--checkpoint", ckpt, "--data", big, "--out", workspace / "ev"])
        assert code == 3
        err = capsys.readouterr().err
        assert "row 300 of the batch has non-finite float32" in err and "Traceback" not in err
        assert not (workspace / "ev").exists()

    def test_checkpoint_class_names_not_a_list_exit_3(self, workspace, capsys):
        prep = gen_and_prep(workspace)
        good, bad = workspace / "good.ckpt", workspace / "bad.ckpt"
        save_checkpoint(build_model("lstm", 3, seed=0), ["SA", "USD", "S"], good)
        kind, meta, arrays = read_container(good)
        write_container(bad, kind, {**meta, "class_names": 5}, arrays)
        code = run(["eval", "--checkpoint", bad, "--data", prep, "--out", workspace / "ev"])
        assert code == 3
        err = capsys.readouterr().err
        assert "'class_names' is 5, not a list" in err and "Traceback" not in err
        assert not (workspace / "ev").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("class_names", 5, "'class_names' is 5, not a list"),
        ("agents", 3, "'agents' is 3, not a list"),
        ("class_names", [1, 2], "'class_names'[0] is 1, not a string"),
    ], ids=["class-names-int", "agents-int", "class-names-ints"])
    def test_dataset_name_list_not_strings_exit_3(self, workspace, capsys, key, value,
                                                  message):
        prep = gen_and_prep(workspace)
        kind, meta, arrays = read_container(prep / "prepared.tbh")
        bad = workspace / "bad.tbh"
        write_container(bad, kind, {**meta, key: value}, arrays)
        code = run(["train", "--data", bad, "--model", "lstm", "--out", workspace / "t",
                    "--config", workspace / "tiny.cfg"])
        assert code == 3
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (workspace / "t").exists()

    def test_checkpoint_unknown_model_kind_exit_3(self, workspace, capsys):
        prep = gen_and_prep(workspace)
        good, bad = workspace / "good.ckpt", workspace / "bad.ckpt"
        save_checkpoint(build_model("lstm", 3, seed=0), ["SA", "USD", "S"], good)
        kind, meta, arrays = read_container(good)
        write_container(bad, kind, {**meta, "model_kind": "transformer"}, arrays)
        code = run(["eval", "--checkpoint", bad, "--data", prep, "--out", workspace / "ev"])
        assert code == 3
        assert "'transformer'" in capsys.readouterr().err

    def test_checkpoint_unknown_precision_exit_3(self, workspace, capsys):
        prep = gen_and_prep(workspace)
        good, bad = workspace / "good.ckpt", workspace / "bad.ckpt"
        save_checkpoint(build_model("lstm", 3, seed=0), ["SA", "USD", "S"], good)
        kind, meta, arrays = read_container(good)
        write_container(bad, kind, {**meta, "precision": "half"}, arrays)
        code = run(["eval", "--checkpoint", bad, "--data", prep, "--out", workspace / "ev"])
        assert code == 3
        err = capsys.readouterr().err
        assert "'half'" in err and "Traceback" not in err

    def test_checkpoint_float64_precision_exit_3(self, workspace, capsys):
        """A float64 ("verify") checkpoint, as the gradient check's models
        would store, is refused for its precision, not loaded."""
        prep = gen_and_prep(workspace)
        good, bad = workspace / "good.ckpt", workspace / "bad.ckpt"
        save_checkpoint(build_model("lstm", 3, seed=0), ["SA", "USD", "S"], good)
        kind, meta, arrays = read_container(good)
        write_container(bad, kind, {**meta, "precision": "verify"},
                        {name: a.astype(np.float64) for name, a in arrays.items()})
        code = run(["eval", "--checkpoint", bad, "--data", prep, "--out", workspace / "ev"])
        assert code == 3
        err = capsys.readouterr().err
        assert "unknown precision 'verify'" in err and "Traceback" not in err
        assert not (workspace / "ev").exists()

    @pytest.mark.parametrize("edit, key", [
        (lambda c: {**c, "dropout": 0.1}, "dropout"),
        (lambda c: {**c, "lstm_hidden": "64"}, "lstm_hidden"),
        (lambda c: {**c, "num_classes": 4}, "num_classes"),
    ], ids=["extra-key", "string-hidden", "num-classes-4"])
    def test_checkpoint_config_mismatch_exit_3(self, workspace, capsys, edit, key):
        prep = gen_and_prep(workspace)
        good, bad = workspace / "good.ckpt", workspace / "bad.ckpt"
        save_checkpoint(build_model("fusion", 3, seed=0), ["SA", "USD", "S"], good)
        kind, meta, arrays = read_container(good)
        write_container(bad, kind, {**meta, "config": edit(meta["config"])}, arrays)
        code = run(["eval", "--checkpoint", bad, "--data", prep, "--out", workspace / "ev"])
        assert code == 3
        err = capsys.readouterr().err
        assert f"architecture at ['{key}']" in err and "Traceback" not in err
        assert not (workspace / "ev").exists()

    @pytest.mark.parametrize("tensor, shape", [
        ("means", (3, 2)), ("variances", (3, 5)), ("transitions", (3, 2)),
        ("initial", (4,)),
    ])
    def test_hmm_checkpoint_bad_tensor_shape_exit_3(self, workspace, capsys, tensor, shape):
        prep = gen_and_prep(workspace)
        good, bad = workspace / "good.ckpt", workspace / "bad.ckpt"
        k = 3
        model = GaussianHMM(np.full(k, 1 / k), np.full((k, k), 1 / k),
                            np.zeros((k, 4)), np.ones((k, 4)))
        save_checkpoint(HMMClassifier([model] * 3, ["SA", "USD", "S"]), ["SA", "USD", "S"], good)
        kind, meta, arrays = read_container(good)
        arrays[f"class1.{tensor}"] = np.zeros(shape)
        write_container(bad, kind, meta, arrays)
        code = run(["eval", "--checkpoint", bad, "--data", prep, "--out", workspace / "ev"])
        assert code == 3
        err = capsys.readouterr().err
        assert f"class1.{tensor}" in err and "Traceback" not in err
        assert not (workspace / "ev").exists()

    @pytest.mark.parametrize("key, edit, message", [
        ("class0.variances", lambda a: -a, "tensor 'class0.variances' has variances <= 0"),
        ("class2.means", lambda a: np.where(np.eye(3, 4) > 0, np.nan, a),
         "tensor 'class2.means' has non-finite values"),
        ("class1.variances", lambda a: a.astype(np.int64),
         "tensor 'class1.variances' stored as int64, not float64"),
        ("n_states", lambda k: 0, "checkpoint 'n_states' is 0, not an int >= 1"),
        ("class_names", lambda names: names[:2],
         "unexpected ['class2.initial', 'class2.means', 'class2.transitions', "
         "'class2.variances']"),
        ("class_names", lambda names: ["USD"], "num_classes must be >= 2, got 1"),
    ], ids=["negated-variances", "nan-means", "int64-variances", "n-states-0",
            "two-of-three-classes", "one-class"])
    def test_hmm_checkpoint_bad_values_exit_3(self, workspace, capsys, key, edit, message):
        prep = gen_and_prep(workspace)
        good, bad = workspace / "good.ckpt", workspace / "bad.ckpt"
        k = 3
        model = GaussianHMM(np.full(k, 1 / k), np.full((k, k), 1 / k),
                            np.zeros((k, 4)), np.ones((k, 4)))
        save_checkpoint(HMMClassifier([model] * 3, ["SA", "USD", "S"]), ["SA", "USD", "S"], good)
        kind, meta, arrays = read_container(good)
        edited = meta if key in meta else arrays
        edited[key] = edit(edited[key])
        write_container(bad, kind, meta, arrays)
        code = run(["eval", "--checkpoint", bad, "--data", prep, "--out", workspace / "ev"])
        assert code == 3
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (workspace / "ev").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("seed", "abc", "dataset 'seed' is 'abc', not an int >= 0"),
        ("seed", [1], "dataset 'seed' is [1], not an int >= 0"),
        ("seed", -3, "dataset 'seed' is -3, not an int >= 0"),
        ("seed", True, "dataset 'seed' is True, not an int >= 0"),
        ("seed", 2.0, "dataset 'seed' is 2.0, not an int >= 0"),
        ("config", 5, "dataset 'config' is 5, not a JSON object"),
        ("config", ["resample"], "dataset 'config' is ['resample'], not a JSON object"),
    ], ids=["seed-str", "seed-list", "seed-negative", "seed-bool", "seed-float",
            "config-int", "config-list"])
    def test_dataset_bad_seed_or_config_exit_3(self, workspace, capsys, key, value, message):
        prep = gen_and_prep(workspace)
        kind, meta, arrays = read_container(prep / "prepared.tbh")
        bad = workspace / "bad.tbh"
        write_container(bad, kind, {**meta, key: value}, arrays)
        code = run(["train", "--data", bad, "--model", "hmm", "--out", workspace / "t",
                    "--config", workspace / "tiny.cfg"])
        assert code == 3
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (workspace / "t").exists()

    def test_container_header_without_arrays_exit_3(self, workspace, capsys):
        prep = gen_and_prep(workspace)
        bad = workspace / "bad.ckpt"
        bad.write_bytes(checksummed({"kind": "model", "meta": {}}))
        code = run(["eval", "--checkpoint", bad, "--data", prep, "--out", workspace / "ev"])
        assert code == 3
        err = capsys.readouterr().err
        assert "'arrays'" in err and "Traceback" not in err


class TestAblate:
    def test_grid_rows_and_config_audit(self, workspace):
        prep = gen_and_prep(workspace)
        out = workspace / "abl"
        assert run(["ablate", "--data", prep, "--out", out, "--seeds", "0,1",
                    "--config", workspace / "tiny.cfg"]) == 0
        for f in ("ablation_seed0.txt", "ablation_seed1.txt", "ablation_mean.txt"):
            lines = (out / f).read_text().splitlines()
            assert len(lines) == 5  # header + 4 grid cells
            names = [l.split("\t")[0] for l in lines[1:]]
            assert names == ["Bi-LSTM", "Bi-LSTM+MSCNN", "ROS+Bi-LSTM",
                             "ROS+Bi-LSTM+MSCNN"]

    @pytest.mark.parametrize("config", ["tiny.cfg", None])
    def test_manifest_records_the_training_config(self, workspace, monkeypatch, config):
        prep = gen_and_prep(workspace)
        class_names = load_prepared(prep / "prepared.tbh").split.class_names
        labels = np.arange(len(class_names))
        bases = []

        def no_training(dataset, seeds, base):
            bases.append(base)
            rep = report(labels, labels, class_names)
            return {name: dict.fromkeys(seeds, rep) for name, _, _ in cli.ABLATION_CELLS}

        monkeypatch.setattr(cli, "run_ablation", no_training)
        out = workspace / "abl"
        assert run(["ablate", "--data", prep, "--out", out, "--seeds", "4,5"]
                   + (["--config", workspace / config] if config else [])) == 0
        params = json.loads((out / "manifest.json").read_text())["params"]
        ran = (TrainConfig(epochs=3, batch_size=64, lr_switch_epoch=2, hmm_max_iters=10)
               if config else TrainConfig())
        assert [dataclasses.replace(b, seed=0) for b in bases] == [ran]
        assert params == {"epochs": ran.epochs, "batch_size": ran.batch_size,
                          "lr_switch_epoch": ran.lr_switch_epoch,
                          "hmm_max_iters": ran.hmm_max_iters, "seeds": [4, 5],
                          "majority_class": params["majority_class"]}

    def test_non_integer_seed_exit_2(self, workspace, capsys):
        prep = gen_and_prep(workspace)
        code = run(["ablate", "--data", prep, "--out", workspace / "abl",
                    "--seeds", "a,b", "--config", workspace / "tiny.cfg"])
        assert code == 2
        err = capsys.readouterr().err
        assert "'a'" in err and "Traceback" not in err
        assert not (workspace / "abl").exists()

    def test_repeated_seed_exit_2_before_training(self, workspace, capsys, monkeypatch):
        prep = gen_and_prep(workspace)

        def no_training(*args, **kwargs):
            raise AssertionError("ablate trained before rejecting the seeds")

        monkeypatch.setattr(cli, "run_ablation", no_training)
        capsys.readouterr()
        code = run(["ablate", "--data", prep, "--out", workspace / "abl",
                    "--seeds", "0,0,1", "--config", workspace / "tiny.cfg"])
        assert code == 2
        err = capsys.readouterr().err
        assert "seed 0 is given more than once" in err and "Traceback" not in err
        assert not (workspace / "abl").exists()

    def test_negative_seed_exit_2_before_training(self, workspace, capsys, monkeypatch):
        prep = gen_and_prep(workspace)
        calls = []

        def train_spy(*args, **kwargs):
            calls.append(args)
            raise AssertionError("ablate trained before rejecting the seeds")

        monkeypatch.setattr(cli, "train", train_spy)
        capsys.readouterr()
        code = run(["ablate", "--data", prep, "--out", workspace / "abl",
                    "--seeds", "0,-1", "--config", workspace / "tiny.cfg"])
        assert code == 2 and calls == []
        err = capsys.readouterr().err
        assert "seed must be >= 0, got -1" in err and "Traceback" not in err
        assert not (workspace / "abl").exists()

    def test_resampled_dataset_rejected(self, workspace):
        prep = gen_and_prep(workspace, resample="ros", prep_name="prep_r")
        code = run(["ablate", "--data", prep, "--out", workspace / "abl2",
                    "--seeds", "0", "--config", workspace / "tiny.cfg"])
        assert code == 2


    # Twelve per-seed values whose mean prints as 0.123457 when summed
    # pairwise (np.mean of the column) but as 0.123456 when the seeds are
    # added one after another.
    PAIRWISE_SENSITIVE = [
        0.12559108123501284, 0.14752318481629678, 0.10720798063598169,
        0.1474324723568622, 0.11559157260052427, 0.1211663224486288,
        0.1413851296910221, 0.12045995681845807, 0.12747968438365298,
        0.10137795566215342, 0.13767565543374033, 0.08858700391766638,
    ]

    def test_tables_byte_identical_to_per_column_means(self, workspace, monkeypatch):
        """Each seed table lists that seed's metrics, and the mean table is
        np.mean over each cell's per-seed column, byte for byte."""
        col = self.PAIRWISE_SENSITIVE
        assert f"{np.mean(col):.6f}" != f"{sum(col) / len(col):.6f}"
        prep = gen_and_prep(workspace)
        class_names = load_prepared(prep / "prepared.tbh").split.class_names
        seeds = list(range(len(col)))
        gen = np.random.default_rng(5)
        labels = gen.integers(0, len(class_names), size=97)
        results = {name: {s: report(np.where(gen.random(97) < 0.7, labels,
                                             gen.integers(0, len(class_names), size=97)),
                                    labels, class_names) for s in seeds}
                   for name, _, _ in cli.ABLATION_CELLS}
        first = results["Bi-LSTM"]
        for s, value in zip(seeds, col):
            first[s] = dataclasses.replace(first[s], balanced_accuracy=value)
        monkeypatch.setattr(cli, "run_ablation", lambda *args, **kwargs: results)
        out = workspace / "abl"
        assert run(["ablate", "--data", prep, "--out", out,
                    "--seeds", ",".join(map(str, seeds))]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        majority = class_names.index(manifest["params"]["majority_class"])

        def columns(rep):
            minority = [c["recall"] for i, c in enumerate(rep.per_class) if i != majority]
            return (rep.balanced_accuracy, rep.macro_f1, rep.macro_recall,
                    float(np.mean(minority)))

        def table(rows):
            lines = ["model\tbalanced_accuracy\tf1_score\trecall\tminority_recall"]
            lines += ["\t".join([name] + [f"{v:.6f}" for v in vals]) for name, vals in rows]
            return "\n".join(lines) + "\n"

        for s in seeds:
            expect = table((name, columns(cell[s])) for name, cell in results.items())
            assert (out / f"ablation_seed{s}.txt").read_text() == expect
        means = [(name, [float(np.mean(c)) for c in zip(*(columns(cell[s]) for s in seeds))])
                 for name, cell in results.items()]
        assert (out / "ablation_mean.txt").read_text() == table(means)


def _argv_into(ws, command, out):
    """argv of one successful `command` run into `out`, its inputs made first."""
    if command == "gen":
        return ["gen", "--spec", ws / "spec.txt", "--out", out]
    prep = gen_and_prep(ws)
    if command == "prep":
        return ["prep", "--data", ws / "gen" / "trajectories.csv", "--labels",
                ws / "gen" / "labels.csv", "--min-class-count", 20, "--out", out]
    tiny = ["--config", ws / "tiny.cfg", "--out", out]
    if command.startswith("train-"):
        return ["train", "--data", prep, "--model", command[len("train-"):]] + tiny
    if command == "eval":
        # two checkpoints, so that comparison.txt is written too
        ckpts = [ws / d / "model.ckpt" for d in ("m1", "m2")]
        for ckpt in ckpts:
            assert run(["train", "--data", prep, "--model", "conv1d",
                        "--config", ws / "tiny.cfg", "--out", ckpt.parent]) == 0
        return ["eval", "--checkpoint", ckpts[0], "--checkpoint", ckpts[1],
                "--data", prep, "--out", out]
    return ["ablate", "--data", prep, "--seeds", "0"] + tiny


def _temp_entries(parent):
    return [p.name for p in parent.iterdir() if ".tmp-" in p.name]


class TestOutputDir:
    """Every writing command goes through `cli.output_dir`: its manifest lists
    exactly the files beside it, and a failure leaves neither `--out` nor a
    temp directory behind."""

    @pytest.mark.parametrize("command", ["gen", "prep", "train-fusion", "train-hmm",
                                         "eval", "ablate"])
    def test_manifest_lists_the_outputs_and_no_temp_dir_is_left(self, workspace,
                                                                monkeypatch, command):
        out = workspace / "out"
        argv = _argv_into(workspace, command, out)
        assert run(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        files = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
        assert set(manifest["outputs"]) | set(manifest["outputs_unhashed"]) == \
            files - {"manifest.json"}
        assert not _temp_entries(workspace)

        def planted(*args, **kwargs):
            raise ConfigError("planted")

        shutil.rmtree(out)
        monkeypatch.setattr(cli, "write_manifest", planted)
        assert run(argv) == 2
        assert not out.exists() and not _temp_entries(workspace)

    def test_every_manifest_digest_is_the_sha256_of_the_file(self, workspace):
        """Whether the manifest hashed a file itself or took the digest its
        writer returned (prep's prepared.tbh), each `outputs` and `inputs`
        entry is the sha256 of the file's bytes."""
        ws = workspace
        prep = gen_and_prep(ws)
        tiny = ["--config", ws / "tiny.cfg"]
        assert run(["train", "--data", prep, "--model", "conv1d", *tiny,
                    "--out", ws / "train"]) == 0
        assert run(["eval", "--checkpoint", ws / "train" / "model.ckpt", "--data", prep,
                    "--out", ws / "eval"]) == 0
        assert run(["ablate", "--data", prep, "--seeds", "0", *tiny, "--out", ws / "ablate"]) == 0
        for command in ("gen", "prep", "train", "eval", "ablate"):
            manifest = json.loads((ws / command / "manifest.json").read_text())
            assert manifest["command"] == command and manifest["inputs"]
            files = {ws / command / rel: digest for rel, digest in manifest["outputs"].items()}
            files.update((Path(p), digest) for p, digest in manifest["inputs"].items())
            for path, digest in files.items():
                assert digest == hashlib.sha256(path.read_bytes()).hexdigest(), path
        assert "prepared.tbh" in json.loads((prep / "manifest.json").read_text())["outputs"]

    def test_a_name_as_long_as_the_file_system_allows(self, workspace):
        """The temp directory beside `out` needs a name longer than `out`'s."""
        out = workspace / ("o" * os.pathconf(workspace, "PC_NAME_MAX"))
        assert run(["gen", "--spec", workspace / "spec.txt", "--out", out]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "labels.csv", "manifest.json", "trajectories.csv"]
        assert not _temp_entries(workspace)

    @pytest.mark.parametrize("step", ["mkdir", "rename"])
    def test_temp_dir_or_rename_failure_exit_2(self, workspace, capsys, monkeypatch, step):
        def refuse(*args, **kwargs):
            raise OSError(errno.EXDEV, os.strerror(errno.EXDEV))

        if step == "rename":
            monkeypatch.setattr(cli.os, "replace", refuse)
        else:
            mkdir = Path.mkdir

            def mkdir_but_temp(path, *args, **kwargs):
                if ".tmp-" in path.name:
                    refuse()
                return mkdir(path, *args, **kwargs)

            monkeypatch.setattr(Path, "mkdir", mkdir_but_temp)
        out = workspace / "out"
        assert run(["gen", "--spec", workspace / "spec.txt", "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"cannot use {out} as an output directory ({os.strerror(errno.EXDEV)})" in err
        assert "Traceback" not in err
        assert not out.exists() and not _temp_entries(workspace)


class TestUnreadableInputs:
    """An input path that is missing, a directory, not UTF-8 text, or not a
    regular file (a device, a FIFO) exits with its error class's code and a
    message naming the path."""

    @pytest.mark.parametrize("option, problem, code", [
        (option, problem, code)
        for option, code in [("gen --spec", 2), ("train --config", 2),
                             ("ablate --config", 2), ("prep --data", 3),
                             ("prep --labels", 3), ("eval --checkpoint", 3),
                             ("train --data", 3)]
        for problem in ("missing", "directory", "not-utf8", "device", "fifo")
        # a container is binary, and a `--data` directory is read as the
        # one holding prepared.tbh
        if (option, problem) not in {("eval --checkpoint", "not-utf8"),
                                     ("train --data", "directory"),
                                     ("train --data", "not-utf8")}
    ])
    def test_exit_code_names_path(self, workspace, capsys, option, problem, code):
        bad = workspace / "bad_input"
        if problem == "directory":
            bad.mkdir()
        elif problem == "not-utf8":
            bad.write_bytes(b"agent_id,kind,frame\xff\xfe\n")
        elif problem == "device":
            bad = Path(os.devnull)
        elif problem == "fifo":
            os.mkfifo(bad)
        if option == "gen --spec":
            argv = ["gen", "--spec", bad]
        else:
            prep = gen_and_prep(workspace)
            trajectories = workspace / "gen" / "trajectories.csv"
            argv = {
                "train --config": ["train", "--data", prep, "--model", "lstm",
                                   "--config", bad],
                "ablate --config": ["ablate", "--data", prep, "--config", bad],
                "prep --data": ["prep", "--data", bad, "--kind", "vehicle"],
                "prep --labels": ["prep", "--data", trajectories, "--labels", bad],
                "eval --checkpoint": ["eval", "--checkpoint", bad, "--data", prep],
                "train --data": ["train", "--data", bad, "--model", "lstm"],
            }[option]
        out = workspace / "out"
        if problem == "fifo":
            # opening a FIFO with no writer blocks: a child process, so that
            # a regression fails on the timeout instead of hanging the run
            returncode, err = run_in_child(argv + ["--out", out], timeout=60)
            assert returncode == code
        else:
            capsys.readouterr()
            assert run(argv + ["--out", out]) == code
            err = capsys.readouterr().err
        assert f"error: {bad}: " in err and "Traceback" not in err
        if problem in ("device", "fifo"):
            assert f"error: {bad}: not a regular file" in err
        assert not out.exists()

    def test_stdin_redirected_from_a_regular_file_is_read(self, workspace):
        ref = gen_and_prep(workspace)
        out = workspace / "prep_stdin"
        argv = ["prep", "--data", "/dev/stdin", "--labels", workspace / "gen" / "labels.csv",
                "--kind", "vehicle", "--out", out, "--seed", 3, "--min-class-count", 20]
        with open(workspace / "gen" / "trajectories.csv", "rb") as stdin:
            returncode, err = run_in_child(argv, timeout=120, stdin=stdin)
        assert returncode == 0, err
        assert ((out / "prepared.tbh").read_bytes()
                == (ref / "prepared.tbh").read_bytes())


class TestSeedAndSampleBounds:
    """A negative seed, or a gradient check of no samples, exits 2 with a
    message and writes no output directory."""

    @pytest.mark.parametrize("command", ["gen", "prep", "train", "ablate"])
    def test_negative_seed_exit_2(self, workspace, capsys, command):
        if command == "gen":
            spec = workspace / "neg.txt"
            spec.write_text(GEN_SPEC.replace("seed = 7", "seed = -1"))
            argv = ["gen", "--spec", spec]
        else:
            prep = gen_and_prep(workspace)
            argv = {
                "prep": ["prep", "--data", workspace / "gen" / "trajectories.csv",
                         "--kind", "vehicle", "--seed", -1],
                "train": ["train", "--data", prep, "--model", "lstm",
                          "--config", workspace / "tiny.cfg", "--seed", -1],
                "ablate": ["ablate", "--data", prep, "--config", workspace / "tiny.cfg",
                           "--seeds=-1"],
            }[command]
        out = workspace / "neg_out"
        capsys.readouterr()
        assert run(argv + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert "seed must be >= 0, got -1" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("option, value, message", [
        ("--seed", "-1", "seed must be >= 0, got -1"),
        ("--samples", "-2", "samples must be >= 1, got -2"),
        ("--samples", "0", "samples must be >= 1, got 0"),
    ])
    def test_gradcheck_bounds_exit_2(self, capsys, option, value, message):
        assert run(["gradcheck", option, value]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and "Traceback" not in captured.err
        assert "max_relative_error" not in captured.out


class TestSettableValues:
    """Every setting is pinned here, so adding one is a deliberate change."""

    def test_train_config_fields_and_adam_signature(self):
        assert [f.name for f in dataclasses.fields(TrainConfig)] == [
            "epochs", "batch_size", "lr_switch_epoch", "seed", "hmm_max_iters"]
        assert list(inspect.signature(Adam).parameters) == ["params", "lr"]

    def test_library_signatures_and_spec_fields(self):
        """Values no caller varies (the HMM's states and tolerance, the
        inference chunk, the finite-difference step, the gradient check's
        classes, the frame period) are module constants, not parameters."""
        signatures = {fn.__name__: str(inspect.signature(fn)) for fn in (
            fit_classifier, baum_welch_fit, predict_batch, grad_check,
            cli.run_gradcheck, cli.run_ablation, build_model)}
        assert signatures == {
            "fit_classifier": "(states, labels, class_names, max_iters, seed)",
            "baum_welch_fit": "(sequences, max_iters, seed, n_states=7)",
            "predict_batch": "(model, states)",
            "grad_check": "(forward, params, max_elements=200, seed=0)",
            "run_gradcheck": "(seed, num_samples)",
            "run_ablation": "(dataset, seeds, base_config)",
            "build_model": "(kind, num_classes, seed=0, dtype=<class 'numpy.float32'>, "
                           "use_mscnn=True)",
        }
        assert [f.name for f in dataclasses.fields(SynthSpec)] == [
            "counts", "length", "noise", "seed"]
        assert [f.name for f in dataclasses.fields(Checkpoint)] == [
            "model", "class_names", "normalization"]

    def test_subcommand_options(self):
        (subparsers,) = [a for a in cli.build_parser()._actions
                         if a.dest == "command"]
        options = {name: sorted(o for a in p._actions for o in a.option_strings
                                if o not in ("-h", "--help"))
                   for name, p in subparsers.choices.items()}
        assert options == {
            "gen": ["--out", "--spec"],
            "prep": ["--data", "--degrees", "--kind", "--labels", "--min-class-count",
                     "--normalize", "--out", "--ratio", "--resample", "--seed"],
            "train": ["--config", "--data", "--model", "--out", "--seed"],
            "eval": ["--checkpoint", "--data", "--out"],
            "ablate": ["--config", "--data", "--out", "--seeds"],
            "gradcheck": ["--samples", "--seed"],
        }

    @pytest.mark.parametrize("argv", [
        ["train", "--data", "d", "--model", "lstm", "--out", "o", "--precision", "fast"],
        ["prep", "--data", "t.csv", "--out", "o", "--min-len", "7"],
        ["gen", "--spec", "s.txt", "--out", "o", "--seed", "1"],
    ], ids=["train-precision", "prep-min-len", "gen-seed"])
    def test_removed_option_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_reports_all_models_below_threshold(self, capsys):
        code = run(["gradcheck", "--seed", "0", "--samples", "2"])
        assert code == 0
        out = capsys.readouterr().out
        for kind in ("fusion", "lstm", "conv1d"):
            line = [l for l in out.splitlines() if l.startswith(kind)][0]
            assert float(line.split("\t")[2]) < 1e-5


class TestSVGStructure:
    def _eval_dir(self, workspace):
        prep = gen_and_prep(workspace)
        assert run(["train", "--data", prep, "--model", "hmm",
                    "--out", workspace / "m",
                    "--config", workspace / "tiny.cfg"]) == 0
        out = workspace / "ev_svg"
        assert run(["eval", "--checkpoint", workspace / "m" / "model.ckpt",
                    "--data", prep, "--out", out]) == 0
        return out

    def test_heatmap_cells_match_confusion(self, workspace):
        out = self._eval_dir(workspace)
        rep = json.loads((out / "report_hmm.json").read_text())
        counts = np.array(rep["confusion_counts"], dtype=float)
        rows = counts.sum(axis=1, keepdims=True)
        norm = np.where(rows > 0, counts / rows, 0.0)
        tree = ET.parse(out / "confusion_hmm.svg")
        ns = "{http://www.w3.org/2000/svg}"
        cells = [e for e in tree.iter(f"{ns}rect") if e.get("class") == "cell"]
        assert len(cells) == counts.size
        for cell in cells:
            i, j = int(cell.get("data-row")), int(cell.get("data-col"))
            assert abs(float(cell.get("data-value")) - norm[i, j]) < 1e-6

    def test_bar_chart_values_match_recalls(self, workspace):
        out = self._eval_dir(workspace)
        rep = json.loads((out / "report_hmm.json").read_text())
        recalls = {c["name"]: c["recall"] for c in rep["per_class"]}
        tree = ET.parse(out / "per_class_hmm.svg")
        ns = "{http://www.w3.org/2000/svg}"
        bars = [e for e in tree.iter(f"{ns}rect") if e.get("class") == "bar"]
        assert len(bars) == len(recalls)
        for bar in bars:
            assert abs(float(bar.get("data-value"))
                       - recalls[bar.get("data-class")]) < 1e-6
