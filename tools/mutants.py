"""A standing sweep of code mutants: each entry makes one exact edit to a
`src/` file, and the tests it names must then fail.

    python tools/mutants.py [NAME ...]

The sweep copies `src/`, `tests/` and `pyproject.toml` of this checkout
into one temporary directory and first runs every named test there
unmutated: if one fails, it prints a `baseline` error line and stops.
Then, for each mutant (every one, or those named), it writes the mutated
file, runs `python -m pytest -x -q` on the entry's tests, puts the file
back, and prints one JSON line:

    {"name": ..., "status": "killed", "seconds": 3.1}

`killed` means pytest reported a failing test, `survived` that every named
test passed, and `error` that pytest could not run them (exit code 2-5, such
as a stale node id); the line then carries pytest's `exit_code`. The exit
status is 0 when every mutant was killed, else 1. A survivor stays on the
list: it marks a missing test. Standard library only; the tests need the
same packages as the test suite. Every pytest run uses Hypothesis seed 0,
so a sweep of the same tree gives the same lines but for the seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    file: str          # relative to the checkout's root
    old: str           # occurs exactly once in `file`
    new: str
    tests: tuple       # test files or node ids, relative to the root
    why: str


CLI, AD, DATA, HMM = (f"src/trajbehav/{m}.py" for m in ("cli", "autodiff", "data", "hmm"))
CONTAINER, MODELS, OPTIM = (f"src/trajbehav/{m}.py" for m in ("container", "models", "optim"))
CHECKPOINT, SYNTH = "src/trajbehav/checkpoint.py", "src/trajbehav/synth.py"

OUTPUT_DIR = "tests/test_cli.py::TestOutputDir"
CONCURRENT = "tests/test_autodiff.py::TestConcurrentDirections"
LSTM = "tests/test_autodiff.py::TestLSTMCell"
WORKSPACE = "tests/test_autodiff.py::TestWorkspace"
CSV_REFERENCE = "tests/test_data.py::TestTrajectoryCSVAgainstReference"
WRAP = "tests/test_data.py::TestPipelineProperties::test_wrap_angles_matches_the_scalar_reference"

MUTANTS = [
    # the CLI output protocol
    Mutant("manifest_after_rename", CLI,
           "        write_manifest(tmp, command, argv, params, inputs, unhashed)\n"
           "        try:\n"
           "            os.replace(tmp, out)\n"
           "        except OSError as exc:\n"
           "            raise unusable(exc) from exc\n",
           "        try:\n"
           "            os.replace(tmp, out)\n"
           "        except OSError as exc:\n"
           "            raise unusable(exc) from exc\n"
           "        write_manifest(out, command, argv, params, inputs, unhashed)\n",
           (OUTPUT_DIR,),
           "a manifest that fails after the rename leaves a partial `--out`"),
    Mutant("em_log_hashed", CLI,
           'unhashed=("train_log.txt", "hmm_em.jsonl")', 'unhashed=("train_log.txt",)',
           ("tests/test_cli.py::TestTrainEvalCommands::test_hmm_em_log_per_class",),
           "every train manifest lists hmm_em.jsonl as unhashed, beside train_log.txt"),
    Mutant("rename_error_unmapped", CLI,
           "        try:\n"
           "            os.replace(tmp, out)\n"
           "        except OSError as exc:\n"
           "            raise unusable(exc) from exc\n",
           "        os.replace(tmp, out)\n",
           (f"{OUTPUT_DIR}::test_temp_dir_or_rename_failure_exit_2",),
           "a failed rename must exit 2 with a message, not raise a traceback"),
    Mutant("temp_name_untruncated", CLI,
           'f".{out.name[:60]}.tmp-{os.getpid()}"', 'f".{out.name}.tmp-{os.getpid()}"',
           (f"{OUTPUT_DIR}::test_a_name_as_long_as_the_file_system_allows",),
           "an `--out` name near NAME_MAX leaves no room for the temp suffix"),
    Mutant("parse_kv_last_value_wins", CLI,
           "            if key in where:\n", "            if key in ():\n",
           ("tests/test_cli.py::TestGen::test_repeated_spec_key_exit_2",),
           "a repeated config key silently overrode the first (epochs = 3, then 5)"),
    Mutant("label_map_value_error_escapes", DATA,
           "                idx = int(row[0])\n            except ValueError as exc:",
           "                idx = int(row[0])\n            except TypeError as exc:",
           ("tests/test_text_input_mutations.py::test_every_label_map_mutation_fails_with_a_message",),
           "a non-integer label index must exit 3, not raise a traceback"),
    Mutant("gen_float32_check_dropped", SYNTH,
           "        if not finite.all():\n", "        if False:\n",
           ("tests/test_cli.py::TestGen::test_noise_past_float32_range_exit_2",),
           "a huge noise wrote coordinates the float32 models cannot train on"),

    # `_alongside`, the worker thread of both passes of a two-direction LSTM
    Mutant("alongside_no_join", AD,
           "        worker.join()\n", "        pass\n", (CONCURRENT,),
           "the caller must not see a result or error while the worker still runs"),
    Mutant("alongside_no_copy_context", AD,
           "target=contextvars.copy_context().run, args=(work,)", "target=work",
           (CONCURRENT,),
           "the worker must run under the caller's np.errstate, in the backward and in the "
           "forward (test_the_forward_worker_sees_the_callers_errstate)"),
    Mutant("alongside_worker_error_dropped", AD,
           "    if outcome[1] is not None:\n        raise outcome[1]\n", "",
           (CONCURRENT,),
           "an error in the worker's direction must reach the caller"),
    Mutant("tied_directions_threaded", AD,
           "              or len(set(map(id, parents))) < len(parents))",
           "              or False)",
           (f"{CONCURRENT}::test_tied_directions_stay_on_the_calling_thread",),
           "a tensor in both directions would take two gradients from two threads"),
    Mutant("one_direction_enters_helper", AD,
           "inline = (bw is None or bsz", "inline = (bsz",
           (f"{CONCURRENT}::test_one_direction_stays_out_of_the_helper",),
           "a one-direction layer has nothing to run alongside"),

    # the two-direction LSTM forward's worker
    Mutant("forward_caller_skips_wait", AD,
           "                    if (s, k) != (0, 0) and not done.get():\n"
           "                        return\n", "",
           (f"{CONCURRENT}::test_the_caller_waits_for_a_slow_worker",),
           "a cell must not read its projection or product before the worker wrote it"),
    Mutant("forward_worker_error_dropped", AD,
           "            done.put(False)   # wakes the caller; `_alongside` raises the error\n"
           "            raise\n",
           "            done.put(False)\n",
           (f"{CONCURRENT}::test_a_forward_error_reaches_the_caller_after_the_join",),
           "an error in the worker's projection or product must reach the caller"),
    Mutant("forward_stop_only_on_success", AD,
           "        finally:\n"
           "            todo.put(None)   # the worker's stop, also when a cell raised\n",
           "        except BaseException:\n"
           "            raise\n"
           "        todo.put(None)\n",
           (f"{CONCURRENT}::test_a_forward_error_reaches_the_caller_after_the_join",),
           "a caller that raises must still stop the worker, or the join waits forever"),

    # the LSTM layer
    Mutant("lstm_dx_not_reversed", AD,
           "return np.matmul(wx.data, dpre)[order] if", "return np.matmul(wx.data, dpre) if",
           (LSTM,), "the backward direction's x gradient must return to forward time order"),
    Mutant("lstm_forget_coef_shifted", AD,
           "    coef[:, 1] *= cs[:-1]\n", "    coef[:, 1] *= cs[1:]\n", (LSTM,),
           "the forget gate's coefficient reads the previous cell state"),
    Mutant("lstm_dwh_wrong_steps", AD,
           "np.matmul(hs[:-1], dpre_t[1:])", "np.matmul(hs[1:], dpre_t[1:])", (LSTM,),
           "Wh's gradient pairs each step with the state before it"),
    Mutant("lstm_halved_bias_perturbed", AD,
           "scratch[...] = (b * half)[:, None]", "scratch[...] = (b * half + 1e-6)[:, None]",
           (f"{LSTM}::test_bit_equal_to_reference",),
           "the pre-halved gates must give the bits of the unhalved reference"),
    Mutant("lstm_output_gate_not_rescaled", AD,
           "    for sig in (gates[:2 * hid], gates[3 * hid:]):\n",
           "    for sig in (gates[:2 * hid],):\n",
           (f"{LSTM}::test_bit_equal_to_reference",),
           "the output gate is a sigmoid, (tanh(z/2) + 1) / 2, like i and f"),
    Mutant("lstm_cell_state_not_zeroed", AD,
           "    cs[0] = 0\n", "", (WORKSPACE,),
           "a reused workspace buffer holds the last pass's cell states"),

    # other tape ops
    Mutant("max_over_time_tie_mask_kept", AD,
           "            free ^= hit\n", "", ("tests/test_autodiff.py::TestMaxOverTime",),
           "a tie routes the gradient to the first maximum only"),
    Mutant("relu_mask_includes_zero", AD,
           "_accum(x, g * (out_data > 0))", "_accum(x, g * (out_data >= 0))",
           ("tests/test_autodiff.py::TestOtherPrimitives",),
           "relu's gradient is 0 at x = 0 and for NaN"),
    Mutant("accum_keeps_g_layout", AD,
           "t.grad = np.add(g, 0.0, out=np.empty_like(t.data))", "t.grad = np.add(g, 0.0)",
           ("tests/test_autodiff.py::TestAccum",),
           "a first gradient must take the tensor's shape and strides"),
    Mutant("workspace_never_grows", AD,
           "if self._buffers[i] is None or self._buffers[i].nbytes < nbytes:",
           "if self._buffers[i] is None:", (WORKSPACE,),
           "a larger pass needs a larger buffer"),
    Mutant("workspace_counter_not_reset", AD,
           "        self._calls = 0\n        self._token = _active_workspace.set(self)\n",
           "        self._token = _active_workspace.set(self)\n", (WORKSPACE,),
           "each pass must start again at the first buffer"),

    # inference chunks
    Mutant("logits_no_release", MODELS,
           "            model.workspace.release()\n", "            pass\n",
           ("tests/test_train.py::TestEvaluate",),
           "logits drops the workspace buffers when it returns"),
    Mutant("logits_error_index_in_chunk", MODELS,
           'raise DataError(f"row {int(bad.argmax())} of the batch',
           'raise DataError(f"row {int(bad.argmax()) % PREDICT_CHUNK} of the batch',
           ("tests/test_train.py::TestEvaluate::test_predict_batch_names_a_bad_row_by_its_index_in_the_set",),
           "a bad row is named by its index in the set, not in its chunk"),
    Mutant("logits_short_chunk_unpadded", MODELS,
           "                if n < MIN_BATCH:\n", "                if False:\n",
           ("tests/test_models.py::TestBatchInvariance",),
           "a short last chunk takes other BLAS kernels and other bits"),
    Mutant("logits_states_check_dropped", MODELS,
           "    if not (np.isfinite(batch).all() and np.isfinite(out).all()):\n"
           "        bad = ~(np.isfinite(batch).all(axis=(1, 2)) & np.isfinite(out).all(axis=1))\n",
           "    if not np.isfinite(out).all():\n"
           "        bad = ~np.isfinite(out).all(axis=1)\n",
           ("tests/test_models.py::TestPredict", "tests/test_train.py::TestEvaluate"),
           "a window whose states are not finite must be reported, whatever its logits"),

    # optimizer and parameter buffers
    Mutant("adam_eps_inside_sqrt", OPTIM,
           "        np.sqrt(den, out=den)\n        den += EPSILON\n",
           "        den += EPSILON\n        np.sqrt(den, out=den)\n", ("tests/test_optim.py",),
           "Adam adds epsilon after the square root"),
    Mutant("adam_v_correction_late", OPTIM,
           "v_scale = 1.0 - BETA2 ** self.t", "v_scale = 1.0 - BETA2 ** (self.t + 1)",
           ("tests/test_optim.py",), "the second moment is bias-corrected for this step"),
    Mutant("adam_update_reordered", OPTIM,
           "        upd *= self.lr\n        upd /= den\n", "        upd /= den\n        upd *= self.lr\n",
           ("tests/test_optim.py",), "each element rounds as the textbook expression does"),
    Mutant("pack_view_check_dropped", AD,
           "        if p.data.base is not None or p.grad.base is not None:\n",
           "        if False:\n",
           ("tests/test_optim.py::test_pack_refuses_views_it_would_detach",),
           "repacking a view would detach it from the buffer it is part of"),
    Mutant("zero_grad_misses_last", MODELS,
           "        self.grad.fill(0.0)\n", "        self.grad[:-1].fill(0.0)\n",
           ("tests/test_optim.py::test_zero_grad_zeroes_every_gradient",),
           "every gradient element starts a step at zero"),
    Mutant("checkpoint_rebinds", CHECKPOINT,
           "        p.data[...] = arrays[name]", "        p.data = arrays[name]",
           ("tests/test_optim.py::test_models_stay_packed_through_adam_and_checkpoints",),
           "a loaded model's parameters must stay views of its flat buffer"),
    Mutant("require_arrays_finiteness_dropped", CONTAINER,
           '        elif value.dtype.kind == "f" and not np.isfinite(value).all():\n',
           "        elif False:\n", ("tests/test_checkpoint.py::TestRequireArrays",),
           "a NaN weight or state must not load"),
    Mutant("require_arrays_extras_accepted", CONTAINER,
           "    if missing or extra:\n", "    if missing:\n",
           ("tests/test_artifact_mutations.py",),
           "an unexpected array means the file is not what the loader thinks"),
    Mutant("require_arrays_length_not_shared", CONTAINER,
           "shape = (lengths.setdefault(shape[0], len(value) if value.ndim else 0), *shape[1:])",
           "shape = (len(value) if value.ndim else 0, *shape[1:])",
           ("tests/test_checkpoint.py::TestRequireArrays",),
           "the arrays of one split must have one length"),
    Mutant("container_checksum_unchecked", CONTAINER,
           "    if hashlib.sha256(body).digest() != raw[-32:]:\n", "    if False:\n",
           ("tests/test_checkpoint.py::TestContainer::test_corrupted_byte_fails_checksum",),
           "a corrupt file must not load"),

    # the trajectory CSV
    Mutant("csv_kind_check_dropped", DATA,
           "    if not set(kinds).issubset(AGENT_KINDS):\n", "    if False:\n", (CSV_REFERENCE,),
           "an unknown agent kind is a malformed row"),
    Mutant("csv_duplicate_check_dropped", DATA,
           "    repeated = ~unknown & (first < at)\n", "    repeated = np.zeros_like(unknown)\n",
           ("tests/test_data.py::TestLoadSave::test_duplicate_frame_rejected_with_row_numbers",),
           "a repeated (agent, frame) is a malformed row"),
    Mutant("csv_label_check_dropped", DATA,
           "    bad = np.flatnonzero(unknown | repeated | changed)\n",
           "    bad = np.flatnonzero(repeated | changed)\n",
           ("tests/test_data.py::TestLoadSave::test_unknown_label_against_map",),
           "a label outside the map must not become class -1"),
    Mutant("csv_negative_frame_accepted", DATA,
           "    if frames and min(frames) < 0:\n", "    if False:\n", (CSV_REFERENCE,),
           "frames are non-negative"),
    Mutant("csv_finiteness_check_dropped", DATA,
           "    if not np.isfinite(coords).all():\n", "    if False:\n", (CSV_REFERENCE,),
           "a non-finite coordinate is a malformed row"),
    Mutant("csv_degrees_ignored", DATA,
           "        states[:, 3] = np.radians(states[:, 3])\n", "        pass\n",
           ("tests/test_data.py::TestLoadSave::test_degrees_conversion_and_angle_normalization",),
           "--degrees converts the direction column to radians"),
    Mutant("csv_int64_check_dropped", DATA,
           "    if frames and max(frames) > _MAX_FRAME:\n", "    if False:\n",
           ("tests/test_cli.py::TestPrep::test_frame_beyond_int64_exit_3",),
           "a frame past int64 must exit 3, not overflow"),
    Mutant("csv_frames_through_float64", DATA,
           "labels, np.array(frames, np.int64), coords",
           "labels, np.array(frames, np.float64).astype(np.int64), coords",
           ("tests/test_data.py::TestLoadSave::test_roundtrip_frames_beyond_float64_precision",),
           "frames above 2**53 lose their low bits in float64"),
    Mutant("csv_frames_unsorted", DATA,
           "    order = np.lexsort((frames, code, unknown))\n",
           "    order = np.lexsort((code, unknown))\n",
           ("tests/test_data.py::TestLoadSave::test_rows_out_of_order_sorted",),
           "a trajectory's points are in frame order whatever the row order"),
    Mutant("csv_numpy_scalar_repr", DATA,
           "zip(t.frames.tolist(), t.states.tolist(),", "zip(t.frames.tolist(), t.states,",
           ("tests/test_data.py::TestLoadSave::test_roundtrip_thousand_agents",),
           "repr of a numpy scalar is not a CSV number"),
    Mutant("csv_unknown_labels_repeated", DATA,
           "    order = np.lexsort((frames, code, unknown))\n",
           "    order = np.lexsort((frames, code))\n",
           (f"{CSV_REFERENCE}::test_load_matches_reference",),
           "a row with an unknown label is no row that a later row repeats"),
    Mutant("csv_kind_from_frame_order", DATA,
           "    kept = np.flatnonzero(~(unknown | repeated))\n",
           "    kept = order[~(unknown | repeated)[order]]\n",
           (f"{CSV_REFERENCE}::test_load_matches_reference",),
           "an agent's kind is that of its first row in the file, not of its lowest frame"),
    Mutant("angle_guard_strict", DATA,
           "    out[out >= math.pi] -= 2.0 * math.pi", "    out[out > math.pi] -= 2.0 * math.pi",
           (WRAP,), "rounding can land exactly on pi, outside [-pi, pi)"),
    Mutant("angle_wrap_in_range", DATA,
           "    return np.where((-math.pi <= d) & (d < math.pi), d, out)\n", "    return out\n",
           (WRAP,), "an angle already in [-pi, pi) comes back bit for bit, not re-rounded"),

    # windows, classes, split and resampling
    Mutant("window_boundary_unmasked", DATA,
           "    inside = owner[starts] == owner[ends]\n",
           "    inside = np.ones(len(starts), dtype=bool)\n",
           ("tests/test_data.py::TestFilterWindow",),
           "a window never spans two trajectories"),
    Mutant("rare_class_filter_strict", DATA,
           "kept = np.flatnonzero(counts >= min_count)", "kept = np.flatnonzero(counts > min_count)",
           ("tests/test_data.py::TestRareClasses",),
           "a class with exactly min_count windows is kept"),
    Mutant("split_unclamped", DATA,
           "n_train = min(max(int(math.floor(ratio * n)), 1), n - 1)",
           "n_train = int(math.floor(ratio * n))",
           ("tests/test_data.py::TestPipelineProperties::test_split_is_a_stratified_partition",),
           "each class keeps at least one window on each side"),
    Mutant("ros_picks_sorted", DATA,
           "picks.append(members[rng.integers(0, counts[c], size=deficit)])",
           "picks.append(members[np.sort(rng.integers(0, counts[c], size=deficit))])",
           ("tests/test_data.py::TestPipelineProperties::test_ros_and_rus_match_oracle",),
           "ROS appends its draws in draw order"),
    Mutant("rus_rows_unsorted", DATA,
           "return windows[np.sort(np.concatenate(keep))]", "return windows[np.concatenate(keep)]",
           ("tests/test_data.py::TestPipelineProperties::test_ros_and_rus_match_oracle",),
           "RUS keeps the original order"),

    # the Gaussian HMM
    Mutant("hmm_emissions_unshifted", HMM,
           "    shift = logb.max(axis=1)\n", "    shift = np.zeros_like(logb[:, 0])\n",
           ("tests/test_hmm.py::TestForward::test_far_outlier_under_floor_variances",),
           "a far outlier underflows every emission to 0 without the shift"),
    Mutant("hmm_xi_unscaled", HMM,
           "        nxt /= scale[1:, None]\n", "",
           ("tests/test_hmm.py::TestBaumWelch::test_trace_matches_log_space_em",),
           "xi divides by the next step's scale"),
    Mutant("hmm_zero_scale_unguarded", HMM,
           "np.divide(a, np.where(c > 0, c, 1.0), out=alpha[t])", "np.divide(a, c, out=alpha[t])",
           ("tests/test_hmm.py::TestForward::test_impossible_sequence_scores_minus_inf",),
           "an impossible sequence scores -inf, never NaN"),
    Mutant("hmm_kmeans_expanded_square", HMM,
           "            diff = columns[d] - centers[:, d, None]\n"
           "            diff *= diff\n"
           "            dist += diff\n",
           "            dist += (columns[d] ** 2 - 2 * centers[:, d, None] * columns[d]\n"
           "                     + centers[:, d, None] ** 2)\n",
           ("tests/test_hmm.py::TestInit",),
           "an expanded square cancels catastrophically on offset data"),
]


def _copy_checkout(dest):
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(work, tests):
    """pytest's exit code for `tests` in the copy at `work`, or "timeout".

    Every run draws the same Hypothesis examples: one fixed seed, and no
    example database left by an earlier run to replay. No bytecode is
    written, so a mutated file is never read from a stale cache."""
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *tests],
            cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return "timeout"
    finally:
        shutil.rmtree(work / ".hypothesis", ignore_errors=True)


def run(mutant, work):
    """Apply `mutant` inside the copy at `work`, run its tests, restore the
    file. Returns the result record."""
    path = work / mutant.file
    original = path.read_text(encoding="utf-8")
    if original.count(mutant.old) != 1:
        return {"name": mutant.name, "status": "error", "seconds": 0.0,
                "reason": f"old text occurs {original.count(mutant.old)} times"}
    path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
    t0 = time.perf_counter()
    try:
        code = _pytest(work, mutant.tests)
    finally:
        path.write_text(original, encoding="utf-8")
    record = {"name": mutant.name, "seconds": round(time.perf_counter() - t0, 1)}
    if code == 1:
        record["status"] = "killed"
    elif code == 0:
        record["status"] = "survived"
    else:
        record.update(status="error", exit_code=code)
    return record


def main(argv=None):
    names = list(sys.argv[1:] if argv is None else argv)
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        work = Path(tmp)
        _copy_checkout(work)
        t0 = time.perf_counter()
        code = _pytest(work, list(dict.fromkeys(t for m in chosen for t in m.tests)))
        if code != 0:
            print(json.dumps({"name": "baseline", "status": "error", "exit_code": code,
                              "seconds": round(time.perf_counter() - t0, 1)}))
            return 1
        statuses = []
        for mutant in chosen:
            record = run(mutant, work)
            statuses.append(record["status"])
            print(json.dumps(record), flush=True)
    return 0 if all(s == "killed" for s in statuses) else 1


if __name__ == "__main__":
    sys.exit(main())
