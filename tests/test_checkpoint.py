"""Checkpoint container: roundtrips, integrity, prediction equality."""

import numpy as np
import pytest
from conftest import checksummed
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from trajbehav import autodiff as ad
from trajbehav.checkpoint import load_checkpoint, save_checkpoint
from trajbehav.container import read_container, require_arrays, write_container
from trajbehav.errors import CheckpointError
from trajbehav.hmm import GaussianHMM, HMMClassifier, _forward_batch, _state_major
from trajbehav.models import build_model, logits, predict


class TestContainer:
    def test_roundtrip(self, tmp_path, rng):
        arrays = {
            "a": rng.normal(size=(3, 4)),
            "b": rng.normal(size=7).astype(np.float32),
            "c": rng.integers(0, 10, size=5),
        }
        path = tmp_path / "x.tbh"
        write_container(path, "test", {"note": 1}, arrays)
        kind, meta, back = read_container(path)
        assert kind == "test"
        assert meta == {"note": 1}
        for name, arr in arrays.items():
            assert back[name].dtype == arr.dtype
            assert np.array_equal(back[name], arr)

    def test_save_load_save_byte_identical(self, tmp_path, rng):
        arrays = {"w": rng.normal(size=(4, 4))}
        p1 = tmp_path / "a.tbh"
        p2 = tmp_path / "b.tbh"
        write_container(p1, "k", {"m": 2}, arrays)
        kind, meta, back = read_container(p1)
        write_container(p2, kind, meta, back)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupted_byte_fails_checksum(self, tmp_path, rng):
        path = tmp_path / "x.tbh"
        write_container(path, "test", {}, {"w": rng.normal(size=8)})
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum"):
            read_container(path)

    def test_not_a_container(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"definitely not a container file, far too short?" * 3)
        with pytest.raises(CheckpointError):
            read_container(path)

    @pytest.mark.parametrize("header, match", [
        ({"kind": "model", "meta": {}}, "'arrays'"),
        ({"meta": {}, "arrays": []}, "'kind'"),
        ({"kind": "model", "arrays": []}, "'meta'"),
        ([], "not a JSON object"),
        ({"kind": "model", "meta": [], "arrays": []}, "malformed"),
        ({"kind": "model", "meta": {}, "arrays": [{"name": "w", "dtype": "<f8"}]},
         "'shape'"),
        ({"kind": "model", "meta": {}, "arrays": [["w", "<f8", [1]]]}, "entry 0"),
        ({"kind": "model", "meta": {}, "arrays": [
            {"name": "w", "dtype": "<c16", "shape": [1]}]}, "'<c16'"),
        ({"kind": "model", "meta": {}, "arrays": [
            {"name": "w", "dtype": "<f8", "shape": [-1]}]}, r"\[-1\]"),
        ({"kind": "model", "meta": {}, "arrays": [
            {"name": "w", "dtype": ["<f8"], "shape": [1]}]}, "dtype"),
    ])
    def test_malformed_header_rejected(self, tmp_path, header, match):
        path = tmp_path / "x.tbh"
        path.write_bytes(checksummed(header))
        with pytest.raises(CheckpointError, match=match):
            read_container(path)

    @pytest.mark.parametrize("shape", [[2**62, 4], [2**32, 2**32], [0, 2**62], [2**40, 4]])
    def test_shape_whose_byte_count_overflows_int64_rejected(self, tmp_path, shape):
        # 2**62 * 4 and 2**32 * 2**32 elements wrap to 0 in int64 arithmetic
        header = {"kind": "model", "meta": {}, "arrays": [
            {"name": "w", "dtype": "<f8", "shape": shape}]}
        path = tmp_path / "x.tbh"
        path.write_bytes(checksummed(header, bytes(64)))
        with pytest.raises(CheckpointError, match="entry 0|truncated array w"):
            read_container(path)


container_meta = st.dictionaries(st.text(max_size=4), st.one_of(
    st.none(), st.booleans(), st.integers(-2**62, 2**62), st.text(max_size=6),
    st.floats(allow_nan=False), st.lists(st.integers(), max_size=3)), max_size=4)
container_arrays = st.dictionaries(
    st.text(min_size=1, max_size=4),
    hnp.arrays(st.sampled_from([np.float32, np.float64, np.int64]),
               hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)),
    max_size=3)
_TMP_PATH_OK = [HealthCheck.function_scoped_fixture]   # each example overwrites its files


class TestContainerProperties:
    @settings(max_examples=60, deadline=None, suppress_health_check=_TMP_PATH_OK)
    @given(kind=st.text(max_size=8), meta=container_meta, arrays=container_arrays)
    def test_roundtrip_bit_identical(self, tmp_path, kind, meta, arrays):
        path = tmp_path / "x.tbh"
        write_container(path, kind, meta, arrays)
        kind2, meta2, back = read_container(path)
        assert (kind2, meta2) == (kind, meta)
        assert list(back) == list(arrays)
        for name, arr in arrays.items():
            assert (back[name].dtype, back[name].shape) == (arr.dtype, arr.shape)
            assert back[name].tobytes() == arr.tobytes()

    @settings(max_examples=15, deadline=None, suppress_health_check=_TMP_PATH_OK)
    @given(meta=container_meta, arrays=container_arrays, mask=st.integers(1, 255))
    def test_every_flipped_byte_and_truncation_rejected(self, tmp_path, meta, arrays, mask):
        path = tmp_path / "x.tbh"
        write_container(path, "k", meta, arrays)
        raw = path.read_bytes()
        bad = tmp_path / "bad.tbh"
        for i in range(len(raw)):
            flipped = bytearray(raw)
            flipped[i] ^= mask
            bad.write_bytes(bytes(flipped))
            with pytest.raises(CheckpointError):
                read_container(bad)
        for n in range(len(raw)):
            bad.write_bytes(raw[:n])
            with pytest.raises(CheckpointError):
                read_container(bad)


_EXPECTED = {"a_x": (("a", 2), np.float64), "a_y": (("a",), np.int64),
             "b_x": (("b", 2), np.float32), "w": ((3,), np.float64)}


def _arrays(a=4, b=1):
    return {"a_x": np.zeros((a, 2)), "a_y": np.zeros(a, np.int64),
            "b_x": np.zeros((b, 2), np.float32), "w": np.ones(3)}


class TestRequireArrays:
    @pytest.mark.parametrize("a, b", [(4, 1), (0, 0), (1, 7)])
    def test_conforming_arrays_pass(self, a, b):
        require_arrays("p", _arrays(a, b), _EXPECTED, "array")

    def test_missing_and_unexpected_reported_together(self):
        arrays = _arrays()
        del arrays["w"], arrays["a_y"]
        arrays["z"] = np.zeros(1)
        with pytest.raises(CheckpointError, match=r"^p: array set mismatch "
                           r"\(missing \['a_y', 'w'\], unexpected \['z'\]\)$"):
            require_arrays("p", arrays, _EXPECTED, "array")

    @pytest.mark.parametrize("name, value, problem", [
        ("a_y", np.zeros(3, np.int64), "has shape (3,), expected (4,)"),
        ("b_x", np.zeros((1, 3), np.float32), "has shape (1, 3), expected (1, 2)"),
        ("w", np.ones(()), "has shape (), expected (3,)"),
        ("w", np.ones(3, np.float32), "stored as float32, not float64"),
        ("a_y", np.zeros(4), "stored as float64, not int64"),
        ("w", np.array([1.0, np.nan, 1.0]), "has non-finite values"),
        ("b_x", np.full((1, 2), -np.inf, np.float32), "has non-finite values"),
    ], ids=["short", "width", "scalar", "float32", "float-ints",
            "nan", "float32-inf"])
    def test_each_rule_names_the_array(self, name, value, problem):
        arrays = {**_arrays(), name: value}
        with pytest.raises(CheckpointError) as info:
            require_arrays("p", arrays, _EXPECTED, "array")
        assert str(info.value) == f"p: array {name!r} {problem}"

    def test_first_array_sets_a_named_length(self):
        with pytest.raises(CheckpointError, match=r"'a_y' has shape \(4,\), expected \(5,\)"):
            require_arrays("p", {**_arrays(), "a_x": np.zeros((5, 2))}, _EXPECTED, "array")

    def test_scalar_array_cannot_set_a_named_length(self):
        with pytest.raises(CheckpointError, match=r"'a_x' has shape \(\), expected \(0, 2\)"):
            require_arrays("p", {**_arrays(), "a_x": np.zeros(())}, _EXPECTED, "array")


class TestModelCheckpoint:
    @pytest.mark.parametrize("kind", ["fusion", "lstm", "conv1d"])
    def test_neural_roundtrip_bit_identical_predictions(self, kind, tmp_path, rng):
        model = build_model(kind, num_classes=5, seed=8, precision="fast")
        batch = rng.normal(size=(6, 5, 4))
        before = model.forward(batch).data.copy()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, list("ABCDE"), path)
        ck = load_checkpoint(path)
        assert ck.model.kind == kind
        assert ck.class_names == list("ABCDE")
        after = ck.model.forward(batch).data
        assert np.array_equal(before, after)
        assert np.array_equal(predict(model, batch), predict(ck.model, batch))

    def test_verify_precision_roundtrip_exact(self, tmp_path, rng):
        model = build_model("lstm", num_classes=3, seed=1, precision="verify")
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, list("ABC"), path)
        ck = load_checkpoint(path)
        for name, p in model.parameters.items():
            stored = ck.model.parameters[name].data
            assert stored.dtype == np.float64
            assert np.array_equal(stored, p.data)

    def test_save_load_save_byte_identical(self, tmp_path):
        model = build_model("fusion", num_classes=4, seed=3)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(model, list("ABCD"), p1)
        ck = load_checkpoint(p1)
        save_checkpoint(ck.model, ck.class_names, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corruption_rejected_no_partial_model(self, tmp_path):
        model = build_model("fusion", num_classes=4, seed=3)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, list("ABCD"), path)
        raw = bytearray(path.read_bytes())
        raw[-40] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        model = build_model("fusion", num_classes=4, seed=3)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, list("ABCD"), path)
        kind, meta, arrays = read_container(path)
        arrays["head.w"] = arrays["head.w"][:, :3]
        write_container(path, kind, meta, arrays)
        with pytest.raises(CheckpointError, match="head.w"):
            load_checkpoint(path)

    @pytest.mark.parametrize("kind", ["fusion", "lstm", "conv1d"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_rejected(self, tmp_path, kind, value):
        path = tmp_path / "m.ckpt"
        save_checkpoint(build_model(kind, num_classes=3, seed=0), list("ABC"), path)
        ck_kind, meta, arrays = read_container(path)
        name = sorted(arrays)[len(arrays) // 2]
        arrays[name].flat[-1] = value
        write_container(path, ck_kind, meta, arrays)
        with pytest.raises(CheckpointError, match=f"tensor '{name}' has non-finite values"):
            load_checkpoint(path)

    def test_normalization_stats_persisted(self, tmp_path):
        model = build_model("lstm", num_classes=3, seed=0)
        stats = {"mean": [0.0, 1.0, 2.0, 3.0], "std": [1.0, 1.0, 2.0, 1.0]}
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, list("ABC"), path, normalization=stats)
        assert load_checkpoint(path).normalization == stats


# The `config` entry each kind has always written, for five classes.
_SHARED = {"num_classes": 5, "seq_len": 5, "input_channels": 4}
_FUSION = {**_SHARED, "lstm_layers": 2, "lstm_hidden": 64, "kernel_sizes": [2, 3, 4],
           "channels_per_kernel": 32, "fc1_out": 32}
STORED_CONFIGS = {
    ("fusion", True): {**_FUSION, "use_mscnn": True},
    ("fusion", False): {**_FUSION, "use_mscnn": False},
    ("lstm", True): {**_SHARED, "hidden": 64, "layers": 2},
    ("conv1d", True): {**_SHARED, "channels": [32, 32, 64, 64], "kernel": 2},
}


class TestStoredConfig:
    @pytest.mark.parametrize("kind, use_mscnn", list(STORED_CONFIGS))
    @pytest.mark.parametrize("precision", ["fast", "verify"])
    def test_written_config_and_bytes_match_the_stored_format(
            self, kind, use_mscnn, precision, tmp_path, rng):
        """A checkpoint hand-written in the stored format (literal config)
        equals the saved one byte for byte, and loads to the same logits."""
        model = build_model(kind, 5, seed=4, precision=precision, use_mscnn=use_mscnn)
        saved, literal = tmp_path / "saved.ckpt", tmp_path / "literal.ckpt"
        stats = {"mean": [0.0, 1.0, 2.0, 3.0], "std": [1.0, 1.0, 2.0, 1.0]}
        save_checkpoint(model, list("ABCDE"), saved, normalization=stats)
        meta = {"model_kind": kind, "config": STORED_CONFIGS[kind, use_mscnn],
                "precision": precision, "class_names": list("ABCDE"),
                "normalization": stats}
        write_container(literal, "model", meta,
                        {name: p.data for name, p in model.parameters.items()})
        assert read_container(saved)[1]["config"] == STORED_CONFIGS[kind, use_mscnn]
        assert saved.read_bytes() == literal.read_bytes()
        batch = rng.normal(size=(6, 5, 4))
        loaded = load_checkpoint(literal).model
        assert np.array_equal(loaded.forward(batch).data, model.forward(batch).data)
        assert np.array_equal(predict(loaded, batch), predict(model, batch))

    @pytest.mark.parametrize("kind, use_mscnn", list(STORED_CONFIGS))
    @pytest.mark.parametrize("precision", ["fast", "verify"])
    def test_per_parameter_checkpoint_loads_into_the_flat_buffer(
            self, kind, use_mscnn, precision, tmp_path, rng):
        """A checkpoint written from one array per parameter, as models wrote
        before the flat buffer, loads packed, with the logits of a model that
        holds those arrays as its parameters."""
        model = build_model(kind, 5, seed=4, precision=precision, use_mscnn=use_mscnn)
        arrays = {name: (p.data + rng.normal(scale=0.1, size=p.data.shape)).astype(p.data.dtype)
                  for name, p in model.parameters.items()}
        meta = {"model_kind": kind, "config": STORED_CONFIGS[kind, use_mscnn],
                "precision": precision, "class_names": list("ABCDE"),
                "normalization": None}
        path = tmp_path / "per_parameter.ckpt"
        write_container(path, "model", meta, arrays)
        loaded = load_checkpoint(path).model
        for name, p in model.parameters.items():
            p.data = arrays[name]
        batch = rng.normal(size=(40, 5, 4))
        assert logits(loaded, batch).tobytes() == logits(model, batch).tobytes()
        data, grad = ad.pack(loaded.param_list())
        assert data is loaded.data and grad is loaded.grad
        for name, p in loaded.parameters.items():
            assert np.shares_memory(p.data, loaded.data)
            assert p.data.tobytes() == arrays[name].tobytes()

    @pytest.mark.parametrize("edit, key", [
        (lambda c: {**c, "lstm_hidden": 64.0}, "lstm_hidden"),
        (lambda c: {**c, "kernel_sizes": [2, 3]}, "kernel_sizes"),
        (lambda c: {**c, "use_mscnn": "yes"}, "use_mscnn"),
        (lambda c: {k: v for k, v in c.items() if k != "fc1_out"}, "fc1_out"),
    ], ids=["float-hidden", "two-kernels", "string-mscnn", "missing-key"])
    def test_config_differing_from_the_architecture_rejected(self, tmp_path, edit, key):
        """More cases (an extra key, a string `lstm_hidden`, a wrong
        `num_classes`) go through `trajbehav eval` in test_cli."""
        path = tmp_path / "m.ckpt"
        save_checkpoint(build_model("fusion", 5, seed=0), list("ABCDE"), path)
        kind, meta, arrays = read_container(path)
        write_container(path, kind, {**meta, "config": edit(meta["config"])}, arrays)
        with pytest.raises(CheckpointError, match=f"architecture at \\['{key}'\\]"):
            load_checkpoint(path)

    @pytest.mark.parametrize("config", [None, [], "fusion", 5])
    def test_config_not_an_object_rejected(self, tmp_path, config):
        path = tmp_path / "m.ckpt"
        save_checkpoint(build_model("lstm", 3, seed=0), list("ABC"), path)
        kind, meta, arrays = read_container(path)
        write_container(path, kind, {**meta, "config": config}, arrays)
        with pytest.raises(CheckpointError, match="not a JSON object"):
            load_checkpoint(path)

    def test_unhashable_precision_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(build_model("lstm", 3, seed=0), list("ABC"), path)
        kind, meta, arrays = read_container(path)
        write_container(path, kind, {**meta, "precision": ["fast"]}, arrays)
        with pytest.raises(CheckpointError, match="unknown precision"):
            load_checkpoint(path)

    @pytest.mark.parametrize("model_kind", ["lstm", "hmm"])
    @pytest.mark.parametrize("names, match", [
        (5, r"'class_names' is 5, not a list"),
        ("ABC", r"'class_names' is 'ABC', not a list"),
        ([1, 2, 3], r"'class_names'\[0\] is 1, not a string"),
        (["A", None, "C"], r"'class_names'\[1\] is None, not a string"),
    ], ids=["int", "string", "ints", "null"])
    def test_class_names_not_a_string_list_rejected(self, tmp_path, model_kind, names,
                                                    match):
        path = tmp_path / "m.ckpt"
        if model_kind == "hmm":
            k = 2
            model = GaussianHMM(np.full(k, 1 / k), np.full((k, k), 1 / k),
                                np.zeros((k, 4)), np.ones((k, 4)))
            save_checkpoint(HMMClassifier([model] * 3, list("ABC")), list("ABC"), path)
        else:
            save_checkpoint(build_model(model_kind, 3, seed=0), list("ABC"), path)
        kind, meta, arrays = read_container(path)
        write_container(path, kind, {**meta, "class_names": names}, arrays)
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    def test_single_class_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(build_model("conv1d", 3, seed=0), list("ABC"), path)
        kind, meta, arrays = read_container(path)
        write_container(path, kind, {**meta, "class_names": ["A"]}, arrays)
        with pytest.raises(CheckpointError, match="num_classes must be >= 2"):
            load_checkpoint(path)


class TestHMMCheckpoint:
    def test_roundtrip_identical_logliks(self, tmp_path, rng):
        models = []
        for c in range(3):
            k = 4
            models.append(GaussianHMM(
                initial=rng.dirichlet(np.ones(k)),
                transitions=rng.dirichlet(np.ones(k), size=k),
                means=rng.normal(size=(k, 4)) + c,
                variances=rng.uniform(0.2, 1.0, size=(k, 4)),
            ))
        clf = HMMClassifier(models=models, class_names=list("ABC"))
        path = tmp_path / "hmm.ckpt"
        save_checkpoint(clf, clf.class_names, path)
        ck = load_checkpoint(path)
        assert ck.model.kind == "hmm"
        obs = _state_major(rng.normal(size=(1, 5, 4)))
        for orig, loaded in zip(clf.models, ck.model.models):
            assert _forward_batch(orig, obs)[3] == _forward_batch(loaded, obs)[3]

    @staticmethod
    def _saved(path, k=3):
        model = GaussianHMM(np.full(k, 1 / k), np.full((k, k), 1 / k),
                            np.zeros((k, 4)), np.ones((k, 4)))
        save_checkpoint(HMMClassifier([model] * 2, ["A", "B"]), ["A", "B"], path)
        return read_container(path)

    @pytest.mark.parametrize("names", [[], ["A"]])
    def test_fewer_than_two_classes_rejected(self, tmp_path, names):
        path = tmp_path / "hmm.ckpt"
        kind, meta, arrays = self._saved(path)
        write_container(path, kind, {**meta, "class_names": names}, arrays)
        with pytest.raises(CheckpointError, match=f"num_classes must be >= 2, got {len(names)}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, match", [
        (lambda a: a.update({"class2.means": a["class1.means"], "bias": np.zeros(3)}),
         r"\(missing \[\], unexpected \['bias', 'class2.means'\]\)"),
        (lambda a: a.pop("class1.variances"),
         r"\(missing \['class1.variances'\], unexpected \[\]\)"),
    ], ids=["outside-class-map", "missing"])
    def test_tensor_set_mismatch_rejected(self, tmp_path, edit, match):
        path = tmp_path / "hmm.ckpt"
        kind, meta, arrays = self._saved(path)
        edit(arrays)
        write_container(path, kind, meta, arrays)
        with pytest.raises(CheckpointError, match="tensor set mismatch " + match):
            load_checkpoint(path)

    @pytest.mark.parametrize("n_states", [0, -1, "3", 3.0, True, None, [3]])
    def test_n_states_not_a_positive_int_rejected(self, tmp_path, n_states):
        path = tmp_path / "hmm.ckpt"
        kind, meta, arrays = self._saved(path)
        write_container(path, kind, {**meta, "n_states": n_states}, arrays)
        with pytest.raises(CheckpointError, match=r"'n_states' is .*, not an int >= 1"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, edit, match", [
        ("class0.variances", lambda a: -a, "variances <= 0"),
        ("class1.variances", lambda a: a * 0.0, "variances <= 0"),
        ("class1.variances", lambda a: a.astype(np.int64), "stored as int64, not float64"),
        ("class0.means", lambda a: np.where(np.arange(a.size).reshape(a.shape) == 5,
                                            np.nan, a), "non-finite"),
        ("class1.means", lambda a: a + np.inf, "non-finite"),
        ("class0.means", lambda a: a.astype(np.float32), "stored as float32"),
        ("class0.initial", lambda a: a * 2.0, "probability rows"),
        ("class1.initial", lambda a: a - np.array([0.5, 0.0, -0.5]), "probability rows"),
        ("class0.transitions", lambda a: np.where(np.eye(3) > 0, a + 1e-5, a),
         "probability rows"),
        ("class1.transitions", lambda a: a[:, ::-1] * np.array([-1.0, 1.0, 3.0]),
         "probability rows"),
    ], ids=["negated-variances", "zero-variances", "int64-variances", "nan-mean",
            "inf-means", "float32-means", "initial-sums-2", "initial-negative",
            "transitions-sum-off", "transitions-negative"])
    def test_bad_tensor_values_rejected(self, tmp_path, key, edit, match):
        path = tmp_path / "hmm.ckpt"
        kind, meta, arrays = self._saved(path)
        arrays[key] = edit(arrays[key])
        write_container(path, kind, meta, arrays)
        with pytest.raises(CheckpointError, match=match) as info:
            load_checkpoint(path)
        assert f"tensor {key!r} " in str(info.value)

    def test_probability_rows_within_tolerance_accepted(self, tmp_path):
        path = tmp_path / "hmm.ckpt"
        kind, meta, arrays = self._saved(path)
        arrays["class1.transitions"] = arrays["class1.transitions"] + [5e-7, 0.0, 0.0]
        arrays["class0.initial"] = np.array([1.0, 0.0, 0.0])
        write_container(path, kind, meta, arrays)
        ck = load_checkpoint(path)
        assert np.array_equal(ck.model.models[1].transitions, arrays["class1.transitions"])
