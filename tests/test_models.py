"""Model-level oracles: branch semantics, batch independence, gradients."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trajbehav import autodiff as ad
from trajbehav.autodiff import Tensor
from trajbehav.errors import ConfigError, DataError, DimensionError
from trajbehav.gradcheck import grad_check
from trajbehav.models import (
    CHANNELS_PER_KERNEL,
    FC1_OUT,
    KERNEL_SIZES,
    LSTM_HIDDEN,
    LSTM_LAYERS,
    Conv1DBaseline,
    FusionModel,
    LSTMBaseline,
    build_model,
    logits,
    predict,
)


def reference_lstm_sequence(x_seq, wx, wh, b, hidden):
    """Independent single-sample LSTM loop (plain numpy, no tape)."""

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    h = np.zeros(hidden)
    c = np.zeros(hidden)
    hs = []
    for x in x_seq:
        pre = x @ wx + h @ wh + b
        i = sig(pre[:hidden])
        f = sig(pre[hidden:2 * hidden])
        g = np.tanh(pre[2 * hidden:3 * hidden])
        o = sig(pre[3 * hidden:])
        c = f * c + i * g
        h = o * np.tanh(c)
        hs.append(h)
    return np.stack(hs)


def parameter_count(model):
    return sum(p.data.size for p in model.parameters.values())


def fusion_parameter_count(num_classes, use_mscnn):
    """Closed-form parameter count of FusionModel.

    Per LSTM direction of layer l: d_in*4H + H*4H + 4H where d_in is the
    input width (4 state features for layer 0, 2H above). Conv bank k
    contributes ch*4*k + ch; the bottleneck (3*ch)*fc1 + fc1; the head maps
    the fused feature (2H [+ fc1]) to num_classes with bias.
    """
    h = LSTM_HIDDEN
    total = 0
    for layer in range(LSTM_LAYERS):
        d_in = 4 if layer == 0 else 2 * h
        total += 2 * (d_in * 4 * h + h * 4 * h + 4 * h)
    if use_mscnn:
        ch = CHANNELS_PER_KERNEL
        for k in KERNEL_SIZES:
            total += ch * 4 * k + ch
        concat_dim = len(KERNEL_SIZES) * ch
        total += concat_dim * FC1_OUT + FC1_OUT
    head_in = 2 * h + (FC1_OUT if use_mscnn else 0)
    total += head_in * num_classes + num_classes
    return total


def zero_model(model):
    for p in model.parameters.values():
        p.data[...] = 0.0
    return model


class TestBiLSTMBranch:
    def test_zero_weights_zero_feature(self, rng):
        model = zero_model(FusionModel(4, precision="verify"))
        batch = rng.normal(size=(3, 5, 4))
        feats = model.bilstm_features(batch).data
        assert feats.shape == (3, 128)
        assert np.allclose(feats, 0.0)

    def test_batch_order_invariance(self, rng):
        model = FusionModel(4, seed=3, precision="verify")
        batch = rng.normal(size=(6, 5, 4))
        perm = rng.permutation(6)
        out = model.bilstm_features(batch).data
        out_perm = model.bilstm_features(batch[perm]).data
        assert np.allclose(out[perm], out_perm)

    def test_matches_per_sample_sequential_reference(self, rng):
        model = FusionModel(4, seed=9, precision="verify")
        batch = rng.normal(size=(4, 5, 4))
        got = model.bilstm_features(batch).data
        h = LSTM_HIDDEN
        for b in range(4):
            seq = batch[b]
            layer_in = [seq[t] for t in range(5)]
            for layer in range(LSTM_LAYERS):
                pre = f"bilstm.l{layer}"
                fw = reference_lstm_sequence(
                    layer_in,
                    model.parameters[f"{pre}.fw.wx"].data,
                    model.parameters[f"{pre}.fw.wh"].data,
                    model.parameters[f"{pre}.fw.b"].data, h,
                )
                bw = reference_lstm_sequence(
                    layer_in[::-1],
                    model.parameters[f"{pre}.bw.wx"].data,
                    model.parameters[f"{pre}.bw.wh"].data,
                    model.parameters[f"{pre}.bw.b"].data, h,
                )[::-1]
                layer_in = [np.concatenate([fw[t], bw[t]]) for t in range(5)]
            expect = np.mean(layer_in, axis=0)
            assert np.abs(got[b] - expect).max() < 1e-10


class TestMSCNNBranch:
    def test_zero_input_zero_feature(self):
        model = FusionModel(4, seed=1, precision="verify")
        feats = model.mscnn_features(np.zeros((2, 5, 4))).data
        assert feats.shape == (2, 32)
        # zero input, zero conv biases: pooled activations are zero
        assert np.allclose(feats, 0.0)

    def test_concat_width_is_96(self, rng):
        model = FusionModel(4, seed=1, precision="verify")
        batch = rng.normal(size=(2, 5, 4))
        x = Tensor(batch.transpose(0, 2, 1))
        pooled = []
        for k in KERNEL_SIZES:
            y = ad.conv1d_valid(
                x, model.parameters[f"mscnn.k{k}.w"], model.parameters[f"mscnn.k{k}.b"]
            )
            assert y.data.shape[2] == 5 - k + 1
            pooled.append(ad.max_over_time(ad.relu(y)))
        assert ad.concat(pooled, axis=1).data.shape == (2, 96)

    def test_matches_composed_primitive_oracle(self, rng):
        model = FusionModel(4, seed=5, precision="verify")
        batch = rng.normal(size=(3, 5, 4))
        got = model.mscnn_features(batch).data
        x = batch.transpose(0, 2, 1)
        pooled = []
        for k in KERNEL_SIZES:
            w = model.parameters[f"mscnn.k{k}.w"].data
            b = model.parameters[f"mscnn.k{k}.b"].data
            length = 5 - k + 1
            y = np.zeros((3, 32, length))
            for bi in range(3):
                for o in range(32):
                    for t in range(length):
                        y[bi, o, t] = b[o] + (x[bi, :, t:t + k] * w[o]).sum()
            pooled.append(np.maximum(y, 0).max(axis=2))
        feats = np.concatenate(pooled, axis=1)
        fc1 = feats @ model.parameters["mscnn.fc1.w"].data \
            + model.parameters["mscnn.fc1.b"].data
        expect = np.maximum(fc1, 0)
        assert np.abs(got - expect).max() < 1e-10


class TestFusionForward:
    def test_zero_parameters_uniform_logits(self, rng):
        model = zero_model(FusionModel(6, precision="verify"))
        batch = rng.normal(size=(4, 5, 4))
        logits = model.forward(batch)
        assert np.allclose(logits.data, 0.0)
        loss = ad.softmax_cross_entropy(logits, np.zeros(4, dtype=int))
        assert abs(loss.item() - np.log(6)) < 1e-12

    def test_duplicated_sample_identical_rows(self, rng):
        model = FusionModel(5, seed=2, precision="verify")
        one = rng.normal(size=(1, 5, 4))
        batch = np.repeat(one, 3, axis=0)
        logits = model.forward(batch).data
        assert np.array_equal(logits[0], logits[1])
        assert np.array_equal(logits[0], logits[2])

    def test_single_vs_batch_row_equality(self, rng):
        model = FusionModel(5, seed=2, precision="verify")
        batch = rng.normal(size=(5, 5, 4))
        full = model.forward(batch).data
        for b in range(5):
            row = model.forward(batch[b:b + 1]).data[0]
            assert np.abs(row - full[b]).max() < 1e-6

    def test_shape_errors(self):
        model = FusionModel(5, seed=2)
        with pytest.raises(DimensionError):
            model.forward(np.zeros((2, 4, 4)))
        with pytest.raises(DimensionError):
            model.forward(np.zeros((2, 5, 3)))

    def test_parameter_count_formula(self):
        for c, mscnn in [(13, True), (6, True), (7, True), (6, False)]:
            model = FusionModel(c, seed=0, use_mscnn=mscnn)
            assert parameter_count(model) == fusion_parameter_count(c, mscnn)

    def test_invalid_config(self):
        for kind in ("fusion", "lstm", "conv1d"):
            with pytest.raises(ConfigError, match="num_classes"):
                build_model(kind, num_classes=1)


class TestBaselines:
    def test_lstm_zero_parameters_uniform_logits(self, rng):
        model = zero_model(LSTMBaseline(7, precision="verify"))
        logits = model.forward(rng.normal(size=(3, 5, 4))).data
        assert logits.shape == (3, 7)
        assert np.allclose(logits, 0.0)

    def test_conv1d_zero_parameters_uniform_logits(self, rng):
        model = zero_model(Conv1DBaseline(7, precision="verify"))
        logits = model.forward(rng.normal(size=(3, 5, 4))).data
        assert logits.shape == (3, 7)
        assert np.allclose(logits, 0.0)

    def test_conv1d_output_shape_for_any_batch(self, rng):
        model = Conv1DBaseline(4, seed=1)
        for b in (0, 1, 2, 9):
            assert model.forward(rng.normal(size=(b, 5, 4))).data.shape == (b, 4)

    def test_lstm_requires_fixed_length(self, rng):
        model = LSTMBaseline(4, seed=1)
        with pytest.raises(DimensionError):
            model.forward(rng.normal(size=(2, 1, 4)))


class TestGradients:
    @pytest.mark.parametrize("kind", ["fusion", "lstm", "conv1d"])
    def test_full_model_gradcheck(self, kind, rng):
        model = build_model(kind, num_classes=4, seed=11, precision="verify")
        batch = rng.normal(size=(3, 5, 4))
        labels = rng.integers(0, 4, size=3)

        def forward():
            return ad.softmax_cross_entropy(model.forward(batch), labels)

        err = grad_check(forward, model.param_list(), max_elements=25, seed=7)
        assert err < 1e-5, f"{kind}: {err}"

    def test_bilstm_only_model_gradcheck(self, rng):
        model = FusionModel(4, seed=11, precision="verify", use_mscnn=False)
        batch = rng.normal(size=(3, 5, 4))
        labels = rng.integers(0, 4, size=3)

        def forward():
            return ad.softmax_cross_entropy(model.forward(batch), labels)

        assert grad_check(forward, model.param_list(), max_elements=20, seed=7) < 1e-5


class TestPredict:
    def test_argmax(self):
        model = zero_model(FusionModel(3, precision="verify"))
        model.parameters["head.b"].data[...] = [0.1, 0.9, 0.3]
        out = predict(model, np.zeros((2, 5, 4)))
        assert list(out) == [1, 1]

    def test_tie_goes_to_lowest_index(self):
        model = zero_model(FusionModel(3, precision="verify"))
        model.parameters["head.b"].data[...] = [1.0, 1.0, 0.0]
        assert list(predict(model, np.zeros((1, 5, 4)))) == [0]

    def test_matches_scan_argmax(self, rng):
        model = FusionModel(6, seed=4, precision="verify")
        batch = rng.normal(size=(8, 5, 4))
        logits = model.forward(batch).data
        preds = predict(model, batch)
        for i in range(8):
            best = 0
            for c in range(1, 6):
                if logits[i, c] > logits[i, best]:
                    best = c
            assert preds[i] == best

    @pytest.mark.parametrize("kind", ["fusion", "lstm", "conv1d"])
    def test_non_finite_logits_raise_naming_the_row(self, kind, rng):
        # 1e300 is finite in float64 and inf in the float32 model, whose
        # LSTM gates saturate on it to finite logits: the row still cannot
        # be scored, and no overflow warning escapes.
        batch = rng.normal(size=(40, 5, 4))
        batch[37, 2, 0] = 1e300
        with pytest.raises(DataError,
                           match="row 37 of the batch has non-finite float32 states or logits"):
            predict(build_model(kind, 3, seed=0), batch)

    def test_overflow_inside_the_network_raises(self, rng):
        # States finite in float32 whose logits overflow it.
        model = build_model("conv1d", 3, seed=0)
        model.parameters["head.w"].data[...] = 1e30
        batch = rng.normal(size=(3, 5, 4))
        assert np.isfinite(logits(model, batch)).all()
        batch[1] *= 1e20
        with pytest.raises(DataError, match="row 1 of the batch"):
            predict(model, batch)

    def test_argmax_invariant_under_increasing_transform(self, rng):
        logits = rng.normal(size=(10, 5))
        base = np.argmax(logits, axis=1)
        for f in (lambda z: 3 * z + 2, np.exp, lambda z: z ** 3):
            assert np.array_equal(np.argmax(f(logits), axis=1), base)


_INVARIANCE_MODELS = {kind: build_model(kind, 13, seed=5) for kind in ("fusion", "lstm", "conv1d")}


class TestBatchInvariance:
    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(sorted(_INVARIANCE_MODELS)),
           sizes=st.lists(st.integers(1, 120), min_size=1, max_size=6),
           seed=st.integers(0, 2**32 - 1))
    @example(kind="fusion", sizes=[1, 3, 40], seed=0)
    @example(kind="lstm", sizes=[1, 3, 40], seed=0)
    @example(kind="conv1d", sizes=[4, 7, 18, 1], seed=0)
    @example(kind="conv1d", sizes=[256, 3], seed=0)   # a chunk, then one under MIN_BATCH
    @example(kind="fusion", sizes=[256, 3], seed=0)
    def test_logits_of_a_set_are_the_logits_of_its_parts(self, kind, sizes, seed):
        model = _INVARIANCE_MODELS[kind]
        batch = np.random.default_rng(seed).normal(size=(sum(sizes), 5, 4))
        whole = logits(model, batch)
        bounds = np.cumsum([0] + sizes)
        parts = [logits(model, batch[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]
        assert whole.shape == (sum(sizes), 13)
        assert np.array_equal(np.concatenate(parts), whole)

    def test_empty_batch_gives_no_rows(self):
        assert logits(_INVARIANCE_MODELS["conv1d"], np.zeros((0, 5, 4))).shape == (0, 13)
