"""Training loop: schedule, determinism, convergence, isolation."""

import numpy as np
import pytest

from trajbehav import autodiff as ad
from trajbehav.autodiff import Tensor
from trajbehav.data import DatasetSplit, class_weights
from trajbehav.errors import ConfigError, DataError
from trajbehav.hmm import HMMClassifier
from trajbehav.metrics import recall_per_class
from trajbehav.models import build_model, logits, predict
from trajbehav.train import TrainConfig, evaluate, lr_at, predict_batch, train

from conftest import blob_samples


def blob_split(rng, counts=(40, 40), spread=3.0, sigma=0.3, num_classes=None):
    num_classes = num_classes or len(counts)
    centers = [spread * c for c in range(num_classes)]
    samples = blob_samples(rng, counts, centers, sigma=sigma)
    # the first 80% of each class's windows train, the rest test
    rank = np.concatenate([np.arange(c) for c in counts])
    in_train = rank < np.repeat([int(0.8 * c) for c in counts], counts)
    names = [f"C{c}" for c in range(num_classes)]
    return DatasetSplit(train=samples[in_train], test=samples[~in_train],
                        class_names=names, seed=0)


def tiny_config(**kw):
    base = dict(epochs=3, batch_size=16, lr_switch_epoch=1, seed=0, hmm_max_iters=10)
    base.update(kw)
    return TrainConfig(**base)


class TestSchedule:
    def test_lr_schedule_values(self):
        config = TrainConfig()
        assert lr_at(config, 1) == 0.005
        assert lr_at(config, 40) == 0.005
        assert lr_at(config, 41) == 0.001
        assert lr_at(config, 60) == 0.001

    def test_log_reflects_schedule(self, rng):
        split = blob_split(rng)
        config = tiny_config(epochs=4, lr_switch_epoch=2)
        _, log = train("lstm", config, split)
        assert [e.lr for e in log.entries] == [0.005, 0.005, 0.001, 0.001]
        assert [e.epoch for e in log.entries] == [1, 2, 3, 4]

    def test_invalid_switch_epoch(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=10, lr_switch_epoch=10).validate()

    def test_batch_size_validated(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0).validate()


class TestTrainLoop:
    def test_zero_epochs_returns_initialized_model(self, rng):
        split = blob_split(rng)
        config = tiny_config(epochs=0)
        model, log = train("fusion", config, split)
        assert log.entries == []
        from trajbehav.models import build_model
        fresh = build_model("fusion", 2, seed=0)
        for name, p in model.parameters.items():
            assert np.array_equal(p.data, fresh.parameters[name].data)

    def test_same_seed_bit_identical_parameters(self, rng):
        split = blob_split(rng)
        config = tiny_config()
        m1, log1 = train("fusion", config, split)
        m2, log2 = train("fusion", config, split)
        for name in m1.parameters:
            assert np.array_equal(m1.parameters[name].data,
                                  m2.parameters[name].data)
        assert [e.loss for e in log1.entries] == [e.loss for e in log2.entries]

    def test_two_blob_convergence(self):
        rng = np.random.default_rng(3)
        split = blob_split(rng, counts=(60, 60), spread=2.0, sigma=0.4)
        config = TrainConfig(epochs=60, batch_size=256, lr_switch_epoch=40,
                             seed=1)
        model, log = train("fusion", config, split)
        assert log.entries[-1].loss < 0.1
        assert len(log.entries) == 60

    def test_negative_seed_rejected(self, rng):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            train("lstm", tiny_config(seed=-1), blob_split(rng))

    def test_empty_split_rejected(self):
        split = DatasetSplit(train=[], test=[], class_names=["A"], seed=0)
        with pytest.raises(ConfigError):
            train("fusion", tiny_config(), split)

    def test_epoch_loss_is_batch_weighted_mean(self, rng, monkeypatch):
        split = blob_split(rng, counts=(40, 40))
        config = tiny_config(epochs=1, batch_size=24, lr_switch_epoch=0)  # 24/24/16
        recorded = []
        import trajbehav.train as train_mod
        real = train_mod.ad.softmax_cross_entropy

        def spy(logits, labels, weights=None):
            loss = real(logits, labels, weights)
            recorded.append((loss.item(), len(labels)))
            return loss

        monkeypatch.setattr(train_mod.ad, "softmax_cross_entropy", spy)
        _, log = train("lstm", config, split)
        n = len(split.train)
        assert [b for _, b in recorded] == [24, 24, 16]
        expect = sum(l * b for l, b in recorded) / n
        assert abs(log.entries[0].loss - expect) < 1e-12

    def test_training_never_touches_test_samples(self, rng):
        split = blob_split(rng)

        class Exploding(list):
            def __iter__(self):
                raise AssertionError("training read the test split")

            def __getitem__(self, item):
                raise AssertionError("training read the test split")

        guarded = DatasetSplit(
            train=split.train, test=Exploding(split.test),
            class_names=split.class_names, seed=split.seed,
        )
        train("lstm", tiny_config(), guarded)

    def test_weighted_loss_path(self, rng):
        split = blob_split(rng, counts=(60, 12))
        weights = class_weights(split.train, 2)
        model, log = train("lstm", tiny_config(), split, loss_weights=weights)
        assert len(log.entries) == 3

    def test_hmm_training_one_model_per_class(self, rng):
        split = blob_split(rng, counts=(30, 30, 30), spread=4.0)
        clf, log = train("hmm", tiny_config(), split)
        assert isinstance(clf, HMMClassifier)
        assert len(clf.models) == 3
        assert len(log.entries) == 3

    def test_hmm_log_seconds_are_each_class_fit_time(self, rng, monkeypatch):
        # A clock that only moves, by one second, in each EM forward pass:
        # a class's seconds are then its own EM iteration count.
        import time

        import trajbehav.hmm as hmm_mod
        clock = [0.0]
        real_forward = hmm_mod._forward_batch

        def forward(model, seqs):
            clock[0] += 1.0
            return real_forward(model, seqs)

        monkeypatch.setattr(hmm_mod, "_forward_batch", forward)
        monkeypatch.setattr(time, "perf_counter", lambda: clock[0])
        split = blob_split(rng, counts=(30, 30, 30), spread=4.0)
        clf, log = train("hmm", tiny_config(), split)
        seconds = [e.seconds for e in log.entries]
        assert seconds == [float(len(m.fit_loglik)) for m in clf.models]
        assert sum(seconds) == clock[0]

    def test_rows_and_windows_train_alike(self, rng):
        split = blob_split(rng)
        as_rows = DatasetSplit(train=list(split.train), test=list(split.test),
                               class_names=split.class_names, seed=split.seed)
        m1, _ = train("lstm", tiny_config(), split)
        m2, _ = train("lstm", tiny_config(), as_rows)
        for name in m1.parameters:
            assert np.array_equal(m1.parameters[name].data, m2.parameters[name].data)
        assert (evaluate(m1, split.test, split.class_names).to_dict()
                == evaluate(m2, as_rows.test, split.class_names).to_dict())


class TestEvaluate:
    def test_separable_blobs_near_perfect(self):
        rng = np.random.default_rng(5)
        split = blob_split(rng, counts=(60, 60), spread=4.0, sigma=0.2)
        config = TrainConfig(epochs=30, batch_size=64, lr_switch_epoch=20, seed=2)
        model, _ = train("fusion", config, split)
        rep = evaluate(model, split.train, split.class_names)
        assert rep.balanced_accuracy >= 0.99

    def test_uniform_logit_model_predicts_class_zero(self, rng):
        split = blob_split(rng, counts=(20, 20, 20))
        model, _ = train("fusion", tiny_config(epochs=0), split)
        for p in model.parameters.values():
            p.data[...] = 0.0
        rep = evaluate(model, split.test, split.class_names)
        assert rep.per_class[0]["recall"] == 1.0
        assert abs(rep.balanced_accuracy - 1.0 / 3.0) < 1e-12

    def test_evaluate_twice_identical(self, rng):
        split = blob_split(rng)
        model, _ = train("lstm", tiny_config(), split)
        r1 = evaluate(model, split.test, split.class_names)
        r2 = evaluate(model, split.test, split.class_names)
        assert r1.to_dict() == r2.to_dict()

    def test_empty_test_set_rejected(self, rng):
        split = blob_split(rng)
        model, _ = train("lstm", tiny_config(), split)
        with pytest.raises(ConfigError):
            evaluate(model, [], split.class_names)

    def test_predict_batch_releases_the_model_workspace(self, rng):
        """predict_batch runs in the model's workspace and frees its buffers
        on return: the next pass gets new ones, with the bits of fresh arrays."""
        split = blob_split(rng)
        model, _ = train("fusion", tiny_config(), split)
        x = Tensor(split.test.states.astype(np.float32))
        with model.workspace:
            before = ad.mean(x, axis=1).data
        preds = predict_batch(model, split.test.states)
        with model.workspace:
            after = ad.mean(x, axis=1).data
        assert not np.shares_memory(after, before)
        assert after.tobytes() == ad.mean(x, axis=1).data.tobytes()
        assert list(preds) == list(predict(model, split.test.states.astype(np.float32)))

    def test_logits_after_training_reuse_the_buffers_training_filled(self, rng, monkeypatch):
        """The first chunk `logits` runs after `train` takes every lstm_layer,
        concat and mean array from the buffer training left in that slot of
        the model's workspace, and `logits` drops the buffers on return. With
        training outside the workspace and a fresh workspace per `logits`
        call, the fusion_train benchmark's inference rate read 0.89-0.92x on
        a 2-vCPU Xeon VM."""
        split = blob_split(rng)
        model, _ = train("fusion", tiny_config(batch_size=64), split)
        trained = list(model.workspace._buffers)
        bases, empty = [], ad.Workspace.empty

        def spy(workspace, shape, dtype):
            array = empty(workspace, shape, dtype)
            bases.append(array.base)
            return array

        monkeypatch.setattr(ad.Workspace, "empty", spy)
        logits(model, split.train.states[:64].astype(np.float32))
        assert trained and len(bases) == len(trained)
        assert all(base is buffer for base, buffer in zip(bases, trained))
        assert model.workspace._buffers == []

    @pytest.mark.parametrize("kind", ["fusion", "lstm", "conv1d"])
    def test_predict_batch_names_a_bad_row_by_its_index_in_the_set(self, kind, rng):
        """Row 300 sits in the second 256-window chunk; the error names the
        set's index, not the chunk's (44)."""
        states = rng.normal(size=(600, 5, 4))
        states[300, 2, 0] = 1e300   # finite in float64, inf in float32
        with pytest.raises(DataError, match="row 300 of the batch has non-finite float32"):
            predict_batch(build_model(kind, 3, seed=0), states)

    def test_predict_batch_dispatches_to_hmm(self, rng):
        split = blob_split(rng, counts=(30, 30), spread=5.0, sigma=0.2)
        clf, _ = train("hmm", tiny_config(), split)
        preds = predict_batch(clf, split.test.states)
        assert (preds == split.test.labels).mean() >= 0.9
