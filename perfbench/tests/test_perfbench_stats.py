import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for p in (str(ROOT / "src"), str(ROOT)):
    if p not in sys.path:
        sys.path.insert(0, p)

from perfbench import bench, speed, stats  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402


def span(name, start, end, parent=None):
    return (name, start, end, parent, {})


class TestMedianAndPercentiles:
    def test_median_odd_and_even(self):
        assert stats.median([3, 1, 2]) == 2
        assert stats.median([4, 1, 2, 3]) == 2.5

    def test_median_of_nothing_raises(self):
        with pytest.raises(ValueError):
            stats.median([])

    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))
        assert stats.percentile(values, 50) == 50
        assert stats.percentile(values, 90) == 90
        assert stats.percentile(values, 100) == 100
        assert stats.percentile([7.0], 90) == 7.0

    def test_tail_percentile_needs_ten_samples_beyond(self):
        assert stats.tail_percentile(list(range(1, 101))) == (90.0, 90)
        assert stats.tail_percentile(list(range(1, 1001))) == (99.0, 990)
        assert stats.tail_percentile(list(range(1, 10001))) == (99.9, 9990)
        # 20 samples: the median has exactly 10 above it, p90 only 2.
        assert stats.tail_percentile(list(range(1, 21))) == (50.0, 10)
        assert stats.tail_percentile(list(range(1, 20))) == (None, None)


class TestSpeedScale:
    def test_scale_is_nominal_over_the_mean_reference(self):
        assert speed.scale(speed.REF_SECONDS, speed.REF_SECONDS) == pytest.approx(1.0)
        # a machine at half speed: its seconds count half
        ref = 2 * speed.REF_SECONDS
        assert speed.scale(0.5 * ref, 1.5 * ref) == pytest.approx(0.5)

    def test_reference_takes_time(self):
        assert speed.reference() > 0.0


class TestSpans:
    def test_self_time_is_span_minus_children(self):
        spans = [
            span("root", 0.0, 10.0),
            span("a", 1.0, 4.0, 0),
            span("b", 5.0, 9.0, 0),
            span("b.inner", 6.0, 7.0, 2),
        ]
        assert stats.self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0])

    def test_coverage_over_steps(self):
        spans = [
            span("step", 0.0, 10.0),
            span("layer", 0.0, 8.0, 0),
            span("layer.inner", 1.0, 2.0, 1),
            span("step", 10.0, 20.0),
            span("layer", 11.0, 20.0, 3),
            span("elsewhere", 20.0, 30.0),
        ]
        covered, uncovered = stats.coverage(spans, "step")
        assert covered == pytest.approx(17.0 / 20.0)
        assert uncovered == pytest.approx(1.5)

    def test_em_phases_count_self_time_inside_fits_only(self):
        spans = [
            span("hmm.baum_welch_fit", 0.0, 10.0),
            span("hmm.log_emissions", 0.0, 1.0, 0),
            span("hmm.forward_batch", 1.0, 5.0, 0),
            span("hmm.log_emissions", 1.0, 2.0, 2),
            span("hmm.hmm_predict_batch", 10.0, 20.0),
            span("hmm.forward_batch", 10.0, 19.0, 4),
        ]
        assert bench._fit_self("hmm.log_emissions")(spans) == pytest.approx(2.0)
        assert bench._fit_self("hmm.forward_batch")(spans) == pytest.approx(3.0)

    def test_coverage_without_steps_is_zero(self):
        assert stats.coverage([span("x", 0.0, 1.0)], "step") == (0.0, 0.0)


class TestTracer:
    def test_training_step_spans_and_restore(self):
        import numpy as np

        from trajbehav import autodiff as ad
        from trajbehav import cli, train
        from trajbehav.models import FusionModel, build_model
        from trajbehav.optim import Adam

        originals = (ad.lstm_cell, FusionModel.forward, Adam.step, train.train, cli.train)
        model = build_model("fusion", 3, seed=0)
        opt = Adam(model.param_list())
        batch = np.random.default_rng(0).normal(size=(4, 5, 4))
        with Tracer() as tracer:
            assert cli.train is train.train and train.train is not originals[3]
            model.zero_grad()
            loss = ad.softmax_cross_entropy(model.forward(batch), np.array([0, 1, 2, 0]))
            loss.backward()
            opt.step()
        assert (ad.lstm_cell, FusionModel.forward, Adam.step, train.train, cli.train) == originals

        spans = tracer.finished()
        names = [s[0] for s in spans]
        assert names[0] == "train.step" and names[1] == "models.zero_grad"
        assert names.count("train.step") == 1
        assert names.count("autodiff.lstm_cell") == 20
        assert names.count("autodiff.conv1d_valid") == 3
        assert names[-1] == "optim.step"
        # every other span of the step nests inside it
        assert all(s[3] is not None for s in spans[1:])
        lstm = names.index("autodiff.lstm_cell")
        assert spans[spans[lstm][3]][0] == "models.bilstm_features"
        covered, _ = stats.coverage(spans, "train.step")
        assert 0.5 < covered <= 1.0
