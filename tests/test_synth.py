"""Generator self-checks: predicates, determinism, separability."""

import numpy as np
import pytest

from trajbehav.data import save_trajectories, window_all
from trajbehav.errors import ConfigError
from trajbehav.synth import (
    DT,
    EGO_SPEED,
    TEMPLATES,
    VEHICLE_CLASSES,
    SynthSpec,
    gen_dataset,
    verify_templates,
)


def classes_of(kind):
    return [n for n, t in TEMPLATES.items() if t.agent_kind == kind]


class TestTemplateRegistry:
    def test_class_counts_per_kind(self):
        assert VEHICLE_CLASSES == classes_of("vehicle")
        assert [len(classes_of(k)) for k in ("vehicle", "pedestrian", "rider")] == [13, 6, 7]

    def test_vehicle_taxonomy_names(self):
        assert set(VEHICLE_CLASSES) == {
            "OFL", "OFR", "SD", "DATL", "DATR", "DIFL", "DIFR", "SA",
            "USD", "PDIL", "PDIR", "S", "O",
        }


class TestPredicates:
    def test_all_templates_pass_at_zero_noise(self):
        results = verify_templates()
        failing = [name for name, ok in results.items() if not ok]
        assert not failing, f"templates failing their predicate: {failing}"

    def test_sd_speed_strictly_decreasing(self):
        spec = SynthSpec(counts={"SD": 2}, length=12, noise=0.0, seed=0)
        trajs, _ = gen_dataset(spec)
        for traj in trajs:
            speeds = np.diff(traj.states[:, 0]) / DT
            assert (np.diff(speeds) < 0).all()

    def test_stopping_relative_speed_is_minus_ego(self):
        spec = SynthSpec(counts={"S": 2}, length=12, noise=0.0, seed=0)
        trajs, _ = gen_dataset(spec)
        for traj in trajs:
            speeds = np.diff(traj.states[:, 0]) / DT
            assert np.abs(speeds + EGO_SPEED).max() < 1e-6

    def test_ofl_crosses_zero_on_the_left(self):
        spec = SynthSpec(counts={"OFL": 3}, length=20, noise=0.0, seed=2)
        trajs, _ = gen_dataset(spec)
        for traj in trajs:
            x, y = traj.states[:, 0], traj.states[:, 1]
            assert x[0] < 0 < x[-1]
            assert (y < -1.0).all(), "left of ego throughout the pass"


class TestGeneration:
    def test_usd_constant_relative_position(self):
        spec = SynthSpec(counts={"USD": 3}, length=10, noise=0.0, seed=0)
        trajs, names = gen_dataset(spec)
        assert len(trajs) == 3
        assert names == ["USD"]
        for traj in trajs:
            assert np.unique(traj.states[:, 0]).size == 1
            assert traj.labels.tolist() == [names.index("USD")] * 10

    def test_histogram_matches_counts(self):
        spec = SynthSpec(counts={"USD": 500, "SA": 10}, length=7, seed=1)
        trajs, names = gen_dataset(spec)
        hist = {name: 0 for name in names}
        for t in trajs:
            hist[names[t.labels[0]]] += 1
        assert hist == {"SA": 10, "USD": 500}

    def test_unknown_class_rejected(self):
        with pytest.raises(ConfigError):
            gen_dataset(SynthSpec(counts={"NOT_A_CLASS": 1}))

    def test_length_below_window_bound_rejected(self):
        with pytest.raises(ConfigError):
            gen_dataset(SynthSpec(counts={"USD": 1}, length=6))

    def test_deterministic_given_seed(self, tmp_path):
        spec = SynthSpec(counts={"USD": 5, "O": 5}, length=9, seed=42)
        a, names = gen_dataset(spec)
        b, _ = gen_dataset(spec)
        pa = tmp_path / "a.csv"
        pb = tmp_path / "b.csv"
        save_trajectories(a, names, pa)
        save_trajectories(b, names, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seeds_differ(self):
        a, _ = gen_dataset(SynthSpec(counts={"USD": 2}, length=8, seed=1))
        b, _ = gen_dataset(SynthSpec(counts={"USD": 2}, length=8, seed=2))
        assert a[0].states[0, 0] != b[0].states[0, 0]

    def test_every_trajectory_survives_min_length_filter(self):
        spec = SynthSpec(counts={c: 2 for c in VEHICLE_CLASSES}, length=7, seed=3)
        trajs, _ = gen_dataset(spec)
        assert all(len(t) >= 7 for t in trajs)

    def test_agent_kinds_match_templates(self):
        spec = SynthSpec(
            counts={"USD": 1, "PED_STAND": 1, "RIDER_ALONG": 1}, length=8, seed=0
        )
        trajs, names = gen_dataset(spec)
        kinds = {t.agent_id.rsplit("-", 1)[0]: t.agent_kind for t in trajs}
        assert kinds == {
            "USD": "vehicle", "PED_STAND": "pedestrian", "RIDER_ALONG": "rider",
        }


def pairwise_1nn_error(states, labels, a, b):
    """Leave-one-out 1-NN error restricted to classes a and b."""
    mask = (labels == a) | (labels == b)
    flat = states[mask].reshape(mask.sum(), -1)
    lab = labels[mask]
    dist = ((flat[:, None, :] - flat[None]) ** 2).sum(axis=2)
    np.fill_diagonal(dist, np.inf)
    nearest = dist.argmin(axis=1)
    return float((lab[nearest] != lab).mean())


class TestSeparability:
    @pytest.mark.parametrize(
        "classes", [classes_of(k) for k in ("vehicle", "pedestrian", "rider")]
    )
    def test_zero_noise_knn_separability(self, classes):
        spec = SynthSpec(counts={c: 25 for c in classes}, length=12,
                         noise=0.0, seed=17)
        trajs, names = gen_dataset(spec)
        windows, _ = window_all(trajs)
        states, labels = windows.states, windows.labels
        excluded = {frozenset(("OFL", "PDIL")), frozenset(("OFR", "PDIR"))}
        bad = []
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                if frozenset((names[i], names[j])) in excluded:
                    continue
                err = pairwise_1nn_error(states, labels, i, j)
                if err > 0:
                    bad.append((names[i], names[j], err))
        assert not bad, f"unexpectedly confusable pairs: {bad}"

    def test_overlap_pairs_do_overlap_with_noise(self):
        # the designed confusion: overtaking glide windows vs parallel driving
        spec = SynthSpec(
            counts={"OFL": 40, "PDIL": 40, "OFR": 40, "PDIR": 40},
            length=20, noise=1.0, seed=9,
        )
        trajs, names = gen_dataset(spec)
        windows, _ = window_all(trajs)
        states, labels = windows.states, windows.labels
        e1 = pairwise_1nn_error(states, labels, names.index("OFL"),
                                names.index("PDIL"))
        e2 = pairwise_1nn_error(states, labels, names.index("OFR"),
                                names.index("PDIR"))
        assert e1 > 0.02
        assert e2 > 0.02
