"""Trajectory ingestion, windowing, filtering, splitting, and resampling.

All operations are pure: inputs are never mutated, so every function can be
called concurrently. The split is stratified per class (with heavy
imbalance an unstratified 8:2 split can leave a test class empty). The
split unit is the window sample, not the trajectory; overlapping windows
from one trajectory may land in both splits, which is accepted and
documented as a known leakage caveat of per-window evaluation.

Trajectory file format: UTF-8 CSV with header
`agent_id,kind,frame,x,y,z,d,label`, one point per row. `label` holds a
class-name string; the companion label-map file holds `class_index,
class_name` rows. Direction `d` is radians internally; ingestion can
convert from degrees.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .container import read_container, require_keys, write_container
from .errors import ConfigError, DataError, IngestError
from .rng import ROS, RUS, SPLIT, seeded_rng

AGENT_KINDS = ("vehicle", "pedestrian", "rider")
TRAJECTORY_COLUMNS = ("agent_id", "kind", "frame", "x", "y", "z", "d", "label")

WINDOW_SIZE = 5
MIN_TRAJECTORY_LEN = 7
MIN_CLASS_COUNT = 100
SPLIT_RATIO = 0.8


@dataclass(frozen=True)
class TrajectoryPoint:
    x: float
    y: float
    z: float
    d: float        # radians in [-pi, pi)
    label: int
    frame: int


@dataclass
class Trajectory:
    agent_id: str
    agent_kind: str
    points: list

    def __len__(self):
        return len(self.points)


@dataclass
class WindowSample:
    states: np.ndarray           # (window, 4) rows t-4..t, columns x,y,z,d
    label: int
    source: tuple                # (agent_id, end frame)


@dataclass
class DatasetSplit:
    train: list
    test: list
    class_names: list
    seed: int


@dataclass
class PreparedDataset:
    """A split plus everything needed to reproduce and consume it."""

    split: DatasetSplit
    config: dict = field(default_factory=dict)
    loss_weights: np.ndarray | None = None
    normalization: dict | None = None


def normalize_angle(d):
    """Wrap an angle to [-pi, pi); exact no-op for in-range values."""
    if -math.pi <= d < math.pi:
        return d
    out = (d + math.pi) % (2.0 * math.pi) - math.pi
    if out >= math.pi:     # guard against rounding at the wrap boundary
        out -= 2.0 * math.pi
    return out


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

def load_label_map(path):
    """Read `class_index,class_name` rows into an ordered name list."""
    entries = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].startswith("#"):
                continue
            if len(row) != 2:
                raise IngestError(f"{path}: row {lineno}: expected index,name")
            try:
                idx = int(row[0])
            except ValueError as exc:
                raise IngestError(f"{path}: row {lineno}: bad index {row[0]!r}") from exc
            if idx in entries:
                raise IngestError(f"{path}: row {lineno}: duplicate index {idx}")
            entries[idx] = row[1]
    if sorted(entries) != list(range(len(entries))):
        raise IngestError(f"{path}: class indices must be dense 0..C-1")
    return [entries[i] for i in range(len(entries))]


def save_label_map(class_names, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for i, name in enumerate(class_names):
            writer.writerow([i, name])


def load_trajectories(path, class_names=None, degrees=False):
    """Parse a trajectory file into one Trajectory per agent.

    Returns (trajectories, class_names). With a label map the file's label
    strings must resolve against it; otherwise names are collected and
    ordered alphabetically. Malformed rows are collected and reported
    together with their row numbers.
    """
    rows = []
    problems = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != TRAJECTORY_COLUMNS:
            raise IngestError(
                f"{path}: expected header {','.join(TRAJECTORY_COLUMNS)}, got {header}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(TRAJECTORY_COLUMNS):
                problems.append(f"row {lineno}: expected {len(TRAJECTORY_COLUMNS)} fields")
                continue
            agent_id, kind, frame_s, xs, ys, zs, ds, label = row
            if kind not in AGENT_KINDS:
                problems.append(f"row {lineno}: unknown agent kind {kind!r}")
                continue
            try:
                frame = int(frame_s)
                x, y, z, d = float(xs), float(ys), float(zs), float(ds)
            except ValueError:
                problems.append(f"row {lineno}: non-numeric field")
                continue
            if frame < 0:
                problems.append(f"row {lineno}: negative frame {frame}")
                continue
            if not all(math.isfinite(v) for v in (x, y, z, d)):
                problems.append(f"row {lineno}: non-finite coordinate")
                continue
            rows.append((lineno, agent_id, kind, frame, x, y, z, d, label))
    if problems:
        raise IngestError(f"{path}: {len(problems)} malformed rows: " + "; ".join(problems[:20]))

    if class_names is None:
        class_names = sorted({r[8] for r in rows})
    name_to_idx = {name: i for i, name in enumerate(class_names)}

    by_agent = {}
    seen_frames = {}
    for lineno, agent_id, kind, frame, x, y, z, d, label in rows:
        if label not in name_to_idx:
            problems.append(f"row {lineno}: label {label!r} not in label map")
            continue
        key = (agent_id, frame)
        if key in seen_frames:
            problems.append(
                f"row {lineno}: duplicate (agent_id, frame) "
                f"{key} first seen at row {seen_frames[key]}"
            )
            continue
        seen_frames[key] = lineno
        if degrees:
            d = math.radians(d)
        point = TrajectoryPoint(
            x=x, y=y, z=z, d=normalize_angle(d), label=name_to_idx[label], frame=frame
        )
        entry = by_agent.setdefault(agent_id, {"kind": kind, "points": [], "row": lineno})
        if entry["kind"] != kind:
            problems.append(
                f"row {lineno}: agent {agent_id!r} changes kind "
                f"{entry['kind']!r} -> {kind!r}"
            )
            continue
        entry["points"].append(point)
    if problems:
        raise IngestError(f"{path}: {len(problems)} bad rows: " + "; ".join(problems[:20]))

    trajectories = []
    for agent_id in sorted(by_agent):
        entry = by_agent[agent_id]
        points = sorted(entry["points"], key=lambda p: p.frame)
        trajectories.append(
            Trajectory(agent_id=agent_id, agent_kind=entry["kind"], points=points)
        )
    return trajectories, list(class_names)


def save_trajectories(trajectories, class_names, path):
    """Write the documented trajectory CSV; floats use shortest-roundtrip repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_COLUMNS)
        for traj in trajectories:
            for p in traj.points:
                writer.writerow(
                    [traj.agent_id, traj.agent_kind, p.frame,
                     repr(p.x), repr(p.y), repr(p.z), repr(p.d),
                     class_names[p.label]]
                )


# ---------------------------------------------------------------------------
# Pipeline operations
# ---------------------------------------------------------------------------

def filter_short(trajectories, min_len=MIN_TRAJECTORY_LEN):
    """Keep exactly the trajectories with at least `min_len` points."""
    return [t for t in trajectories if len(t.points) >= min_len]


def window(trajectory, size=WINDOW_SIZE, stride=1, return_skipped=False):
    """Slide a fixed window; each sample is labeled by its last point.

    A window must cover `size` consecutive frames: windows that span a
    tracking gap (a jump of more than one frame) are skipped. Points are
    taken to be in frame order without repeats, as `load_trajectories`
    returns them. With `return_skipped`, returns (samples, number skipped).
    """
    n = len(trajectory.points)
    if n < size:
        raise ConfigError(
            f"trajectory {trajectory.agent_id!r} has {n} points, "
            f"shorter than window size {size}; filter first"
        )
    frames = [p.frame for p in trajectory.points]
    samples = []
    skipped = 0
    for start in range(0, n - size + 1, stride):
        if frames[start + size - 1] - frames[start] != size - 1:
            skipped += 1
            continue
        pts = trajectory.points[start:start + size]
        states = np.array([[p.x, p.y, p.z, p.d] for p in pts], dtype=np.float64)
        last = pts[-1]
        samples.append(
            WindowSample(states=states, label=last.label,
                         source=(trajectory.agent_id, last.frame))
        )
    return (samples, skipped) if return_skipped else samples


def window_all(trajectories, size=WINDOW_SIZE, stride=1, return_skipped=False):
    samples = []
    skipped = 0
    for traj in trajectories:
        s, k = window(traj, size=size, stride=stride, return_skipped=True)
        samples.extend(s)
        skipped += k
    return (samples, skipped) if return_skipped else samples


def class_histogram(samples, num_classes):
    counts = np.zeros(num_classes, dtype=np.int64)
    for s in samples:
        counts[s.label] += 1
    return counts


def filter_rare_classes(samples, class_names, min_count=MIN_CLASS_COUNT):
    """Drop classes with fewer than `min_count` samples and re-densify labels.

    Returns (samples, kept class names, old->new index map).
    """
    counts = class_histogram(samples, len(class_names))
    kept = [i for i in range(len(class_names)) if counts[i] >= min_count]
    if not kept:
        raise ConfigError(
            f"no class reaches the minimum count {min_count}; "
            f"largest class has {int(counts.max()) if counts.size else 0} samples"
        )
    old_to_new = {old: new for new, old in enumerate(kept)}
    filtered = [
        WindowSample(states=s.states, label=old_to_new[s.label], source=s.source)
        for s in samples
        if s.label in old_to_new
    ]
    return filtered, [class_names[i] for i in kept], old_to_new


def split(samples, class_names, ratio=SPLIT_RATIO, seed=0):
    """Stratified shuffled split: per class, floor(ratio*n) to train with at
    least one sample on each side."""
    num_classes = len(class_names)
    by_class = [[] for _ in range(num_classes)]
    for i, s in enumerate(samples):
        by_class[s.label].append(i)
    rng = seeded_rng(seed, SPLIT)
    train_idx, test_idx = [], []
    for c in range(num_classes):
        idxs = by_class[c]
        n = len(idxs)
        if n < 2:
            raise ConfigError(
                f"class {class_names[c]!r} has {n} sample(s); "
                "need at least 2 to split"
            )
        order = rng.permutation(n)
        n_train = min(max(int(math.floor(ratio * n)), 1), n - 1)
        shuffled = [idxs[i] for i in order]
        train_idx.extend(shuffled[:n_train])
        test_idx.extend(shuffled[n_train:])
    return DatasetSplit(
        train=[samples[i] for i in train_idx],
        test=[samples[i] for i in test_idx],
        class_names=list(class_names),
        seed=seed,
    )


def ros(train_samples, num_classes, seed=0):
    """Random over-sampling: duplicate minority samples (uniform, with
    replacement) until every class matches the pre-ROS maximum count."""
    counts = class_histogram(train_samples, num_classes)
    if (counts == 0).any():
        empty = int(np.nonzero(counts == 0)[0][0])
        raise ConfigError(f"cannot oversample: class index {empty} is empty")
    target = int(counts.max())
    by_class = [[] for _ in range(num_classes)]
    for s in train_samples:
        by_class[s.label].append(s)
    rng = seeded_rng(seed, ROS)
    out = list(train_samples)
    for c in range(num_classes):
        deficit = target - counts[c]
        if deficit > 0:
            picks = rng.integers(0, counts[c], size=deficit)
            out.extend(by_class[c][i] for i in picks)
    return out


def rus(train_samples, num_classes, seed=0):
    """Random under-sampling: per class, keep a uniform without-replacement
    subset of the pre-RUS minimum count (original order preserved)."""
    counts = class_histogram(train_samples, num_classes)
    if (counts == 0).any():
        empty = int(np.nonzero(counts == 0)[0][0])
        raise ConfigError(f"cannot undersample: class index {empty} is empty")
    target = int(counts.min())
    by_class = [[] for _ in range(num_classes)]
    for i, s in enumerate(train_samples):
        by_class[s.label].append(i)
    rng = seeded_rng(seed, RUS)
    keep = []
    for c in range(num_classes):
        idxs = by_class[c]
        chosen = rng.choice(len(idxs), size=target, replace=False)
        keep.extend(idxs[i] for i in sorted(chosen))
    keep.sort()
    return [train_samples[i] for i in keep]


def class_weights(train_samples, num_classes):
    """Inverse-frequency weights w_c = N / (C * n_c); sums w_c*n_c back to N."""
    counts = class_histogram(train_samples, num_classes)
    if (counts == 0).any():
        empty = int(np.nonzero(counts == 0)[0][0])
        raise ConfigError(f"cannot weight classes: class index {empty} is empty")
    n = counts.sum()
    return n / (num_classes * counts.astype(np.float64))


def samples_to_arrays(samples):
    """Stack WindowSamples into (states (N, 5, 4), labels (N,))."""
    if not samples:
        return np.zeros((0, WINDOW_SIZE, 4)), np.zeros(0, dtype=np.int64)
    states = np.stack([s.states for s in samples]).astype(np.float64)
    labels = np.array([s.label for s in samples], dtype=np.int64)
    return states, labels


def standardize_stats(samples):
    """Per-feature mean/std computed on the given (training) samples."""
    states, _ = samples_to_arrays(samples)
    mean = states.reshape(-1, states.shape[-1]).mean(axis=0)
    std = states.reshape(-1, states.shape[-1]).std(axis=0)
    std = np.where(std > 1e-12, std, 1.0)
    return {"mean": mean.tolist(), "std": std.tolist()}


def apply_standardization(samples, stats):
    mean = np.asarray(stats["mean"])
    std = np.asarray(stats["std"])
    return [
        WindowSample(states=(s.states - mean) / std, label=s.label, source=s.source)
        for s in samples
    ]


# ---------------------------------------------------------------------------
# Prepared-dataset dump
# ---------------------------------------------------------------------------

def _pack_sources(samples, agent_table):
    agent_idx = np.empty(len(samples), dtype=np.int64)
    frames = np.empty(len(samples), dtype=np.int64)
    for i, s in enumerate(samples):
        agent_idx[i] = agent_table.setdefault(s.source[0], len(agent_table))
        frames[i] = s.source[1]
    return agent_idx, frames


_SPLIT_ARRAYS = (
    "train_states", "train_labels", "train_agents", "train_frames",
    "test_states", "test_labels", "test_agents", "test_frames",
)


def save_prepared(dataset, path):
    split_ = dataset.split
    train_states, train_labels = samples_to_arrays(split_.train)
    test_states, test_labels = samples_to_arrays(split_.test)
    agent_table = {}
    train_agents, train_frames = _pack_sources(split_.train, agent_table)
    test_agents, test_frames = _pack_sources(split_.test, agent_table)
    agents = [a for a, _ in sorted(agent_table.items(), key=lambda kv: kv[1])]
    meta = {
        "class_names": split_.class_names,
        "seed": split_.seed,
        "config": dataset.config,
        "agents": agents,
        "normalization": dataset.normalization,
        "has_loss_weights": dataset.loss_weights is not None,
    }
    arrays = {
        "train_states": train_states,
        "train_labels": train_labels,
        "train_agents": train_agents,
        "train_frames": train_frames,
        "test_states": test_states,
        "test_labels": test_labels,
        "test_agents": test_agents,
        "test_frames": test_frames,
    }
    if dataset.loss_weights is not None:
        arrays["loss_weights"] = np.asarray(dataset.loss_weights, dtype=np.float64)
    write_container(path, "dataset", meta, arrays)


def _unpack_samples(states, labels, agent_idx, frames, agents):
    return [
        WindowSample(
            states=states[i],
            label=int(labels[i]),
            source=(agents[int(agent_idx[i])], int(frames[i])),
        )
        for i in range(states.shape[0])
    ]


def load_prepared(path):
    kind, meta, arrays = read_container(path)
    if kind != "dataset":
        raise DataError(f"{path}: expected a prepared dataset, found {kind!r}")
    require_keys(path, meta, ("agents", "class_names", "seed"), "dataset metadata")
    require_keys(path, arrays, _SPLIT_ARRAYS, "dataset")
    if meta.get("has_loss_weights"):
        require_keys(path, arrays, ("loss_weights",), "dataset")
    agents = meta["agents"]
    split_ = DatasetSplit(
        train=_unpack_samples(
            arrays["train_states"], arrays["train_labels"],
            arrays["train_agents"], arrays["train_frames"], agents,
        ),
        test=_unpack_samples(
            arrays["test_states"], arrays["test_labels"],
            arrays["test_agents"], arrays["test_frames"], agents,
        ),
        class_names=list(meta["class_names"]),
        seed=int(meta["seed"]),
    )
    weights = arrays["loss_weights"] if meta.get("has_loss_weights") else None
    return PreparedDataset(
        split=split_,
        config=dict(meta.get("config", {})),
        loss_weights=weights,
        normalization=meta.get("normalization"),
    )
