"""Trajectory ingestion, windowing, filtering, splitting, and resampling.

An agent's track is one `Trajectory` of per-frame arrays and a set of
windows is one `Windows` of parallel arrays. `window_all` gathers every
window with one index array; every later step selects, reorders or
rescales them with index arrays and masks, and the prepared-dataset dump
stores them as they are. Loading a dump checks its arrays by the one rule
for stored arrays, `container.require_arrays`, then their index ranges.

All operations are pure: inputs are never mutated, so every function can be
called concurrently. The split is stratified per class (with heavy
imbalance an unstratified 8:2 split can leave a test class empty). The
split unit is the window, not the trajectory; overlapping windows
from one trajectory may land in both splits, which is accepted and
documented as a known leakage caveat of per-window evaluation.

Trajectory file format: UTF-8 CSV with header
`agent_id,kind,frame,x,y,z,d,label`, one point per row. `label` holds a
class-name string; the companion label-map file holds `class_index,
class_name` rows. Direction `d` is radians internally; ingestion can
convert from degrees.

Ingestion is columnar: one csv.reader pass, whole columns converted with
Python `int` and `float`, and one lexsort over (unknown label, agent,
frame) that groups the agents, each Trajectory a slice of the sorted
arrays, and gives the cross-row checks (unknown label, repeated (agent,
frame), changed kind) as masks over the rows. Only the checks a row fails
on its own (field count, kind, numbers, negative frame, frame past int64,
non-finite value) are worded row by row, by the same columnar checks run
on that row alone within the blocks of 1,024 rows that fail them as a
whole. Each row reports its first failing check, in row order; the report
counts every such row and quotes the first 20.
Writing formats each row from `repr` of the state floats, with the text
fields quoted once by csv.writer.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import chain, repeat

import numpy as np

from .container import (read_container, require_arrays, require_int, require_keys,
                         require_regular_file, require_str_list, write_container)
from .errors import CheckpointError, ConfigError, DataError, IngestError
from .rng import ROS, RUS, SPLIT, seeded_rng

AGENT_KINDS = ("vehicle", "pedestrian", "rider")
TRAJECTORY_COLUMNS = ("agent_id", "kind", "frame", "x", "y", "z", "d", "label")

WINDOW_SIZE = 5
STATE_FEATURES = 4               # x, y, z, d at every frame
MIN_TRAJECTORY_LEN = 7
MIN_CLASS_COUNT = 100
SPLIT_RATIO = 0.8
_MAX_FRAME = np.iinfo(np.int64).max
_STATS_BLOCK_ROWS = 16384          # rows per block of the normalization statistics
_REPORT_BLOCK_ROWS = 1024          # rows per block of the malformed-row report


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One agent's n tracked frames in increasing frame order, without
    repeats: row i is frame frames[i], with state states[i] and class
    label labels[i]."""

    agent_id: str
    agent_kind: str
    states: np.ndarray           # (n, STATE_FEATURES) float64, x,y,z,d (d radians in [-pi, pi))
    labels: np.ndarray           # (n,) int64
    frames: np.ndarray           # (n,) int64

    def __len__(self):
        return self.labels.shape[0]


@dataclass
class WindowSample:
    """One row of a `Windows`."""

    states: np.ndarray           # (WINDOW_SIZE, STATE_FEATURES) rows t-4..t, columns x,y,z,d
    label: int
    source: tuple                # (agent_id, end frame)


@dataclass(frozen=True, eq=False)
class Windows:
    """N windows; row i is frames end_frame[i]-4..end_frame[i] of agent
    agents[agent_idx[i]], labeled by its last point. An int index gives a
    WindowSample; a slice, mask or index array gives those rows, in that
    order, as a Windows sharing `agents`."""

    states: np.ndarray           # (N, WINDOW_SIZE, STATE_FEATURES) float64, columns x,y,z,d
    labels: np.ndarray           # (N,) int64
    agent_idx: np.ndarray        # (N,) int64 into agents
    end_frame: np.ndarray        # (N,) int64
    agents: list                 # agent ids

    def __len__(self):
        return self.labels.shape[0]

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            i = range(len(self))[key]
            return WindowSample(
                states=self.states[i], label=int(self.labels[i]),
                source=(self.agents[self.agent_idx[i]], int(self.end_frame[i])),
            )
        return Windows(self.states[key], self.labels[key], self.agent_idx[key],
                       self.end_frame[key], self.agents)


def as_windows(samples):
    """`samples` as a Windows: a Windows as is, a sequence of WindowSample
    rows stacked in order."""
    if isinstance(samples, Windows):
        return samples
    rows = list(samples)
    pos = {}
    agent_idx = [pos.setdefault(s.source[0], len(pos)) for s in rows]
    states = np.array([s.states for s in rows], dtype=np.float64)
    return Windows(states if rows else np.zeros((0, WINDOW_SIZE, STATE_FEATURES)),
                   np.array([s.label for s in rows], dtype=np.int64),
                   np.array(agent_idx, dtype=np.int64),
                   np.array([s.source[1] for s in rows], dtype=np.int64), list(pos))


@dataclass
class DatasetSplit:
    train: Windows               # or, for training and evaluation only,
    test: Windows                # a sequence of WindowSample rows
    class_names: list
    seed: int


@dataclass
class PreparedDataset:
    """A split plus everything needed to reproduce and consume it."""

    split: DatasetSplit
    config: dict = field(default_factory=dict)
    loss_weights: np.ndarray | None = None
    normalization: dict | None = None


def wrap_angles(d):
    """The angles `d` (radians, an array) wrapped to [-pi, pi); values
    already in range come back as they are, bit for bit."""
    out = np.remainder(d + math.pi, 2.0 * math.pi) - math.pi
    out[out >= math.pi] -= 2.0 * math.pi     # rounding can land on pi
    return np.where((-math.pi <= d) & (d < math.pi), d, out)


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

@contextmanager
def open_text(path, error):
    """`path` opened as UTF-8 text for reading. A path that is not a regular
    file (missing, a directory, a FIFO, a device: `require_regular_file`),
    that cannot be opened (no permission) or that is not UTF-8 raises `error`
    naming the path, and the file offset of the first byte that is not."""
    require_regular_file(path, error)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise error(f"{path}: cannot read ({exc.strerror or exc})") from exc
    except UnicodeDecodeError as exc:
        # the reader decodes chunk by chunk, and exc.start counts from the
        # chunk's start: decoding the whole file once gives the file offset
        try:
            with open(path, "rb") as raw:
                raw.read().decode("utf-8")
        except UnicodeDecodeError as whole:
            exc = whole
        raise error(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc


def _csv_rows(path, fh):
    """The list of rows csv.reader reads from `fh`; a row it rejects (such as
    a field past its size limit) raises IngestError naming the row. Rows are
    counted as the reader returns them, so a quoted newline starts none."""
    rows = []
    try:
        rows.extend(csv.reader(fh))
    except csv.Error as exc:
        raise IngestError(f"{path}: row {len(rows) + 1}: {exc}") from exc
    return rows


def load_label_map(path):
    """Read `class_index,class_name` rows into an ordered name list."""
    entries = {}
    with open_text(path, IngestError) as fh:
        for lineno, row in enumerate(_csv_rows(path, fh), start=1):
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


def _columns(rows):
    """The rows as columns (agent ids, kinds, labels: tuples of strings;
    frames (n,) int64; x,y,z,d (n, 4) float64), or, if a row fails a check
    of its own, the report text of the first check failed, in this order:
    field count, kind, numbers, negative frame, frame past int64, non-finite
    value. For one row that text is the row's report."""
    if not set(map(len, rows)) <= {len(TRAJECTORY_COLUMNS)}:
        return f"expected {len(TRAJECTORY_COLUMNS)} fields"
    agents, kinds, frames, *coords, labels = zip(*rows) if rows else [()] * 8
    if not set(kinds).issubset(AGENT_KINDS):
        return f"unknown agent kind {next(k for k in kinds if k not in AGENT_KINDS)!r}"
    try:
        frames = list(map(int, frames))
        coords = np.fromiter(map(float, chain(*coords)), np.float64,
                             4 * len(rows)).reshape(4, -1).T
    except ValueError:
        return "non-numeric field"
    if frames and min(frames) < 0:
        return f"negative frame {min(frames)}"
    if frames and max(frames) > _MAX_FRAME:
        return f"frame {max(frames)} does not fit in int64"
    if not np.isfinite(coords).all():
        return "non-finite coordinate"
    return agents, kinds, labels, np.array(frames, np.int64), coords


def load_trajectories(path, class_names=None, degrees=False):
    """Parse a trajectory file into one Trajectory per agent.

    Returns (trajectories, class_names). With a label map the file's label
    strings must resolve against it; otherwise names are collected and
    ordered alphabetically. Malformed rows are reported together with their
    row numbers: first every row that fails a check on its own, else every
    row with an unknown label, a repeated (agent, frame) or a kind change.
    A row with an unknown label takes part in no later check, and a repeat
    neither sets its agent's kind nor is held to it.
    """
    with open_text(path, IngestError) as fh:
        rows = _csv_rows(path, fh)
    header = rows.pop(0) if rows else None
    if header is None or tuple(h.strip() for h in header) != TRAJECTORY_COLUMNS:
        raise IngestError(
            f"{path}: expected header {','.join(TRAJECTORY_COLUMNS)}, got {header}"
        )
    columns = _columns(rows if all(rows) else [row for row in rows if row])
    if isinstance(columns, str):
        # a block passes `_columns` exactly when each of its rows does, so
        # only the rows of failing blocks are checked one by one
        numbered = [(lineno, row) for lineno, row in enumerate(rows, start=2) if row]
        problems = []
        for lo in range(0, len(numbered), _REPORT_BLOCK_ROWS):
            block = numbered[lo:lo + _REPORT_BLOCK_ROWS]
            if isinstance(_columns([row for _, row in block]), str):
                problems += [f"row {lineno}: {p}" for lineno, row in block
                             if isinstance(p := _columns([row]), str)]
        raise IngestError(f"{path}: {len(problems)} malformed rows: " + "; ".join(problems[:20]))
    agents, kinds, labels, frames, states = columns

    if class_names is None:
        class_names = sorted(set(labels))
    name_to_idx = {name: i for i, name in enumerate(class_names)}
    ids = sorted(set(agents))
    code = np.fromiter(map(dict(zip(ids, range(len(ids)))).__getitem__, agents),
                       np.int64, len(agents))
    kind = np.fromiter(map(AGENT_KINDS.index, kinds), np.int64, len(kinds))
    label = np.fromiter(map(name_to_idx.get, labels, repeat(-1)), np.int64, len(labels))
    # each cross-row rule is a mask over the rows in file order. A stable
    # sort with the known labels first keeps file order within each run of
    # one (agent, frame), so a run's first row is the one its others repeat.
    unknown = label < 0
    order = np.lexsort((frames, code, unknown))
    at = np.arange(len(order))
    run_code, run_frame = code[order], frames[order]
    head = np.ones(len(order), bool)
    head[1:] = (run_code[1:] != run_code[:-1]) | (run_frame[1:] != run_frame[:-1])
    first = np.empty_like(order)
    first[order] = order[np.maximum.accumulate(np.where(head, at, 0))]
    repeated = ~unknown & (first < at)
    # an agent's kind is that of its first row in the file that has a known
    # label and repeats no other; only such rows are held to it
    kept = np.flatnonzero(~(unknown | repeated))
    agent_kind = np.zeros(len(ids), np.int64)
    present, at_first = np.unique(code[kept], return_index=True)
    agent_kind[present] = kind[kept[at_first]]
    changed = ~(unknown | repeated) & (kind != agent_kind[code])
    bad = np.flatnonzero(unknown | repeated | changed)
    if bad.size:
        lineno = [i for i, row in enumerate(rows, start=2) if row]
        problems = []
        for i in bad[:20].tolist():
            if unknown[i]:
                problem = f"label {labels[i]!r} not in label map"
            elif repeated[i]:
                problem = (f"duplicate (agent_id, frame) {(agents[i], int(frames[i]))} "
                           f"first seen at row {lineno[first[i]]}")
            else:
                problem = (f"agent {agents[i]!r} changes kind "
                           f"{AGENT_KINDS[agent_kind[code[i]]]!r} -> {kinds[i]!r}")
            problems.append(f"row {lineno[i]}: {problem}")
        raise IngestError(f"{path}: {bad.size} bad rows: " + "; ".join(problems))

    code, kind, label, frames, states = (a[order] for a in (code, kind, label, frames, states))
    if degrees:
        states[:, 3] = np.radians(states[:, 3])
    states[:, 3] = wrap_angles(states[:, 3])
    bounds = np.searchsorted(code, np.arange(len(ids) + 1)).tolist()
    return [Trajectory(agent_id, AGENT_KINDS[kind[lo]], states[lo:hi], label[lo:hi], frames[lo:hi])
            for agent_id, lo, hi in zip(ids, bounds, bounds[1:])], list(class_names)


def save_trajectories(trajectories, class_names, path):
    """Write the documented trajectory CSV, as csv.writer does; floats use
    shortest-roundtrip repr."""
    quoted = [_csv_field(name) for name in class_names]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(TRAJECTORY_COLUMNS) + "\r\n")
        for t in trajectories:
            head = f"{_csv_field(t.agent_id)},{_csv_field(t.agent_kind)},"
            fh.write("".join([
                f"{head}{frame},{x!r},{y!r},{z!r},{d!r},{quoted[label]}\r\n"
                for frame, (x, y, z, d), label in zip(t.frames.tolist(), t.states.tolist(),
                                                      t.labels.tolist())]))


class _Echo:
    """A file whose write returns the text it is given, which
    csv.writer.writerow passes on as its own return value."""

    @staticmethod
    def write(text):
        return text


_ECHO_WRITER = csv.writer(_Echo())


def _csv_field(value):
    """`value` as csv.writer writes it as one field of a row: the row
    `value,` less the `,` of its empty last field and the line end."""
    return _ECHO_WRITER.writerow((value, ""))[:-3]


# ---------------------------------------------------------------------------
# Pipeline operations
# ---------------------------------------------------------------------------

def filter_short(trajectories):
    """Keep exactly the trajectories with at least MIN_TRAJECTORY_LEN points."""
    return [t for t in trajectories if len(t) >= MIN_TRAJECTORY_LEN]


def window_all(trajectories):
    """Every window of every trajectory, in trajectory then frame order.

    A window covers WINDOW_SIZE consecutive frames of one trajectory and is
    labeled by its last point; windows that span a tracking gap (a jump of
    more than one frame) are skipped. Returns (windows, number skipped).
    """
    short = [t for t in trajectories if len(t) < WINDOW_SIZE]
    if short:
        raise ConfigError(
            f"trajectory {short[0].agent_id!r} has {len(short[0])} points, "
            f"shorter than window size {WINDOW_SIZE}; filter first"
        )
    rows = np.concatenate([np.zeros((0, STATE_FEATURES))] + [t.states for t in trajectories])
    labels = np.concatenate([np.zeros(0, np.int64)] + [t.labels for t in trajectories])
    frames = np.concatenate([np.zeros(0, np.int64)] + [t.frames for t in trajectories])
    owner = np.repeat(np.arange(len(trajectories)), [len(t) for t in trajectories])
    starts = np.arange(len(frames) - WINDOW_SIZE + 1)
    ends = starts + WINDOW_SIZE - 1
    inside = owner[starts] == owner[ends]
    gap = frames[ends] - frames[starts] != WINDOW_SIZE - 1
    starts, ends = starts[inside & ~gap], ends[inside & ~gap]
    windows = Windows(
        states=rows[starts[:, None] + np.arange(WINDOW_SIZE)],
        labels=labels[ends],
        agent_idx=owner[ends],
        end_frame=frames[ends],
        agents=[t.agent_id for t in trajectories],
    )
    return windows, int((inside & gap).sum())


def class_histogram(windows, num_classes):
    return np.bincount(windows.labels, minlength=num_classes)


def _counts_of_every_class(windows, num_classes, action):
    """Per-class counts; raises ConfigError if a class has no window."""
    counts = class_histogram(windows, num_classes)
    if (counts == 0).any():
        empty = int(np.nonzero(counts == 0)[0][0])
        raise ConfigError(f"cannot {action}: class index {empty} is empty")
    return counts


def filter_rare_classes(windows, class_names, min_count=MIN_CLASS_COUNT):
    """Drop classes with fewer than `min_count` windows and re-densify labels.

    Returns (windows, kept class names).
    """
    counts = class_histogram(windows, len(class_names))
    kept = np.flatnonzero(counts >= min_count)
    if not kept.size:
        raise ConfigError(
            f"no class reaches the minimum count {min_count}; "
            f"largest class has {int(counts.max()) if counts.size else 0} samples"
        )
    new_label = np.full(len(class_names), -1, dtype=np.int64)
    new_label[kept] = np.arange(kept.size)
    keep = new_label[windows.labels] >= 0
    filtered = replace(windows[keep], labels=new_label[windows.labels[keep]])
    return filtered, [class_names[i] for i in kept]


def split(windows, class_names, ratio=SPLIT_RATIO, seed=0):
    """Stratified shuffled split: per class, floor(ratio*n) to train with at
    least one window on each side."""
    if not 0.0 < ratio < 1.0:
        raise ConfigError(f"split ratio must lie strictly between 0 and 1, got {ratio}")
    rng = seeded_rng(seed, SPLIT)
    train_idx = [np.zeros(0, dtype=np.int64)]
    test_idx = [np.zeros(0, dtype=np.int64)]
    for c, name in enumerate(class_names):
        idxs = np.flatnonzero(windows.labels == c)
        n = idxs.size
        if n < 2:
            raise ConfigError(
                f"class {name!r} has {n} sample(s); need at least 2 to split"
            )
        shuffled = idxs[rng.permutation(n)]
        n_train = min(max(int(math.floor(ratio * n)), 1), n - 1)
        train_idx.append(shuffled[:n_train])
        test_idx.append(shuffled[n_train:])
    return DatasetSplit(
        train=windows[np.concatenate(train_idx)],
        test=windows[np.concatenate(test_idx)],
        class_names=list(class_names),
        seed=seed,
    )


def ros(windows, num_classes, seed=0):
    """Random over-sampling: append minority windows (uniform, with
    replacement) until every class matches the pre-ROS maximum count."""
    counts = _counts_of_every_class(windows, num_classes, "oversample")
    target = int(counts.max())
    rng = seeded_rng(seed, ROS)
    picks = [np.arange(len(windows))]
    for c in range(num_classes):
        deficit = target - counts[c]
        if deficit > 0:
            members = np.flatnonzero(windows.labels == c)
            picks.append(members[rng.integers(0, counts[c], size=deficit)])
    return windows[np.concatenate(picks)]


def rus(windows, num_classes, seed=0):
    """Random under-sampling: per class, keep a uniform without-replacement
    subset of the pre-RUS minimum count (original order preserved)."""
    counts = _counts_of_every_class(windows, num_classes, "undersample")
    target = int(counts.min())
    rng = seeded_rng(seed, RUS)
    keep = [np.flatnonzero(windows.labels == c)[rng.choice(int(n), size=target, replace=False)]
            for c, n in enumerate(counts)]
    return windows[np.sort(np.concatenate(keep))]


def class_weights(windows, num_classes):
    """Inverse-frequency weights w_c = N / (C * n_c); sums w_c*n_c back to N."""
    counts = _counts_of_every_class(windows, num_classes, "weight classes")
    n = counts.sum()
    return n / (num_classes * counts.astype(np.float64))


def _require_finite(values, what):
    """Raise DataError naming each state feature with a non-finite value in
    `values` (features on the last axis)."""
    if np.isfinite(values).all():
        return
    bad = ~np.isfinite(values.reshape(-1, STATE_FEATURES)).all(axis=0)
    names = ", ".join(TRAJECTORY_COLUMNS[3 + i] for i in np.flatnonzero(bad))
    raise DataError(
        f"{what} of feature {names} are not finite: coordinates too large to standardize"
    )


def _column_mean_std(rows):
    """Per-column mean and std of `rows` (N, F), with the bits of
    `rows.mean(axis=0)` and `rows.std(axis=0)`.

    The mean is that one axis-0 reduction, which adds the rows in sequence.
    The squared deviations run _STATS_BLOCK_ROWS rows at a time through one
    buffer, so no temporary is the size of `rows`. Each block is reduced
    together with the running total in the buffer's first row, row after
    row from a zero start: the order of the axis-0 reduction of the whole
    array. No rows give NaN statistics."""
    n = rows.shape[0]
    mean = np.add.reduce(rows, axis=0) / n
    buf = np.empty((min(n, _STATS_BLOCK_ROWS) + 1, rows.shape[1]))
    buf[0] = 0.0
    for lo in range(0, n, _STATS_BLOCK_ROWS):
        part = rows[lo:lo + _STATS_BLOCK_ROWS]
        block = buf[1:1 + len(part)]
        np.subtract(part, mean, out=block)
        block *= block
        buf[0] = np.add.reduce(buf[:1 + len(part)], axis=0)
    return mean, np.sqrt(buf[0] / n)


def standardize_stats(windows):
    """Per-feature mean/std computed on the given (training) windows.

    Finite coordinates can still overflow float64 when summed or squared;
    non-finite statistics, and those of no windows, raise DataError naming
    the feature."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = _column_mean_std(windows.states.reshape(-1, STATE_FEATURES))
    _require_finite(np.stack([mean, std]), "normalization statistics")
    std = np.where(std > 1e-12, std, 1.0)
    return {"mean": mean.tolist(), "std": std.tolist()}


def apply_standardization(windows, stats):
    mean = np.asarray(stats["mean"])
    std = np.asarray(stats["std"])
    with np.errstate(over="ignore", invalid="ignore"):
        states = windows.states - mean
        states /= std   # in place: one state-sized array, not two
    _require_finite(states, "standardized states")
    return replace(windows, states=states)


# ---------------------------------------------------------------------------
# Prepared-dataset dump
# ---------------------------------------------------------------------------

# (shape past the window axis, dtype) of each array a dump stores per split
_SPLIT_FIELDS = {"states": ((WINDOW_SIZE, STATE_FEATURES), np.float64),
                 "labels": ((), np.int64), "agents": ((), np.int64), "frames": ((), np.int64)}


def _number_agents(train, test):
    """(agent ids, train indices, test indices), numbered by first appearance,
    train first. Both splits must index the one `agents` list of their windowing."""
    idx = np.concatenate([train.agent_idx, test.agent_idx])
    used, first, inverse = np.unique(idx, return_index=True, return_inverse=True)
    order = np.argsort(first)
    renumbered = np.argsort(order)[inverse]
    return [train.agents[i] for i in used[order]], renumbered[:len(train)], renumbered[len(train):]


def save_prepared(dataset, path):
    """Write `dataset` to the container file `path`; returns the file's sha256."""
    train, test = dataset.split.train, dataset.split.test
    agents, train_agents, test_agents = _number_agents(train, test)
    meta = {
        "class_names": dataset.split.class_names,
        "seed": dataset.split.seed,
        "config": dataset.config,
        "agents": agents,
        "normalization": dataset.normalization,
        "has_loss_weights": dataset.loss_weights is not None,
    }
    arrays = {}
    for part, w, agent_idx in (("train", train, train_agents), ("test", test, test_agents)):
        arrays.update({f"{part}_states": w.states, f"{part}_labels": w.labels,
                       f"{part}_agents": agent_idx, f"{part}_frames": w.end_frame})
    if dataset.loss_weights is not None:
        arrays["loss_weights"] = np.asarray(dataset.loss_weights, dtype=np.float64)
    return write_container(path, "dataset", meta, arrays)


def _split_windows(path, arrays, part, agents, num_classes):
    """The `part` split of a dataset dump as Windows, after checking that its
    labels and agent indices are in range."""
    w = Windows(*(arrays[f"{part}_{key}"] for key in _SPLIT_FIELDS), agents)
    for name, values, upper in (("labels", w.labels, num_classes),
                                ("agents", w.agent_idx, len(agents))):
        if len(values) and not 0 <= values.min() <= values.max() < upper:
            raise CheckpointError(
                f"{path}: dataset array '{part}_{name}' holds values outside [0, {upper})"
            )
    return w


def load_prepared(path):
    kind, meta, arrays = read_container(path)
    if kind != "dataset":
        raise DataError(f"{path}: expected a prepared dataset, found {kind!r}")
    require_keys(path, meta, ("agents", "class_names", "has_loss_weights", "seed"),
                 "dataset metadata")
    class_names = require_str_list(path, meta["class_names"], "dataset 'class_names'")
    agents = require_str_list(path, meta["agents"], "dataset 'agents'")
    num_classes = len(class_names)
    expected = {f"{part}_{key}": ((part, *dims), dtype)
                for part in ("train", "test") for key, (dims, dtype) in _SPLIT_FIELDS.items()}
    has_weights = meta["has_loss_weights"]
    if not isinstance(has_weights, bool):
        raise CheckpointError(f"{path}: dataset 'has_loss_weights' is {has_weights!r}, "
                              "not a bool")
    if has_weights:
        expected["loss_weights"] = ((num_classes,), np.float64)
    require_arrays(path, arrays, expected, "dataset array")
    seed = require_int(path, meta["seed"], "dataset 'seed'", 0)
    config = meta.get("config", {})
    if not isinstance(config, dict):
        raise CheckpointError(f"{path}: dataset 'config' is {config!r}, not a JSON object")
    split_ = DatasetSplit(
        train=_split_windows(path, arrays, "train", agents, num_classes),
        test=_split_windows(path, arrays, "test", agents, num_classes),
        class_names=class_names,
        seed=seed,
    )
    return PreparedDataset(
        split=split_,
        config=dict(config),
        loss_weights=arrays.get("loss_weights"),
        normalization=meta.get("normalization"),
    )
