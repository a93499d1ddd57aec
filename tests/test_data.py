"""Data pipeline: ingestion, windowing, filtering, splitting, resampling."""

import csv
import math
import random
from dataclasses import replace
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from trajbehav import data as dmod
from trajbehav.cli import parse_kv_file
from trajbehav.data import (
    AGENT_KINDS,
    DatasetSplit,
    PreparedDataset,
    Trajectory,
    WindowSample,
    Windows,
    apply_standardization,
    as_windows,
    class_weights,
    filter_rare_classes,
    filter_short,
    load_label_map,
    load_prepared,
    load_trajectories,
    ros,
    rus,
    save_label_map,
    save_prepared,
    save_trajectories,
    split,
    standardize_stats,
    window_all,
    wrap_angles,
)
from trajbehav.errors import ConfigError, DataError, IngestError
from trajbehav.rng import ROS, RUS, SPLIT, seeded_rng

from conftest import make_samples


def make_traj(agent_id, n, label=0, kind="vehicle", start_frame=0):
    i = np.arange(n, dtype=np.float64)
    return Trajectory(
        agent_id=agent_id, agent_kind=kind,
        states=np.column_stack((i, 0.5 * i, np.zeros(n), 0.01 * i)),
        labels=np.full(n, label, dtype=np.int64),
        frames=start_frame + np.arange(n, dtype=np.int64),
    )


def traj_from_frames(agent_id, frames, labels=None):
    """A vehicle trajectory at `frames` with x = frame and the other states 0."""
    frames = np.asarray(frames, dtype=np.int64)
    states = np.zeros((len(frames), 4))
    states[:, 0] = frames
    labels = np.zeros(len(frames), dtype=np.int64) if labels is None else labels
    return Trajectory(agent_id, "vehicle", states, np.asarray(labels, dtype=np.int64), frames)


def assert_same_trajectory(got, want):
    """Same id, kind and bit-identical states, labels and frames."""
    assert (got.agent_id, got.agent_kind) == (want.agent_id, want.agent_kind)
    for name in ("states", "labels", "frames"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


class TestLoadSave:
    def test_two_row_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "agent_id,kind,frame,x,y,z,d,label\n"
            "a1,vehicle,0,1.0,2.0,0.0,0.1,USD\n"
            "a1,vehicle,1,1.1,2.0,0.0,0.1,USD\n"
        )
        trajs, names = load_trajectories(path)
        assert len(trajs) == 1
        assert len(trajs[0]) == 2
        assert names == ["USD"]
        assert trajs[0].agent_kind == "vehicle"

    def test_rows_out_of_order_sorted(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "agent_id,kind,frame,x,y,z,d,label\n"
            "a1,vehicle,2,3.0,0,0,0,USD\n"
            "a1,vehicle,0,1.0,0,0,0,USD\n"
            "a1,vehicle,1,2.0,0,0,0,USD\n"
        )
        trajs, _ = load_trajectories(path)
        assert trajs[0].frames.tolist() == [0, 1, 2]
        assert trajs[0].states[:, 0].tolist() == [1.0, 2.0, 3.0]
        assert trajs[0].states.shape == (3, 4) and trajs[0].states.dtype == np.float64
        assert trajs[0].frames.dtype == np.int64 and trajs[0].labels.dtype == np.int64

    def test_duplicate_frame_rejected_with_row_numbers(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "agent_id,kind,frame,x,y,z,d,label\n"
            "a1,vehicle,0,1,0,0,0,USD\n"
            "a1,vehicle,0,2,0,0,0,USD\n"
        )
        with pytest.raises(IngestError, match="row 3"):
            load_trajectories(path)

    def test_non_numeric_field_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "agent_id,kind,frame,x,y,z,d,label\n"
            "a1,vehicle,0,oops,0,0,0,USD\n"
        )
        with pytest.raises(IngestError, match="row 2"):
            load_trajectories(path)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("agent_id,kind,frame,x,y,z,d\na,vehicle,0,0,0,0,0\n")
        with pytest.raises(IngestError, match="header"):
            load_trajectories(path)

    def test_unknown_label_against_map(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "agent_id,kind,frame,x,y,z,d,label\n"
            "a1,vehicle,0,1,0,0,0,NOPE\n"
        )
        with pytest.raises(IngestError, match="NOPE"):
            load_trajectories(path, ["USD", "SA"])

    def test_degrees_conversion_and_angle_normalization(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "agent_id,kind,frame,x,y,z,d,label\n"
            "a1,vehicle,0,0,0,0,270.0,USD\n"
        )
        trajs, _ = load_trajectories(path, degrees=True)
        d = trajs[0].states[0, 3]
        assert -math.pi <= d < math.pi
        assert abs(d + math.pi / 2) < 1e-12

    def test_roundtrip_thousand_agents(self, tmp_path, rng):
        trajs = []
        names = ["A", "B", "C"]
        for i in range(1000):
            states = np.column_stack((rng.normal(size=(3, 3)), rng.uniform(-3, 3, size=3)))
            trajs.append(Trajectory(f"agent-{i:04d}", "rider", states,
                                    rng.integers(0, 3, size=3), np.arange(3)))
        path = tmp_path / "dump.csv"
        save_trajectories(trajs, names, path)
        back, names2 = load_trajectories(path, names)
        assert names2 == names
        assert len(back) == len(trajs)
        by_id = {t.agent_id: t for t in trajs}
        for t in back:
            assert_same_trajectory(t, by_id[t.agent_id])

    def test_roundtrip_frames_beyond_float64_precision(self, tmp_path):
        # float64 holds every integer only up to 2**53; frames must stay int64
        frames = np.array([2**53 + 1, 2**53 + 2, 2**53 + 4] + [2**63 - 5 + i for i in range(5)])
        traj = Trajectory("a", "vehicle", np.zeros((8, 4)), np.zeros(8, np.int64), frames)
        path = tmp_path / "t.csv"
        save_trajectories([traj], ["A"], path)
        (back,), _ = load_trajectories(path, ["A"])
        assert back.frames.tolist() == frames.tolist()
        windows, skipped = window_all([back])
        assert windows.end_frame.tolist() == [2**63 - 1] and skipped == 3

    def test_label_map_roundtrip(self, tmp_path):
        path = tmp_path / "labels.csv"
        save_label_map(["OFL", "USD", "S"], path)
        assert load_label_map(path) == ["OFL", "USD", "S"]

    def test_field_past_the_csv_size_limit_names_the_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "agent_id,kind,frame,x,y,z,d,label\n"
            "a1,vehicle,0,1,0,0,0,USD\n"
            "a1,vehicle,1,1,0,0,0," + "U" * (csv.field_size_limit() + 1) + "\n"
        )
        with pytest.raises(IngestError, match=r"t\.csv: row 3: field larger than field limit"):
            load_trajectories(path)

    def test_csv_error_names_the_logical_row_not_the_physical_line(self, tmp_path):
        """A quoted newline continues its row: the field past the limit is on
        physical line 5 but in row 4."""
        path = tmp_path / "t.csv"
        path.write_text(
            "agent_id,kind,frame,x,y,z,d,label\n"
            '"a\n1",vehicle,0,1,0,0,0,USD\n'
            "a1,vehicle,1,1,0,0,0,USD\n"
            "a1,vehicle,2,1,0,0,0," + "U" * (csv.field_size_limit() + 1) + "\n"
        )
        with pytest.raises(IngestError, match=r"t\.csv: row 4: field larger than field limit"):
            load_trajectories(path)

    def test_label_map_field_past_the_csv_size_limit_names_the_row(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("0,USD\n1," + "S" * (csv.field_size_limit() + 1) + "\n")
        with pytest.raises(IngestError, match=r"labels\.csv: row 2: field larger than field limit"):
            load_label_map(path)


CLASS_NAMES = ["A", "B", "C"]
_BIG = 1.7976931348623157e308   # largest finite float64


@st.composite
def trajectory_sets(draw, id_text=st.text("ab09-_.", min_size=1, max_size=5)):
    """Trajectories of random agents and kinds, with gaps between frames,
    any finite x/y/z and any d in [-pi, pi) (where ingestion leaves d as is)."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    angle = st.floats(min_value=-math.pi, max_value=math.pi, exclude_max=True)
    ids = draw(st.lists(id_text, min_size=1, max_size=5, unique=True))
    trajs = []
    for agent_id in ids:
        n = draw(st.integers(1, 8))
        start = draw(st.integers(0, 2**63 - 1 - 4 * 7))
        gaps = draw(st.lists(st.integers(1, 4), min_size=n - 1, max_size=n - 1))
        states = draw(st.lists(st.tuples(finite, finite, finite, angle), min_size=n, max_size=n))
        trajs.append(Trajectory(
            agent_id, draw(st.sampled_from(AGENT_KINDS)),
            np.array(states, dtype=np.float64).reshape(n, 4),
            np.array(draw(st.lists(st.integers(0, len(CLASS_NAMES) - 1),
                                   min_size=n, max_size=n)), dtype=np.int64),
            np.array(list(accumulate(gaps, initial=start)), dtype=np.int64),
        ))
    return trajs


class TestTrajectoryCSVProperties:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(trajs=trajectory_sets(), order=st.randoms(use_true_random=False))
    @example(trajs=[Trajectory(
        "x", "pedestrian",
        np.array([[-0.0, 5e-324, -2.5e-310, -0.0],
                  [_BIG, -_BIG, 2.2250738585072014e-308, -5e-324],
                  [0.0, -0.0, 5e-324, -math.pi],
                  [1e-310, 1.0, -1.0, math.nextafter(math.pi, 0.0)]]),
        np.array([2, 0, 1, 2]), np.array([0, 1, 3, 2**63 - 1]),
    )], order=random.Random(0))
    def test_csv_roundtrip_bit_identical(self, tmp_path, trajs, order):
        path = tmp_path / "t.csv"
        save_trajectories(trajs, CLASS_NAMES, path)
        header, *rows = path.read_bytes().splitlines(keepends=True)
        order.shuffle(rows)
        path.write_bytes(header + b"".join(rows))
        back, names = load_trajectories(path, CLASS_NAMES)
        assert names == CLASS_NAMES
        by_id = {t.agent_id: t for t in trajs}
        assert [t.agent_id for t in back] == sorted(by_id)
        for t in back:
            assert_same_trajectory(t, by_id[t.agent_id])


# ---------------------------------------------------------------------------
# The row-by-row trajectory CSV reader and csv.writer writer of earlier
# versions, kept as the reference of the columnar ones: same trajectories,
# same error text, same bytes.
# ---------------------------------------------------------------------------

def reference_wrap_angle(d):
    """The angle `d` wrapped to [-pi, pi); exact no-op for in-range values."""
    if -math.pi <= d < math.pi:
        return d
    out = (d + math.pi) % (2.0 * math.pi) - math.pi
    if out >= math.pi:     # guard against rounding at the wrap boundary
        out -= 2.0 * math.pi
    return out


def reference_load_trajectories(path, class_names=None, degrees=False):
    rows = []
    problems = []
    with dmod.open_text(path, IngestError) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != dmod.TRAJECTORY_COLUMNS:
            raise IngestError(
                f"{path}: expected header {','.join(dmod.TRAJECTORY_COLUMNS)}, got {header}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(dmod.TRAJECTORY_COLUMNS):
                problems.append(f"row {lineno}: expected {len(dmod.TRAJECTORY_COLUMNS)} fields")
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
            if frame > 2**63 - 1:
                problems.append(f"row {lineno}: frame {frame} does not fit in int64")
                continue
            if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)
                    and math.isfinite(d)):
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
        entry = by_agent.setdefault(agent_id, {"kind": kind, "rows": []})
        if entry["kind"] != kind:
            problems.append(
                f"row {lineno}: agent {agent_id!r} changes kind "
                f"{entry['kind']!r} -> {kind!r}"
            )
            continue
        entry["rows"].append((frame, x, y, z, reference_wrap_angle(d), name_to_idx[label]))
    if problems:
        raise IngestError(f"{path}: {len(problems)} bad rows: " + "; ".join(problems[:20]))

    trajectories = []
    for agent_id, entry in sorted(by_agent.items()):
        frames, x, y, z, d, labels = zip(*sorted(entry["rows"], key=lambda r: r[0]))
        trajectories.append(Trajectory(agent_id, entry["kind"], np.column_stack((x, y, z, d)),
                                       np.array(labels, np.int64), np.array(frames, np.int64)))
    return trajectories, list(class_names)


def reference_save_trajectories(trajectories, class_names, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(dmod.TRAJECTORY_COLUMNS)
        for t in trajectories:
            writer.writerows(
                [t.agent_id, t.agent_kind, frame, *map(repr, state), class_names[label]]
                for frame, state, label in zip(t.frames.tolist(), t.states.tolist(),
                                               t.labels.tolist()))


def load_outcome(load, path, class_names, degrees):
    """("ok", class names, each trajectory's fields and array bytes) or
    ("error", message) of an IngestError."""
    try:
        trajs, names = load(path, class_names, degrees)
    except IngestError as exc:
        return "error", str(exc)
    return "ok", names, [
        (t.agent_id, t.agent_kind,
         *((a.dtype.str, a.shape, a.tobytes()) for a in (t.states, t.labels, t.frames)))
        for t in trajs]


# Text that csv.writer must quote; frames and coordinates that int() and
# float() reject, accept in unusual spellings, or read as out of range.
_CSV_TEXT = st.text(st.sampled_from('ab ,"\r\n\x00\u00e9_-'), max_size=4)
_FRAME_TEXT = st.sampled_from(["-1", "-0", " 7 ", "1_0", "1__0", "1.0", "x", "", "\u0663",
                               str(2**63 - 1), str(2**63), "9" * 30])
_COORDINATE_TEXT = st.sampled_from([" 1.5 ", "1_0", "1__0", "1e400", "-inf", "nan", "inf", "abc",
                                    "", "0x1", "\u0663", "4.5e1", "1e-400"])
_DEFECTS = ("fields", "unknown kind", "kind change", "frame", "coordinate", "label")


@st.composite
def trajectory_files(draw):
    """(header, rows) of a trajectory CSV: well-formed rows of a few agents
    (so frames can repeat) and blank rows, then up to three defects, each
    in a random row: a wrong field count, an unknown or changed kind, or an
    odd frame, coordinate or label."""
    agents = draw(st.lists(_CSV_TEXT, min_size=1, max_size=3, unique=True))
    agent_kind = {a: draw(st.sampled_from(AGENT_KINDS)) for a in agents}
    header = list(dmod.TRAJECTORY_COLUMNS)
    if draw(st.integers(0, 4)) == 4:
        header[draw(st.integers(0, 7))] = draw(st.sampled_from([" x ", "frames", ""]))
    rows = []
    for _ in range(draw(st.integers(0, 14))):
        agent = draw(st.sampled_from(agents))
        rows.append([] if draw(st.integers(0, 9)) == 9 else [
            agent, agent_kind[agent], str(draw(st.integers(0, 40))),
            *(repr(draw(st.floats(-1e3, 1e3))) for _ in range(4)),
            draw(st.sampled_from(CLASS_NAMES))])
    for defect in draw(st.lists(st.sampled_from(_DEFECTS), max_size=3)) if rows else ():
        i = draw(st.integers(0, len(rows) - 1))
        row = rows[i] if len(rows[i]) == 8 else [agents[0], agent_kind[agents[0]], "0", "0",
                                                 "0", "0", "0", "A"]
        if defect == "fields":
            row = row[:draw(st.integers(1, 7))] if draw(st.booleans()) else row + [""]
        elif defect == "unknown kind":
            row[1] = draw(st.sampled_from(["car", "", "Vehicle", " rider"]))
        elif defect == "kind change":
            row[1] = draw(st.sampled_from([k for k in AGENT_KINDS if k != row[1]]))
        elif defect == "frame":
            row[2] = draw(_FRAME_TEXT)
        elif defect == "coordinate":
            row[draw(st.integers(3, 6))] = draw(_COORDINATE_TEXT)
        else:
            row[7] = draw(st.sampled_from(["D", "", "a,b"]))
        rows[i] = row
    return header, rows


def csv_row(agent, kind, frame, label):
    return [agent, kind, str(frame), "0", "0", "0", "0", label]


class TestTrajectoryCSVAgainstReference:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(file=trajectory_files(), class_names=st.sampled_from([None, CLASS_NAMES]),
           degrees=st.booleans())
    # a row with an unknown label is no row that a later one repeats, and
    # sets no kind
    @example(file=(list(dmod.TRAJECTORY_COLUMNS),
                   [csv_row("a", "rider", 0, "D"), csv_row("a", "vehicle", 0, "A"),
                    csv_row("a", "rider", 1, "A")]), class_names=CLASS_NAMES, degrees=False)
    # the kind is the first row's in file order, not in frame order; a row
    # that changes kind is still the row its (agent, frame) repeats
    @example(file=(list(dmod.TRAJECTORY_COLUMNS),
                   [csv_row("a", "rider", 2, "A"), [], csv_row("a", "vehicle", 0, "A"),
                    csv_row("a", "vehicle", 0, "B"), csv_row("a", "rider", 1, "A")]),
             class_names=None, degrees=False)
    def test_load_matches_reference(self, tmp_path, file, class_names, degrees):
        path = tmp_path / "t.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([file[0], *file[1]])
        assert (load_outcome(load_trajectories, path, class_names, degrees)
                == load_outcome(reference_load_trajectories, path, class_names, degrees))

    def test_non_finite_coordinates_are_malformed_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("agent_id,kind,frame,x,y,z,d,label\n"
                        "a,vehicle,0,inf,0,0,0,A\n"
                        "a,vehicle,1,0,-inf,0,0,A\n"
                        "a,vehicle,2,0,0,nan,0,A\n"
                        "a,vehicle,3,0,0,0,1e400,A\n")
        got = load_outcome(load_trajectories, path, None, False)
        assert got == load_outcome(reference_load_trajectories, path, None, False)
        assert got == ("error", f"{path}: 4 malformed rows: "
                       + "; ".join(f"row {i}: non-finite coordinate" for i in range(2, 6)))

    def test_error_report_keeps_the_first_twenty_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("agent_id,kind,frame,x,y,z,d,label\n"
                        + "".join(f"a,vehicle,{i},0,0,0,0,{'AB'[i % 2]}\n" for i in range(50)))
        got = load_outcome(load_trajectories, path, ["A"], False)
        assert got == load_outcome(reference_load_trajectories, path, ["A"], False)
        assert got[1].startswith(f"{path}: 25 bad rows: row 3: label 'B' not in label map; ")
        assert got[1].count("; ") == 19

    def test_report_blocks_word_the_rows_of_the_reference(self, tmp_path):
        # bad rows at the first and the last row of a block, and at both
        # sides of a block boundary; a blank row shifts the row numbers
        block = 1024   # data._REPORT_BLOCK_ROWS
        rows = [f"a,vehicle,{i},0,0,0,0,A\n" for i in range(3 * block + 5)]
        for i in (0, block - 1, 2 * block - 1, 2 * block, 3 * block + 4):
            rows[i] = rows[i].replace("vehicle", "car")
        rows[block // 2] = "\n"
        path = tmp_path / "t.csv"
        path.write_text("agent_id,kind,frame,x,y,z,d,label\n" + "".join(rows))
        got = load_outcome(load_trajectories, path, ["A"], False)
        assert got == load_outcome(reference_load_trajectories, path, ["A"], False)
        assert got[1].startswith(f"{path}: 5 malformed rows: row 2: unknown agent kind 'car'; ")

    @pytest.mark.parametrize("reader", ["trajectories", "label map", "key=value"])
    def test_not_utf8_names_the_file_offset(self, tmp_path, reader):
        # past the text reader's first 8 KiB chunk, whose own offsets restart
        text = {"trajectories": "agent_id,kind,frame,x,y,z,d,label\n"
                                + "a,vehicle,0,0,0,0,0,A\n" * 1000,
                "label map": "".join(f"{i},c{i}\n" for i in range(2000)),
                "key=value": "# padding\n" * 1500}[reader]
        offset = len(text.encode()) - 3
        path = tmp_path / "bad"
        path.write_bytes(text.encode()[:offset] + b"\xff" + text.encode()[offset:])
        assert offset > 8192
        load, error = {"trajectories": (load_trajectories, IngestError),
                       "label map": (load_label_map, IngestError),
                       "key=value": (parse_kv_file, ConfigError)}[reader]
        with pytest.raises(error) as info:
            load(path)
        assert str(info.value) == f"{path}: not UTF-8 text (byte {offset}: invalid start byte)"

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(trajs=trajectory_sets(id_text=_CSV_TEXT),
           names=st.lists(_CSV_TEXT, min_size=len(CLASS_NAMES), max_size=len(CLASS_NAMES)))
    def test_save_bytes_match_reference(self, tmp_path, trajs, names):
        save_trajectories(trajs, names, tmp_path / "new.csv")
        reference_save_trajectories(trajs, names, tmp_path / "reference.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


class TestFilterWindow:
    def test_length_six_removed_seven_kept(self):
        out = filter_short([make_traj("a", 6), make_traj("b", 7)])
        assert [t.agent_id for t in out] == ["b"]

    def test_empty_list(self):
        assert filter_short([]) == []

    def test_window_count_length_seven(self):
        assert len(window_all([make_traj("a", 7)])[0]) == 3

    def test_window_exact_length_single_sample(self):
        samples, _ = window_all([make_traj("a", 5, label=3)])
        assert len(samples) == 1
        assert samples[0].label == 3
        assert samples[0].states.shape == (5, 4)

    def test_window_labels_match_last_point(self):
        traj = traj_from_frames("a", range(20), labels=np.arange(20) % 3)
        windows, _ = window_all([traj])
        for i, s in enumerate(windows):
            assert s.label == traj.labels[i + 4]
            assert s.source == ("a", traj.frames[i + 4])

    def test_window_all_of_no_trajectories(self):
        windows, skipped = window_all([])
        assert len(windows) == 0 and skipped == 0
        assert windows.states.shape == (0, 5, 4) and windows.states.dtype == np.float64
        assert windows.labels.dtype == windows.end_frame.dtype == np.int64

    def test_window_too_short_raises(self):
        with pytest.raises(ConfigError):
            window_all([make_traj("a", 4)])

    def test_window_counts_property(self):
        r = np.random.default_rng(0)
        for _ in range(1000):
            n = int(r.integers(5, 60))
            assert len(window_all([make_traj("a", n)])[0]) == n - 4

    def test_one_frame_gap_skips_spanning_windows(self):
        # frames 0..5 and 7..12: frame 6 was dropped by the tracker
        samples, skipped = window_all([traj_from_frames("a", [f for f in range(13) if f != 6])])
        assert [s.source[1] for s in samples] == [4, 5, 11, 12]
        for s in samples:
            end = s.source[1]
            assert list(s.states[:, 0]) == [float(f) for f in range(end - 4, end + 1)]
        assert skipped == 4

    def test_windows_never_span_two_trajectories(self):
        # b's frames continue a's, so only the trajectory boundary separates them
        a = make_traj("a", 7, label=1)
        b = make_traj("b", 6, label=2, start_frame=7)
        windows, skipped = window_all([a, b])
        assert skipped == 0
        assert [s.source for s in windows] == [
            ("a", 4), ("a", 5), ("a", 6), ("b", 11), ("b", 12)]
        assert list(windows.labels) == [1, 1, 1, 2, 2]

    def test_purity_inputs_unchanged(self):
        traj = make_traj("a", 8)
        before = make_traj("a", 8)
        window_all([traj])
        filter_short([traj])
        assert_same_trajectory(traj, before)


class TestRareClasses:
    def test_boundary_at_min_count(self):
        samples = make_samples([0] * 150 + [1] * 99)
        out, names = filter_rare_classes(samples, ["A", "B"], min_count=100)
        assert names == ["A"]
        assert out.labels.tolist() == [0] * 150

    def test_identity_when_all_pass(self):
        samples = make_samples([0] * 3 + [1] * 4)
        out, names = filter_rare_classes(samples, ["A", "B"], min_count=2)
        assert names == ["A", "B"]
        assert out.labels.tolist() == [0] * 3 + [1] * 4

    def test_matches_histogram_oracle(self, rng):
        for trial in range(50):
            r = np.random.default_rng(trial)
            c = int(r.integers(2, 6))
            labels = r.integers(0, c, size=int(r.integers(10, 120)))
            names = [f"C{i}" for i in range(c)]
            min_count = int(r.integers(1, 30))
            hist = [int((labels == i).sum()) for i in range(c)]
            expect_kept = [i for i in range(c) if hist[i] >= min_count]
            samples = make_samples(labels, rng=r)
            if not expect_kept:
                with pytest.raises(ConfigError):
                    filter_rare_classes(samples, names, min_count=min_count)
                continue
            out, kept_names = filter_rare_classes(samples, names, min_count=min_count)
            assert kept_names == [names[i] for i in expect_kept]
            assert out.labels.tolist() == [expect_kept.index(label) for label in labels
                                           if label in expect_kept]

    def test_all_removed_raises(self):
        with pytest.raises(ConfigError):
            filter_rare_classes(make_samples([0, 1]), ["A", "B"], min_count=5)


class TestSplit:
    def test_ten_samples_gives_eight_two(self):
        s = split(make_samples([0] * 10), ["A"], seed=1)
        assert len(s.train) == 8
        assert len(s.test) == 2

    def test_two_seeds_differ_same_counts(self):
        samples = make_samples([0] * 20 + [1] * 10)
        s1 = split(samples, ["A", "B"], seed=1)
        s2 = split(samples, ["A", "B"], seed=2)
        key = lambda sam: (sam.source, sam.label)
        assert sorted(map(key, s1.train)) != sorted(map(key, s2.train))
        for s in (s1, s2):
            hist = dmod.class_histogram(s.train, 2)
            assert list(hist) == [16, 8]

    def test_partition_and_disjointness(self, rng):
        labels = rng.integers(0, 3, size=100)
        labels = np.concatenate([labels, [0, 1, 2, 0, 1, 2]])  # every class >= 2
        samples = make_samples(labels)
        s = split(samples, ["A", "B", "C"], seed=5)
        train_keys = {x.source for x in s.train}
        test_keys = {x.source for x in s.test}
        assert not (train_keys & test_keys)
        assert len(s.train) + len(s.test) == len(samples)
        all_keys = {x.source for x in samples}
        assert train_keys | test_keys == all_keys

    def test_train_fraction_within_bounds(self, rng):
        counts = [50, 13, 7, 211]
        labels = sum(([c] * n for c, n in enumerate(counts)), [])
        s = split(make_samples(labels), ["A", "B", "C", "D"], seed=0)
        hist = dmod.class_histogram(s.train, 4)
        for c, n in enumerate(counts):
            frac = hist[c] / n
            assert 0.8 - 1.0 / n <= frac <= 0.8 + 1e-12

    def test_split_ratio_outside_unit_interval_rejected(self):
        samples = make_samples([0] * 10)
        for ratio in (0.0, 1.0, -0.5, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="ratio"):
                split(samples, ["A"], ratio=ratio)

    def test_single_sample_class_raises_with_name(self):
        samples = make_samples([0, 0, 1])
        with pytest.raises(ConfigError, match="'B'"):
            split(samples, ["A", "B"], seed=0)

    def test_every_test_class_in_train(self, rng):
        labels = rng.integers(0, 4, size=60)
        labels = np.concatenate([labels, [0, 1, 2, 3] * 2])
        s = split(make_samples(labels), list("ABCD"), seed=3)
        train_classes = {x.label for x in s.train}
        for x in s.test:
            assert x.label in train_classes


def rows(windows):
    """(source, label) of every row, in order; make_samples gives each
    original row its own source."""
    return [(s.source, s.label) for s in windows]


class TestResampling:
    def test_ros_balanced_input_unchanged(self):
        samples = make_samples([0] * 5 + [1] * 5)
        out = ros(samples, 2, seed=0)
        assert rows(out) == rows(samples)
        assert np.array_equal(out.states, samples.states)

    def test_ros_small_example(self):
        samples = make_samples([0] * 10 + [1] * 3)
        out = ros(samples, 2, seed=0)
        hist = dmod.class_histogram(out, 2)
        assert list(hist) == [10, 10]
        originals = rows(samples)
        assert all(r in originals for r in rows(out)), "additions must be copies"
        assert np.array_equal(out.states, samples.states[out.agent_idx])
        b_originals = [r for r in originals if r[1] == 1]
        added = rows(out)[len(samples):]
        assert all(r in b_originals for r in added)

    def test_ros_invariants_randomized(self):
        for trial in range(200):
            r = np.random.default_rng(trial)
            c = int(r.integers(2, 6))
            counts = r.integers(1, 40, size=c)
            labels = np.repeat(np.arange(c), counts)
            samples = make_samples(labels, rng=r)
            out = ros(samples, c, seed=trial)
            hist = dmod.class_histogram(out, c)
            assert (hist == counts.max()).all()
            assert rows(out)[: len(samples)] == rows(samples), "originals preserved, in order"
            originals = set(rows(samples))
            for row in rows(out)[len(samples):]:
                assert row in originals

    def test_ros_deterministic(self):
        samples = make_samples([0] * 9 + [1] * 2)
        a = ros(samples, 2, seed=7)
        b = ros(samples, 2, seed=7)
        assert rows(a) == rows(b)

    def test_ros_empty_class_raises(self):
        with pytest.raises(ConfigError):
            ros(make_samples([0, 0]), 2, seed=0)

    def test_rus_small_example(self):
        samples = make_samples([0] * 10 + [1] * 3)
        out = rus(samples, 2, seed=0)
        hist = dmod.class_histogram(out, 2)
        assert list(hist) == [3, 3]
        originals = rows(samples)
        assert all(r in originals for r in rows(out))
        assert np.array_equal(out.states, samples.states[out.agent_idx])

    def test_rus_balanced_unchanged_up_to_order(self):
        samples = make_samples([0] * 4 + [1] * 4)
        out = rus(samples, 2, seed=1)
        assert sorted(rows(out)) == sorted(rows(samples))

    def test_rus_histogram_property(self):
        for trial in range(100):
            r = np.random.default_rng(trial)
            c = int(r.integers(2, 5))
            counts = r.integers(1, 30, size=c)
            labels = np.repeat(np.arange(c), counts)
            out = rus(make_samples(labels, rng=r), c, seed=trial)
            hist = dmod.class_histogram(out, c)
            assert (hist == counts.min()).all()


class TestClassWeights:
    def test_balanced_all_ones(self):
        w = class_weights(make_samples([0] * 5 + [1] * 5), 2)
        assert np.allclose(w, 1.0)

    def test_formula_example(self):
        w = class_weights(make_samples([0] * 30 + [1] * 10), 2)
        assert abs(w[0] - 2.0 / 3.0) < 1e-12
        assert abs(w[1] - 2.0) < 1e-12

    def test_weighted_counts_sum_to_n(self):
        for trial in range(100):
            r = np.random.default_rng(trial)
            c = int(r.integers(2, 8))
            counts = r.integers(1, 50, size=c)
            labels = np.repeat(np.arange(c), counts)
            w = class_weights(make_samples(labels, rng=r), c)
            assert abs((w * counts).sum() - counts.sum()) < 1e-9

    def test_empty_class_raises(self):
        with pytest.raises(ConfigError):
            class_weights(make_samples([0, 0]), 2)


class TestStandardization:
    def test_train_features_zero_mean_unit_std(self, rng):
        w = make_samples([0] * 20 + [1] * 20, rng=rng, scale=3.0)
        out = apply_standardization(w, standardize_stats(w)).states.reshape(-1, 4)
        assert np.abs(out.mean(axis=0)).max() < 1e-12
        assert np.abs(out.std(axis=0) - 1.0).max() < 1e-12

    def test_overflowing_statistics_name_the_feature(self):
        w = make_samples([0, 0, 1, 1])
        states = np.zeros((4, 5, 4))
        states[:, :, 0] = [[1.5e308], [-1.5e308], [1.5e308], [-1.5e308]]  # sum overflows
        states[:, :, 2] = [[1e200], [-1e200], [1e200], [-1e200]]          # square overflows
        with pytest.raises(DataError, match="statistics of feature x, z are not finite"):
            standardize_stats(replace(w, states=states))

    _BLOCK = dmod._STATS_BLOCK_ROWS

    @settings(max_examples=40, deadline=None)
    @given(n_rows=st.one_of(
               st.sampled_from([0, 1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK - 1,
                                2 * _BLOCK, 2 * _BLOCK + 1, 3 * _BLOCK - 1, 3 * _BLOCK]),
               st.integers(0, 3 * _BLOCK)),
           spread=st.sampled_from([1e-3, 1.0, 1e6]), seed=st.integers(0, 2**32 - 1))
    def test_blockwise_statistics_are_the_bits_of_one_reduction(self, n_rows, spread, seed):
        r = np.random.default_rng(seed)
        rows = r.normal(loc=r.normal(size=4) * 50, scale=spread, size=(n_rows, 4))
        rows[r.random(size=rows.shape) < 0.01] = -0.0
        with np.errstate(invalid="ignore"):
            mean, std = dmod._column_mean_std(rows)
        if n_rows == 0:
            assert np.isnan(mean).all() and np.isnan(std).all()
            with pytest.raises(DataError, match="statistics of feature x, y, z, d"):
                standardize_stats(make_samples([]))
            return
        assert mean.tobytes() == rows.mean(axis=0).tobytes()
        assert std.tobytes() == rows.std(axis=0).tobytes()
        if n_rows % 5 == 0:   # whole windows: the statistics `prep` stores
            w = replace(make_samples([0] * (n_rows // 5)), states=rows.reshape(-1, 5, 4))
            stats = standardize_stats(w)
            assert stats["mean"] == mean.tolist()
            assert stats["std"] == np.where(std > 1e-12, std, 1.0).tolist()

    def test_overflowing_standardized_states_rejected(self):
        w = make_samples([0, 0])
        train = replace(w, states=np.full((2, 5, 4), 2.0 ** 1020))  # exact mean, std 0
        test = replace(w, states=np.full((2, 5, 4), -1.79e308))  # minus the mean overflows
        stats = standardize_stats(train)
        assert np.array_equal(apply_standardization(train, stats).states, np.zeros((2, 5, 4)))
        with pytest.raises(DataError, match="standardized states of feature x, y, z, d"):
            apply_standardization(test, stats)


class TestPreparedDump:
    def _dataset(self, rng):
        labels = np.concatenate([np.zeros(12, int), np.ones(8, int)])
        samples = make_samples(labels, rng=rng)
        s = split(samples, ["A", "B"], seed=4)
        return PreparedDataset(
            split=s,
            config={"resample": "none", "seed": 4},
            loss_weights=np.array([0.8, 1.3]),
            normalization=None,
        )

    def test_roundtrip(self, tmp_path, rng):
        ds = self._dataset(rng)
        path = tmp_path / "prep.tbh"
        save_prepared(ds, path)
        back = load_prepared(path)
        assert back.split.class_names == ds.split.class_names
        assert back.config == ds.config
        assert np.allclose(back.loss_weights, ds.loss_weights)
        assert len(back.split.train) == len(ds.split.train)
        for a, b in zip(ds.split.train, back.split.train):
            assert np.array_equal(a.states, b.states)
            assert a.label == b.label
            assert a.source == b.source

    def test_byte_reproducible(self, tmp_path, rng):
        ds = self._dataset(rng)
        p1 = tmp_path / "a.tbh"
        p2 = tmp_path / "b.tbh"
        save_prepared(ds, p1)
        save_prepared(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_agents_differing_by_a_trailing_nul_stay_apart(self, tmp_path):
        w = Windows(np.zeros((4, 5, 4)), np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1]),
                    np.array([4, 5, 4, 5]), ["a", "a\x00"])
        path = tmp_path / "prep.tbh"
        save_prepared(PreparedDataset(DatasetSplit(w[[0, 2]], w[[1, 3]], ["A", "B"], 0)), path)
        back = load_prepared(path).split
        assert [s.source for s in back.train] == [("a", 4), ("a\x00", 4)]
        assert [s.source for s in back.test] == [("a", 5), ("a\x00", 5)]

    def test_split_from_dump_is_disjoint(self, tmp_path, rng):
        ds = self._dataset(rng)
        path = tmp_path / "prep.tbh"
        save_prepared(ds, path)
        back = load_prepared(path)
        train_keys = {s.source for s in back.split.train}
        test_keys = {s.source for s in back.split.test}
        assert not (train_keys & test_keys)


class TestWindows:
    def test_int_index_gives_the_row(self):
        w = make_samples([2, 0, 1])
        row = w[1]
        assert isinstance(row, WindowSample)
        assert row.label == 0 and row.source == ("agent-1", 1)
        assert np.array_equal(row.states, w.states[1])
        assert w[-1].source == ("agent-2", 2)
        with pytest.raises(IndexError):
            w[3]

    def test_index_array_and_slice_give_windows(self):
        w = make_samples([2, 0, 1, 1])
        picked = w[np.array([3, 0, 0])]
        assert isinstance(picked, Windows) and picked.agents is w.agents
        assert rows(picked) == [rows(w)[3], rows(w)[0], rows(w)[0]]
        assert rows(w[1:3]) == rows(w)[1:3]
        assert rows(w[w.labels == 1]) == rows(w)[2:]

    def test_as_windows_stacks_rows_in_order(self):
        w = make_samples([1, 0, 1])
        back = as_windows(list(w))
        assert rows(back) == rows(w)
        assert np.array_equal(back.states, w.states) and back.states.dtype == np.float64
        assert as_windows(w) is w
        empty = as_windows([])
        assert len(empty) == 0 and empty.states.shape == (0, 5, 4)


# ---------------------------------------------------------------------------
# The list-based pipeline of earlier versions, kept as the oracle of the
# array-backed one: same rows, same order, same errors.
# ---------------------------------------------------------------------------

def oracle_histogram(samples, num_classes):
    counts = np.zeros(num_classes, dtype=np.int64)
    for s in samples:
        counts[s.label] += 1
    return counts


def oracle_filter_rare_classes(samples, class_names, min_count):
    counts = oracle_histogram(samples, len(class_names))
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
    return filtered, [class_names[i] for i in kept]


def oracle_split(samples, class_names, ratio, seed):
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
    return [samples[i] for i in train_idx], [samples[i] for i in test_idx]


def oracle_ros(samples, num_classes, seed):
    counts = oracle_histogram(samples, num_classes)
    if (counts == 0).any():
        empty = int(np.nonzero(counts == 0)[0][0])
        raise ConfigError(f"cannot oversample: class index {empty} is empty")
    target = int(counts.max())
    by_class = [[] for _ in range(num_classes)]
    for s in samples:
        by_class[s.label].append(s)
    rng = seeded_rng(seed, ROS)
    out = list(samples)
    for c in range(num_classes):
        deficit = target - counts[c]
        if deficit > 0:
            picks = rng.integers(0, counts[c], size=deficit)
            out.extend(by_class[c][i] for i in picks)
    return out


def oracle_rus(samples, num_classes, seed):
    counts = oracle_histogram(samples, num_classes)
    if (counts == 0).any():
        empty = int(np.nonzero(counts == 0)[0][0])
        raise ConfigError(f"cannot undersample: class index {empty} is empty")
    target = int(counts.min())
    by_class = [[] for _ in range(num_classes)]
    for i, s in enumerate(samples):
        by_class[s.label].append(i)
    rng = seeded_rng(seed, RUS)
    keep = []
    for c in range(num_classes):
        idxs = by_class[c]
        chosen = rng.choice(len(idxs), size=target, replace=False)
        keep.extend(idxs[i] for i in sorted(chosen))
    keep.sort()
    return [samples[i] for i in keep]


def outcome(fn, *args):
    """("ok", result) or ("error", message) of a ConfigError."""
    try:
        return "ok", fn(*args)
    except ConfigError as exc:
        return "error", str(exc)


@st.composite
def labelled(draw, max_classes=5, max_size=60):
    """(number of classes, label vector)."""
    c = draw(st.integers(1, max_classes))
    return c, draw(st.lists(st.integers(0, c - 1), max_size=max_size))


SEEDS = st.integers(0, 2**32 - 1)
RATIOS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


class TestPipelineProperties:
    @settings(max_examples=100, deadline=None)
    @given(data=labelled(), min_count=st.integers(0, 20))
    def test_filter_rare_classes_matches_oracle(self, data, min_count):
        c, labels = data
        windows = make_samples(labels)
        names = [f"C{i}" for i in range(c)]
        got = outcome(filter_rare_classes, windows, names, min_count)
        want = outcome(oracle_filter_rare_classes, list(windows), names, min_count)
        assert got[0] == want[0]
        if got[0] == "error":
            assert got[1] == want[1]
            return
        (out, kept), (o_out, o_kept) = got[1], want[1]
        assert rows(out) == rows(o_out) and kept == o_kept
        assert np.array_equal(out.states, np.array([s.states for s in o_out]).reshape(-1, 5, 4))

    @settings(max_examples=100, deadline=None)
    @given(data=labelled(), ratio=RATIOS, seed=SEEDS)
    def test_split_matches_oracle(self, data, ratio, seed):
        c, labels = data
        windows = make_samples(labels)
        names = [f"C{i}" for i in range(c)]
        got = outcome(split, windows, names, ratio, seed)
        want = outcome(oracle_split, list(windows), names, ratio, seed)
        assert got[0] == want[0]
        if got[0] == "error":
            assert got[1] == want[1]
        else:
            assert rows(got[1].train) == rows(want[1][0])
            assert rows(got[1].test) == rows(want[1][1])

    @settings(max_examples=100, deadline=None)
    @given(data=labelled(), seed=SEEDS)
    def test_ros_and_rus_match_oracle(self, data, seed):
        c, labels = data
        windows = make_samples(labels)
        for new, old in ((ros, oracle_ros), (rus, oracle_rus)):
            got = outcome(new, windows, c, seed)
            want = outcome(old, list(windows), c, seed)
            assert got[0] == want[0]
            assert (got[1] == want[1]) if got[0] == "error" else rows(got[1]) == rows(want[1])

    @settings(max_examples=100, deadline=None)
    @given(counts=st.lists(st.integers(2, 30), min_size=1, max_size=5),
           ratio=RATIOS, seed=SEEDS)
    def test_split_is_a_stratified_partition(self, counts, ratio, seed):
        labels = np.random.default_rng(seed).permutation(np.repeat(np.arange(len(counts)), counts))
        windows = make_samples(labels)
        s = split(windows, [f"C{i}" for i in range(len(counts))], ratio=ratio, seed=seed)
        train_rows, test_rows = set(s.train.agent_idx), set(s.test.agent_idx)
        assert len(train_rows) == len(s.train) and len(test_rows) == len(s.test)
        assert not train_rows & test_rows
        assert train_rows | test_rows == set(range(len(windows)))
        for c, n in enumerate(counts):
            assert (s.train.labels == c).sum() == min(max(math.floor(ratio * n), 1), n - 1)

    @settings(max_examples=100, deadline=None)
    @given(counts=st.lists(st.integers(1, 30), min_size=1, max_size=5), seed=SEEDS)
    def test_ros_and_rus_histograms_are_flat(self, counts, seed):
        labels = np.random.default_rng(seed).permutation(np.repeat(np.arange(len(counts)), counts))
        windows = make_samples(labels)
        up = ros(windows, len(counts), seed=seed)
        assert list(dmod.class_histogram(up, len(counts))) == [max(counts)] * len(counts)
        assert rows(up[:len(windows)]) == rows(windows)
        down = rus(windows, len(counts), seed=seed)
        assert list(dmod.class_histogram(down, len(counts))) == [min(counts)] * len(counts)
        assert (np.diff(down.agent_idx) > 0).all(), "original order kept, no repeats"

    @settings(max_examples=300, deadline=None)
    @given(d=st.lists(st.one_of(st.floats(-math.pi, math.pi, exclude_max=True),
                                st.floats(allow_nan=False, allow_infinity=False)), max_size=20))
    @example(d=[math.nextafter(-math.pi, -math.inf)])   # (d + pi) % 2pi rounds to 2pi
    @example(d=[5e-324, -0.0, math.nextafter(math.pi, 0.0)])   # in range, changed by a wrap
    def test_wrap_angles_matches_the_scalar_reference(self, d):
        d = np.array(d, dtype=np.float64)
        out = wrap_angles(d)
        assert ((-math.pi <= out) & (out < math.pi)).all()
        inside = (-math.pi <= d) & (d < math.pi)
        assert out[inside].tobytes() == d[inside].tobytes()
        assert out.tobytes() == np.array([reference_wrap_angle(v) for v in d.tolist()]).tobytes()
