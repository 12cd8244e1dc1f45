import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planegaze.errors import EmptySelectionError
from planegaze.geometry import yaw_pitch_to_dir
from planegaze.metrics import (
    DEFAULT_PITCH_EDGES_DEG,
    _median,
    DEFAULT_YAW_EDGES_DEG,
    FrameErrors,
    FrameTable,
    cdf_fraction_at,
    continued_yaw_pitch_deg,
    error_cdf,
    evaluate_frame,
    summarize,
    tag_masks,
    yaw_pitch_histogram,
)
from planegaze.pipeline import STATUS_NO_INTERSECTION, STATUS_OK, SurfaceGazeEstimate

INF = math.inf


def record(distance_m, angle=5.0, frame="f0"):
    return FrameErrors([frame], [angle], [distance_m])


def records_cm(distances_cm):
    """One row per distance, with frame ids in row order."""
    n = len(distances_cm)
    return FrameErrors(
        [f"f{k:04d}" for k in range(n)],
        [5.0] * n,
        [d / 100.0 if math.isfinite(d) else INF for d in distances_cm],
    )


def estimate(point, alpha, direction, status):
    """A one-row SurfaceGazeEstimate."""
    return SurfaceGazeEstimate(np.array([point], dtype=float), np.array([alpha]), np.array([direction]),
                               np.array([status]))


class TestEvaluateFrame:
    def test_perfect_frame(self):
        est = estimate([0.1, 0.25, 0.0], 0.5, [0, 0, -1.0], STATUS_OK)
        rec = evaluate_frame([[0, 0, -1.0]], [[0, 0, -1.0]], est, [[0.1, 0.25, 0.0]], frame_id=["f0"])
        assert rec.angular_deg[0] == 0.0
        assert rec.distance_m[0] == 0.0

    def test_plane_distance(self):
        est = estimate([0.10, 0.15, 0.0], 0.5, [0, 0, -1.0], STATUS_OK)
        rec = evaluate_frame([[0, 0, -1.0]], [[0, 0, -1.0]], est, [[0.10, 0.25, 0.0]], frame_id=["f0"])
        assert rec.distance_m[0] == pytest.approx(0.10)

    def test_missed_plane_is_infinite_but_angle_finite(self):
        est = estimate([np.nan] * 3, np.nan, [1.0, 0, 0], STATUS_NO_INTERSECTION)
        d = yaw_pitch_to_dir(0.0, math.radians(-10))
        rec = evaluate_frame([d], [[0, 0, -1.0]], est, [[0, 0, 0]], frame_id=["f0"])
        assert math.isinf(rec.distance_m[0])
        assert rec.angular_deg[0] == pytest.approx(10.0, abs=1e-9)


class TestSummarize:
    def test_reference_fixture(self):
        s = summarize(records_cm([5, 15, 25, 60]))
        assert s.median_distance_cm == pytest.approx(20.0)
        assert s.precision_at[10.0] == pytest.approx(25.0)
        assert s.precision_at[20.0] == pytest.approx(50.0)
        assert s.precision_at[50.0] == pytest.approx(75.0)
        assert s.n_frames == 4 and s.n_failures == 0

    def test_failure_participates_in_denominator(self):
        s = summarize(records_cm([5, 15, INF]))
        assert s.median_distance_cm == pytest.approx(15.0)
        assert s.precision_at[50.0] == pytest.approx(100.0 * 2 / 3)
        assert s.n_failures == 1

    def test_even_count_median_with_midpoint_failure(self):
        s = summarize(records_cm([5, 15, INF, INF]))
        assert math.isinf(s.median_distance_cm)

    def test_boundary_is_inclusive(self):
        s = summarize(records_cm([10.0, 10.0 + 1e-9]))
        assert s.precision_at[10.0] == pytest.approx(50.0)

    def test_empty_selection(self):
        with pytest.raises(EmptySelectionError):
            summarize(records_cm([]))
        with pytest.raises(EmptySelectionError):
            summarize(records_cm([5.0]), mask=np.array([False]))

    def test_tag_mask(self):
        recs = records_cm([5, 15, 25, 60])
        masks = tag_masks([("glasses",)] * 2 + [("no_glasses",)] * 2, ["glasses"])
        s = summarize(recs, mask=masks["glasses"])
        assert s.n_frames == 2
        assert s.median_distance_cm == pytest.approx(10.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        recs = records_cm(list(rng.uniform(0, 80, 41)))
        a = summarize(recs)
        order = rng.permutation(41)
        shuffled = FrameErrors(recs.frame_id[order], recs.angular_deg[order], recs.distance_m[order])
        assert list(shuffled.distance_m) == list(recs.distance_m)  # rows come back in frame-id order
        b = summarize(shuffled)
        assert a == b

    def test_median_robust_to_tail_inflation(self):
        values = [5.0, 12.0, 20.0, 33.0, 47.0]
        base = summarize(records_cm(values)).median_distance_cm
        inflated = summarize(records_cm(values[:-1] + [4700.0])).median_distance_cm
        assert base == inflated

    def test_tag_partition_weighted_mean(self):
        rng = np.random.default_rng(2)
        recs = FrameErrors([f"f{k:03d}" for k in range(120)], rng.uniform(0, 40, 120), rng.uniform(0, 1, 120))
        masks = tag_masks([("a",) if k % 3 else ("b",) for k in range(120)], ["a", "b"])
        total = summarize(recs)
        sa, sb = summarize(recs, mask=masks["a"]), summarize(recs, mask=masks["b"])
        combined = (sa.mean_angular_deg * sa.n_frames + sb.mean_angular_deg * sb.n_frames) / total.n_frames
        assert total.mean_angular_deg == pytest.approx(combined, rel=1e-12)

    def test_precision_monotone_in_threshold(self):
        rng = np.random.default_rng(3)
        values = list(rng.uniform(0, 100, 37)) + [INF] * 3
        s = summarize(records_cm(values), thresholds_cm=np.linspace(1, 120, 25))
        fractions = [s.precision_at[t] for t in sorted(s.precision_at)]
        assert all(a <= b for a, b in zip(fractions, fractions[1:]))


MEDIAN_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, INF, -INF, math.nan, -math.nan, 1.0, 2.0]),  # ties, signed zeros, non-finite
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(MEDIAN_VALUES, min_size=1, max_size=12))
def test_median_equals_numpy_median_bit_for_bit(values):
    """Odd and even sizes, +-inf, NaN (either sign), -0.0 and ties: summarize's median has
    np.median's bits."""
    a = np.array(values)
    with np.errstate(all="ignore"):  # inf + -inf at the middle, as np.median computes it
        want, got = np.median(a), _median(a.copy())
    assert type(got) is type(want) and got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    tags=st.lists(st.lists(st.sampled_from(["a", "b", "c", "ab"]), max_size=3).map(tuple), min_size=1, max_size=40),
    seed=st.integers(0, 2**32 - 1),
)
def test_tag_selection_equals_row_by_row_selection(tags, seed):
    """Each tag mask holds the rows picked one by one with ``tag in tags`` (frames with several
    tags or none), and the summaries and CDFs under a mask equal those of the picked rows alone."""
    rng = np.random.default_rng(seed)
    n = len(tags)
    distances = np.where(rng.random(n) < 0.2, INF, rng.uniform(0, 1, n))
    frame_id = rng.permutation([f"f{k:03d}" for k in range(n)])
    errors = FrameErrors(frame_id, rng.uniform(0, 90, n), distances)
    row_tags = [tags[k] for k in np.argsort(frame_id, kind="stable")]  # in the rows' frame-id order
    masks = tag_masks(row_tags, ["a", "b", "c", "ab", "zz"])
    for tag, mask in masks.items():
        picked = [k for k, row in enumerate(row_tags) if tag in row]
        assert np.flatnonzero(mask).tolist() == picked
        if not picked:
            with pytest.raises(EmptySelectionError):
                summarize(errors, mask=mask)
            continue
        alone = FrameErrors(errors.frame_id[picked], errors.angular_deg[picked], errors.distance_m[picked])
        assert summarize(errors, mask=mask) == summarize(alone)
        for kind in ("angular", "distance"):
            want = error_cdf(alone, kind)
            got = error_cdf(errors, kind, mask=mask)
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def test_frame_table_rows_of():
    frames = FrameTable(np.array(["f2", "f0", "f10"]), np.array([1, 2, 3]), ((), (), ()))
    rows, found = frames.rows_of(["f10", "nope", "f2", "f0", ""])
    assert rows.tolist() == [2, 0, 0, 1, 0] and found.tolist() == [True, False, True, True, False]
    empty = FrameTable(np.array([], dtype=str), np.array([], dtype=int), ())
    assert [a.tolist() for a in empty.rows_of(["f0"])] == [[0], [False]]


class TestErrorCdf:
    def test_three_values(self):
        thresholds, fractions = error_cdf(records_cm([100, 200, 300]), "distance")
        assert thresholds.tolist() == [100.0, 200.0, 300.0]
        assert fractions.tolist() == [1 / 3, 2 / 3, 1.0]

    def test_single_record(self):
        thresholds, fractions = error_cdf(record(0.0, angle=4.5), "angular")
        assert thresholds.tolist() == [4.5] and fractions.tolist() == [1.0]

    def test_failures_cap_the_curve(self):
        thresholds, fractions = error_cdf(records_cm([100, 200, INF]), "distance")
        assert thresholds.tolist() == [100.0, 200.0]
        assert fractions[-1] == pytest.approx(2 / 3)

    def test_sorted_and_monotone(self):
        rng = np.random.default_rng(5)
        ts, fs = (c.tolist() for c in error_cdf(records_cm(list(rng.uniform(0, 50, 100))), "distance"))
        assert ts == sorted(ts)
        assert all(a <= b for a, b in zip(fs, fs[1:]))

    def test_precision_equals_cdf_at_thresholds(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            values = list(rng.uniform(0, 80, n))
            if rng.random() < 0.3:
                values += [INF] * int(rng.integers(1, 4))
            recs = records_cm(values)
            cdf = error_cdf(recs, "distance")
            s = summarize(recs)
            for x in (10.0, 20.0, 50.0):
                assert s.precision_at[x] == pytest.approx(100.0 * cdf_fraction_at(cdf, x), abs=1e-12)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            error_cdf(records_cm([1.0]), "sideways")


class TestGazeHistogram:
    def test_single_direction_single_bin(self):
        hist = yaw_pitch_histogram([np.array([0, 0, -1.0])] * 7)
        assert hist.counts.sum() == 7
        yi = np.searchsorted(hist.yaw_edges, 0.0, side="right") - 1
        pi = np.searchsorted(hist.pitch_edges, 0.0, side="right") - 1
        assert hist.counts[yi, pi] == 7

    def test_total_count_preserved(self):
        rng = np.random.default_rng(7)
        dirs = rng.normal(size=(500, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        hist = yaw_pitch_histogram(dirs)
        assert hist.counts.sum() == 500

    def test_pitch_continues_past_negative_ninety(self):
        d = yaw_pitch_to_dir(0.0, math.radians(-100.0))
        yp = continued_yaw_pitch_deg(d)
        assert yp[0] == pytest.approx(0.0, abs=1e-9)
        assert yp[1] == pytest.approx(-100.0, abs=1e-9)

    def test_tabletop_truth_concentrates_at_negative_pitch(self, small_dataset):
        dirs = small_dataset.direction_cc
        hist = yaw_pitch_histogram(dirs)
        pitch_centers = (hist.pitch_edges[:-1] + hist.pitch_edges[1:]) / 2
        below = hist.counts[:, pitch_centers < 0].sum()
        assert below / hist.counts.sum() > 0.95

    def test_empty_input(self):
        with pytest.raises(EmptySelectionError):
            yaw_pitch_histogram(np.zeros((0, 3)))


def histogram2d_counts(directions, yaw_edges, pitch_edges):
    """The counts as np.histogram2d gives them on the clipped angles."""
    yp = continued_yaw_pitch_deg(np.reshape(directions, (-1, 3)))
    yaw, pitch = (np.clip(yp[:, k], e[0], e[-1]) for k, e in enumerate((yaw_edges, pitch_edges)))
    return np.histogram2d(yaw, pitch, bins=(yaw_edges, pitch_edges))[0].astype(int)


@settings(max_examples=80, deadline=None)
@given(
    vectors=st.lists(st.tuples(*[st.floats(-1, 1)] * 3).filter(lambda v: sum(x * x for x in v) > 1e-6),
                     min_size=1, max_size=30),
    picks=st.lists(st.integers(0, 59), min_size=2, max_size=8),
    axis_aligned=st.booleans(),
)
def test_histogram_counts_equal_histogram2d(vectors, picks, axis_aligned):
    """On edges taken from the directions' own angles (so angles land exactly on bin edges,
    on the last edge, and outside the range, clipped in), and on the default edges."""
    dirs = np.array(vectors) / np.linalg.norm(vectors, axis=1, keepdims=True)
    if axis_aligned:  # yaw and pitch of 0, +-90 and 180 degrees
        dirs = np.vstack([dirs, np.eye(3), -np.eye(3)])
    yp = continued_yaw_pitch_deg(dirs)
    values = np.concatenate([yp[:, 0], yp[:, 1]])
    edges = np.unique(values[np.array(picks) % values.size])
    if edges.size < 2:
        edges = np.array([edges[0], edges[0] + 1.0])
    for yaw_edges, pitch_edges in ((edges, edges), (DEFAULT_YAW_EDGES_DEG, DEFAULT_PITCH_EDGES_DEG)):
        hist = yaw_pitch_histogram(dirs, yaw_edges, pitch_edges)
        assert hist.counts.dtype == int and hist.counts.sum() == len(dirs)
        assert np.array_equal(hist.counts, histogram2d_counts(dirs, yaw_edges, pitch_edges))


def test_histogram_edges_must_increase():
    with pytest.raises(ValueError):
        yaw_pitch_histogram([[0.0, 0.0, 1.0]], [1.0, 0.0], DEFAULT_PITCH_EDGES_DEG)


class TestFrameErrors:
    def test_rows_sorted_by_frame_id(self):
        e = FrameErrors(["f2", "f10", "f1"], [1.0, 2.0, 3.0], [0.1, INF, 0.3])
        assert list(e.frame_id) == ["f1", "f10", "f2"]
        assert list(e.angular_deg) == [3.0, 2.0, 1.0]
        assert list(e.distance_m) == [0.3, INF, 0.1]

    @pytest.mark.parametrize("angle, distance", [
        (math.nan, 0.1), (-1.0, 0.1), (180.5, 0.1), (5.0, math.nan), (5.0, -0.01), (5.0, -INF),
    ])
    def test_out_of_range_rejected(self, angle, distance):
        with pytest.raises(ValueError):
            FrameErrors(["f0", "f1"], [5.0, angle], [0.2, distance])

    def test_columns_must_match_in_length(self):
        with pytest.raises(ValueError):
            FrameErrors(["f0", "f1"], [5.0], [0.2, 0.3])
        with pytest.raises(ValueError):
            FrameErrors(["f0", "f1"], [5.0, 6.0], [0.2])
