import math

import numpy as np
import pytest

from planegaze.errors import EmptySelectionError
from planegaze.geometry import yaw_pitch_to_dir
from planegaze.metrics import (
    FrameErrors,
    cdf_fraction_at,
    continued_yaw_pitch_deg,
    error_cdf,
    evaluate_frame,
    summarize,
    yaw_pitch_histogram,
)
from planegaze.pipeline import STATUS_NO_INTERSECTION, STATUS_OK, SurfaceGazeEstimate

INF = math.inf


def record(distance_m, angle=5.0, frame="f0", tags=()):
    return FrameErrors([frame], [angle], [distance_m], [tags])


def records_cm(distances_cm, tags=()):
    """One row per distance; ``tags`` is one tag tuple for every row or a list of one per row."""
    n = len(distances_cm)
    return FrameErrors(
        [f"f{k:04d}" for k in range(n)],
        [5.0] * n,
        [d / 100.0 if math.isfinite(d) else INF for d in distances_cm],
        tags if isinstance(tags, list) else [tags] * n,
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
            summarize(records_cm([5.0]), tag_filter="nope")

    def test_tag_filter(self):
        recs = records_cm([5, 15, 25, 60], tags=[("glasses",)] * 2 + [("no_glasses",)] * 2)
        s = summarize(recs, "glasses")
        assert s.n_frames == 2
        assert s.median_distance_cm == pytest.approx(10.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        recs = records_cm(list(rng.uniform(0, 80, 41)))
        a = summarize(recs)
        order = rng.permutation(41)
        shuffled = FrameErrors(recs.frame_id[order], recs.angular_deg[order], recs.distance_m[order],
                               [recs.tags[k] for k in order])
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
        rows = []
        for k in range(120):
            tag = ("a",) if k % 3 else ("b",)
            rows.append((f"f{k:03d}", float(rng.uniform(0, 40)), float(rng.uniform(0, 1)), tag))
        recs = FrameErrors(*zip(*rows))
        total = summarize(recs)
        sa, sb = summarize(recs, "a"), summarize(recs, "b")
        combined = (sa.mean_angular_deg * sa.n_frames + sb.mean_angular_deg * sb.n_frames) / total.n_frames
        assert total.mean_angular_deg == pytest.approx(combined, rel=1e-12)

    def test_precision_monotone_in_threshold(self):
        rng = np.random.default_rng(3)
        values = list(rng.uniform(0, 100, 37)) + [INF] * 3
        s = summarize(records_cm(values), thresholds_cm=np.linspace(1, 120, 25))
        fractions = [s.precision_at[t] for t in sorted(s.precision_at)]
        assert all(a <= b for a, b in zip(fractions, fractions[1:]))


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


class TestFrameErrors:
    def test_rows_sorted_by_frame_id(self):
        e = FrameErrors(["f2", "f10", "f1"], [1.0, 2.0, 3.0], [0.1, INF, 0.3], [("a",), (), ("b",)])
        assert list(e.frame_id) == ["f1", "f10", "f2"]
        assert list(e.angular_deg) == [3.0, 2.0, 1.0]
        assert list(e.distance_m) == [0.3, INF, 0.1]
        assert e.tags == (("b",), (), ("a",))

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
            FrameErrors(["f0", "f1"], [5.0, 6.0], [0.2, 0.3], [("a",)])
