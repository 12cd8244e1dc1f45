"""Per-layer metrics read from a traced run, and which workload must exercise each.

A metric named ``<span>.s``, ``<span>.self_s`` or ``<span>.calls`` is read
from the span table (inclusive seconds, self seconds, call count summed
over the traced round). The others are counts recorded at the same wrapper
boundaries, or ratios of them. Byte counts are computed from file sizes,
not measured I/O.
"""

from __future__ import annotations

EVAL = "eval-shared-faces"
CALIB = "calib-rig"
SYNTH = "synth-write"
E, C, S = (EVAL,), (CALIB,), (SYNTH,)

# name, unit, better, workloads whose traced round must record it (nonzero)
CATALOGUE = (
    ("cli.main.self_s", "s", "lower", E + C + S),  # argparse and dispatch
    ("cli.evaluate.s", "s", "lower", E),
    ("cli.evaluate.self_s", "s", "lower", E),
    ("cli.calibrate.s", "s", "lower", C),
    ("cli.calibrate.self_s", "s", "lower", C),
    ("cli.plane_pose.s", "s", "lower", C),
    ("cli.plane_pose.self_s", "s", "lower", C),
    ("cli.synth.s", "s", "lower", S),
    ("cli.synth.self_s", "s", "lower", S),
    ("evaluation.evaluate_manifest.s", "s", "lower", E),
    ("evaluation.evaluate_method.s", "s", "lower", E),
    ("evaluation.evaluate_method.calls", "count", "lower", E),
    ("evaluation.evaluate_method.self_s", "s", "lower", E),
    ("evaluation.frames_attempted", "count", "higher", E),
    ("evaluation.frames_skipped", "count", "lower", ()),
    ("triangulation.head_point.s", "s", "lower", E),
    ("triangulation.head_point.calls", "count", "lower", E),
    ("triangulation.triangulate_midpoint.calls", "count", "lower", E),
    ("triangulation.head_point.calls_per_frame", "calls/frame", "lower", E),
    ("camera.undistort_pixels.s", "s", "lower", E),
    ("camera.undistort_pixels.calls", "count", "lower", E),
    ("camera.undistort_pixels.points", "count", "higher", E),
    ("camera.undistort_pixels.failed", "count", "lower", ()),
    ("camera.undistort_pixels.points_per_call", "points/call", "higher", E),
    ("camera.project_points.s", "s", "lower", S),
    ("camera.project_points.calls", "count", "lower", S),
    ("camera.project_points.points", "count", "higher", S),
    ("pipeline.correct_gaze_to_camera_frame.s", "s", "lower", E),
    ("pipeline.correct_gaze_to_camera_frame.calls", "count", "lower", E),
    ("pipeline.gaze_point_on_surface.s", "s", "lower", E),
    ("pipeline.gaze_point_on_surface.calls", "count", "lower", E),
    ("pipeline.ground_truth_direction.s", "s", "lower", E),
    ("pipeline.ground_truth_direction.calls", "count", "lower", E),
    ("metrics.evaluate_frame.s", "s", "lower", E),
    ("metrics.evaluate_frame.calls", "count", "lower", E),
    ("metrics.summarize.s", "s", "lower", E),
    ("metrics.error_cdf.s", "s", "lower", E),
    ("metrics.yaw_pitch_histogram.s", "s", "lower", E),
    ("geometry.require_rotation.calls", "count", "lower", E + C),
    ("geometry.rotation_from_axis_angle.calls", "count", "lower", C),
    ("formats.read_manifest.s", "s", "lower", E),
    ("formats.read_faces.s", "s", "lower", E),
    ("formats.read_faces.calls", "count", "lower", E),
    ("formats.read_predictions.s", "s", "lower", E),
    ("formats.read_corners.s", "s", "lower", C),
    ("formats.sha256_file.s", "s", "lower", E),
    ("formats.sha256_file.calls", "count", "lower", E),
    ("formats.report_write.s", "s", "lower", E),
    ("formats.write_dataset.s", "s", "lower", S),
    ("formats.bytes_read", "bytes-computed", "lower", E + C),
    ("formats.bytes_written", "bytes-computed", "lower", E + C + S),
    ("synthetic.generate_scene.s", "s", "lower", S),
    ("synthetic.perturb.s", "s", "lower", S),
    ("calibration.calibrate_camera.s", "s", "lower", C),
    ("calibration.calibrate_camera.calls", "count", "lower", C),
    ("calibration.refine_calibration.s", "s", "lower", C),
    ("calibration.calibrate_stereo.s", "s", "lower", C),
    ("calibration.estimate_homography.calls", "count", "lower", C),
    ("optimize.levenberg_marquardt.s", "s", "lower", C),
    ("optimize.levenberg_marquardt.calls", "count", "lower", C),
    ("optimize.lm_iterations", "count", "lower", C),
    ("optimize.residual_evals", "count", "lower", C),
    ("optimize.residual.s", "s", "lower", C),
    ("optimize.retraction.s", "s", "lower", C),
    ("optimize.retraction.calls", "count", "lower", C),
    ("optimize.residual_evals_per_iter", "evals/iter", "lower", C),
    ("plane.estimate_plane_pose.s", "s", "lower", C),
    ("trace.spans", "count", "lower", E + C + S),
    ("trace.overhead_ratio", "ratio", "lower", ()),
)

# Metrics that must repeat exactly across two traced runs of one seed.
EXACT_COUNTS = (
    "optimize.residual_evals",
    "optimize.lm_iterations",
    "triangulation.head_point.calls_per_frame",
    "formats.read_faces.calls",
    "camera.undistort_pixels.points_per_call",
    "formats.bytes_read",
    "formats.bytes_written",
)

_SPAN_STATS = ("s", "self_s", "calls")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(tracer, table: dict, overhead_ratio: float) -> dict[str, float]:
    """Every catalogue metric from one traced round (0 where a layer was not called).

    ``table`` is ``tracer.span_table()``.
    """
    counts = tracer.counts

    def calls(span):
        return table.get(span, {}).get("calls", 0)

    largest = max((n for n, _, _ in tracer.lm_calls), default=0)
    derived = {
        "triangulation.head_point.calls_per_frame":
            _ratio(calls("triangulation.head_point"), counts["evaluation.frames"]),
        "camera.undistort_pixels.points_per_call":
            _ratio(counts["camera.undistort_pixels.points"], calls("camera.undistort_pixels")),
        # residual evaluations per LM iteration of the largest problem solved
        # (the joint per-camera refinement), not blended with the small ones
        "optimize.residual_evals_per_iter": _ratio(
            sum(e for n, e, _ in tracer.lm_calls if n == largest),
            sum(i for n, _, i in tracer.lm_calls if n == largest),
        ),
        "trace.spans": len(tracer.start),
        "trace.overhead_ratio": overhead_ratio,
    }
    values = {}
    for name, _, _, _ in CATALOGUE:
        span, _, stat = name.rpartition(".")
        if name in derived:
            values[name] = derived[name]
        elif stat in _SPAN_STATS and span in table:
            values[name] = table[span][stat]
        else:
            values[name] = counts[name]
    return values


def uncovered(workload: str, values: dict[str, float]) -> list[str]:
    """Metrics this workload must exercise that read zero in its traced round."""
    return [
        name for name, _, _, needed in CATALOGUE if workload in needed and not values[name] > 0
    ]
