#!/usr/bin/env python3
"""From network output angles to a point on the table.

Most gaze networks report yaw/pitch relative to the ray from the face to
the camera ("camera offset": zero means looking straight into the lens).
The pipeline adds the head-to-camera angles, builds a ray from the
triangulated head, moves it into workspace coordinates and intersects it
with the surface. This script walks one frame through every step, as a
batch of one row: every stage function takes and returns batches.
"""

import math

import numpy as np

from planegaze import PredictionTable, ground_truth_direction
from planegaze.grid import target_centers
from planegaze.pipeline import (
    camera_offset_angles,
    correct_gaze_to_camera_frame,
    gaze_point_on_surface,
)
from planegaze.synthetic import default_scene, generate_scene
from planegaze.triangulation import HeadPoint


def main():
    ds = generate_scene(default_scene(frames=1, seed=7, calib_views=2))
    frame_id, target_id = str(ds.frames.frame_id[0]), int(ds.frames.target_id[0])
    head = HeadPoint(ds.head_cc[:1], np.zeros(1), np.array(["eye_midpoint"]), np.array([""]))
    target = target_centers(ds.grid, [target_id])

    print(f"frame {frame_id}: participant looks at target {target_id} "
          f"(center {np.round(target[0], 3)} in workspace coords)")
    print(f"triangulated head (camera frame): {np.round(head.position[0], 4)} m")

    (yaw_h,), (pitch_h,) = camera_offset_angles(head.position)
    print(f"head-to-camera angles: yaw {math.degrees(yaw_h):+.2f} deg, pitch {math.degrees(pitch_h):+.2f} deg")

    pred = ds.predictions["oracle-offset"].take([0])
    print(f"network output (offset convention): yaw {math.degrees(pred.yaw[0]):+.2f} deg, "
          f"pitch {math.degrees(pred.pitch[0]):+.2f} deg")

    direction = correct_gaze_to_camera_frame(pred, head)
    print(f"corrected camera-frame direction: {np.round(direction[0], 4)}")

    est = gaze_point_on_surface(head, direction, ds.plane)
    print(f"surface intersection: status={est.status[0]}, point {np.round(est.point[0], 4)}, "
          f"ray length {est.alpha[0]:.3f} m")
    print(f"distance to target center: {np.linalg.norm(est.point[0, :2] - target[0, :2])*100:.2e} cm")

    gt = ground_truth_direction(head, ds.plane, target)
    print(f"ground-truth direction from the same head: {np.round(gt[0], 4)}")

    print("\n-- what a zero prediction means --")
    zero = PredictionTable(np.array([frame_id]), np.array(["demo"]), np.zeros(1), np.zeros(1), "camera_offset", None)
    d0 = correct_gaze_to_camera_frame(zero, head)
    miss = np.linalg.norm(np.cross(head.position[0], d0[0]))
    print(f"zero-output ray passes {miss:.2e} m from the camera center (looking at the lens)")
    est0 = gaze_point_on_surface(head, d0, ds.plane)
    print(f"its surface status is {str(est0.status[0])!r} (looking at the camera, not at the table)")


if __name__ == "__main__":
    main()
