#!/usr/bin/env python3
"""From network output angles to a point on the table.

Most gaze networks report yaw/pitch relative to the ray from the face to
the camera ("camera offset": zero means looking straight into the lens).
The pipeline adds the head-to-camera angles, builds a ray from the
triangulated head, moves it into workspace coordinates and intersects it
with the surface. This script walks one frame through every step.
"""

import math

import numpy as np

from planegaze import GazePrediction, ground_truth_direction
from planegaze.grid import target_center
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
    head = HeadPoint(ds.head_cc[0], 0.0, "eye_midpoint")
    target = target_center(ds.grid, target_id)

    print(f"frame {frame_id}: participant looks at target {target_id} "
          f"(center {np.round(target, 3)} in workspace coords)")
    print(f"triangulated head (camera frame): {np.round(head.position, 4)} m")

    yaw_h, pitch_h = camera_offset_angles(head)
    print(f"head-to-camera angles: yaw {math.degrees(yaw_h):+.2f} deg, pitch {math.degrees(pitch_h):+.2f} deg")

    pred = ds.predictions["oracle-offset"].take([0])
    print(f"network output (offset convention): yaw {math.degrees(pred.yaw[0]):+.2f} deg, "
          f"pitch {math.degrees(pred.pitch[0]):+.2f} deg")

    direction = correct_gaze_to_camera_frame(pred, head)[0]
    print(f"corrected camera-frame direction: {np.round(direction, 4)}")

    est = gaze_point_on_surface(head, direction, ds.plane)
    print(f"surface intersection: status={est.status}, point {np.round(est.point, 4)}, "
          f"ray length {est.alpha:.3f} m")
    print(f"distance to target center: {np.linalg.norm(est.point[:2] - target[:2])*100:.2e} cm")

    gt = ground_truth_direction(head, ds.plane, target)
    print(f"ground-truth direction from the same head: {np.round(gt, 4)}")

    print("\n-- what a zero prediction means --")
    zero = GazePrediction(frame_id, "demo", 0.0, 0.0, "camera_offset")
    d0 = correct_gaze_to_camera_frame(zero, head)
    miss = np.linalg.norm(np.cross(head.position, d0))
    print(f"zero-output ray passes {miss:.2e} m from the camera center (looking at the lens)")
    est0 = gaze_point_on_surface(head, d0, ds.plane)
    print(f"its surface status is {est0.status!r} (looking at the camera, not at the table)")


if __name__ == "__main__":
    main()
