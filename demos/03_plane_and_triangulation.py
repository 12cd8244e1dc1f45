#!/usr/bin/env python3
"""Locate the work surface and triangulate heads above it.

Two steps that anchor the whole geometry: the display grid on the table
fixes the camera-to-workspace transform, and the stereo pair turns face
detections into 3D head positions. Both are checked against the
generator's ground truth.
"""

import numpy as np

from planegaze import estimate_plane_pose, head_point
from planegaze.synthetic import default_scene, generate_scene


def main():
    spec = default_scene(frames=8, seed=42, calib_views=3)
    ds = generate_scene(spec)

    print("-- plane pose from the displayed grid --")
    pose = estimate_plane_pose(ds.plane_corners, ds.grid, ds.rig.left)
    true_T = ds.plane.transform
    dR = pose.transform.rotation @ true_T.rotation.T
    # the angle of dR: atan2 of its skew part's norm and its trace stays exact near zero, unlike arccos
    vee = np.array([dR[2, 1] - dR[1, 2], dR[0, 2] - dR[2, 0], dR[1, 0] - dR[0, 1]]) / 2.0
    rot_err = np.arctan2(np.linalg.norm(vee), (np.trace(dR) - 1.0) / 2.0)
    t_err = np.linalg.norm(pose.transform.translation - true_T.translation)
    print(f"fit rms: {pose.rms_reprojection:.3g} px over {len(ds.plane_corners)} corners")
    print(f"rotation error {rot_err:.2e} rad, translation error {t_err:.2e} m")
    cam_in_plane = pose.transform.apply_points(np.zeros(3))
    print(f"left camera sits at {np.round(cam_in_plane, 4)} in workspace coordinates "
          f"({cam_in_plane[2]*100:.1f} cm above the surface)")

    print("\n-- head triangulation --")
    # faces hold a left and a right row per frame; one call triangulates every frame
    faces = ds.faces
    heads = head_point(faces.take(faces.camera == "left"), faces.take(faces.camera == "right"),
                       ds.rig, "eye_midpoint")
    for fid, position, gap, source, truth in zip(ds.frames.frame_id, heads.position, heads.ray_gap,
                                                 heads.source, ds.head_cc):
        err_mm = np.linalg.norm(position - truth) * 1000
        print(f"{fid}: head at {np.round(position, 4)} m  "
              f"error {err_mm:.2e} mm  ray gap {gap*1000:.2e} mm  source {source}")


if __name__ == "__main__":
    main()
