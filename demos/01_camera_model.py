#!/usr/bin/env python3
"""Walk through the camera model: projection, distortion, and its inverse.

The cameras in this problem have wide lenses with heavy barrel distortion,
so points near the image border move inward by tens of pixels. Everything
downstream (calibration, triangulation, plane pose) leans on the pair of
operations shown here: project a 3D point to a pixel, and recover the
undistorted viewing direction from a pixel.
"""

import numpy as np

from planegaze import CameraIntrinsics, RigidTransform, project_points, undistort_pixels

K = CameraIntrinsics(
    fx=350.0, fy=350.0, cx=640.0, cy=360.0,
    dist=(-0.20, 0.04, 4e-4, -3e-4, 0.002), image_size=(1280, 720),
)
IDENTITY = RigidTransform.identity()


def main():
    print("camera:", K)

    print("\n-- projection --")
    # every function takes a batch of points, (N, 3) or (N, 2); these are batches of one
    (on_axis,) = project_points(K, IDENTITY, [[0.0, 0.0, 1.0]])
    print(f"point on the optical axis projects to the principal point: {tuple(on_axis.tolist())}")

    off_axis = np.array([0.45, 0.30, 0.60])
    (with_dist,) = project_points(K, IDENTITY, [off_axis])
    K_ideal = CameraIntrinsics(fx=350.0, fy=350.0, cx=640.0, cy=360.0, image_size=(1280, 720))
    (without_dist,) = project_points(K_ideal, IDENTITY, [off_axis])
    pull = np.linalg.norm(without_dist - with_dist)
    print(f"off-axis point {off_axis} -> {np.round(with_dist, 2)}")
    print(f"barrel distortion pulled it {pull:.1f} px toward the center")

    print("\n-- undistortion (Newton inversion inside the lens fold) --")
    ((x, y),) = undistort_pixels(K, [with_dist])
    print(f"undistorted normalized coordinates: ({x:.6f}, {y:.6f})")
    print(f"true direction x/z, y/z:            ({off_axis[0]/off_axis[2]:.6f}, {off_axis[1]/off_axis[2]:.6f})")

    print("\n-- round trip over the whole image --")
    rng = np.random.default_rng(0)
    pixels = rng.uniform(0.0, 1.0, size=(2000, 2)) * K.image_size
    normalized = undistort_pixels(K, pixels)
    back = project_points(K, IDENTITY, np.column_stack([normalized, np.ones(len(pixels))]))
    err = np.abs(back - pixels).max()
    print(f"undistort -> reproject on 2000 pixels spread over the image: max error {err:.2e} px")


if __name__ == "__main__":
    main()
