"""Stereo gaze geometry on a shared planar workspace.

Calibrate a two-camera rig from checkerboard corners, locate the work
surface, triangulate 3D head points, map network gaze predictions onto the
surface, and score them with angular and on-surface distance metrics. A
built-in synthetic scene generator, :mod:`planegaze.synthetic`, provides
exact ground truth for all of it; it is not imported with the package.
"""

__version__ = "0.1.0"

from .calibration import (
    CalibrationResult,
    CornerTable,
    StereoRig,
    calibrate_camera,
    calibrate_stereo,
    estimate_homography,
    intrinsics_from_homographies,
    pose_from_homography,
    refine_calibration,
)
from .camera import (
    CameraIntrinsics,
    project_points,
    undistort_pixels,
)
from .geometry import (
    RigidTransform,
    angular_error_deg,
    yaw_pitch_to_dir,
)
from .grid import GridConfig, default_target_map, target_centers
from .metrics import (
    FrameErrors,
    FrameTable,
    Histogram2D,
    MetricsSummary,
    error_cdf,
    evaluate_frame,
    summarize,
    tag_masks,
    yaw_pitch_histogram,
)
from .pipeline import (
    PredictionTable,
    SurfaceGazeEstimate,
    correct_gaze_to_camera_frame,
    gaze_point_on_surface,
    ground_truth_direction,
)
from .plane import PlanePose, estimate_plane_pose
from .triangulation import FaceTable, HeadPoint, head_point

__all__ = [name for name in dir() if not name.startswith("_")]
