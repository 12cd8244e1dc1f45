"""Command-line surface: calibrate, plane-pose, evaluate, synth, report.

Exit codes: 0 success, 1 usage or parse error, 2 numerical failure,
3 degenerate data. File schemas are documented in FORMATS.md.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from . import __version__
from .calibration import CAMERA_LEFT, CAMERA_RIGHT, calibrate_camera, calibrate_stereo
from .errors import (
    DegenerateDataError,
    FormatError,
    NumericalError,
    PlanegazeError,
)
from .formats import (
    input_keys,
    precision_thresholds,
    provenance,
    read_corner_files,
    read_grid_config,
    read_intrinsics,
    read_manifest,
    read_plane_corners,
    read_scene_config,
    read_summary_csv,
    write_cdf_csv,
    write_dataset,
    write_hist_csv,
    write_intrinsics,
    write_plane_pose,
    write_json,
    write_stereo,
    write_summary_csv,
)
from .metrics import DEFAULT_THRESHOLDS_CM
from .plane import estimate_plane_pose

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_DEGENERATE = 3


class _Parser(argparse.ArgumentParser):
    """argparse with exit code 1 on usage errors (default would be 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _finite_float(text: str, name: str) -> float:
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise argparse.ArgumentTypeError(f"{name} must be a number, got {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{name} must be finite, got {text}")
    return value


def _nonnegative_float(text: str, name: str) -> float:
    value = _finite_float(text, name)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{name} must be >= 0, got {text}")
    return value


def _seed(text: str) -> int:
    """A --seed value: an integer in [0, 2**64), the range of the frame streams' key."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}")
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must be {'>= 0' if value < 0 else '< 2**64'}, got {text}")
    return value


def _image_size(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        w, h = int(w), int(h)
    except ValueError:
        raise argparse.ArgumentTypeError(f"image size must look like 1280x720, got {text!r}")
    if w <= 0 or h <= 0:
        raise argparse.ArgumentTypeError(f"image size must be positive, got {text}")
    return w, h


def _add_globals(parser) -> None:
    # accepted before or after the subcommand; SUPPRESS keeps the subparser
    # from clobbering a value given at the top level
    parser.add_argument("--seed", type=_seed, default=argparse.SUPPRESS,
                        help="seed for anything stochastic (default 0)")
    parser.add_argument("--threads", type=int, default=argparse.SUPPRESS,
                        help="accepted and ignored; kept so existing command lines still run")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="planegaze", description=__doc__)
    parser.add_argument("--version", action="version", version=f"planegaze {__version__}")
    _add_globals(parser)
    parser.set_defaults(seed=0, threads=1)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        _add_globals(p)
        return p

    p = add_parser("calibrate", help="intrinsics + stereo pose from corner files")
    p.add_argument("--corners", type=Path, action="append", required=True,
                   help="corner CSV (repeatable); may mix cameras")
    p.add_argument("--grid", type=Path, required=True, help="grid config JSON")
    p.add_argument("--image-size", type=_image_size, required=True, help="sensor size, e.g. 1280x720")
    p.add_argument("--out", type=Path, required=True, help="output directory")

    p = add_parser("plane-pose", help="work-surface pose from display grid corners")
    p.add_argument("--corners", type=Path, required=True, help="plane corner CSV")
    p.add_argument("--grid", type=Path, required=True)
    p.add_argument("--intrinsics", type=Path, required=True, help="left-camera intrinsics JSON")
    p.add_argument("--out", type=Path, required=True, help="output plane-pose JSON path")

    p = add_parser("evaluate", help="score prediction files against a manifest")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--methods", type=str, default=None, help="comma-separated method subset")
    p.add_argument("--tags", type=str, default=None, help="comma-separated tag filters (default: all)")
    p.add_argument("--thresholds", type=str, default=None, help="comma-separated precision thresholds in cm")
    p.add_argument("--out", type=Path, required=True, help="report output directory")

    p = add_parser("synth", help="generate a synthetic dataset with known ground truth")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--frames", type=int, default=200)
    p.add_argument("--calib-views", type=int, default=15)
    p.add_argument("--scene", type=Path, default=None, help="scene config JSON (overrides flags)")
    p.add_argument("--corner-noise", type=lambda s: _nonnegative_float(s, "corner-noise"),
                   default=0.0, help="corner pixel noise sigma")
    p.add_argument("--face-noise", type=lambda s: _nonnegative_float(s, "face-noise"),
                   default=0.0, help="face point pixel noise sigma")
    p.add_argument("--gaze-noise", type=lambda s: _nonnegative_float(s, "gaze-noise"),
                   default=0.0, help="gaze angular noise sigma, degrees")
    p.add_argument("--gaze-bias", type=lambda s: _finite_float(s, "gaze-bias"), nargs=2, default=(0.0, 0.0),
                   metavar=("YAW_DEG", "PITCH_DEG"), help="fixed yaw/pitch bias, degrees")

    p = add_parser("report", help="print a report bundle as a fixed-width table")
    p.add_argument("--report", type=Path, required=True, help="report directory or summary CSV")
    p.add_argument("--method", type=str, default=None, help="only this method")
    p.add_argument("--tag", type=str, default=None, help="only this tag filter")
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """:func:`build_parser`, built once per process; argparse sizes its help text when it prints it."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        # looked up at each call, not bound when the parser was built, so a patched cmd_* is the one run
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except OSError as exc:  # the readers raise FormatError for theirs, so this one came from writing
        target = "standard output" if exc.filename is None else exc.filename  # a print to a closed pipe
        print(f"error: cannot write {target}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, PlanegazeError) as exc:  # FormatError among them
        print(f"error: {exc}", file=sys.stderr)
        return (EXIT_NUMERICAL if isinstance(exc, NumericalError)
                else EXIT_DEGENERATE if isinstance(exc, DegenerateDataError) else EXIT_USAGE)


# --- commands ---------------------------------------------------------------


def cmd_calibrate(args) -> int:
    corners = read_corner_files(args.corners)
    grid = read_grid_config(args.grid)
    paths = [*args.corners, args.grid]
    prov = provenance(inputs=dict(zip(input_keys(paths), paths)), config={"origin": "estimated"})

    # every fit comes before the first write, so a failed one leaves --out as it was
    results = {}
    for camera in (CAMERA_LEFT, CAMERA_RIGHT):
        rows = corners.camera == camera
        if rows.any():
            results[camera] = calibrate_camera(corners.take(rows), grid, args.image_size)
    if not results:
        raise FormatError("corner files contain no observations")
    rig = calibrate_stereo(results[CAMERA_LEFT], results[CAMERA_RIGHT], corners, grid) if len(results) == 2 else None

    for camera, result in results.items():
        per_view_rms = dict(zip(result.view_id.tolist(), result.view_rms.tolist()))
        print(f"{camera}: rms {result.rms_reprojection:.6g} px over {len(per_view_rms)} views")
        for vid, rms in per_view_rms.items():
            print(f"  view {vid}: rms {rms:.6g} px")
        write_intrinsics(
            args.out / f"intrinsics_{camera}.json",
            result.intrinsics,
            camera=camera,
            rms_px=result.rms_reprojection,
            per_view_rms=per_view_rms,
            prov=prov,
        )
    if rig is not None:
        write_stereo(args.out / "stereo.json", rig, prov=prov)
        print(f"stereo: baseline {rig.baseline:.6g} m")
    return EXIT_OK


def cmd_plane_pose(args) -> int:
    corners = read_plane_corners(args.corners)
    grid = read_grid_config(args.grid)
    K = read_intrinsics(args.intrinsics)
    pose = estimate_plane_pose(corners, grid, K)
    paths = [args.corners, args.grid, args.intrinsics]
    keys = input_keys(paths)
    prov = provenance(inputs=dict(zip(keys, paths)), config={"origin": "estimated"})
    write_plane_pose(args.out, pose, prov=prov)
    print(f"plane pose: rms {pose.rms_reprojection:.6g} px")
    print(f"grid config sha256: {prov['inputs'][keys[1]]}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    from .evaluation import evaluate_manifest

    thresholds = _thresholds(args)
    manifest = read_manifest(args.manifest)
    methods = args.methods.split(",") if args.methods else None
    tag_filters = None
    if args.tags is not None:
        tag_filters = [t if t else None for t in args.tags.split(",")]

    bundle = evaluate_manifest(
        manifest,
        methods=methods,
        tag_filters=tag_filters,
        thresholds_cm=thresholds,
    )
    out = Path(args.out)
    input_hashes = bundle.provenance["inputs"]
    prov_meta = {
        "manifest": str(args.manifest),
        "manifest_sha256": input_hashes[manifest.path.name],  # keys are relative to the manifest's directory
        "inputs_sha256": ";".join(f"{k}={v}" for k, v in sorted(input_hashes.items())),
    }
    write_summary_csv(out / "summary.csv", bundle.summary_rows, bundle.thresholds_cm, prov_meta)
    write_cdf_csv(out / "cdf.csv", bundle.cdf, prov_meta)
    write_hist_csv(out / "histogram.csv", bundle.histogram, prov_meta)
    write_json(
        out / "report.json",
        {
            "schema": "planegaze-report-v1",
            "thresholds_cm": list(bundle.thresholds_cm),
            "rows": [
                {**row, "precision_at": {str(k): v for k, v in row["precision_at"].items()}}
                for row in bundle.summary_rows
            ],
            "skipped": {
                m: sorted(rep.skipped) for m, rep in bundle.methods.items() if rep.skipped
            },
            "provenance": bundle.provenance,
        },
    )
    print(f"evaluated {len(bundle.methods)} methods, wrote {len(bundle.summary_rows)} summary rows to {out}")
    return EXIT_OK


def _thresholds(args):
    """Precision thresholds in cm: --thresholds, else the defaults.

    Every value must be a finite number >= 0, and no two may share a summary
    column; duplicates are dropped.
    """
    if args.thresholds is None:  # not "": an empty list is a bad value, not "unset"
        return precision_thresholds(DEFAULT_THRESHOLDS_CM)
    try:
        return precision_thresholds([_nonnegative_float(v, "--thresholds") for v in args.thresholds.split(",")])
    except argparse.ArgumentTypeError as exc:
        raise FormatError(f"bad threshold: {exc}") from None


def cmd_synth(args) -> int:
    from .synthetic import NoiseSpec, default_scene, generate_scene, perturb

    if args.scene is not None:
        spec = read_scene_config(args.scene, frames=args.frames, seed=args.seed, calib_views=args.calib_views)
    else:
        spec = default_scene(frames=args.frames, seed=args.seed, calib_views=args.calib_views)
    noise = NoiseSpec(
        corner_px_sigma=args.corner_noise,
        face_px_sigma=args.face_noise,
        gaze_angle_sigma_deg=args.gaze_noise,
        gaze_bias_yaw_deg=args.gaze_bias[0],
        gaze_bias_pitch_deg=args.gaze_bias[1],
    )
    ds = generate_scene(spec)
    ds = perturb(ds, noise, seed=spec.seed)
    manifest = write_dataset(ds, args.out)
    print(f"wrote dataset with {len(ds.frames)} frames to {manifest}")
    return EXIT_OK


def cmd_report(args) -> int:
    path = Path(args.report)
    if path.is_dir():
        path = path / "summary.csv"
    header, rows = read_summary_csv(path)
    if args.method is not None:
        rows = [r for r in rows if r[0] == args.method]
    if args.tag is not None:
        rows = [r for r in rows if (r[1] or "all") == args.tag]
    if not rows:
        print("no frames matched", file=sys.stderr)
        return EXIT_DEGENERATE

    idx = {name: k for k, name in enumerate(header)}
    p_cols = [h for h in header if h.startswith("p_at_")]
    cols = ["method", "tag_filter", "n_frames", "mean_angular_deg", "median_distance_cm", *p_cols]
    titles = {
        "method": "Method", "tag_filter": "Tag", "n_frames": "Frames",
        "mean_angular_deg": "Mean Angular (deg)", "median_distance_cm": "Median Distance (cm)",
    }
    for h in p_cols:
        titles[h] = "P@" + h[len("p_at_"):].replace("cm", " cm")

    def cell(row, col):
        v = row[idx[col]]
        if col in ("method", "tag_filter", "n_frames"):
            return v if v else ("all" if col == "tag_filter" else v)
        x = float(v)
        if math.isinf(x):
            return ">MAX"
        return f"{x:.2f}"

    table = [[cell(r, c) for c in cols] for r in rows]
    widths = [max(len(titles[c]), *(len(row[k]) for row in table)) for k, c in enumerate(cols)]
    line = "  ".join(titles[c].ljust(widths[k]) for k, c in enumerate(cols))
    print(line)
    print("-" * len(line))
    for row in table:
        print("  ".join(v.ljust(widths[k]) for k, v in enumerate(row)))
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
