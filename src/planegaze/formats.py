"""File schemas: JSON for configs and calibrations, CSV for bulk tables.

Every file starts with a schema tag. CSV files may carry leading ``#``
comment lines holding key: value metadata (the prediction files use them
for the mandatory angle unit and convention). All writes go through a
temp-file-then-rename so interrupted runs never leave partial output, and
every emitted file embeds the tool version plus content hashes of its
inputs. Floats are written with shortest round-trip repr, so parse(emit(x))
reproduces x exactly.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii as _json_str  # json.dumps's own C string encoder
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .calibration import CAMERA_LEFT, CAMERA_RIGHT, CornerTable, StereoRig
from .camera import CameraIntrinsics
from .errors import FormatError
from .geometry import RigidTransform
from .grid import GridConfig
from .metrics import FrameTable
from .pipeline import CONVENTION_OFFSET, CONVENTIONS, PredictionTable
from .plane import PlanePose
from .triangulation import SOURCE_BBOX, SOURCE_EYES, FaceTable

if TYPE_CHECKING:  # synth alone needs the generator, so it is imported where read_scene_config runs
    from .synthetic import SceneSpec

TOOL_TAG = f"planegaze {__version__}"

ANGLE_UNITS = ("radians", "degrees")


@contextmanager
def _atomic_open(path: Path):
    """A text file opened at ``path``'s ``.tmp`` sibling, renamed to ``path`` once it is complete."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as f:
        yield f
    os.replace(tmp, path)


def atomic_write_text(path: Path, text: str) -> None:
    with _atomic_open(path) as f:
        f.write(text)


def sha256_file(path: Path) -> str:
    """A file's SHA-256; a file that cannot be read is a FormatError naming it, as in :func:`_read_text`."""
    h = hashlib.sha256()
    try:
        with open(path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
    except OSError as exc:
        raise _unreadable(path, exc) from None
    return h.hexdigest()


def input_keys(paths: list[str | Path], base: Path | None = None) -> list[str]:
    """Each input's key in a provenance block: its file name, or, where distinct files
    share a name, its path relative to ``base`` (by default the deepest directory that
    holds them all). No input's digest shadows another's, and no key depends on where
    the files lie."""
    paths = [Path(os.path.abspath(p)) for p in paths]
    keys = []
    for path in paths:
        shared = {q for q in paths if q.name == path.name}
        root = os.path.commonpath(shared) if base is None else base
        keys.append(path.name if len(shared) == 1 else Path(os.path.relpath(path, root)).as_posix())
    return keys


def provenance(inputs: dict[str, str | Path] | None = None, config: dict | None = None) -> dict:
    """Provenance block: tool version, input hashes, config echo. No timestamps."""
    block: dict = {"tool": TOOL_TAG}
    if inputs:
        block["inputs"] = {
            str(name): sha256_file(Path(p)) for name, p in sorted(inputs.items())
        }
    if config:
        block["config"] = config
    return block


def write_json(path: Path, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _read_text(path: Path) -> str:
    """A file's text; a file that cannot be read, or is not UTF-8, is a FormatError naming it."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise _unreadable(path, exc) from None
    except UnicodeDecodeError as exc:  # its object is the file's bytes; lines end as read_text ends them
        line = exc.object[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n").count(b"\n") + 1
        raise FormatError(f"not UTF-8 text: {exc.reason} at byte {exc.start}", file=str(path), line=line) from None


def _unreadable(path: Path, exc: OSError) -> FormatError:
    message = "file not found" if isinstance(exc, FileNotFoundError) else f"cannot read file: {exc.strerror}"
    return FormatError(message, file=str(path))


def _json_int(value, name: str) -> int:
    """``value`` if it is a JSON integer (not 2.5, "7" or true), else a TypeError naming ``name``."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def _json_number(value, name: str) -> float:
    """``value`` as a float if it is a finite JSON number, an int or a float (not true, "0.06",
    NaN or Infinity), else a TypeError naming ``name``."""
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise TypeError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _json_numbers(values, name: str) -> tuple[float, ...]:
    """:func:`_json_number` of each entry of a JSON list."""
    return tuple(_json_number(v, name) for v in values)


def _load_json(path: Path, schema: str) -> dict:
    """A JSON file's top-level object, tagged ``schema``. Text that is not UTF-8 or not JSON (named
    with its line), another top-level value or another schema is a FormatError naming the file."""
    path = Path(path)
    try:
        payload = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc.msg}", file=str(path), line=exc.lineno) from None
    if not isinstance(payload, dict):
        raise FormatError(f"expected a JSON object, found {type(payload).__name__}", file=str(path))
    if payload.get("schema") != schema:
        raise FormatError(
            f"expected schema {schema!r}, found {payload.get('schema')!r}", file=str(path)
        )
    return payload


# --- CSV tables -----------------------------------------------------------
#
# A table schema maps each column name to its kind: "text", "int", "float"
# (finite), or "float?" (finite, or blank for a missing value: NaN in
# memory). A final "*" column accepts any further header columns, as text.

_BLOCK_ROWS = 1024  # rows a table writer joins and writes, or a table reader converts, at a time
# A table whose columns of one float kind hold fewer distinct values than _REPR_CROSSOVER formats them
# with repr, one call each; more go to floatrepr.repr_floats, _REPR_CHUNK at a time. Below about 700
# values the kernel's fixed cost per call makes it slower than repr, and past a few thousand its
# scratch arrays (about 0.7 MB at 2,048) outgrow the caches; CHANGES.md has the measurements.
_REPR_CROSSOVER = 1024
_REPR_CHUNK = 2048


@dataclass(frozen=True)
class _Table:
    """The data rows of one CSV file as typed columns, with their file lines."""

    path: Path
    meta: dict[str, str]
    columns: dict[str, np.ndarray]
    lines: np.ndarray

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    def check(self, bad: np.ndarray, message) -> None:
        """Raise FormatError at the first row flagged in ``bad``; ``message(row)`` says why."""
        if bad.any():
            row = int(np.argmax(bad))
            raise FormatError(message(row), file=str(self.path), line=int(self.lines[row]))


def _write_table(path: Path, columns: dict[str, str], data, meta: dict[str, str], finite: bool = False) -> None:
    """Write one sequence per schema column below ``# key: value`` metadata lines.

    The bytes are csv.writer's (lineterminator "\\n"), with a missing
    "float?" value as a blank cell. Each distinct value of a column is
    formatted once, the floats of all the columns of one kind in one pass
    (:func:`_float_cells`); the rows are then gathered, joined and written
    ``_BLOCK_ROWS`` at a time, so the text in memory is one block's. With
    ``finite``, :func:`_check_finite` runs first, and a table it rejects
    opens no file.
    """
    if finite:
        _check_finite(path, columns, data)
    kinds = list(columns.values())
    cells = [None if kind in ("float", "float?") else _cells(kind, col) for kind, col in zip(kinds, data)]
    for kind in ("float", "float?"):
        group = [k for k, kd in enumerate(kinds) if kd == kind]
        if group:
            for k, column_cells in zip(group, _float_cells(kind, [data[k] for k in group])):
                cells[k] = column_cells
    if len(cells) == 1:  # csv.writer quotes a lone empty field, so no row is blank
        text, index = cells[0]
        cells[0] = np.array([c or '""' for c in text], dtype=object), index
    n_rows = cells[0][1].size
    with _atomic_open(path) as f:
        f.writelines(f"# {k}: {v}\n" for k, v in meta.items())
        f.write(",".join(map(_quote, columns)) + "\n")
        for start in range(0, n_rows, _BLOCK_ROWS):
            block = [text[index[start:start + _BLOCK_ROWS]].tolist() for text, index in cells]
            f.write("\n".join(map(",".join, zip(*block))))
            f.write("\n")


def _check_finite(path: Path, columns: dict[str, str], data) -> None:
    """Raise ValueError at the first data row holding a value the reader rejects, one that is
    not finite in a "float" column or infinite in a "float?" column, naming the file, the
    column, the row and the value."""
    hits = []
    for (name, kind), col in zip(columns.items(), data):
        if kind in ("float", "float?"):
            col = np.asarray(col, dtype=float).reshape(-1)
            bad = np.isinf(col) if kind == "float?" else ~np.isfinite(col)
            if bad.any():
                hits.append((int(np.argmax(bad)), name, col))
    if hits:
        row, name, col = min(hits, key=lambda hit: hit[0])  # the leftmost column among those of that row
        raise ValueError(f"cannot write {path}: field {name!r} of data row {row + 1} "
                         f"is not finite: {float(col[row])!r}")


def _header(schema: str, meta: dict[str, str] | None) -> dict[str, str]:
    """A table's metadata lines: its schema and the tool first, then ``meta``."""
    return {"schema": schema, "tool": TOOL_TAG, **(meta or {})}


def _cells(kind: str, col) -> tuple[np.ndarray, np.ndarray]:
    """One text or int column's cells: each run of equal text values, or each distinct
    integer, formatted once. Returns those cells as an object array and each row's
    index into it. A text column given as an object array of str is taken as it is."""
    if kind == "text":
        values = col if isinstance(col, np.ndarray) and col.dtype == object else np.asarray(col, dtype=str)
        starts = np.r_[True, values[1:] != values[:-1]][:values.size]  # where each run starts
        text, inverse = values[starts].tolist(), np.cumsum(starts) - 1
        if any(map("".join(text).__contains__, ',"\r\n')):  # one check over all the runs
            text = list(map(_quote, text))
    else:
        values = np.asarray(col, dtype=np.int64).reshape(-1)
        distinct, inverse = np.unique(values, return_inverse=True)
        text = list(map(repr, distinct.tolist()))
    return np.array(text, dtype=object), _narrow(inverse, len(text))


def _float_cells(kind: str, cols) -> list[tuple[np.ndarray, np.ndarray]]:
    """The cells of a table's columns of one float kind, as :func:`_cells` gives them. The
    distinct values of all the columns are formatted in one pass, NaN as a blank in a
    "float?" column, into one object array that each column's cells are a slice of."""
    distinct, indices = [], []
    for col in cols:  # distinct on the bit pattern, so -0.0 keeps its sign apart from 0.0
        bits, inverse = np.unique(np.asarray(col, dtype=float).reshape(-1).view(np.int64), return_inverse=True)
        distinct.append(bits.view(float))
        indices.append(_narrow(inverse.reshape(-1), bits.size))
    starts = np.cumsum([0] + [d.size for d in distinct])
    values = np.concatenate(distinct)
    del distinct  # the column copies, which values now holds
    text = np.empty(values.size, dtype=object)
    if values.size < _REPR_CROSSOVER:
        text[:] = list(map(repr, values.tolist()))
    else:
        from .floatrepr import repr_floats  # only a table this large needs the kernel

        for start in range(0, values.size, _REPR_CHUNK):
            text[start:start + _REPR_CHUNK] = repr_floats(values[start:start + _REPR_CHUNK])
    if kind == "float?":
        text[np.isnan(values)] = ""
    return [(text[a:b], index) for a, b, index in zip(starts, starts[1:], indices)]


def _narrow(index: np.ndarray, n_cells: int) -> np.ndarray:
    """Each row's index in the smallest unsigned type that holds it: one byte while there are under 256 cells."""
    return index.astype(np.min_scalar_type(n_cells))


def _quote(text: str) -> str:
    """One text cell as csv.writer writes it. A value it may quote goes to csv.writer
    itself, as whether a bare CR is quoted differs between Python versions."""
    if not any(c in text for c in ',"\r\n'):
        return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text])
    return buf.getvalue()[:-1]


def _read_table(path: Path, columns: dict[str, str]) -> _Table:
    """Read a CSV table: header check, then tokenising and column conversion
    ``_BLOCK_ROWS`` rows at a time, so the cells in memory are one block's.

    Any malformed header, row or cell is a FormatError naming the file and
    the line. Malformed quoting (a quoted field that runs past its line, or
    text after a closing quote) and a field over csv's field limit, in a
    file with quotes or without, come first, then a bad header, then the
    first wrong field count anywhere in the file, then the first bad cell in
    file order.
    """
    path = Path(path)
    text = _read_text(path)
    if "\0" in text:  # np.array(..., dtype=str) would drop it from the end of a cell
        raise FormatError("NUL character", file=str(path), line=text.count("\n", 0, text.index("\0")) + 1)
    quoted, limit = '"' in text, csv.field_size_limit()  # the limit is read, not set
    long = len(text) > limit  # only a file this long can hold a line over the limit
    # read_text folded CR and CRLF to "\n"; splitlines would also break at form feeds,
    # \x1c-\x1e, \x85, \u2028 and \u2029, which csv.writer writes unquoted inside a cell
    text_lines, meta = text.split("\n"), {}
    del text  # the lines hold the text now
    if not text_lines[-1]:  # the file's last line end starts no line
        text_lines.pop()
    for start, line in enumerate(text_lines):  # blank lines and "#" comments lead the header
        if line.startswith("#"):
            key, colon, value = line[1:].partition(":")
            if colon:
                meta[key.strip()] = value.strip()
        elif line.strip():
            break
    else:
        raise FormatError("missing header row", file=str(path))
    body, lines = text_lines[start:], np.arange(start + 1, len(text_lines) + 1)
    del text_lines
    if "" in body:  # an empty line is no row; a whitespace-only one after the header is
        body, lines = [line for line in body if line], lines[[line != "" for line in body]]
    # without quotes, csv.reader splits each line at its commas; a line over its field limit goes
    # through it all the same, so that a field over the limit is one error with quotes or without
    by_csv = quoted or long and max(map(len, body)) > limit
    rows = _csv_rows(body, path, lines) if by_csv else (line.split(",") for line in body)

    header = next(rows)
    names = [n for n in columns if n != "*"]
    problem = None  # (line, message) of a bad header or of the first wrong field count
    if header[:len(names)] != names or (len(header) != len(names) and "*" not in columns):
        problem = int(lines[0]), f"bad header {header!r}, expected {names!r}"
    table = _Table(path, meta, {}, lines[1:])
    kinds = [columns.get(name, "text") for name in header]
    parts, failure = [[] for _ in header], None  # each column's block arrays; the first bad cell
    for first in itertools.count(0, _BLOCK_ROWS):
        block = list(itertools.islice(rows, _BLOCK_ROWS))
        if not block:
            break
        if problem:  # the rest is tokenised only for malformed quoting
            continue
        counts = np.fromiter(map(len, block), dtype=int, count=len(block))
        if (wrong := counts != len(header)).any():
            k = int(np.argmax(wrong))
            problem = int(table.lines[first + k]), f"expected {len(header)} fields, got {counts[k]}"
        elif failure is None:  # after a bad cell the blocks are only counted
            bad_cells = []
            for col, cells in enumerate(zip(*block)):
                values, bad = _column(cells, kinds[col])
                parts[col].append(values)
                if bad is not None:
                    bad_cells.append((bad[0], col, f"field {header[col]!r} {bad[1]}: {cells[bad[0]]!r}"))
            if bad_cells:
                row, _, message = min(bad_cells)
                failure = int(table.lines[first + row]), message
    if problem or failure:
        line, message = problem or failure
        raise FormatError(message, file=str(path), line=line)
    for name, kind, arrays in zip(header, kinds, parts):
        table.columns[name] = np.concatenate(arrays) if arrays else _column((), kind)[0]
        arrays.clear()
    return table


def _csv_rows(body: list[str], path: Path, lines: np.ndarray):
    """csv.reader's rows of ``body``, one line each. A row csv.reader rejects in strict
    mode (text after a closing quote, a field over its size limit), or a quoted field
    that runs past its line, the last line's too, is a FormatError naming the line the
    row starts on."""
    reader = csv.reader(itertools.chain(body, [""]), strict=True)  # a quote left open on the last line runs into ""
    for k in range(len(body)):
        try:
            row, problem = next(reader), None
        except csv.Error as exc:
            row, problem = None, f"malformed CSV: {exc}"
        if reader.line_num != k + 1:
            problem = "quoted field runs past the end of the line"
        if problem:
            raise FormatError(problem, file=str(path), line=int(lines[k]))
        yield row


def _column(cells: tuple[str, ...], kind: str):
    """A column's values and (row, problem) of its first bad cell, or None when all are good."""
    if kind == "text":
        return np.array(cells, dtype=str), None
    dtype = np.int64 if kind == "int" else float
    blank = np.zeros(len(cells), dtype=bool)
    if kind == "float?" and "" in cells:
        blank = np.array([c == "" for c in cells])
        cells = ["nan" if c == "" else c for c in cells]
    try:
        values = np.array(cells, dtype=dtype)
        if kind == "int" or np.all(np.isfinite(values) | blank):
            return values, None
    except (ValueError, OverflowError):
        pass
    # the same conversion cell by cell finds the first bad one
    return None, next((row, problem) for row, cell in enumerate(cells)
                      if not blank[row] and (problem := _cell_problem(cell, dtype)))


def _cell_problem(cell: str, dtype) -> str:
    try:
        value = np.array([cell], dtype=dtype)
    except (ValueError, OverflowError):
        return "is not an integer" if dtype is np.int64 else "is not a number"
    return "" if dtype is np.int64 or np.isfinite(value[0]) else "is not finite"


# --- grid config ------------------------------------------------------------

GRID_SCHEMA = "planegaze-grid-v1"


def write_grid_config(path: Path, grid: GridConfig) -> None:
    write_json(
        Path(path),
        {
            "schema": GRID_SCHEMA,
            "square_size_m": grid.square_size,
            "rows": grid.rows,
            "cols": grid.cols,
            "targets": {str(tid): list(cell) for tid, cell in sorted(grid.target_map.items())},
            "origin_note": grid.origin_note,
            "provenance": provenance(),
        },
    )


def _target_id(key: str) -> int:
    """A grid target key as its id. Only the text ``str`` gives an integer is a key ("7", not "07",
    "+7", "7_0" or a non-ASCII digit), so no two keys name the same target."""
    try:
        if str(int(key)) == key:
            return int(key)
    except ValueError:
        pass
    raise ValueError(f"target id must be a plain decimal integer such as '7', got {key!r}")


def _grid_from_payload(p, path: Path, **extra) -> GridConfig:
    """The grid-config fields of ``p`` as a GridConfig; ``extra`` holds further GridConfig fields."""
    try:
        if not isinstance(p, dict) or not isinstance(p.get("targets", {}), dict):
            raise TypeError("a grid and its targets must be JSON objects")
        return GridConfig(
            square_size=_json_number(p["square_size_m"], "square_size_m"),
            rows=_json_int(p["rows"], "rows"),
            cols=_json_int(p["cols"], "cols"),
            target_map={_target_id(k): tuple(_json_int(c, f"target {k} cell") for c in v)
                        for k, v in p.get("targets", {}).items()},
            **extra,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"bad grid config: {exc}", file=str(path)) from None


def read_grid_config(path: Path) -> GridConfig:
    payload = _load_json(path, GRID_SCHEMA)
    return _grid_from_payload(payload, path, origin_note=str(payload.get("origin_note", "")))


# --- intrinsics / stereo / plane pose ----------------------------------------

INTRINSICS_SCHEMA = "planegaze-intrinsics-v1"
STEREO_SCHEMA = "planegaze-stereo-v1"
PLANE_SCHEMA = "planegaze-plane-pose-v1"
PLANE_FRAMES = {"src_frame": "camera", "dst_frame": "plane"}  # a plane pose maps camera -> workspace


def _intrinsics_payload(K: CameraIntrinsics) -> dict:
    return {
        "fx": K.fx, "fy": K.fy, "cx": K.cx, "cy": K.cy, "skew": 0.0,
        "dist": list(K.dist), "image_size": list(K.image_size),
    }


def _intrinsics_from_payload(p: dict, path: Path) -> CameraIntrinsics:
    try:
        if _json_number(p.get("skew", 0.0), "skew") != 0.0:
            raise ValueError(f"skew must be 0 (the camera model has no skew term), got {p['skew']!r}")
        return CameraIntrinsics(
            fx=_json_number(p["fx"], "fx"), fy=_json_number(p["fy"], "fy"),
            cx=_json_number(p["cx"], "cx"), cy=_json_number(p["cy"], "cy"),
            dist=_json_numbers(p["dist"], "dist"),
            image_size=tuple(_json_int(v, "image_size") for v in p["image_size"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad intrinsics block: {exc}", file=str(path)) from None


def write_intrinsics(path: Path, K: CameraIntrinsics, *, camera: str, rms_px: float | None = None,
                     per_view_rms: dict[str, float] | None = None, prov: dict | None = None) -> None:
    payload = {"schema": INTRINSICS_SCHEMA, "camera": camera, **_intrinsics_payload(K)}
    if rms_px is not None:
        payload["rms_px"] = rms_px
    if per_view_rms:
        payload["per_view_rms_px"] = dict(sorted(per_view_rms.items()))
    payload["provenance"] = prov or provenance()
    write_json(Path(path), payload)


def read_intrinsics(path: Path) -> CameraIntrinsics:
    payload = _load_json(path, INTRINSICS_SCHEMA)
    return _intrinsics_from_payload(payload, Path(path))


def _transform_payload(T: RigidTransform) -> dict:
    return {
        "rotation": [[float(v) for v in row] for row in T.rotation],
        "translation_m": [float(v) for v in T.translation],
    }


def _transform_from_payload(p: dict, path: Path) -> RigidTransform:
    try:
        return RigidTransform(np.array([_json_numbers(row, "rotation") for row in p["rotation"]]),
                              np.array(_json_numbers(p["translation_m"], "translation_m")))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad rigid transform block: {exc}", file=str(path)) from None


def write_stereo(path: Path, rig: StereoRig, *, prov: dict | None = None) -> None:
    write_json(
        Path(path),
        {
            "schema": STEREO_SCHEMA,
            "left": _intrinsics_payload(rig.left),
            "right": _intrinsics_payload(rig.right),
            "right_from_left": _transform_payload(rig.right_from_left),
            "provenance": prov or provenance(),
        },
    )


def read_stereo(path: Path) -> StereoRig:
    payload = _load_json(path, STEREO_SCHEMA)
    p = Path(path)
    return StereoRig(
        left=_intrinsics_from_payload(payload.get("left", {}), p),
        right=_intrinsics_from_payload(payload.get("right", {}), p),
        right_from_left=_transform_from_payload(payload.get("right_from_left", {}), p),
    )


def write_plane_pose(path: Path, pose: PlanePose, *, prov: dict | None = None) -> None:
    write_json(
        Path(path),
        {
            "schema": PLANE_SCHEMA,
            **_transform_payload(pose.transform),
            **PLANE_FRAMES,
            "rms_px": pose.rms_reprojection,
            "provenance": prov or provenance(),
        },
    )


def read_plane_pose(path: Path) -> PlanePose:
    payload = _load_json(path, PLANE_SCHEMA)
    for key, frame in PLANE_FRAMES.items():
        if payload.get(key, frame) != frame:
            raise FormatError(f"{key} must be {frame!r}, got {payload[key]!r}", file=str(path))
    T = _transform_from_payload(payload, Path(path))
    try:
        return PlanePose(T, _json_number(payload.get("rms_px", 0.0), "rms_px"))
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad rms_px: {exc}", file=str(path)) from None


# --- corners ------------------------------------------------------------------

CORNERS_COLUMNS = {"view_id": "text", "camera": "text", "i": "int", "j": "int", "u": "float", "v": "float"}


def _check_cameras(table: _Table) -> None:
    cams = table["camera"]
    table.check(~np.isin(cams, (CAMERA_LEFT, CAMERA_RIGHT)),
                lambda k: f"camera must be left or right, got {str(cams[k])!r}")


def _corners_table(corners: CornerTable, meta: dict[str, str] | None):
    data = [corners.view_id, corners.camera, *corners.ij.T, *corners.uv.T]
    return CORNERS_COLUMNS, data, _header("planegaze-corners-v1", meta)


def write_corners(path: Path, corners: CornerTable, meta: dict[str, str] | None = None) -> None:
    _write_table(Path(path), *_corners_table(corners, meta), finite=True)


def _read_corner_table(path: Path) -> tuple[_Table, CornerTable]:
    """A corner file's rows; a corner, (view_id, camera, i, j), may appear once."""
    t = _read_table(path, CORNERS_COLUMNS)
    _check_cameras(t)
    view, cam, i, j = t["view_id"], t["camera"], t["i"], t["j"]
    t.check(_repeats(view, cam, i, j),
            lambda k: f"second corner ({i[k]}, {j[k]}) for view {str(view[k])!r} camera {str(cam[k])!r}")
    ij, uv = np.column_stack([i, j]), np.column_stack([t["u"], t["v"]])
    return t, CornerTable(view, cam, ij, uv)


def read_corners(path: Path) -> CornerTable:
    return _read_corner_table(path)[1]


def read_corner_files(paths: list[Path]) -> CornerTable:
    """The rows of every corner file in ``paths``, in order.

    A corner that an earlier file holds too is a FormatError at its line in
    the later file.
    """
    tables = [read_corners(path) for path in paths]
    corners = CornerTable.concat(tables)
    view, cam, ij = corners.view_id, corners.camera, corners.ij
    if len(tables) > 1 and (repeat := _repeats(view, cam, *ij.T)).any():
        row = int(np.argmax(repeat))  # no file repeats its own corners, so its twin is in an earlier file
        file_of = np.repeat(np.arange(len(tables)), [len(t) for t in tables])
        twin = int(np.argmax((view == view[row]) & (cam == cam[row]) & (ij == ij[row]).all(axis=1)))
        later = file_of[row]
        t, _ = _read_corner_table(paths[later])  # read again for its line numbers, on this error path only
        raise FormatError(
            f"corner {tuple(ij[row].tolist())} for view {str(view[row])!r} camera {str(cam[row])!r} "
            f"is in {paths[file_of[twin]]} too",
            file=str(paths[later]), line=int(t.lines[row - np.argmax(file_of == later)]),
        )
    return corners


def read_plane_corners(path: Path) -> CornerTable:
    """Display-grid corners: the corner schema, with one view seen by the left camera."""
    t, corners = _read_corner_table(path)
    cams, views = corners.camera, corners.view_id
    t.check(cams != CAMERA_LEFT, lambda k: f"plane corners must be seen by the left camera, got {str(cams[k])!r}")
    t.check(views != views[:1],
            lambda k: f"plane corners must share one view_id, got {str(views[k])!r} after {str(views[0])!r}")
    return corners


# --- face observations ----------------------------------------------------------

FACES_COLUMNS = {
    "frame_id": "text", "camera": "text",
    "u_min": "float?", "v_min": "float?", "u_max": "float?", "v_max": "float?",
    "eye_u": "float?", "eye_v": "float?",
}


def _faces_table(faces: FaceTable, meta: dict[str, str] | None):
    data = [faces.frame_id, faces.camera, *faces.bbox.T, *faces.eye.T]
    return FACES_COLUMNS, data, _header("planegaze-faces-v1", meta)


def write_faces(path: Path, faces: FaceTable, meta: dict[str, str] | None = None) -> None:
    _write_table(Path(path), *_faces_table(faces, meta), finite=True)


def read_faces(path: Path) -> FaceTable:
    """Face observations, at most one per frame per camera; NaN marks a missing source."""
    t = _read_table(path, FACES_COLUMNS)
    _check_cameras(t)
    fid, cam = t["frame_id"], t["camera"]
    bbox = np.column_stack([t["u_min"], t["v_min"], t["u_max"], t["v_max"]])
    eye = np.column_stack([t["eye_u"], t["eye_v"]])
    has_bbox, has_eye = ~np.isnan(bbox), ~np.isnan(eye)
    t.check(has_bbox.any(axis=1) & ~has_bbox.all(axis=1), lambda k: "bbox must have all four fields or none")
    t.check(has_eye.any(axis=1) & ~has_eye.all(axis=1), lambda k: "eye midpoint needs both eye_u and eye_v")
    t.check(~has_bbox[:, 0] & ~has_eye[:, 0], lambda k: "face observation needs a bbox or an eye midpoint")
    t.check((bbox[:, 0] > bbox[:, 2]) | (bbox[:, 1] > bbox[:, 3]),
            lambda k: f"bbox is not well-ordered: {tuple(bbox[k].tolist())}")
    t.check(_repeats(fid, cam), lambda k: (
        f"multiple face observations for frame {str(fid[k])!r} camera {str(cam[k])!r}; "
        "expected exactly one face per frame per camera"
    ))
    return FaceTable(fid, cam, bbox, eye)


def _repeats(*keys: np.ndarray) -> np.ndarray:
    """Mask of the rows whose keys equal those of an earlier row."""
    order = np.lexsort(keys[::-1])  # stable: equal rows stay in file order
    same = np.ones(max(order.size - 1, 0), dtype=bool)
    for key in keys:
        ordered = key[order]
        same &= ordered[1:] == ordered[:-1]
    mask = np.zeros(order.size, dtype=bool)
    mask[order[1:][same]] = True
    return mask


# --- predictions -----------------------------------------------------------------

PREDICTIONS_COLUMNS = {"frame_id": "text", "method": "text", "yaw": "float", "pitch": "float"}


def _predictions_table(predictions: PredictionTable, unit: str, meta: dict[str, str] | None):
    if unit not in ANGLE_UNITS:
        raise ValueError(f"unit must be one of {ANGLE_UNITS}, got {unit!r}")
    scale = 1.0 if unit == "radians" else 180.0 / np.pi
    data = [predictions.frame_id, predictions.method, predictions.yaw * scale, predictions.pitch * scale]
    return PREDICTIONS_COLUMNS, data, _header(
        "planegaze-predictions-v1", {"unit": unit, "convention": predictions.convention, **(meta or {})})


def write_predictions(path: Path, predictions: PredictionTable, *, unit: str = "radians",
                      meta: dict[str, str] | None = None) -> None:
    """Emit predictions with the mandatory unit and convention headers.

    Internal angles are radians; ``unit`` selects the on-disk unit.
    """
    _write_table(Path(path), *_predictions_table(predictions, unit, meta), finite=True)


def read_predictions(path: Path) -> PredictionTable:
    """Parse a prediction file; angles come back in radians.

    The unit header is mandatory: files without it are rejected rather
    than guessed at.
    """
    t = _read_table(path, PREDICTIONS_COLUMNS)
    unit = t.meta.get("unit")
    if unit not in ANGLE_UNITS:
        raise FormatError(
            f"prediction file must declare '# unit: radians|degrees', found {unit!r}", file=str(t.path)
        )
    convention = t.meta.get("convention")
    if convention not in CONVENTIONS:
        raise FormatError(
            f"prediction file must declare '# convention: {'|'.join(CONVENTIONS)}', found {convention!r}",
            file=str(t.path),
        )
    fid, method = t["frame_id"], t["method"]
    t.check(_repeats(fid, method),
            lambda k: f"second prediction for frame {str(fid[k])!r} method {str(method[k])!r}")
    scale = 1.0 if unit == "radians" else np.pi / 180.0
    return PredictionTable(fid, method, t["yaw"] * scale, t["pitch"] * scale, convention, t.lines)


# --- frame truth (synthetic datasets) ----------------------------------------------

TRUTH_COLUMNS = {
    "frame_id": "text", "target_id": "int", "tags": "text",
    "head_x": "float", "head_y": "float", "head_z": "float",
    "dir_x": "float", "dir_y": "float", "dir_z": "float",
}


def _truth_table(frames: FrameTable, head_cc, direction_cc, meta: dict[str, str] | None):
    data = [frames.frame_id, frames.target_id, [";".join(t) for t in frames.tags],
            *np.reshape(head_cc, (-1, 3)).T, *np.reshape(direction_cc, (-1, 3)).T]
    return TRUTH_COLUMNS, data, _header("planegaze-truth-v1", meta)


def write_truth(path: Path, frames: FrameTable, head_cc, direction_cc, meta: dict[str, str] | None = None) -> None:
    """Each frame's annotation with its exact head and gaze direction, (N, 3) each."""
    _write_table(Path(path), *_truth_table(frames, head_cc, direction_cc, meta), finite=True)


def read_truth(path: Path) -> tuple[FrameTable, np.ndarray, np.ndarray]:
    """The frames, heads (N, 3) and gaze directions (N, 3) of a truth file."""
    t = _read_table(path, TRUTH_COLUMNS)
    tags = tuple(tuple(tag for tag in cell.split(";") if tag) for cell in t["tags"].tolist())
    head = np.column_stack([t["head_x"], t["head_y"], t["head_z"]])
    direction = np.column_stack([t["dir_x"], t["dir_y"], t["dir_z"]])
    return FrameTable(t["frame_id"], t["target_id"], tags), head, direction


# --- manifest -------------------------------------------------------------------

MANIFEST_SCHEMA = "planegaze-manifest-v1"


@dataclass(frozen=True)
class PredictionRef:
    path: Path
    head_source: str = SOURCE_BBOX


@dataclass(frozen=True)
class DatasetManifest:
    """Resolved dataset description (all paths absolute)."""

    path: Path  # the manifest file itself
    grid_config: Path
    intrinsics_left: Path
    intrinsics_right: Path
    stereo: Path
    plane_corners: Path
    plane_pose: Path
    faces: Path
    predictions: dict[str, PredictionRef]
    frames: FrameTable
    calibration_corners: Path | None = None
    truth: Path | None = None

    def referenced_files(self) -> list[Path]:
        optional = (self.calibration_corners, self.truth)
        return [self.grid_config, self.intrinsics_left, self.intrinsics_right, self.stereo, self.plane_corners,
                self.plane_pose, self.faces, *(p for p in optional if p is not None),
                *(ref.path for ref in self.predictions.values())]


def write_manifest(path: Path, manifest_payload: dict, frames: FrameTable) -> None:
    """``write_json``'s bytes for the payload with a "frames" array of one entry per frame.

    The array is written from the frame columns and spliced in at its
    top-level key. json.dumps writes no newline inside a string, so the
    only line that starts with two spaces and "frames" is that key's.
    """
    payload = {"schema": MANIFEST_SCHEMA, **manifest_payload, "frames": []}
    payload.setdefault("provenance", provenance())
    head, _, tail = json.dumps(payload, indent=2, sort_keys=True).partition('\n  "frames": []')
    atomic_write_text(Path(path), f'{head}\n  "frames": {_frames_json(frames)}{tail}\n')


def _frames_json(frames: FrameTable) -> str:
    """The frames as json.dumps(indent=2, sort_keys=True) writes their entries at depth 1,
    in one fixed layout per entry; each distinct tag tuple is encoded once."""
    if not len(frames):
        return "[]"
    tag_lists = {tags: json.dumps(list(tags), indent=2).replace("\n", "\n      ") for tags in set(frames.tags)}
    entries = zip(map(_json_str, frames.frame_id.tolist()), frames.tags, frames.target_id.tolist())
    return "[\n    " + ",\n    ".join(
        f'{{\n      "frame_id": {fid},\n      "tags": {tag_lists[tags]},\n      "target_id": {tid}\n    }}'
        for fid, tags, tid in entries) + "\n  ]"


def read_manifest(path: Path) -> DatasetManifest:
    path = Path(path)
    payload = _load_json(path, MANIFEST_SCHEMA)
    root = path.parent

    def resolve(key, required=True, parent=None):
        node = payload if parent is None else parent
        value = node.get(key)
        if value is None:
            if required:
                raise FormatError(f"manifest missing {key!r}", file=str(path))
            return None
        if not isinstance(value, str):
            raise FormatError(f"manifest {key!r} must be a path string, got {value!r}", file=str(path))
        return (root / value).resolve()

    def block(key, kind):
        value = payload.get(key) or kind()
        if not isinstance(value, kind):
            raise FormatError(f"manifest {key!r} must be a JSON {kind.__name__}, got {value!r}", file=str(path))
        return value

    calib = block("calibration", dict)
    preds = {}
    for name, entry in sorted(block("predictions", dict).items()):
        if not isinstance(entry, dict) or not isinstance(entry.get("path"), str):
            raise FormatError(f"prediction entry {name!r} needs a 'path'", file=str(path))
        source = entry.get("head_source", SOURCE_BBOX)
        if source not in (SOURCE_BBOX, SOURCE_EYES):
            raise FormatError(
                f"prediction entry {name!r}: unknown head_source {source!r}", file=str(path)
            )
        preds[name] = PredictionRef(path=(root / entry["path"]).resolve(), head_source=source)

    frames = _frame_table(block("frames", list), path)  # the frames' errors before those of the paths
    manifest = DatasetManifest(
        path=path.resolve(),
        grid_config=resolve("grid_config"),
        intrinsics_left=resolve("left", parent=calib),
        intrinsics_right=resolve("right", parent=calib),
        stereo=resolve("stereo", parent=calib),
        plane_corners=resolve("plane_corners"),
        plane_pose=resolve("plane_pose"),
        faces=resolve("faces"),
        predictions=preds,
        frames=frames,
        calibration_corners=resolve("calibration_corners", required=False),
        truth=resolve("truth", required=False),
    )
    missing = [str(f) for f in manifest.referenced_files() if not f.is_file()]
    if missing:
        raise FormatError(f"manifest references missing files: {missing}", file=str(path))
    return manifest


def _frame_table(entries: list, path: Path) -> FrameTable:
    """A manifest's frame entries as a FrameTable, checked a column at a time.

    Only when a check fails are the entries walked one by one, to name the
    first bad entry (#k) or the first repeated frame_id.
    """
    try:
        frame_ids = [str(e["frame_id"]) for e in entries]
        target_ids, tags = [e["target_id"] for e in entries], [e.get("tags") for e in entries]
        flat = [t for ts in tags if ts for t in ts]
        if ({type(t) for t in target_ids} <= {int} and {type(t) for t in tags} <= {list, type(None)}
                and {type(t) for t in flat} <= {str} and not {"", "all"} & set(flat)
                and len(set(frame_ids)) == len(frame_ids) and "\0" not in "".join(frame_ids)):
            return FrameTable(np.array(frame_ids, dtype=str), np.array(target_ids, dtype=np.int64),
                              tuple(tuple(t or ()) for t in tags))
    except (KeyError, TypeError, OverflowError):
        pass
    seen = set()
    for k, entry in enumerate(entries):
        try:
            fid, tags = str(entry["frame_id"]), entry.get("tags")
            if "\0" in fid:  # np.array(..., dtype=str) would drop it from the end of the id
                raise ValueError(f"frame_id {fid!r} holds a NUL character")
            if tags is not None and not (isinstance(tags, list) and all(isinstance(t, str) and t for t in tags)):
                raise ValueError(f"tags of frame {fid!r} must be a list of strings, none of them empty, got {tags!r}")
            if tags and "all" in tags:
                raise ValueError(f"tag 'all' of frame {fid!r} is reserved for the overall split")
            np.int64(_json_int(entry["target_id"], f"target_id of frame {fid!r}"))  # not 3.7, "12", true or Infinity
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"bad frame entry #{k}: {exc}", file=str(path)) from None
        if fid in seen:
            raise FormatError(f"duplicate frame_id {fid!r}", file=str(path))
        seen.add(fid)
    raise AssertionError("the column checks failed on entries that pass one by one")


# --- synthetic dataset layout -----------------------------------------------------

SCENE_SCHEMA = "planegaze-scene-v1"


def read_scene_config(path: Path, *, frames: int, seed: int, calib_views: int) -> SceneSpec:
    """The default scene with a scene config's overrides; the keywords stand in for absent keys.

    A ``grid`` block keeps GridConfig's default origin note. A malformed
    field is a FormatError naming the file.
    """
    from .synthetic import MethodSpec, default_scene

    payload = _load_json(path, SCENE_SCHEMA)
    overrides = {}
    if "grid" in payload:
        overrides["grid"] = _grid_from_payload(payload["grid"], path)
    try:
        if "participants" in payload:
            overrides["participants"] = tuple(
                (_json_numbers(lo, "participant box"), _json_numbers(hi, "participant box"))
                for lo, hi in payload["participants"]
            )
        if "methods" in payload:
            overrides["methods"] = tuple(
                MethodSpec(m["name"], m.get("convention", CONVENTION_OFFSET), m.get("head_source", SOURCE_BBOX))
                for m in payload["methods"]
            )
        spec = default_scene(
            frames=_json_int(payload.get("frames", frames), "frames"),
            seed=_json_int(payload.get("seed", seed), "seed"),
            calib_views=_json_int(payload.get("calib_views", calib_views), "calib_views"),
        )
        return replace(spec, **overrides)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"invalid scene config: {exc}", file=str(path)) from None


def write_dataset(ds, out_dir: Path) -> Path:
    """Write a synthetic dataset directory; returns the manifest path.

    The calibration and plane-pose files are seeded with the ground truth,
    at the same locations the calibrate/plane-pose commands later
    overwrite with their estimates. Every table is checked
    (:func:`_check_finite`) before the first write, so a dataset that a
    reader would reject leaves ``out_dir`` as it was.
    """
    out = Path(out_dir)
    truth_prov = {"origin": "synthetic-ground-truth", "seed": str(ds.spec.seed)}
    tables = {
        "corners.csv": _corners_table(ds.calib_corners, truth_prov),
        "plane_corners.csv": _corners_table(ds.plane_corners, truth_prov),
        "faces.csv": _faces_table(ds.faces, truth_prov),
        "truth.csv": _truth_table(ds.frames, ds.head_cc, ds.direction_cc, truth_prov),
        **{f"pred_{name}.csv": _predictions_table(ds.predictions[name], "radians", truth_prov)
           for name in sorted(ds.predictions)},
    }
    for fname, (columns, data, _) in tables.items():
        _check_finite(out / fname, columns, data)

    out.mkdir(parents=True, exist_ok=True)
    write_grid_config(out / "grid.json", ds.grid)
    for fname, table in tables.items():
        _write_table(out / fname, *table)

    prov = provenance(config=truth_prov)
    write_intrinsics(out / "calib" / "intrinsics_left.json", ds.rig.left, camera="left", prov=prov)
    write_intrinsics(out / "calib" / "intrinsics_right.json", ds.rig.right, camera="right", prov=prov)
    write_stereo(out / "calib" / "stereo.json", ds.rig, prov=prov)
    write_plane_pose(out / "calib" / "plane.json", ds.plane, prov=prov)

    methods = {m.name: m for m in ds.spec.methods}
    pred_entries = {name: {"path": f"pred_{name}.csv", "head_source": methods[name].head_source}
                    for name in sorted(ds.predictions)}

    manifest_path = out / "manifest.json"
    write_manifest(
        manifest_path,
        {
            "grid_config": "grid.json",
            "calibration": {
                "left": "calib/intrinsics_left.json",
                "right": "calib/intrinsics_right.json",
                "stereo": "calib/stereo.json",
            },
            "calibration_corners": "corners.csv",
            "plane_corners": "plane_corners.csv",
            "plane_pose": "calib/plane.json",
            "faces": "faces.csv",
            "truth": "truth.csv",
            "predictions": pred_entries,
            "provenance": provenance(config=truth_prov),
        },
        ds.frames,
    )
    return manifest_path


# --- report bundle ----------------------------------------------------------------

SUMMARY_COLUMNS = {
    "method": "text", "tag_filter": "text", "n_frames": "int", "n_skipped": "int", "n_failures": "int",
    "mean_angular_deg": "float", "median_distance_cm": "float",
}
CDF_COLUMNS = {"method": "text", "tag_filter": "text", "kind": "text", "threshold": "float", "fraction": "float"}
HIST_COLUMNS = {
    "method": "text", "yaw_lo_deg": "float", "yaw_hi_deg": "float", "pitch_lo_deg": "float",
    "pitch_hi_deg": "float", "count": "int",
}


def precision_thresholds(thresholds_cm) -> tuple[float, ...]:
    """The distinct thresholds, ascending; two that would share a summary column are a ValueError.

    Adding 0.0 turns -0.0 into 0.0, so both spellings name the column p_at_0cm."""
    thresholds = tuple(sorted({float(t) + 0.0 for t in thresholds_cm}))
    for a, b in zip(thresholds, thresholds[1:]):  # {:g} rounds monotonically, so equal names are neighbours
        if f"{a:g}" == f"{b:g}":
            raise ValueError(f"thresholds {a!r} and {b!r} cm share the summary column 'p_at_{b:g}cm'")
    return thresholds


def write_summary_csv(path: Path, rows: list[dict], thresholds_cm, prov_meta: dict[str, str]) -> None:
    columns = {**SUMMARY_COLUMNS, **{f"p_at_{t:g}cm": "float" for t in thresholds_cm}}
    data = [[r[name] for r in rows] for name in SUMMARY_COLUMNS]
    data += [[r["precision_at"][float(t)] for r in rows] for t in thresholds_cm]
    _write_table(Path(path), columns, data, _header("planegaze-summary-v1", prov_meta))


def read_summary_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """A summary file's header and rows, every cell as text."""
    t = _read_table(path, {**dict.fromkeys(SUMMARY_COLUMNS, "text"), "*": "text"})
    return list(t.columns), [list(row) for row in zip(*(c.tolist() for c in t.columns.values()))]


def write_cdf_csv(path: Path, cdf: dict[str, np.ndarray], prov_meta: dict[str, str]) -> None:
    data = [cdf[name] for name in CDF_COLUMNS]
    _write_table(Path(path), CDF_COLUMNS, data, _header("planegaze-cdf-v1", prov_meta))


def write_hist_csv(path: Path, histogram: dict[str, np.ndarray], prov_meta: dict[str, str]) -> None:
    data = [histogram[name] for name in HIST_COLUMNS]
    _write_table(Path(path), HIST_COLUMNS, data, _header("planegaze-histogram-v1", prov_meta))
