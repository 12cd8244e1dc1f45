"""Checkerboard grid on the work surface.

Cell (i, j) means row i, column j of the displayed board; the corner
lattice point (i, j) sits at (s*i, s*j, 0) in the workspace frame, where s
is the metric square size. A board with ``rows`` x ``cols`` squares has
(rows+1) x (cols+1) lattice corners. Target squares are numbered cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class GridConfig:
    """Board geometry plus the numbered-target layout.

    ``target_map`` maps target id -> (i, j) cell. The corner file origin
    convention: (i, j) = (row, column) of the top-left corner as listed in
    the corner file, row index i along +X, column index j along +Y.
    """

    square_size: float
    rows: int
    cols: int
    target_map: dict[int, tuple[int, int]] = field(default_factory=dict)
    origin_note: str = "corner (0,0) is the top-left lattice corner; i = row along +X, j = column along +Y"

    def __post_init__(self):
        if self.square_size <= 0:
            raise ValueError(f"square_size must be positive, got {self.square_size}")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid needs at least one row and one column of squares")
        seen_cells = set()
        for tid, (i, j) in self.target_map.items():
            if not (0 <= i < self.rows and 0 <= j < self.cols):
                raise ValueError(f"target {tid} cell ({i}, {j}) outside {self.rows}x{self.cols} grid")
            if (i, j) in seen_cells:
                raise ValueError(f"target cell ({i}, {j}) assigned to more than one id")
            seen_cells.add((i, j))
        object.__setattr__(
            self, "target_map", {int(k): (int(v[0]), int(v[1])) for k, v in self.target_map.items()}
        )

    def corner_indices(self) -> list[tuple[int, int]]:
        """All lattice corner indices, row-major."""
        return [(i, j) for i in range(self.rows + 1) for j in range(self.cols + 1)]

    def in_bounds(self, i, j):
        """Whether lattice corner (i, j) exists; index arrays give a mask."""
        return (0 <= i) & (i <= self.rows) & (0 <= j) & (j <= self.cols)


def corner_position(config: GridConfig, i, j) -> np.ndarray:
    """Workspace-frame position (s*i, s*j, 0) of lattice corner (i, j).

    Index arrays broadcast and give (..., 3); scalars give (3,).
    """
    i, j = np.broadcast_arrays(i, j)
    s = config.square_size
    return np.stack([s * i, s * j, np.zeros(i.shape)], axis=-1)


def target_centers(config: GridConfig, target_ids) -> np.ndarray:
    """Workspace-frame centers (N, 3) of the numbered target squares; NaN rows for ids not in the grid config."""
    ids = np.array(sorted(config.target_map), dtype=np.int64)
    cells = np.array([config.target_map[t] for t in ids.tolist()], dtype=float).reshape(-1, 2)
    target_ids = np.asarray(target_ids, dtype=np.int64).reshape(-1)
    centers = np.full((target_ids.size, 3), np.nan)
    if ids.size:
        at = np.minimum(np.searchsorted(ids, target_ids), ids.size - 1)
        known = ids[at] == target_ids
        centers[known] = corner_position(config, *(cells[at[known]] + 0.5).T)
    return centers


def default_target_map(rows: int, cols: int, count: int = 20) -> dict[int, tuple[int, int]]:
    """Number the light squares of a checkerboard 1..count in row-major order.

    Light squares are the cells with even i+j, matching a board whose
    top-left square is light.
    """
    mapping: dict[int, tuple[int, int]] = {}
    tid = 1
    for i in range(rows):
        for j in range(cols):
            if (i + j) % 2 == 0:
                mapping[tid] = (i, j)
                tid += 1
                if tid > count:
                    return mapping
    if tid <= count:
        raise ValueError(f"grid {rows}x{cols} has fewer than {count} light squares")
    return mapping
