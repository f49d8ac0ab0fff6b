"""Seeded input generators for the trismooth benchmark.

Every input is a pure function of the benchmark seed, so the same seed
gives byte-identical files.  The program under test only ever sees the
files and values written here.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

#: Cells per side of the grid_45k mesh: 2 * 150**2 = 45,000 triangles.
GRID_CELLS = 150
#: Cells per side of the warm-up grid (8 triangles).
SMALL_GRID_CELLS = 2
#: Interior vertices move by up to this fraction of a cell per axis.  Below
#: 0.25 no triangle can collapse or flip: each vertex moves at most
#: 0.2 * sqrt(2) = 0.28 cells toward any edge, and the shortest height of an
#: unjittered half-cell is 1 / sqrt(2) = 0.71 cells.
GRID_JITTER = 0.2

#: Fan sizes are stratified log-uniform over the ROADMAP range 3..500: one
#: draw per stratum, so the spread of sizes (and of op times) is nearly the
#: same for every seed while each size is still drawn by the seed.
FAN_N_MIN = 3
FAN_N_MAX = 500
FAN_COUNT = 48
FAN_STEPS = 200

#: Triples and coordinate triangles per triple_batch op.
BATCH = 1000
#: Dirichlet(2, 2, 2) keeps every angle far from 0 (P(angle < 1e-9) ~ 1e-18),
#: so no op fails on a degenerate draw.
TRIPLE_CONCENTRATION = 2.0

# Independent random streams per input kind, so adding one kind never
# changes another kind's inputs for the same seed.
_GRID, _FANS, _TRIPLES, _TRIANGLES = 1, 2, 3, 4


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def jittered_grid(cells: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-square grid, interior vertices jittered, each cell split in two.

    Returns vertices ``(V, 2)`` and faces ``(F, 3)`` with F = 2 * cells**2.
    The diagonal of each cell is chosen by the seed.
    """
    rng = _rng(seed, _GRID)
    n = cells + 1
    jj, ii = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    xy = np.stack([ii, jj], axis=-1).astype(float)
    shift = rng.uniform(-GRID_JITTER, GRID_JITTER, size=(n, n, 2))
    shift[0, :, :] = shift[-1, :, :] = shift[:, 0, :] = shift[:, -1, :] = 0.0
    vertices = ((xy + shift) / cells).reshape(-1, 2)

    v00 = (jj[:-1, :-1] * n + ii[:-1, :-1]).ravel()
    v10, v01, v11 = v00 + 1, v00 + n, v00 + n + 1
    flip = rng.integers(0, 2, size=v00.size).astype(bool)
    first = np.where(flip[:, None], np.stack([v00, v10, v01], 1), np.stack([v00, v10, v11], 1))
    second = np.where(flip[:, None], np.stack([v10, v11, v01], 1), np.stack([v00, v11, v01], 1))
    faces = np.stack([first, second], axis=1).reshape(-1, 3)
    return vertices, faces


def write_off(vertices: np.ndarray, faces: np.ndarray, path) -> None:
    """OFF in the layout ``save_off`` writes: constant z, 17 digits."""
    lines = ["OFF", f"{len(vertices)} {len(faces)} 0"]
    lines += [f"{x:.17g} {y:.17g} 0" for x, y in vertices.tolist()]
    lines += [f"3 {i} {j} {k}" for i, j, k in faces.tolist()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def fan_sizes(seed: int, count: int = FAN_COUNT) -> list[tuple[int, int]]:
    """``count`` fans as (N, random_mesh seed), in a seeded op order."""
    rng = _rng(seed, _FANS)
    edges = np.linspace(math.log(FAN_N_MIN - 0.5), math.log(FAN_N_MAX + 0.5), count + 1)
    sizes = np.rint(np.exp(rng.uniform(edges[:-1], edges[1:])))
    sizes = np.clip(sizes, FAN_N_MIN, FAN_N_MAX).astype(int)
    seeds = rng.integers(0, 2**31, size=count)
    order = rng.permutation(count)
    return [(int(sizes[i]), int(seeds[i])) for i in order]


def triples(seed: int, count: int = BATCH) -> np.ndarray:
    """``(count, 3)`` angle triples: Dirichlet draws scaled to sum to pi."""
    conc = (TRIPLE_CONCENTRATION,) * 3
    return _rng(seed, _TRIPLES).dirichlet(conc, size=count) * math.pi


def triangles(seed: int, count: int = BATCH) -> np.ndarray:
    """``(count, 3, 2)`` vertex coordinates drawn uniformly in the unit square."""
    return _rng(seed, _TRIANGLES).uniform(0.0, 1.0, size=(count, 3, 2))


def write_inputs(workload: str, seed: int, directory: Path) -> dict[str, Path]:
    """Write one workload's inputs and its warm-up input into ``directory``.

    Returns the written files by role.  Roles starting with ``small`` hold
    the warm-up input that the set-up probe and the child's untimed warm-up
    op use.
    """
    files: dict[str, Path] = {}
    directory.mkdir(parents=True, exist_ok=True)
    if workload == "grid_45k":
        files["mesh"] = directory / "grid.off"
        write_off(*jittered_grid(GRID_CELLS, seed), files["mesh"])
        files["small"] = directory / "grid_small.off"
        write_off(*jittered_grid(SMALL_GRID_CELLS, seed), files["small"])
    elif workload == "fan_sweep":
        fans = fan_sizes(seed)
        files["fans"] = directory / "fans.json"
        files["fans"].write_text(json.dumps({"steps": FAN_STEPS, "fans": fans}) + "\n")
        files["small"] = directory / "fan_small.json"
        small = {"steps": FAN_STEPS, "fans": [(FAN_N_MIN, fans[0][1])]}
        files["small"].write_text(json.dumps(small) + "\n")
    elif workload == "triple_batch":
        files["triples"] = directory / "triples.npy"
        np.save(files["triples"], triples(seed))
        files["triangles"] = directory / "triangles.npy"
        np.save(files["triangles"], triangles(seed))
        files["small_triples"] = directory / "small_triples.npy"
        np.save(files["small_triples"], triples(seed, 1))
        files["small_triangles"] = directory / "small_triangles.npy"
        np.save(files["small_triangles"], triangles(seed, 1))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return files
