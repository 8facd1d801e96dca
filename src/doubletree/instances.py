"""TSP instances: point sets, metrics, seeded generators and TSPLIB I/O.

All randomness flows through numpy's PCG64 bit generator, seeded explicitly,
so instances are reproducible bit-for-bit across platforms for a given
(parameters, seed) pair.  The TSPLIB support is a deliberately small subset:
EUC_2D (distances rounded half-up to the nearest integer, the TSPLIB
convention) plus a nonstandard EUC_2D_REAL keyword for exact Euclidean
distances.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import Optional

import numpy as np

from .errors import ParseError

# Full n x n distance matrices are cached only below this node count;
# larger instances compute distance blocks from coordinates on demand.
MATRIX_CACHE_LIMIT = 3200


class Metric(Enum):
    """Distance semantics, named and valued by their TSPLIB ``EDGE_WEIGHT_TYPE``."""

    EUC_2D = "EUC_2D"  # Euclidean rounded half-up to an integer
    EUC_2D_REAL = "EUC_2D_REAL"  # exact Euclidean


@dataclass(frozen=True, eq=False)
class Instance:
    """A Metric TSP instance: n planar points plus their distance semantics.

    ``coords`` is stored as a read-only (n, 2) float array (a copy of what the
    caller passed).  ``distances`` is the instance's one distance object,
    built on first use and shared by every stage that reads distances.
    """

    name: str
    coords: np.ndarray
    metric: Metric

    def __post_init__(self) -> None:
        xy = np.array(self.coords, dtype=float)
        if xy.ndim != 2 or xy.shape[1] != 2 or xy.shape[0] < 1:
            raise ValueError(f"instance needs an (n, 2) coordinate array, n >= 1; got {xy.shape}")
        if not np.isfinite(xy).all():
            raise ValueError("point coordinates must be finite")
        xy.setflags(write=False)
        object.__setattr__(self, "coords", xy)

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @cached_property
    def distances(self) -> "PairwiseDistances":
        return PairwiseDistances(self)

    def distance(self, a: int, b: int) -> float:
        if not (0 <= a < self.n) or not (0 <= b < self.n):
            raise IndexError(f"node index out of range: ({a}, {b}) for n={self.n}")
        return float(self.distances.pairs(a, b))


def cycle_weight(inst: Instance, order) -> float:
    """Total weight of the Hamiltonian cycle visiting ``order`` then closing."""
    order = np.asarray(order, dtype=np.intp)
    legs = inst.distances.pairs(order, np.roll(order, -1))
    # a left-to-right running sum: np.sum's pairwise order would change the
    # last bits, and the weight sets the bound's step target
    return float(np.add.accumulate(legs)[-1]) if legs.size else 0.0


class PairwiseDistances:
    """Vectorised distance lookups for one instance.

    Keeps the full matrix when the instance is small enough, otherwise
    computes the requested distances from coordinates on every lookup.
    """

    def __init__(self, inst: Instance):
        self.n = inst.n
        self._xy = inst.coords
        self._rounded = inst.metric is Metric.EUC_2D
        self._matrix: Optional[np.ndarray] = None
        if inst.n <= MATRIX_CACHE_LIMIT:
            idx = np.arange(inst.n)
            self._matrix = self.pairs(idx[:, None], idx)

    def pairs(self, a, b) -> np.ndarray:
        """d(a, b) elementwise, with ``a`` and ``b`` broadcast as numpy indices.

        ``pairs(i, cols)`` is one row slice, ``pairs(rows[:, None], cols)``
        a block and ``pairs(i, slice(None))`` a whole row.
        """
        if self._matrix is not None:
            return self._matrix[a, b]
        # in place in the two difference arrays (0-d for a scalar lookup)
        dx = np.asarray(self._xy[a, 0] - self._xy[b, 0])
        dy = np.asarray(self._xy[a, 1] - self._xy[b, 1])
        np.multiply(dx, dx, out=dx)
        np.multiply(dy, dy, out=dy)
        np.add(dx, dy, out=dx)
        np.sqrt(dx, out=dx)
        if self._rounded:
            np.add(dx, 0.5, out=dx)
            np.floor(dx, out=dx)  # round half up, the TSPLIB convention
        return dx[()]

    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            raise MemoryError(f"full matrix not cached for n={self.n}")
        return self._matrix


# ---------------------------------------------------------------------------
# Random generators


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def generate_uniform(n: int, seed: int, box: float = 1.0) -> Instance:
    """n points i.i.d. uniform on [0, box]^2, reproducible in (n, seed, box)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if box <= 0:
        raise ValueError("box must be positive")
    xy = _rng(seed).random((n, 2)) * box
    return Instance(f"uniform-n{n}-s{seed}", xy, Metric.EUC_2D_REAL)


def generate_clustered(
    n: int,
    seed: int,
    box: float = 1.0,
    clusters: Optional[int] = None,
) -> Instance:
    """Clustered points: uniform centers, Gaussian offsets around them.

    clusters defaults to max(1, n // 100); the offsets' standard deviation is
    box / (50 * sqrt(clusters)).  Points may fall slightly outside the box;
    offsets are not clipped.
    """
    if clusters is None:
        clusters = max(1, n // 100)
    if not (n >= clusters >= 1):
        raise ValueError(f"need n >= clusters >= 1, got n={n}, clusters={clusters}")
    if box <= 0:
        raise ValueError("box must be positive")
    sigma = box / (50.0 * math.sqrt(clusters))
    rng = _rng(seed)
    centers = rng.random((clusters, 2)) * box
    assign = rng.integers(0, clusters, size=n)
    offsets = rng.normal(0.0, sigma, size=(n, 2))
    xy = centers[assign] + offsets
    return Instance(f"clustered-n{n}-c{clusters}-s{seed}", xy, Metric.EUC_2D_REAL)


# ---------------------------------------------------------------------------
# TSPLIB subset I/O

_KEYWORD_RE = re.compile(r"^\s*([A-Za-z_0-9]+)\s*:\s*(.*?)\s*$")
_SUPPORTED_KEYWORDS = {"NAME", "TYPE", "COMMENT", "DIMENSION", "EDGE_WEIGHT_TYPE"}


def parse_tsplib(text: str) -> Instance:
    """Parse the supported TSPLIB subset (EUC_2D / EUC_2D_REAL node coords).

    One forward pass over the non-blank lines: keyword lines (each keyword at
    most once), ``NODE_COORD_SECTION`` (after DIMENSION), exactly DIMENSION
    coordinate lines, then ``EOF`` or the end of the text.  Text after ``EOF``
    is ignored.  Any departure raises ``ParseError``, with a line number where
    one applies.
    """
    lines = text.splitlines()
    # the end of the text reads as an EOF on its last line
    rows = chain(((no, s) for no, raw in enumerate(lines, start=1) if (s := raw.strip())),
                 [(len(lines), "EOF")])
    header: dict[str, str] = {}
    dim: Optional[int] = None
    for lineno, line in rows:
        if line in ("EOF", "NODE_COORD_SECTION"):
            break
        m = _KEYWORD_RE.match(line)
        if not m:
            raise ParseError(f"unrecognised line: {line!r}", lineno)
        key, value = m.group(1).upper(), m.group(2)
        if key not in _SUPPORTED_KEYWORDS:
            raise ParseError(f"unsupported keyword {key!r}", lineno)
        if key in header:
            raise ParseError(f"keyword {key!r} given twice", lineno)
        if key == "TYPE" and value.upper() != "TSP":
            raise ParseError(f"unsupported TYPE {value!r} (only TSP)", lineno)
        if key == "DIMENSION":
            try:
                dim = int(value)
            except ValueError as exc:
                raise ParseError(f"bad DIMENSION {value!r}", lineno) from exc
            if dim < 1:
                raise ParseError(f"DIMENSION must be >= 1, got {dim}", lineno)
        header[key] = value
    if dim is None:
        if line == "NODE_COORD_SECTION":
            raise ParseError("NODE_COORD_SECTION before DIMENSION", lineno)
        raise ParseError("missing DIMENSION header")
    if line == "EOF":
        raise ParseError("missing NODE_COORD_SECTION")

    coords: dict[int, tuple[float, float]] = {}
    while len(coords) < dim:
        lineno, row = next(rows)
        if row == "EOF" or _KEYWORD_RE.match(row):
            raise ParseError(f"expected {dim} coordinate lines, found {len(coords)}", lineno)
        parts = row.split()
        if len(parts) != 3:
            raise ParseError(f"malformed coordinate line: {row!r}", lineno)
        try:
            idx = int(parts[0])
            x, y = float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ParseError(f"malformed coordinate line: {row!r}", lineno) from exc
        if not (1 <= idx <= dim):
            raise ParseError(f"node index {idx} outside 1..{dim}", lineno)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ParseError("point coordinates must be finite", lineno)
        if idx in coords:
            raise ParseError(f"duplicate node index {idx}", lineno)
        coords[idx] = (x, y)
    lineno, line = next(rows)
    if line != "EOF":
        raise ParseError(f"expected EOF after {dim} coordinate lines, found {line!r}", lineno)

    ew = header.get("EDGE_WEIGHT_TYPE", "").upper()
    if not ew:
        raise ParseError("missing EDGE_WEIGHT_TYPE header")
    try:
        metric = Metric(ew)
    except ValueError as exc:
        raise ParseError(f"unsupported EDGE_WEIGHT_TYPE {ew!r}") from exc
    name = header.get("NAME", "unnamed")
    # dim distinct indices in 1..dim: every node has its line
    return Instance(name, [coords[i] for i in range(1, dim + 1)], metric)


def write_tsplib(inst: Instance) -> str:
    """Serialise an instance; parse_tsplib inverts this exactly."""
    out = [
        f"NAME : {inst.name}",
        "TYPE : TSP",
        f"DIMENSION : {inst.n}",
        f"EDGE_WEIGHT_TYPE : {inst.metric.value}",
        "NODE_COORD_SECTION",
    ]
    # tolist() yields Python floats, whose repr is the shortest exact form
    for i, (x, y) in enumerate(inst.coords.tolist(), start=1):
        out.append(f"{i} {x!r} {y!r}")
    out.append("EOF")
    return "\n".join(out) + "\n"
