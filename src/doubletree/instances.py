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
# distances a block lookup computes from coordinates at a time
CHUNK_ENTRIES = 1 << 16


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
        # every squared difference is at most the squared spans' sum, in
        # Python floats, which overflow to inf without a numpy warning
        dx, dy = (float(hi) - float(lo) for lo, hi in zip(xy.min(axis=0), xy.max(axis=0)))
        if not math.isfinite(dx * dx + dy * dy):
            raise ValueError("point coordinates too far apart: squared distances overflow")
        xy.setflags(write=False)
        object.__setattr__(self, "coords", xy)

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @cached_property
    def distances(self) -> "PairwiseDistances":
        return PairwiseDistances(self)


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
    computes the requested distances from coordinates on every lookup, a
    block at most ``CHUNK_ENTRIES`` distances at a time.  ``xy`` is the
    instance's read-only (n, 2) coordinate array.
    """

    def __init__(self, inst: Instance):
        self.n = inst.n
        self.xy = inst.coords
        # the coordinate columns: a lookup takes from a 1-d view much faster
        # than it indexes xy with a column number
        self._x, self._y = self.xy.T
        self._rounded = inst.metric is Metric.EUC_2D
        self._matrix: Optional[np.ndarray] = None
        if inst.n <= MATRIX_CACHE_LIMIT:
            idx = np.arange(inst.n)
            self._matrix = self.pairs(idx[:, None], idx)

    @property
    def cached(self) -> bool:
        """True when the full matrix is held, so a row lookup is a view of it."""
        return self._matrix is not None

    def pairs(self, a, b) -> np.ndarray:
        """d(a, b) elementwise, with ``a`` and ``b`` broadcast as numpy indices.

        ``pairs(i, cols)`` is one row slice, ``pairs(rows[:, None], cols)``
        a block and ``pairs(i, slice(None))`` a whole row.
        """
        if self._matrix is not None:
            return self._matrix[a, b]
        # the x lookups are freed once subtracted, so that they are not held
        # with the y lookups: three result-sized arrays at the peak, not five
        xa, xb = self._x[a], self._x[b]
        if (xa.ndim < 2 and xb.ndim < 2) or xa.size * xb.size <= CHUNK_ENTRIES:
            dx = xa - xb
            del xa, xb
            return self._lengths(dx, self._y[a] - self._y[b])
        # a block is filled a few rows at a time: whole-block difference
        # arrays would double its peak memory and fragment the heap
        out = np.empty(np.broadcast_shapes(xa.shape, xb.shape))
        np.subtract(xa, xb, out=out)
        del xa, xb
        ya, yb = (np.broadcast_to(v, out.shape) for v in (self._y[a], self._y[b]))
        step = max(1, CHUNK_ENTRIES * out.shape[0] // out.size)
        for lo in range(0, out.shape[0], step):
            rows = slice(lo, lo + step)
            self._lengths(out[rows], ya[rows] - yb[rows])
        return out

    def to_points(self, a, x, y) -> np.ndarray:
        """d(a, p) elementwise for the points p at coordinates (``x``, ``y``),
        always computed from coordinates.

        Where ``x`` and ``y`` are the coordinates of nodes ``b`` it is
        ``pairs(a, b)`` bit for bit.  Each step of the arithmetic is monotone
        in ``|dx|`` and ``|dy|``, so a point at least as far off in both is
        never nearer.
        """
        return self._lengths(self._x[a] - x, self._y[a] - y)

    def _lengths(self, dx, dy) -> np.ndarray:
        """The distances for the coordinate differences ``dx`` and ``dy``,
        computed in place in them (0-d arrays for a scalar lookup)."""
        dx, dy = np.asarray(dx), np.asarray(dy)
        np.multiply(dx, dx, out=dx)
        np.multiply(dy, dy, out=dy)
        np.add(dx, dy, out=dx)
        np.sqrt(dx, out=dx)
        if self._rounded:
            np.add(dx, 0.5, out=dx)
            np.floor(dx, out=dx)  # round half up, the TSPLIB convention
        return dx[()]


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
    try:
        return Instance(name, [coords[i] for i in range(1, dim + 1)], metric)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


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
