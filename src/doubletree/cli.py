"""Command-line benchmark harness.

Subcommands: ``gen`` writes random instances as TSPLIB files, ``run``
executes one heuristic on one instance, ``suite`` sweeps a heuristic grid
over generated instances and emits CSV, ``verify`` cross-checks the solver
against the exhaustive oracles on a small instance.

Every subcommand reaches the pipeline the same way: the instance comes
from a TSPLIB file or from ``GENERATORS`` (through ``_generate``, the one
place a generator is called), grid cells are checked by ``_check_cell``
and ``_check_full_search`` before anything is built, and ``build_records``
runs MST, rooting, degree pass, upsweep, downsweep, checks and the lower
bound.  It returns one ``RunRecord`` per cell, and every subcommand reads
that record: its CSV fields, its tour and tree (``--tour-out``, ``--plot``
and the oracles of ``verify``) or, for a ``#FAILED`` cell, its error.

Exit codes: 0 success, 2 configuration error, 3 input/parse error, 4 guard
violation, 5 internal invariant failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
import time
from dataclasses import dataclass
from typing import Optional, Sequence, TextIO

from .downsweep import Tour, downsweep, write_tour_plain, write_tour_tsplib
from .errors import ConfigError, GuardError, InternalInvariantError, ParseError
from .hk_bound import HK_ITERATIONS, held_karp_lower_bound
from .instances import (
    Instance,
    Metric,
    generate_clustered,
    generate_uniform,
    parse_tsplib,
    write_tsplib,
)
from .oracles import (
    brute_force_optimal,
    check_oracle_size,
    depth_first_shortcut,
    enumerate_conforming_min,
    is_conforming,
)
from .spanning_tree import (
    RootedTree,
    degree_increase,
    minimum_spanning_tree,
    root_tree,
)
from .upsweep import upsweep

CSV_HEADER = "instance,n,heuristic,D,k,mst_weight,tour_weight,hk_bound,excess_pct,wall_time_ms,seed"

DEFAULT_GRID = "1x16,3x16,3x32,4x16,4x32,5x16,5x32"
DEFAULT_BOX = 1e6
FULL_DT_SIZE_CAP = 31623  # quadratic full-table cost beyond this is impractical
# largest generated instance: 16 bytes of coordinates a node, 160 MB at the cap
MAX_NODES = 10**7
PLOT_SIZE = 800  # side of the debug SVG, in pixels
GENERATORS = {"uniform": generate_uniform, "clustered": generate_clustered}


@dataclass
class RunRecord:
    """One grid cell on one instance: the CSV fields, the tour, and the tree it was solved on.

    A ``#FAILED`` record has no tour or tree and holds the error that stopped it.
    """

    instance: str
    n: int
    heuristic: str
    D: int
    k: Optional[int]
    mst_weight: float
    tour_weight: float
    hk_bound: float
    excess_pct: float
    wall_time_ms: float
    seed: int
    tour: Optional[Tour] = None
    tree: Optional[RootedTree] = None
    error: Optional[Exception] = None

    def csv_row(self) -> str:
        """The record as one CSV line; only a field holding ``,`` or ``"`` is quoted."""
        buf = io.StringIO()
        csv.writer(buf, lineterminator="").writerow(
            [
                self.instance,
                str(self.n),
                self.heuristic,
                str(self.D),
                _fmt_k(self.k),
                _fmt(self.mst_weight),
                _fmt(self.tour_weight),
                _fmt(self.hk_bound),
                f"{self.excess_pct:.4f}",  # nan without a bound, inf over a zero one
                f"{self.wall_time_ms:.3f}",
                str(self.seed),
            ]
        )
        return buf.getvalue()


def _fmt(x: float) -> str:
    return f"{x:.6f}" if math.isfinite(x) else "nan"


def _fmt_k(k: Optional[int]) -> str:
    return "inf" if k is None else str(k)


def _grid_label(d: int, k: Optional[int]) -> str:
    return "DT" if (d == 1 and k is None) else f"DT_{d}_{_fmt_k(k)}"


def _check_cell(d: int, k: Optional[int]) -> None:
    if d < 1 or d == 2:
        raise ConfigError(f"degree limit must be 1 (off) or >= 3, got {d}")
    if k is not None and k < 1:
        raise ConfigError(f"depth must be >= 1 or inf, got {k}")


def _check_hk_iterations(iterations: int) -> None:
    if iterations < 1:
        raise ConfigError(f"hk iterations must be >= 1, got {iterations}")


def _parse_depth(token: str) -> Optional[int]:
    """A search depth: an integer, or ``inf`` for no cap (None)."""
    if token == "inf":
        return None
    try:
        return int(token)
    except ValueError as exc:
        raise ConfigError(f"bad depth {token!r} (expected an integer or 'inf')") from exc


def _check_generator(kind: str) -> None:
    if kind not in GENERATORS:
        raise ConfigError(f"unknown generator {kind!r} (expected {' or '.join(GENERATORS)})")


def _check_generated_size(n: int) -> None:
    if n > MAX_NODES:
        raise GuardError(f"generated instances are capped at n <= {MAX_NODES}, got n = {n}")


def _generate(kind: str, n: int, seed: int, box: float, clusters: Optional[int]) -> Instance:
    """The instance ``GENERATORS[kind]`` draws; only ``clustered`` takes ``clusters``."""
    if clusters is not None and GENERATORS[kind] is not generate_clustered:
        raise ConfigError(f"generator {kind!r} takes no clusters parameter")
    _check_generated_size(n)
    extra = {} if clusters is None else {"clusters": clusters}
    return GENERATORS[kind](n, seed, box, **extra)


def _parse_gen_spec(spec: str) -> tuple[Instance, int]:
    """Generator specs look like ``uniform:n=1000,seed=3,box=1e6``; each key at most once."""
    head, _, rest = spec.partition(":")
    kind = head.strip().lower()
    _check_generator(kind)
    params: dict[str, str] = {}
    if rest:
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            key = key.strip().lower()
            if not eq:
                raise ConfigError(f"bad generator parameter {item!r} (expected key=value)")
            if key in params:
                raise ConfigError(f"generator parameter {key!r} given twice")
            params[key] = value.strip()
    try:
        n = int(params.pop("n"))
        seed = int(params.pop("seed", "0"))
        box = float(params.pop("box", str(DEFAULT_BOX)))
        clusters = int(params.pop("clusters")) if "clusters" in params else None
    except KeyError as exc:
        raise ConfigError(f"generator spec misses required parameter {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad generator parameter value: {exc}") from exc
    if params:
        raise ConfigError(f"unknown generator parameters: {sorted(params)}")
    return _generate(kind, n, seed, box, clusters), seed


def _load_instance(path: Optional[str], gen_spec: Optional[str]) -> tuple[Instance, int]:
    """The instance and the seed its records report: the generator's, or 0 for a file."""
    if gen_spec is not None:
        return _parse_gen_spec(gen_spec)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_tsplib(text), 0


Cell = tuple[int, Optional[int]]  # (degree limit D, search depth k; None = unlimited)


def _check_full_search(n: int, cells: Sequence[Cell]) -> None:
    if n > FULL_DT_SIZE_CAP and any(k is None for _, k in cells):
        raise ConfigError(
            f"full-table search (depth inf) is capped at n <= {FULL_DT_SIZE_CAP}, got n = {n}; "
            "use a finite depth or a smaller instance"
        )


def build_records(
    inst: Instance, cells: Sequence[Cell], hk_iterations: int, seed: int
) -> list[RunRecord]:
    """MST -> root once, then per cell: reattachment -> table pass -> reconstruction.

    The one pipeline function: one record per cell, all sharing one lower
    bound.  Every tour in a record has been verified: a permutation,
    admissible for the tree it was built on, weight in agreement with the
    table pass, within twice the tree weight and not below the bound.  A cell
    that fails any of this gets a ``#FAILED`` record holding the error.
    ``wall_time_ms`` runs from MST construction through tour reconstruction.
    """
    t0 = time.perf_counter()
    parent, mst_w, spanning = minimum_spanning_tree(inst)
    mst = root_tree(parent)
    mst_ms = (time.perf_counter() - t0) * 1000.0
    # integer rounding lets each of the <= n-2 shortcuts gain up to one unit
    slack = float(inst.n) if inst.metric is Metric.EUC_2D else 0.0
    records: list[RunRecord] = []
    hk: Optional[float] = None
    for d, k in cells:
        label = _grid_label(d, k)
        try:
            t1 = time.perf_counter()
            tree = degree_increase(mst, d) if d >= 3 else mst
            tour = downsweep(inst, tree, upsweep(inst, tree, k=k))
            wall_ms = mst_ms + (time.perf_counter() - t1) * 1000.0
            if not is_conforming(tour, tree):
                raise InternalInvariantError("emitted tour violates subtree contiguity")
            if tour.weight > 2.0 * mst_w * (1.0 + 1e-12) + 1e-9 + slack:
                raise InternalInvariantError(
                    f"tour weight {tour.weight} exceeds twice the tree weight {mst_w}"
                )
        except (GuardError, InternalInvariantError, ValueError) as exc:
            error = exc
        else:
            if hk is None:  # computed once, when the first cell has a tour
                hk = (held_karp_lower_bound(inst, mst, hk_iterations, spanning)
                      if inst.n >= 3 else math.nan)
            if hk == 0.0:  # coincident points: only a zero tour meets a zero bound
                excess = 0.0 if tour.weight == 0.0 else math.inf
            else:
                excess = 100.0 * (tour.weight / hk - 1.0)
            if excess < -1e-6:
                error = InternalInvariantError(
                    f"lower bound {hk} exceeds tour weight {tour.weight}"
                )
            else:
                # inside the tolerance a bound above the tour is rounding: no
                # excess; max keeps the NaN of a run without a bound
                records.append(RunRecord(inst.name, inst.n, label, d, k, mst_w, tour.weight, hk,
                                         max(excess, 0.0), wall_ms, seed, tour, tree))
                continue
        records.append(RunRecord(f"{inst.name}#FAILED", inst.n, label, d, k, math.nan, math.nan,
                                 math.nan, math.nan, 0.0, seed, error=error))
    return records


def _build_cell(inst: Instance, cell: Cell, hk_iterations: int, seed: int) -> RunRecord:
    """``build_records`` on one cell, raising the cell's error in place of its record."""
    if inst.n < 2:
        raise ConfigError("tour construction needs at least 2 nodes")
    _check_full_search(inst.n, [cell])
    [record] = build_records(inst, [cell], hk_iterations, seed)
    if record.error is not None:
        raise record.error
    return record


# ---------------------------------------------------------------------------
# suite


def parse_grid(spec: str) -> list[Cell]:
    """Grid tokens: ``dt`` (full search) or ``DxK`` with K an int or ``inf``; each cell once."""
    out: list[Cell] = []
    for token in spec.split(","):
        token = token.strip().lower()
        if not token:
            continue
        # dt is the cell 1xinf
        d_part, sep, k_part = ("1xinf" if token == "dt" else token).partition("x")
        if not sep:
            raise ConfigError(f"bad grid token {token!r} (expected 'dt' or 'DxK')")
        try:
            d = int(d_part)
        except ValueError as exc:
            raise ConfigError(f"bad grid token {token!r}: {exc}") from exc
        k = _parse_depth(k_part)
        _check_cell(d, k)
        if (d, k) in out:
            raise ConfigError(f"grid token {token!r} repeats cell {_grid_label(d, k)}")
        out.append((d, k))
    if not out:
        raise ConfigError("empty heuristic grid")
    return out


def run_suite(
    sizes: Sequence[int],
    seeds: int,
    grid: Sequence[Cell],
    klass: str = "uniform",
    box: float = DEFAULT_BOX,
    hk_iterations: int = HK_ITERATIONS,
    timing: bool = False,
    log: Optional[TextIO] = None,
) -> str:
    """CSV for the cartesian product sizes x seeds x grid, plus mean rows.

    The MST and the bound are computed once per instance and shared across
    the grid.  By default wall_time_ms is reported as 0 so reruns of one
    configuration are byte-identical; pass timing=True for measured times.
    """
    if seeds < 1:
        raise ConfigError("need at least one seed")
    for i, size in enumerate(sizes):
        if size < 4:
            raise ConfigError(f"suite sizes must be >= 4, got {size}")
        if size in sizes[:i]:
            raise ConfigError(f"suite size {size} is repeated")
    _check_generator(klass)
    _check_full_search(max(sizes), grid)
    _check_hk_iterations(hk_iterations)
    _check_generated_size(max(sizes))
    rows: list[str] = [CSV_HEADER]
    means: list[str] = []
    for size in sizes:
        # only the numeric fields, so no tour or tree outlives its instance
        by_cell: dict[Cell, list[tuple[float, ...]]] = {g: [] for g in grid}
        for seed in range(1, seeds + 1):
            inst = _generate(klass, size, seed, box, None)
            for cell, rec in zip(grid, build_records(inst, grid, hk_iterations, seed)):
                if not timing:
                    rec.wall_time_ms = 0.0
                rows.append(rec.csv_row())
                if rec.error is None:
                    by_cell[cell].append((rec.mst_weight, rec.tour_weight, rec.hk_bound,
                                          rec.excess_pct, rec.wall_time_ms))
                elif log is not None:
                    print(f"FAILED {inst.name} {rec.heuristic}: {rec.error}", file=log)
        for d, k in grid:
            recs = by_cell[(d, k)]
            if not recs:
                continue
            mst_w, tour_w, hk, excess, wall_ms = (sum(col) / len(recs) for col in zip(*recs))
            mean = RunRecord(f"mean-{klass}-n{size}", size, _grid_label(d, k), d, k,
                             mst_w, tour_w, hk, excess, wall_ms, seed=-1)
            means.append(mean.csv_row())
    return "\n".join(rows + means) + "\n"


# ---------------------------------------------------------------------------
# plotting


def emit_plot(inst: Instance, tree: RootedTree, tour: Tour, path: str) -> None:
    """Debug SVG: points, tree edges and tour edges in distinct strokes."""
    xy = inst.coords
    lo = xy.min(axis=0)
    hi = xy.max(axis=0)
    span = max(float((hi - lo).max()), 1e-12)
    margin = 0.04 * PLOT_SIZE
    scale = (PLOT_SIZE - 2 * margin) / span

    def sx(x: float) -> float:
        return margin + (x - lo[0]) * scale

    def sy(y: float) -> float:
        return PLOT_SIZE - margin - (y - lo[1]) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{PLOT_SIZE}" height="{PLOT_SIZE}" '
        f'viewBox="0 0 {PLOT_SIZE} {PLOT_SIZE}">',
        f'<rect width="{PLOT_SIZE}" height="{PLOT_SIZE}" fill="white"/>',
    ]
    for v in range(inst.n):
        p = tree.parent[v]
        if p is None:
            continue
        parts.append(
            f'<line class="tree" x1="{sx(xy[v, 0]):.2f}" y1="{sy(xy[v, 1]):.2f}" '
            f'x2="{sx(xy[p, 0]):.2f}" y2="{sy(xy[p, 1]):.2f}" '
            'stroke="#999999" stroke-width="1" stroke-dasharray="4 3"/>'
        )
    order = tour.order
    for i in range(len(order)):
        a, b = order[i], order[(i + 1) % len(order)]
        parts.append(
            f'<line class="tour" x1="{sx(xy[a, 0]):.2f}" y1="{sy(xy[a, 1]):.2f}" '
            f'x2="{sx(xy[b, 0]):.2f}" y2="{sy(xy[b, 1]):.2f}" '
            'stroke="#cc3333" stroke-width="1.5"/>'
        )
    for v in range(inst.n):
        parts.append(
            f'<circle class="pt" cx="{sx(xy[v, 0]):.2f}" cy="{sy(xy[v, 1]):.2f}" '
            'r="2.5" fill="#224488"/>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# verify


def run_verify(inst: Instance, out: TextIO) -> None:
    check_oracle_size(inst.n)
    record = _build_cell(inst, (1, None), HK_ITERATIONS, 0)
    tour, tree = record.tour, record.tree
    oracle = enumerate_conforming_min(inst, tree)
    optimal = brute_force_optimal(inst)
    dfs = depth_first_shortcut(inst, tree)
    checks = [
        ("solver matches exhaustive admissible minimum",
         abs(tour.weight - oracle.weight) <= 1e-9),
        ("tour is admissible for the tree", is_conforming(tour, tree)),
        ("tour within factor 2 of the optimum",
         tour.weight <= 2.0 * optimal.weight + 1e-9),
        ("tour no worse than depth-first traversal", tour.weight <= dfs.weight + 1e-9),
    ]
    if inst.n >= 3:
        checks.append(("lower bound below the optimum",
                       record.hk_bound <= optimal.weight + 1e-9))
    for label, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}: {label}", file=out)
    if not all(ok for _, ok in checks):
        raise InternalInvariantError("oracle cross-check failed")
    print(
        f"verified {inst.name}: tour={tour.weight:.6f} "
        f"optimal={optimal.weight:.6f} dfs={dfs.weight:.6f}",
        file=out,
    )


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dt", description="Minimum-weight double-tree shortcutting for Metric TSP"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a random instance as a TSPLIB file")
    p_gen.add_argument("klass", choices=GENERATORS)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--box", type=float, default=DEFAULT_BOX)
    p_gen.add_argument("--clusters", type=int, default=None, help="clustered only")
    p_gen.add_argument("-o", "--output", default="-", help="output file ('-' = stdout)")
    p_gen.set_defaults(func=_cmd_gen)

    p_run = sub.add_parser("run", help="run one heuristic on one instance")
    src = p_run.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="TSPLIB file")
    src.add_argument("--gen", help="generator spec, e.g. uniform:n=1000,seed=1,box=1e6")
    p_run.add_argument("--heuristic", choices=["dt", "dtk"], default="dt")
    p_run.add_argument("--degree-limit", type=int, default=1)
    p_run.add_argument("--depth", default=None, help="search depth (int or 'inf')")
    p_run.add_argument("--hk-iterations", type=int, default=HK_ITERATIONS)
    p_run.add_argument("--tour-out", default=None)
    p_run.add_argument(
        "--tour-format", choices=["tsplib", "plain"], default="tsplib"
    )
    p_run.add_argument("--plot", default=None, help="write an SVG of tree and tour")
    p_run.add_argument("--csv", action="store_true", help="emit a CSV row instead of text")
    p_run.set_defaults(func=_cmd_run)

    p_suite = sub.add_parser("suite", help="benchmark a heuristic grid, emit CSV")
    p_suite.add_argument("--sizes", required=True, help="comma-separated node counts")
    p_suite.add_argument("--seeds", type=int, required=True, help="instances per size")
    p_suite.add_argument("--grid", default=DEFAULT_GRID)
    p_suite.add_argument("--include-full", action="store_true",
                         help="add the unrestricted search to the grid")
    p_suite.add_argument("--class", dest="klass", choices=GENERATORS,
                         default="uniform")
    p_suite.add_argument("--box", type=float, default=DEFAULT_BOX)
    p_suite.add_argument("--hk-iterations", type=int, default=HK_ITERATIONS)
    p_suite.add_argument("--timing", action="store_true",
                         help="report measured wall times (breaks rerun byte-identity)")
    p_suite.add_argument("-o", "--output", required=True, help="CSV file ('-' = stdout)")
    p_suite.set_defaults(func=_cmd_suite)

    p_verify = sub.add_parser("verify", help="cross-check the solver against oracles")
    p_verify.add_argument("--input", required=True, help="TSPLIB file")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_gen(args: argparse.Namespace) -> int:
    inst = _generate(args.klass, args.n, args.seed, args.box, args.clusters)
    _write_text(args.output, write_tsplib(inst))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    depth = None if args.depth is None else _parse_depth(args.depth)
    degree = args.degree_limit
    if args.heuristic == "dt":
        if depth is not None or degree != 1:
            raise ConfigError("heuristic 'dt' is the unrestricted search; "
                              "use --heuristic dtk with --depth/--degree-limit")
    _check_cell(degree, depth)
    _check_hk_iterations(args.hk_iterations)
    inst, seed = _load_instance(args.input, args.gen)
    record = _build_cell(inst, (degree, depth), args.hk_iterations, seed)
    tour = record.tour
    if args.tour_out:
        text = (
            write_tour_tsplib(tour, name=record.instance)
            if args.tour_format == "tsplib"
            else write_tour_plain(tour)
        )
        _write_text(args.tour_out, text)
    if args.plot:
        emit_plot(inst, record.tree, tour, args.plot)
    if args.csv:
        print(CSV_HEADER)
        print(record.csv_row())
    else:
        print(f"instance      : {record.instance} (n={record.n})")
        print(f"heuristic     : {record.heuristic}")
        print(f"tree weight   : {record.mst_weight:.6f}")
        print(f"tour weight   : {record.tour_weight:.6f}")
        print(f"lower bound   : {record.hk_bound:.6f}")
        print(f"excess        : {record.excess_pct:.4f}%")
        print(f"wall time     : {record.wall_time_ms:.1f} ms")
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --sizes: {exc}") from exc
    if not sizes:
        raise ConfigError("no sizes given")
    grid = parse_grid(args.grid)
    if args.include_full:
        grid = [(1, None)] + [g for g in grid if g != (1, None)]
    text = run_suite(
        sizes,
        args.seeds,
        grid,
        klass=args.klass,
        box=args.box,
        hk_iterations=args.hk_iterations,
        timing=args.timing,
        log=sys.stderr,
    )
    _write_text(args.output, text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    inst, _ = _load_instance(args.input, None)
    run_verify(inst, sys.stdout)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad usage, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except GuardError as exc:
        print(f"guard violation: {exc}", file=sys.stderr)
        return 4
    except InternalInvariantError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 5
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
