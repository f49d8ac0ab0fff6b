"""Command-line front end for the triangle-transformation toolkit.

Subcommands: iterate, predict, construct, simple-mesh, analyze, render.
Exit codes: 0 success, 2 invalid input, 3 I/O or file-format failure,
4 numerical failure (a mesh transformation step degenerated, a float
overflowed or underflowed, or memory ran out).

Each ``cmd_*`` returns ``(document, text)``: the ``--json`` document (a
dict, or its JSON text in chunks) and a function that builds the text
lines.  ``main`` prints one of them and builds only what it prints;
nothing else here prints except ``_fail``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections.abc import Callable, Iterator
from contextlib import nullcontext

import numpy as np

from ._text import _distinct_text, _json_rows, _output, _read_json, block_rows, blocks
from .angle_dynamics import (
    STEP_CLAMP,
    THIRD_PI,
    AngleTriple,
    _count,
    predict_quality,
    quality,
    transform,
)
from .mesh_io import (
    ColorMap,
    MeshFormatError,
    MeshModel,
    analyze,
    load_mesh,
    render_svg,
)
from .plane_geometry import (
    CollinearTriangleError,
    Point2,
    TrianglePoints,
    angles_of,
    construct_transformed,
    growth_factor,
    rescale_to_area,
)
from .simple_mesh import (
    SimpleMeshAngles,
    _write_fan,
    correction_terms,
    load_mesh_angles,
    mesh_json_chunks,
    mesh_steps,
    optimal_mesh,
    random_mesh,
    reconstruct_geometry,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

Result = tuple[object, Callable[[], list[str]]]


def _fail(message: object, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


#: The options ``_parse_values`` reads, which a config may give as a JSON list.
_LIST_OPTIONS = ("angles", "points", "steps")


def _apply_config(args: argparse.Namespace) -> None:
    """Make a JSON config file's values the chosen subcommand's defaults.

    Each value must fit its flag: a switch takes a JSON bool, an integer
    option a JSON int, and a string option a JSON string, a list too where
    ``_parse_values`` reads it, or null for its own default.  The caller
    parses again, so explicit flags win.
    """
    cfg = _read_json(args.config)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    actions = {a.dest: a for a in args.parser._actions}
    defaults = {}
    for key, value in cfg.items():
        dest = key.replace("-", "_")
        if dest in ("config", "func"):
            raise ValueError(f"config key {key!r} is not allowed")
        if dest not in actions or not hasattr(args, dest):
            raise ValueError(f"unknown config key {key!r}")
        if actions[dest].nargs == 0:
            kinds, name = (bool,), "bool"
        elif actions[dest].type is int:
            kinds, name = (int,), "int"
        elif dest in _LIST_OPTIONS:
            kinds, name = (str, list, type(None)), "string or list"
        else:
            kinds, name = (str, type(None)), "string"
        if type(value) not in kinds:
            raise ValueError(f"config key {key!r} must be a JSON {name}")
        if value is not None:  # null keeps a string option's own default
            defaults[dest] = value
    args.parser.set_defaults(**defaults)


def _parse_values(value, flag: str, count: int | None = None, what: str = ""):
    """Numbers for ``flag`` from a JSON list or a comma-separated string:
    exactly ``count`` floats (described by ``what``), or without ``count``
    a non-empty list of ints >= 0, skipping empty fields.
    """
    if value is None:
        raise ValueError(f"{flag} is required")
    convert = int if count is None else float
    if isinstance(value, (list, tuple)):  # a config file's JSON list
        kinds, noun = ((int,), "integers") if count is None else ((int, float), "numbers")
        if any(type(v) not in kinds for v in value):
            raise ValueError(f"{flag} values must be {noun}")
        try:
            items = [convert(v) for v in value]
        except OverflowError:  # an int past the float range
            raise ValueError(f"{flag} holds an integer too large for a float") from None
    else:
        items = [convert(tok) for tok in str(value).split(",") if count or tok.strip()]
    if count is not None:
        if len(items) != count:
            raise ValueError(f"{flag} needs {what}, got {len(items)}")
    elif not items:
        raise ValueError(f"{flag} needs at least one value")
    elif any(v < 0 for v in items):
        raise ValueError(f"{flag} values must be >= 0")
    return items


def _step_count(args: argparse.Namespace) -> int:
    """``--steps`` of ``iterate``, ``construct`` and ``simple-mesh``, checked."""
    steps = _count(args.steps, 0, "--steps must be >= 0")
    if steps > STEP_CLAMP:  # every triangle and fan is at its fixed point by then
        raise ValueError(f"--steps must be <= {STEP_CLAMP}")
    return steps


def _stepping(args: argparse.Namespace, state, step):
    """Yield ``state`` and its ``--steps`` successors under ``step``, one per row."""
    steps = _step_count(args)
    yield state
    for _ in range(steps):
        state = step(state)
        yield state


def _angle_triple(args: argparse.Namespace) -> AngleTriple:
    parts = _parse_values(args.angles, "--angles", 3, "exactly 3 values")
    return AngleTriple(*(math.radians(v) if args.degrees else v for v in parts))


def _unit(args: argparse.Namespace) -> str:
    return "degrees" if args.degrees else "radians"


def _display(angle: float, degrees: bool) -> float:
    return math.degrees(angle) if degrees else angle


def _table(entries: list, columns: list[tuple[str, object, str]]) -> list[str]:
    """Right-aligned rows of ``(header, key, format)`` columns; None shows "-"."""
    rows = [[header for header, _, _ in columns]]
    rows += [
        ["-" if e[key] is None else fmt.format(e[key]) for _, key, fmt in columns]
        for e in entries
    ]
    widths = [max(len(r[i]) for r in rows) for i in range(len(columns))]
    return ["  ".join(c.rjust(w) for c, w in zip(r, widths)) for r in rows]


def _write_svg(args: argparse.Namespace, path: str, mesh: MeshModel) -> str:
    """Render ``mesh`` with ``--colormap`` to ``path``; return the report line."""
    render_svg(mesh, path, None if args.colormap is None else ColorMap.parse(args.colormap))
    return f"wrote {path}"


def cmd_iterate(args: argparse.Namespace) -> Result:
    t = _angle_triple(args)
    track = max(range(3), key=lambda i: t.as_tuple()[i])
    devs, entries = [], []
    for n, tr in enumerate(_stepping(args, t, transform)):
        devs.append(tr.as_tuple()[track] - THIRD_PI)
        ratio2 = None
        if n >= 2 and abs(devs[n - 2]) > 0.0:
            ratio2 = abs(devs[n]) / abs(devs[n - 2])
        entries.append(
            {
                "step": n,
                "alpha": _display(tr.alpha, args.degrees),
                "beta": _display(tr.beta, args.degrees),
                "gamma": _display(tr.gamma, args.degrees),
                "quality": quality(tr).q,
                "growth_factor": growth_factor(tr).f,
                "deviation": _display(devs[n], args.degrees),
                "deviation_ratio2": ratio2,
            }
        )
    fmt_a = "{:.4f}" if args.degrees else "{:.6f}"
    columns = [
        ("step", "step", "{}"),
        ("alpha", "alpha", fmt_a),
        ("beta", "beta", fmt_a),
        ("gamma", "gamma", fmt_a),
        ("quality", "quality", "{:.6f}"),
        ("growth", "growth_factor", "{:.4f}"),
        ("dev_ratio2", "deviation_ratio2", "{:.6f}"),
    ]
    doc = {"unit": _unit(args), "steps": entries}
    return doc, lambda: [f"angles in {_unit(args)}", *_table(entries, columns)]


def cmd_predict(args: argparse.Namespace) -> Result:
    t = _angle_triple(args)
    columns = [("step", "step", "{}"), ("quality", "quality", "{:.12f}")]
    if args.alt_even:
        columns.append(("alt_even", "alt_even_quality", "{:.12f}"))
    entries = []
    for n in _parse_values(args.steps, "--steps"):
        entry = {"step": n, "quality": predict_quality(t, n).q}
        if args.alt_even:
            entry["alt_even_quality"] = predict_quality(t, n, alt_even=True).q
        entries.append(entry)
    return {"predictions": entries}, lambda: _table(entries, columns)


#: A ``construct`` step lost to rounding misses the step before's pairwise
#: means by more (rad), or under ``--rescale`` the start area (as a share).
_STEP_TOL = 1e-9


def _check_step(n: int, miss: float, what: str) -> None:
    if not miss <= _STEP_TOL:
        raise ArithmeticError(f"construct step {n} is lost to rounding: {what % miss}")


def cmd_construct(args: argparse.Namespace) -> Result:
    v = _parse_values(args.points, "--points", 6, "6 values (x1,y1,x2,y2,x3,y3)")
    tri = TrianglePoints(Point2(v[0], v[1]), Point2(v[2], v[3]), Point2(v[4], v[5]))
    area0 = tri.area()

    def step(cur: TrianglePoints) -> TrianglePoints:
        new = construct_transformed(cur)
        return rescale_to_area(new, area0) if args.rescale else new

    entries, means = [], None
    try:
        for n, cur in enumerate(_stepping(args, tri, step)):
            ang, area = angles_of(cur), cur.area()
            a, b, g = ang.as_tuple()
            if means is not None:
                miss = max(abs(x - y) for x, y in zip((a, b, g), means))
                _check_step(n, miss, "its angles miss the paper's map by %.3g rad")
                if args.rescale:
                    miss = abs(area - area0) / area0
                    _check_step(n, miss, "its area misses the start area by %.3g of it")
            means = (0.5 * (b + g), 0.5 * (a + g), 0.5 * (a + b))  # the paper's map, on tuples
            entries.append(
                {
                    "step": n,
                    "vertices": [[p.x, p.y] for p in cur.vertices()],
                    "angles": [_display(x, args.degrees) for x in (a, b, g)],
                    "area": area,
                    "quality": quality(ang).q,
                }
            )
    except CollinearTriangleError as exc:
        if not entries:  # step 0 is the input: a flat one is bad input
            raise
        # a built step, flattened by rounding as it was built or rescaled
        raise ArithmeticError(f"construct step {len(entries)} is lost to rounding: {exc}") from None
    written = []
    if args.svg is not None:
        vertices = [Point2(*xy) for e in entries for xy in e["vertices"]]
        triangles = [(3 * n, 3 * n + 1, 3 * n + 2) for n in range(len(entries))]
        written.append(_write_svg(args, args.svg, MeshModel(vertices, triangles)))
    columns = [
        ("step", "step", "{}"),
        ("alpha", "angles", "{[0]:.6f}"),
        ("beta", "angles", "{[1]:.6f}"),
        ("gamma", "angles", "{[2]:.6f}"),
        ("area", "area", "{:.6g}"),
        ("quality", "quality", "{:.6f}"),
    ]
    doc = {"unit": _unit(args), "rescale": args.rescale, "steps": entries}
    return doc, lambda: [f"angles in {_unit(args)}", *_table(entries, columns), *written]


def _simple_mesh_source(args: argparse.Namespace) -> SimpleMeshAngles:
    if args.input is not None:
        if args.n is not None or args.optimal or args.random is not None:
            raise ValueError("--input excludes --n/--optimal/--random")
        return load_mesh_angles(args.input)
    if args.n is None:
        raise ValueError("either --input or --n is required")
    if args.n > sys.maxsize // 24:  # a (3, N) float array must fit numpy's size limit
        raise ValueError(f"--n must be at most {sys.maxsize // 24}")
    if args.optimal and args.random is not None:
        raise ValueError("choose one of --optimal or --random")
    if args.optimal:
        return optimal_mesh(args.n)
    if args.random is not None:
        return random_mesh(args.n, _count(args.random, 0, "--random must be >= 0"))
    raise ValueError("--n needs --optimal or --random SEED")


def _simple_mesh_json(document: dict, rows, fan) -> Iterator[str]:
    """``document`` with its step table and the final fan's ``mesh_json_chunks``
    ``fan`` as ``json.dumps(indent=2)`` writes it, in pieces.  The table's values
    go through ``_distinct_text``: each fan measured passed ``_checked``, so its
    ratios and residuals (absolute values) are finite and >= 0."""
    fields = ("step", "mesh_q", "q_min", "q_max", "max_residual")
    head, row, rest = _json_rows(document, "steps", dict.fromkeys(fields, "%s"))
    middle, _, tail = rest.partition('"final": {}')
    yield head
    table = np.column_stack((np.arange(len(rows)), _distinct_text(rows)))
    yield from block_rows(row, ",\n", table)
    yield middle + '"final": '
    for chunk in fan:  # the value of a key one level deep: lines indented two more
        yield chunk.replace("\n", "\n  ")
    yield tail


def cmd_simple_mesh(args: argparse.Namespace) -> Result:
    mesh = _simple_mesh_source(args)
    n = mesh.n_triangles
    k = correction_terms(n)
    rows, final = mesh_steps(mesh, _step_count(args))
    # the reported closure residual is always the one at radius 1
    geometry, residual = reconstruct_geometry(final, 1.0)
    written, fan = [], mesh_json_chunks(final)
    # the fan file opens first: a bad path fails before the SVG is drawn
    with nullcontext() if args.output is None else _output(args.output, "\n") as fan_file:
        if args.svg is not None:
            # draw the final fan with the starting fan's area
            start_geom, _ = reconstruct_geometry(mesh, 1.0)
            try:
                radius = math.sqrt(start_geom.total_area() / geometry.total_area())
            except ArithmeticError:  # an area sum past the float range, or a zero area
                radius = math.nan
            if not 0.0 < radius < math.inf:  # false for NaN, as inf - inf areas give
                raise ArithmeticError("cannot draw the fan: its area leaves the float range")
            geometry, _ = reconstruct_geometry(final, radius)
            ring = np.arange(1, n + 1, dtype=np.int64)  # face i is (0, i + 1, i + 2) around the ring
            faces = np.column_stack((np.zeros_like(ring), ring, np.roll(ring, -1)))
            try:  # face i is fan triangle i, here too thin for floats if MeshModel finds it flat
                model = MeshModel.__new__(MeshModel)._check(geometry.xy, faces, ())
            except ValueError as exc:
                raise ArithmeticError(f"cannot draw the fan: {exc}") from None
            written.append(_write_svg(args, args.svg, model))
        if fan_file is not None:
            fan = list(fan)  # each angle's text, made once for the file and stdout
            _write_fan(fan, fan_file)
            written.insert(0, f"wrote {args.output}")

    def text() -> list[str]:
        entries = [(step, *row) for step, row in enumerate(rows.tolist())]
        return [
            f"fan mesh with {n} triangles",
            f"correction terms: k_alpha={k.k_alpha:.12g} "
            f"k_beta={k.k_beta:.12g} k_gamma={k.k_gamma:.12g}",
            *_table(
                entries,
                [
                    ("step", 0, "{}"),
                    ("mesh_q", 1, "{:.9f}"),
                    ("q_min", 2, "{:.9f}"),
                    ("q_max", 3, "{:.9f}"),
                    ("residual", 4, "{:.3e}"),
                ],
            ),
            f"reconstruction residuals: radius={residual.radius:.3e} "
            f"turn={residual.turn:.3e}",
            *written,
        ]

    doc = {
        "n": n,
        "correction_terms": vars(k),
        "steps": [],
        "final": {},
        "reconstruction": {
            "radius_residual": residual.radius,
            "turn_residual": residual.turn,
        },
    }
    return _simple_mesh_json(doc, rows, fan), text


def cmd_analyze(args: argparse.Namespace) -> Result:
    mesh = load_mesh(args.mesh, args.format)
    steps = _parse_values(args.steps, "--steps") if args.steps is not None else ()
    report = analyze(mesh, steps, bins=args.bins)
    # reports first, so their peak memory and the lines' never add up
    report.write(args.report, args.csv)
    written = [f"wrote {path}" for path in (args.report, args.csv) if path is not None]

    def text() -> list[str]:
        s = report.summary
        lines = [
            f"{s.count} triangles: q min {s.q_min:.6f}, "
            f"max {s.q_max:.6f}, mean {s.q_mean:.6f}"
        ]
        if report.dropped:
            lines.append(f"excluded {len(report.dropped)} degenerate face(s)")
        template = "  triangle %d: q=%.6f"
        template += "".join(f" q{n}=%.6f" for n in report.predict_steps)
        for rows in blocks(len(report.q)):  # one printed string per block
            index = np.arange(rows.start, rows.stop)
            table = np.column_stack((index, report.q[rows], report.predicted[rows]))
            lines += block_rows(template, "\n", table)
        return lines + written

    return report.json_chunks(), text


def cmd_render(args: argparse.Namespace) -> Result:
    if args.out is None:
        raise ValueError("--out is required")
    line = _write_svg(args, args.out, load_mesh(args.mesh, args.format))
    return None, lambda: [line]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trismooth",
        description="Regularize triangles and fan meshes by angle averaging; "
        "analyze and render triangle-mesh quality.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, func, json_output: bool = True) -> None:
        p.add_argument(
            "--config",
            help="JSON file of flag defaults (explicit flags win)",
        )
        if json_output:
            p.add_argument("--json", action="store_true", help="machine output")
        # --config makes its values this parser's defaults; render has no --json
        p.set_defaults(func=func, parser=p, json=False)

    p = sub.add_parser("iterate", help="print the angle trajectory of a triangle")
    p.add_argument("--angles", help="three comma-separated angles")
    p.add_argument("--degrees", action="store_true", help="angles are in degrees")
    p.add_argument("--steps", type=int, default=10, help="iterations (default 10)")
    common(p, cmd_iterate)

    p = sub.add_parser("predict", help="closed-form quality after n steps")
    p.add_argument("--angles", help="three comma-separated angles")
    p.add_argument("--degrees", action="store_true", help="angles are in degrees")
    p.add_argument(
        "--steps", default="1,2,4,8", help="comma-separated step list (default 1,2,4,8)"
    )
    p.add_argument(
        "--alt-even",
        action="store_true",
        dest="alt_even",
        help="also print the alternative even-step form, which disagrees "
        "with direct iteration (comparison only)",
    )
    common(p, cmd_predict)

    p = sub.add_parser(
        "construct", help="coordinate-level construction trajectory"
    )
    p.add_argument("--points", help="x1,y1,x2,y2,x3,y3")
    p.add_argument("--steps", type=int, default=1, help="steps (default 1)")
    p.add_argument("--degrees", action="store_true", help="print angles in degrees")
    p.add_argument(
        "--rescale",
        action="store_true",
        help="rescale to the input area after each step",
    )
    p.add_argument("--svg", help="write the trajectory as an SVG file")
    p.add_argument("--colormap", help="quality colormap: q:rrggbb,q:rrggbb,...")
    common(p, cmd_construct)

    p = sub.add_parser("simple-mesh", help="regularize a single-ring fan mesh")
    p.add_argument("--input", help="fan-mesh angles JSON file")
    p.add_argument("--n", type=int, help="triangle count")
    p.add_argument(
        "--optimal", action="store_true", help="start from the optimal fan"
    )
    p.add_argument("--random", type=int, metavar="SEED", help="random valid fan")
    p.add_argument("--steps", type=int, default=0, help="iterations (default 0)")
    p.add_argument("--output", help="write final angles JSON here")
    p.add_argument("--svg", help="render the reconstructed final mesh")
    p.add_argument("--colormap", help="quality colormap: q:rrggbb,q:rrggbb,...")
    common(p, cmd_simple_mesh)

    p = sub.add_parser("analyze", help="per-triangle quality report for a mesh")
    p.add_argument("mesh", help="mesh file (OFF or OBJ)")
    p.add_argument("--format", choices=("off", "obj"))
    p.add_argument("--steps", help="prediction steps, e.g. 1,2")
    p.add_argument("--bins", type=int, default=10, help="histogram bins (default 10)")
    p.add_argument("--report", help="write the JSON report here")
    p.add_argument("--csv", help="write the CSV report here")
    common(p, cmd_analyze)

    p = sub.add_parser("render", help="render a mesh as a quality-colored SVG")
    p.add_argument("mesh", help="mesh file (OFF or OBJ)")
    p.add_argument("--out", help="output SVG path")
    p.add_argument("--format", choices=("off", "obj"))
    p.add_argument("--colormap", help="quality colormap: q:rrggbb,q:rrggbb,...")
    common(p, cmd_render, json_output=False)

    return parser


#: The parser of every call, built once per process.  Only ``--config``
#: changes defaults, and it does so on a parser of its own.
_shared_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if args.config is not None:
            parser = build_parser()
            _apply_config(parser.parse_args(argv))
            args = parser.parse_args(argv)
        document, text = args.func(args)
        if args.json:
            # chunk by chunk, so the whole JSON text is never held at once
            chunks = [json.dumps(document, indent=2)] if isinstance(document, dict) else document
            sys.stdout.writelines(chunks)
            sys.stdout.write("\n")
        else:
            print(*text(), sep="\n")
    except (MeshFormatError, json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        return _fail(exc, EXIT_IO)
    except ValueError as exc:
        return _fail(exc, EXIT_USAGE)
    except ArithmeticError as exc:
        return _fail(exc, EXIT_NUMERIC)
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""  # a bare MemoryError has no message
        return _fail(f"out of memory{detail}", EXIT_NUMERIC)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
