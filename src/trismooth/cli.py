"""Command-line front end for the triangle-transformation toolkit.

Subcommands: iterate, predict, construct, simple-mesh, analyze, render.
Exit codes: 0 success, 2 invalid input, 3 I/O or file-format failure,
4 numerical failure (a mesh transformation step degenerated).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .angle_dynamics import (
    THIRD_PI,
    AngleTriple,
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
    Point2,
    TrianglePoints,
    angles_of,
    construct_transformed,
    growth_factor,
    rescale_to_area,
)
from .simple_mesh import (
    DegenerateMeshError,
    SimpleMeshAngles,
    correction_terms,
    load_mesh_angles,
    mesh_quality,
    mesh_to_dict,
    optimal_mesh,
    random_mesh,
    reconstruct_geometry,
    save_mesh_angles,
    transform_mesh,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def _fail(exc: BaseException, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def _merge_config(args: argparse.Namespace) -> None:
    """Fill unset options from a JSON config file; flags win, types must fit."""
    path = getattr(args, "config", None)
    if not path:
        return
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    actions = {a.dest: a for a in args.parser._actions}
    for key, value in cfg.items():
        dest = key.replace("-", "_")
        if dest in ("config", "func"):
            raise ValueError(f"config key {key!r} is not allowed")
        if dest not in actions or not hasattr(args, dest):
            raise ValueError(f"unknown config key {key!r}")
        wanted = bool if actions[dest].nargs == 0 else actions[dest].type
        if wanted in (bool, int) and type(value) is not wanted:
            raise ValueError(f"config key {key!r} must be a JSON {wanted.__name__}")
        current = getattr(args, dest)
        if current is None or current is False:
            setattr(args, dest, value)


def _parse_values(value, flag: str, count: int | None = None, what: str = ""):
    """Numbers for ``flag`` from a JSON list or a comma-separated string:
    exactly ``count`` floats (described by ``what``), or without ``count``
    a non-empty list of ints >= 0, skipping empty fields.
    """
    if value is None:
        raise ValueError(f"{flag} is required")
    convert = int if count is None else float
    if isinstance(value, (list, tuple)):
        items = [convert(v) for v in value]
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


def _angle_triple(args: argparse.Namespace) -> AngleTriple:
    parts = _parse_values(args.angles, "--angles", 3, "exactly 3 values")
    return AngleTriple(*(math.radians(v) if args.degrees else v for v in parts))


def _display(angle: float, degrees: bool) -> float:
    return math.degrees(angle) if degrees else angle


def _print_rows(headers: list[str], rows: list[list[str]]) -> None:
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    print("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    for r in rows:
        print("  ".join(c.rjust(w) for c, w in zip(r, widths)))


def cmd_iterate(args: argparse.Namespace) -> int:
    t = _angle_triple(args)
    steps = 10 if args.steps is None else int(args.steps)
    if steps < 0:
        raise ValueError("--steps must be >= 0")
    trajectory = [t]
    for _ in range(steps):
        trajectory.append(transform(trajectory[-1]))
    track = max(range(3), key=lambda i: t.as_tuple()[i])
    devs = [tr.as_tuple()[track] - THIRD_PI for tr in trajectory]
    unit = "degrees" if args.degrees else "radians"
    entries = []
    for n, tr in enumerate(trajectory):
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
    if args.json:
        print(json.dumps({"unit": unit, "steps": entries}, indent=2))
        return EXIT_OK
    fmt_a = "{:.4f}" if args.degrees else "{:.6f}"
    rows = [
        [
            str(e["step"]),
            fmt_a.format(e["alpha"]),
            fmt_a.format(e["beta"]),
            fmt_a.format(e["gamma"]),
            f"{e['quality']:.6f}",
            f"{e['growth_factor']:.4f}",
            "-" if e["deviation_ratio2"] is None else f"{e['deviation_ratio2']:.6f}",
        ]
        for e in entries
    ]
    print(f"angles in {unit}")
    _print_rows(
        ["step", "alpha", "beta", "gamma", "quality", "growth", "dev_ratio2"],
        rows,
    )
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    t = _angle_triple(args)
    steps = _parse_values(
        "1,2,4,8" if args.steps is None else args.steps, "--steps"
    )
    entries = []
    for n in steps:
        entry = {"step": n, "quality": predict_quality(t, n).q}
        if args.alt_even:
            entry["alt_even_quality"] = predict_quality(t, n, alt_even=True).q
        entries.append(entry)
    if args.json:
        print(json.dumps({"predictions": entries}, indent=2))
        return EXIT_OK
    headers = ["step", "quality"]
    if args.alt_even:
        headers.append("alt_even")
    rows = []
    for e in entries:
        row = [str(e["step"]), f"{e['quality']:.12f}"]
        if args.alt_even:
            row.append(f"{e['alt_even_quality']:.12f}")
        rows.append(row)
    _print_rows(headers, rows)
    return EXIT_OK


def cmd_construct(args: argparse.Namespace) -> int:
    v = _parse_values(args.points, "--points", 6, "6 values (x1,y1,x2,y2,x3,y3)")
    tri = TrianglePoints(Point2(v[0], v[1]), Point2(v[2], v[3]), Point2(v[4], v[5]))
    steps = 1 if args.steps is None else int(args.steps)
    if steps < 0:
        raise ValueError("--steps must be >= 0")
    area0 = tri.area()
    trajectory = [tri]
    for _ in range(steps):
        new = construct_transformed(trajectory[-1])
        if args.rescale:
            new = rescale_to_area(new, area0)
        trajectory.append(new)
    unit = "degrees" if args.degrees else "radians"
    entries = []
    for n, cur in enumerate(trajectory):
        ang = angles_of(cur)
        entries.append(
            {
                "step": n,
                "vertices": [[p.x, p.y] for p in cur.vertices()],
                "angles": [
                    _display(ang.alpha, args.degrees),
                    _display(ang.beta, args.degrees),
                    _display(ang.gamma, args.degrees),
                ],
                "area": cur.area(),
                "quality": quality(ang).q,
            }
        )
    if args.svg:
        vertices = [p for cur in trajectory for p in cur.vertices()]
        triangles = [(3 * n, 3 * n + 1, 3 * n + 2) for n in range(len(trajectory))]
        cmap = ColorMap.parse(args.colormap) if args.colormap else None
        render_svg(MeshModel(tuple(vertices), tuple(triangles)), args.svg, cmap)
    if args.json:
        print(
            json.dumps(
                {"unit": unit, "rescale": bool(args.rescale), "steps": entries},
                indent=2,
            )
        )
        return EXIT_OK
    print(f"angles in {unit}")
    rows = [
        [
            str(e["step"]),
            f"{e['angles'][0]:.6f}",
            f"{e['angles'][1]:.6f}",
            f"{e['angles'][2]:.6f}",
            f"{e['area']:.6g}",
            f"{e['quality']:.6f}",
        ]
        for e in entries
    ]
    _print_rows(["step", "alpha", "beta", "gamma", "area", "quality"], rows)
    if args.svg:
        print(f"wrote {args.svg}")
    return EXIT_OK


def _simple_mesh_source(args: argparse.Namespace) -> SimpleMeshAngles:
    if args.input is not None:
        if args.n is not None or args.optimal or args.random is not None:
            raise ValueError("--input excludes --n/--optimal/--random")
        return load_mesh_angles(args.input)
    if args.n is None:
        raise ValueError("either --input or --n is required")
    n = int(args.n)
    if args.optimal and args.random is not None:
        raise ValueError("choose one of --optimal or --random")
    if args.optimal:
        return optimal_mesh(n)
    if args.random is not None:
        return random_mesh(n, int(args.random))
    raise ValueError("--n needs --optimal or --random SEED")


def cmd_simple_mesh(args: argparse.Namespace) -> int:
    mesh = _simple_mesh_source(args)
    steps = 0 if args.steps is None else int(args.steps)
    if steps < 0:
        raise ValueError("--steps must be >= 0")
    n = mesh.n_triangles
    k = correction_terms(n)
    states = [mesh]
    for _ in range(steps):
        states.append(transform_mesh(states[-1]))
    entries = []
    for step, m in enumerate(states):
        mq = mesh_quality(m)
        res = m.constraint_residuals()
        entries.append(
            {
                "step": step,
                "mesh_q": mq.mesh_q,
                "q_min": min(v.q for v in mq.per_triangle),
                "q_max": max(v.q for v in mq.per_triangle),
                "max_residual": res.max(),
            }
        )
    final = states[-1]
    geometry, residual = reconstruct_geometry(final, 1.0)
    if args.svg:
        start_geom, _ = reconstruct_geometry(mesh, 1.0)
        radius = math.sqrt(start_geom.total_area() / geometry.total_area())
        geometry, residual = reconstruct_geometry(final, radius)
        vertices = (geometry.inner_vertex,) + geometry.boundary
        triangles = tuple(
            (0, 1 + i, 1 + (i + 1) % n) for i in range(n)
        )
        cmap = ColorMap.parse(args.colormap) if args.colormap else None
        render_svg(MeshModel(vertices, triangles), args.svg, cmap)
    if args.output:
        save_mesh_angles(final, args.output)
    payload = {
        "n": n,
        "correction_terms": {
            "k_alpha": k.k_alpha,
            "k_beta": k.k_beta,
            "k_gamma": k.k_gamma,
        },
        "steps": entries,
        "final": mesh_to_dict(final),
        "reconstruction": {
            "radius_residual": residual.radius,
            "turn_residual": residual.turn,
        },
    }
    if args.json:
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    print(f"fan mesh with {n} triangles")
    print(
        f"correction terms: k_alpha={k.k_alpha:.12g} "
        f"k_beta={k.k_beta:.12g} k_gamma={k.k_gamma:.12g}"
    )
    rows = [
        [
            str(e["step"]),
            f"{e['mesh_q']:.9f}",
            f"{e['q_min']:.9f}",
            f"{e['q_max']:.9f}",
            f"{e['max_residual']:.3e}",
        ]
        for e in entries
    ]
    _print_rows(["step", "mesh_q", "q_min", "q_max", "residual"], rows)
    print(
        f"reconstruction residuals: radius={residual.radius:.3e} "
        f"turn={residual.turn:.3e}"
    )
    if args.output:
        print(f"wrote {args.output}")
    if args.svg:
        print(f"wrote {args.svg}")
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    mesh = load_mesh(args.mesh, args.format)
    steps = ()
    if args.steps is not None:
        steps = _parse_values(args.steps, "--steps")
    bins = 10 if args.bins is None else int(args.bins)
    report = analyze(mesh, steps, bins=bins)
    if args.report:
        report.write_json(args.report)
    if args.csv:
        report.write_csv(args.csv)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
        return EXIT_OK
    s = report.summary
    print(
        f"{s.count} triangles: q min {s.q_min:.6f}, "
        f"max {s.q_max:.6f}, mean {s.q_mean:.6f}"
    )
    if report.dropped:
        print(f"excluded {len(report.dropped)} degenerate face(s)")
    for rec in report.triangles:
        preds = " ".join(
            f"q{s_}={v:.6f}" for s_, v in zip(report.predict_steps, rec.predicted)
        )
        print(f"  triangle {rec.index}: q={rec.q:.6f} {preds}".rstrip())
    if args.report:
        print(f"wrote {args.report}")
    if args.csv:
        print(f"wrote {args.csv}")
    return EXIT_OK


def cmd_render(args: argparse.Namespace) -> int:
    if args.out is None:
        raise ValueError("--out is required")
    mesh = load_mesh(args.mesh, args.format)
    cmap = ColorMap.parse(args.colormap) if args.colormap else None
    render_svg(mesh, args.out, cmap)
    print(f"wrote {args.out}")
    return EXIT_OK


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
        # the parser lets --config check each value against its flag
        p.set_defaults(func=func, parser=p)

    p = sub.add_parser("iterate", help="print the angle trajectory of a triangle")
    p.add_argument("--angles", help="three comma-separated angles")
    p.add_argument("--degrees", action="store_true", help="angles are in degrees")
    p.add_argument("--steps", type=int, default=None, help="iterations (default 10)")
    common(p, cmd_iterate)

    p = sub.add_parser("predict", help="closed-form quality after n steps")
    p.add_argument("--angles", help="three comma-separated angles")
    p.add_argument("--degrees", action="store_true", help="angles are in degrees")
    p.add_argument(
        "--steps", default=None, help="comma-separated step list (default 1,2,4,8)"
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
    p.add_argument("--steps", type=int, default=None, help="steps (default 1)")
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
    p.add_argument("--n", type=int, default=None, help="triangle count")
    p.add_argument(
        "--optimal", action="store_true", help="start from the optimal fan"
    )
    p.add_argument(
        "--random", type=int, default=None, metavar="SEED", help="random valid fan"
    )
    p.add_argument("--steps", type=int, default=None, help="iterations (default 0)")
    p.add_argument("--output", help="write final angles JSON here")
    p.add_argument("--svg", help="render the reconstructed final mesh")
    p.add_argument("--colormap", help="quality colormap: q:rrggbb,q:rrggbb,...")
    common(p, cmd_simple_mesh)

    p = sub.add_parser("analyze", help="per-triangle quality report for a mesh")
    p.add_argument("mesh", help="mesh file (OFF or OBJ)")
    p.add_argument("--format", choices=("off", "obj"), default=None)
    p.add_argument("--steps", default=None, help="prediction steps, e.g. 1,2")
    p.add_argument("--bins", type=int, default=None, help="histogram bins (default 10)")
    p.add_argument("--report", help="write the JSON report here")
    p.add_argument("--csv", help="write the CSV report here")
    common(p, cmd_analyze)

    p = sub.add_parser("render", help="render a mesh as a quality-colored SVG")
    p.add_argument("mesh", help="mesh file (OFF or OBJ)")
    p.add_argument("--out", help="output SVG path")
    p.add_argument("--format", choices=("off", "obj"), default=None)
    p.add_argument("--colormap", help="quality colormap: q:rrggbb,q:rrggbb,...")
    common(p, cmd_render, json_output=False)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        _merge_config(args)
        return args.func(args)
    except MeshFormatError as exc:
        return _fail(exc, EXIT_IO)
    except json.JSONDecodeError as exc:
        return _fail(exc, EXIT_IO)
    except OSError as exc:
        return _fail(exc, EXIT_IO)
    except DegenerateMeshError as exc:
        return _fail(exc, EXIT_NUMERIC)
    except ValueError as exc:
        return _fail(exc, EXIT_USAGE)
    except ArithmeticError as exc:
        return _fail(exc, EXIT_NUMERIC)


if __name__ == "__main__":
    sys.exit(main())
