"""Command-line scenario runner.

Each subcommand loads its inputs, runs one analysis, and writes a JSON
report of the form {scenario, versions, results, timings}.  Reports are
deterministic byte for byte except for the timings field; sweeps also
emit CSV.  Errors exit with code 2 and a structured error JSON on
stdout.  Each `_cmd_*` returns its results; `main` times it and writes
the report, whose scenario is the subcommand as `kind` plus every parsed
argument except `--out`.  Every setting is a command-line argument;
nothing is read from the environment.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np
import scipy

from . import __version__
from .concentration import concentration_witness
from .covering import covering_unitary, outer_roundtrip
from .extraction import extract_pair
from .fixtures import standard_pair
from .locality import quasi_locality_violation
from .maps import closeness
from .operators import FiberedSpace, random_band_unitary
from .serialize import load_map, load_space, read_operator, report_bytes, write_operator, write_report

__all__ = ["main"]


def _versions() -> dict:
    return {"roelab": __version__, "numpy": np.__version__, "scipy": scipy.__version__}


def _emit(out: str | None, scenario: dict, results: dict, elapsed: float) -> None:
    report = {
        "scenario": scenario,
        "versions": _versions(),
        "results": results,
        "timings": {"elapsed_s": elapsed},
    }
    if out:
        write_report(out, report)
        print(f"wrote {out}")
    else:
        sys.stdout.write(report_bytes(report).decode())


def _load_unitary(args):
    target = load_space(args.space)
    source = load_space(args.source_space) if args.source_space else None
    return read_operator(args.unitary, target, source)


def _cmd_extract(args) -> dict:
    return extract_pair(_load_unitary(args), args.delta).to_json()


def _parse_fibers(spec: str, n: int) -> np.ndarray:
    parts = [p for p in spec.split(",") if p.strip()]
    if len(parts) == 1:
        return np.full(n, int(parts[0]))
    if len(parts) != n:
        raise ValueError(f"fiber spec lists {len(parts)} dims for {n} points")
    return np.array([int(p) for p in parts])


def _cmd_cover(args) -> dict:
    f = load_map(args.map)
    source = FiberedSpace(f.source, _parse_fibers(args.fibers, f.source.n))
    U, plan = covering_unitary(f, source, separation=args.separation)
    if args.save_unitary:
        write_operator(args.save_unitary, U)
    return {
        "plan": plan.to_json(),
        "unitarity_residual": U.unitarity_residual(),
        "support_radius": plan.support_radius,
    }


def _cmd_witness(args) -> dict:
    h_index = None if args.sweep_h else args.h_index
    return concentration_witness(_load_unitary(args), args.y, args.radius, h_index).to_json()


def _cmd_ql(args) -> dict:
    U = _load_unitary(args)
    return quasi_locality_violation(U, args.radius, mode=args.mode).to_json()


def _parse_grid(raw: str | None):
    if not raw:
        return None
    return [float(v) for v in raw.split(",") if v.strip()]


def _cmd_outer(args) -> dict:
    U = _load_unitary(args)
    return outer_roundtrip(U, args.delta, _parse_grid(args.radius_grid)).to_json()


def _sweep_one(h, W, plan, seed: int, noise_radius: float, layers: int, delta: float) -> dict:
    U = W @ random_band_unitary(W.source, noise_radius, layers, seed)
    report = extract_pair(U, delta)
    return {
        "seed": seed,
        "R": report.R,
        "closeness_f_h": closeness(report.f, h),
        # closeness(f, h) is at most omega_h(R + layers * noise radius) + support radius
        "budget": h.modulus(report.R + layers * noise_radius) + plan.support_radius,
        "closeness_fg": report.equivalence.closeness_fg,
        "closeness_gf": report.equivalence.closeness_gf,
    }


def _cmd_sweep(args) -> dict:
    # only the band noise depends on the seed: h and its cover W are shared
    h, _ = standard_pair(args.h, args.n)
    W, plan = covering_unitary(h, FiberedSpace.uniform(h.source, 1))
    rows = [
        _sweep_one(h, W, plan, s, args.noise_radius, args.layers, args.delta)
        for s in range(args.seeds)
    ]
    if args.csv:
        header = "seed,R,closeness_f_h,closeness_fg,closeness_gf,budget"
        lines = [header] + [
            f"{r['seed']},{r['R']:.17g},{r['closeness_f_h']:.17g},"
            f"{r['closeness_fg']:.17g},{r['closeness_gf']:.17g},{r['budget']:.17g}"
            for r in rows
        ]
        with open(args.csv, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return {"rows": rows}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roelab",
        description="Quantitative coarse geometry of block operators on finite metric spaces",
    )
    parser.add_argument("--version", action="version", version=f"roelab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_unitary(p):
        p.add_argument("--unitary", required=True, help="binary operator file")
        p.add_argument("--space", required=True, help="target/base space JSON")
        p.add_argument("--source-space", default=None,
                       help="source space JSON for rectangular operators")
        p.add_argument("--out", default=None, help="report JSON path (default stdout)")

    p = sub.add_parser("extract", help="extract the coarse equivalence pair from a unitary")
    common_unitary(p)
    p.add_argument("--delta", type=float, default=0.5)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("cover", help="build a covering unitary for a coarse map")
    p.add_argument("--map", required=True, help="map JSON with embedded spaces")
    p.add_argument("--fibers", default="1", help="uniform dim or comma list per source point")
    p.add_argument("--separation", type=float, default=0.0)
    p.add_argument("--save-unitary", default=None, help="write the unitary here")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("witness", help="build a concentration witness at a point")
    common_unitary(p)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--h-index", type=int, default=0)
    p.add_argument("--sweep-h", action="store_true", help="try every fiber basis vector at y")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("ql", help="quasi-locality violation of an operator")
    common_unitary(p)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--mode", choices=["exact", "bounds"], default="exact")
    p.set_defaults(func=_cmd_ql)

    p = sub.add_parser("outer", help="outer-automorphism roundtrip decomposition")
    common_unitary(p)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--radius-grid", default=None, help="comma-separated radii")
    p.set_defaults(func=_cmd_outer)

    p = sub.add_parser("sweep", help="seeded roundtrip sweep over noisy covering unitaries")
    p.add_argument("--h", choices=["identity", "reflection", "halving"], default="identity")
    p.add_argument("--n", type=int, default=30)
    p.add_argument("--noise-radius", type=float, default=2.0)
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--seeds", type=int, default=50)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--csv", default=None, help="per-seed CSV path")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        results = args.func(args)
        settings = {k: v for k, v in vars(args).items() if k not in ("func", "command", "out")}
        _emit(args.out, {"kind": args.command, **settings}, results, time.perf_counter() - t0)
    except Exception as exc:  # structured error contract for scripts
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stdout.write(report_bytes(error).decode())
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
