"""Command-line scenario runner.

Each subcommand loads its inputs, runs one analysis, and writes a JSON
report of the form {scenario, versions, results, timings}.  Reports are
deterministic byte for byte except for the timings field; sweeps also
emit CSV.  Errors exit with code 2 and a structured error JSON on
stdout, {"error": {"type", "message"}}.  That holds for arguments the
parser rejects (an unknown subcommand, a missing or mistyped option, an
unknown choice) and for vacuous or malformed lists (`--seeds` below 1,
an empty item in `--radius-grid` or `--fibers`) too; only `--help` and
`--version` print and exit 0.  Each `_cmd_*` writes nothing: it returns
its results as report objects (a report dataclass, or a dict of them)
and its side files (`cover --save-unitary`, `sweep --csv`) as writers
by path.  `main` times it, encodes the whole report through
`serialize.report_bytes`, with the subcommand as `kind` plus every
parsed argument except `--out` as its scenario, refuses two outputs
that resolve to one path, and only then writes every file, `--out`
included, each under a temporary name beside it; all are moved into
place once every write has succeeded, so a refused run leaves no file.
Every setting is a command-line argument; nothing is read from the
environment.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
import time

import numpy as np
import scipy

from . import __version__
from .concentration import concentration_witness
from .covering import covering_unitary, outer_roundtrip
from .extraction import extract_pair
from .fixtures import noisy_covering_unitary
from .locality import quasi_locality_violation
from .maps import closeness
from .operators import FiberedSpace
from .serialize import load_map, load_space, read_operator, report_bytes, write_operator

__all__ = ["main"]


def _load_unitary(args):
    target = load_space(args.space)
    source = load_space(args.source_space) if args.source_space else None
    return read_operator(args.unitary, target, source)


def _write_bytes(path, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def _write_all(files: dict) -> None:
    """Write each file of {path: writer} under a temporary name in its
    own directory, then move them all into place; when any write fails,
    none is moved and every temporary file is removed."""
    temps = {path: f"{path}.{os.getpid()}.tmp" for path in files}
    try:
        for path, write in files.items():
            try:
                write(temps[path])
            except OSError as exc:
                exc.filename = path  # the error names the file asked for
                raise
        for path, temp in temps.items():
            os.replace(temp, path)
    finally:
        for temp in temps.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)


def _check_distinct(paths) -> None:
    """Refuse two outputs that name one file, `./X` and `X` included:
    the second writer would replace the first."""
    seen = {}
    for path in paths:
        real = os.path.realpath(path)
        if real in seen:
            raise ValueError(f"two outputs name the same file: {seen[real]!r} and {path!r}")
        seen[real] = path


def _cmd_extract(args):
    return extract_pair(_load_unitary(args), args.delta), {}


def _parse_list(raw: str, option: str) -> list[str]:
    """The comma-separated items of an option; an empty item is refused,
    not dropped, so a list cannot shrink or vanish unnoticed."""
    parts = raw.split(",")
    if not all(p.strip() for p in parts):
        raise ValueError(f"{option} has an empty item: {raw!r}")
    return parts


def _parse_fibers(spec: str, n: int) -> np.ndarray:
    dims = [int(p) for p in _parse_list(spec, "--fibers")]
    return np.full(n, dims[0]) if len(dims) == 1 else np.array(dims)  # FiberedSpace checks the count


def _cmd_cover(args) -> tuple[dict, dict]:
    f = load_map(args.map)
    source = FiberedSpace(f.source, _parse_fibers(args.fibers, f.source.n))
    U, plan = covering_unitary(f, source, separation=args.separation)
    results = {
        "plan": plan,
        "unitarity_residual": U.unitarity_residual(),
        "support_radius": plan.support_radius,
    }
    files = {}
    if args.save_unitary:
        files[args.save_unitary] = functools.partial(write_operator, op=U)
    return results, files


def _h_index(raw: str):
    """--h-index: a fiber basis index, or ``all`` to try every one."""
    return raw if raw == "all" else int(raw)


def _cmd_witness(args):
    h_index = None if args.h_index == "all" else args.h_index
    return concentration_witness(_load_unitary(args), args.y, args.radius, h_index), {}


def _cmd_ql(args):
    return quasi_locality_violation(_load_unitary(args), args.radius, mode=args.mode), {}


def _parse_grid(raw: str | None):
    if raw is None:
        return None
    return [float(v) for v in _parse_list(raw, "--radius-grid")]


def _cmd_outer(args):
    grid = _parse_grid(args.radius_grid)  # a malformed grid is refused before any file is read
    return outer_roundtrip(_load_unitary(args), args.delta, grid), {}


def _sweep_one(kind: str, n: int, seed: int, noise_radius: float, layers: int, delta: float) -> dict:
    U, h, plan = noisy_covering_unitary(kind, n, seed, noise_radius, layers)
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


def _cmd_sweep(args) -> tuple[dict, dict]:
    if args.seeds < 1:
        raise ValueError(f"--seeds must be >= 1, got {args.seeds}")
    rows = [
        _sweep_one(args.h, args.n, s, args.noise_radius, args.layers, args.delta)
        for s in range(args.seeds)
    ]
    files = {}
    if args.csv:
        keys = ("seed", "R", "closeness_f_h", "closeness_fg", "closeness_gf", "budget")
        lines = [",".join(keys)] + [",".join(format(r[k], ".17g") for k in keys) for r in rows]
        files[args.csv] = functools.partial(_write_bytes, data=("\n".join(lines) + "\n").encode())
    return {"rows": rows}, files


class _Parser(argparse.ArgumentParser):
    """A parser whose errors raise instead of printing usage and exiting,
    so `main` reports them as the structured error.  Subparsers are built
    from the same class."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (building it takes
    about 2 ms); parsing leaves it unchanged."""
    parser = _Parser(
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
    p.add_argument("--h-index", type=_h_index, default=0,
                   help="fiber basis vector at y, or 'all' to try every one")
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
    try:
        args = _build_parser().parse_args(argv)
        t0 = time.perf_counter()
        results, files = args.func(args)
        settings = {k: v for k, v in vars(args).items() if k not in ("func", "command", "out")}
        report = {
            "scenario": {"kind": args.command, **settings},
            "versions": {"roelab": __version__, "numpy": np.__version__, "scipy": scipy.__version__},
            "results": results,
            "timings": {"elapsed_s": time.perf_counter() - t0},
        }
        payload = report_bytes(report)  # a report JSON cannot hold is refused before any write
        _check_distinct([*files, args.out] if args.out else files)
        if args.out:
            files[args.out] = functools.partial(_write_bytes, data=payload)
        _write_all(files)
        if args.out:
            print(f"wrote {args.out}")
        else:
            sys.stdout.write(payload.decode())
    except Exception as exc:  # structured error contract for scripts
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stdout.write(report_bytes(error).decode())
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
