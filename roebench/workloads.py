"""The four benchmark workloads: seeded inputs, op lists and their checks.

An op is one in-process call of `roelab.cli.main(argv)`.  `set_up()`
generates a workload's inputs through roelab's own functions, writes
them with roelab's serializers, and returns one round: the list of ops a
run repeats.  Program functions are always reached through their module
(`operators.random_band_unitary`, not a copied name), so trace wrappers
installed on those modules see the set-up calls too.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from roelab import cli, covering, fixtures, operators, serialize, spaces

import checks


@dataclass
class Op:
    input_id: str  # names the input; checks are cached per (input_id, results)
    argv: list
    check: Callable[[dict], None]  # raises checks.CheckFailed


def run_op(op: Op) -> tuple[int, str]:
    """Run one CLI call in-process, capturing the report it prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(op.argv)
    return status, out.getvalue()


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _noisy_cover(kind: str, n: int, noise_seed: int, noise_radius: float, layers: int,
                 fiber_dim: int = 1):
    """U = W V with W covering the named map and V seeded band noise."""
    h, _ = fixtures.standard_pair(kind, n)
    source = operators.FiberedSpace.uniform(h.source, fiber_dim)
    W, _ = covering.covering_unitary(h, source)
    V = operators.random_band_unitary(source, noise_radius, layers, noise_seed)
    return W @ V, W


def _case(U) -> checks.Case:
    """The checks' own view of U: its matrix, fiber dims and path metrics."""
    return checks.Case(
        matrix=np.array(U.matrix),
        target_dist=checks.path_dist(U.target.base.n),
        target_dims=np.array(U.target.fiber_dims),
        source_dist=checks.path_dist(U.source.base.n),
        source_dims=np.array(U.source.fiber_dims),
    )


def _map_table(kind: str, n: int) -> np.ndarray:
    """The named map as a table, written out independently of roelab."""
    if kind == "reflection":
        return np.arange(n)[::-1].copy()
    if kind == "halving":
        return np.arange(2 * n) // 2
    raise ValueError(kind)


class Workload:
    name = ""
    nominal_round_s = 1.0  # wall time of one round on a slow host; sets the round count
    calibration = "dense"  # which run.Calibration loop tracks this workload's work

    def __init__(self, seed: int, work_dir: Path):
        self.work_dir = work_dir
        rng = np.random.default_rng(seed)
        self.noise_seeds = [int(s) for s in rng.integers(0, 2**31, size=16)]

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / self.nominal_round_s))

    def set_up(self) -> list:
        raise NotImplementedError

    def prepare_checks(self, ops: list) -> None:
        """Untimed reference work that checks need after set-up."""

    def _write(self, tag: str, U) -> list:
        """Write U and its base space(s) through roelab; return the CLI args."""
        unitary = self.work_dir / f"{tag}.bin"
        target = self.work_dir / f"{tag}-target.json"
        serialize.write_operator(unitary, U)
        serialize.save_space(target, U.target.base)
        argv = ["--unitary", str(unitary), "--space", str(target)]
        if U.source != U.target:
            source = self.work_dir / f"{tag}-source.json"
            serialize.save_space(source, U.source.base)
            argv += ["--source-space", str(source)]
        return argv


class Extract(Workload):
    """`extract --delta 0.7` on noisy covers: reflection of a 200-point
    path and halving of 224 onto 112 points (2-dim target fibers)."""

    name = "extract"
    nominal_round_s = 2.1
    inputs = [("reflection", 200), ("halving", 112), ("reflection", 200), ("halving", 112)]
    noise_radius, layers, delta = 2.0, 4, 0.7

    def set_up(self) -> list:
        ops = []
        for i, (kind, n) in enumerate(self.inputs):
            U, W = _noisy_cover(kind, n, self.noise_seeds[i], self.noise_radius, self.layers)
            cover = checks.Cover(_map_table(kind, n), np.array(W.matrix.real),
                                 np.array(W.target.fiber_dims), np.array(W.source.fiber_dims))
            case = _case(U)
            argv = ["extract"] + self._write(f"extract-{i}", U) + ["--delta", str(self.delta)]

            def check(results, case=case, cover=cover):
                checks.check_extract(case, cover, self.noise_radius, self.layers, results)

            ops.append(Op(f"extract-{i}", argv, check))
        return ops


class QLBounds(Workload):
    """`ql --mode bounds --radius 3`: seeded band-noise unitaries with
    propagation 4 on a 150-point path, alternating with two fixed noisy
    reflection covers of a 120-point path.  The reflection ops fail the
    check violation_upper <= ||T|| on every run (see checks.KNOWN_FAULTS)."""

    name = "ql-bounds"
    nominal_round_s = 5.0
    band_n, band_radius, band_layers = 150, 1.0, 4
    reflection_n, reflection_seeds = 120, (0, 1)
    radius = 3

    def set_up(self) -> list:
        ops = []
        space = operators.FiberedSpace.uniform(spaces.path_space(self.band_n), 1)
        for i, fixed_seed in enumerate(self.reflection_seeds):
            band = operators.random_band_unitary(space, self.band_radius, self.band_layers,
                                                 self.noise_seeds[i])
            reflection, _ = _noisy_cover("reflection", self.reflection_n, fixed_seed, 2.0, 1)
            for tag, U in ((f"ql-band-{i}", band), (f"ql-reflection-{i}", reflection)):
                argv = ["ql"] + self._write(tag, U) + ["--mode", "bounds",
                                                       "--radius", str(self.radius)]
                ops.append(Op(tag, argv, lambda results, case=_case(U):
                              checks.check_ql_bounds(case, results)))
        return ops


class OuterExact(Workload):
    """`outer --radius-grid 0,1,2,3` on noisy reflection covers with
    2-dim fibers: six of a 13-point path and one of an 8-point path, which
    is also checked against an all-subsets brute force.  A 13-point op
    comes first and is the warm-up: its cost hardly depends on the noise,
    while the 8-point op's doubles from one seed to another."""

    name = "outer-exact"
    nominal_round_s = 5.5
    calibration = "corner"  # nearly all of its time is tiny corner SVDs
    sizes = (13, 13, 13, 8, 13, 13, 13)
    noise_radius, layers, fiber_dim = 2.0, 1, 2

    def set_up(self) -> list:
        ops = []
        for i, n in enumerate(self.sizes):
            U, _ = _noisy_cover("reflection", n, self.noise_seeds[i], self.noise_radius,
                                self.layers, self.fiber_dim)
            argv = ["outer"] + self._write(f"outer-{i}", U) + ["--radius-grid", "0,1,2,3"]
            ops.append(Op(f"outer-{i}", argv, lambda results, case=_case(U), brute=n <= 8:
                          checks.check_outer(case, results, brute)))
        return ops


class Sweep(Workload):
    """`sweep --h halving --n 40 --layers 2 --seeds 32` with ROELAB_THREADS
    set to nproc; the seed picks the noise radius from 1.5, 2.0, 2.5."""

    name = "sweep"
    nominal_round_s = 1.65
    n, layers, seeds = 40, 2, 32

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        self.noise_radius = (1.5, 2.0, 2.5)[seed % 3]
        self.reference = None
        os.environ["ROELAB_THREADS"] = str(nproc())

    def set_up(self) -> list:
        h = fixtures.halving_map(self.n)
        W, _ = covering.covering_unitary(h, operators.FiberedSpace.uniform(h.source, 1))
        self.cover = checks.Cover(_map_table("halving", self.n), np.array(W.matrix.real),
                                  np.array(W.target.fiber_dims), np.array(W.source.fiber_dims))
        argv = ["sweep", "--h", "halving", "--n", str(self.n), "--layers", str(self.layers),
                "--seeds", str(self.seeds), "--noise-radius", str(self.noise_radius)]
        return [Op("sweep", argv, self._check)]

    def prepare_checks(self, ops: list) -> None:
        threads = os.environ["ROELAB_THREADS"]
        os.environ["ROELAB_THREADS"] = "1"
        try:
            status, text = run_op(ops[0])
        finally:
            os.environ["ROELAB_THREADS"] = threads
        if status != 0:
            raise RuntimeError(f"single-thread reference sweep failed: {text.strip()}")
        self.reference = json.loads(text)["results"]

    def _check(self, results: dict) -> None:
        checks.check_sweep(self.cover, self.noise_radius, self.layers, results, self.reference)


WORKLOADS = {w.name: w for w in (Extract, QLBounds, OuterExact, Sweep)}
