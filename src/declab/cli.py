"""Command-line front end.

Subcommands
-----------
convergence     run a manufactured-solution convergence study and render
                the error table (markdown or CSV)
diagnostics     centroid/kernel/commuting diagnostics for one mesh
gen-mesh        generate a mesh and write it in the plain-text format
dual-report     per-simplex primal/dual volume table as CSV
dump-operators  assembled sparse operators in coordinate text form

Exit codes: 0 on success, 1 on bad arguments or an unwritable --out, 2 on
solver failure, 3 on a mesh-generation or mesh-file failure (gen-mesh
writes a mesh file, so an unwritable --out is a mesh-file failure there).
An option that argparse itself rejects exits with argparse's own 2 after
the usage line instead, until ROADMAP item 1a.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

import numpy as np

from .complex import SimplicialComplex
from .dual import DualComplex, build_dual
from .experiments import diagnostics, render_report, run_convergence
from .meshes import MeshError, MeshFamilySpec, build_mesh, read_mesh, write_mesh
from .operators import (
    codifferential_matrix,
    hodge_laplacian_matrix,
    star_matrix,
)
from .solver import SolverError

__all__ = ["main"]


def _parse_levels(text: str) -> list[int]:
    """Parse '--levels a..b' (or a single 'm') into an ascending list."""
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(text)
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError(
            f"levels must satisfy 1 <= a <= b, got {text!r}"
        )
    return list(range(lo, hi + 1))


def _mesh_from_args(args: argparse.Namespace) -> SimplicialComplex:
    if args.mesh:
        if args.level is not None:
            raise ValueError("give --mesh or --level, not both")
        return read_mesh(args.mesh)
    if args.level is None:
        raise ValueError("either --mesh or --level is required")
    spec = MeshFamilySpec(
        family=args.family, level=args.level, seed=args.seed, alpha=args.alpha
    )
    return build_mesh(spec)


def _mesh_and_dual(args: argparse.Namespace) -> tuple[SimplicialComplex, DualComplex]:
    """The mesh of the arguments and its dual.  A complex without a
    circumcentric dual (only a mesh file can give one) is a mesh failure."""
    K = _mesh_from_args(args)
    try:
        return K, build_dual(K)
    except ValueError as exc:
        raise MeshError(str(exc)) from exc


def _emit(text: str, out: str | None) -> None:
    """Write a report to --out or stdout; an unwritable --out is a bad
    argument (ValueError)."""
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write output: {exc}") from exc
    else:
        sys.stdout.write(text)


def _check_out(out: str | None) -> None:
    """Raise _emit's error for an --out that open() would refuse (a
    directory, a file without write permission, a new file whose directory
    is missing or not writable), creating and truncating nothing."""
    if not out:
        return
    parent = os.path.dirname(out) or "."
    if os.path.isdir(out):
        code = errno.EISDIR
    elif os.path.exists(out):
        code = None if os.access(out, os.W_OK) else errno.EACCES
    elif not os.path.exists(parent):
        code = errno.ENOENT
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR
    else:
        code = None if os.access(parent, os.W_OK | os.X_OK) else errno.EACCES
    if code is not None:
        exc = OSError(code, os.strerror(code), out)
        raise ValueError(f"cannot write output: {exc}")


# -- subcommands -------------------------------------------------------------


def _cmd_convergence(args: argparse.Namespace) -> int:
    _check_out(args.out)  # before the study, which may run for minutes
    report = run_convergence(
        k=args.k,
        family=args.family,
        levels=args.levels,
        seed=args.seed,
        alpha=args.alpha,
        tol=args.solver_tol,
        max_iterations=args.solver_maxit,
    )
    _emit(render_report(report, args.format), args.out)
    return 0


def _cmd_diagnostics(args: argparse.Namespace) -> int:
    K, dual = _mesh_and_dual(args)
    _emit(diagnostics(K, dual, args.k), args.out)
    return 0


def _cmd_gen_mesh(args: argparse.Namespace) -> int:
    K = _mesh_from_args(args)
    write_mesh(K, args.out)
    print(
        f"wrote {K.n_simplices(0)} vertices, {K.n_simplices(2)} cells to {args.out}"
    )
    return 0


def _cmd_dual_report(args: argparse.Namespace) -> int:
    K, dual = _mesh_and_dual(args)
    lines = ["dim,simplex_id,primal_volume,dual_volume,ratio_a,is_boundary"]
    for k in range(3):
        flags, a, volume = K.is_boundary(k), dual.hodge_ratio_a[k], K.volumes(k)
        # |*T| = 1, the volume of a point
        dual_volume = a * volume if k < 2 else np.ones_like(volume)
        for i, row in enumerate(zip(volume, dual_volume, a)):
            lines.append(f"{k},{i}," + ",".join(f"{v:.17g}" for v in row) + f",{int(flags[i])}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _coo_lines(name: str, mat) -> list[str]:
    coo = mat.tocoo()
    lines = [f"# operator {name} shape {coo.shape[0]} {coo.shape[1]} nnz {coo.nnz}"]
    order = np.lexsort((coo.col, coo.row))
    for r, c, v in zip(coo.row[order], coo.col[order], coo.data[order]):
        lines.append(f"{r} {c} {v:.17g}")
    return lines


def _cmd_dump_operators(args: argparse.Namespace) -> int:
    K, dual = _mesh_and_dual(args)
    k = args.k
    lines: list[str] = []
    if k < 2:
        lines += _coo_lines(f"coboundary_d{k}", K.coboundary_matrix(k))
    lines += _coo_lines(f"hodge_star_{k}", star_matrix(dual, k))
    if k >= 1:
        lines += _coo_lines(f"codifferential_{k}", codifferential_matrix(K, dual, k))
    lines += _coo_lines(f"laplacian_{k}", hodge_laplacian_matrix(K, dual, k))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--family", choices=("symmetric", "perturbed"), default="symmetric",
                        help="mesh family (default symmetric)")
    family.add_argument("--seed", type=int, default=0, help="perturbation seed")
    family.add_argument("--alpha", type=float, default=0.15, help="perturbation amplitude in [0, 0.5)")

    level_help = "refinement level m (h = 2^-m)"
    mesh_source = argparse.ArgumentParser(add_help=False, parents=[family])
    mesh_source.add_argument("--level", type=int, default=None, help=level_help)
    mesh_source.add_argument("--mesh", default=None, help="read this mesh file instead of generating")
    mesh_source.add_argument("--out", default=None)

    degree = argparse.ArgumentParser(add_help=False)
    degree.add_argument("--k", type=int, choices=(0, 1, 2), required=True, help="form degree")

    parser = argparse.ArgumentParser(
        prog="declab", description="discrete exterior calculus convergence laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convergence", parents=[degree, family], help="run a convergence study")
    p.add_argument("--levels", type=_parse_levels, required=True, metavar="a..b")
    p.add_argument("--format", choices=("markdown", "csv"), default="markdown")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--solver-tol", type=float, default=1e-12,
                   help="CG's relative residual target (default 1e-12)")
    p.add_argument("--solver-maxit", type=int, default=None,
                   help="CG's iteration budget (default 50 sqrt(n) + 1000 for n unknowns)")
    p.set_defaults(func=_cmd_convergence)

    sub.add_parser("diagnostics", parents=[degree, mesh_source],
                   help="superconvergence diagnostics for one mesh").set_defaults(func=_cmd_diagnostics)

    p = sub.add_parser("gen-mesh", parents=[family], help="generate a mesh file")
    p.add_argument("--level", type=int, required=True, help=level_help)
    p.add_argument("--out", required=True, help="path of the mesh file to write")
    p.set_defaults(func=_cmd_gen_mesh, mesh=None)

    sub.add_parser("dual-report", parents=[mesh_source],
                   help="primal/dual volume table").set_defaults(func=_cmd_dual_report)

    sub.add_parser("dump-operators", parents=[degree, mesh_source],
                   help="sparse operators in coordinate text").set_defaults(func=_cmd_dump_operators)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except MeshError as exc:
        print(f"mesh generation failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
