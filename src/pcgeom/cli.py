"""Command-line front end.

One subcommand per operation family; all reports are machine readable
(JSON by default, CSV for matrix-shaped output) and carry the library
version. Exit codes: 0 success, 1 valid-but-inconsistent matrix (check
only), 2 parse or validation failure, non-finite result or exhausted
memory, with a one-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, io
from .coupling import build_M, closed_form_diagnosis, regularize
from .embedding import (
    Embedding,
    geometric_inconsistency,
    orthogonal_embedding,
    pair_wedges,
    planar_matrix_inconsistency,
    planar_pair_wedges,
    scores_to_coefficients,
)
from .errors import DivergentStepError, NonFiniteResultError, PCGeomError
from .exterior import quad_residuals, residuals_decomposable, wedge
from .pc_core import (
    AdditiveMatrix,
    DEFAULT_TOLERANCE,
    algebraic_inconsistency,
    all_triad_deviations,
    max_abs_triad_deviation,
    recover_scores,
    to_additive,
    to_multiplicative,
)
from .reduction import reduce_iterative
from .twoform import evaluation_table, is_closed_discrete

COMMANDS = (
    "check",
    "convert",
    "indices",
    "deviations",
    "embed",
    "wedge",
    "plucker",
    "diagnose",
    "reduce",
    "twoform",
)

ENV_TOL = "PCGEOM_TOL"
ENV_FORMAT = "PCGEOM_FORMAT"


@dataclass
class RunConfig:
    """Resolved invocation parameters for a single command."""

    command: str
    input_path: str
    output_path: str | None = None
    format: str | None = None
    #: None means "use the file's own mode declaration, else additive"
    mode: str | None = None
    convention: str = "cyclic"
    embedding_kind: str = "planar"
    embedding_file: str | None = None
    tol: float = DEFAULT_TOLERANCE
    lam: float = 0.0
    eta: float | None = None
    max_steps: int = 1000

    def validate(self) -> None:
        if self.command not in COMMANDS:
            raise PCGeomError(f"unknown command {self.command!r}")
        if not self.tol > 0:
            raise PCGeomError("tol must be positive")
        if self.lam < 0:
            raise PCGeomError("lambda must be nonnegative")
        if self.eta is not None and not self.eta > 0:
            raise PCGeomError("eta must be positive")
        if self.max_steps < 1:
            raise PCGeomError("max-steps must be at least 1")


def _resolved_format(config: RunConfig) -> str:
    if config.format:
        return config.format
    if config.output_path:
        return io.infer_format(config.output_path, fallback="json")
    return "json"


def _read_additive(config: RunConfig) -> AdditiveMatrix:
    fmt = io.infer_format(config.input_path, fallback="csv")
    matrix = io.read_matrix(
        config.input_path, fmt=fmt, mode=config.mode, tol=config.tol
    )
    if isinstance(matrix, AdditiveMatrix):
        return matrix
    return to_additive(matrix)


def _emit(config: RunConfig, writer) -> None:
    if not config.output_path:
        writer(sys.stdout)
        return
    try:
        with open(config.output_path, "w") as dest:
            writer(dest)
    except (NonFiniteResultError, MemoryError):
        # Leave no truncated document behind.
        os.remove(config.output_path)
        raise


def _base_report(config: RunConfig, **extra) -> dict:
    report = {"command": config.command, "version": __version__}
    report.update(extra)
    return report


def _cmd_check(config: RunConfig) -> int:
    matrix = _read_additive(config)
    max_dev = max_abs_triad_deviation(matrix)
    consistent = max_dev <= config.tol
    report = _base_report(
        config,
        n=matrix.n,
        tolerance=config.tol,
        consistent=consistent,
        max_abs_deviation=max_dev,
        I_alg=algebraic_inconsistency(matrix),
    )
    _emit(config, lambda dest: io.write_report(report, dest, _resolved_format(config)))
    return 0 if consistent else 1


def _cmd_convert(config: RunConfig) -> int:
    fmt = io.infer_format(config.input_path, fallback="csv")
    matrix = io.read_matrix(
        config.input_path, fmt=fmt, mode=config.mode, tol=config.tol
    )
    if isinstance(matrix, AdditiveMatrix):
        converted = to_multiplicative(matrix)
    else:
        converted = to_additive(matrix)
    out_fmt = _resolved_format(config)
    _emit(
        config,
        lambda dest: io.write_matrix(converted, dest, out_fmt, version=__version__),
    )
    return 0


def _embedding(config: RunConfig, matrix: AdditiveMatrix) -> Embedding | None:
    """The orthogonal or custom embedding the config names; None for the
    planar family, which is built pair by pair from the matrix entries."""
    if config.embedding_kind == "planar":
        return None
    if config.embedding_kind == "orthogonal":
        scores, _ = recover_scores(matrix)
        return orthogonal_embedding(scores_to_coefficients(scores))
    if config.embedding_kind == "custom":
        if not config.embedding_file:
            raise PCGeomError("custom embedding requires --embedding-file")
        emb = io.read_embedding(config.embedding_file)
        if emb.n != matrix.n:
            raise PCGeomError(
                f"embedding is for n={emb.n}, matrix has n={matrix.n}"
            )
        return emb
    raise PCGeomError(f"unknown embedding kind {config.embedding_kind!r}")


def _geometric_index(config: RunConfig, matrix: AdditiveMatrix) -> float:
    emb = _embedding(config, matrix)
    if emb is None:
        return planar_matrix_inconsistency(matrix, config.convention)
    return geometric_inconsistency(emb, config.convention)


def _cmd_indices(config: RunConfig) -> int:
    matrix = _read_additive(config)
    report = _base_report(
        config,
        n=matrix.n,
        convention=config.convention,
        embedding=config.embedding_kind,
        I_alg=algebraic_inconsistency(matrix),
        I_geom=_geometric_index(config, matrix),
    )
    _emit(config, lambda dest: io.write_report(report, dest, _resolved_format(config)))
    return 0


def _cmd_deviations(config: RunConfig) -> int:
    matrix = _read_additive(config)
    devs = all_triad_deviations(matrix)
    report = _base_report(
        config,
        n=matrix.n,
        triads=[list(t) for t in devs.triad_labels()],
        values=devs.values.tolist(),
    )
    _emit(config, lambda dest: io.write_report(report, dest, _resolved_format(config)))
    return 0


def _cmd_embed(config: RunConfig) -> int:
    matrix = _read_additive(config)
    emb = _embedding(config, matrix)
    w = planar_pair_wedges(matrix) if emb is None else pair_wedges(emb.vectors)
    report = _base_report(
        config,
        n=matrix.n,
        embedding=config.embedding_kind,
        pairs=[
            {"i": i, "j": j, "coords": coords, "degenerate": degenerate}
            for (i, j), coords, degenerate in zip(
                matrix.pair_labels(),
                w.tolist(),
                np.all(w == 0.0, axis=1).tolist(),
            )
        ],
    )
    _emit(config, lambda dest: io.write_report(report, dest, _resolved_format(config)))
    return 0


def _cmd_wedge(config: RunConfig) -> int:
    u, v = io.read_vector_pair(config.input_path)
    w = wedge(u, v)
    report = _base_report(
        config,
        n=w.n,
        pairs=[list(p) for p in w.pair_labels()],
        coords=w.coords.tolist(),
    )
    _emit(config, lambda dest: io.write_report(report, dest, _resolved_format(config)))
    return 0


def _cmd_plucker(config: RunConfig) -> int:
    try:
        p = io.read_two_vector(config.input_path)
    except io.FormatError:
        u, v = io.read_vector_pair(config.input_path)
        p = wedge(u, v)
    quads, values = quad_residuals(p)
    report = _base_report(
        config,
        n=p.n,
        norm_squared=p.norm_squared(),
        max_abs_residual=float(np.max(np.abs(values), initial=0.0)),
        decomposable=residuals_decomposable(p, values, config.tol),
        tolerance=config.tol,
        residuals=[
            {"quad": quad, "value": value}
            for quad, value in zip(quads.tolist(), values.tolist())
        ],
    )
    _emit(config, lambda dest: io.write_report(report, dest, _resolved_format(config)))
    return 0


def _cmd_diagnose(config: RunConfig) -> int:
    matrix = _read_additive(config)
    out_fmt = _resolved_format(config)
    if out_fmt == "csv":
        # The matrix itself is the output, so only this path builds it.
        m = build_M(matrix.n)
        if config.lam > 0:
            m = regularize(m, config.lam)
        _emit(config, lambda dest: io.write_grid_csv(m.values, dest))
        return 0
    spectrum = closed_form_diagnosis(matrix.n, config.lam, config.tol)
    report = _base_report(config, n=matrix.n, **spectrum)
    report["lambda"] = config.lam
    _emit(config, lambda dest: io.write_report(report, dest, out_fmt))
    return 0


def _cmd_reduce(config: RunConfig) -> int:
    matrix = _read_additive(config)
    eta = config.eta if config.eta is not None else 1.0 / matrix.n
    # Each step scales the residual by 1 - eta(n + lambda); refuse a step
    # that cannot contract instead of iterating into overflow.
    if abs(1.0 - eta * (matrix.n + config.lam)) >= 1.0:
        raise DivergentStepError(
            f"eta={eta:g} does not contract for n={matrix.n}, "
            f"lambda={config.lam:g}: need 0 < eta < 2/(n+lambda) = "
            f"{2.0 / (matrix.n + config.lam):g}"
        )
    trajectory = reduce_iterative(
        matrix,
        lam=config.lam,
        eta=eta,
        max_steps=config.max_steps,
        tol=config.tol,
    )
    out_fmt = _resolved_format(config)
    if out_fmt == "jsonl":
        _emit(config, lambda dest: io.write_trajectory_jsonl(trajectory, dest))
        return 0
    if out_fmt == "csv":
        _emit(
            config,
            lambda dest: io.write_grid_csv(trajectory.final.to_array(), dest),
        )
        return 0
    report = _base_report(
        config,
        n=matrix.n,
        eta=eta,
        max_steps=config.max_steps,
        tol=config.tol,
        converged=trajectory.converged,
        steps=trajectory.records(),
        final=io.matrix_to_dict(trajectory.final),
    )
    report["lambda"] = config.lam
    _emit(config, lambda dest: io.write_report(report, dest, out_fmt))
    return 0


def _cmd_twoform(config: RunConfig) -> int:
    matrix = _read_additive(config)
    rows = evaluation_table(matrix)
    max_err = max((r["abs_error"] for r in rows), default=0.0)
    # Discrete closedness is the consistency predicate; scan triads once.
    closed = is_closed_discrete(matrix, config.tol)
    report = _base_report(
        config,
        n=matrix.n,
        rows=rows,
        max_abs_error=max_err,
        closed=closed,
        consistent=closed,
    )
    _emit(config, lambda dest: io.write_report(report, dest, _resolved_format(config)))
    return 0


_DISPATCH = {
    "check": _cmd_check,
    "convert": _cmd_convert,
    "indices": _cmd_indices,
    "deviations": _cmd_deviations,
    "embed": _cmd_embed,
    "wedge": _cmd_wedge,
    "plucker": _cmd_plucker,
    "diagnose": _cmd_diagnose,
    "reduce": _cmd_reduce,
    "twoform": _cmd_twoform,
}


def run(config: RunConfig) -> int:
    """Execute one command; never raises for input problems (exit 2)."""
    try:
        config.validate()
        # Overflow raises instead of warning, so no inf or nan reaches a
        # report and no numpy warning reaches stderr.
        with np.errstate(over="raise", invalid="raise"):
            return _DISPATCH[config.command](config)
    except FloatingPointError as exc:
        print(
            f"pcgeom: error: result is not finite ({exc}); "
            "input entries are too large",
            file=sys.stderr,
        )
        return 2
    except MemoryError as exc:
        print(
            f"pcgeom: error: out of memory ({str(exc) or 'allocation failed'})",
            file=sys.stderr,
        )
        return 2
    except (ValueError, OverflowError, OSError) as exc:
        # PCGeomError subclasses ValueError, so one clause covers both
        # domain validation and malformed numeric input.
        print(f"pcgeom: error: {exc}", file=sys.stderr)
        return 2


def _add_common(parser: argparse.ArgumentParser, matrix_input: bool) -> None:
    parser.add_argument("input", help="input file")
    parser.add_argument("-o", "--output", help="output file (default stdout)")
    parser.add_argument(
        "--format",
        choices=["json", "csv", "jsonl"],
        help="output format (default: from output extension, else json)",
    )
    parser.add_argument(
        "--tol",
        type=float,
        help=(
            "absolute validation / decision tolerance, the same at every "
            "scale of the entries (default 1e-9)"
        ),
    )
    if matrix_input:
        parser.add_argument(
            "--mode",
            choices=[io.ADDITIVE, io.MULTIPLICATIVE],
            help=(
                "how to interpret the input matrix "
                "(default: the file's own mode declaration, else additive)"
            ),
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcgeom",
        description=(
            "Skew-symmetric pairwise-comparison matrices: consistency "
            "checks, pair-subspace embeddings, and inconsistency reduction."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="consistency verdict and max deviation")
    _add_common(p, matrix_input=True)

    p = sub.add_parser("convert", help="additive <-> multiplicative")
    _add_common(p, matrix_input=True)

    p = sub.add_parser("indices", help="algebraic and geometric inconsistency")
    _add_common(p, matrix_input=True)
    p.add_argument("--convention", choices=["cyclic", "anticyclic"], default="cyclic")
    p.add_argument(
        "--embedding",
        choices=["planar", "orthogonal", "custom"],
        default="planar",
        dest="embedding_kind",
    )
    p.add_argument("--embedding-file", help="JSON file for --embedding custom")

    p = sub.add_parser("deviations", help="all triad deviations")
    _add_common(p, matrix_input=True)

    p = sub.add_parser("embed", help="pair 2-vectors of the chosen embedding")
    _add_common(p, matrix_input=True)
    p.add_argument(
        "--embedding",
        choices=["planar", "orthogonal", "custom"],
        default="planar",
        dest="embedding_kind",
    )
    p.add_argument("--embedding-file", help="JSON file for --embedding custom")

    p = sub.add_parser("wedge", help='wedge product of {"u": [...], "v": [...]}')
    _add_common(p, matrix_input=False)

    p = sub.add_parser(
        "plucker", help="quadratic-relation residuals of a 2-vector"
    )
    _add_common(p, matrix_input=False)

    p = sub.add_parser("diagnose", help="spectral report of the coupling form")
    _add_common(p, matrix_input=True)
    p.add_argument(
        "--lambda", type=float, default=0.0, dest="lam",
        help="diagonal regularization weight (default 0)",
    )

    p = sub.add_parser("reduce", help="iterative inconsistency reduction")
    _add_common(p, matrix_input=True)
    p.add_argument(
        "--lambda", type=float, default=0.0, dest="lam",
        help="regularized descent weight (default 0)",
    )
    p.add_argument("--eta", type=float, help="step size (default 1/n)")
    p.add_argument("--max-steps", type=int, default=1000, dest="max_steps")

    p = sub.add_parser("twoform", help="form evaluation table vs matrix entries")
    _add_common(p, matrix_input=True)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    tol = args.tol
    if tol is None:
        env = os.environ.get(ENV_TOL)
        tol = float(env) if env else DEFAULT_TOLERANCE
    fmt = args.format or os.environ.get(ENV_FORMAT) or None
    return RunConfig(
        command=args.command,
        input_path=args.input,
        output_path=args.output,
        format=fmt,
        mode=getattr(args, "mode", None),
        convention=getattr(args, "convention", "cyclic"),
        embedding_kind=getattr(args, "embedding_kind", "planar"),
        embedding_file=getattr(args, "embedding_file", None),
        tol=tol,
        lam=getattr(args, "lam", 0.0),
        eta=getattr(args, "eta", None),
        max_steps=getattr(args, "max_steps", 1000),
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return run(config_from_args(args))


if __name__ == "__main__":
    sys.exit(main())
