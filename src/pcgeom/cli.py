"""Command-line front end: the handlers of the commands that ``usage``
declares, each given the parsed command line as its configuration, and
``main``, which parses with ``usage.build_parser``.

One subcommand per operation family; all reports are machine readable
(JSON by default, CSV for matrix-shaped output) and carry the library
version. Exit codes: 0 success, 1 valid-but-inconsistent matrix (check
only), 2 parse or validation failure, non-finite result or exhausted
memory, with a one-line diagnostic on stderr.
"""

from __future__ import annotations

import math
import os
import sys
from argparse import Namespace
from typing import TYPE_CHECKING

import numpy as np

from . import __version__, indexing, io
# Not on demand: bench/launcher.py wraps CouplingMap right after importing cli.
from .coupling import closed_form_diagnosis, gram_rows
from .errors import PCGeomError
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
from .usage import FORMATS, build_parser

if TYPE_CHECKING:
    from .embedding import Embedding

ENV_TOL = "PCGEOM_TOL"
ENV_FORMAT = "PCGEOM_FORMAT"


def _validate(config: Namespace) -> None:
    if config.command not in _HANDLERS:
        raise PCGeomError(f"unknown command {config.command!r}")
    if not config.tol > 0:
        raise PCGeomError("tol must be positive")
    if config.lam < 0:
        raise PCGeomError("lambda must be nonnegative")
    if config.eta is not None and not config.eta > 0:
        raise PCGeomError("eta must be positive")
    for name, value in (("tol", config.tol), ("lambda", config.lam),
                        ("eta", config.eta)):
        if value is not None and not math.isfinite(value):
            raise PCGeomError(f"{name} must be finite")
    if config.max_steps < 1:
        raise PCGeomError("max-steps must be at least 1")
    if config.embedding_file is not None and config.embedding_kind != "custom":
        raise PCGeomError("--embedding-file requires --embedding custom")
    if config.embedding_kind == "custom" and not config.embedding_file:
        raise PCGeomError("custom embedding requires --embedding-file")


def _with_environment(config: Namespace) -> Namespace:
    """A copy of the config with its tolerance and output format resolved:
    the flag, else PCGEOM_TOL / PCGEOM_FORMAT, else the default tolerance
    and the format of the output extension, else json."""
    tol, fmt = config.tol, config.format
    if tol is None:
        env = os.environ.get(ENV_TOL)
        try:
            tol = float(env) if env else DEFAULT_TOLERANCE
        except ValueError:
            raise PCGeomError(f"{ENV_TOL}={env!r} is not a number") from None
    if not fmt:
        env = os.environ.get(ENV_FORMAT)
        if env and env not in FORMATS:
            raise PCGeomError(
                f"{ENV_FORMAT}={env!r} is not one of {', '.join(FORMATS)}"
            )
        fmt = env or io.infer_format(config.output_path or "", fallback="json")
    if fmt == "jsonl" and config.command != "reduce":
        # Only the descent has records to write one per line.
        kind = "matrix" if config.command == "convert" else "report"
        raise io.FormatError(f"unsupported {kind} format {fmt!r}")
    return Namespace(**{**vars(config), "tol": tol, "format": fmt})


def _read_matrix(config: Namespace):
    fmt = io.infer_format(config.input_path, fallback="csv")
    return io.read_matrix(
        config.input_path, fmt=fmt, mode=config.mode, tol=config.tol
    )


def _read_additive(config: Namespace) -> AdditiveMatrix:
    matrix = _read_matrix(config)
    if isinstance(matrix, AdditiveMatrix):
        return matrix
    return to_additive(matrix)


def _emit(config: Namespace, writer) -> None:
    if not config.output_path:
        writer(sys.stdout)
        # A full device or a closed pipe fails here, inside run's error
        # boundary, rather than at interpreter exit.
        sys.stdout.flush()
        return
    dest = open(config.output_path, "w")
    try:
        with dest:
            writer(dest)
    except BaseException:
        # Leave no truncated document behind, whatever stopped the writer;
        # a device or pipe named as the output holds no document.
        if os.path.isfile(config.output_path):
            os.remove(config.output_path)
        raise


def _labels(n: int, r: int) -> io.RowStream:
    """The 1-based r-sets of 1..n, one row each, computed as written."""
    count, unrank = math.comb(n, r), indexing.unranker(n, r)
    rows = lambda s: np.column_stack(unrank(np.arange(*s.indices(count)))) + 1
    return io.RowStream((count, r), rows, int)


def _report(config: Namespace, **fields):
    """Writer of the command's report: its name, the version, then fields."""
    report = {"command": config.command, "version": __version__, **fields}
    return lambda dest: io.write_report(report, dest, config.format)


def _cmd_check(config: Namespace):
    matrix = _read_additive(config)
    max_dev = max_abs_triad_deviation(matrix)
    consistent = max_dev <= config.tol
    return 0 if consistent else 1, _report(
        config,
        n=matrix.n,
        tolerance=config.tol,
        consistent=consistent,
        max_abs_deviation=max_dev,
        I_alg=algebraic_inconsistency(matrix),
    )


def _cmd_convert(config: Namespace):
    matrix = _read_matrix(config)
    if isinstance(matrix, AdditiveMatrix):
        converted = to_multiplicative(matrix)
    else:
        converted = to_additive(matrix)
    return 0, lambda dest: io.write_matrix(
        converted, dest, config.format, version=__version__
    )


def _embedding(config: Namespace, matrix: AdditiveMatrix) -> Embedding | None:
    """The orthogonal or custom embedding the config names; None for the
    planar family, which is built pair by pair from the matrix entries."""
    from .embedding import orthogonal_embedding, scores_to_coefficients

    if config.embedding_kind == "planar":
        return None
    if config.embedding_kind == "orthogonal":
        scores, _ = recover_scores(matrix)
        return orthogonal_embedding(scores_to_coefficients(scores))
    if config.embedding_kind == "custom":
        emb = io.read_embedding(config.embedding_file)
        if emb.n != matrix.n:
            raise PCGeomError(
                f"embedding is for n={emb.n}, matrix has n={matrix.n}"
            )
        return emb
    raise PCGeomError(f"unknown embedding kind {config.embedding_kind!r}")


def _geometric_index(config: Namespace, matrix: AdditiveMatrix) -> float:
    from .embedding import geometric_inconsistency, planar_matrix_inconsistency

    emb = _embedding(config, matrix)
    if emb is None:
        return planar_matrix_inconsistency(matrix, config.convention)
    return geometric_inconsistency(emb, config.convention)


def _cmd_indices(config: Namespace):
    matrix = _read_additive(config)
    return 0, _report(
        config,
        n=matrix.n,
        convention=config.convention,
        embedding=config.embedding_kind,
        I_alg=algebraic_inconsistency(matrix),
        I_geom=_geometric_index(config, matrix),
    )


def _cmd_deviations(config: Namespace):
    matrix = _read_additive(config)
    return 0, _report(
        config,
        n=matrix.n,
        triads=_labels(matrix.n, 3),
        values=all_triad_deviations(matrix),
    )


def _cmd_embed(config: Namespace):
    from .embedding import pair_wedges, planar_pair_wedges

    matrix = _read_additive(config)
    emb = _embedding(config, matrix)
    w = planar_pair_wedges(matrix) if emb is None else pair_wedges(emb.vectors)
    i, j = np.triu_indices(matrix.n, k=1)
    return 0, _report(
        config,
        n=matrix.n,
        embedding=config.embedding_kind,
        pairs=io.Table(
            i=i + 1,
            j=j + 1,
            coords=w,
            degenerate=np.all(w == 0.0, axis=1),
        ),
    )


def _cmd_wedge(config: Namespace):
    from .exterior import wedge

    u, v = io.read_vector_pair(config.input_path)
    w = wedge(u, v)
    return 0, _report(
        config,
        n=w.n,
        pairs=_labels(w.n, 2),
        coords=w.coords,
    )


def _cmd_plucker(config: Namespace):
    from .exterior import quad_residual_values, residuals_decomposable

    p = io.read_two_vector(config.input_path)
    values = quad_residual_values(p)
    # The largest |residual|, with no C(n,4) temporary; 0.0 first, as abs(-0.0).
    largest = float(max(0.0, values.max(initial=0.0), -values.min(initial=0.0)))
    return 0, _report(
        config,
        n=p.n,
        norm_squared=p.norm_squared(),
        max_abs_residual=largest,
        decomposable=residuals_decomposable(p, np.array([largest]), config.tol),
        tolerance=config.tol,
        residuals=io.Table(quad=_labels(p.n, 4), value=values),
    )


def _cmd_diagnose(config: Namespace):
    matrix = _read_additive(config)
    if config.format == "csv":
        # The matrix itself is the output: its rows are computed as they
        # are written, a block at a time.
        t_count = indexing.triad_count(matrix.n)
        rows = io.RowStream((t_count, t_count), gram_rows(matrix.n, config.lam))
        return 0, lambda dest: io.write_grid_csv(rows, dest)
    spectrum = closed_form_diagnosis(matrix.n, config.lam)
    return 0, _report(config, n=matrix.n, **spectrum, **{"lambda": config.lam})


def _cmd_reduce(config: Namespace):
    from .reduction import reduce_iterative

    matrix = _read_additive(config)
    eta = config.eta if config.eta is not None else 1.0 / matrix.n
    trajectory = reduce_iterative(
        matrix,
        lam=config.lam,
        eta=eta,
        max_steps=config.max_steps,
        tol=config.tol,
    )
    if config.format == "jsonl":
        return 0, lambda dest: io.write_trajectory_jsonl(trajectory, dest)
    if config.format == "csv":
        return 0, lambda dest: io.write_matrix(trajectory.final, dest, "csv")
    return 0, _report(
        config,
        n=matrix.n,
        eta=eta,
        max_steps=config.max_steps,
        tol=config.tol,
        converged=trajectory.converged,
        steps=io.steps_table(trajectory),
        final=io.matrix_document(trajectory.final),
        **{"lambda": config.lam},
    )


def _cmd_twoform(config: Namespace):
    from .twoform import evaluation_columns, is_closed_discrete

    matrix = _read_additive(config)
    omega, entry, abs_error = evaluation_columns(matrix)
    i, j = np.triu_indices(matrix.n, k=1)
    # Discrete closedness is the consistency predicate; scan triads once.
    closed = is_closed_discrete(matrix, config.tol)
    return 0, _report(
        config,
        n=matrix.n,
        rows=io.Table(
            i=i + 1,
            j=j + 1,
            omega=omega,
            entry=entry,
            abs_error=abs_error,
        ),
        max_abs_error=float(np.max(abs_error)),
        closed=closed,
        consistent=closed,
    )


#: Each command's handler, keyed by the names in usage.COMMANDS; a
#: handler returns its exit code and the writer of its output.
_HANDLERS = {
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


def run(config: Namespace) -> int:
    """Execute the command of a parsed command line; never raises for
    input problems (exit 2)."""
    try:
        config = _with_environment(config)
        _validate(config)
        # Overflow raises instead of warning, so no inf or nan reaches a
        # report and no numpy warning reaches stderr.
        with np.errstate(over="raise", invalid="raise"):
            code, writer = _HANDLERS[config.command](config)
            _emit(config, writer)
        return code
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


def main(argv: list[str] | None = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    # End the process as ``python -m pcgeom`` does: a stdout that cannot
    # be flushed costs one error line, not an interpreter-teardown message.
    from .__main__ import run as run_module

    run_module()
