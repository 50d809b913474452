"""The forms that pcgeom's kernels replaced, kept as test oracles: the
``csv.reader`` + ``float()`` grid parser, the writers that built every
document as plain dicts and lists for ``json.dumps`` and ``csv.writer``,
the per-triad deviation 2-vectors and the geometric index read off the
matrix of all pair wedges, the dense triad incidence, its Gram matrix and
the coupling spectrum from a dense eigensolver, and a grid search for the
nearest consistent matrix."""

import csv
import itertools
import json
import math
import warnings
from itertools import combinations

import numpy as np

from pcgeom import io as pio
from pcgeom.embedding import _check_convention, pair_wedges
from pcgeom.exterior import wedge
from pcgeom.errors import IndexOutOfRangeError, NonFiniteResultError
from pcgeom.pc_core import AdditiveMatrix, from_scores, recover_scores


# ------------------------------------------------------------------ reading


def parse_csv_grid(path):
    """The grid of a CSV matrix file as csv.reader and float() read it,
    converting each row as it arrives."""
    source = str(path)
    with open(path, encoding="utf-8", newline="") as fh:
        grid = []
        try:
            for r, row in enumerate(csv.reader(fh)):
                if not row:
                    continue
                try:
                    grid.append(np.array([float(cell) for cell in row]))
                except ValueError as exc:
                    raise pio.FormatError(
                        f"{source}: row {r + 1} has a non-numeric cell"
                    ) from exc
        except csv.Error as exc:
            raise pio.FormatError(f"{path}: unreadable CSV ({exc})") from exc
    if not grid:
        raise pio.FormatError(f"{source}: no numeric rows found")
    widths = {len(row) for row in grid}
    if len(widths) != 1:
        raise pio.FormatError(f"{source}: rows have differing lengths {sorted(widths)}")
    return np.asarray(grid, dtype=float)


# ------------------------------------------------------------------ writing


def matrix_to_dict(m, version=None):
    if isinstance(m, AdditiveMatrix):
        entries, mode = m.to_array(), pio.ADDITIVE
    else:
        entries, mode = m.entries, pio.MULTIPLICATIVE
    doc = {"n": int(m.n), "mode": mode, "entries": entries.tolist()}
    if version:
        doc["version"] = version
    return doc


def two_vector_to_dict(p):
    return {"n": int(p.n), "coords": p.coords.tolist()}


def records(trajectory):
    """One plain dict per descent step."""
    return [
        {"step": s.index, "I_alg": s.i_alg, "I_geom": s.i_geom}
        for s in trajectory.steps
    ]


def plain(value):
    """A document of the new writer as the plain dicts and lists the old
    one was given: a Table as one dict per row, an array or a row stream
    as its nested lists (a stream of label text as the rows of
    itertools.combinations), an additive matrix as its full entries."""
    if isinstance(value, pio.Table):
        columns = [plain(column) for column in value.values()]
        return [dict(zip(value, row)) for row in zip(*columns)]
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, pio.RowStream):
        if isinstance(value.rows(slice(0, 0)), str):
            # Label text: the r-sets of 1..n, with n read off their count.
            count, r = value.shape
            n = next(n for n in itertools.count() if math.comb(n, r) >= count)
            return [list(c) for c in combinations(range(1, n + 1), r)]
        return value.rows(slice(None)).tolist()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, AdditiveMatrix):
        return value.to_array().tolist()
    return value


def json_text(doc):
    try:
        return json.dumps(doc, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteResultError("not finite") from exc


def write_grid_csv(entries, dest):
    entries = np.asarray(entries)
    if not np.all(np.isfinite(entries)):
        raise NonFiniteResultError("not finite")
    writer = csv.writer(dest)
    for row in entries:
        writer.writerow([repr(float(v)) for v in row])


def write_report(report, dest, fmt="json"):
    report = plain(report)
    if fmt == "json":
        dest.write(json_text(report) + "\n")
        return
    writer = csv.writer(dest)
    for key, value in report.items():
        if isinstance(value, (list, dict)):
            value = json_text(value)
        elif isinstance(value, float):
            if not math.isfinite(value):
                raise NonFiniteResultError("not finite")
            value = repr(value)
        writer.writerow([key, value])


def write_matrix(m, dest, fmt="json", version=None):
    if fmt == "json":
        dest.write(json_text(matrix_to_dict(m, version=version)) + "\n")
    else:
        write_any_grid_csv(m if isinstance(m, AdditiveMatrix) else m.entries, dest)


def write_trajectory_jsonl(trajectory, dest):
    dest.write("".join(json_text(r) + "\n" for r in records(trajectory)))


def write_any_grid_csv(entries, dest):
    """The old grid writer, given what the new one takes."""
    if isinstance(entries, AdditiveMatrix):
        entries = entries.to_array()
    elif isinstance(entries, pio.RowStream):
        entries = entries.rows(slice(None))
    write_grid_csv(entries, dest)


#: Each public writer of pcgeom.io and its old form.
WRITERS = {
    "write_report": write_report,
    "write_matrix": write_matrix,
    "write_grid_csv": write_any_grid_csv,
    "write_trajectory_jsonl": write_trajectory_jsonl,
}


# ------------------------------------------------------------------ geometry


def minors(x, y):
    """Row p: the 2x2 minors x[p, k] y[p, l] - x[p, l] y[p, k] over k < l,
    the coordinates of x[p] ^ y[p]."""
    k, l = np.triu_indices(x.shape[1], k=1)
    return x[:, k] * y[:, l] - x[:, l] * y[:, k]


def geometric_index_w(vectors, convention):
    """Sum of squared triad deviation norms from the C(n,2) x C(n,2) matrix
    W of pair wedges: n |W(v - m)|^2 for the cyclic convention (m the mean
    vector), (n - 4) |W|^2 + |B W|^2 for the anticyclic one (B the
    unsigned alternative-by-pair incidence, row i of B W being
    v_i ^ (sum_{j>i} v_j - sum_{j<i} v_j))."""
    v = np.asarray(vectors, dtype=float)
    n = v.shape[0]
    if n < 3:
        return 0.0
    if convention == "cyclic":
        r = pair_wedges(v - v.mean(axis=0))
        return n * float(np.vdot(r, r))
    w = pair_wedges(v)
    sums = np.cumsum(v, axis=0)
    bw = minors(v, (sums[-1] - sums) - (sums - v))
    return max((n - 4) * float(np.vdot(w, w)) + float(np.vdot(bw, bw)), 0.0)


class DegeneratePairWarning(UserWarning):
    """A pair of alternatives produced the zero wedge (parallel vectors)."""


def pair_subspace(e, i, j):
    """Wedge v_i ^ v_j for 1-based i != j.

    Emits DegeneratePairWarning (and still returns the zero 2-vector)
    when the two vectors are parallel; downstream sums stay well defined.
    """
    for idx in (i, j):
        if not 1 <= idx <= e.n:
            raise IndexOutOfRangeError(f"index {idx} outside 1..{e.n}")
    if i == j:
        raise IndexOutOfRangeError(f"pair indices must differ, got ({i},{j})")
    w = wedge(e.vectors[i - 1], e.vectors[j - 1])
    if w.is_zero():
        warnings.warn(
            f"pair ({i},{j}) spans no plane (parallel vectors)",
            DegeneratePairWarning,
            stacklevel=2,
        )
    return w


def geometric_deviation(e, i, j, k, convention="cyclic"):
    """Deviation 2-vector of the 1-based triad i < j < k: w_ij + w_jk +
    w_ki (cyclic) or w_ij + w_jk - w_ki (anticyclic)."""
    _check_convention(convention)
    if not i < j < k:
        raise IndexOutOfRangeError(
            f"triad ({i},{j},{k}) must satisfy i < j < k"
        )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegeneratePairWarning)
        w_ij = pair_subspace(e, i, j)
        w_jk = pair_subspace(e, j, k)
        w_ki = pair_subspace(e, k, i)
    if convention == "cyclic":
        return w_ij + w_jk + w_ki
    return w_ij + w_jk - w_ki


# ------------------------------------------------------ coupling, reduction


def incidence_oracle(n):
    """Dense signed pair-by-triad incidence built straight from the triad
    definition."""
    pair_idx = {p: i for i, p in enumerate(combinations(range(n), 2))}
    c = np.zeros((math.comb(n, 2), math.comb(n, 3)))
    for t, (i, j, k) in enumerate(combinations(range(n), 3)):
        c[pair_idx[(i, j)], t] = 1.0
        c[pair_idx[(j, k)], t] = 1.0
        c[pair_idx[(i, k)], t] = -1.0
    return c


def dense_M(n, lam=0.0):
    """The Gram matrix of the incidence shifted on the diagonal,
    C^T C + lam I; adding lam I also turns any -0.0 of the product into
    0.0."""
    c = incidence_oracle(n)
    return c.T @ c + lam * np.eye(math.comb(n, 3))


def dense_spectral_report(n, lam=0.0, rank_tol=1e-9):
    """The diagnose report from the eigenvalues of the dense M + lam I,
    sorted descending; those at most rank_tol times the largest count as
    zero."""
    eigenvalues = np.linalg.eigvalsh(dense_M(n, lam))[::-1]
    threshold = rank_tol * max(float(eigenvalues[0]), 0.0)
    t_count = int(eigenvalues.size)
    rank = int(np.count_nonzero(eigenvalues > threshold))
    return {
        "rank": rank,
        "T": t_count,
        "degenerate": rank < t_count,
        "eigenvalues": eigenvalues.tolist(),
        "kernel_dim": t_count - rank,
    }


def nearest_consistent_oracle(
    a: AdditiveMatrix, grid_radius: float, grid_steps: int
) -> AdditiveMatrix:
    """Brute-force nearest consistent matrix over a score grid.

    Exhaustively evaluates every score vector on a uniform grid of
    half-width grid_radius per axis centred at the row-mean scores and
    returns the score-difference matrix closest in Frobenius norm. Only
    n = 3 and n = 4 are supported; cost grows as grid_steps**n.
    """
    if a.n not in (3, 4):
        raise ValueError(
            f"grid oracle supports n = 3 or 4, got n = {a.n}"
        )
    if grid_steps < 11:
        raise ValueError("grid_steps must be at least 11")
    if not grid_radius > 0:
        raise ValueError("grid_radius must be positive")
    center, _ = recover_scores(a)
    axes = [
        np.linspace(c - grid_radius, c + grid_radius, grid_steps)
        for c in center
    ]
    grids = np.meshgrid(*axes, indexing="ij")
    dist_sq = np.zeros(grids[0].shape)
    rows, cols = np.triu_indices(a.n, k=1)
    for value, i, j in zip(a.upper, rows, cols):
        dist_sq += (value - (grids[i] - grids[j])) ** 2
    best = np.unravel_index(np.argmin(dist_sq), dist_sq.shape)
    scores = np.array([axis[idx] for axis, idx in zip(axes, best)])
    return from_scores(scores)
