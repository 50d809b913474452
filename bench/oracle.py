"""Independent numpy reference for every request the benchmark sends.

Nothing here imports pcgeom. Inputs are re-read from the generated files,
expected values are computed from the definitions (blocked triad scans,
direct sums, 2-by-2 minors) before any timing starts, and each output
file is parsed as strict JSON, so ``NaN`` or ``Infinity`` is a failure.

``expect(request, workdir)`` builds the reference once per workload run;
``verify(request, expected, workdir, exit_code, stdout, stderr)`` returns a
list of problems, empty when the output is correct.
"""

from __future__ import annotations

import json
from math import comb
from pathlib import Path

import numpy as np

#: CLI default tolerance; the workloads never pass --tol.
TOL = 1e-9
#: Relative agreement asked of floating-point reports (sums may be taken in
#: another order than here).
RTOL = 1e-9


class Mismatch(Exception):
    """An output that disagrees with the reference."""


def _reject_constant(token: str):
    raise Mismatch(f"non-standard JSON constant {token}")


def strict_json(text: str):
    """Parse JSON, refusing the NaN/Infinity extensions."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise Mismatch(f"invalid JSON: {exc}") from exc


# -- inputs -----------------------------------------------------------------

def read_additive(path: Path) -> np.ndarray:
    """Full additive matrix of a CSV grid or JSON matrix document."""
    if path.suffix == ".csv":
        return np.loadtxt(path, delimiter=",", ndmin=2)
    doc = json.loads(path.read_text())
    entries = np.asarray(doc["entries"], dtype=float)
    if doc.get("mode") == "multiplicative":
        upper = np.triu(np.log(entries), 1)
        return upper - upper.T
    return entries


def _upper(a: np.ndarray) -> np.ndarray:
    return a[np.triu_indices(a.shape[0], 1)]


def triad_deviations(a: np.ndarray, closing: float = -1.0) -> np.ndarray:
    """a_ij + a_jk + closing * a_ik over i < j < k, lexicographic, one i at
    a time; closing = -1 is the deviation, +1 the anticyclic lead term."""
    n = a.shape[0]
    blocks = []
    for i in range(n - 2):
        row = a[i, i + 1:]
        block = row[:, None] + a[i + 1:, i + 1:] + closing * row[None, :]
        blocks.append(block[np.triu_indices(n - i - 1, 1)])
    return np.concatenate(blocks) if blocks else np.zeros(0)


def projection(a: np.ndarray) -> np.ndarray:
    """Row-mean scores differenced: the nearest consistent matrix."""
    s = a.mean(axis=1)
    return s[:, None] - s[None, :]


def minors(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u_k v_l - u_l v_k over k < l, lexicographic."""
    k, l = np.triu_indices(u.size, 1)
    return u[k] * v[l] - u[l] * v[k]


def pair_wedges(vectors: np.ndarray) -> np.ndarray:
    """Row p = minors of (v_i, v_j) for the p-th pair i < j."""
    i, j = np.triu_indices(vectors.shape[0], 1)
    k, l = np.triu_indices(vectors.shape[1], 1)
    vi, vj = vectors[i], vectors[j]
    return vi[:, k] * vj[:, l] - vi[:, l] * vj[:, k]


def _triad_rows(n: int):
    """Pair positions (ij, jk, ik) of every triad, by direct enumeration."""
    pos = np.full((n, n), -1)
    pos[np.triu_indices(n, 1)] = np.arange(comb(n, 2))
    t = np.array([(i, j, k) for i in range(n) for j in range(i + 1, n)
                  for k in range(j + 1, n)])
    return pos[t[:, 0], t[:, 1]], pos[t[:, 1], t[:, 2]], pos[t[:, 0], t[:, 2]]


def geometric_index(vectors: np.ndarray, convention: str) -> float:
    """Sum of squared triad deviation norms of an explicit embedding."""
    w = pair_wedges(vectors)
    ij, jk, ik = _triad_rows(vectors.shape[0])
    # w_ki = -w_ik, so the cyclic +w_ki is -w[ik] and the anticyclic -w_ki
    # is +w[ik].
    sign = -1.0 if convention == "cyclic" else 1.0
    dev = w[ij] + w[jk] + sign * w[ik]
    return float(np.sum(dev * dev))


def orthogonal_vectors(a: np.ndarray) -> np.ndarray:
    """v_i = exp(s_i / 2) e_i for the row-mean scores s."""
    return np.diag(np.exp(a.mean(axis=1) / 2.0))


def read_embedding(path: Path) -> np.ndarray:
    return np.asarray(json.loads(path.read_text())["vectors"], dtype=float)


def quad_residual(p: np.ndarray, n: int, quad) -> float:
    """p_kl p_mo - p_km p_lo + p_ko p_lm for a 0-based quad k<l<m<o."""
    k, l, m, o = quad

    def c(x, y):
        return p[x * n - x * (x + 1) // 2 + (y - x - 1)]

    return c(k, l) * c(m, o) - c(k, m) * c(l, o) + c(k, o) * c(l, m)


# -- reference values -------------------------------------------------------

def expect(req, workdir: Path) -> dict:
    """Everything ``verify`` needs for ``req``, computed from its inputs."""
    path = workdir / req.params["input"]
    kind = req.kind
    if kind in ("wedge", "plucker"):
        doc = json.loads(path.read_text())
        if "u" in doc:
            u, v = np.asarray(doc["u"]), np.asarray(doc["v"])
            return {"n": u.size, "coords": minors(u, v), "decomposable": True}
        n = doc["n"]
        return {"n": n, "coords": np.asarray(doc["coords"]), "decomposable": None}
    a = read_additive(path)
    n = a.shape[0]
    exp = {"n": n, "a": a}
    if kind == "convert":
        exp["ratios"] = np.asarray(json.loads(path.read_text())["entries"])
    if kind in ("check", "indices", "deviations", "twoform", "reduce"):
        d = triad_deviations(a)
        exp["max_dev"] = float(np.max(np.abs(d))) if d.size else 0.0
        exp["I_alg"] = float(np.dot(d, d))
        if kind == "deviations":
            exp["devs"] = d
    if kind == "indices":
        exp["I_geom"] = _expected_geom(req, workdir, a, d)
    if kind in ("embed", "indices") and req.params.get("embedding") == "custom":
        exp["vectors"] = read_embedding(workdir / req.params["embedding_file"])
    return exp


def _expected_geom(req, workdir: Path, a: np.ndarray, d: np.ndarray) -> float:
    convention = req.params.get("convention", "cyclic")
    embedding = req.params.get("embedding", "planar")
    if embedding == "planar":
        # Pairwise planar wedges carry a_ij alone on coordinate (1, 2).
        if convention == "cyclic":
            return float(np.dot(d, d))
        lead = triad_deviations(a, closing=1.0)
        return float(np.dot(lead, lead))
    if embedding == "orthogonal":
        vectors = orthogonal_vectors(a)
    else:
        vectors = read_embedding(workdir / req.params["embedding_file"])
    return geometric_index(vectors, convention)


# -- checks -----------------------------------------------------------------

def _close(name: str, got, want, atol: float = 1e-12, rtol: float = RTOL) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise Mismatch(f"{name}: shape {got.shape}, expected {want.shape}")
    if not np.all(np.isfinite(got)):
        raise Mismatch(f"{name}: non-finite value")
    if not np.allclose(got, want, rtol=rtol, atol=atol):
        worst = float(np.max(np.abs(got - want)))
        raise Mismatch(f"{name}: off by up to {worst:.3g}")


def _equal(name: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{name}: got {got!r}, expected {want!r}")


def _check(report: dict, exp: dict, req) -> None:
    _equal("n", report["n"], exp["n"])
    _equal("consistent", report["consistent"], exp["max_dev"] <= TOL)
    _close("max_abs_deviation", report["max_abs_deviation"], exp["max_dev"])
    _close("I_alg", report["I_alg"], exp["I_alg"])


def _indices(report: dict, exp: dict, req) -> None:
    _close("I_alg", report["I_alg"], exp["I_alg"])
    _close("I_geom", report["I_geom"], exp["I_geom"])


def _deviations(report: dict, exp: dict, req) -> None:
    n = exp["n"]
    triads = [[i, j, k] for i in range(1, n + 1) for j in range(i + 1, n + 1)
              for k in range(j + 1, n + 1)]
    _equal("triads", report["triads"], triads)
    _close("values", report["values"], exp["devs"])


def _embed(report: dict, exp: dict, req) -> None:
    a, n = exp["a"], exp["n"]
    kind = req.params["embedding"]
    labels = [(i + 1, j + 1) for i, j in zip(*np.triu_indices(n, 1))]
    _equal("pairs", [(p["i"], p["j"]) for p in report["pairs"]], labels)
    if kind == "planar":
        # Pair (i, j) is (a_ij, 1, 0...) ^ (0, 1, 0...).
        base = np.zeros(n)
        base[1] = 1.0
        want = []
        for value in _upper(a):
            u = base.copy()
            u[0] = value
            want.append(minors(u, base))
        want = np.array(want)
    else:
        vectors = orthogonal_vectors(a) if kind == "orthogonal" else exp["vectors"]
        want = pair_wedges(vectors)
    _close("coords", [p["coords"] for p in report["pairs"]], want)
    _equal("degenerate", [p["degenerate"] for p in report["pairs"]],
           [bool(np.all(row == 0.0)) for row in want])


def _wedge(report: dict, exp: dict, req) -> None:
    n = exp["n"]
    _equal("n", report["n"], n)
    labels = [[i + 1, j + 1] for i, j in zip(*np.triu_indices(n, 1))]
    _equal("pairs", report["pairs"], labels)
    _close("coords", report["coords"], exp["coords"])


def _plucker(report: dict, exp: dict, req) -> None:
    n, p = exp["n"], exp["coords"]
    _equal("n", report["n"], n)
    scale = max(1.0, float(np.dot(p, p)))
    _close("norm_squared", report["norm_squared"], np.dot(p, p))
    residuals = report["residuals"]
    _equal("residual count", len(residuals), comb(n, 4))
    # Sampled quads against the quadratic formula, then the verdict.
    rng = np.random.default_rng(n)
    for idx in rng.choice(len(residuals), min(256, len(residuals)), replace=False):
        quad = [q - 1 for q in residuals[idx]["quad"]]
        if not all(0 <= a < b for a, b in zip(quad, quad[1:] + [n])):
            raise Mismatch(f"quad {residuals[idx]['quad']} is not increasing")
        _close(f"residual {residuals[idx]['quad']}", residuals[idx]["value"],
               quad_residual(p, n, quad), atol=1e-12 * scale)
    max_res = max((abs(r["value"]) for r in residuals), default=0.0)
    _close("max_abs_residual", report["max_abs_residual"], max_res)
    want = exp["decomposable"]
    if want is None:
        want = max_res <= TOL * scale
    _equal("decomposable", report["decomposable"], want)


def _diagnose(report: dict, exp: dict, req) -> None:
    n, lam = exp["n"], req.params["lam"]
    t = comb(n, 3)
    image = (n - 1) * (n - 2) // 2
    _equal("T", report["T"], t)
    # The coupling Gram matrix is C^T C with C C^T = n(I - Pi): eigenvalue
    # n on the image, 0 on the kernel, both shifted by lambda.
    want = np.array([n + lam] * image + [lam] * (t - image))
    _close("eigenvalues", report["eigenvalues"], want, atol=1e-8 * n)
    rank = t if lam > 0 else image
    _equal("rank", report["rank"], rank)
    _equal("kernel_dim", report["kernel_dim"], t - rank)
    _equal("degenerate", report["degenerate"], rank < t)


def _twoform(report: dict, exp: dict, req) -> None:
    a = exp["a"]
    r = _upper(a - projection(a))
    rows = report["rows"]
    _close("entry", [row["entry"] for row in rows], _upper(a), rtol=0, atol=0)
    _close("omega", [row["omega"] for row in rows], _upper(projection(a)))
    _close("abs_error", [row["abs_error"] for row in rows], np.abs(r), atol=1e-12)
    _close("max_abs_error", report["max_abs_error"], np.max(np.abs(r)), atol=1e-12)
    consistent = exp["max_dev"] <= TOL
    _equal("consistent", report["consistent"], consistent)
    _equal("closed", report["closed"], consistent)


def _convert(report: dict, exp: dict, req) -> None:
    # Every convert request reads a Saaty (multiplicative) file.
    entries = np.asarray(report["entries"], dtype=float)
    _equal("mode", report["mode"], "additive")
    _close("log entries", entries, exp["a"])
    _close("exp round trip", np.exp(entries), exp["ratios"])


def _records(records: list[dict], exp: dict, req) -> None:
    """Monotone descent whose residual contracts by 1 - eta(n + lambda)."""
    n, lam = exp["n"], req.params["lam"]
    eta = req.params["eta"] or 1.0 / n
    i_alg = np.array([r["I_alg"] for r in records], dtype=float)
    i_geom = np.array([r["I_geom"] for r in records], dtype=float)
    _equal("step numbers", [r["step"] for r in records], list(range(len(records))))
    _close("I_alg[0]", i_alg[0], exp["I_alg"])
    # On the complete complex I_geom = n * I_alg at every step.
    _close("I_geom", i_geom, n * i_alg, rtol=1e-6, atol=1e-12 * n * i_alg[0])
    if np.any(np.diff(i_alg) > 0) or np.any(np.diff(i_geom) > 0):
        raise Mismatch("a descent record increased")
    q2 = (1.0 - eta * (n + lam)) ** 2
    _close("contraction", i_alg, i_alg[0] * q2 ** np.arange(len(i_alg)),
           rtol=1e-4, atol=1e-12 * i_alg[0])
    if i_alg[-1] > TOL or (len(i_alg) > 1 and i_alg[-2] <= TOL):
        raise Mismatch("descent did not stop at the first step within tolerance")


def _final(final: np.ndarray, exp: dict) -> None:
    # Converged means I_alg = n |r|^2 <= tol, so every entry of the final
    # matrix is within sqrt(tol / n) of the projection.
    _close("final matrix", final, projection(exp["a"]), rtol=0,
           atol=np.sqrt(TOL / exp["n"]) + 1e-12)


def _reduce(text: str, exp: dict, req) -> None:
    ext = req.output.rsplit(".", 1)[-1]
    if ext == "jsonl":
        _records([strict_json(line) for line in text.splitlines()], exp, req)
    elif ext == "csv":
        final = np.array([[float(v) for v in line.split(",")]
                          for line in text.splitlines()])
        _final(final, exp)
    else:
        report = strict_json(text)
        _equal("converged", report["converged"], True)
        _records(report["steps"], exp, req)
        _final(np.asarray(report["final"]["entries"], dtype=float), exp)


_REPORT_CHECKS = {
    "check": _check,
    "indices": _indices,
    "deviations": _deviations,
    "wedge": _wedge,
    "plucker": _plucker,
    "twoform": _twoform,
    "convert": _convert,
    "embed": _embed,
    "diagnose": _diagnose,
}


def verify(req, exp: dict, workdir: Path, exit_code: int, stdout: str,
           stderr: str) -> list[str]:
    """Problems with one request's outcome; empty when it is correct."""
    problems = []
    want_exit = 1 if req.kind == "check" and exp["max_dev"] > TOL else 0
    if exit_code != want_exit:
        problems.append(f"exit code {exit_code}, expected {want_exit}")
    if stderr:
        problems.append(f"stderr: {stderr.strip().splitlines()[0][:200]}")
    if stdout:
        problems.append(f"unexpected stdout: {stdout[:80]!r}")
    out = workdir / req.output
    if not out.exists():
        return problems + ["no output file"]
    text = out.read_text()
    try:
        if req.kind == "reduce":  # JSON, JSONL or CSV
            _reduce(text, exp, req)
        else:
            _REPORT_CHECKS[req.kind](strict_json(text), exp, req)
    except (Mismatch, KeyError, TypeError, ValueError, IndexError) as exc:
        problems.append(f"{type(exc).__name__}: {exc}")
    return problems
