"""The CLI's check, twoform, deviations, indices, embed, wedge and plucker
reports, run in process on generated inputs, checked by the benchmark's
independent oracle (bench/oracle.py).

The oracle decides consistency and decomposability with its own scans at
its fixed tolerance, so every input to check, twoform and plucker keeps its
largest deviation or residual at least 10 times away from that tolerance's
bound.
"""

import importlib.util
import io
import json
import math
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from pcgeom import exterior, is_decomposable, new_two_vector, pc_core
from pcgeom.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _bench_module("oracle")
workloads = _bench_module("workloads")

#: Factor kept between the oracle's bound and the largest deviation or residual.
MARGIN = 10.0


def run_checked(workdir: Path, kind: str, name: str, doc, **params: str) -> list[str]:
    """Write doc to workdir/name, run `pcgeom kind name --key value ... -o ...`
    in process, a flag for each of params, and return the oracle's problems
    with the outcome; the oracle reads the same params."""
    path = workdir / name
    if name.endswith(".csv"):
        path.write_text("".join(",".join(map(repr, row)) + "\n" for row in doc.tolist()))
    else:
        path.write_text(json.dumps(doc))
    flags = [arg for key, value in params.items() for arg in (f"--{key}", value)]
    output = f"{kind}-{name}.json"
    req = workloads.Request(kind, (kind, name, *flags, "-o", output), output, kind,
                            {"input": name, **params})
    expected = oracle.expect(req, workdir)
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("PCGEOM_TOL", raising=False)
        mp.delenv("PCGEOM_FORMAT", raising=False)
        with redirect_stdout(out), redirect_stderr(err):
            code = main([kind, str(path), *flags, "-o", str(workdir / output)])
    return oracle.verify(req, expected, workdir, code, out.getvalue(), err.getvalue())


def clear_of_the_bound(largest: float, bound: float) -> bool:
    return largest * MARGIN <= bound or largest >= MARGIN * bound


@st.composite
def matrices(draw):
    """A from_scores or noisy matrix at a power-of-two scale, exactly skew."""
    n = draw(st.integers(4, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 2.0 ** draw(st.integers(-20, 16))
    s = rng.standard_normal(n) * scale
    a = s[:, None] - s[None, :]
    if draw(st.booleans()):
        e = np.triu(rng.normal(0.0, 0.3, (n, n)), 1) * scale
        a = a + e - e.T
    a = np.triu(a, 1)
    return a - a.T


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(matrices())
def test_check_and_twoform_agree_with_the_bench_oracle(a):
    devs = oracle.triad_deviations(a)
    assume(clear_of_the_bound(float(np.max(np.abs(devs))), oracle.TOL))
    with tempfile.TemporaryDirectory() as tmp:
        for kind in ("check", "twoform"):
            assert run_checked(Path(tmp), kind, "a.csv", a) == [], kind


#: The reports of a matrix whose values do not hang on a verdict, with the
#: params of each: flags to the CLI and the oracle's reading of them.
VALUE_REPORTS = [
    ("deviations", {}),
    ("indices", {"embedding": "planar", "convention": "cyclic"}),
    ("indices", {"embedding": "planar", "convention": "anticyclic"}),
    ("embed", {"embedding": "planar"}),
]


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_value_reports_agree_with_the_bench_oracle(a):
    with tempfile.TemporaryDirectory() as tmp:
        for kind, params in VALUE_REPORTS:
            assert run_checked(Path(tmp), kind, "a.csv", a, **params) == [], (kind, params)


@st.composite
def vector_pairs(draw):
    """Vectors u and v in R^n at a power-of-two scale, as a wedge input."""
    n = draw(st.integers(4, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u, v = rng.standard_normal((2, n)) * 2.0 ** draw(st.integers(-20, 20))
    return {"u": u.tolist(), "v": v.tolist()}


@settings(max_examples=60, deadline=None)
@given(vector_pairs())
def test_wedge_agrees_with_the_bench_oracle(doc):
    with tempfile.TemporaryDirectory() as tmp:
        assert run_checked(Path(tmp), "wedge", "uv.json", doc) == []


@st.composite
def two_vectors(draw):
    """A wedge u ^ v (as u and v), or its coordinates perturbed, at a
    power-of-two scale."""
    doc = draw(vector_pairs())
    if draw(st.booleans()):
        return doc
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = oracle.minors(np.asarray(doc["u"]), np.asarray(doc["v"]))
    n = len(doc["u"])
    size = np.max(np.abs(p)) * 10.0 ** draw(st.integers(-14, -2))
    return {"n": n, "coords": (p + rng.standard_normal(p.size) * size).tolist()}


def oracle_coords(doc) -> np.ndarray:
    if "u" in doc:
        return oracle.minors(np.asarray(doc["u"]), np.asarray(doc["v"]))
    return np.asarray(doc["coords"])


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(two_vectors())
def test_plucker_agrees_with_the_bench_oracle(doc):
    p = oracle_coords(doc)
    n = round((1 + math.sqrt(1 + 8 * p.size)) / 2)
    largest = max(abs(oracle.quad_residual(p, n, q)) for q in combinations(range(n), 4))
    assume(clear_of_the_bound(largest, oracle.TOL * max(1.0, float(np.dot(p, p)))))
    with tempfile.TemporaryDirectory() as tmp:
        assert run_checked(Path(tmp), "plucker", "p.json", doc) == []


@settings(max_examples=15, deadline=None)
@given(two_vectors())
def test_plucker_verdict_is_is_decomposable_at_every_scale(doc):
    """Wherever plucker writes a report for p * 2**k, its verdict on the
    largest residual it holds is is_decomposable's, which walks p scaled."""
    p = oracle_coords(doc)
    n = round((1 + math.sqrt(1 + 8 * p.size)) / 2)
    reports = 0
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "p.json", Path(tmp) / "out.json"
        for k in range(-1100, 1101, 40):
            with np.errstate(over="ignore"):
                q = np.ldexp(p, k)
            if not np.all(np.isfinite(q)):
                continue
            path.write_text(json.dumps({"n": n, "coords": q.tolist()}))
            with redirect_stderr(io.StringIO()):
                code = main(["plucker", str(path), "--tol", "1e-9", "-o", str(out)])
            if code != 0:  # its residuals overflow: no report
                continue
            reports += 1
            report = json.loads(out.read_text())
            assert report["decomposable"] == is_decomposable(new_two_vector(n, q), 1e-9), k
    assert reports > 0


def test_plucker_and_check_scan_once(tmp_path, monkeypatch):
    """Each report's verdict takes the maximum the command already holds."""
    calls = []

    def counted(walk):
        def wrapper(*args):
            calls.append(walk.__name__)
            return walk(*args)
        return wrapper

    monkeypatch.setattr(exterior, "_residuals_by_lead", counted(exterior._residuals_by_lead))
    monkeypatch.setattr(pc_core, "_deviations_by_lead", counted(pc_core._deviations_by_lead))
    rng = np.random.default_rng(9)
    p, a = tmp_path / "p.json", tmp_path / "a.csv"
    p.write_text(json.dumps({"n": 9, "coords": rng.standard_normal(36).tolist()}))
    raw = np.triu(rng.standard_normal((9, 9)), 1)
    a.write_text("".join(",".join(map(repr, row)) + "\n" for row in (raw - raw.T).tolist()))
    assert main(["plucker", str(p), "-o", str(tmp_path / "p-out.json")]) == 0
    assert calls == ["_residuals_by_lead"]
    calls.clear()
    assert main(["check", str(a), "-o", str(tmp_path / "a-out.json")]) == 1
    assert calls == ["_deviations_by_lead"]
