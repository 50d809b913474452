"""Tests of the benchmark itself: the oracle, the launcher and the harness.

Run from the root of a checkout with ``python -m pytest bench``. Each
case starts real ``python -m pcgeom`` processes on tiny inputs, the way
the benchmark does.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import launcher
import oracle
import run
import workloads
from workloads import _Inputs, _reduce, _req


def _tiny_requests(f: _Inputs) -> list[workloads.Request]:
    """One tiny request of every kind and variant the workloads send."""
    a6 = f.additive_csv("a6.csv", 6)
    c6 = f.additive_csv("c6.csv", 6, consistent=True)
    m5 = f.saaty_json("m5.json", 5)
    uv = f.vector_pair("uv6.json", 6)
    p6 = f.two_vector("p6.json", 6)
    e6 = f.embedding("e6.json", 6)
    reqs = [
        _req("check", "check", ["check", a6], input=a6),
        _req("check-consistent", "check", ["check", c6], input=c6),
        _req("check-saaty", "check", ["check", m5], input=m5),
        _req("convert", "convert", ["convert", m5], input=m5),
        _req("deviations", "deviations", ["deviations", a6], input=a6),
        _req("wedge", "wedge", ["wedge", uv], input=uv),
        _req("plucker-uv", "plucker", ["plucker", uv], input=uv),
        _req("plucker-random", "plucker", ["plucker", p6], input=p6),
        _req("twoform", "twoform", ["twoform", a6], input=a6),
        _req("twoform-consistent", "twoform", ["twoform", c6], input=c6),
        _req("indices-anticyclic", "indices",
             ["indices", a6, "--convention", "anticyclic"],
             input=a6, convention="anticyclic"),
        _reduce("reduce-default", a6, 6),
        _reduce("reduce-json", a6, 6, eta_n=0.2),
        _reduce("reduce-jsonl", a6, 6, eta_n=0.5, lam=1.0, ext="jsonl"),
        _reduce("reduce-csv", a6, 6, eta_n=0.2, lam=0.5, ext="csv"),
    ]
    for kind in ("planar", "orthogonal", "custom"):
        extra = ["--embedding-file", e6] if kind == "custom" else []
        reqs.append(_req(f"embed-{kind}", "embed",
                         ["embed", a6, "--embedding", kind, *extra],
                         input=a6, embedding=kind, embedding_file=e6))
        reqs.append(_req(f"indices-{kind}", "indices",
                         ["indices", a6, "--embedding", kind, *extra],
                         input=a6, embedding=kind, embedding_file=e6))
    for lam in (0.0, 1.0):
        reqs.append(_req(f"diagnose-{lam}", "diagnose",
                         ["diagnose", a6, "--lambda", repr(lam)],
                         input=a6, lam=lam))
    return reqs


def _launch(req, workdir: Path) -> dict:
    stem = workdir / "out" / req.label
    result = run.launch(["-m", "pcgeom", *req.argv], workdir, run.child_env(), stem)
    result["stdout"] = Path(f"{stem}.stdout").read_text()
    result["stderr"] = Path(f"{stem}.stderr").read_text()
    return result


def _verify(req, workdir: Path, result: dict, **override) -> list[str]:
    outcome = {"exit_code": result["exit"], "stdout": result["stdout"],
               "stderr": result["stderr"], **override}
    return oracle.verify(req, oracle.expect(req, workdir), workdir, **outcome)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("tiny")
    (workdir / "out").mkdir()
    requests = _tiny_requests(_Inputs(workdir, seed=7, stream=0))
    return workdir, {r.label: (r, _launch(r, workdir)) for r in requests}


def test_tiny_requests_cover_every_kind_the_workloads_send(tiny, tmp_path):
    _, outcomes = tiny
    sent = {r.kind for w in workloads.WORKLOADS
            for r in workloads.build(w, 0, tmp_path / w)[0]}
    assert sent == {req.kind for req, _ in outcomes.values()}


def test_oracle_accepts_pcgeom_output(tiny):
    workdir, outcomes = tiny
    for label, (req, result) in outcomes.items():
        assert _verify(req, workdir, result) == [], label


def _corrupt(workdir: Path, req, edit) -> None:
    path = workdir / req.output
    path.write_text(edit(path.read_text()))


def test_oracle_flags_corrupted_outputs(tiny):
    workdir, outcomes = tiny
    req, result = outcomes["check"]
    assert result["exit"] == 1
    good = (workdir / req.output).read_text()
    try:
        assert _verify(req, workdir, result, exit_code=0)
        assert _verify(req, workdir, result,
                       stderr="RuntimeWarning: overflow encountered\n")
        report = json.loads(good)
        report["I_alg"] *= 1.001
        _corrupt(workdir, req, lambda _: json.dumps(report))
        assert any("I_alg" in p for p in _verify(req, workdir, result))
        report["I_alg"] = float("inf")
        _corrupt(workdir, req, lambda _: json.dumps(report))
        assert "Infinity" in (workdir / req.output).read_text()
        assert any("Infinity" in p for p in _verify(req, workdir, result))
    finally:
        (workdir / req.output).write_text(good)
    assert _verify(req, workdir, result) == []


def test_oracle_flags_a_wrong_descent_record(tiny):
    workdir, outcomes = tiny
    req, result = outcomes["reduce-jsonl"]
    path = workdir / req.output
    good = path.read_text()
    try:
        records = [json.loads(line) for line in good.splitlines()]
        records[2]["I_alg"] *= 1.01
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert _verify(req, workdir, result)
    finally:
        path.write_text(good)


def test_launcher_traces_names_rebound_in_cli(tmp_path):
    f = _Inputs(tmp_path, seed=3, stream=0)
    a10 = f.additive_csv("a10.csv", 10)
    spans_file = tmp_path / "check.spans"
    result = run.launch([str(run.BENCH / "launcher.py"), str(spans_file),
                         "check", a10, "-o", "check.json"],
                        tmp_path, run.child_env(), tmp_path / "check")
    assert result["exit"] == 1
    doc = json.loads(spans_file.read_text())
    spans = doc["spans"]
    scans = [s for s in spans if s[0] == "pc_core.all_triad_deviations"]
    parents = sorted(spans[s[3]][0] for s in scans)
    # One call through the name cli bound with ``from .pc_core import``,
    # one from inside algebraic_inconsistency.
    assert parents == ["cli.run", "pc_core.algebraic_inconsistency"]
    assert spans[0][0] == "cli.main" and spans[0][3] == -1
    totals = launcher.summarize([doc])
    assert totals["pc_core.triads_scanned"] == 2 * comb(10, 3)
    assert totals["indexing.entries_built"] >= comb(10, 3)


def test_summarize_subtracts_child_time():
    doc = {"import_s": 0.5, "cache_hits": 3, "cache_misses": 1, "spans": [
        ["cli.main", 0.0, 10.0, -1, None],
        ["io.read_matrix", 1.0, 4.0, 0, None],
        ["pc_core.new_additive", 2.0, 3.0, 1, None],
        ["indexing.triad_pair_positions", 5.0, 9.0, 0, 20],
    ]}
    totals = launcher.summarize([doc])
    assert totals["cli.self_s"] == 3.0
    assert totals["io.read_s"] == 2.0
    assert totals["pc_core.validate_s"] == 1.0
    assert totals["indexing.build_s"] == 4.0
    assert totals["indexing.entries_built"] == 20
    assert totals["indexing.hit_ratio"] == 0.75
    assert totals["cli.import_s"] == 0.5


def test_harness_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "geometry",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
