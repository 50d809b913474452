"""Seeded inputs and request lists for the three benchmark workloads.

Every input file is written before any timing starts; pcgeom only ever
sees the files. A request is one fresh ``python -m pcgeom ...`` process
whose report goes to its own output file, so the harness can check it
against the reference in ``oracle.py`` after the timed pass.

Why each workload exists is written up in ``README.md`` next to this file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import comb
from pathlib import Path

import numpy as np

WORKLOADS = ("triad-scan", "descent", "geometry")

#: Saaty's 1-9 judgement scale and its reciprocals.
SAATY = np.array([1 / 9, 1 / 8, 1 / 7, 1 / 6, 1 / 5, 1 / 4, 1 / 3, 1 / 2,
                  1, 2, 3, 4, 5, 6, 7, 8, 9])

#: Skew noise added to score differences for inconsistent matrices.
NOISE_SIGMA = 0.3


@dataclass(frozen=True)
class Request:
    """One CLI invocation and what its output is checked against.

    ``argv`` follows ``python -m pcgeom``; file names are relative to the
    work directory. ``kind`` selects the oracle check and ``params`` holds
    what that check needs beyond the files themselves.
    """

    label: str
    argv: tuple[str, ...]
    output: str
    kind: str
    params: dict = field(default_factory=dict)


class _Inputs:
    """Writes the generated files and records their sizes."""

    def __init__(self, workdir: Path, seed: int, stream: int) -> None:
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, stream])
        self.sizes: list[dict] = []

    def _record(self, name: str, n: int) -> str:
        self.sizes.append({
            "file": name,
            "n": n,
            "pairs": comb(n, 2),
            "triads": comb(n, 3),
            "quads": comb(n, 4),
            "bytes": (self.workdir / name).stat().st_size,
        })
        return name

    def additive_csv(self, name: str, n: int, consistent: bool = False) -> str:
        """Differences of N(0,1) scores, plus skew noise unless consistent."""
        s = self.rng.standard_normal(n)
        a = s[:, None] - s[None, :]
        if not consistent:
            e = np.triu(self.rng.normal(0.0, NOISE_SIGMA, (n, n)), 1)
            a = a + e - e.T
        a = np.triu(a, 1)
        a = a - a.T  # exact skew-symmetry, zero diagonal
        with open(self.workdir / name, "w") as fh:
            for row in a:
                fh.write(",".join(repr(float(v)) for v in row))
                fh.write("\n")
        return self._record(name, n)

    def saaty_json(self, name: str, n: int) -> str:
        """Reciprocal matrix with upper entries drawn from the Saaty scale."""
        m = np.ones((n, n))
        rows, cols = np.triu_indices(n, 1)
        m[rows, cols] = self.rng.choice(SAATY, rows.size)
        m[cols, rows] = 1.0 / m[rows, cols]
        doc = {"n": n, "mode": "multiplicative", "entries": m.tolist()}
        return self._json(name, n, doc)

    def vector_pair(self, name: str, n: int) -> str:
        u, v = self.rng.standard_normal((2, n))
        return self._json(name, n, {"u": u.tolist(), "v": v.tolist()})

    def two_vector(self, name: str, n: int) -> str:
        coords = self.rng.standard_normal(comb(n, 2))
        return self._json(name, n, {"n": n, "coords": coords.tolist()})

    def embedding(self, name: str, n: int) -> str:
        vectors = self.rng.standard_normal((n, n))
        return self._json(name, n, {"n": n, "vectors": vectors.tolist()})

    def _json(self, name: str, n: int, doc: dict) -> str:
        with open(self.workdir / name, "w") as fh:
            json.dump(doc, fh)
        return self._record(name, n)


def _req(label: str, kind: str, argv: list[str], **params) -> Request:
    """Request writing its report to ``out/<label>.<ext>`` via ``-o``."""
    ext = params.pop("ext", "json")
    output = f"out/{label}.{ext}"
    return Request(label, (*argv, "-o", output), output, kind, params)


def _reduce(label: str, path: str, n: int, eta_n: float | None = None,
            lam: float = 0.0, ext: str = "json", max_steps: int | None = None
            ) -> Request:
    argv = ["reduce", path]
    eta = None if eta_n is None else eta_n / n
    if eta is not None:
        argv += ["--eta", repr(eta)]
    if lam:
        argv += ["--lambda", repr(lam)]
    if max_steps is not None:
        argv += ["--max-steps", str(max_steps)]
    return _req(label, "reduce", argv, input=path, eta=eta, lam=lam, ext=ext)


def _triad_scan(f: _Inputs) -> list[Request]:
    a150 = f.additive_csv("a150.csv", 150)
    c150 = f.additive_csv("c150.csv", 150, consistent=True)
    m150 = f.saaty_json("m150.json", 150)
    return [
        _req("check-150", "check", ["check", a150], input=a150),
        _req("check-150-consistent", "check", ["check", c150], input=c150),
        _req("indices-150", "indices", ["indices", a150], input=a150),
        _req("indices-150-anticyclic", "indices",
             ["indices", a150, "--convention", "anticyclic"],
             input=a150, convention="anticyclic"),
        _reduce("reduce-150", a150, 150),
        _req("convert-150", "convert", ["convert", m150], input=m150),
    ]


def _descent(f: _Inputs) -> list[Request]:
    a100 = f.additive_csv("a100.csv", 100)
    a80 = f.additive_csv("a80.csv", 80)
    a60 = f.additive_csv("a60.csv", 60)
    return [
        _reduce("reduce-100", a100, 100, eta_n=0.2),
        _reduce("reduce-100-lambda", a100, 100, eta_n=0.5, lam=1.0,
                ext="jsonl"),
        _reduce("reduce-80", a80, 80, eta_n=0.2, ext="jsonl"),
        _reduce("reduce-60", a60, 60, eta_n=0.1, max_steps=400),
        _reduce("reduce-80-lambda", a80, 80, eta_n=0.2, lam=0.5, ext="csv"),
    ]


def _geometry(f: _Inputs) -> list[Request]:
    saaty = {n: f.saaty_json(f"m{n}.json", n) for n in (4, 9)}
    a30 = f.additive_csv("a30.csv", 30)
    c30 = f.additive_csv("c30.csv", 30, consistent=True)
    a40 = f.additive_csv("a40.csv", 40)
    a70 = f.additive_csv("a70.csv", 70)
    d20 = f.additive_csv("d20.csv", 20)
    uv30 = f.vector_pair("uv30.json", 30)
    uv40 = f.vector_pair("uv40.json", 40)
    p30 = f.two_vector("p30.json", 30)
    e30 = f.embedding("e30.json", 30)
    m9 = saaty[9]
    reqs = [
        _req(f"check-saaty-{n}", "check", ["check", path], input=path)
        for n, path in saaty.items()
    ]
    reqs += [
        _req("convert-saaty-9", "convert", ["convert", m9], input=m9),
        _req("indices-saaty-9", "indices", ["indices", m9], input=m9),
        _reduce("reduce-saaty-9", m9, 9),
        _req("deviations-30", "deviations", ["deviations", a30], input=a30),
        _req("wedge-40", "wedge", ["wedge", uv40], input=uv40),
        _req("plucker-uv-30", "plucker", ["plucker", uv30], input=uv30),
        _req("plucker-random-30", "plucker", ["plucker", p30], input=p30),
        _req("embed-30-planar", "embed", ["embed", a30], input=a30,
             embedding="planar"),
        _req("embed-30-custom", "embed",
             ["embed", a30, "--embedding", "custom", "--embedding-file", e30],
             input=a30, embedding="custom", embedding_file=e30),
        _req("indices-40-orthogonal", "indices",
             ["indices", a40, "--embedding", "orthogonal"],
             input=a40, embedding="orthogonal"),
        _req("indices-30-custom", "indices",
             ["indices", a30, "--embedding", "custom", "--embedding-file", e30],
             input=a30, embedding="custom", embedding_file=e30),
        _req("diagnose-20", "diagnose", ["diagnose", d20], input=d20, lam=0.0),
        _req("diagnose-20-lambda", "diagnose",
             ["diagnose", d20, "--lambda", "1.0"], input=d20, lam=1.0),
        _req("twoform-30-consistent", "twoform", ["twoform", c30], input=c30),
        _req("twoform-70", "twoform", ["twoform", a70], input=a70),
    ]
    return reqs


_BUILDERS = {"triad-scan": _triad_scan, "descent": _descent,
             "geometry": _geometry}


def build(workload: str, seed: int, workdir: Path) -> tuple[list[Request], list[dict]]:
    """Write the workload's inputs under ``workdir``; return its requests
    and the size record of every input file."""
    (workdir / "out").mkdir(parents=True, exist_ok=True)
    inputs = _Inputs(workdir, seed, WORKLOADS.index(workload))
    requests = _BUILDERS[workload](inputs)
    return requests, inputs.sizes
