#!/usr/bin/env bash
# A document of 10^4 or more array floats takes their text from orjson;
# each report must still be the bytes json.dumps (or csv.writer) writes
# for it, on this Python and numpy. deviations at n=41 writes 10660
# floats (and 31980 integer labels), plucker of u ^ v at n=30 137025
# (residuals near 1e-16, which orjson lays out as repr does), custom
# embed at n=30 189225. plucker of a random 2-vector at n=30 scaled by
# 2e-5 writes 27405 residuals, about 13% of them at or above 1e-9, where
# orjson's layout leaves repr's, and the rest below. convert of a
# multiplicative n=150 matrix (as JSON and as CSV) and reduce --format csv
# at n=150 write additive matrices of 150^2 = 22500 floats, the rows of
# to_array().
#
# Run from the repository root: bash .github/scripts/check-large-report-bytes.sh
set -euo pipefail

python -c "import json, numpy as np; rng = np.random.default_rng(41); s = rng.normal(size=41); e = np.triu(rng.normal(scale=0.3, size=(41, 41)), 1); np.savetxt('large-41.csv', np.subtract.outer(s, s) + e - e.T, delimiter=',', fmt='%.17g'); rng = np.random.default_rng(30); json.dump({'u': rng.normal(size=30).tolist(), 'v': rng.normal(size=30).tolist()}, open('large-uv-30.json', 'w')); s = rng.normal(size=30); np.savetxt('large-30.csv', np.subtract.outer(s, s), delimiter=',', fmt='%.17g'); json.dump({'n': 30, 'vectors': rng.normal(size=(30, 30)).tolist()}, open('large-e30.json', 'w')); rng = np.random.default_rng(150); s = rng.normal(size=150); e = np.triu(rng.normal(scale=0.3, size=(150, 150)), 1); a = np.subtract.outer(s, s) + e - e.T; np.savetxt('large-150.csv', a, delimiter=',', fmt='%.17g'); np.savetxt('large-m150.csv', np.exp(a), delimiter=',', fmt='%.17g'); json.dump({'n': 30, 'coords': (np.random.default_rng(435).normal(size=435) * 2e-5).tolist()}, open('large-p30.json', 'w'))"
PYTHONPATH=src python -m pcgeom deviations large-41.csv -o large-deviations-41.json
PYTHONPATH=src python -m pcgeom plucker large-uv-30.json -o large-plucker-30.json
PYTHONPATH=src python -m pcgeom plucker large-p30.json -o large-plucker-p30.json
PYTHONPATH=src python -m pcgeom embed large-30.csv --embedding custom --embedding-file large-e30.json -o large-embed-30.json
PYTHONPATH=src python -m pcgeom convert large-m150.csv --mode multiplicative -o large-convert-150.json
PYTHONPATH=src python -m pcgeom convert large-m150.csv --mode multiplicative --format csv -o large-convert-150.csv
PYTHONPATH=src python -m pcgeom reduce large-150.csv --format csv -o large-reduce-150.csv
for f in large-deviations-41.json large-plucker-30.json large-plucker-p30.json large-embed-30.json large-convert-150.json; do
  python -c "import json, sys; t = open(sys.argv[1]).read(); assert json.dumps(json.loads(t)) + '\n' == t, sys.argv[1]" "$f"
done
for f in large-reduce-150.csv large-convert-150.csv; do
  python -c "import csv, io, sys; t = open(sys.argv[1], newline='').read(); b = io.StringIO(); csv.writer(b).writerows([repr(float(x)) for x in r] for r in csv.reader(io.StringIO(t))); assert b.getvalue() == t and t.count('\n') == 150, sys.argv[1]" "$f"
done
