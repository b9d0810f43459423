#!/usr/bin/env python3
"""Compare scan-to-dashboard benchmark results (the benchmark's bench_diff).

Each run of the benchmark appends one JSON line per run to
``target/e2e_bench/results/<workload>.jsonl``. Move those files aside
between the two versions under test, then:

    python3 e2e_bench/compare.py BEFORE AFTER   # two result sets
    python3 e2e_bench/compare.py RESULTS         # one set: is it steady?

A result set is a directory of ``*.jsonl`` files or a single file.

For every workload and metric this prints the median and the spread
(interquartile range as a share of the median, quartiles as
``statistics.quantiles(values, n=4)`` gives them). Metrics that
``BENCHMARK.json`` bounds are judged against their bound:

- ``REGRESSED`` / ``improved``: the median moved beyond the bound;
- ``unresolved``: a side's spread is wider than the bound, so a move of
  that size cannot be told from noise (unless every run of one side
  beats every run of the other);
- with one set, ``STEADY`` means the spread is below a third of the
  bound, ``noisy`` that it is not.

The exit code is 1 when any bounded metric regressed, else 0.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """{(workload, trace): {metric: [values]}} from a result set."""
    p = Path(path)
    files = sorted(p.glob("*.jsonl")) if p.is_dir() else [p]
    out = defaultdict(lambda: defaultdict(list))
    for f in files:
        for line in f.read_text().splitlines():
            line = line.strip()
            if not line.startswith("{"):
                continue
            rec = json.loads(line)
            if "workload" not in rec:
                continue
            key = (rec["workload"], rec.get("trace", 0))
            for name, m in rec["metrics"].items():
                if m["value"] is not None:
                    out[key][name].append(float(m["value"]))
    return out


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, spread


def bounds():
    try:
        spec = json.loads(BENCHMARK.read_text())
    except (OSError, ValueError):
        return {}
    return {m["name"]: m for m in spec.get("end_to_end", [])}


def verdict(metric, a, b):
    bound = metric["bound"]
    lower = metric["better"] == "lower"
    (ma, sa), (mb, sb) = summary(a), summary(b)
    worse = (mb - ma) / abs(ma) if ma else 0.0
    if not lower:
        worse = -worse
    separated = max(b) < min(a) if lower else min(b) > max(a)
    if worse > bound:
        return "REGRESSED"
    if max(sa, sb) > bound and not separated:
        return "unresolved"
    if worse < -bound:
        return "improved"
    return "ok"


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    sets = [load(p) for p in argv[1:]]
    known = bounds()
    regressed = False
    keys = sorted(set().union(*[s.keys() for s in sets]))
    for workload, trace in keys:
        print(f"\n{workload} (trace {trace})")
        names = sorted(set().union(*[s.get((workload, trace), {}).keys() for s in sets]),
                       key=lambda n: (n not in known, n))
        for name in names:
            cols = [s.get((workload, trace), {}).get(name, []) for s in sets]
            if not all(cols):
                continue
            cells = []
            for vals in cols:
                med, spread = summary(vals)
                cells.append(f"{med:14.4f} ±{spread:6.1%} (n={len(vals)})")
            note = ""
            m = known.get(name)
            if m and len(cols) == 2:
                note = verdict(m, cols[0], cols[1])
                regressed |= note == "REGRESSED"
                change = summary(cols[1])[0] / summary(cols[0])[0] - 1 if summary(cols[0])[0] else 0
                note = f"{change:+7.1%} {note} (bound {m['bound']:.0%})"
            elif m:
                spread = summary(cols[0])[1]
                note = f"{'STEADY' if spread < m['bound'] / 3 else 'noisy'} (bound {m['bound']:.0%})"
            print(f"  {name:34} " + " | ".join(cells) + f"  {note}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
