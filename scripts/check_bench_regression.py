#!/usr/bin/env python3
"""Compare a fresh hotpath bench run against the checked-in baseline.

Usage:
    cargo bench -p rtds-bench --bench hotpath -- --quick --save-json /tmp/hotpath.json
    python3 scripts/check_bench_regression.py BENCH_hotpath.json /tmp/hotpath.json [FACTOR]
        [--append REV]

BENCH_hotpath.json is a trajectory: {"records": [{"rev": ..., "entries":
[...]}, ...]}, oldest first, one record per measured revision. Each entry
is a row as criterion's --save-json writes it ({"name", "ns_per_iter",
"min_ns", "max_ns"}). Either file may also be a bare list of rows (the
shape --save-json writes); a trajectory is compared through its last
record.

Fails (exit 1) if any benchmark present in both files is more than
FACTOR (default 2.0) slower than its baseline mean. A generous factor is
deliberate: CI runners are noisy and the guarded optimizations are all
well beyond 2x, so anything that trips this is a real regression, not
jitter. Benchmarks present in only one file are reported but never fatal,
so adding or retiring a bench does not require touching the baseline in
the same commit.

With --append REV the current run is added to the baseline file as a new
record {"rev": REV, "entries": [...]} after the comparison, whatever its
outcome; earlier records are kept. Record a new baseline (on a quiet
machine) with:
    cargo bench -p rtds-bench --bench hotpath -- --save-json /tmp/hotpath.json
    python3 scripts/check_bench_regression.py BENCH_hotpath.json /tmp/hotpath.json --append <rev>
"""

import json
import sys


def read(path):
    with open(path) as f:
        return json.load(f)


def latest_rows(doc):
    """The rows of a bare list, or of a trajectory's last record."""
    if isinstance(doc, dict):
        return doc["records"][-1]["entries"]
    return doc


def by_name(rows):
    return {row["name"]: row for row in rows}


def append_record(path, rev, rows):
    doc = read(path)
    records = doc["records"] if isinstance(doc, dict) else [{"rev": None, "entries": doc}]
    records.append({"rev": rev, "entries": rows})
    with open(path, "w") as f:
        f.write('{"records": [\n')
        for i, rec in enumerate(records):
            f.write(f'  {{"rev": {json.dumps(rec["rev"])}, "entries": [\n')
            lines = [f"    {json.dumps(row)}" for row in rec["entries"]]
            f.write(",\n".join(lines))
            f.write("\n  ]}" + ("," if i + 1 < len(records) else "") + "\n")
        f.write("]}\n")


def main(argv):
    args = list(argv[1:])
    append_rev = None
    if "--append" in args:
        i = args.index("--append")
        if i + 1 >= len(args):
            print("--append needs a revision label", file=sys.stderr)
            return 2
        append_rev = args[i + 1]
        del args[i : i + 2]
    if len(args) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    baseline_path, current_path = args[0], args[1]
    factor = float(args[2]) if len(args) > 2 else 2.0
    baseline = by_name(latest_rows(read(baseline_path)))
    current_rows = latest_rows(read(current_path))
    current = by_name(current_rows)

    failures = []
    print(f"{'benchmark':45} {'baseline':>12} {'current':>12} {'ratio':>7}")
    for name in sorted(baseline.keys() | current.keys()):
        if name not in baseline:
            print(f"{name:45} {'-':>12} {current[name]['ns_per_iter']:12.0f}   (new)")
            continue
        if name not in current:
            print(f"{name:45} {baseline[name]['ns_per_iter']:12.0f} {'-':>12}   (retired)")
            continue
        base_ns = baseline[name]["ns_per_iter"]
        cur_ns = current[name]["ns_per_iter"]
        ratio = cur_ns / base_ns if base_ns > 0 else float("inf")
        flag = "  FAIL" if ratio > factor else ""
        print(f"{name:45} {base_ns:12.0f} {cur_ns:12.0f} {ratio:6.2f}x{flag}")
        if ratio > factor:
            failures.append((name, ratio))

    if append_rev is not None:
        append_record(baseline_path, append_rev, current_rows)
        print(f"appended record {append_rev!r} to {baseline_path}")

    if failures:
        print(
            f"\n{len(failures)} benchmark(s) regressed more than {factor}x "
            f"against {baseline_path}",
            file=sys.stderr,
        )
        return 1
    print(f"\nok: no benchmark exceeded {factor}x of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
