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

Every run carries a reference row, hotpath/reference_kernel: a fixed
kernel that uses none of the workspace's code, so it times only the host.
Runs since the bench gained it also time the kernel again as the last row,
hotpath/reference_kernel_end. Each other row is compared as a ratio to its
own run's reference time:

    normalized = (cur / cur_ref) / (base / base_ref)

where a side's reference time is the mean of its two reference rows when
both sides have both, and its reference_kernel row otherwise, so one slow
reference sample cannot loosen the bound. The reference rows are printed
but not gated.

A slower or busier host slows a row and the reference alike, so the
normalized ratio is about 1 on any host, while the raw ratio cur / base
is printed for information only. Fails (exit 1) if any row present in
both files has a normalized ratio above FACTOR (default 2.0). A generous
factor is deliberate: the host's load can shift between the reference row
and a later row, and the guarded optimizations are all well beyond 2x, so
anything that trips this is a real regression, not jitter. Rows present in
only one file are reported but never fatal, so adding or retiring a bench
does not require touching the baseline in the same commit.

Exits 2 if either side has no reference row. A baseline without one is
fixed by recording a new baseline: run the full bench (no --quick, no
filter) and append it as a new record with --append REV. With --append
the current run is added to the baseline file as a new record {"rev": REV,
"entries": [...]} after the comparison, whatever its outcome; earlier
records are kept, and a baseline without a reference row is then not an
error (there is nothing to compare against yet). Record a new baseline
(on a quiet machine) with:
    cargo bench -p rtds-bench --bench hotpath -- --save-json /tmp/hotpath.json
    python3 scripts/check_bench_regression.py BENCH_hotpath.json /tmp/hotpath.json --append <rev>
"""

import json
import sys

REFERENCE = "hotpath/reference_kernel"
REFERENCE_END = "hotpath/reference_kernel_end"

RECORD_HINT = (
    "record a baseline with a reference row:\n"
    "    cargo bench -p rtds-bench --bench hotpath -- --save-json /tmp/hotpath.json\n"
    "    python3 scripts/check_bench_regression.py BENCH_hotpath.json /tmp/hotpath.json --append <rev>"
)


def read(path):
    with open(path) as f:
        return json.load(f)


def latest_rows(doc):
    """The rows of a bare list, or of a trajectory's last record."""
    if isinstance(doc, dict):
        return doc["records"][-1]["entries"]
    return doc


def by_name(rows):
    return {row["name"]: row["ns_per_iter"] for row in rows}


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


def reference_times(baseline, current):
    """Each side's reference time: the mean of both reference rows when
    both sides have both, otherwise the first reference row."""
    if all(REFERENCE_END in side for side in (baseline, current)):
        return tuple((side[REFERENCE] + side[REFERENCE_END]) / 2 for side in (baseline, current))
    return baseline[REFERENCE], current[REFERENCE]


def compare(baseline, current, factor):
    """Prints the table; returns the names of rows above `factor`."""
    base_ref, cur_ref = reference_times(baseline, current)
    both = REFERENCE_END in baseline and REFERENCE_END in current
    print(f"normalized by {'the mean of both reference rows' if both else REFERENCE}")
    failures = []
    print(f"{'benchmark':45} {'baseline':>12} {'current':>12} {'raw':>7} {'norm':>7}")
    for name in sorted(baseline.keys() | current.keys()):
        if name not in baseline:
            print(f"{name:45} {'-':>12} {current[name]:12.0f}   (new)")
            continue
        if name not in current:
            print(f"{name:45} {baseline[name]:12.0f} {'-':>12}   (retired)")
            continue
        base, cur = baseline[name], current[name]
        raw = cur / base if base > 0 else float("inf")
        norm = raw * base_ref / cur_ref
        gated = name not in (REFERENCE, REFERENCE_END)
        flag = "  FAIL" if gated and norm > factor else "" if gated else "  (reference)"
        print(f"{name:45} {base:12.0f} {cur:12.0f} {raw:6.2f}x {norm:6.2f}x{flag}")
        if gated and norm > factor:
            failures.append(name)
    return failures


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

    if REFERENCE not in current:
        print(f"{current_path} has no {REFERENCE} row; run the hotpath bench without a filter",
              file=sys.stderr)
        return 2
    if REFERENCE in baseline:
        failures = compare(baseline, current, factor)
    elif append_rev is not None:
        print(f"{baseline_path}: last record has no {REFERENCE} row; appending without a comparison")
        failures = []
    else:
        print(f"{baseline_path}: last record has no {REFERENCE} row; {RECORD_HINT}", file=sys.stderr)
        return 2

    if append_rev is not None:
        append_record(baseline_path, append_rev, current_rows)
        print(f"appended record {append_rev!r} to {baseline_path}")

    if failures:
        print(
            f"\n{len(failures)} benchmark(s) regressed more than {factor}x "
            f"(normalized to the reference kernel) against {baseline_path}",
            file=sys.stderr,
        )
        return 1
    print(f"\nok: no benchmark exceeded {factor}x of baseline, normalized to the reference kernel")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
