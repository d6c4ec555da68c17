#!/usr/bin/env python3
"""Sample where a program spends its CPU time, by stack.

Usage:

    python3 scripts/sample_profile.py [--runs N] [--match RE]... \
        -- PROGRAM [ARGS...]

Builds scripts/sample_profile.c with gcc, runs PROGRAM N times (default
1; pooling runs gives more samples than one run's length allows) under it
with LD_PRELOAD, and resolves every sampled address with `addr2line -i`,
inlined frames included. Prints the 25 largest shares of samples:
inclusive (the function anywhere on the stack, counted once per sample),
leaf (the innermost function), and by the module holding the leaf (so
`libm.so.6` is libm's share). Each --match RE prints the share of samples
with a frame whose function matches RE. Build PROGRAM with frame pointers
(RUSTFLAGS="-C force-frame-pointers=yes") and debug info; needs only gcc
and addr2line.
"""

import argparse
import collections
import os
import re
import subprocess
import sys
import tempfile


def resolve(addrs):
    """Maps (module, link-time address) pairs to frame lists, innermost first."""
    names = {}
    by_module = collections.defaultdict(set)
    for mod, addr in addrs:
        by_module[mod].add(addr)
    for mod, offs in by_module.items():
        base = os.path.basename(mod)
        if not os.path.isfile(mod):  # [vdso] and the like
            names.update({(mod, off): [base] for off in offs})
            continue
        offs = sorted(offs)
        out = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", mod, *map(hex, offs)],
                             capture_output=True, text=True).stdout.splitlines()
        blocks = []  # per address: function, file:line, then its inlined callers'
        for line in out:
            if line.startswith("0x"):
                blocks.append([])
            else:
                blocks[-1].append(line)
        for off, block in zip(offs, blocks):
            names[(mod, off)] = [f if f != "??" else f"[{base}]" for f in block[0::2]] or [f"[{base}]"]
    return names


def linked_at_fixed_addresses(mod):
    """True for a non-PIE executable (ELF type ET_EXEC), which is not relocated."""
    with open(mod, "rb") as f:
        return f.read(18)[16:] == b"\x02\x00"


def read_samples(path):
    """One raw file's stacks, innermost first, as (module, link-time address)."""
    code, bias, samples = [], {}, []
    for line in open(path):
        kind, _, rest = line.partition(" ")
        if kind == "map":
            f = rest.split()
            if len(f) < 6:
                continue
            lo, hi = (int(x, 16) for x in f[0].split("-"))
            # A relocated module maps file offset 0 at its link address 0;
            # addr2line wants link addresses, which file offsets are not.
            if int(f[2], 16) == 0 and f[5] not in bias:
                fixed = os.path.isfile(f[5]) and linked_at_fixed_addresses(f[5])
                bias[f[5]] = 0 if fixed else lo
            if "x" in f[1]:
                code.append((lo, hi, f[5]))
        elif kind == "sample":
            samples.append([int(x, 16) for x in rest.split()])

    def where(a):
        for lo, hi, mod in code:
            if lo <= a < hi:
                return mod, a - bias.get(mod, 0)
        return None

    exe = code[0][2] if code else None  # the lowest code mapping
    out = []
    for pc, ret, *chain in samples:
        leaf = where(pc)
        if leaf is None:
            continue
        stack = [leaf]
        # The leaf's return address counts when the leaf sits in a module
        # built without frame pointers, i.e. outside the sampled program.
        r = where(ret - 1) if ret else None
        if r and leaf[0] != exe and r[0] == exe:
            stack.append(r)
        stack += [w for w in (where(a - 1) for a in chain) if w]
        out.append(stack)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--match", action="append", default=[])
    ap.add_argument("cmd", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cmd = args.cmd[1:] if args.cmd[:1] == ["--"] else args.cmd
    if not cmd:
        ap.error("no program to run")
    here = os.path.dirname(os.path.abspath(__file__))
    stacks = []
    with tempfile.TemporaryDirectory() as tmp:
        so = os.path.join(tmp, "sample_profile.so")
        subprocess.run(["gcc", "-O2", "-shared", "-fPIC", "-o", so,
                        os.path.join(here, "sample_profile.c")], check=True)
        for _ in range(args.runs):
            p = subprocess.Popen(cmd, env=dict(os.environ, LD_PRELOAD=so), stdout=subprocess.DEVNULL)
            if p.wait() != 0:
                sys.exit(f"sample_profile: {cmd[0]} exited {p.returncode}")
            raw = f"sample_profile.{p.pid}.txt"
            stacks += read_samples(raw)
            os.remove(raw)
    names = resolve({a for s in stacks for a in s})
    incl, leaf, mods = collections.Counter(), collections.Counter(), collections.Counter()
    for s in stacks:
        frames = [f for a in s for f in names[a]]
        incl.update(set(frames))
        leaf[frames[0]] += 1
        mods[os.path.basename(s[0][0])] += 1
    n = len(stacks)
    print(f"{n} samples over {args.runs} run(s)")
    for title, c in (("inclusive", incl), ("leaf", leaf), ("leaf module", mods)):
        print(f"\n{title}:")
        for name, k in c.most_common(25):
            print(f"{100 * k / n:6.2f} %  {name}")
    for pat in args.match:
        rx = re.compile(pat)
        k = sum(any(rx.search(f) for a in s for f in names[a]) for s in stacks)
        print(f"\nmatch {pat!r}: {100 * k / n:.2f} % of samples")


if __name__ == "__main__":
    main()
