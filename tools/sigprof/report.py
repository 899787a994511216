#!/usr/bin/env python3
"""Symbolises a tools/sigprof/sigprof.c dump.

    python3 tools/sigprof/report.py /root/scratch/prof.<pid> benchmark/target/release/punct-benchmark [thread-prefix]

Prints the share of samples per thread name, then — over all threads, or
over those whose name starts with `thread-prefix` — the share per
innermost frame under `crates/`, top 40 (addr2line's inlined chain is
searched from the inside out; samples outside the binary are grouped by
the library they fell in). The binary must be the one that ran, with
debuginfo (the benchmark's release profile keeps it).
"""
import collections
import os
import subprocess
import sys

dump, binary = sys.argv[1], os.path.realpath(sys.argv[2])
prefix = sys.argv[3] if len(sys.argv) > 3 else ""

maps, samples = [], []
for line in open(dump):
    kind, rest = line[0], line[2:].rstrip("\n")
    if kind == "M":
        fields = rest.split()
        lo, hi = (int(x, 16) for x in fields[0].split("-"))
        maps.append((lo, hi, fields[5] if len(fields) > 5 else "[anon]"))
    else:
        name, pc = rest.split("\t")
        samples.append((name, int(pc, 16)))


# A position-independent object's addresses count from its lowest mapping.
base = {}
for lo, _, path in maps:
    base[path] = min(lo, base.get(path, lo))


def locate(pc):
    for lo, hi, path in maps:
        if lo <= pc < hi:
            return path, pc - base[path]
    return "[unmapped]", pc


located = [(name, *locate(pc)) for name, pc in samples]
wanted = sorted({off for _, path, off in located if os.path.realpath(path) == binary})
out = subprocess.run(
    ["addr2line", "-a", "-f", "-i", "-C", "-e", binary],
    input="\n".join(hex(a) for a in wanted), capture_output=True, text=True, check=True,
).stdout.splitlines()

# Per address: "0x<addr>", then (function, file:line) pairs, innermost first.
frames, addr = {}, None
it = iter(out)
for line in it:
    if line.startswith("0x") and " " not in line:
        addr = int(line, 16)
        frames[addr] = []
    else:
        frames[addr].append((line, next(it)))


def label(path, off):
    if os.path.realpath(path) != binary:
        return "[" + os.path.basename(path) + "]"
    chain = frames.get(off, [])
    for func, where in chain:
        if "/crates/" in where or where.startswith("crates/"):
            where = where.split(" (discriminator")[0]
            return "crates/" + where.split("crates/", 1)[1] + "  " + func
    return "[outside crates/] " + (chain[-1][0] if chain else "??")


threads = collections.Counter(name for name, _, _ in located)
print(f"{len(located)} samples")
for name, n in threads.most_common():
    print(f"  {100 * n / len(located):5.1f} %  {name}")
chosen = [(p, o) for name, p, o in located if name.startswith(prefix)]
print(f"\ninnermost frame under crates/, threads '{prefix}*' ({len(chosen)} samples):")
top = collections.Counter(label(p, o) for p, o in chosen).most_common(40)
print("\n".join(f"  {100 * n / len(chosen):5.1f} %  {key}" for key, n in top))
