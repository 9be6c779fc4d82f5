#!/usr/bin/env python3
"""Charge the samples of tools/sampler.cpp to simulator modules.

    python3 tools/sampler_report.py run.samples [--functions N]
        [--json out.json] [--root TREE] [--setup]

Only samples with a frame in perfbench::Play, perfbench's measured phase,
count; with --setup only the others do (each repetition's setup and the
checks after its phase, and start-up).  Each is charged to the
src/<module>/ directory of its innermost simulator frame, taking the
innermost inlined frame that addr2line -i gives (standard-library code
inlined into a simulator function counts for that function).  A leaf
outside the main executable, such as memcpy or malloc, is charged to the
caller the sampler found for it.  A sample whose innermost repository
frame lies in perfbench/ is charged to "benchmark"; one with no repository
frame to "other".  The table gives each row's samples and its share of
those counted.
--functions N also lists the N innermost simulator functions with the most
samples.
"""
import argparse
import bisect
import collections
import functools
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PHASE = "perfbench::Play"


def load(path):
    maps, stacks, section = [], [], None
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line in ("maps", "stacks"):
                section = line
            elif section == "maps":
                fields = line.split()
                if len(fields) >= 6 and fields[5].startswith("/"):
                    lo, hi = (int(x, 16) for x in fields[0].split("-"))
                    maps.append((lo, hi, int(fields[2], 16), fields[5]))
            elif section == "stacks" and line:
                stacks.append([int(x, 16) for x in line.split()])
    return maps, stacks


@functools.lru_cache(maxsize=None)
def elf_is_exec(path):
    with open(path, "rb") as f:
        header = f.read(18)
    return header[16] == 2  # ET_EXEC: its addresses are not relocated


class Layout:
    """Maps a process address to (object file, address in that file)."""

    def __init__(self, maps):
        self.maps = sorted(maps)
        self.starts = [m[0] for m in self.maps]

    @functools.lru_cache(maxsize=None)
    def locate(self, addr):
        i = bisect.bisect_right(self.starts, addr) - 1
        if i < 0 or addr >= self.maps[i][1]:
            return None, None
        lo, _, offset, path = self.maps[i]
        return path, addr if elf_is_exec(path) else addr - lo + offset


def symbolize(by_object):
    """{object: {elf address}} -> {(object, address): [(function, file)]},
    innermost inlined frame first."""
    frames = {}
    for obj, addrs in by_object.items():
        addrs = sorted(addrs)
        query = "".join("%x\n" % a for a in addrs)
        out = subprocess.run(["addr2line", "-a", "-i", "-f", "-C", "-e", obj],
                             input=query, capture_output=True, text=True,
                             check=False).stdout.splitlines()
        current = None
        pending = None
        for line in out:
            if line.startswith("0x") and pending is None:
                current = (obj, int(line, 16))
                frames[current] = []
            elif pending is None:
                pending = line
            else:
                frames[current].append((pending, line.rsplit(":", 1)[0]))
                pending = None
    return frames


def repo_area(source, root):
    """'src/<module>' or 'perfbench' for a repository source file."""
    source = os.path.normpath(source)
    if not source.startswith(root + os.sep):
        return None
    parts = os.path.relpath(source, root).split(os.sep)
    if parts[0] == "src" and len(parts) > 2:
        return "src/" + parts[1]
    if parts[0] == "perfbench":
        return "perfbench"
    return None


def short_name(function):
    """A demangled name without its parameter list."""
    depth = 0
    for i, c in enumerate(function):
        if c in "<(":
            if c == "(" and depth == 0 and i > 0 and not function.endswith(
                    "operator", 0, i):
                return function[:i]
            depth += 1
        elif c in ">)":
            depth -= 1
    return function


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("samples")
    parser.add_argument("--functions", type=int, default=0)
    parser.add_argument("--json")
    parser.add_argument("--root", default=ROOT,
                        help="source tree the binary was built from")
    parser.add_argument("--setup", action="store_true",
                        help="count the samples outside " + PHASE)
    args = parser.parse_args()
    root = os.path.abspath(args.root)

    maps, stacks = load(args.samples)
    layout = Layout(maps)
    located = []
    by_object = collections.defaultdict(set)
    for stack in stacks:
        frames = []
        for depth, addr in enumerate(stack):
            obj, elf_addr = layout.locate(addr)
            if obj is None:  # includes depth 1's 0: no separate leaf caller
                continue
            # Return addresses point past the call: look up the call itself.
            elf_addr -= 0 if depth == 0 else 1
            by_object[obj].add(elf_addr)
            frames.append((obj, elf_addr))
        located.append(frames)
    symbols = symbolize(by_object)

    rows = collections.Counter()
    functions = collections.Counter()
    in_phase = counted = 0
    for frames in located:
        expanded = [f for key in frames for f in symbols.get(key, [])]
        phase = any(fn.startswith(PHASE + "(") for fn, _ in expanded)
        in_phase += phase
        if phase == args.setup:
            continue
        counted += 1
        row, where = "other", None
        for fn, source in expanded:
            area = repo_area(source, root)
            if area is not None:
                row = "benchmark" if area == "perfbench" else area
                where = fn
                break
        rows[row] += 1
        if where is not None and row != "benchmark":
            functions[short_name(where)] += 1

    total = len(stacks)
    scope = "setup" if args.setup else "phase"
    print("samples %d, in %s %d" % (total, PHASE, in_phase))
    print("| row | samples | %% of %s |\n|---|---|---|" % scope)
    for row, n in rows.most_common():
        print("| %s | %d | %.1f |" % (row, n, 100.0 * n / max(counted, 1)))
    if args.functions:
        print("\n| innermost simulator function | samples | %% of %s |"
              % scope)
        print("|---|---|---|")
        for fn, n in functions.most_common(args.functions):
            print("| `%s` | %d | %.1f |"
                  % (fn, n, 100.0 * n / max(counted, 1)))
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"samples": total, "phase": PHASE,
                       "phase_samples": in_phase, "scope": scope,
                       "rows": dict(rows),
                       "functions": dict(functions.most_common(50))},
                      f, indent=1, sort_keys=True)
    return 0 if counted > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
