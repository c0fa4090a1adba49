#!/usr/bin/env python3
"""Sort every ndv library function by the kind of binary that keeps it.

The linker decides what a binary needs. This script builds the whole tree
(tools, tests, benches, examples, fuzz harnesses) and perfbench/ in Debug at
-O0, so nothing is inlined away, with one section per function and
--gc-sections, so a binary holds exactly the library functions it can reach.
It then sorts every strong (T) `ndv::` function of the libndv_*.a archives
into four lists:

  product      kept by a product binary (tools/ndv_cli, ndv_pack, ndv_crash,
               perfbench's ndv_perfbench)
  bench-only   kept by no product binary, but by a bench or an example
  test-only    kept only by tests or fuzz harnesses
  unused       kept by no binary at all

It prints the counts, then the bench-only, test-only and unused lists, each
name beside the source file that defines it. The exit status is 1 when some
function is unused, 0 otherwise: the bench-only and test-only lists are for
review, not a gate (reference implementations and test-input generators
belong on them).

Usage:
  tools/product_path_audit.py [--build-dir build-audit] [-j N]
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FLAGS = [
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]

PRODUCT_TOOLS = ("ndv_cli", "ndv_pack", "ndv_crash")


def run(cmd):
    print("+ " + " ".join(str(c) for c in cmd), file=sys.stderr, flush=True)
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)


def build(build_dir, jobs):
    tree = build_dir / "tree"
    bench = build_dir / "perfbench"
    run(["cmake", "-S", ROOT, "-B", tree, "-DNDV_FUZZ=ON", *FLAGS])
    run(["cmake", "--build", tree, "-j", str(jobs)])
    run(["cmake", "-S", ROOT / "perfbench", "-B", bench, *FLAGS])
    run(["cmake", "--build", bench, "-j", str(jobs),
         "--target", "ndv_perfbench"])
    return tree, bench


def nm(path):
    """Yields (object file, symbol type, mangled name) of defined symbols."""
    out = subprocess.run(["nm", "-A", "--defined-only", str(path)],
                         check=True, capture_output=True, text=True).stdout
    for line in out.splitlines():
        fields = line.split()
        if len(fields) == 3:
            # "archive.a:member.o:address" for archives, "binary:address".
            location = fields[0].rpartition(":")[0]
            yield location.rpartition(":")[2], fields[1], fields[2]


def demangle(names):
    out = subprocess.run(["c++filt"], input="\n".join(names), check=True,
                         capture_output=True, text=True).stdout
    return dict(zip(names, out.splitlines()))


def library_functions(tree):
    """Mangled name -> (source file, demangled name) of each T ndv:: symbol."""
    found = {}
    for archive in sorted((tree / "src").rglob("libndv_*.a")):
        source_dir = archive.parent.relative_to(tree)
        for member, kind, name in nm(archive):
            if kind == "T":
                found[name] = str(source_dir / member.removesuffix(".o"))
    names = demangle(sorted(found))
    return {m: (found[m], d) for m, d in names.items()
            if d.startswith("ndv::")}


def executables(directory):
    for path in sorted(directory.rglob("*")):
        if ("CMakeFiles" in path.parts or not path.is_file()
                or not os.access(path, os.X_OK)):
            continue
        with open(path, "rb") as f:
            if f.read(4) == b"\x7fELF":
                yield path


def kept_by(binaries, wanted):
    kept = set()
    for binary in binaries:
        kept.update(n for _, _, n in nm(binary) if n in wanted)
    return kept


def report(title, names, functions):
    print(f"\n== {title}: {len(names)} ==")
    for name in sorted(names, key=lambda n: functions[n]):
        obj, pretty = functions[name]
        print(f"  {obj:<28} {pretty}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default=str(ROOT / "build-audit"))
    parser.add_argument("-j", "--jobs", type=int, default=os.cpu_count() or 1)
    args = parser.parse_args()

    tree, bench = build(Path(args.build_dir).resolve(), args.jobs)
    functions = library_functions(tree)

    product_bins = [tree / "tools" / t for t in PRODUCT_TOOLS]
    product_bins.append(bench / "ndv_perfbench")
    bench_bins = [*executables(tree / "bench"), *executables(tree / "examples")]
    test_bins = [*executables(tree / "tests"), *executables(tree / "fuzz")]
    for path in product_bins:
        if not path.exists():
            sys.exit(f"missing product binary {path}")

    product = kept_by(product_bins, functions)
    benches = kept_by(bench_bins, functions) - product
    tests = kept_by(test_bins, functions) - product - benches
    unused = set(functions) - product - benches - tests

    print(f"ndv:: library functions: {len(functions)}")
    print(f"  product:    {len(product)}")
    print(f"  bench-only: {len(benches)}")
    print(f"  test-only:  {len(tests)}")
    print(f"  unused:     {len(unused)}")
    report("kept by benches or examples, no product binary", benches, functions)
    report("kept only by tests or fuzz harnesses", tests, functions)
    report("kept by no binary", unused, functions)
    return 1 if unused else 0


if __name__ == "__main__":
    sys.exit(main())
