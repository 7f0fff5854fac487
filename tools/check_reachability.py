#!/usr/bin/env python3
"""Fails when libgrgad holds a function that no product binary reaches.

Usage: check_reachability.py BUILD_DIR

Configures BUILD_DIR from grgadbench/ (whose CMakeLists.txt pulls in the
root project, so the benchmark's in-process tool is built with the rest),
compiled with `-O0 -fno-inline -ffunction-sections -fdata-sections` and
linked with `-Wl,--gc-sections`; builds every product binary; then
compares symbols. CONFIGURE_FLAGS below are the whole procedure: CI and
the docs call this script and nothing else.

A product binary is an executable target that links libgrgad and not
grgad_reference: the `grgad` CLI, the bench/ tables and figures, the
examples and grgadbench's `grgad_bench_tool`. Tests and micro_benchmarks
link the reference oracles and are not product. The targets and their
file names come from CMake's file API (codemodel-v2), not from naming
rules.

At -O0 without inlining every call stays a call, and --gc-sections drops
each function section nothing reachable refers to. -fdata-sections gives
each function's switch jump table its own section too; in a shared .rodata
a dead function's table would keep every case it calls alive. So a strong
function symbol (ELF FUNC, binding GLOBAL or LOCAL) of the project's
namespace in libgrgad.a that no product binary keeps is code only tests
reach. Header templates and inline functions are WEAK and are not counted.

Global symbols are matched by name (one definition each). Local symbols
(`static` functions, anonymous-namespace helpers, their template
instantiations) share a mangled name across files, so they are matched by
(source file, name): a linked binary lists each input's locals after that
input's FILE symbol. Example: if a.cc and b.cc each define
`namespace { int Clamp(int); }`, a product that keeps a.cc's copy does not
hide b.cc's unreached copy; it is reported as `b.cc: (anonymous
namespace)::Clamp(int)`.

Each unreached function is named (demangled) and the script exits 1,
unless it matches ALLOWLIST: test hooks that read state the product
maintains, and oracles that cannot move to tests/reference/ without
exposing a template.
"""
import fnmatch
import glob
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CONFIGURE_FLAGS = [
    "-DCMAKE_BUILD_TYPE=None",
    "-DGRGAD_NATIVE_ARCH=OFF",
    "-DCMAKE_CXX_FLAGS=-O0 -fno-inline -ffunction-sections -fdata-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]

# (fnmatch pattern over the source file, pattern over the demangled name,
#  why a caller outside the product is fine).
ALLOWLIST = [
    ("*", "grgad::*::Validate() const",
     "structural invariant check of a product data structure"),
    ("*", "grgad::*::ApproxEquals(*) const", "tolerance compare used by tests"),
    ("*", "grgad::*::ToString*(*) const", "debug rendering for test messages"),
    ("fault.cc", "grgad::FaultInjector::checked_count() const",
     "counters of the product's fault points"),
    ("fault.cc", "grgad::FaultInjector::fired_count() const",
     "counters of the product's fault points"),
    ("fault.cc", "grgad::FaultInjector::ResetCounters()",
     "counters of the product's fault points"),
    ("fault.cc", "grgad::FaultInjector::enabled() const",
     "state of the product's fault points"),
    ("fault.cc", "grgad::FaultInjector::Disable()",
     "test teardown of the product's fault points"),
    ("fault.cc", "grgad::FaultInjector::KnownPoints*()",
     "lists the product's fault points for the sweep tests"),
    ("arena.cc", "grgad::MatrixArena::outstanding() const", "arena statistics"),
    ("arena.cc", "grgad::MatrixArena::free_buffers() const",
     "arena statistics"),
    ("arena.cc", "grgad::MatrixArena::budget_exhausted() const",
     "arena statistics"),
    ("arena.cc", "grgad::MatrixArena::ResetStats()", "arena statistics"),
    ("neighbor_index.cc", "grgad::internal::DistanceSweeps()",
     "counts the product's distance sweeps"),
    ("neighbor_index.cc", "grgad::internal::ResetDistanceSweeps()",
     "counts the product's distance sweeps"),
    ("pattern_search.cc", "*(grgad::Graph const&*",
     "Graph-typed oracle for the view path (template shared with it)"),
    ("augmentations.cc", "*(grgad::Graph const&*",
     "Graph-typed oracle for the view path (template shared with it)"),
]


# Only functions that involve the project's namespace are counted (the
# Itanium mangling of `grgad`). libstdc++'s `static inline` helpers
# (`__gthread_mutex_lock`, ...) are emitted as locals into every file that
# includes them and called from weak inline functions such as
# std::mutex::lock; the linker keeps one file's weak copy, so the other
# files' helper copies are dropped although nothing of the project's is
# unreached.
GRGAD = "5grgad"


def run(cmd, **kwargs):
    return subprocess.run(cmd, check=True, **kwargs)


def configure(build_dir):
    query = os.path.join(build_dir, ".cmake", "api", "v1", "query")
    os.makedirs(query, exist_ok=True)
    open(os.path.join(query, "codemodel-v2"), "w").close()
    run(["cmake", "-S", os.path.join(ROOT, "grgadbench"), "-B", build_dir]
        + CONFIGURE_FLAGS, stdout=subprocess.DEVNULL)


def product_targets(build_dir):
    """{target name: binary path} of the product executables, and the path
    of libgrgad.a, read from the codemodel reply of the last configure."""
    reply = os.path.join(build_dir, ".cmake", "api", "v1", "reply")

    def load(name):
        with open(os.path.join(reply, name)) as f:
            return json.load(f)

    index = max(glob.glob(os.path.join(reply, "index-*.json")))
    codemodel = next(o for o in load(index)["objects"]
                     if o["kind"] == "codemodel")
    config = load(codemodel["jsonFile"])["configurations"][0]
    targets = [load(t["jsonFile"]) for t in config["targets"]]
    ids = {t["name"]: t["id"] for t in targets}
    artifact = {t["name"]: os.path.join(build_dir, t["artifacts"][0]["path"])
                for t in targets if t.get("artifacts")}
    products = {}
    for t in targets:
        deps = {d["id"] for d in t.get("dependencies", [])}
        if (t["type"] == "EXECUTABLE" and ids["grgad"] in deps
                and ids["grgad_reference"] not in deps):
            products[t["name"]] = artifact[t["name"]]
    return products, artifact["grgad"]


def function_symbols(path):
    """Strong function symbols of an ELF file or archive: {global name:
    source file}, a set of (source file, name) locals, and the list of
    source files. Locals are keyed by the FILE symbol they follow, so
    same-named helpers of different files stay apart."""
    out = subprocess.run(["readelf", "-sW", path], check=True,
                         capture_output=True, text=True).stdout
    globals_, locals_, sources = {}, set(), []
    in_symtab = False
    source = None
    for line in out.splitlines():
        if line.startswith("File: "):
            source = None
            continue
        if line.startswith("Symbol table "):
            in_symtab = "'.symtab'" in line
            continue
        fields = line.split()
        if not in_symtab or len(fields) < 8 or not fields[0].endswith(":"):
            continue
        kind, bind, ndx, name = fields[3], fields[4], fields[6], fields[7]
        if kind == "FILE":
            source = name
            sources.append(name)
        elif kind == "FUNC" and ndx != "UND" and GRGAD in name:
            if bind == "GLOBAL":
                globals_[name] = source
            elif bind == "LOCAL":
                locals_.add((source, name))
    return globals_, locals_, sources


def demangle(symbols):
    out = subprocess.run(["c++filt"], input="\n".join(symbols), check=True,
                         capture_output=True, text=True).stdout
    return out.splitlines()


def main(build_dir):
    configure(build_dir)
    products, library = product_targets(build_dir)
    run(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
         "--target"] + sorted(products), stdout=subprocess.DEVNULL)

    lib_globals, lib_locals, sources = function_symbols(library)
    duplicated = sorted({s for s in sources if sources.count(s) > 1})
    if duplicated:
        # Their locals could not be told apart.
        sys.exit("libgrgad.a has same-named sources: " + " ".join(duplicated))
    reached_globals, reached_locals = set(), set()
    for path in products.values():
        g, l, _ = function_symbols(path)
        reached_globals |= g.keys()
        reached_locals |= l
    unreached = sorted([(lib_globals[s], s)
                        for s in lib_globals.keys() - reached_globals]
                       + list(lib_locals - reached_locals))

    # Several symbols can share one demangled name (constructor variants);
    # names are listed once per source file.
    failures, allowed = set(), set()
    failed_symbols = 0
    names = demangle([s for _, s in unreached])
    for (source, _), name in zip(unreached, names):
        if any(fnmatch.fnmatchcase(source, f) and fnmatch.fnmatchcase(name, p)
               for f, p, _ in ALLOWLIST):
            allowed.add((source, name))
        else:
            failures.add((source, name))
            failed_symbols += 1
    for source, name in sorted(failures):
        print(f"UNREACHED {source}: {name}")
    print(f"{len(failures)} libgrgad function(s) ({failed_symbols} symbols) "
          f"no product binary reaches; {len(allowed)} allowlisted; "
          f"{len(products)} product binaries")
    return 1 if failures else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(os.path.abspath(sys.argv[1])))
