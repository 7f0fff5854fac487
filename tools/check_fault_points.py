#!/usr/bin/env python3
"""Checks that every fault point the code checks is registered.

Usage: check_fault_points.py [REPO_ROOT]

FaultInjector only knows the names in `kPointNames` (src/util/fault.cc).
A point that is checked but not listed never fires, and `--inject` rejects
it as unknown. This script collects every string literal passed as the
first argument to `Check(`, `Fires(` or `StageFault(` in the C++ sources
under src/ and exits 1 naming each one missing from `kPointNames`.
REPO_ROOT defaults to the parent of this script's directory.
"""
import pathlib
import re
import sys

# The call may break its line before the literal (`Check(\n "serve/admit"`).
CALL = re.compile(r'\b(?:Check|Fires|StageFault)\(\s*"([^"\\]+)"')
REGISTRY = re.compile(r"kPointNames\[\]\s*=\s*\{(.*?)\};", re.S)
LITERAL = re.compile(r'"([^"\\]+)"')


def registered_points(fault_cc):
    match = REGISTRY.search(fault_cc.read_text(encoding="utf-8"))
    if match is None:
        sys.exit(f"{fault_cc}: kPointNames table not found")
    return set(LITERAL.findall(match.group(1)))


def main(root):
    src = root / "src"
    registered = registered_points(src / "util" / "fault.cc")
    failures = []
    checked = 0
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".cc", ".h"):
            continue
        text = path.read_text(encoding="utf-8")
        for match in CALL.finditer(text):
            checked += 1
            if match.group(1) not in registered:
                line = text.count("\n", 0, match.start()) + 1
                failures.append(f"{path.relative_to(root)}:{line}: fault point"
                                f" {match.group(1)!r} is not in kPointNames")
    print(f"  {checked} fault-point call(s), {len(registered)} registered"
          f" point(s)")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    default_root = pathlib.Path(__file__).resolve().parent.parent
    sys.exit(main(pathlib.Path(sys.argv[1]) if len(sys.argv) > 1
                  else default_root))
