#!/usr/bin/env python3
"""Checks that every JSON document grgad wrote parses.

Usage: check_json.py FILE [FILE ...]

A `.ndjson` file holds one document per line (serve replies); any other
file is one document (`grgad run --json`, --metrics-out, micro.json).
Exits 1 naming each file and line that json.loads rejects. NaN and
Infinity, which json.loads accepts by default but JSON does not, count as
failures: grgad writes non-finite numbers as null.
"""
import json
import sys


def reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def main(paths):
    failures = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            text = f.read()
        documents = (text.splitlines() if path.endswith(".ndjson")
                     else [text])
        for number, document in enumerate(documents, 1):
            try:
                json.loads(document, parse_constant=reject_constant)
            except ValueError as e:
                failures.append(f"{path}:{number}: {e}")
        print(f"  {path}: {len(documents)} document(s)")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
