#!/usr/bin/env python3
"""Download the four benchmark data files into the dataset directory.

Checksums are recorded in checksums.json on first fetch and verified on
every later run, so a silently changed upstream file is caught.  Row and
column counts are validated against the registry before a file is
accepted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import urllib.request
from pathlib import Path

from softlogic.benchmark import BENCHMARKS, resolve_data_dir


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def structural_check(path: Path, expected_rows: int, expected_columns: int) -> None:
    rows = 0
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            rows += 1
            columns = len(line.split(","))
            if columns != expected_columns:
                raise SystemExit(
                    f"{path}: row {rows} has {columns} columns,"
                    f" expected {expected_columns}"
                )
    if rows != expected_rows:
        raise SystemExit(f"{path}: {rows} rows, expected {expected_rows}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data-dir", help="target directory (default: datasets/)")
    parser.add_argument("--only", action="append", help="benchmark key (repeatable)")
    parser.add_argument("--force", action="store_true", help="re-download existing files")
    args = parser.parse_args()

    data_dir = resolve_data_dir(args.data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    checksum_path = data_dir / "checksums.json"
    checksums = {}
    if checksum_path.exists():
        checksums = json.loads(checksum_path.read_text())

    failures = 0
    for spec in BENCHMARKS:
        if args.only and spec.key not in args.only:
            continue
        target = data_dir / spec.data_file
        if target.exists() and not args.force:
            print(f"{spec.key}: {target} already present")
        else:
            print(f"{spec.key}: fetching {spec.url}")
            try:
                with urllib.request.urlopen(spec.url, timeout=60) as response:
                    target.write_bytes(response.read())
            except OSError as exc:
                print(f"{spec.key}: download failed: {exc}", file=sys.stderr)
                failures += 1
                continue
        try:
            structural_check(target, spec.expected_rows, spec.expected_columns)
        except SystemExit as exc:
            print(f"{spec.key}: {exc}", file=sys.stderr)
            failures += 1
            continue
        digest = sha256_of(target)
        recorded = checksums.get(spec.data_file)
        if recorded is None:
            checksums[spec.data_file] = digest
            print(f"{spec.key}: recorded sha256 {digest[:16]}...")
        elif recorded != digest:
            print(f"{spec.key}: checksum mismatch (recorded {recorded[:16]}...,"
                  f" got {digest[:16]}...)", file=sys.stderr)
            failures += 1
            continue
        else:
            print(f"{spec.key}: checksum ok")

    checksum_path.write_text(json.dumps(checksums, indent=2, sort_keys=True) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
