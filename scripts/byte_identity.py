"""Byte-identity check of the softlogic command line.

    python3 scripts/byte_identity.py

Writes the ``krkp-cli`` benchmark's CSV files for seed 3 (kr-vs-kp column
layout, planted labels) by importing ``perfbench/workloads.py``, which it
never changes.  Then, with the package in this checkout's ``src``, it runs

* ``softlogic train --seed 3 --max-epochs 30`` and ``softlogic train
  --max-epochs 5`` on ``train.csv``;
* ``extract --json``, ``extract`` and ``eval --json`` (on ``held_out.csv``)
  on both models;

and prints ``sha256  name`` for each of the 12 artifacts: model, training
log, manifest and the three reports per model.  Every path is relative to
one temporary directory, so the manifests of two checkouts compare equal.
Diff this output between a parent and a change: any line that differs is
a changed artifact.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "kr-vs-kp.schema.json"
SEED = 3        # of the krkp-cli inputs
# (model file, train flags)
RUNS = (("seeded.json", ["--seed", "3", "--max-epochs", "30"]),
        ("short.json", ["--max-epochs", "5"]))


def run(main, argv: list[str]) -> str:
    """stdout of ``softlogic *argv``; any exit code but 0 ends the check."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        sys.exit(f"softlogic {' '.join(argv)} exited {code}")
    return out.getvalue()


def artifacts(workdir: Path) -> list[Path]:
    """Make the inputs in ``workdir``, run every command there and return
    the artifact paths in a fixed order."""
    sys.dont_write_bytecode = True      # leave no caches in the checkout
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import softlogic
    import softlogic.cli
    import workloads

    workloads.KrkpCli(softlogic, SEED, workdir)
    shutil.copy(ROOT / "datasets" / SCHEMA, workdir / SCHEMA)
    os.chdir(workdir)
    main = softlogic.cli.main
    written = []
    for model, flags in RUNS:
        run(main, ["train", "--data", "train.csv", "--schema", SCHEMA,
                   "--out", model, *flags])
        stem = Path(model).stem
        reports = {
            f"{stem}.extract.json": ["extract", "--model", model, "--json"],
            f"{stem}.extract.txt": ["extract", "--model", model],
            f"{stem}.eval.json": ["eval", "--model", model, "--data", "held_out.csv",
                                  "--schema", SCHEMA, "--json"],
        }
        for name, argv in reports.items():
            Path(name).write_text(run(main, argv))
        written += [Path(model), Path(f"{stem}.log.csv"), Path(f"{stem}.manifest.json"),
                    *map(Path, reports)]
    return [workdir / path for path in written]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for path in artifacts(Path(tmp)):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")
        os.chdir(ROOT)      # leave the directory before it is removed


if __name__ == "__main__":
    main()
