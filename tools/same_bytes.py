"""Check that the working tree writes the same bytes as a git revision.

    python3 tools/same_bytes.py REV

Runs the same-bytes recipe (`tests/same_bytes_recipe.json`, both `bench`
and `predict` on `--synthetic 160 --seed 3`) once on `git archive REV` and
once on the working tree, each from its own `src/`, with BLAS limited to
one thread. Both sides use the working tree's recipe. Prints every output
file's sha256 per side and exits 1 if any file differs or is missing on one
side, 0 otherwise. Run it from anywhere inside the repository.
"""

from __future__ import annotations

import hashlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ARGS = ("--synthetic", "160", "--seed", "3")
COMMANDS = ("bench", "predict")


def _run(src: Path, recipe: Path, out: Path) -> dict:
    """sha256 of each file the recipe writes with the code in ``src``, by relative path."""
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    for command in COMMANDS:
        subprocess.run(
            [sys.executable, "-m", "imputebench.cli", command, *ARGS,
             "--config", str(recipe), "--out-dir", str(out / command)],
            env=env, check=True, stdout=subprocess.DEVNULL,
        )
    return {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(
        subprocess.run(
            ["git", "rev-parse", "--show-toplevel"], check=True, capture_output=True, text=True
        ).stdout.strip()
    )
    archive = subprocess.run(
        ["git", "archive", argv[0]], cwd=root, check=True, capture_output=True
    )
    recipe = root / "tests" / "same_bytes_recipe.json"
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp / "rev", filter="data")
        sides = {
            argv[0]: _run(tmp / "rev" / "src", recipe, tmp / "out_rev"),
            "working tree": _run(root / "src", recipe, tmp / "out_tree"),
        }
    before, after = sides.values()
    differ = 0
    for name in sorted(before.keys() | after.keys()):
        same = before.get(name) == after.get(name)
        differ += not same
        print(f"{'same' if same else 'DIFF'}  {name}")
        for side, digests in sides.items():
            print(f"      {digests.get(name, 'missing'):64}  {side}")
    print(f"{len(before.keys() | after.keys())} files, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
