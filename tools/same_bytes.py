"""Check that the working tree writes the same bytes as a git revision.

    python3 tools/same_bytes.py REV

Runs the same-bytes recipe (`tests/same_bytes_recipe.json`, both `bench`
and `predict` on `--synthetic 160 --seed 3`) once on `git archive REV` and
once on the working tree, each from its own `src/`, with BLAS limited to
one thread. Both sides use the working tree's recipe. Prints every output
file's sha256 per side and exits 1 if any file differs or is missing on one
side, 0 otherwise. Run it from anywhere inside the repository. If git fails,
as on a revision that does not exist, it prints git's message on one line and
exits 2, as it does on wrong usage.
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


def _git(*args: str, cwd=None) -> bytes:
    """The stdout of `git ARGS`; if git fails, its message on one line and exit 2."""
    done = subprocess.run(["git", *args], cwd=cwd, capture_output=True)
    if done.returncode:
        message = " ".join(done.stderr.decode(errors="replace").split())
        print(f"error: git {' '.join(args)} failed: {message}", file=sys.stderr)
        sys.exit(2)
    return done.stdout


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(_git("rev-parse", "--show-toplevel").decode().strip())
    archive = _git("archive", argv[0], cwd=root)
    recipe = root / "tests" / "same_bytes_recipe.json"
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
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
