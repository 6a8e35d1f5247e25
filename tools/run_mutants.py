"""Apply each mutant of tests/mutants.py to a copy of src/ and run its test modules; exit 1 if any survives.

    python tools/run_mutants.py

Run it from anywhere inside the checkout. For each mutant, src/ is copied
to a temporary directory, removed afterwards, and the mutant's one line is
replaced there. Then one process imports voltlift from the copy, exits 2 if
the import resolved anywhere else (as bench/run.py checks voltlift.__file__),
and runs ``pytest -x`` on the mutant's test modules only, from the root of
the checkout, so the tests see the mutated package. A mutant is killed when
pytest reports a failed test (exit 1), and survives when every test passes;
any other exit is an error. Each mutant's verdict, time and first failed
test are printed, then the total wall time. The exit code is 1 if any
mutant survived or ended in an error, each of them named, and 0 otherwise.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from mutants import MUTANTS  # noqa: E402

# imports voltlift from the copy named by argv[1] before pytest can put
# anything else first on sys.path; the tests then find it in sys.modules
RUN = """
import os, sys
import voltlift
src = os.path.realpath(sys.argv[1])
if not os.path.realpath(voltlift.__file__).startswith(src + os.sep):
    print(f"imported voltlift from {voltlift.__file__}, not from {src}")
    sys.exit(2)
import pytest
sys.exit(pytest.main(sys.argv[2:]))
"""


def apply(src: Path, path: str, old: str, new: str) -> None:
    """Replace the one line of src/path that equals old with new."""
    target = src / path
    lines = target.read_text().split("\n")
    if lines.count(old) != 1:
        sys.exit(f"{path}: the line {old.strip()!r} occurs {lines.count(old)} times, not once")
    lines[lines.index(old)] = new
    target.write_text("\n".join(lines))


def run_mutant(path: str, old: str, new: str, modules: tuple) -> tuple:
    """(pytest's exit code, its first FAILED line or output tail) for one mutant."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        apply(src, path, old, new)
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-c", RUN, str(src), "-x", "-q", "-rf", "-p", "no:cacheprovider",
             *modules],
            cwd=ROOT, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    failed = [line for line in lines if line.startswith("FAILED")]
    detail = failed[0] if failed else "\n".join((lines + proc.stderr.splitlines())[-5:])
    return proc.returncode, detail


def main() -> None:
    start = time.perf_counter()
    bad = []
    for i, (path, old, new, modules, reason) in enumerate(MUTANTS):
        t = time.perf_counter()
        code, detail = run_mutant(path, old, new, modules)
        verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (exit {code})")
        print(f"[{i}] {verdict} in {time.perf_counter() - t:.1f} s: {path}: "
              f"{old.strip()!r} -> {new.strip()!r} ({reason})", flush=True)
        print(f"    {detail}", flush=True)
        if code != 1:
            bad.append(f"[{i}] {verdict}: {path}: {new.strip()!r}")
    print(f"{len(MUTANTS)} mutants, {len(MUTANTS) - len(bad)} killed, "
          f"wall time {time.perf_counter() - start:.1f} s")
    if bad:
        print("not killed:\n  " + "\n  ".join(bad))
        sys.exit(1)


if __name__ == "__main__":
    main()
