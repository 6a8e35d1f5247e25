import os

import pytest

from mutants import MUTANTS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("mutant", MUTANTS, ids=[f"{i}-{m[0]}" for i, m in enumerate(MUTANTS)])
def test_each_old_line_occurs_once(mutant):
    # a refactor that moves or rewrites a listed line must update the list
    path, old, new, modules, reason = mutant
    with open(os.path.join(ROOT, "src", path)) as f:
        lines = f.read().splitlines()
    assert lines.count(old) == 1
    assert new != old and "\n" not in new and reason
    assert modules and all(os.path.isfile(os.path.join(ROOT, m)) for m in modules)
