"""The answer records of `tests/answer_records.py` do not depend on hash
order: a short prefix gives one digest under two values of PYTHONHASHSEED."""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def digest(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    path = [str(TESTS.parent / "src"), str(TESTS)]
    env["PYTHONPATH"] = os.pathsep.join(path + [env.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, str(TESTS / "answer_records.py"), "--rounds", "6"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert " records sha256=" in out, out
    return out


def test_answers_do_not_depend_on_hash_order():
    assert digest("0") == digest("1")
