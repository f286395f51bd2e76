"""Command-line driver: exit codes, output shapes, and environment handling."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gideal.classes import q_family
from gideal.cli import main
from gideal.hilbert import BudgetError, h_polynomial
from gideal.textio import parse_document

THREE_PRIMES = "ring 3 vars x,y,z; ideal I = x^3,y^3,z^3,x*y,y*z,x*z;\n"


@pytest.fixture
def ideal_file(tmp_path):
    def write(text, name="ideal.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


class TestClassify:
    def test_human_output(self, ideal_file, capsys):
        code = main(["classify", ideal_file(THREE_PRIMES)])
        out = capsys.readouterr().out
        assert code == 0
        assert "I: contracted=true in_C=true in_D=true in_G=true" in out

    def test_json_output(self, ideal_file, capsys):
        code = main(["classify", "--json", ideal_file(THREE_PRIMES)])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        entry = data["ideals"]["I"]
        assert entry["contracted"] is True
        assert entry["in_C"] is True
        assert entry["in_D"] is True
        assert entry["in_G"] is True

    def test_builds_the_family_once(self, ideal_file, capsys, monkeypatch):
        calls = []

        def counting(I):
            calls.append(I)
            return q_family(I)

        monkeypatch.setattr("gideal.classes.q_family", counting)
        assert main(["classify", "--json", ideal_file(THREE_PRIMES)]) == 0
        assert json.loads(capsys.readouterr().out)["ideals"]["I"]["in_G"] is True
        assert len(calls) == 1

    def test_unit_ideal_rejected(self, ideal_file, capsys):
        code = main(["classify", ideal_file("ring 2 vars x,y; ideal I = 1;")])
        assert code == 1
        assert capsys.readouterr().err != ""

    def test_classify_negative(self, ideal_file, capsys):
        text = (
            "ring 3 vars x,y,z; ideal I = x^2, y*z, x^3, y^3, z^3,"
            " x^2*y, x^2*z, x*y^2, x*z^2, x*y*z, y^2*z, y*z^2;\n"
        )
        code = main(["classify", "--json", ideal_file(text)])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        entry = data["ideals"]["I"]
        assert entry["contracted"] is True
        assert entry["in_D"] is False
        assert entry["in_C"] is False
        assert entry["reasons"]["in_C"]


class TestFactor:
    def test_three_primes(self, ideal_file, capsys):
        code = main(["factor", "--json", ideal_file(THREE_PRIMES)])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        entry = data["ideals"]["I"]
        assert entry["balance"] == [1, 0]
        assert len(entry["factors"]) == 3

    def test_power_of_maximal(self, ideal_file, capsys):
        code = main(
            ["factor", "--json", ideal_file("ring 2 vars x,y; ideal I = x^2,x*y,y^2;")]
        )
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        entry = data["ideals"]["I"]
        assert entry["factors"] == []
        assert entry["balance"] == [0, 2]

    def test_nonmember_fails(self, ideal_file, capsys):
        code = main(
            ["factor", ideal_file("ring 3 vars x,y,z; ideal I = x^3,y^3,z^3;")]
        )
        assert code == 1
        assert capsys.readouterr().err != ""


class TestClose:
    def test_pair_of_squares(self, ideal_file, capsys):
        code = main(
            ["close", "--json", ideal_file("ring 2 vars x,y; ideal I = x^2,y^2;")]
        )
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        entry = data["ideals"]["I"]
        assert sorted(entry["generators"]) == ["x*y", "x^2", "y^2"]
        assert entry["already_closed"] is False

    def test_already_closed(self, ideal_file, capsys):
        code = main(
            ["close", "--json", ideal_file("ring 2 vars x,y; ideal I = x,y;")]
        )
        data = json.loads(capsys.readouterr().out)
        assert data["ideals"]["I"]["already_closed"] is True
        assert code == 0


class TestSimpleFactor:
    def test_three_primes(self, ideal_file, capsys):
        code = main(["simple-factor", "--json", ideal_file(THREE_PRIMES)])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        entry = data["ideals"]["I"]
        assert entry["m_power"] == 0
        assert entry["balance"] == 1
        assert len(entry["factors"]) == 3
        for factor in entry["factors"]:
            assert factor["d"] == 1 and factor["t"] == 2
            assert factor["mult"] == 1
            assert len(factor["prime"]) == 2

    def test_pure_power_of_maximal(self, ideal_file, capsys):
        text = "ring 3 vars x,y,z; ideal I = x^2,x*y,y^2,x*z,y*z,z^2;\n"
        code = main(["simple-factor", "--json", ideal_file(text)])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        entry = data["ideals"]["I"]
        assert entry["m_power"] == 2
        assert entry["balance"] == 0
        assert entry["factors"] == []

    def test_outside_class_fails(self, ideal_file, capsys):
        text = "ring 3 vars x,y,z; ideal I = x^2,y^2,x*y^2,y^2*z^2,z^4,x*z^2;\n"
        code = main(["simple-factor", ideal_file(text)])
        captured = capsys.readouterr()
        assert code == 1
        assert "not in C" in captured.err


class TestHilbert:
    def test_three_primes(self, ideal_file, capsys):
        code = main(["hilbert", "--json", ideal_file(THREE_PRIMES)])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        entry = data["ideals"]["I"]
        assert entry["h"] == [7, 4]
        assert entry["e"] == 11
        assert entry["colength"] == 7

    def test_human_output_matches_series_str(self, ideal_file, capsys):
        text = "ring 2 vars x,y; ideal I = x^2,x*y,y^3;\n"
        code = main(["hilbert", ideal_file(text)])
        out = capsys.readouterr().out
        assert code == 0
        h = h_polynomial(parse_document(text).ideal("I"))
        assert str(h) == "4 + z"
        assert out == f"I: h = {h}, e = 5, colength = 4\n"

    def test_negative_coefficient(self, ideal_file, capsys):
        text = "ring 3 vars x,y,z; ideal I = x^2,x*y,x*z,y^3,y^2*z,z^3;\n"
        assert main(["hilbert", ideal_file(text)]) == 0
        out = capsys.readouterr().out
        assert out == "I: h = 8 + 4*z + 3*z^2 - z^3, e = 14, colength = 8\n"
        assert main(["hilbert", "--json", ideal_file(text)]) == 0
        assert json.loads(capsys.readouterr().out)["ideals"]["I"]["h"] == [8, 4, 3, -1]

    def test_terms_budget_too_small(self, ideal_file, capsys):
        code = main(["hilbert", "--terms", "2", ideal_file(THREE_PRIMES)])
        assert code == 1
        assert "budget" in capsys.readouterr().err

    def test_budget_message_names_the_flag(self, ideal_file, capsys,
                                           monkeypatch):
        # the library names no flag; the CLI names both ways to raise it
        with pytest.raises(BudgetError, match="; raise the term budget$"):
            h_polynomial(parse_document(THREE_PRIMES).ideal("I"), 2)
        hint = ("within 2 filtration terms; "
                "raise the term budget with --terms or GIDEAL_BUDGET")
        assert main(["hilbert", "--terms", "2", ideal_file(THREE_PRIMES)]) == 1
        err = capsys.readouterr().err
        assert err == f"gideal hilbert: I: h-polynomial did not stabilize {hint}\n"
        monkeypatch.setenv("GIDEAL_BUDGET", "2")
        assert main(["verify-examples", "--json"]) == 1
        results = json.loads(capsys.readouterr().out)["results"]
        assert [set(r) for r in results] == [{"detail", "name", "passed"}] * 7
        failed = [r for r in results if not r["passed"]]
        assert [r["name"] for r in failed] == ["three-primes-pipeline"]
        assert failed[0]["detail"].endswith(hint)

    def test_env_budget(self, ideal_file, capsys, monkeypatch):
        monkeypatch.setenv("GIDEAL_BUDGET", "2")
        code = main(["hilbert", ideal_file(THREE_PRIMES)])
        assert code == 1

    def test_flag_overrides_env(self, ideal_file, capsys, monkeypatch):
        monkeypatch.setenv("GIDEAL_BUDGET", "2")
        code = main(["hilbert", "--terms", "16", ideal_file(THREE_PRIMES)])
        assert code == 0

    def test_invalid_env_budget(self, ideal_file, capsys, monkeypatch):
        monkeypatch.setenv("GIDEAL_BUDGET", "zero")
        code = main(["hilbert", ideal_file(THREE_PRIMES)])
        assert code == 2

    def test_invalid_terms_flag(self, ideal_file, capsys):
        code = main(["hilbert", "--terms", "0", ideal_file(THREE_PRIMES)])
        assert code == 2

    def test_budget_env_ignored_where_unused(self, ideal_file, capsys,
                                             monkeypatch):
        monkeypatch.setenv("GIDEAL_BUDGET", "zero")
        code = main(["close", ideal_file(THREE_PRIMES)])
        assert code == 0
        assert "already closed" in capsys.readouterr().out

    def test_terms_flag_rejected_where_unused(self, ideal_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["close", "--terms", "3", ideal_file(THREE_PRIMES)])
        assert exc.value.code == 2


class TestErrors:
    def test_parse_error_exit_two(self, ideal_file, capsys):
        code = main(["classify", ideal_file("ring 2 vars x,y; ideal I = w;")])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown variable" in captured.err

    def test_missing_file(self, capsys):
        code = main(["classify", "/nonexistent/path.txt"])
        assert code == 2
        assert capsys.readouterr().err != ""

    def test_file_not_utf8_exit_two(self, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes("ring 1 vars \u00e9; ideal I = \u00e9;\n".encode("latin-1"))
        code = main(["classify", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"gideal: cannot read {path}: 'utf-8' codec can't")

    def test_summed_exponent_overflow_exit_two(self, ideal_file):
        path = ideal_file(
            "ring 2 vars x,y; ideal I = x^2147483647*x^2147483647, y;\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-m", "gideal", "classify", path],
                             env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 2
        assert "too large" in out.stderr
        assert "Traceback" not in out.stderr


    def test_superscript_digit_exit_two(self, ideal_file):
        path = ideal_file("ring \u00b3 vars x; ideal I = x;\n")
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-m", "gideal", "classify", path],
                             env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 2
        assert "line 1, column 6: unexpected character" in out.stderr
        assert "Traceback" not in out.stderr

    def test_overlong_integer_exit_two(self, ideal_file):
        path = ideal_file("ring 2 vars x,y;\nideal I = x^" + "7" * 5000 + ", y;\n")
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-m", "gideal", "classify", path],
                             env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 2
        assert "line 2, column 13: an exponent of 5000 digits" in out.stderr
        assert "Traceback" not in out.stderr


class TestVerifyExamples:
    def test_all_pass_text(self, capsys):
        code = main(["verify-examples"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 7
        assert "7/7 examples passed" in out

    def test_all_pass_json(self, capsys):
        code = main(["verify-examples", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(data["results"]) == 7
        assert all(entry["passed"] for entry in data["results"])


class TestDeterminism:
    def test_json_output_stable(self, ideal_file, capsys):
        path = ideal_file(THREE_PRIMES)
        main(["classify", "--json", path])
        first = capsys.readouterr().out
        main(["classify", "--json", path])
        second = capsys.readouterr().out
        assert first == second


class TestStartup:
    def test_import_loads_only_the_standard_library(self):
        code = (
            "import sys; before = set(sys.modules); import gideal; "
            "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
            " - set(sys.stdlib_module_names) - {'gideal'}))"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        assert out.stdout.strip() == "[]"
