"""Command-line behavior: canonical output, exit codes, round-trips and
byte determinism across parallelism settings."""

import contextlib
import gc
import hashlib
import importlib
import io
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from kostka_forge.cli import (
    EXIT_INTEGRALITY,
    EXIT_NOT_IN_SPAN,
    EXIT_OK,
    EXIT_VALIDATION,
    EXIT_VERIFY_FAILED,
    main,
)
from kostka_forge import cli, macdonald
from kostka_forge.errors import NotInSpan
from kostka_forge.macdonald import KostkaMatrix, kostka_matrix, nonsym_E
from kostka_forge.qt import ExactScalar, QTPolynomial
from kostka_forge.verify import SUITES, random_zpoly, run_suite
from kostka_forge.zpoly import AlphaPolynomial, ZPolynomial


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpand:
    def test_trivial_form(self, capsys):
        code, out, _ = run(capsys, "expand", "--n", "2", "--lambda", "0,0", "--form", "E")
        assert code == EXIT_OK
        payload = json.loads(out)
        f = ZPolynomial.from_json_dict(payload["polynomial"])
        assert f == ZPolynomial.one(2)

    def test_monomial_round_trip(self, capsys):
        code, out, _ = run(capsys, "expand", "--n", "2", "--lambda", "1,0", "--form", "E")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert ZPolynomial.from_json_dict(payload["polynomial"]) == nonsym_E((1, 0))

    def test_augmented_expansion_values(self, capsys):
        code, out, _ = run(
            capsys,
            "expand", "--n", "2", "--lambda", "1,0",
            "--form", "calE", "--basis", "tmon-aug", "--m", "1",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["labels"] == [[0, 1], [1, 0]]
        coeffs = [ExactScalar.from_json(c) for c in payload["coeffs"]]
        qt = ExactScalar.q() * ExactScalar.t()
        assert coeffs == [qt, ExactScalar.one() - qt]
        assert payload["integral"] == [True, True]

    def test_canonical_json_shape(self, capsys):
        _, out, _ = run(capsys, "expand", "--n", "2", "--lambda", "1,0", "--form", "E")
        assert out.endswith("\n")
        assert out == json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"

    def test_canonical_json_is_the_sorted_compact_dump(self, monkeypatch):
        """No cycle check changes no byte: a table entry, a Kostka matrix and
        a failing suite report with a counterexample."""
        from kostka_forge import verify as verify_mod

        real = verify_mod.nonsym_calE
        bad = real((1, 0)).scalar_mul(ExactScalar.q(-1))
        monkeypatch.setattr(verify_mod, "nonsym_calE", lambda lam: bad if lam == (1, 0) else real(lam))
        report = run_suite("integrality", n=2, maxdeg=2)
        assert not report["passed"]
        entry = {"lambda": [1, 0, 2], "calE": macdonald.nonsym_calE((1, 0, 2)).to_json_dict()}
        for obj in (entry, kostka_matrix(3, 3).to_json_dict(), report):
            assert cli.canonical_json(obj) == json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"

    def test_latex_output(self, capsys):
        code, out, _ = run(
            capsys,
            "expand", "--n", "2", "--lambda", "0,1",
            "--form", "calE", "--format", "latex",
        )
        assert code == EXIT_OK
        assert "z_{2}" in out


class TestValidation:
    def test_bad_lambda(self, capsys):
        code, _, err = run(capsys, "expand", "--n", "2", "--lambda", "1,x", "--form", "E")
        assert code == EXIT_VALIDATION
        assert json.loads(err)["error"]["type"] == "ValidationError"

    def test_wrong_length(self, capsys):
        code, _, _ = run(capsys, "expand", "--n", "3", "--lambda", "1,0", "--form", "E")
        assert code == EXIT_VALIDATION

    def test_j_needs_partition(self, capsys):
        code, _, _ = run(capsys, "expand", "--n", "2", "--lambda", "0,1", "--form", "calJ")
        assert code == EXIT_VALIDATION

    def test_kostka_needs_enough_variables(self, capsys):
        code, _, _ = run(capsys, "kostka", "--degree", "3", "--n", "2")
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "argv",
        [
            ("kostka", "--degree", "-1"),
            ("table", "--n", "2", "--maxdeg", "-1"),
            ("table", "--n", "0", "--maxdeg", "2"),
            ("verify", "--suite", "oracle", "--n", "0"),
            ("verify", "--suite", "hecke-relations", "--trials", "-3"),
            ("verify", "--suite", "integrality", "--maxdeg", "-1"),
        ],
    )
    def test_out_of_range_sizes(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert json.loads(err)["error"]["type"] == "ValidationError"

    # the last two would have more than 10 000 digits: refused before expansion
    @pytest.mark.parametrize("spec", ["q=1/0", "t=1/0", "q=1/2,q=3", "q=1e999999999", "t=1e-10001"])
    def test_bad_specialization(self, capsys, spec):
        code, out, err = run(capsys, "kostka", "--degree", "2", "--specialize", spec)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert json.loads(err)["error"]["type"] == "ValidationError"

    @pytest.mark.parametrize(
        "argv",
        [
            ("kostka", "--degree", "abc"),
            ("expand", "--n", "2", "--lambda", "1,0", "--basis", "foo"),
            # --m only means something for the partial bases; refused before
            # --output (a missing directory) is opened
            ("expand", "--n", "3", "--lambda", "0,0,2", "--form", "E", "--basis", "tmon", "--m", "1"),
            ("expand", "--n", "3", "--lambda", "0,0,2", "--form", "E", "--basis", "tmon", "--m", "99"),
            ("expand", "--n", "2", "--lambda", "1,0", "--m", "0", "--output", "no-such-dir/out.json"),
            ("table", "--n", "2"),
            ("no-such-command",),
            (),
        ],
    )
    def test_usage_error_is_json(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert json.loads(err)["error"]["type"] == "ValidationError"

    @pytest.mark.parametrize(
        "argv, target, kind",
        [
            (("table", "--n", "1", "--maxdeg", "1"), "missing/x.json", "FileNotFoundError"),
            (("kostka", "--degree", "1"), ".", "IsADirectoryError"),
        ],
    )
    def test_unwritable_output(self, capsys, tmp_path, argv, target, kind):
        code, out, err = run(capsys, *argv, "--output", str(tmp_path / target))
        assert code == EXIT_VALIDATION
        assert out == ""
        assert json.loads(err)["error"]["type"] == kind

    def test_out_of_memory_is_a_json_error(self, capsys, monkeypatch):
        def exhausted(lam):
            raise MemoryError

        monkeypatch.setattr(cli, "nonsym_calE", exhausted)
        code, out, err = run(capsys, "table", "--n", "2", "--maxdeg", "2")
        assert code == EXIT_VALIDATION
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "MemoryError"
        assert error["message"]

    @pytest.mark.parametrize(
        "argv, computation",
        [
            (("kostka", "--degree", "5"), "kostka_matrix"),
            (("table", "--n", "2", "--maxdeg", "2"), "nonsym_calE"),
            (("expand", "--n", "2", "--lambda", "1,0"), "nonsym_calE"),
            (("verify", "--suite", "oracle"), "run_suite"),
        ],
    )
    def test_output_is_opened_before_computing(self, capsys, monkeypatch, tmp_path, argv, computation):
        def reached(*args, **kwargs):
            raise AssertionError(f"{computation} ran before --output was opened")

        monkeypatch.setattr(f"kostka_forge.cli.{computation}", reached)
        code, out, err = run(capsys, *argv, "--output", str(tmp_path))
        assert code == EXIT_VALIDATION
        assert out == ""
        assert json.loads(err)["error"]["type"] == "IsADirectoryError"

    @pytest.mark.parametrize(
        "argv",
        [
            ("kostka", "--degree", "30"),
            ("kostka", "--degree", "3", "--n", "9"),
            ("expand", "--n", "2", "--lambda", "300,0", "--form", "E"),
            ("expand", "--n", "3", "--lambda", "0,17,0"),
            ("expand", "--n", "8", "--lambda", "0,0,6,0,0,0,0,0", "--form", "calE"),
            ("expand", "--n", "9", "--lambda", "1,0,0,0,0,0,0,0,0"),
            ("table", "--n", "4", "--maxdeg", "11"),
            ("table", "--n", "9", "--maxdeg", "1"),
            ("verify", "--suite", "oracle", "--n", "4", "--maxdeg", "8", "--trials", "1"),
            ("verify", "--suite", "integrality", "--n", "9", "--maxdeg", "0"),
            ("verify", "--suite", "jack", "--n", "8", "--maxdeg", "2"),
            ("verify", "--suite", "hecke-relations", "--n", "8", "--trials", "7"),
            ("verify", "--suite", "hecke-relations", "--n", "2", "--maxdeg", "17", "--trials", "1"),
            ("verify", "--suite", "t-schur", "--n", "3", "--maxdeg", "4"),
            ("verify", "--suite", "hall-littlewood", "--n", "1", "--maxdeg", "121"),
            ("kostka", "--degree", "9"),
            ("verify", "--suite", "hall-littlewood", "--n", "6", "--maxdeg", "13"),
            ("verify", "--suite", "t-schur", "--n", "8", "--maxdeg", "9"),
        ],
    )
    def test_oversize_input_is_refused_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 2
        assert code == EXIT_VALIDATION
        assert out == ""
        assert json.loads(err)["error"]["type"] == "ValidationError"

    @pytest.mark.parametrize(
        "argv, computation",
        [
            (("kostka", "--degree", "8", "--n", "8"), "kostka_matrix"),
            (("expand", "--n", "2", "--lambda", "24,0", "--form", "J", "--basis", "tmon"), "sym_J"),
            (("expand", "--n", "3", "--lambda", "16,0,0", "--form", "E"), "nonsym_E"),
            (("expand", "--n", "8", "--lambda", "5,0,0,0,0,0,0,0"), "nonsym_calE"),
            (("table", "--n", "4", "--maxdeg", "10"), "nonsym_calE"),
            (("table", "--n", "8", "--maxdeg", "5"), "nonsym_calE"),
            (("verify", "--suite", "oracle", "--n", "8", "--maxdeg", "3"), "run_suite"),
            (("verify", "--suite", "hall-littlewood", "--n", "2", "--maxdeg", "231"), "run_suite"),
            (("verify", "--suite", "t-schur", "--n", "8", "--maxdeg", "8"), "run_suite"),
            (("verify", "--suite", "hecke-relations", "--n", "8", "--maxdeg", "16", "--trials", "6"), "run_suite"),
            (("verify", "--suite", "hall-littlewood", "--n", "6", "--maxdeg", "12"), "run_suite"),
        ],
    )
    def test_largest_accepted_sizes_are_computed(self, capsys, monkeypatch, argv, computation):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(f"kostka_forge.cli.{computation}", reached)
        with pytest.raises(Reached):
            main(list(argv))

    @pytest.mark.parametrize("smoke", [False, True])
    def test_benchmark_verify_runs_are_accepted(self, monkeypatch, smoke):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        workloads = importlib.import_module("workloads")

        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(cli, "run_suite", reached)
        argvs = [i.argv for w in workloads.WORKLOADS for i in workloads.invocations(w, 3, smoke) if i.argv[0] == "verify"]
        assert len(argvs) == 4
        for argv in argvs:
            with pytest.raises(Reached):
                main(list(argv))

    @pytest.mark.parametrize("basis", ["tmon", "tmon-partial", "tmon-aug"])
    def test_latex_needs_the_monomial_basis(self, capsys, basis):
        code, out, err = run(
            capsys,
            "expand", "--n", "2", "--lambda", "2,1",
            "--form", "J", "--basis", basis, "--format", "latex",
        )
        assert code == EXIT_VALIDATION
        assert out == ""
        assert json.loads(err)["error"]["type"] == "ValidationError"

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["kostka", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage:")

    def test_not_in_span(self, capsys):
        code, _, err = run(
            capsys,
            "expand", "--n", "2", "--lambda", "0,1",
            "--form", "calE", "--basis", "tmon-aug", "--m", "0",
        )
        assert code == EXIT_NOT_IN_SPAN
        assert json.loads(err)["error"]["type"] == "NotInSpan"


class TestKostka:
    # the benchmark's pins, taken from perfbench/workloads.py PINNED
    @pytest.mark.parametrize(
        "argv, sha256",
        [
            (
                ("kostka", "--degree", "5"),
                "c471f00b1a8cccc3a88665cf907fba6e6f826870fd6c3a9a1784099c317c0a4f",
            ),
            (
                ("kostka", "--degree", "4", "--n", "6"),
                "848ea6c693b098677ae1dffb2337d817c6dd5ce19e3c64a590908a39441520d5",
            ),
            (
                ("table", "--n", "4", "--maxdeg", "7"),
                "a4193c08a20ffb1a13e647c5c22a1e2e807cf244678ecdbf198490374e39efac",
            ),
            # passing reports of the suites the benchmark does not run
            (
                ("verify", "--suite", "degeneration", "--n", "3", "--maxdeg", "4"),
                "b6ef6d61a94905582146369719e6187806478a2bb7a02312aed3e157fe819777",
            ),
            (
                ("verify", "--suite", "hall-littlewood", "--n", "3", "--maxdeg", "4"),
                "ad5bf7211f428a9d4e0e46e22eb53796ec26f9f6896827aea9222a9c3be1d4f2",
            ),
            (
                ("verify", "--suite", "t-schur", "--n", "4", "--maxdeg", "4"),
                "ac42efcbe30081c8ccec2a9afb377c0f64047a502d33e23938c1458f08d30f44",
            ),
            # a benchmark pin whose output goes through apply_xi
            (
                ("verify", "--suite", "oracle", "--n", "3", "--maxdeg", "5"),
                "5441e69fddccf2d70a87fe16d740010e49573914eb86986fbc91fd7d318fac46",
            ),
            # the t-monomial peel: the benchmark's integrality pin, then one
            # expansion per basis, the first two with fractional coefficients
            (
                ("verify", "--suite", "integrality", "--n", "4", "--maxdeg", "5"),
                "9514faa63f911fdbfa492cd1386a79331d788cfb7a95063d113b3ba0ad9a20bd",
            ),
            (
                ("expand", "--n", "3", "--lambda", "4,1,0", "--form", "J", "--basis", "tmon"),
                "e162c12434ae8784a021373ff2549e7a512c0d9104b8cce2345220b38d112bb8",
            ),
            (
                ("expand", "--n", "3", "--lambda", "2,0,1", "--form", "E", "--basis", "tmon-aug"),
                "4174867c431f1c6871fede837c904923170d09e36b01a6c7fd110f320cfd0e97",
            ),
            (
                ("expand", "--n", "4", "--lambda", "2,1,1,0", "--form", "calJ",
                 "--basis", "tmon-partial", "--m", "0"),
                "d261c4978d674149d013d00170866133b034d8afe15e5204c06a74a3fd0778fa",
            ),
            # the benchmark's jack pin, the other expand workload invocation
            (
                ("verify", "--suite", "jack", "--n", "4", "--maxdeg", "5"),
                "9a4674bd2250069ddbeb4187796a3b802d2738ba8855ed4ed0e77d6556b800a3",
            ),
            # interchange zero runs longer than one
            (
                ("verify", "--suite", "oracle", "--n", "4", "--maxdeg", "4"),
                "7200bcc43dea9ddd4a5d4e1478f0e5ce29bdcbcdf106fc970e7ce8204b7ab189",
            ),
            # a Kostka degree past the benchmark's
            (
                ("kostka", "--degree", "6"),
                "4dd9248ded164e8e6c39584c4bcaf5b23fef39cf8c3c6cc510fd004da6898aee",
            ),
            (
                ("kostka", "--degree", "7"),
                "4b403ad9e5b0665e9201dd536a5d8cc8c3a5d71756cb50584d6a74f6ef9748a3",
            ),
        ],
    )
    def test_pinned_output(self, capsys, argv, sha256):
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    def test_degree_two_csv(self, capsys):
        code, out, _ = run(capsys, "kostka", "--degree", "2", "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == ",20,11"
        assert lines[1] == "20,1,q"
        assert lines[2] == "11,t,1"

    def test_schur_specialization(self, capsys):
        code, out, _ = run(
            capsys,
            "kostka", "--degree", "3", "--n", "3",
            "--specialize", "q=0,t=0", "--format", "csv",
        )
        assert code == EXIT_OK
        rows = [line.split(",")[1:] for line in out.strip().split("\n")[1:]]
        size = len(rows)
        for i in range(size):
            for j in range(size):
                assert rows[i][j] == ("1" if i == j else "0")

    def test_specialization_past_the_int_digit_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, _ = run(capsys, "kostka", "--degree", "4", "--specialize", "q=1e1000,t=2")
        assert code == EXIT_OK
        assert sys.get_int_max_str_digits() == limit
        entries = json.loads(out)["entries"]
        km = kostka_matrix(4, 4)
        qv, tv = Fraction(10**1000), Fraction(2)
        sys.set_int_max_str_digits(0)
        try:
            assert max(len(c) for row in entries for e in row for *_, c in e["num"]) > limit
            for row, expected in zip(entries, km.entries):
                for e, k in zip(row, expected):
                    assert ExactScalar.from_json(e).evaluate(qv, tv) == k.evaluate(qv, tv)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_integrality_exit_code(self, capsys, monkeypatch):
        bad = KostkaMatrix(1, 1, [(1,)])
        bad.entries = [[ExactScalar.one() / (ExactScalar.one() - ExactScalar.t())]]
        monkeypatch.setattr("kostka_forge.cli.kostka_matrix", lambda d, n: bad)
        code, _, err = run(capsys, "kostka", "--degree", "1", "--n", "1")
        assert code == EXIT_INTEGRALITY
        assert json.loads(err)["error"]["type"] == "IntegralityViolation"


class TestVerify:
    def test_passing_suite(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--suite", "hecke-relations",
            "--n", "2", "--trials", "5", "--seed", "7",
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["passed"] is True
        assert report["options"]["seed"] == 7

    def test_unknown_suite(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "no-such-suite")
        assert code == EXIT_VALIDATION

    def test_suite_without_checks_fails(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "t-schur", "--n", "4", "--maxdeg", "0")
        assert code == EXIT_VERIFY_FAILED
        report = json.loads(out)
        assert report["checks"] == []
        assert report["passed"] is False

    def test_suite_without_checks_says_why(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "t-schur", "--maxdeg", "0", "--trials", "1")
        assert code == EXIT_VERIFY_FAILED
        assert json.loads(out)["checks"] == []
        error = json.loads(err)["error"]
        assert error["type"] == "VerificationFailed"
        assert error["failed"] == "no checks ran"
        assert error["message"]

    def test_failed_checks_are_named_on_stderr(self, capsys, monkeypatch):
        def half_broken(n=3, maxdeg=4, seed=0, trials=None):
            return [
                {"name": "holds", "passed": True, "detail": ""},
                {"name": "always_fails", "passed": False, "detail": ""},
            ]

        from kostka_forge import verify as verify_mod

        monkeypatch.setitem(verify_mod.SUITES, "hecke-relations", half_broken)
        code, out, err = run(capsys, "verify", "--suite", "hecke-relations")
        assert code == EXIT_VERIFY_FAILED
        assert [c["name"] for c in json.loads(out)["checks"]] == ["holds", "always_fails"]
        error = json.loads(err)["error"]
        assert error["type"] == "VerificationFailed"
        assert error["failed"] == ["always_fails"]
        assert "1 of 2" in error["message"]

    def test_failing_suite_exit_code(self, capsys, monkeypatch):
        def broken(n=3, maxdeg=4, seed=0, trials=None):
            return [{"name": "always_fails", "passed": False, "detail": ""}]

        from kostka_forge import verify as verify_mod

        monkeypatch.setitem(verify_mod.SUITES, "hecke-relations", broken)
        code, out, _ = run(capsys, "verify", "--suite", "hecke-relations")
        assert code == EXIT_VERIFY_FAILED
        assert json.loads(out)["passed"] is False


    @staticmethod
    def failing_checks(capsys, *argv):
        code, out, _ = run(capsys, "verify", *argv)
        assert code == EXIT_VERIFY_FAILED
        checks = json.loads(out)["checks"]
        # a passing check carries no counterexample
        assert all(("counterexample" in c) != c["passed"] for c in checks)
        return {c["name"]: c["counterexample"] for c in checks if not c["passed"]}

    def test_oracle_failure_carries_a_counterexample(self, capsys, monkeypatch):
        from kostka_forge import verify as verify_mod

        two = ExactScalar.from_int(2)
        real_oracle, real_xi = verify_mod.eigen_oracle_E, verify_mod.apply_xi
        monkeypatch.setattr(
            verify_mod, "eigen_oracle_E",
            lambda lam: real_oracle(lam).scalar_mul(two) if lam == (0, 1) else real_oracle(lam),
        )
        monkeypatch.setattr(
            verify_mod, "apply_xi",
            lambda f, i, d="forward": real_xi(f, i, d).scalar_mul(two) if i == 2 else real_xi(f, i, d),
        )
        failed = self.failing_checks(capsys, "--suite", "oracle", "--n", "2", "--maxdeg", "2")
        assert sorted(failed) == ["oracle_eigen", "oracle_oracle"]
        e = nonsym_E((0, 1))
        assert failed["oracle_oracle"] == {
            "lambda": [0, 1], "lhs": e.to_json_dict(), "rhs": e.scalar_mul(two).to_json_dict()
        }
        one = ZPolynomial.one(2)
        t_inv = one.scalar_mul(ExactScalar.t(-1))
        assert failed["oracle_eigen"] == {
            "lambda": [0, 0], "i": 2, "lhs": t_inv.scalar_mul(two).to_json_dict(), "rhs": t_inv.to_json_dict()
        }

    @pytest.mark.parametrize("broken_on_E", [True, False])
    def test_oracle_fixpoint_is_decided_on_calE(self, capsys, monkeypatch, broken_on_E):
        # H_1 doubled on calE_(1,1,0) and, when broken_on_E, on E_(1,1,0):
        # the check fails either way, and shows both sides on E
        from kostka_forge import verify as verify_mod

        lam = (1, 1, 0)
        cal, e = macdonald.nonsym_calE(lam), nonsym_E(lam)
        broken = [cal, e] if broken_on_E else [cal]
        real = verify_mod.apply_hecke
        monkeypatch.setattr(
            verify_mod, "apply_hecke",
            lambda f, i, kind: real(f, i, kind).scalar_mul(ExactScalar.from_int(2))
            if i == 1 and kind == "H" and f in broken else real(f, i, kind),
        )
        failed = self.failing_checks(capsys, "--suite", "oracle", "--n", "3", "--maxdeg", "2")
        lhs = real(e, 1, "H")
        assert failed == {
            "oracle_fixpoint": {
                "lambda": list(lam),
                "i": 1,
                "lhs": (lhs.scalar_mul(ExactScalar.from_int(2)) if broken_on_E else lhs).to_json_dict(),
                "rhs": e.scalar_mul(ExactScalar.t()).to_json_dict(),
            }
        }

    def test_oracle_support_is_decided_on_calE(self, capsys, monkeypatch):
        # calE_(1,1) doubled: its coefficient at (1,1) is 2 d_(1,1), and the
        # counterexample shows E = 2 z_1 z_2 against the shape z_1 z_2
        from kostka_forge import verify as verify_mod

        real = verify_mod.nonsym_calE
        bad = real((1, 1)).scalar_mul(ExactScalar.from_int(2))
        monkeypatch.setattr(verify_mod, "nonsym_calE", lambda lam: bad if lam == (1, 1) else real(lam))
        failed = self.failing_checks(capsys, "--suite", "oracle", "--n", "2", "--maxdeg", "2")
        # E_(1,1) built from the broken form fails the oracle and Phi checks too
        assert sorted(failed) == ["oracle_oracle", "oracle_phi", "oracle_support"]
        z1z2 = ZPolynomial.monomial(2, (1, 1))
        assert failed["oracle_support"] == {
            "lambda": [1, 1],
            "lhs": z1z2.scalar_mul(ExactScalar.from_int(2)).to_json_dict(),
            "rhs": z1z2.to_json_dict(),
        }

    @staticmethod
    def broken_on(forms, real, i, kind):
        """real with the Hecke operator (i, kind) doubled on the given forms."""
        two = ExactScalar.from_int(2)
        return lambda f, j, k: real(f, j, k).scalar_mul(two) if (j, k) == (i, kind) and f in forms else real(f, j, k)

    @pytest.mark.parametrize("broken_on_E", [True, False])
    def test_oracle_phi_is_decided_on_calE(self, capsys, monkeypatch, broken_on_E):
        # Phi doubled on calE_(0,1) and, when broken_on_E, on E_(0,1): the
        # check at (1,1) fails either way and shows q^0 Phi(E_(0,1)) against E_(1,1)
        from kostka_forge import verify as verify_mod

        prev, lam = (0, 1), (1, 1)
        broken = [macdonald.nonsym_calE(prev), nonsym_E(prev)][: 2 if broken_on_E else 1]
        real = verify_mod.apply_phi
        two = ExactScalar.from_int(2)
        monkeypatch.setattr(
            verify_mod, "apply_phi", lambda f, v="Phi": real(f, v).scalar_mul(two) if f in broken else real(f, v)
        )
        failed = self.failing_checks(capsys, "--suite", "oracle", "--n", "2", "--maxdeg", "2")
        lhs = real(nonsym_E(prev), "Phi")
        assert failed == {
            "oracle_phi": {
                "lambda": list(lam),
                "lhs": (lhs.scalar_mul(two) if broken_on_E else lhs).to_json_dict(),
                "rhs": nonsym_E(lam).to_json_dict(),
            }
        }

    @pytest.mark.parametrize("broken_on_E", [True, False])
    def test_oracle_haction_is_decided_on_calE(self, capsys, monkeypatch, broken_on_E):
        # H_1 doubled on calE_(1,2,0) in the suite and, when broken_on_E, on
        # E_(1,2,0) in haction_step too: the check at (2,1,0), i = 1, fails
        # either way and shows haction_step's E_(2,1,0) against the true one
        from kostka_forge import verify as verify_mod

        swapped, lam = (1, 2, 0), (2, 1, 0)
        real = verify_mod.apply_hecke
        monkeypatch.setattr(verify_mod, "apply_hecke", self.broken_on([macdonald.nonsym_calE(swapped)], real, 1, "H"))
        if broken_on_E:
            monkeypatch.setattr(macdonald, "apply_hecke", self.broken_on([nonsym_E(swapped)], real, 1, "H"))
        failed = self.failing_checks(capsys, "--suite", "oracle", "--n", "3", "--maxdeg", "3")
        # x E_lam = [x H_1 + 1 - t] E_swapped, x = 1 - lbar_1 / lbar_2, with H_1 doubled when broken_on_E
        x = ExactScalar.one() - ExactScalar.qt_monomial(1, 1)
        h = real(nonsym_E(swapped), 1, "H").scalar_mul(ExactScalar.from_int(2 if broken_on_E else 1))
        lhs = (h.scalar_mul(x) + nonsym_E(swapped).scalar_mul(ExactScalar.one() - ExactScalar.t())).scalar_mul(x.inverse())
        assert failed == {
            "oracle_haction": {
                "lambda": list(lam),
                "i": 1,
                "lhs": lhs.to_json_dict(),
                "rhs": nonsym_E(lam).to_json_dict(),
            }
        }

    @pytest.mark.parametrize("broken_on_E", [True, False])
    def test_oracle_interchange_is_decided_on_calE(self, capsys, monkeypatch, broken_on_E):
        # Hbar_1 doubled on calE_(0,1) and, when broken_on_E, on E_(0,1):
        # the check at (1,0), a = 1, b = 2, fails either way and shows
        # (1 - c) E_(1,0) against [Hbar_1 - c H_1] E_(0,1), c = q t
        from kostka_forge import verify as verify_mod

        mu, lam = (0, 1), (1, 0)
        broken = [macdonald.nonsym_calE(mu), nonsym_E(mu)][: 2 if broken_on_E else 1]
        real = verify_mod.apply_hecke
        monkeypatch.setattr(verify_mod, "apply_hecke", self.broken_on(broken, real, 1, "Hbar"))
        failed = self.failing_checks(capsys, "--suite", "oracle", "--n", "2", "--maxdeg", "2")
        c = ExactScalar.qt_monomial(1, 1)
        g = real(nonsym_E(mu), 1, "Hbar").scalar_mul(ExactScalar.from_int(2 if broken_on_E else 1))
        assert failed == {
            "oracle_interchange": {
                "lambda": list(lam),
                "a": 1,
                "b": 2,
                "lhs": nonsym_E(lam).scalar_mul(ExactScalar.one() - c).to_json_dict(),
                "rhs": (g - real(nonsym_E(mu), 1, "H").scalar_mul(c)).to_json_dict(),
            }
        }

    def test_passing_oracle_run_builds_no_E_of_its_own(self, capsys, monkeypatch):
        # a passing run reads E_lam off the eigen-oracle: only a failure calls nonsym_E
        from kostka_forge import verify as verify_mod

        def refused(lam):
            raise AssertionError(f"the suite built E_{lam}")

        monkeypatch.setattr(verify_mod, "nonsym_E", refused)
        code, out, _ = run(capsys, "verify", "--suite", "oracle", "--n", "3", "--maxdeg", "4")
        assert code == EXIT_OK
        assert json.loads(out)["passed"] is True

    def test_integrality_failure_carries_a_counterexample(self, capsys, monkeypatch):
        from kostka_forge import verify as verify_mod

        real = verify_mod.nonsym_calE
        bad = real((1, 0)).scalar_mul(ExactScalar.q(-1))
        monkeypatch.setattr(verify_mod, "nonsym_calE", lambda lam: bad if lam == (1, 0) else real(lam))
        failed = self.failing_checks(capsys, "--suite", "integrality", "--n", "2", "--maxdeg", "2")
        assert sorted(failed) == ["calE_coefficients_integral", "partial_tmono_integral"]
        assert failed["calE_coefficients_integral"] == {"lambda": [1, 0], "form": bad.to_json_dict()}
        assert failed["partial_tmono_integral"] == {
            "lambda": [1, 0],
            "m": 1,
            "form": bad.to_json_dict(),
            "expansion": macdonald.expand_in_partial_t_monomials(bad, 1).to_json_dict(),
        }

    def test_hecke_relations_failure_carries_a_counterexample(self, capsys, monkeypatch):
        from kostka_forge import verify as verify_mod

        real = verify_mod.apply_hecke
        monkeypatch.setattr(
            verify_mod, "apply_hecke",
            lambda f, i, kind: real(f, i, kind).scalar_mul(ExactScalar.from_int(2))
            if kind == "H_inv" else real(f, i, kind),
        )
        argv = ("--suite", "hecke-relations", "--n", "2", "--trials", "3", "--seed", "5")
        failed = self.failing_checks(capsys, *argv)
        assert sorted(failed) == ["inverse_H1"]
        # the k-th check draws the inputs 3k, 3k + 1 and 3k + 2 from the seeded stream
        k = [name for name, _ in verify_mod._hecke_relation_checks(2)].index("inverse_H1")
        rng = random.Random(5)
        inputs = [random_zpoly(rng, 2, 4) for _ in range(3 * k + 1)]
        assert failed["inverse_H1"] == {"trial": 0, "f": inputs[-1].to_json_dict()}

    def test_degeneration_failure_carries_a_counterexample(self, capsys, monkeypatch):
        from kostka_forge import verify as verify_mod

        real = verify_mod.nonsym_calE
        bad = real((1, 0)).scalar_mul(ExactScalar.from_int(2))
        monkeypatch.setattr(verify_mod, "nonsym_calE", lambda lam: bad if lam == (1, 0) else real(lam))
        failed = self.failing_checks(capsys, "--suite", "degeneration", "--n", "2", "--maxdeg", "2")
        assert failed == {
            "calE_q0_is_tmonomial": {
                "lambda": [1, 0],
                "lhs": bad.specialize(qv=0).to_json_dict(),
                "rhs": macdonald.t_monomial((1, 0)).to_json_dict(),
            }
        }

    def test_hall_littlewood_failure_carries_a_counterexample(self, capsys, monkeypatch):
        from kostka_forge import verify as verify_mod

        two = ExactScalar.from_int(2)
        real = verify_mod.schur_bialternant
        monkeypatch.setattr(
            verify_mod, "schur_bialternant",
            lambda mu, n: real(mu, n).scalar_mul(two) if tuple(mu) == (1, 1) else real(mu, n),
        )
        failed = self.failing_checks(capsys, "--suite", "hall-littlewood", "--n", "2", "--maxdeg", "2")
        assert failed == {
            "hl_t0_is_schur": {
                "lambda": [1, 1],
                "lhs": macdonald.hall_littlewood((1, 1), "P", 2).specialize(tv=0).to_json_dict(),
                "rhs": real((1, 1), 2).scalar_mul(two).to_json_dict(),
            }
        }

    def test_hall_littlewood_triangularity_names_the_wrong_coordinate(self, capsys, monkeypatch):
        from kostka_forge import verify as verify_mod

        five = ExactScalar.from_int(5)
        real = verify_mod.msym_coords
        # P_(1,1) = m_(1,1), and m_(2,0) lies above m_(1,1) in dominance
        monkeypatch.setattr(
            verify_mod, "msym_coords",
            lambda f: {**real(f), (2, 0): five} if set(real(f)) == {(1, 1)} else real(f),
        )
        failed = self.failing_checks(capsys, "--suite", "hall-littlewood", "--n", "2", "--maxdeg", "2")
        assert failed == {"hl_unitriangular": {"lambda": [1, 1], "rho": [2, 0], "coefficient": five.to_json()}}

    def test_t_schur_failure_carries_a_counterexample(self, capsys, monkeypatch):
        from kostka_forge import verify as verify_mod

        seven = ExactScalar.from_int(7)
        real = verify_mod._solve_scalar_system

        def solve(basis, targets):
            rows = [list(row) for row in real(basis, targets)]
            if len(rows) == 2:  # degree 2, rows and columns (2,0), (1,1)
                rows[0][1] = seven
            return rows

        monkeypatch.setattr(verify_mod, "_solve_scalar_system", solve)
        failed = self.failing_checks(capsys, "--suite", "t-schur", "--n", "2", "--maxdeg", "2")
        assert failed == {
            "t_schur_unitriangular_d2": {"degree": 2, "mu": [2, 0], "lambda": [1, 1], "entry": seven.to_json()}
        }

    def test_jack_failure_carries_a_counterexample(self, capsys, monkeypatch):
        from kostka_forge import verify as verify_mod

        real = verify_mod.jack_sym
        monkeypatch.setattr(verify_mod, "jack_sym", lambda lam: -real(lam) if lam == (2, 0) else real(lam))
        failed = self.failing_checks(capsys, "--suite", "jack", "--n", "2", "--maxdeg", "2")
        # -J_(2,0) = -(m_(1,1) + (a + 1) m_(2,0)): its first coefficient is already negative
        assert failed == {"jack_sym_positive": {"lambda": [2, 0], "label": [1, 1], "coefficient": "-1"}}

    def test_jack_limit_failure_names_the_worst_gap(self, capsys, monkeypatch):
        from kostka_forge import verify as verify_mod

        real = verify_mod.numeric_limit_check
        monkeypatch.setattr(
            verify_mod, "numeric_limit_check",
            lambda lam, a, t0: 0.25 if (lam, a) == ((0, 1), 2) else real(lam, a, t0),
        )
        failed = self.failing_checks(capsys, "--suite", "jack", "--n", "2", "--maxdeg", "2")
        assert failed == {"jack_numeric_limit": {"lambda": [0, 1], "alpha": 2, "gap": 0.25}}

    def test_xi_triangularity_failure_carries_a_counterexample(self, capsys, monkeypatch):
        # with order_leq saying "greater", no term of xi_i z^lam - lbar_i z^lam lies below lam
        from kostka_forge import verify as verify_mod

        monkeypatch.setattr(verify_mod, "order_leq", lambda mu, lam: "greater")
        failed = self.failing_checks(capsys, "--suite", "hecke-relations", "--n", "2", "--trials", "3")
        assert sorted(failed) == ["xi_triangularity"]
        assert set(failed["xi_triangularity"]) == {"trial", "lambda", "i"}

    def test_oracle_fixpoint_decides_Hbar_too(self, capsys, monkeypatch):
        # Hbar_1 doubled on calE_(1,1,0) only: H_1 still fixes it up to t,
        # and the check fails on the Hbar arm, showing Hbar_1 E against E
        from kostka_forge import verify as verify_mod

        lam = (1, 1, 0)
        real = verify_mod.apply_hecke
        monkeypatch.setattr(verify_mod, "apply_hecke", self.broken_on([macdonald.nonsym_calE(lam)], real, 1, "Hbar"))
        failed = self.failing_checks(capsys, "--suite", "oracle", "--n", "3", "--maxdeg", "2")
        e = nonsym_E(lam)
        assert failed == {
            "oracle_fixpoint": {"lambda": list(lam), "i": 1, "lhs": real(e, 1, "Hbar").to_json_dict(), "rhs": e.to_json_dict()}
        }

    @staticmethod
    def refusing_at(real, refused):
        """real(f, m, ...) raising NotInSpan where refused(m) holds."""

        def expand(f, m, *args):
            if refused(m):
                raise NotInSpan(f"refused at m = {m}")
            return real(f, m, *args)

        return expand

    def test_partial_tmono_span_failure_carries_a_counterexample(self, capsys, monkeypatch):
        from kostka_forge import verify as verify_mod

        real = verify_mod.expand_in_partial_t_monomials
        monkeypatch.setattr(verify_mod, "expand_in_partial_t_monomials", self.refusing_at(real, lambda m: m == 2))
        failed = self.failing_checks(capsys, "--suite", "integrality", "--n", "2", "--maxdeg", "2")
        assert sorted(failed) == ["partial_tmono_in_span"]
        assert set(failed["partial_tmono_in_span"]) == {"lambda", "m", "form"}
        assert failed["partial_tmono_in_span"]["m"] == 2

    def test_calJ_outside_the_span_is_a_failed_check(self, capsys, monkeypatch):
        # a calJ_lam with no level-0 expansion fails calJ_tmono_integral; the
        # run still reports every check and exits 5, not 3
        from kostka_forge import verify as verify_mod

        real = verify_mod.expand_in_partial_t_monomials
        monkeypatch.setattr(verify_mod, "expand_in_partial_t_monomials", self.refusing_at(real, lambda m: m == 0))
        failed = self.failing_checks(capsys, "--suite", "integrality", "--n", "2", "--maxdeg", "2")
        # calE_(0,0) is expanded at level 0 too
        assert sorted(failed) == ["calJ_tmono_integral", "partial_tmono_in_span"]
        assert failed["calJ_tmono_integral"] == {
            "lambda": [0, 0], "form": macdonald.sym_calJ((0, 0)).to_json_dict()
        }

    def test_calJ_integrality_failure_carries_a_counterexample(self, capsys, monkeypatch):
        from kostka_forge import verify as verify_mod

        real = verify_mod.sym_calJ
        bad = real((1, 0)).scalar_mul(ExactScalar.q(-1))
        monkeypatch.setattr(verify_mod, "sym_calJ", lambda lam: bad if lam == (1, 0) else real(lam))
        failed = self.failing_checks(capsys, "--suite", "integrality", "--n", "2", "--maxdeg", "2")
        assert failed == {
            "calJ_tmono_integral": {
                "lambda": [1, 0],
                "form": bad.to_json_dict(),
                "expansion": macdonald.expand_in_partial_t_monomials(bad, 0).to_json_dict(),
            }
        }

    def test_augmented_ladder_outside_the_span_is_a_failed_check(self, capsys, monkeypatch):
        from kostka_forge import verify as verify_mod

        real = verify_mod.expand_in_partial_t_monomials
        monkeypatch.setattr(verify_mod, "expand_in_partial_t_monomials", self.refusing_at(real, lambda m: m == 2))
        failed = self.failing_checks(capsys, "--suite", "degeneration", "--n", "2", "--maxdeg", "2")
        assert sorted(failed) == ["augmented_level_ladder"]
        assert set(failed["augmented_level_ladder"]) == {"lambda", "m", "form"}
        assert failed["augmented_level_ladder"]["m"] == 2

    def test_augmented_ladder_integrality_failure_carries_the_expansion(self, capsys, monkeypatch):
        # the level-1 basis scaled by q^-1 expands at level 2 with coefficients outside Z[t]
        from kostka_forge import verify as verify_mod

        real, q_inv = verify_mod.t_monomial_partial, ExactScalar.q(-1)
        monkeypatch.setattr(
            verify_mod, "t_monomial_partial",
            lambda lam, m, augmented=False: real(lam, m, augmented).scalar_mul(q_inv) if m == 1 else real(lam, m, augmented),
        )
        failed = self.failing_checks(capsys, "--suite", "degeneration", "--n", "2", "--maxdeg", "2")
        assert sorted(failed) == ["augmented_level_ladder"]
        assert set(failed["augmented_level_ladder"]) == {"lambda", "m", "form", "expansion"}
        assert failed["augmented_level_ladder"]["m"] == 2

    def test_hall_littlewood_symmetry_stops_at_the_first_failing_i(self, capsys, monkeypatch):
        # every s_i doubled: each partition fails at i = 1, and s_2 is never tried
        from kostka_forge import verify as verify_mod

        real, tried = verify_mod.apply_reflection, []

        def doubled(f, i):
            tried.append(i)
            return real(f, i).scalar_mul(ExactScalar.from_int(2))

        monkeypatch.setattr(verify_mod, "apply_reflection", doubled)
        failed = self.failing_checks(capsys, "--suite", "hall-littlewood", "--n", "3", "--maxdeg", "2")
        assert sorted(failed) == ["hl_symmetric"]
        assert set(failed["hl_symmetric"]) == {"lambda", "i", "lhs", "rhs"}
        assert failed["hl_symmetric"]["i"] == 1
        assert tried and set(tried) == {1}

    def test_jack_nonsym_span_failure_carries_a_counterexample(self, capsys, monkeypatch):
        from kostka_forge import verify as verify_mod

        real = verify_mod.expand_in_limit_basis
        monkeypatch.setattr(verify_mod, "expand_in_limit_basis", self.refusing_at(real, lambda m: m >= 1))
        failed = self.failing_checks(capsys, "--suite", "jack", "--n", "2", "--maxdeg", "2")
        assert sorted(failed) == ["jack_nonsym_in_span"]
        assert set(failed["jack_nonsym_in_span"]) == {"lambda", "m"}
        assert failed["jack_nonsym_in_span"]["m"] >= 1

    def test_jack_sym_outside_the_span_is_a_failed_check(self, capsys, monkeypatch):
        # a J_lam with no level-0 expansion fails jack_sym_positive; the run
        # still reports every check and exits 5, not 3
        from kostka_forge import verify as verify_mod

        real = verify_mod.expand_in_limit_basis
        monkeypatch.setattr(verify_mod, "expand_in_limit_basis", self.refusing_at(real, lambda m: m == 0))
        failed = self.failing_checks(capsys, "--suite", "jack", "--n", "2", "--maxdeg", "2")
        # J_(0,0) is also the nonsymmetric form of (0,0), expanded at level 0
        assert sorted(failed) == ["jack_nonsym_in_span", "jack_sym_positive"]
        assert failed["jack_sym_positive"] == {"lambda": [0, 0], "m": 0}

    def test_run_suite_refuses_an_unknown_name(self):
        with pytest.raises(ValueError, match="unknown suite 'no-such-suite'"):
            run_suite("no-such-suite")

    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_every_check_has_the_report_keys(self, suite):
        checks = run_suite(suite, n=2, maxdeg=2, trials=2)["checks"]
        assert checks
        for check in checks:
            extra = set() if check["passed"] else {"counterexample"}
            assert set(check) == {"name", "passed", "detail"} | extra


def _random_zpoly_by_exact_sums(rng, n, maxdeg=4, max_terms=5, coeff_bound=5):
    """random_zpoly with each draw added as an ExactScalar and a term
    deleted where its sum cancels."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        deg = rng.randint(0, maxdeg)
        exps = [0] * n
        for _ in range(deg):
            exps[rng.randrange(n)] += 1
        c = 0
        while c == 0:
            c = rng.randint(-coeff_bound, coeff_bound)
        key = tuple(exps)
        s = terms.get(key, ExactScalar.zero()) + ExactScalar.from_int(c)
        if s:
            terms[key] = s
        elif key in terms:
            del terms[key]
    if not terms:
        terms = {(0,) * n: ExactScalar.one()}
    return ZPolynomial(n, terms)


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("maxdeg, max_terms, coeff_bound", [(4, 5, 5), (3, 3, 5), (1, 8, 1), (0, 6, 2)])
def test_random_zpoly_sums_its_draws_as_ints(n, maxdeg, max_terms, coeff_bound):
    """The same polynomial, in the same term order, from the same draws as
    the generator that sums ExactScalars; small sizes make cancellation
    and the all-cancelled constant 1 common."""
    for seed in range(40):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(5):
            f = random_zpoly(rng, n, maxdeg, max_terms, coeff_bound)
            g = _random_zpoly_by_exact_sums(ref, n, maxdeg, max_terms, coeff_bound)
            assert list(f.terms.items()) == list(g.terms.items())
        assert rng.getstate() == ref.getstate()


class TestDeterminism:
    def test_table_bytes_stable_across_parallelism(self, tmp_path):
        paths = [tmp_path / f"t{i}.json" for i in range(3)]
        assert main(["table", "--n", "2", "--maxdeg", "3", "--output", str(paths[0])]) == 0
        assert main(
            ["table", "--n", "2", "--maxdeg", "3", "--parallel", "2", "--output", str(paths[1])]
        ) == 0
        assert main(
            ["table", "--n", "2", "--maxdeg", "3", "--parallel", "4", "--output", str(paths[2])]
        ) == 0
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_table_is_written_entry_by_entry(self, capsys, monkeypatch):
        # no single serialization holds the whole table
        serialize = cli.canonical_json
        sizes = []

        def spy(obj):
            text = serialize(obj)
            sizes.append(len(text))
            return text

        monkeypatch.setattr(cli, "canonical_json", spy)
        code, out, _ = run(capsys, "table", "--n", "3", "--maxdeg", "4")
        assert code == EXIT_OK
        assert len(json.loads(out)["entries"]) == 35
        assert sizes and max(sizes) <= len(out) / 2

    def test_env_var_parallelism(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["table", "--n", "2", "--maxdeg", "2", "--output", str(a)]) == 0
        monkeypatch.setenv("KOSTKA_FORGE_THREADS", "3")
        assert main(["table", "--n", "2", "--maxdeg", "2", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_kostka_bytes_stable(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["kostka", "--degree", "3", "--n", "3", "--output", str(a)]) == 0
        assert main(
            ["kostka", "--degree", "3", "--n", "3", "--parallel", "2", "--output", str(b)]
        ) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCollectorPause:
    """main pauses the cyclic collector, which is only sound if the values it
    builds form no reference cycles."""

    @contextlib.contextmanager
    def collector(self, enabled):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            yield
        finally:
            (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize(
        "argv, code",
        [
            (("table", "--n", "2", "--maxdeg", "1"), EXIT_OK),
            (("kostka", "--degree", "-1"), EXIT_VALIDATION),
        ],
    )
    def test_caller_setting_is_restored(self, capsys, enabled, argv, code):
        with self.collector(enabled):
            assert run(capsys, *argv)[0] == code
            assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_caller_setting_is_restored_after_help(self, capsys, enabled):
        with self.collector(enabled):
            with pytest.raises(SystemExit):
                main(["table", "--help"])
            assert gc.isenabled() is enabled
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ("table", "--n", "3", "--maxdeg", "4"),
            ("verify", "--suite", "oracle", "--n", "2", "--maxdeg", "2"),
        ],
    )
    def test_runs_leave_no_cyclic_garbage(self, capsys, cold_caches, argv):
        # cold caches, so everything is built
        flags = gc.get_debug()
        gc.collect()
        gc.garbage.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert run(capsys, *argv)[0] == EXIT_OK
            gc.collect()
            kinds = (ZPolynomial, QTPolynomial, ExactScalar, AlphaPolynomial)
            assert [type(x).__name__ for x in gc.garbage if isinstance(x, kinds)] == []
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()


# Small or garbage values: every invocation finishes in well under a second.
SIZES = ["-1", "0", "1", "2", "3", "abc"]
MAXDEGS = ["-1", "0", "1", "2", "x"]
LAMBDAS = ["0", "1", "1,0", "0,1", "2,1", "1,x", "", "-1,1", "1,0,1", "1,1,1"]
SPECS = [
    "q=0,t=0", "q=1/2", "t=-1", "q=1/0", "t=1/0", "q=1,q=2", "x=1", "q", "t=abc",
    "q=1e1000,t=2", "q=1e999999999",
]


def _opt(flag, values):
    """Leave the flag out, or pass it with one of the values."""
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [flag, v]))


def _cmd(command, *options):
    return st.tuples(*options).map(lambda parts: [command] + [a for p in parts for a in p])


ARGV = st.one_of(
    _cmd(
        "expand",
        _opt("--n", SIZES),
        _opt("--lambda", LAMBDAS),
        _opt("--form", ["E", "calE", "J", "calJ", "K"]),
        _opt("--basis", ["monomial", "tmon", "tmon-partial", "tmon-aug", "foo"]),
        _opt("--m", SIZES),
        _opt("--format", ["json", "latex", "csv"]),
    ),
    _cmd(
        "kostka",
        _opt("--degree", SIZES),
        _opt("--n", SIZES),
        _opt("--specialize", SPECS),
        _opt("--format", ["json", "csv", "latex", "xml"]),
        _opt("--parallel", SIZES),
    ),
    # --maxdeg and --trials are always passed: their defaults are slow
    _cmd(
        "verify",
        _opt("--suite", sorted(SUITES) + ["no-such-suite"]),
        _opt("--n", SIZES),
        st.sampled_from(MAXDEGS).map(lambda v: ["--maxdeg", v]),
        st.sampled_from(["-1", "0", "1", "2", "y"]).map(lambda v: ["--trials", v]),
        _opt("--seed", ["0", "7", "z"]),
    ),
    _cmd("table", _opt("--n", SIZES), _opt("--maxdeg", MAXDEGS), _opt("--parallel", SIZES)),
    st.sampled_from([[], ["frobnicate"], ["--n", "2"]]),
)


@settings(deadline=None, max_examples=100)
@given(argv=ARGV)
@example(argv=["verify", "--suite", "t-schur", "--maxdeg", "0", "--trials", "1"])
def test_fuzz_argv_ends_in_documented_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except (Exception, SystemExit) as exc:
        raise AssertionError(f"{argv}: {exc!r} escaped main") from exc
    assert code in (0, 2, 3, 4, 5)
    text = err.getvalue()
    assert "Traceback" not in text
    if code:
        assert "type" in json.loads(text.strip().splitlines()[-1])["error"]
