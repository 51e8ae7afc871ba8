"""Command-line behavior: canonical output, exit codes, round-trips and
byte determinism across parallelism settings."""

import contextlib
import gc
import hashlib
import io
import json
import sys
import time
from fractions import Fraction

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
from kostka_forge.macdonald import KostkaMatrix, kostka_matrix, nonsym_E
from kostka_forge.qt import ExactScalar, QTPolynomial
from kostka_forge.verify import SUITES
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
            (("kostka", "--degree", "7", "--n", "8"), "kostka_matrix"),
            (("expand", "--n", "2", "--lambda", "24,0", "--form", "J", "--basis", "tmon"), "sym_J"),
            (("expand", "--n", "3", "--lambda", "16,0,0", "--form", "E"), "nonsym_E"),
            (("expand", "--n", "8", "--lambda", "5,0,0,0,0,0,0,0"), "nonsym_calE"),
            (("table", "--n", "4", "--maxdeg", "10"), "nonsym_calE"),
            (("table", "--n", "8", "--maxdeg", "5"), "nonsym_calE"),
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
    def test_runs_leave_no_cyclic_garbage(self, capsys, monkeypatch, argv):
        for cache in ("_CALE_CACHE", "_TMONO_CACHE", "_XI_MONO_CACHE"):
            monkeypatch.setattr(macdonald, cache, {})  # cold, so everything is built
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
