import contextlib
import csv
import dataclasses
import io
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithfn import cli, convolution
from arithfn.cli import run
from arithfn.convolution import VerificationReport, list_identity_presets
from arithfn.series import list_series_presets
from test_convolution import expression_trees


def out_lines(capsys):
    return capsys.readouterr().out.strip().splitlines()


class TestFactorCommand:
    def test_natural(self, capsys):
        assert run(["factor", "60"]) == 0
        assert out_lines(capsys) == ["60 = 2^2 * 3 * 5"]

    def test_unit(self, capsys):
        assert run(["factor", "1"]) == 0
        assert out_lines(capsys) == ["1 = 1"]

    def test_rational(self, capsys):
        assert run(["factor", "--rational", "8/9"]) == 0
        assert out_lines(capsys) == ["8/9 = 2^3 * 3^-2"]

    def test_json(self, capsys):
        assert run(["factor", "60", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj == {"input": "60", "kind": "natural", "factors": [[2, 2], [3, 1], [5, 1]]}

    def test_csv(self, capsys):
        assert run(["factor", "12", "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows == [["prime", "exponent"], ["2", "2"], ["3", "1"]]

    def test_requires_exactly_one_input(self, capsys):
        assert run(["factor"]) == 2
        assert run(["factor", "6", "--rational", "1/2"]) == 2

    def test_malformed_rational(self, capsys):
        assert run(["factor", "--rational", "8:9"]) == 2
        assert run(["factor", "--rational", "0/3"]) == 2


class TestNumberArguments:
    """Integer and rational arguments keep to the grammar of exact-number text,
    -?[0-9]+(/[0-9]+)?, which int() alone would widen."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["factor", "\u0661\u0662"],
            ["factor", "12/1"],
            ["factor", "--rational", "\u0663/2"],
            ["factor", "--rational", "+3/2"],
            ["factor", "--rational", "3_0/2"],
            ["factor", "--rational", "3/+2"],
            ["eval", "delta", "--rational", " 3/2"],
            ["convolve", "one", "one", "--at", "\u0663"],
            ["verify", "eq13", "--limit", "10", "--seed", "+1"],
            ["series", "cor-sigmak", "--s", "5", "--limit", "1000", "--primes", "1000", "--tol", "0.01", "--k", "\u0662"],
        ],
    )
    def test_other_forms_exit_two_with_one_line(self, capsys, argv):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv, out",
        [
            (["factor", "--rational", "30/2"], "30/2 = 3 * 5"),
            (["factor", "0012"], "12 = 2^2 * 3"),
            (["eval", "delta", "--rational", "3/2"], "-1/4"),
        ],
    )
    def test_accepted_forms_echo_as_written(self, capsys, argv, out):
        assert run(argv) == 0
        assert out_lines(capsys) == [out]


BIG_PRIME = "1000000000000000003"
PAST_PSI13 = "10000000000039000000000000037"  # no prime factor below 1000, and above psi_13


class TestFactorBoundary:
    """Inputs past trial division: prime tests and factorizations that once ran for hours."""

    @pytest.mark.parametrize(
        "argv, out",
        [
            (["factor", BIG_PRIME], f"{BIG_PRIME} = {BIG_PRIME}"),
            (["eval", "delta", BIG_PRIME], "1"),
            (["eval", f"delta_p:{BIG_PRIME}", "6"], "0"),
            (["factor", str(2**200)], f"{2**200} = 2^200"),
        ],
        ids=["factor-prime", "delta-prime", "partial-at-prime", "smooth"],
    )
    def test_exits_zero_within_seconds(self, capsys, argv, out):
        start = time.perf_counter()
        assert run(argv) == 0
        assert time.perf_counter() - start < 5
        assert out_lines(capsys) == [out]

    @pytest.mark.parametrize(
        "argv",
        [["factor", PAST_PSI13], ["eval", "delta", "--rational", f"1/{PAST_PSI13}"]],
        ids=["factor", "eval-rational"],
    )
    def test_cofactor_past_psi13_exits_two_with_one_line(self, capsys, argv):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert PAST_PSI13 in captured.err and "Traceback" not in captured.err


class TestEvalCommand:
    def test_delta_60(self, capsys):
        assert run(["eval", "delta", "60"]) == 0
        assert out_lines(capsys) == ["92"]

    def test_rational(self, capsys):
        assert run(["eval", "delta", "--rational", "3/2"]) == 0
        assert out_lines(capsys) == ["-1/4"]

    def test_partial(self, capsys):
        assert run(["eval", "delta_p:2", "12"]) == 0
        assert out_lines(capsys) == ["12"]

    def test_mangoldt(self, capsys):
        assert run(["eval", "mangoldt:ld", "8"]) == 0
        assert out_lines(capsys) == ["1/2"]

    def test_mangoldt_rejects_rational(self, capsys):
        assert run(["eval", "mangoldt:ld", "--rational", "1/2"]) == 2
        assert "natural" in capsys.readouterr().err

    def test_unknown_function(self, capsys):
        assert run(["eval", "sqrt", "4"]) == 2

    def test_every_builtin_as_in_expressions(self, capsys):
        for name in ["one", "id", "id_-1", "eps", "mu", "tau", "phi", "sigma_2", "ld", "mangoldt:delta_p:2"]:
            assert run(["eval", name, "360"]) == 0
            assert run(["convolve", name, "eps", "--at", "360"]) == 0
            value, conv = out_lines(capsys)
            assert value == conv, name

    @pytest.mark.parametrize("name", ["tau", "id", "mangoldt:delta"])
    def test_rational_takes_leibniz_additive_names_only(self, capsys, name):
        assert run(["eval", name, "--rational", "7/12"]) == 2
        assert capsys.readouterr().err == f"error: {name} is defined on natural numbers only\n"

    def test_json(self, capsys):
        assert run(["eval", "ld", "8", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj == {"function": "ld", "argument": "8", "value": "3/2"}


class TestConvolveCommand:
    def test_table(self, capsys):
        assert run(["convolve", "id", "delta", "--limit", "6"]) == 0
        lines = out_lines(capsys)
        assert lines[5] == "6\t10"

    def test_at(self, capsys):
        assert run(["convolve", "one", "one", "--at", "12"]) == 0
        assert out_lines(capsys) == ["6"]

    def test_json(self, capsys):
        assert run(["convolve", "eps", "tau", "--limit", "4", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["limit"] == 4
        assert obj["values"] == ["1/1", "2/1", "2/1", "3/1"]

    def test_csv(self, capsys):
        assert run(["convolve", "one", "mu", "--limit", "3", "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows == [["n", "value"], ["1", "1/1"], ["2", "0/1"], ["3", "0/1"]]

    def test_parse_error(self, capsys):
        assert run(["convolve", "1 * id", "one"]) == 2
        assert "one" in capsys.readouterr().err


class TestVerifyCommand:
    def test_single_json(self, capsys):
        assert run(["verify", "eq13", "--limit", "2000", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["identity"] == "eq13"
        assert obj["range"] == 2000
        assert obj["holds"] is True

    def test_all_at_1000_exits_zero(self, capsys):
        assert run(["verify", "all", "--limit", "1000"]) == 0
        lines = out_lines(capsys)
        assert lines[-1].startswith("20/20 identities hold")

    def test_corruption_flips_exit_code(self, capsys, monkeypatch):
        tau = convolution._CATALOG["tau"]

        def corrupted_tab(limit, sieve):
            vals = tau.tabulate(limit, sieve)
            if limit >= 100:
                vals[100] += 1
            return vals

        monkeypatch.setitem(convolution._CATALOG, "tau", dataclasses.replace(tau, tabulate=corrupted_tab))
        assert run(["verify", "all", "--limit", "1000"]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_unknown_identity(self, capsys):
        assert run(["verify", "eq99"]) == 2
        assert "unknown name" in capsys.readouterr().err

    def test_csv(self, capsys):
        assert run(["verify", "eq13", "--limit", "100", "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["identity", "range", "holds", "mismatch_n", "case", "lhs", "rhs", "elapsed_s"]
        assert rows[1][0] == "eq13"
        assert rows[1][2] == "True"

    def test_seed_accepted(self, capsys):
        assert run(["verify", "compmult-distr", "--limit", "200", "--seed", "9"]) == 0


class TestSeriesCommand:
    def test_pass(self, capsys):
        rc = run(
            ["series", "thm3.3", "--s", "4", "--limit", "20000", "--primes", "20000",
             "--tol", "1e-6", "--format", "json"]
        )
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["pass"] is True
        assert obj["N"] == 20000

    def test_tolerance_breach_exits_one(self, capsys):
        rc = run(["series", "thm3.3", "--s", "4", "--limit", "100", "--primes", "1000",
                  "--tol", "1e-12"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_out_of_domain(self, capsys):
        assert run(["series", "thm3.3", "--s", "1.5", "--limit", "100", "--primes", "100"]) == 2
        assert "Re(s)" in capsys.readouterr().err

    def test_complex_s(self, capsys):
        rc = run(["series", "lemma-Fld", "--s", "3,1", "--limit", "5000", "--primes", "5000",
                  "--tol", "1e-6", "--format", "json"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["s"] == {"re": 3.0, "im": 1.0}

    def test_sigmak_k_flag(self, capsys):
        rc = run(["series", "cor-sigmak", "--s", "6", "--limit", "5000", "--primes", "5000",
                  "--tol", "1e-4", "--k", "2"])
        assert rc == 0

    def test_unknown_preset(self, capsys):
        assert run(["series", "cor-42", "--s", "4"]) == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "s",
        ["1.2711610061536462e+308,1.2711610061536464e+308", "2,1.6363308087894492e+308"],
        ids=["modulus-overflows", "phase-overflows"],
    )
    def test_point_near_the_float_range(self, capsys, s):
        assert run(["series", "lemma-Fld", f"--s={s}", "--limit", "3", "--primes", "2"]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    def test_tolerance_must_be_finite(self, capsys, tol):
        assert run(["series", "thm3.3", "--s", "5", "--tol", tol]) == 2
        assert capsys.readouterr().err == "arithfn series: error: argument --tol: value must be finite and > 0\n"


class TestDeepExpressions:
    @pytest.mark.parametrize(
        "argv",
        [
            ["convolve", "(" * 5000 + "one" + ")" * 5000, "one"],
            ["convolve", " * ".join(["one"] * 3000), "one", "--limit", "10"],
            ["convolve", " * ".join(["one"] * 3000), "one", "--at", "12"],
            ["convolve", " + ".join(["one"] * 3000), "one"],
        ],
        ids=["nested-parens", "conv-chain-limit", "conv-chain-at", "sum-chain"],
    )
    def test_rejected_with_one_line(self, capsys, argv):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


# a prime subscript past psi_13, and past the 4300 digits int() converts
_HUGE_DELTA_P = "delta_p:" + "7" * 5000


class TestOversizedInputs:
    @pytest.mark.parametrize(
        "argv, token",
        [
            (["convolve", "sigma_99999999", "one", "--at", "6"], "sigma_99999999"),
            (["convolve", "id_100000", "one", "--limit", "3"], "id_100000"),
            (["convolve", "one", "id_-65", "--format", "csv"], "id_-65"),
            (["series", "cor-sigmak", "--s", "70", "--k", "65"], "sigma_65"),
        ],
        ids=["sigma-at", "id-limit", "negative-id-csv", "series-k"],
    )
    def test_huge_exponent_rejected_with_one_line(self, capsys, argv, token):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert repr(token) in captured.err

    @pytest.mark.parametrize(
        "argv",
        [["eval", _HUGE_DELTA_P, "12"], ["eval", _HUGE_DELTA_P, "--rational", "3/2"], ["convolve", _HUGE_DELTA_P, "one"]],
        ids=["eval", "eval-rational", "convolve"],
    )
    def test_huge_delta_p_rejected_with_one_line(self, capsys, argv):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert repr(_HUGE_DELTA_P) in captured.err and "set_int_max_str_digits" not in captured.err

    def test_largest_exponent_accepted(self, capsys):
        assert run(["convolve", "id_64", "one", "--at", "2"]) == 0
        assert out_lines(capsys) == [str(2**64 + 1)]

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_unrenderable_table_prints_no_partial_output(self, capsys, fmt):
        # n**4096 has more decimal digits than int-to-str allows from n = 12 on
        expr = " . ".join(["id_64"] * 64)
        assert run(["convolve", expr, "one", "--limit", "20", "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_coefficient_beyond_float_range_exits_two(self, capsys):
        # sigma_64(n) delta(n) passes 1.8e308 first at n = 54144
        argv = ["series", "cor-sigmak", "--k", "64", "--s", "67", "--limit", "100000", "--primes", "1000"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: coefficient at n = 54144 is beyond the float64 range\n"

    def test_memory_error_exits_two(self, capsys, monkeypatch):
        def no_memory(limit):
            raise MemoryError

        monkeypatch.setattr(cli, "build_sieve", no_memory)
        assert run(["convolve", "one", "one", "--limit", "10000000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestListIdentities:
    def test_table_lists_both_layers(self, capsys):
        assert run(["list-identities"]) == 0
        text = capsys.readouterr().out
        assert "eq13" in text
        assert "thm3.3" in text
        assert "delta-from-lambda" in text

    def test_json(self, capsys):
        assert run(["list-identities", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        names = {entry["name"] for entry in obj["identities"]}
        assert {"eq13", "cor-sigmak", "compmult-distr"} <= names
        layers = {entry["layer"] for entry in obj["identities"]}
        assert layers == {"exact", "series"}


class TestUsage:
    def test_no_args(self, capsys):
        assert run([]) == 2

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0

    def test_subcommand_help(self, capsys):
        assert run(["verify", "--help"]) == 0

    def test_usage_error_then_valid_command(self, capsys):
        # One parser serves every call in a process; an error leaves it reusable.
        assert cli.build_parser() is cli.build_parser()
        assert run(["factor", "6", "--format", "xml"]) == 2
        assert "invalid choice: 'xml'" in capsys.readouterr().err
        assert run(["eval", "delta", "60"]) == 0
        assert out_lines(capsys) == ["92"]


class TestJsonRoundTripsViaCli:
    def test_verification_report(self, capsys):
        assert run(["verify", "eq14", "--limit", "300", "--format", "json"]) == 0
        text = capsys.readouterr().out
        r = VerificationReport.from_json(text)
        assert r.to_json() == json.dumps(json.loads(text))


# Argument strategies for the CLI property test.  Expression texts join one to three
# pieces: rendered trees with nested convolutions, builtin and unknown names, junk
# tokens (non-ASCII digits and spaces among them) and p/q with q = 0 allowed.  Point
# evaluation sums each convolution node once per divisor of N, so --at reaches 10**6;
# --limit stays in a small window, since every node tabulates the whole window.
_NAMES = st.sampled_from(
    ["one", "id", "id_-1", "id_64", "eps", "mu", "tau", "phi", "sigma", "sigma_0", "delta", "ld", "big_omega",
     "delta_p:3", "mangoldt:ld", "mangoldt:delta_p:2", "sqrt", "id_65", "sigma_-1", "delta_p:9", "mangoldt:"]
)
_JUNK = st.sampled_from(["(", ")", "*", ".", "+", "-", "^", "/", ":", "1/", "\u00b2", "\u0661", "\u00a0", ""])
_RATIONAL = st.builds("{}/{}".format, st.integers(0, 9), st.integers(0, 4))
_EXPR = st.lists(
    st.tuples(st.sampled_from(["", " ", " . ", " * ", " + ", " - "]),
              st.one_of(expression_trees(2).map(str), _NAMES, _JUNK, _RATIONAL)),
    min_size=1, max_size=3,
).map(lambda pieces: "".join(sep + piece for sep, piece in pieces))
_N = st.one_of(st.integers(-1, 10**12).map(str), st.sampled_from(["", "x", "1.5", "\u0661"]))
_WINDOW = st.integers(-1, 60)
_AT = st.integers(-1, 10**6)
_FLOAT = st.floats().map(repr)  # nan, inf and -inf included


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["eval", "convolve", "verify", "series", "factor"]))
    if command in ("eval", "factor"):
        argv = [draw(st.one_of(_NAMES, _EXPR))] if command == "eval" else []
        argv += draw(st.one_of(_N.map(lambda n: [n]), _RATIONAL.map(lambda r: [f"--rational={r}"])))
    elif command == "convolve":
        option = draw(st.sampled_from(["limit", "at"]))
        argv = [draw(_EXPR), draw(_EXPR), f"--{option}={draw(_WINDOW if option == 'limit' else _AT)}"]
    elif command == "verify":
        names = [name for name, _ in list_identity_presets()] + ["all", "eq99"]
        argv = [draw(st.sampled_from(names)), f"--limit={draw(_WINDOW)}", f"--seed={draw(st.integers(-2, 2))}"]
    else:
        names = [name for name, _ in list_series_presets()] + ["cor-42"]
        s = draw(st.one_of(_FLOAT, st.builds("{},{}".format, _FLOAT, _FLOAT)))
        argv = [draw(st.sampled_from(names)), f"--s={s}", f"--tol={draw(_FLOAT)}",
                f"--limit={draw(st.integers(-1, 200))}", f"--primes={draw(st.integers(-1, 200))}"]
    return [command, *argv, f"--format={draw(st.sampled_from(['table', 'csv', 'json']))}"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(cli_argv())
def test_any_arguments_exit_cleanly(argv):
    """Every command line ends in exit code 0, 1 or 2, and only code 2 writes to stderr:
    one line, never a traceback or a warning."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2)
    assert err.getvalue().count("\n") == (code == 2) and err.getvalue().endswith("\n" if code == 2 else "")
