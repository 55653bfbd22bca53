import contextlib
import io
import json
import math
import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reglang.automata
from reglang.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_entropy_command(capsys):
    code, out, _ = run_cli(capsys, "entropy", "(a|b)*")
    assert code == 0
    payload = json.loads(out)
    assert payload["entropy_bits"] == 1.0
    assert payload["spectral_radius"] == 2.0
    assert payload["lambda_class"] == "expanding"
    assert payload["components"][0]["period"] == 1


def test_entropy_command_ternary(capsys):
    code, out, _ = run_cli(capsys, "entropy", "(a|b|c)*")
    payload = json.loads(out)
    assert code == 0
    assert payload["entropy_bits"] == pytest.approx(math.log2(3), abs=1e-9)


def test_entropy_of_giant_repeat_is_budget_error(capsys):
    code, out, err = run_cli(capsys, "entropy", "a{99999999999999999999}")
    assert code == 2
    assert out == ""
    assert "Traceback" not in err


def test_entropy_of_repeated_empty_word_is_zero(capsys):
    code, out, _ = run_cli(capsys, "entropy", "~{100000000}")
    assert code == 0
    assert json.loads(out)["entropy_bits"] == 0.0


def test_distance_cesaro(capsys):
    code, out, _ = run_cli(
        capsys, "distance", "--metric", "jc", "(a|b)*", "((a|b){2})*"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "per-residue"
    assert abs(payload["value"] - 0.5) < 1e-6


def test_distance_cesaro_for_different_growth_orders(capsys):
    # decided from each operand's growth order, with no product: the
    # operands' orders stand in for the intersection's
    expected = {
        "metric": "cesaro",
        "mode": "analytic-shortcut",
        "value": 1.0,
        "diagnostics": {
            "sequence": "cum",
            "entropy_sym_diff": 1.0,
            "index_sym_diff": 1,
            "entropy_union": 1.0,
            "index_union": 1,
            "entropy_left": 0.0,
            "index_left": 1,
            "entropy_right": 1.0,
            "index_right": 1,
        },
    }
    for mode in ("auto", "analytic"):
        argv = ("distance", "--metric", "jc", "--mode", mode, "a*", "(a|b)*")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out) == expected


def test_distance_entropy_for_unequal_entropies(capsys):
    code, out, _ = run_cli(capsys, "distance", "--metric", "h", "a*", "(a|b)*")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 1.0


def test_distance_fixed_horizon(capsys):
    code, out, _ = run_cli(
        capsys, "distance", "--metric", "jn", "--n", "3", "(a|b)*", "((a|b){2})*"
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["value"] == pytest.approx(2 / 3, abs=1e-12)


def test_distance_missing_n_is_input_error(capsys):
    code, _, err = run_cli(capsys, "distance", "--metric", "jn", "a*", "(aa)*")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("metric", ["jn", "jnp"])
def test_distance_negative_n_is_input_error(capsys, metric):
    code, out, err = run_cli(capsys, "distance", "--metric", metric, "--n", "-1", "a*", "(aa)*")
    assert code == 1
    assert not out
    assert "error" in err


def test_bad_regex_is_input_error(capsys):
    code, _, err = run_cli(capsys, "entropy", "(a|b")
    assert code == 1
    assert "error" in err


def test_analytic_mode_without_shortcut_is_diagnostic(capsys):
    code, _, err = run_cli(
        capsys,
        "distance",
        "--metric",
        "jc",
        "--mode",
        "analytic",
        "(a|b)*",
        "((a|b){2})*",
    )
    assert code == 2
    assert "diagnostic" in err


def test_unknown_subcommand_is_input_error(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1


def test_output_is_deterministic(capsys):
    first = run_cli(capsys, "distance", "--metric", "jc", "(a|b)*", "((a|b){2})*")
    second = run_cli(capsys, "distance", "--metric", "jc", "(a|b)*", "((a|b){2})*")
    assert first == second


def test_analyze_reports_components(capsys):
    code, out, _ = run_cli(capsys, "analyze", "((a|b){2})*")
    assert code == 0
    payload = json.loads(out)
    assert payload["residue_period"] == 2
    assert any(not t for t in payload["trivial"])


def test_analyze_counts_json(capsys):
    code, out, _ = run_cli(capsys, "analyze", "(a|b)*", "--counts", "3")
    payload = json.loads(out)
    assert code == 0
    assert payload["counts"][-1] == {"n": 3, "w_n": 8, "w_le_n": 15}


def test_analyze_counts_csv(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "(a|b)*", "--counts", "2", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == ["n,w_n,w_le_n", "0,1,1", "1,2,3", "2,4,7"]


def test_analyze_dump_round_trips(capsys):
    code, out, _ = run_cli(capsys, "analyze", "(ab)*", "--dump")
    payload = json.loads(out)
    assert code == 0
    dump = payload["dfa"]
    assert dump["alphabet"] == ["a", "b"]
    assert dump["states"] == len(dump["delta"])
    assert 0 <= dump["initial"] < dump["states"]


def test_analyze_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "analyze", "(a|bb)*", "--verify")
    payload = json.loads(out)
    assert code == 0
    assert payload["verify"] == {"max_length": 8, "match": True}


def test_matrix_command(capsys, tmp_path):
    listing = tmp_path / "regexes.txt"
    listing.write_text("(a|b)*\n((a|b){2})*\na*\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "matrix", "--metric", "h", "--file", str(listing))
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()]
    assert len(rows) == 3 and all(len(r) == 3 for r in rows)
    values = [[float(x) for x in row] for row in rows]
    for i in range(3):
        assert values[i][i] == 0.0
        for j in range(3):
            assert values[i][j] == values[j][i]
    assert values[0][1] == 1.0  # equal entropies, difference as rich as union
    assert values[0][2] == 1.0  # entropies differ


def test_matrix_command_makes_no_harmonized_copy(capsys, tmp_path, monkeypatch):
    # the metrics read DFAs over different alphabets as they are
    original, copies = reglang.automata._with_alphabet, []

    def counted(dfa, alphabet):
        copy = original(dfa, alphabet)
        if copy is not dfa:
            copies.append(alphabet)
        return copy

    monkeypatch.setattr(reglang.automata, "_with_alphabet", counted)
    listing = tmp_path / "regexes.txt"
    listing.write_text("a*\n(a|b)*\n(b|c)*a\n", encoding="utf-8")
    for metric in ("jn", "jc", "hs"):
        argv = ("matrix", "--metric", metric, "--n", "4", "--file", str(listing))
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and len(out.splitlines()) == 3
    assert copies == []


def test_matrix_missing_file_is_input_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "matrix", "--metric", "h", "--file", str(tmp_path / "nope.txt")
    )
    assert code == 1


def test_console_script_entry_point():
    src = os.path.dirname(os.path.dirname(reglang.automata.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "reglang.cli", "entropy", "(a|b)*"],
        capture_output=True,
        text=True,
        check=False,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["entropy_bits"] == 1.0


def test_distance_cesaro_without_certified_limit_is_diagnostic(capsys):
    # analytic mode runs no power stream, so the parity tie has no limit
    code, out, err = run_cli(
        capsys, "distance", "--metric", "jc", "--mode", "analytic", "(a|b)*", "((a|b){2})*"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("diagnostic:")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [["distance", "--metric", "jc"], ["entropy"]])
def test_tolerance_flag_is_gone(capsys, command):
    # limits stop on a module constant, not on a flag
    code, out, err = run_cli(capsys, *command, "--tol", "1e-6", "(a|b)*", "((a|b){2})*")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "regex",
    ["(" * 2000 + "a" + ")" * 2000, "a" + "*" * 3000],
    ids=["groups", "stars"],
)
def test_deeply_nested_regex_is_input_error(capsys, regex):
    code, out, err = run_cli(capsys, "entropy", regex)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


_TOKENS = (
    "entropy distance matrix analyze --metric jn jnp jc h hs --n --mode auto analytic"
    " --alphabet --file --counts --dump --verify --format json csv -h --help"
).split()


@settings(max_examples=200, deadline=None)
@given(
    argv=st.lists(
        # short free text keeps horizons such as --n and --counts small
        st.one_of(
            st.sampled_from(_TOKENS),
            st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=4),
        ),
        max_size=8,
    )
)
def test_any_printable_arguments_exit_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"REGLANG_MAX_STATES": "200"}):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
