import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from circhad.cli import main

from helpers import SEARCH_SECONDS, assert_reaped, count_forks, fail_appends, time_limit

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"
COUNTEREXAMPLE_BLOCKS = "++,+-,--,+-,--,+-"
COUNTEREXAMPLE_MATCHINGS = "u=2: (0,2)~(2,4)\nu=4: (0,4)~(4,2)\n"

# input files the golden and round-trip cases name by relative path, so the
# JSON "inputs" do not depend on where the test runs
INPUT_FILES = {
    "seqs.txt": "-+++\n++++\n+--+-+++\n",
    "blocks.txt": f"{COUNTEREXAMPLE_BLOCKS}\n-+,++\n++,-+,--,-+\n",
    "m.txt": COUNTEREXAMPLE_MATCHINGS,
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def input_dir(tmp_path, monkeypatch):
    for name, text in INPUT_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_refuse_constant)


def run_json(capsys, *argv):
    # --format must precede any "--" end-of-options marker
    code, out, err = run(capsys, argv[0], "--format", "json", *argv[1:])
    return code, strict_json(out), err


class TestVerify:
    def test_hadamard_sequence(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "--", "-+++")
        assert code == 0
        assert doc["ok"] is True
        assert doc["result"]["paf_spectrum"] == [4, 0, 0, 0]
        assert doc["result"]["row_sum"] == 2

    def test_non_hadamard_sequence(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "++++")
        assert code == 1
        assert doc["ok"] is False

    def test_parse_error(self, capsys):
        code, out, err = run(capsys, "verify", "+*+-")
        assert code == 2
        assert "invalid character" in err

    def test_corpus_file(self, capsys, tmp_path):
        corpus = tmp_path / "seqs.txt"
        corpus.write_text("-+++\n++++\n")
        code, doc, _ = run_json(capsys, "verify", "--file", str(corpus))
        assert code == 1
        flags = [e["is_circulant_hadamard"] for e in doc["result"]]
        assert flags == [True, False]

    def test_missing_input(self, capsys):
        code, _, err = run(capsys, "verify")
        assert code == 2

    def test_inline_and_file_refused(self, capsys, tmp_path):
        corpus = tmp_path / "seqs.txt"
        corpus.write_text("-+++\n")
        code, out, err = run(capsys, "verify", "--file", str(corpus), "--", "-+++")
        assert (code, out) == (2, "")
        assert err == "error: give the sequence either inline or via --file, not both\n"

    def test_file_without_instances_refused(self, capsys, tmp_path):
        corpus = tmp_path / "blank.txt"
        corpus.write_text("\n  \n\t\n")
        code, out, err = run(capsys, "verify", "--file", str(corpus))
        assert (code, out) == (2, "")
        assert err == f"error: {corpus} contains no instances\n"


class TestPaf:
    def test_spectrum(self, capsys):
        code, doc, _ = run_json(capsys, "paf", "--", "-+++")
        assert code == 0
        assert doc["result"]["paf_spectrum"] == [4, 0, 0, 0]

    def test_single_lag(self, capsys):
        code, doc, _ = run_json(capsys, "paf", "++++", "--lag", "2")
        assert code == 0
        assert doc["result"]["value"] == 4

    def test_lag_out_of_range(self, capsys):
        code, _, err = run(capsys, "paf", "++++", "--lag", "4")
        assert code == 2


class TestDecompose:
    def test_order_four(self, capsys):
        code, doc, _ = run_json(capsys, "decompose", "--", "-+++")
        assert code == 0
        result = doc["result"]
        assert result["blocks"] == "-+,++"
        assert result["parities"] == ["Odd", "Even"]
        assert result["even_count"] == 1

    def test_constant(self, capsys):
        code, doc, _ = run_json(capsys, "decompose", "++++")
        assert doc["result"]["blocks"] == "++,++"
        assert doc["result"]["even_count"] == 2

    def test_bad_length(self, capsys):
        code, _, err = run(capsys, "decompose", "+-+")
        assert code == 2
        assert err == "error: length 3 is not divisible by 4\n"


class TestEqn1:
    def test_counterexample_lag_two(self, capsys):
        code, doc, _ = run_json(capsys, "eqn1", COUNTEREXAMPLE_BLOCKS, "--lag", "2")
        assert code == 1
        assert doc["result"]["residual"] == [[-2, -2], [-2, -2]]
        assert doc["ok"] is False

    def test_vacuous_n1(self, capsys):
        code, doc, _ = run_json(capsys, "eqn1", "--", "-+,++")
        assert code == 0
        assert doc["ok"] is True

    def test_all_lags(self, capsys):
        code, doc, _ = run_json(capsys, "eqn1", COUNTEREXAMPLE_BLOCKS)
        assert code == 1
        assert doc["result"]["holds"] is False
        nonzero = [r["lag"] for r in doc["result"]["residuals"] if not r["zero"]]
        assert 2 in nonzero

    def test_lag_out_of_range(self, capsys):
        code, _, _ = run(capsys, "eqn1", COUNTEREXAMPLE_BLOCKS, "--lag", "6")
        assert code == 2


class TestMatch:
    def test_find_at_lag(self, capsys):
        code, doc, _ = run_json(capsys, "match", COUNTEREXAMPLE_BLOCKS, "--lag", "2")
        assert code == 1
        entry = doc["result"]["lags"][0]
        assert entry["pairs"] == [[[0, 2], [2, 4]]]
        assert entry["unmatched"] == [[4, 0]]
        assert entry["perfect"] is False

    def test_validate_good_file(self, capsys, tmp_path):
        matchings = tmp_path / "m.txt"
        matchings.write_text("u=2: (0,2)~(2,4)\nu=4: (0,4)~(4,2)\n")
        code, doc, _ = run_json(
            capsys, "match", COUNTEREXAMPLE_BLOCKS, "--matchings", str(matchings)
        )
        assert code == 0
        assert doc["result"]["valid"] is True

    def test_validate_bad_file(self, capsys, tmp_path):
        matchings = tmp_path / "m.txt"
        matchings.write_text("u=2: (0,2)~(4,0)\n")
        code, doc, _ = run_json(
            capsys, "match", COUNTEREXAMPLE_BLOCKS, "--matchings", str(matchings)
        )
        assert code == 1
        assert doc["result"]["valid"] is False
        assert doc["result"]["violations"]


    @pytest.mark.parametrize(
        "text", ["u=8: (0,2)~(2,4)\n", "u=2: (0,2)~(2,4)\nu=8: (0,2)~(2,4)\n"]
    )
    def test_unreduced_lag_invalid(self, capsys, tmp_path, text):
        # lag 8 is lag 2 modulo 6 blocks, but no lookup ever reads lag 8
        matchings = tmp_path / "m.txt"
        matchings.write_text(text)
        code, out, _ = run(
            capsys, "match", COUNTEREXAMPLE_BLOCKS, "--matchings", str(matchings)
        )
        assert code == 1
        assert "  lag 8: lag 8 is outside 1..5 for 6 blocks\nvalid : no" in out
        code, doc, _ = run_json(
            capsys, "match", COUNTEREXAMPLE_BLOCKS, "--matchings", str(matchings)
        )
        assert code == 1
        assert doc["result"]["violations"] == ["lag 8: lag 8 is outside 1..5 for 6 blocks"]
        assert doc["result"]["valid"] is False

    @pytest.mark.parametrize("lag", ["0", "6", "-1"])
    def test_lag_out_of_range_exit_two(self, capsys, lag):
        code, out, err = run(capsys, "match", COUNTEREXAMPLE_BLOCKS, "--lag", lag)
        assert (code, out) == (2, "")
        assert err == f"error: lag {lag} out of range for 6 blocks\n"

    def test_lag_with_matchings_refused(self, capsys, tmp_path):
        matchings = tmp_path / "m.txt"
        matchings.write_text(COUNTEREXAMPLE_MATCHINGS)
        argv = ["--lag", "4", "--matchings", str(matchings)]
        for fmt in ("text", "json"):
            code, out, err = run(capsys, "match", "--format", fmt, COUNTEREXAMPLE_BLOCKS, *argv)
            assert code == 2
            assert out == ""
            assert err == "error: give either --lag or --matchings, not both\n"


class TestChase:
    def test_unreduced_lag_exit_two(self, capsys, tmp_path):
        matchings = tmp_path / "m.txt"
        matchings.write_text("u=2: (0,2)~(2,4)\nu=8: (0,4)~(4,2)\n")
        code, out, err = run(
            capsys,
            "chase",
            COUNTEREXAMPLE_BLOCKS,
            "--matchings",
            str(matchings),
            "--start",
            "0,2",
        )
        assert code == 2
        assert out == ""
        assert err == (
            f"error: {matchings}: invalid matchings\n"
            "lag 8: lag 8 is outside 1..5 for 6 blocks\n"
        )

    def test_counterexample_inputs(self, capsys, tmp_path):
        matchings = tmp_path / "m.txt"
        matchings.write_text("u=2: (0,2)~(2,4)\nu=4: (0,4)~(4,2)\n")
        code, doc, _ = run_json(
            capsys,
            "chase",
            COUNTEREXAMPLE_BLOCKS,
            "--matchings",
            str(matchings),
            "--start",
            "0,2",
        )
        assert code == 0
        trace = doc["result"]["trace"]
        assert trace["outcome"] == "Cycle"
        assert trace["steps"] == [
            {"obligation": [0, 2], "matched": [2, 4]},
            {"obligation": [0, 4], "matched": [4, 2]},
        ]
        assert trace["repeat"] == [0, 2]

    def test_empty_matchings_file(self, capsys, tmp_path):
        matchings = tmp_path / "empty.txt"
        matchings.write_text("\n")
        code, doc, _ = run_json(
            capsys,
            "chase",
            COUNTEREXAMPLE_BLOCKS,
            "--matchings",
            str(matchings),
            "--start",
            "0,2",
        )
        assert code == 1
        assert doc["result"]["trace"]["outcome"] == "MatchingUnavailable"

    def test_unmatched_obligation_text(self, capsys, tmp_path):
        matchings = tmp_path / "empty.txt"
        matchings.write_text("\n")
        code, out, _ = run(
            capsys, "chase", COUNTEREXAMPLE_BLOCKS, "--matchings", str(matchings), "--start", "0,2"
        )
        assert code == 1
        assert out.endswith(
            "step 1: obligation (0,2) has no matched pair\noutcome: MatchingUnavailable\n"
        )

    @pytest.mark.parametrize(
        "given,missing",
        [
            (["--start", "0,2"], "--matchings"),
            (["--matchings", "m.txt"], "--start"),
            ([], "--matchings, --start"),
        ],
        ids=["no-matchings", "no-start", "neither"],
    )
    def test_required_option_missing_exit_two(self, capsys, input_dir, given, missing):
        code, out, err = run(capsys, "chase", COUNTEREXAMPLE_BLOCKS, *given)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: the following arguments are required: {missing}\n")

    @pytest.mark.parametrize(
        "second,message",
        [
            ("u=2: (0,2)~(4,0)", "index pair (0,2) is matched more than once"),
            ("u=4: (0,4)~(0,4)", "(0,4) cannot be matched with itself"),
            ("u=4: (0,4)~(4,4)", "pair indices must differ"),
        ],
        ids=["reused", "self", "equal-indices"],
    )
    def test_bad_matching_pair_names_its_line(self, capsys, tmp_path, second, message):
        matchings = tmp_path / "m.txt"
        matchings.write_text(f"u=2: (0,2)~(2,4)\n{second}\n")
        for command in (["match"], ["chase", "--start", "0,2"]):
            code, out, err = run(
                capsys, command[0], COUNTEREXAMPLE_BLOCKS, "--matchings", str(matchings),
                *command[1:],
            )
            assert (code, out) == (2, "")
            assert err == f"error: {matchings}: line 2: {message}\n"

    def test_invalid_matchings_exit_two(self, capsys, tmp_path):
        matchings = tmp_path / "bad.txt"
        matchings.write_text("u=2: (0,2)~(4,0)\n")
        code, _, err = run(
            capsys,
            "chase",
            COUNTEREXAMPLE_BLOCKS,
            "--matchings",
            str(matchings),
            "--start",
            "0,2",
        )
        assert code == 2
        assert "not negatives" in err

    def test_bad_start_exit_two(self, capsys, tmp_path):
        matchings = tmp_path / "m.txt"
        matchings.write_text("u=2: (0,2)~(2,4)\n")
        code, _, err = run(
            capsys,
            "chase",
            COUNTEREXAMPLE_BLOCKS,
            "--matchings",
            str(matchings),
            "--start",
            "1,3",
        )
        assert code == 2
        assert "odd" in err

    @pytest.mark.parametrize(
        "start", ["٠,2", "0,٢", "(0,2", "0,2)", "((0,2))", "(0,2))"]
    )
    def test_malformed_start_exit_two(self, capsys, tmp_path, start):
        # Arabic-Indic digits would read as 0 and 2 through int()
        matchings = tmp_path / "m.txt"
        matchings.write_text(COUNTEREXAMPLE_MATCHINGS)
        code, out, err = run(
            capsys, "chase", COUNTEREXAMPLE_BLOCKS, "--matchings", str(matchings), "--start", start
        )
        assert code == 2
        assert out == ""
        assert err == f"error: cannot parse start pair {start!r}; expected i,j\n"

    @pytest.mark.parametrize("start", ["0,2", "(0,2)", " ( 0 , 2 ) "])
    def test_start_forms_accepted(self, capsys, tmp_path, start):
        matchings = tmp_path / "m.txt"
        matchings.write_text(COUNTEREXAMPLE_MATCHINGS)
        code, doc, _ = run_json(
            capsys, "chase", COUNTEREXAMPLE_BLOCKS, "--matchings", str(matchings), "--start", start
        )
        assert code == 0
        assert doc["result"]["start"] == [0, 2]

    @pytest.mark.parametrize("start", ["1 0,2", "0,2 2", "( 0 , 1 2 )", "(0 ,2) )"])
    def test_start_with_whitespace_inside_a_number_exit_two(self, capsys, tmp_path, start):
        # "1 0,2" read as (10,2) before whitespace was limited to the separators
        matchings = tmp_path / "m.txt"
        matchings.write_text(COUNTEREXAMPLE_MATCHINGS)
        code, out, err = run(
            capsys, "chase", COUNTEREXAMPLE_BLOCKS, "--matchings", str(matchings), "--start", start
        )
        assert (code, out) == (2, "")
        assert err == f"error: cannot parse start pair {start!r}; expected i,j\n"

    @pytest.mark.parametrize("line", ["u=1 0: (0,2)~(2,4)", "u=2: (0,2)~(2,4 0)"])
    def test_whitespace_inside_a_number_in_matching_file_exit_two(self, capsys, tmp_path, line):
        # "u=1 0" read as lag 10 and exited 1 with "lag 10 is outside 1..5"
        matchings = tmp_path / "m.txt"
        matchings.write_text(line + "\n", encoding="utf-8")
        for command in (["match"], ["chase", "--start", "0,2"]):
            code, out, err = run(
                capsys, command[0], COUNTEREXAMPLE_BLOCKS, "--matchings", str(matchings),
                *command[1:],
            )
            assert (code, out) == (2, "")
            assert err == f"error: {matchings}: line 1: cannot parse matching {line!r}\n"

    def test_whitespace_around_separators_in_matching_file_accepted(self, capsys, tmp_path):
        matchings = tmp_path / "m.txt"
        matchings.write_text("u=2 : ( 0 , 2 ) ~ ( 2 , 4 )\n\t u = 4:(0 ,4)~ (4, 2) \n")
        argv = (COUNTEREXAMPLE_BLOCKS, "--matchings", str(matchings), "--start", "0,2")
        code, doc, _ = run_json(capsys, "chase", *argv)
        assert code == 0
        assert doc["result"]["matchings"] == COUNTEREXAMPLE_MATCHINGS.splitlines()

    def test_equal_start_indices_named(self, capsys, tmp_path):
        matchings = tmp_path / "m.txt"
        matchings.write_text(COUNTEREXAMPLE_MATCHINGS)
        code, out, err = run(
            capsys, "chase", COUNTEREXAMPLE_BLOCKS, "--matchings", str(matchings), "--start", "0,0"
        )
        assert code == 2
        assert out == ""
        assert err == "error: start pair '0,0': pair indices must differ\n"

    @pytest.mark.parametrize("line", ["u=٢: (0,2)~(2,4)", "u=2: (٠,2)~(2,4)"])
    def test_non_ascii_digits_in_matching_file_exit_two(self, capsys, tmp_path, line):
        matchings = tmp_path / "m.txt"
        matchings.write_text(line + "\n", encoding="utf-8")
        for command in (["match"], ["chase", "--start", "0,2"]):
            code, out, err = run(
                capsys, command[0], COUNTEREXAMPLE_BLOCKS, "--matchings", str(matchings),
                *command[1:],
            )
            assert code == 2
            assert out == ""
            assert err == f"error: {matchings}: line 1: cannot parse matching {line!r}\n"


class TestCounterexampleCommand:
    def test_all_checks_pass(self, capsys):
        code, doc, _ = run_json(capsys, "counterexample")
        assert code == 0
        assert doc["ok"] is True
        assert [c["pass"] for c in doc["result"]["checks"]] == [True] * 4
        assert doc["result"]["even_indices"] == [0, 2, 4]
        assert doc["result"]["trace"]["outcome"] == "Cycle"
        assert len(doc["result"]["trace"]["steps"]) == 2

    def test_text_mode_prints_pass_lines(self, capsys):
        code, out, _ = run(capsys, "counterexample")
        assert code == 0
        assert out.count(": pass") == 4


class TestSearchCommand:
    def test_order_four(self, capsys):
        code, doc, _ = run_json(capsys, "search", "--order", "4")
        assert code == 0
        assert len(doc["result"]["solutions"]) == 8

    def test_order_twelve_rowsum_rejects(self, capsys):
        code, doc, _ = run_json(capsys, "search", "--order", "12")
        assert code == 0
        assert doc["result"]["solutions"] == []
        assert doc["result"]["sequences_examined"] == 0

    def test_bad_order(self, capsys):
        code, _, err = run(capsys, "search", "--order", "7")
        assert code == 2

    def test_budget_truncation_exit_one(self, capsys):
        code, doc, _ = run_json(capsys, "search", "--order", "16", "--budget-seconds", "0")
        assert code == 1
        assert doc["result"]["incomplete"] is True

    @pytest.mark.parametrize("budget", ["nan", "inf"])
    def test_non_finite_budget_exit_two(self, capsys, budget):
        code, out, err = run(capsys, "search", "--order", "16", "--budget-seconds", budget)
        assert code == 2
        assert out == ""
        assert "budget_seconds must be finite" in err

    @time_limit(10)
    def test_order_too_large_exit_two(self, capsys):
        # a square order: row-sum leaves it to the walk, which refuses it
        order = str(10**20)
        code, out, err = run(capsys, "search", "--order", order, "--budget-seconds", "0.1")
        assert (code, out) == (2, "")
        assert err == f"error: order {order} is too large to search; the largest is 4096\n"

    def test_forged_ledger_hit_exit_two(self, capsys, tmp_path):
        # a hit the predicate rejects must not come back as a solution
        ledger = tmp_path / "shards.ledger"
        argv = ("search", "--order", "8", "--prune", "none", "--ledger", str(ledger))
        assert run(capsys, *argv)[0] == 0
        lines = ledger.read_text().splitlines()
        at = lines.index(next(ln for ln in lines if ln.startswith("+++++- done")))
        lines.insert(at, "+++++- hit ++-+-+--")
        ledger.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"ledger {ledger} line {at + 1}: " in err

    @pytest.mark.parametrize("prune", [[], ["--prune", "prefix-paf"]], ids=["row-sum", "prefix-paf"])
    def test_foreign_ledger_exit_two_at_a_nonsquare_order(self, capsys, tmp_path, prune):
        # with row-sum on, order 8 is settled without a walk; its ledger is
        # still read, so an order-16 ledger or garbage is refused either way
        ledger = tmp_path / "shards.ledger"
        assert run(capsys, "search", "--order", "16", "--ledger", str(ledger))[0] == 0
        for text in (ledger.read_text(), "garbage\n"):
            ledger.write_text(text)
            code, out, err = run(capsys, "search", "--order", "8", *prune, "--ledger", str(ledger))
            assert (code, out) == (2, "")
            assert err == f"error: ledger {ledger} does not match this search configuration\n"
            assert ledger.read_text() == text

    def test_fresh_ledger_gets_its_header_at_a_nonsquare_order(self, capsys, tmp_path):
        ledger = tmp_path / "shards.ledger"
        argv = ("search", "--format", "json", "--order", "8", "--ledger", str(ledger))
        code, doc, _ = run_json(capsys, *argv)
        assert (code, doc["result"]["prune_cuts"]) == (0, {"prefix-paf": 0, "row-sum": 1})
        header = "# circhad shard ledger order=8 prunes=prefix-paf,row-sum\n"
        assert ledger.read_text() == header
        assert run_json(capsys, *argv)[0] == 0
        assert ledger.read_text() == header

    def test_prune_none(self, capsys):
        code, doc, _ = run_json(capsys, "search", "--order", "8", "--prune", "none")
        assert code == 0
        assert doc["result"]["sequences_examined"] == 128

    def test_torn_ledger_exit_two(self, capsys, tmp_path):
        ledger = tmp_path / "shards.ledger"
        assert run(capsys, "search", "--order", "16", "--ledger", str(ledger))[0] == 0
        lines = ledger.read_text().splitlines()
        lines.insert(2, "+-+-+-")
        ledger.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "search", "--order", "16", "--ledger", str(ledger))
        assert code == 2
        assert out == ""
        assert f"ledger {ledger} line 3: shard prefix with no status" in err

    def test_blank_ledger_line_skipped(self, capsys, tmp_path):
        ledger = tmp_path / "shards.ledger"
        argv = ("search", "--format", "json", "--order", "8", "--prune", "none",
                "--ledger", str(ledger))
        code, out, _ = run(capsys, *argv)
        assert code == 0
        lines = ledger.read_text().splitlines()
        lines.insert(5, "  ")
        text = "\n".join(lines) + "\n"
        ledger.write_text(text)
        resumed_code, resumed, _ = run(capsys, *argv)
        assert resumed_code == 0
        # every shard was read from the ledger: none ran again and was appended
        assert ledger.read_text() == text
        first, again = strict_json(out)["result"], strict_json(resumed)["result"]
        first.pop("elapsed_seconds"), again.pop("elapsed_seconds")
        assert again == first

    @pytest.mark.parametrize("separator", ["\f", "\u2028"], ids=["form-feed", "line-separator"])
    def test_ledger_lines_end_at_newline_only(self, capsys, tmp_path, separator):
        # the separator inside line 2 parts its fields but ends no line, so
        # the bad record is line 3
        ledger = tmp_path / "shards.ledger"
        argv = ("search", "--order", "8", "--prune", "none", "--ledger", str(ledger))
        assert run(capsys, *argv)[0] == 0
        header, first, *_ = ledger.read_text().splitlines()
        record = first.replace(" examined", separator + "examined")
        ledger.write_text(f"{header}\n{record}\n+++++- bogus\n", encoding="utf-8")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: ledger {ledger} line 3: unknown status 'bogus'\n"

    def test_shard_recorded_twice_exit_two(self, capsys, tmp_path):
        ledger = tmp_path / "shards.ledger"
        argv = ("search", "--order", "4", "--prune", "prefix-paf", "--ledger", str(ledger))
        assert run(capsys, *argv)[0] == 0
        with ledger.open("a") as handle:
            handle.write("+--+ done examined=7 prefix-paf=0\n")
        line = len(ledger.read_text().splitlines())
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: ledger {ledger} line {line}: shard '+--+' is recorded twice\n"

    def test_ledger_path_is_directory_exit_two(self, capsys, tmp_path):
        code, out, err = run(capsys, "search", "--order", "16", "--ledger", str(tmp_path))
        assert code == 2
        assert out == ""
        assert f"ledger {tmp_path}:" in err

    def test_ledger_not_utf8_exit_two(self, capsys, tmp_path):
        ledger = tmp_path / "shards.ledger"
        ledger.write_bytes(b"\xff\xfe\x00")
        code, out, err = run(capsys, "search", "--order", "16", "--ledger", str(ledger))
        assert code == 2
        assert out == ""
        assert f"error: ledger {ledger}: 'utf-8' codec can't decode" in err

    def test_ledger_in_missing_directory_exit_two(self, capsys, tmp_path):
        ledger = tmp_path / "missing" / "shards.ledger"
        code, out, err = run(capsys, "search", "--order", "16", "--ledger", str(ledger))
        assert code == 2
        assert out == ""
        assert f"ledger {ledger}:" in err
        assert not ledger.parent.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    @time_limit(SEARCH_SECONDS)
    def test_failed_ledger_append_exit_two(self, capsys, monkeypatch, tmp_path, workers):
        forked = count_forks(monkeypatch)
        fail_appends(monkeypatch)
        ledger = tmp_path / "shards.ledger"
        code, out, err = run(
            capsys, "search", "--order", "8", "--prune", "prefix-paf", "--workers", workers,
            "--ledger", str(ledger),
        )
        assert (code, out) == (2, "")
        assert err == f"error: ledger {ledger}: No space left on device\n"
        assert len(forked) == int(workers) - 1
        assert_reaped(forked)

    def test_prune_none_exclusive(self, capsys):
        code, _, err = run(
            capsys, "search", "--order", "8", "--prune", "none", "--prune", "row-sum"
        )
        assert code == 2


@pytest.mark.parametrize("unreadable", ["directory", "not-utf8"])
@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--file", "{path}"),
        ("paf", "--file", "{path}"),
        ("match", COUNTEREXAMPLE_BLOCKS, "--matchings", "{path}"),
        ("chase", COUNTEREXAMPLE_BLOCKS, "--matchings", "{path}", "--start", "0,2"),
    ],
    ids=["verify-file", "paf-file", "match-matchings", "chase-matchings"],
)
def test_unreadable_input_file_exit_two(capsys, tmp_path, argv, unreadable):
    path = tmp_path / unreadable
    if unreadable == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe\x00\n")
    code, out, err = run(capsys, *(a.format(path=path) for a in argv))
    assert code == 2
    assert out == ""
    assert f"error: {path}: " in err


@pytest.mark.parametrize(
    "argv,lines,message",
    [
        (("verify",), ["-+++", "", "+*+-"], "invalid character '*' at position 1"),
        (("paf", "--lag", "5"), ["+--+-+++", "", "++"], "lag 5 out of range for length 2"),
        (("decompose",), ["-+++", "", "+++"], "length 3 is not divisible by 4"),
        (("eqn1",), [COUNTEREXAMPLE_BLOCKS, "", "++,+"], "invalid 2-block text '+'"),
    ],
    ids=["verify", "paf-lag", "decompose", "eqn1"],
)
def test_bad_corpus_line_names_file_and_line(capsys, tmp_path, argv, lines, message):
    # the blank line is skipped but still counted: the bad line is line 3
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, argv[0], "--file", str(corpus), *argv[1:])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {corpus}: line 3: {message}")


@pytest.mark.parametrize("separator", ["\f", "\u2028"], ids=["form-feed", "line-separator"])
class TestInputLinesEndAtNewlineOnly:
    # str.splitlines would also end a line at \f, \u2028 and a few more

    def test_instance_file_line_number(self, capsys, tmp_path, separator):
        corpus = tmp_path / "seqs.txt"
        corpus.write_text(f"-+++{separator}+*++\n", encoding="utf-8")
        code, out, err = run(capsys, "verify", "--file", str(corpus))
        assert (code, out) == (2, "")
        assert err == (
            f"error: {corpus}: line 1: invalid character {separator!r} at position 4; "
            "expected '+' or '-'\n"
        )

    def test_instance_file_one_instance_per_line(self, capsys, tmp_path, separator):
        corpus = tmp_path / "blocks.txt"
        corpus.write_text(COUNTEREXAMPLE_BLOCKS.replace(",", "," + separator, 1) + "\n",
                          encoding="utf-8")
        code, doc, _ = run_json(capsys, "eqn1", "--file", str(corpus))
        assert code == 1
        assert doc["inputs"]["count"] == 1
        assert doc["result"][0] == run_json(capsys, "eqn1", COUNTEREXAMPLE_BLOCKS)[1]["result"]

    def test_matching_file(self, capsys, tmp_path, separator):
        matchings = tmp_path / "m.txt"
        matchings.write_text(
            COUNTEREXAMPLE_MATCHINGS.replace("~", "~" + separator), encoding="utf-8"
        )
        argv = (COUNTEREXAMPLE_BLOCKS, "--matchings", str(matchings), "--start", "0,2")
        code, doc, _ = run_json(capsys, "chase", *argv)
        assert code == 0
        assert doc["result"]["matchings"] == COUNTEREXAMPLE_MATCHINGS.splitlines()
        assert doc["result"]["trace"]["outcome"] == "Cycle"


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--", "-+++"),
            ("paf", "++++"),
            ("decompose", "++++"),
            ("eqn1", COUNTEREXAMPLE_BLOCKS),
            ("match", COUNTEREXAMPLE_BLOCKS, "--lag", "2"),
            ("match", COUNTEREXAMPLE_BLOCKS, "--matchings", "m.txt"),
            ("chase", COUNTEREXAMPLE_BLOCKS, "--matchings", "m.txt", "--start", "0,2"),
            ("counterexample",),
            ("search", "--order", "4"),
        ],
    )
    def test_machine_output_reparses_identically(self, capsys, input_dir, argv):
        main([argv[0], "--format", "json", *argv[1:]])
        out = capsys.readouterr().out
        doc = strict_json(out)
        assert json.dumps(doc, indent=2, sort_keys=True) == out.strip()


# (golden file stem, expected exit code, argv without --format); the
# golden files hold the exact stdout, text and JSON, with the elapsed time
# masked
GOLDEN_CASES = [
    ("verify-inline", 0, ("verify", "--", "-+++")),
    ("verify-file", 1, ("verify", "--file", "seqs.txt")),
    ("paf-inline", 0, ("paf", "--", "-+++")),
    ("paf-file", 0, ("paf", "--file", "seqs.txt")),
    ("paf-lag", 0, ("paf", "+--+-+++", "--lag", "2")),
    ("decompose-inline", 0, ("decompose", "--", "-+++")),
    ("decompose-file", 0, ("decompose", "--file", "seqs.txt")),
    ("eqn1-inline", 1, ("eqn1", COUNTEREXAMPLE_BLOCKS)),
    ("eqn1-file", 1, ("eqn1", "--file", "blocks.txt")),
    ("eqn1-lag", 1, ("eqn1", COUNTEREXAMPLE_BLOCKS, "--lag", "2")),
    ("match-lag", 1, ("match", COUNTEREXAMPLE_BLOCKS, "--lag", "2")),
    ("match-matchings", 0, ("match", COUNTEREXAMPLE_BLOCKS, "--matchings", "m.txt")),
    ("chase", 0, ("chase", COUNTEREXAMPLE_BLOCKS, "--matchings", "m.txt", "--start", "0,2")),
    ("counterexample", 0, ("counterexample",)),
    ("search", 0, ("search", "--order", "4", "--canonical")),
]

_ELAPSED = re.compile(r"(elapsed[ _]seconds\"?\s*:\s*)[-+.0-9e]+")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name,code,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_output(capsys, input_dir, name, code, argv, fmt):
    got_code, out, _ = run(capsys, argv[0], "--format", fmt, *argv[1:])
    assert got_code == code
    masked = _ELAPSED.sub(r"\1<masked>", out)
    assert masked == (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")


def test_console_entrypoint_subprocess():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "circhad", "counterexample"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "outcome: Cycle" in proc.stdout


def test_dev_mode_runs_are_clean(tmp_path):
    # under -X dev -W error, a file object left unclosed (ResourceWarning)
    # or any other warning shows on stderr
    env = dict(os.environ, PYTHONPATH=str(SRC))
    ledger = str(tmp_path / "shards.ledger")
    budgeted = ["--order", "28", "--prune", "prefix-paf", "--workers", "3", "--budget-seconds", "0.05"]
    recorded = ["--order", "16", "--workers", "2", "--ledger", ledger]
    # a budget that stops shards, then a ledger write and its resume
    for argv, code in ((budgeted, 1), (recorded, 0), (recorded, 0)):
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "circhad", "search", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (code, ""), argv


def test_import_loads_no_numpy_or_process_machinery():
    # numpy is test-only, and a search with more than one worker forks
    # its children itself
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = (
        "import sys, circhad, circhad.cli\n"
        "from circhad.searcher import SearchConfig, search\n"
        "search(SearchConfig(order=16, workers=2))\n"
        "print(*sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "circhad.cli" in loaded
    banned = ("numpy", "multiprocessing", "concurrent.futures")
    assert [m for m in loaded if m in banned or m.startswith(tuple(b + "." for b in banned))] == []
