import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from circhad.cli import main

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
