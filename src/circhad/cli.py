"""Command line frontend.

Every subcommand emits one report, as aligned text or as a single JSON
document (--format json).  Exit codes are uniform: 0 when the command
succeeded and its checked property holds, 1 when the property fails or a
search came back incomplete, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

from . import blockform, matchchase, searcher
from .blockform import BlockSequence, SymBlockMatrix
from .matchchase import ChaseOutcome, ChaseTrace, IndexPair, MatchingBook
from .seqcore import SignSequence, is_circulant_hadamard, paf, paf_spectrum


@dataclass
class Report:
    command: str
    inputs: dict
    result: object
    ok: bool


def render_json(report: Report) -> str:
    return json.dumps(asdict(report), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# input plumbing; a ValueError anywhere below exits 2 (see main)


def _read_file(path: Path) -> str:
    """The text of an input file; an unreadable one is an error naming it."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


_START = re.compile(r"^\(?(\d+),(\d+)\)?$")


def _parse_start(text: str) -> IndexPair:
    match = _START.match(re.sub(r"\s+", "", text))
    if match is None:
        raise ValueError(f"cannot parse start pair {text!r}; expected i,j")
    return IndexPair(int(match.group(1)), int(match.group(2)))


def _pair(p: IndexPair | None) -> list[int] | None:
    return None if p is None else [p.first, p.second]


def _matrix_rows(m: SymBlockMatrix) -> list[list[int]]:
    return [list(row) for row in m.rows()]


# ---------------------------------------------------------------------------
# per-instance subcommands: one entry per sequence or block row, given
# inline or one per line of --file


def _run_instances(
    what: str,
    entry: Callable[[str, int | None], dict],
    holds: Callable[[dict], bool],
    args: argparse.Namespace,
) -> Report:
    """One entry from the positional argument, or a list of one per line of
    --file; the report holds when every entry does.  An error on a line of
    the file names the file and the line's number in it."""
    positional = getattr(args, what)
    lag = getattr(args, "lag", None)
    # (error prefix, text) per instance
    if args.file is None:
        if positional is None:
            raise ValueError(f"missing {what}; give it inline or via --file")
        inputs: dict = {what: positional}
        sources = [("", positional)]
    elif positional is not None:
        raise ValueError(f"give the {what} either inline or via --file, not both")
    else:
        path = Path(args.file)
        sources = [
            (f"{path}: line {number}: ", line.strip())
            for number, line in enumerate(_read_file(path).splitlines(), start=1)
            if line.strip()
        ]
        if not sources:
            raise ValueError(f"{path} contains no instances")
        inputs = {"file": str(path), "count": len(sources)}
    if lag is not None:
        inputs["lag"] = lag
    entries = []
    for where, text in sources:
        try:
            entries.append(entry(text, lag))
        except ValueError as exc:
            raise ValueError(f"{where}{exc}") from exc
    result = entries if args.file is not None else entries[0]
    return Report(args.command, inputs, result, all(holds(e) for e in entries))


def _render_instances(
    lines: Callable[[dict], list[str]], separator: str, result: object
) -> str:
    entries = result if isinstance(result, list) else [result]
    return separator.join("\n".join(lines(e)) for e in entries)


def _verify_entry(text: str, lag: int | None) -> dict:
    h = SignSequence.from_text(text)
    return {
        "sequence": h.text,
        "length": len(h),
        "row_sum": h.row_sum(),
        "paf_spectrum": list(paf_spectrum(h)),
        "is_circulant_hadamard": is_circulant_hadamard(h),
    }


def _verify_lines(e: dict) -> list[str]:
    return [
        f"sequence : {e['sequence']}",
        f"length   : {e['length']}",
        f"row sum  : {e['row_sum']}",
        f"paf      : {' '.join(str(v) for v in e['paf_spectrum'])}",
        f"circulant hadamard : {'yes' if e['is_circulant_hadamard'] else 'no'}",
    ]


def _paf_entry(text: str, lag: int | None) -> dict:
    h = SignSequence.from_text(text)
    entry: dict = {"sequence": h.text, "length": len(h)}
    if lag is None:
        entry["paf_spectrum"] = list(paf_spectrum(h))
    elif not 0 <= lag < len(h):
        raise ValueError(f"lag {lag} out of range for length {len(h)}")
    else:
        entry["lag"] = lag
        entry["value"] = paf(h, lag)
    return entry


def _paf_lines(e: dict) -> list[str]:
    if "value" in e:
        return [f"{e['sequence']}  paf({e['lag']}) = {e['value']}"]
    return [f"{e['sequence']}  paf = {' '.join(str(v) for v in e['paf_spectrum'])}"]


def _decompose_entry(text: str, lag: int | None) -> dict:
    h = SignSequence.from_text(text)
    if len(h) % 4 != 0:
        raise ValueError(f"length {len(h)} is not divisible by 4")
    bs = blockform.block_decompose(h)
    return {
        "sequence": h.text,
        "blocks": bs.text,
        "parities": [str(b.parity) for b in bs],
        "even_count": blockform.even_count(bs),
        "n": bs.n,
        "even_blocks": [
            {"index": i, "symmetric": blockform.is_symmetric_even(bs, i)}
            for i in bs.even_indices()
        ],
    }


def _decompose_lines(e: dict) -> list[str]:
    lines = [
        f"sequence   : {e['sequence']}",
        f"blocks     : {e['blocks']}",
        f"parities   : {' '.join(e['parities'])}",
        f"even count : {e['even_count']} of {2 * e['n']} (n = {e['n']})",
    ]
    for item in e["even_blocks"]:
        flag = "symmetric" if item["symmetric"] else "not symmetric"
        lines.append(f"  even block {item['index']}: {flag}")
    return lines


def _eqn1_entry(text: str, lag: int | None) -> dict:
    bs = BlockSequence.from_text(text)
    if lag is None:
        residuals = [blockform.cancellation_residual(bs, u) for u in range(1, len(bs))]
        return {
            "blocks": bs.text,
            "residuals": [
                {"lag": u, "matrix": _matrix_rows(r), "zero": r.is_zero}
                for u, r in enumerate(residuals, start=1)
            ],
            "holds": all(r.is_zero for r in residuals),
        }
    if not 1 <= lag < len(bs):
        raise ValueError(f"lag {lag} out of range for {len(bs)} blocks")
    residual = blockform.cancellation_residual(bs, lag)
    return {
        "blocks": bs.text,
        "lag": lag,
        "residual": _matrix_rows(residual),
        "zero": residual.is_zero,
    }


def _eqn1_lines(e: dict) -> list[str]:
    lines = [f"blocks : {e['blocks']}"]
    if "lag" in e:
        rows = e["residual"]
        width = max(len(str(v)) for row in rows for v in row)
        lines.append(f"residual at lag {e['lag']}:")
        lines += [f"  [ {a:>{width}} {b:>{width}} ]" for a, b in rows]
        lines.append(f"zero : {'yes' if e['zero'] else 'no'}")
    else:
        for item in e["residuals"]:
            flag = "zero" if item["zero"] else "NONZERO"
            lines.append(f"  lag {item['lag']}: {item['matrix']}  {flag}")
        lines.append(f"cancellation holds : {'yes' if e['holds'] else 'no'}")
    return lines


def _read_book(path: Path, bs: BlockSequence) -> tuple[MatchingBook, list[str]]:
    """The matching book in a file, and its violations against the block row."""
    text = _read_file(path)
    try:
        book = matchchase.parse_matching_lines(text.splitlines())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    problems = []
    for m in book.matchings():
        verdict = matchchase.validate_matching(bs, m)
        problems += [f"lag {m.lag}: {v}" for v in verdict.violations]
    return book, problems


def _cmd_match(args: argparse.Namespace) -> Report:
    bs = BlockSequence.from_text(args.blocks)
    inputs: dict = {"blocks": args.blocks}
    if args.matchings is not None:
        if args.lag is not None:
            raise ValueError("give either --lag or --matchings, not both")
        inputs["matchings"] = args.matchings
        book, violations = _read_book(Path(args.matchings), bs)
        result = {
            "blocks": bs.text,
            "matchings": matchchase.render_matching_lines(book),
            "violations": violations,
            "valid": not violations,
        }
        return Report("match", inputs, result, not violations)

    lags = [args.lag] if args.lag is not None else list(range(1, len(bs)))
    per_lag = []
    for u in lags:
        if not 1 <= u < len(bs):
            raise ValueError(f"lag {u} out of range for {len(bs)} blocks")
        found = matchchase.find_matching(bs, u)
        matched = set(found.index_pairs())
        unmatched = [_pair(p) for p in matchchase.even_pairs_at_lag(bs, u) if p not in matched]
        per_lag.append(
            {
                "lag": u,
                "pairs": [[_pair(p), _pair(q)] for p, q in found.pairs],
                "unmatched": unmatched,
                "perfect": not unmatched,
            }
        )
    if args.lag is not None:
        inputs["lag"] = args.lag
    result = {"blocks": bs.text, "lags": per_lag, "all_perfect": all(x["perfect"] for x in per_lag)}
    return Report("match", inputs, result, result["all_perfect"])


def _render_match(r: dict) -> str:
    lines = [f"blocks : {r['blocks']}"]
    if "violations" in r:
        for line in r["matchings"]:
            lines.append(f"  {line}")
        if r["violations"]:
            lines.append("violations:")
            lines += [f"  {v}" for v in r["violations"]]
        lines.append(f"valid : {'yes' if r['valid'] else 'no'}")
        return "\n".join(lines)
    for entry in r["lags"]:
        pairs = ", ".join(
            f"({p[0]},{p[1]})~({q[0]},{q[1]})" for p, q in entry["pairs"]
        )
        lines.append(f"  lag {entry['lag']}: {pairs if pairs else '(empty)'}")
        if entry["unmatched"]:
            left = ", ".join(f"({i},{j})" for i, j in entry["unmatched"])
            lines.append(f"    unmatched: {left}")
        lines.append(f"    perfect: {'yes' if entry['perfect'] else 'no'}")
    lines.append(f"all perfect : {'yes' if r['all_perfect'] else 'no'}")
    return "\n".join(lines)


def _trace_payload(trace: ChaseTrace) -> dict:
    return {
        "steps": [
            {"obligation": _pair(s.obligation), "matched": _pair(s.matched)}
            for s in trace.steps
        ],
        "outcome": str(trace.outcome),
        "repeat": _pair(trace.repeat),
        "successful_steps": trace.successful_steps(),
    }


def _trace_lines(payload: dict) -> list[str]:
    lines = []
    for k, step in enumerate(payload["steps"], start=1):
        a, b = step["obligation"]
        if step["matched"] is None:
            lines.append(f"step {k}: obligation ({a},{b}) has no matched pair")
        else:
            l, m = step["matched"]
            lines.append(
                f"step {k}: obligation ({a},{b}) matched by ({l},{m}) -> next ({a},{m})"
            )
    if payload["repeat"] is not None:
        i, j = payload["repeat"]
        lines.append(f"cycle: obligation ({i},{j}) revisited")
    lines.append(f"outcome: {payload['outcome']}")
    return lines


def _cmd_chase(args: argparse.Namespace) -> Report:
    bs = BlockSequence.from_text(args.blocks)
    if args.matchings is None:
        raise ValueError("chase needs --matchings")
    if args.start is None:
        raise ValueError("chase needs --start i,j")
    inputs = {"blocks": args.blocks, "matchings": args.matchings, "start": args.start}
    path = Path(args.matchings)
    book, problems = _read_book(path, bs)
    if problems:
        raise ValueError(f"{path}: invalid matchings\n" + "\n".join(problems))
    start = _parse_start(args.start)
    trace = matchchase.chase(bs, book, start)
    result = {
        "blocks": bs.text,
        "start": _pair(start),
        "matchings": matchchase.render_matching_lines(book),
        "trace": _trace_payload(trace),
    }
    ok = trace.outcome in (ChaseOutcome.CYCLE, ChaseOutcome.DEGENERATE)
    return Report("chase", inputs, result, ok)


def _render_chase(r: dict) -> str:
    lines = [f"blocks : {r['blocks']}", "matchings:"]
    lines += [f"  {line}" for line in r["matchings"]]
    lines.append(f"start  : ({r['start'][0]},{r['start'][1]})")
    lines += _trace_lines(r["trace"])
    return "\n".join(lines)


def _cmd_counterexample(args: argparse.Namespace) -> Report:
    bs, book, start = matchchase.counterexample()
    even = bs.even_indices()
    symmetric = {i: blockform.is_symmetric_even(bs, i) for i in even}
    validations = [matchchase.validate_matching(bs, m) for m in book.matchings()]
    trace = matchchase.chase(bs, book, start)
    checks = [
        {
            "name": "even blocks are {0,2,4}",
            "pass": even == (0, 2, 4),
            "detail": list(even),
        },
        {
            "name": "no even block is symmetric",
            "pass": not any(symmetric.values()),
            "detail": [[i, flag] for i, flag in symmetric.items()],
        },
        {
            "name": "matchings are valid with negating products",
            "pass": all(v.ok for v in validations),
            "detail": [list(v.violations) for v in validations],
        },
        {
            "name": "chase outcome is Cycle",
            "pass": trace.outcome is ChaseOutcome.CYCLE,
            "detail": str(trace.outcome),
        },
    ]
    result = {
        "blocks": bs.text,
        "start": _pair(start),
        "matchings": matchchase.render_matching_lines(book),
        "even_indices": list(even),
        "checks": checks,
        "trace": _trace_payload(trace),
    }
    return Report("counterexample", {}, result, all(c["pass"] for c in checks))


def _render_counterexample(r: dict) -> str:
    lines = [f"blocks : {r['blocks']}", "matchings:"]
    lines += [f"  {line}" for line in r["matchings"]]
    width = max(len(c["name"]) for c in r["checks"])
    for c in r["checks"]:
        lines.append(f"check {c['name']:<{width}} : {'pass' if c['pass'] else 'FAIL'}")
    lines.append("trace:")
    lines += [f"  {line}" for line in _trace_lines(r["trace"])]
    return "\n".join(lines)


def _cmd_search(args: argparse.Namespace) -> Report:
    prunes: frozenset[str]
    if args.prune is None:
        prunes = searcher.ALL_PRUNES
    elif "none" in args.prune:
        if len(set(args.prune)) > 1:
            raise ValueError("--prune none cannot be combined with other prunes")
        prunes = frozenset()
    else:
        prunes = frozenset(args.prune)
    cfg = searcher.SearchConfig(
        order=args.order,
        prunes=prunes,
        workers=args.workers,
        canonicalize=args.canonical,
        budget_seconds=args.budget_seconds,
        ledger_path=args.ledger,
    )
    report = searcher.search(cfg)
    inputs = {
        "order": args.order,
        "prunes": sorted(prunes),
        "workers": args.workers,
        "canonical": args.canonical,
    }
    if args.budget_seconds is not None:
        inputs["budget_seconds"] = args.budget_seconds
    if args.ledger is not None:
        inputs["ledger"] = args.ledger
    return Report("search", inputs, report.to_dict(), not report.incomplete)


def _render_search(r: dict) -> str:
    lines = [
        f"order              : {r['order']}",
        f"prunes             : {', '.join(r['prunes']) if r['prunes'] else 'none'}",
        f"sequences examined : {r['sequences_examined']}",
        f"solutions          : {len(r['solutions'])}",
    ]
    for text in r["solutions"]:
        lines.append(f"  {text}")
    if r["canonical_classes"] is not None:
        lines.append(f"canonical classes  : {len(r['canonical_classes'])}")
        for text in r["canonical_classes"]:
            lines.append(f"  {text}")
    for name, count in sorted(r["prune_cuts"].items()):
        lines.append(f"cuts by {name:<10} : {count}")
    lines.append(f"elapsed seconds    : {r['elapsed_seconds']:.3f}")
    lines.append(f"complete           : {'yes' if not r['incomplete'] else 'NO (budget hit)'}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circhad",
        description="Circulant Hadamard verification, 2-block analysis, and search.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def per_instance(name, summary, what, entry, lines, *, example=None,
                     holds=lambda e: True, separator="\n\n"):
        noun = "block sequence" if what == "blocks" else what
        p = sub.add_parser(name, parents=[common], help=summary)
        p.add_argument(what, nargs="?", help=example)
        p.add_argument("--file", help=f"file with one {noun} per line")
        p.set_defaults(
            handler=partial(_run_instances, what, entry, holds),
            render=partial(_render_instances, lines, separator),
        )
        return p

    per_instance(
        "verify", "check the circulant Hadamard property", "sequence",
        _verify_entry, _verify_lines, example="sign sequence, e.g. -+++",
        holds=lambda e: e["is_circulant_hadamard"],
    )
    p = per_instance(
        "paf", "periodic autocorrelation", "sequence", _paf_entry, _paf_lines,
        separator="\n",
    )
    p.add_argument("--lag", type=int, help="single lag instead of the full spectrum")
    per_instance(
        "decompose", "2-block decomposition", "sequence", _decompose_entry, _decompose_lines
    )
    p = per_instance(
        "eqn1", "even-pair cancellation residuals", "blocks", _eqn1_entry, _eqn1_lines,
        example="block text, e.g. ++,+-,--,+-,--,+-",
        holds=lambda e: e.get("zero", e.get("holds")),
    )
    p.add_argument("--lag", type=int, help="single lag instead of all lags")

    p = sub.add_parser(
        "match", parents=[common], help="find or validate matchings at a lag"
    )
    p.add_argument("blocks")
    p.add_argument("--lag", type=int)
    p.add_argument("--matchings", help="validate this matching file instead of searching")
    p.set_defaults(handler=_cmd_match, render=_render_match)

    p = sub.add_parser("chase", parents=[common], help="run the obligation chase")
    p.add_argument("blocks")
    p.add_argument("--matchings", help="matching file, one 'u=..: (i,j)~(l,m)' per line")
    p.add_argument("--start", help="starting obligation, e.g. 0,2")
    p.set_defaults(handler=_cmd_chase, render=_render_chase)

    p = sub.add_parser(
        "counterexample",
        parents=[common],
        help="verify the bundled cycling instance end to end",
    )
    p.set_defaults(handler=_cmd_counterexample, render=_render_counterexample)

    p = sub.add_parser("search", parents=[common], help="exhaustive search at one order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument(
        "--prune",
        action="append",
        choices=(searcher.PRUNE_ROW_SUM, searcher.PRUNE_PREFIX_PAF, "none"),
        help="prune selection; repeatable; default is all prunes",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="processes to walk shards in where the platform can fork, the calling "
        "process counted as one (at most one per walked shard); the report is the "
        "same for any count",
    )
    p.add_argument("--canonical", action="store_true", help="also report orbit representatives")
    p.add_argument("--budget-seconds", type=float, default=None)
    p.add_argument("--ledger", help="append-only shard ledger for resumable runs")
    p.set_defaults(handler=_cmd_search, render=_render_search)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(render_json(report))
    else:
        print(args.render(report.result))
    return 0 if report.ok else 1


def entrypoint() -> None:
    raise SystemExit(main())
