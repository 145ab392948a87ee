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
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from . import blockform, matchchase, searcher
from .blockform import BlockSequence, SymBlockMatrix
from .matchchase import ChaseOutcome, ChaseTrace, IndexPair, MatchingBook
from .seqcore import SignSequence, is_circulant_hadamard, paf, paf_spectrum


class UsageError(ValueError):
    """Anything that should terminate with exit code 2."""


@dataclass
class Report:
    command: str
    inputs: dict
    result: object
    ok: bool

    def to_document(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "result": self.result,
            "ok": self.ok,
        }


def render_json(report: Report) -> str:
    return json.dumps(report.to_document(), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# input plumbing


def _read_instances(args: argparse.Namespace, what: str) -> tuple[list[str], dict]:
    """One instance from the positional argument, or one per line of --file."""
    positional = getattr(args, what)
    if args.file is not None:
        if positional is not None:
            raise UsageError(f"give the {what} either inline or via --file, not both")
        path = Path(args.file)
        if not path.exists():
            raise UsageError(f"no such file: {path}")
        lines = [ln.strip() for ln in path.read_text(encoding="utf-8").splitlines()]
        instances = [ln for ln in lines if ln]
        if not instances:
            raise UsageError(f"{path} contains no instances")
        return instances, {"file": str(path), "count": len(instances)}
    if positional is None:
        raise UsageError(f"missing {what}; give it inline or via --file")
    return [positional], {what: positional}


def _parse_sequence(text: str) -> SignSequence:
    try:
        return SignSequence.from_text(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_blocks(text: str) -> BlockSequence:
    try:
        return BlockSequence.from_text(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


_START = re.compile(r"^\(?(\d+),(\d+)\)?$")


def _parse_start(text: str) -> IndexPair:
    match = _START.match(re.sub(r"\s+", "", text))
    if match is None:
        raise UsageError(f"cannot parse start pair {text!r}; expected i,j")
    try:
        return IndexPair(int(match.group(1)), int(match.group(2)))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _matrix_rows(m: SymBlockMatrix) -> list[list[int]]:
    return [list(row) for row in m.rows()]


def _grid(m: SymBlockMatrix) -> list[str]:
    width = max(len(str(m.diag)), len(str(m.offdiag)))
    return [
        f"[ {a:>{width}} {b:>{width}} ]" for a, b in m.rows()
    ]


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_verify(args: argparse.Namespace) -> Report:
    texts, inputs = _read_instances(args, "sequence")
    entries = []
    for text in texts:
        h = _parse_sequence(text)
        spectrum = paf_spectrum(h)
        entries.append(
            {
                "sequence": h.text,
                "length": len(h),
                "row_sum": h.row_sum(),
                "paf_spectrum": list(spectrum),
                "is_circulant_hadamard": is_circulant_hadamard(h),
            }
        )
    ok = all(e["is_circulant_hadamard"] for e in entries)
    result = entries[0] if len(entries) == 1 and args.file is None else entries
    return Report("verify", inputs, result, ok)


def _render_verify(report: Report) -> str:
    entries = report.result if isinstance(report.result, list) else [report.result]
    lines = []
    for e in entries:
        lines += [
            f"sequence : {e['sequence']}",
            f"length   : {e['length']}",
            f"row sum  : {e['row_sum']}",
            f"paf      : {' '.join(str(v) for v in e['paf_spectrum'])}",
            f"circulant hadamard : {'yes' if e['is_circulant_hadamard'] else 'no'}",
            "",
        ]
    return "\n".join(lines).rstrip()


def _cmd_paf(args: argparse.Namespace) -> Report:
    texts, inputs = _read_instances(args, "sequence")
    if args.lag is not None:
        inputs["lag"] = args.lag
    entries = []
    for text in texts:
        h = _parse_sequence(text)
        entry: dict = {"sequence": h.text, "length": len(h)}
        if args.lag is not None:
            if not 0 <= args.lag < len(h):
                raise UsageError(f"lag {args.lag} out of range for length {len(h)}")
            entry["lag"] = args.lag
            entry["value"] = paf(h, args.lag)
        else:
            entry["paf_spectrum"] = list(paf_spectrum(h))
        entries.append(entry)
    result = entries[0] if len(entries) == 1 and args.file is None else entries
    return Report("paf", inputs, result, True)


def _render_paf(report: Report) -> str:
    entries = report.result if isinstance(report.result, list) else [report.result]
    lines = []
    for e in entries:
        if "value" in e:
            lines.append(f"{e['sequence']}  paf({e['lag']}) = {e['value']}")
        else:
            spectrum = " ".join(str(v) for v in e["paf_spectrum"])
            lines.append(f"{e['sequence']}  paf = {spectrum}")
    return "\n".join(lines)


def _cmd_decompose(args: argparse.Namespace) -> Report:
    texts, inputs = _read_instances(args, "sequence")
    entries = []
    for text in texts:
        h = _parse_sequence(text)
        if len(h) % 4 != 0:
            raise UsageError(f"length {len(h)} is not divisible by 4")
        bs = blockform.block_decompose(h)
        even = [
            {"index": i, "symmetric": blockform.is_symmetric_even(bs, i)}
            for i in bs.even_indices()
        ]
        entries.append(
            {
                "sequence": h.text,
                "blocks": bs.text,
                "parities": [str(b.parity) for b in bs],
                "even_count": blockform.even_count(bs),
                "n": bs.n,
                "even_blocks": even,
            }
        )
    result = entries[0] if len(entries) == 1 and args.file is None else entries
    return Report("decompose", inputs, result, True)


def _render_decompose(report: Report) -> str:
    entries = report.result if isinstance(report.result, list) else [report.result]
    lines = []
    for e in entries:
        lines += [
            f"sequence   : {e['sequence']}",
            f"blocks     : {e['blocks']}",
            f"parities   : {' '.join(e['parities'])}",
            f"even count : {e['even_count']} of {2 * e['n']} (n = {e['n']})",
        ]
        for item in e["even_blocks"]:
            flag = "symmetric" if item["symmetric"] else "not symmetric"
            lines.append(f"  even block {item['index']}: {flag}")
        lines.append("")
    return "\n".join(lines).rstrip()


def _cmd_eqn1(args: argparse.Namespace) -> Report:
    texts, inputs = _read_instances(args, "blocks")
    if args.lag is not None:
        inputs["lag"] = args.lag
    entries = []
    for text in texts:
        bs = _parse_blocks(text)
        if args.lag is not None:
            if not 1 <= args.lag < len(bs):
                raise UsageError(f"lag {args.lag} out of range for {len(bs)} blocks")
            residual = blockform.cancellation_residual(bs, args.lag)
            entries.append(
                {
                    "blocks": bs.text,
                    "lag": args.lag,
                    "residual": _matrix_rows(residual),
                    "zero": residual.is_zero,
                }
            )
        else:
            residuals = [
                blockform.cancellation_residual(bs, u) for u in range(1, len(bs))
            ]
            entries.append(
                {
                    "blocks": bs.text,
                    "residuals": [
                        {"lag": u, "matrix": _matrix_rows(r), "zero": r.is_zero}
                        for u, r in enumerate(residuals, start=1)
                    ],
                    "holds": all(r.is_zero for r in residuals),
                }
            )
    ok = all(e.get("zero", e.get("holds")) for e in entries)
    result = entries[0] if len(entries) == 1 and args.file is None else entries
    return Report("eqn1", inputs, result, ok)


def _render_eqn1(report: Report) -> str:
    entries = report.result if isinstance(report.result, list) else [report.result]
    lines = []
    for e in entries:
        lines.append(f"blocks : {e['blocks']}")
        if "lag" in e:
            m = SymBlockMatrix(e["residual"][0][0], e["residual"][0][1])
            lines.append(f"residual at lag {e['lag']}:")
            lines += [f"  {row}" for row in _grid(m)]
            lines.append(f"zero : {'yes' if e['zero'] else 'no'}")
        else:
            for item in e["residuals"]:
                m = SymBlockMatrix(item["matrix"][0][0], item["matrix"][0][1])
                flag = "zero" if item["zero"] else "NONZERO"
                lines.append(
                    f"  lag {item['lag']}: [[{m.diag}, {m.offdiag}], "
                    f"[{m.offdiag}, {m.diag}]]  {flag}"
                )
            lines.append(f"cancellation holds : {'yes' if e['holds'] else 'no'}")
        lines.append("")
    return "\n".join(lines).rstrip()


def _read_matching_book(path_text: str) -> tuple[Path, MatchingBook]:
    path = Path(path_text)
    if not path.exists():
        raise UsageError(f"no such matchings file: {path}")
    try:
        book = matchchase.parse_matching_lines(
            path.read_text(encoding="utf-8").splitlines()
        )
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from exc
    return path, book


def _book_violations(bs: BlockSequence, book: MatchingBook) -> list[str]:
    problems = []
    for m in book.matchings():
        verdict = matchchase.validate_matching(bs, m)
        problems += [f"lag {m.lag}: {v}" for v in verdict.violations]
    return problems


def _cmd_match(args: argparse.Namespace) -> Report:
    texts, inputs = _read_instances(args, "blocks")
    if len(texts) != 1:
        raise UsageError("match works on a single block sequence")
    bs = _parse_blocks(texts[0])
    if args.matchings is not None:
        inputs["matchings"] = args.matchings
        _, book = _read_matching_book(args.matchings)
        violations = _book_violations(bs, book)
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
            raise UsageError(f"lag {u} out of range for {len(bs)} blocks")
        found = matchchase.find_matching(bs, u)
        matched = set(found.index_pairs())
        unmatched = [
            [p.first, p.second]
            for p in matchchase.even_pairs_at_lag(bs, u)
            if p not in matched
        ]
        per_lag.append(
            {
                "lag": u,
                "pairs": [
                    [[p.first, p.second], [q.first, q.second]] for p, q in found.pairs
                ],
                "unmatched": unmatched,
                "perfect": not unmatched,
            }
        )
    if args.lag is not None:
        inputs["lag"] = args.lag
    result = {"blocks": bs.text, "lags": per_lag, "all_perfect": all(x["perfect"] for x in per_lag)}
    return Report("match", inputs, result, result["all_perfect"])


def _render_match(report: Report) -> str:
    r = report.result
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
            {
                "obligation": [s.obligation.first, s.obligation.second],
                "matched": None if s.matched is None else [s.matched.first, s.matched.second],
            }
            for s in trace.steps
        ],
        "outcome": str(trace.outcome),
        "repeat": None if trace.repeat is None else [trace.repeat.first, trace.repeat.second],
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
    texts, inputs = _read_instances(args, "blocks")
    if len(texts) != 1:
        raise UsageError("chase works on a single block sequence")
    bs = _parse_blocks(texts[0])
    if args.matchings is None:
        raise UsageError("chase needs --matchings")
    if args.start is None:
        raise UsageError("chase needs --start i,j")
    inputs["matchings"] = args.matchings
    inputs["start"] = args.start
    path, book = _read_matching_book(args.matchings)
    problems = _book_violations(bs, book)
    if problems:
        raise UsageError(f"{path}: invalid matchings\n" + "\n".join(problems))
    start = _parse_start(args.start)
    try:
        trace = matchchase.chase(bs, book, start)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    payload = _trace_payload(trace)
    result = {
        "blocks": bs.text,
        "start": [start.first, start.second],
        "matchings": matchchase.render_matching_lines(book),
        "trace": payload,
    }
    ok = trace.outcome in (ChaseOutcome.CYCLE, ChaseOutcome.DEGENERATE)
    return Report("chase", inputs, result, ok)


def _render_chase(report: Report) -> str:
    r = report.result
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
        "start": [start.first, start.second],
        "matchings": matchchase.render_matching_lines(book),
        "even_indices": list(even),
        "checks": checks,
        "trace": _trace_payload(trace),
    }
    return Report("counterexample", {}, result, all(c["pass"] for c in checks))


def _render_counterexample(report: Report) -> str:
    r = report.result
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
            raise UsageError("--prune none cannot be combined with other prunes")
        prunes = frozenset()
    else:
        prunes = frozenset(args.prune)
    try:
        cfg = searcher.SearchConfig(
            order=args.order,
            prunes=prunes,
            workers=args.workers,
            canonicalize=args.canonical,
            budget_seconds=args.budget_seconds,
            ledger_path=args.ledger,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
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


def _render_search(report: Report) -> str:
    r = report.result
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

_RENDERERS: dict[str, Callable[[Report], str]] = {
    "verify": _render_verify,
    "paf": _render_paf,
    "decompose": _render_decompose,
    "eqn1": _render_eqn1,
    "match": _render_match,
    "chase": _render_chase,
    "counterexample": _render_counterexample,
    "search": _render_search,
}


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

    p = sub.add_parser("verify", parents=[common], help="check the circulant Hadamard property")
    p.add_argument("sequence", nargs="?", help="sign sequence, e.g. -+++")
    p.add_argument("--file", help="file with one sequence per line")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("paf", parents=[common], help="periodic autocorrelation")
    p.add_argument("sequence", nargs="?")
    p.add_argument("--file", help="file with one sequence per line")
    p.add_argument("--lag", type=int, help="single lag instead of the full spectrum")
    p.set_defaults(handler=_cmd_paf)

    p = sub.add_parser("decompose", parents=[common], help="2-block decomposition")
    p.add_argument("sequence", nargs="?")
    p.add_argument("--file", help="file with one sequence per line")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser(
        "eqn1", parents=[common], help="even-pair cancellation residuals"
    )
    p.add_argument("blocks", nargs="?", help="block text, e.g. ++,+-,--,+-,--,+-")
    p.add_argument("--file", help="file with one block sequence per line")
    p.add_argument("--lag", type=int, help="single lag instead of all lags")
    p.set_defaults(handler=_cmd_eqn1)

    p = sub.add_parser(
        "match", parents=[common], help="find or validate matchings at a lag"
    )
    p.add_argument("blocks", nargs="?")
    p.add_argument("--file", help="file with one block sequence per line")
    p.add_argument("--lag", type=int)
    p.add_argument("--matchings", help="validate this matching file instead of searching")
    p.set_defaults(handler=_cmd_match)

    p = sub.add_parser("chase", parents=[common], help="run the obligation chase")
    p.add_argument("blocks", nargs="?")
    p.add_argument("--file", help="file with one block sequence per line")
    p.add_argument("--matchings", help="matching file, one 'u=..: (i,j)~(l,m)' per line")
    p.add_argument("--start", help="starting obligation, e.g. 0,2")
    p.set_defaults(handler=_cmd_chase)

    p = sub.add_parser(
        "counterexample",
        parents=[common],
        help="verify the bundled cycling instance end to end",
    )
    p.set_defaults(handler=_cmd_counterexample)

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
        help="processes to run shards in (at most one per shard); the report "
        "is the same for any count",
    )
    p.add_argument("--canonical", action="store_true", help="also report orbit representatives")
    p.add_argument("--budget-seconds", type=float, default=None)
    p.add_argument("--ledger", help="append-only shard ledger for resumable runs")
    p.set_defaults(handler=_cmd_search)

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
        print(_RENDERERS[report.command](report))
    return 0 if report.ok else 1


def entrypoint() -> None:
    raise SystemExit(main())
