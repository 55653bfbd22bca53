"""Command-line surface: entropy, distance, matrix, analyze.

Exit codes: 0 on success, 1 on input errors (bad syntax, bad flags,
alphabet violations), 2 on convergence or budget diagnostics.  Floating
point fields are rounded to 12 decimals so output is reproducible.
"""

import argparse
import json
import sys
from itertools import chain, islice

from . import dfa_from_regex
from .errors import (
    AlphabetError,
    BudgetError,
    ConvergenceError,
    DuplicateLanguageError,
    RegexSyntaxError,
    StateLimitError,
)
from .graphs import scc_decompose

# The analysis layers (counting, spectral, metrics, oracle) are imported
# in the commands that run them: a process compiles only what its command
# uses.

_METRIC_CODES = {
    "jn": "jn_cum",
    "jnp": "jn_exact",
    "jc": "cesaro",
    "h": "entropy",
    "hs": "entropy_sum",
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _jsonable(value):
    if isinstance(value, float):
        return round(value, 12)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _emit(obj):
    print(json.dumps(_jsonable(obj), sort_keys=True))


def build_parser() -> _Parser:
    parser = _Parser(prog="reglang", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    entropy = sub.add_parser("entropy", help="entropy of one language")
    entropy.add_argument("regex")
    entropy.add_argument("--alphabet", default=None)
    entropy.set_defaults(handler=cmd_entropy)

    distance = sub.add_parser("distance", help="distance between two languages")
    distance.add_argument("--metric", required=True, choices=sorted(_METRIC_CODES))
    distance.add_argument("--n", type=int, default=None)
    distance.add_argument(
        "--mode", choices=("auto", "analytic"), default="auto"
    )
    distance.add_argument("--alphabet", default=None)
    distance.add_argument("regex1")
    distance.add_argument("regex2")
    distance.set_defaults(handler=cmd_distance)

    matrix = sub.add_parser("matrix", help="pairwise distance matrix as CSV")
    matrix.add_argument("--metric", required=True, choices=sorted(_METRIC_CODES))
    matrix.add_argument("--file", required=True)
    matrix.add_argument("--n", type=int, default=None)
    matrix.add_argument(
        "--mode", choices=("auto", "analytic"), default="auto"
    )
    matrix.add_argument("--alphabet", default=None)
    matrix.set_defaults(handler=cmd_matrix)

    analyze = sub.add_parser("analyze", help="structural report for one language")
    analyze.add_argument("regex")
    analyze.add_argument("--alphabet", default=None)
    analyze.add_argument("--counts", type=int, default=None, metavar="N")
    analyze.add_argument("--dump", action="store_true")
    analyze.add_argument("--verify", action="store_true")
    analyze.add_argument("--format", choices=("json", "csv"), default="json")
    analyze.set_defaults(handler=cmd_analyze)

    return parser


def cmd_entropy(args) -> int:
    from .spectral import language_entropy

    dfa = dfa_from_regex(args.regex, args.alphabet)
    report = language_entropy(dfa)
    _emit(
        {
            "entropy_bits": report.entropy_bits,
            "spectral_radius": report.spectral_radius,
            "lambda_class": report.lambda_class,
            "components": [
                {"size": len(c.vertices), "period": c.period, "radius": c.radius}
                for c in report.components
            ],
        }
    )
    return 0


def cmd_distance(args) -> int:
    from .metrics import CesaroConfig, distance_result

    metric = _METRIC_CODES[args.metric]
    d1 = dfa_from_regex(args.regex1, args.alphabet)
    d2 = dfa_from_regex(args.regex2, args.alphabet)
    config = CesaroConfig(mode=args.mode)
    result = distance_result(metric, d1, d2, n=args.n, config=config)
    _emit(
        {
            "metric": result.metric,
            "value": result.value,
            "mode": result.mode,
            "diagnostics": result.diagnostics,
        }
    )
    return 0


def cmd_matrix(args) -> int:
    from .metrics import CesaroConfig, distance_result

    metric = _METRIC_CODES[args.metric]
    with open(args.file, encoding="utf-8") as handle:
        patterns = [line.strip() for line in handle if line.strip()]
    if not patterns:
        raise ValueError(f"no regexes found in {args.file}")
    dfas = [dfa_from_regex(p, args.alphabet) for p in patterns]
    config = CesaroConfig(mode=args.mode)
    cache = {}

    def value(i: int, j: int) -> float:
        if i == j:
            return 0.0
        key = (min(i, j), max(i, j))
        if key not in cache:
            cache[key] = distance_result(
                metric, dfas[key[0]], dfas[key[1]], n=args.n, config=config
            ).value
        return cache[key]

    # rows stream as they are computed; order matches the input file
    for i in range(len(dfas)):
        row = [str(round(value(i, j), 12)) for j in range(len(dfas))]
        print(",".join(row), flush=True)
    return 0


def _count_rows(dfa):
    """Yield (n, |W_n|, |W_<=n|) for n = 0, 1, ... from one count stream."""
    from .counting import CountVectors, length_counts

    total = 0
    for n, exact in enumerate(length_counts(CountVectors.from_dfa(dfa))):
        total += exact
        yield n, exact, total


def cmd_analyze(args) -> int:
    dfa = dfa_from_regex(args.regex, args.alphabet)
    report = scc_decompose(dfa)  # the trim graph's components, from the DFA's search

    stream = _count_rows(dfa)
    count_rows = []
    if args.counts is not None:
        if args.counts < 0:
            raise ValueError("--counts must be non-negative")
        count_rows = list(islice(stream, args.counts + 1))

    if args.format == "csv":
        if args.counts is None:
            raise ValueError("--format csv requires --counts")
        print("n,w_n,w_le_n")
        for n, exact, total in count_rows:
            print(f"{n},{exact},{total}")
        return 0

    # ints, bools and strings only, so printed with no `_jsonable` walk
    obj = {
        "vertices": sorted(chain.from_iterable(report.components)),
        "components": [sorted(c) for c in report.components],
        "periods": list(report.periods),
        "trivial": list(report.trivial),
        "residue_period": report.residue_period,
    }
    if count_rows:
        obj["counts"] = [
            {"n": n, "w_n": exact, "w_le_n": total} for n, exact, total in count_rows
        ]
    if args.dump:
        obj["dfa"] = json.loads(dfa.to_json())
    if args.verify:
        from .oracle import DEFAULT_BUDGET, oracle_counts

        horizon = min(8, args.counts if args.counts is not None else 8)
        DEFAULT_BUDGET.validate(len(dfa.alphabet), horizon)
        expected = oracle_counts(dfa, horizon)
        # with --counts the rows already read reach the horizon
        computed = count_rows or islice(stream, horizon + 1)
        mismatches = [want[0] for want, got in zip(expected, computed) if want != got]
        obj["verify"] = {"max_length": horizon, "match": not mismatches}
        if mismatches:
            print(json.dumps(obj, sort_keys=True))
            print(
                f"diagnostic: counts disagree with enumeration at lengths {mismatches}",
                file=sys.stderr,
            )
            return 2
    print(json.dumps(obj, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit:  # --help printed the usage; `error` never exits
        return 0
    try:
        return args.handler(args)
    except (
        RegexSyntaxError,
        AlphabetError,
        DuplicateLanguageError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, BudgetError, StateLimitError) as exc:
        print(f"diagnostic: {exc}", file=sys.stderr)
        partial = getattr(exc, "partial", None)
        if partial is not None:
            print(f"partial value: {partial}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
