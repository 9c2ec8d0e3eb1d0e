"""Batch front door: ``lis-lab check|bound|verify|simulate``.

Every report embeds the spec source hash, library version, memory depth,
caps, tolerances, and seeds, so a report alone identifies its inputs.
Exit codes: 0 pass, 1 usage or input error, 2 criterion or verification
failure.  Handlers only parse, call the library and build the report:
``verify`` times ``oracle.verify_suite``, which holds the suite and its admission.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import numbers
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:
    from .kernels import KernelSpec

# Only the standard library loads above: each command imports the library
# modules it runs, so ``--help`` and usage errors load no numpy (a ``--lags``
# range alone loads ``bounds``, whose site budget caps it).


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve 2
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _canonical(obj):
    """Make every number in ``obj`` a plain Python ``int`` or ``float``.

    numpy scalars register as ``numbers.Integral`` and ``numbers.Real``, so
    they become Python numbers without this module importing numpy; ``bool``
    is an ``Integral`` too and stays as it is.
    """
    if isinstance(obj, dict):
        return {k: _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, numbers.Integral):
        return int(obj)
    if isinstance(obj, numbers.Real):
        return float(obj)
    return obj


def _write_all(texts: dict[str, str]) -> None:
    """Write each ``path: text`` via a ``.tmp`` file next to it, renaming once all are written.

    Numbered temporary names keep two spellings of one path apart.  A failure
    removes every file this call wrote and names the path the user gave.
    """
    written: list[Path] = []
    try:
        for i, (path, text) in enumerate(texts.items()):
            written.append(Path(path).with_name(f"{Path(path).name}.{i}.tmp"))
            written[-1].write_text(text)
        for path, tmp in zip(texts, written[:]):
            os.replace(tmp, path)
            written.append(Path(path))
    except OSError as exc:
        for name in written:
            name.unlink(missing_ok=True)
        raise OSError(exc.errno, exc.strerror, path) from None


def _csv_text(table: dict) -> str:
    buf = io.StringIO()
    rows = ([_fmt(x) if isinstance(x, float) else x for x in row] for row in table["rows"])
    csv.writer(buf).writerows([table["header"], *rows])
    return buf.getvalue()


def _emit_report(report: dict, out: str | None, csv_path: str | None = None) -> None:
    """Print the JSON report or write it to ``out``; ``csv_path`` also gets its table as CSV."""
    text = json.dumps(_canonical(report), indent=2, sort_keys=True)
    texts = {csv_path: _csv_text(report["table"])} if csv_path else {}
    if out:
        texts[out] = text + "\n"
    _write_all(texts)
    if not out:
        print(text)


def _load_kernel(args) -> tuple[KernelSpec, dict]:
    from . import specio

    if args.example:
        try:
            if args.example == "paper-powerlaw":
                f = specio.power_law_linear(args.epsilon, args.depth, label="paper-powerlaw")
                params = {"example": "paper-powerlaw", "epsilon": args.epsilon, "depth": args.depth}
            else:
                f = specio.two_state_markov(args.p01, args.p11, label="markov")
                params = {"example": "markov", "p01": args.p01, "p11": args.p11}
        except ValueError as exc:
            raise _UsageError(f"--example {args.example}: {exc}") from None
        doc = json.dumps(_canonical(specio.kernel_to_doc(f)), sort_keys=True)
        params["sha256"] = specio.spec_sha256(doc.encode())
        return f, params
    return specio.load_spec_file(args.spec)


def _metadata(f: KernelSpec, source: dict, seed: int | None = None) -> dict:
    from .core import ABS_TOL, DEFAULT_CONFIG_CAP, SUM_TOL

    family = type(f.family).__name__
    return {
        "version": __version__,
        "spec": source,
        "kernel": {
            "memory_depth": f.memory_depth,
            "alphabet_size": f.alphabet.size,
            "family": family,
            "stationary": f.stationary,
            "truncation_tail": f.truncation_tail,
            "label": f.label,
        },
        "caps": {"config_cap": DEFAULT_CONFIG_CAP},
        "tolerances": {"sum_tol": SUM_TOL, "abs_tol": ABS_TOL},
        "seed": seed,
    }


def _indicator_symbol(f: KernelSpec, name: str | None) -> int:
    if name is None:
        return min(1, f.alphabet.size - 1)
    try:
        return f.alphabet.index_of(name)
    except ValueError as exc:
        raise _UsageError(f"--symbol: {exc}") from None


def _int_in(lo: float = -math.inf, hi: float = math.inf):
    """argparse type: an integer in ``[lo, hi]``."""

    def parse(raw: str) -> int:
        value = int(raw)  # argparse reports a ValueError as an invalid int value
        if not lo <= value <= hi:
            limit = f">= {lo}" if value < lo else f"<= {hi}"
            raise argparse.ArgumentTypeError(f"expected an integer {limit}, got {value}")
        return value

    parse.__name__ = "int"
    return parse


def _parse_lags(raw: str) -> list[int]:
    """argparse type for ``--lags``: ``lo:hi`` with ``lo <= hi`` or a comma list, every lag >= 0.

    A range is counted before it is built and holds at most ``bounds._SITE_BUDGET`` lags;
    only a range loads ``bounds`` for that budget, so the defaults are lists.
    """
    try:
        if ":" in raw:
            from .bounds import _SITE_BUDGET

            lo, hi = (int(x) for x in raw.split(":", 1))
            count = hi - lo + 1  # len(range(lo, hi + 1)), without its C-size limit
            if count > _SITE_BUDGET:
                raise argparse.ArgumentTypeError(
                    f"at most {_SITE_BUDGET} lags, got {count} in {raw!r}"
                )
            lags = list(range(lo, hi + 1))
        else:
            lags = [int(x) for x in raw.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo:hi or a comma list, got {raw!r}") from None
    if not lags:
        raise argparse.ArgumentTypeError(f"lag range is empty, got {raw!r}")
    if any(lag < 0 for lag in lags):
        raise argparse.ArgumentTypeError(f"lags must be non-negative, got {raw!r}")
    return lags


def cmd_check(args) -> int:
    from .analysis import boundary_uniformity_check, build_sensitivity_matrix, dobrushin_check

    f, source = _load_kernel(args)
    alpha = build_sensitivity_matrix(f)
    verdicts = {
        "dobrushin": dobrushin_check(alpha),
        "boundary": boundary_uniformity_check(f),
    }
    report = _metadata(f, source)
    report["command"] = "check"
    report["criteria"] = {name: v.as_dict() for name, v in verdicts.items()}
    report["selected"] = args.criterion
    if args.criterion == "both":
        passed = all(v.satisfied for v in verdicts.values())
    else:
        passed = verdicts[args.criterion].satisfied
    report["passed"] = passed
    _emit_report(report, args.out)
    return 0 if passed else 2


def _memory_rows(f, args) -> list[list]:
    from .analysis import build_sensitivity_matrix
    from .bounds import memory_bound_general
    from .core import CapExceededError, Window, indicator

    if args.verify:
        from . import oracle

    alpha = build_sensitivity_matrix(f)
    symbol = _indicator_symbol(f, args.symbol)
    rows = []
    for n in range(1, args.max_n + 1):
        window = Window(0, n)
        h = indicator(n, symbol, f.alphabet)
        bound = memory_bound_general(alpha, window, h, args.site).value
        exact = slack = ""
        if args.verify:
            with contextlib.suppress(CapExceededError):
                exact = oracle.exact_oscillation_of_average(f, window, h, args.site)
                slack = bound - exact
        rows.append([n, bound, exact, slack])
    return rows


def _lag_table(f, args, header: list, verify: bool, burn: int | None) -> tuple[list, int | None]:
    """Rows of the per-lag columns named in ``header``, each computed once, and the burn-in.

    ``bound`` is empty at lag 0 and where the row-sum criterion fails;
    ``exact`` (with ``verify``) reads one stationary law; ``empirical`` and
    ``se`` (with ``args.length``, else ``burn`` comes back as given) come
    from a path sampled last, so nothing before it adds to its peak memory.
    A path too short is an input error.
    """
    from .analysis import build_sensitivity_matrix
    from .bounds import BoundNotApplicableError, correlation_bound
    from .core import indicator, shift_observable

    alpha = build_sensitivity_matrix(f)
    h0 = indicator(0, _indicator_symbol(f, args.symbol), f.alphabet)
    cols = {name: [""] * len(args.lags) for name in ("bound", "exact", "empirical", "se")}
    cols["lag"] = args.lags
    for i, lag in enumerate(args.lags):
        h_lag = shift_observable(h0, lag)
        with contextlib.suppress(BoundNotApplicableError):
            if lag:  # lag 0 keeps its empty cell
                cols["bound"][i] = correlation_bound(
                    alpha, h_lag.support, h0.support, h_lag, h0, f.alphabet.diameter
                ).value
    if verify:
        from . import oracle

        with contextlib.suppress(ValueError, oracle.ChainStructureError):
            law = oracle.stationary_measure(f)  # one law per command; every lag reads it
            for i, lag in enumerate(args.lags):
                with contextlib.suppress(ValueError):  # past the cap
                    cols["exact"][i] = oracle.exact_correlation(f, h0, h0, lag, law)
    if args.length:
        from . import sim

        path = sim.sample_path(f, args.length, args.seed)
        try:
            burn = sim.default_burn_in(alpha) if burn is None else burn
            estimates = [sim.estimate_correlation(path, h0, h0, lag, burn) for lag in args.lags]
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
        cols["empirical"] = [est.estimate for est in estimates]
        cols["se"] = [est.standard_error for est in estimates]
    return [list(row) for row in zip(*(cols[name] for name in header))], burn


def _compare_rows(f, f_other, args) -> list[list]:
    from . import oracle
    from .analysis import build_sensitivity_matrix
    from .bounds import comparison_bound
    from .core import Window, indicator

    observables = [indicator(0, symbol, f.alphabet) for symbol in range(f.alphabet.size)]
    alpha = build_sensitivity_matrix(f)
    bounds = [comparison_bound(alpha, f, f_other, Window(0, 0), h).value for h in observables]
    try:
        expectations = zip(
            oracle.stationary_expectations(f, observables),
            oracle.stationary_expectations(f_other, observables),
        )
        exact = [abs(e1 - e2) for e1, e2 in expectations]
    except (ValueError, oracle.ChainStructureError):
        exact = [""] * len(observables)
    return [list(row) for row in zip(f.alphabet.symbols, bounds, exact)]


def cmd_bound(args) -> int:
    from .specio import SpecError, load_spec_file

    f, source = _load_kernel(args)
    report = _metadata(f, source)
    report["command"] = f"bound {args.mode}"
    if args.mode == "memory":
        header = ["n", "bound", "exact", "slack"]
        rows = _memory_rows(f, args)
    elif args.mode == "correlation":
        header = ["lag", "bound", "exact", "empirical", "se"]
        rows, _ = _lag_table(f, args, header, args.verify, None)
        report["seed"] = args.seed if args.length else None
    elif args.mode == "compare":
        if not args.other:
            raise _UsageError("bound compare requires --other SPEC")
        f_other, other_source = load_spec_file(args.other)
        if f_other.alphabet != f.alphabet:
            raise SpecError(f"{args.other} is on another alphabet than the reference spec")
        report["other_spec"] = other_source
        header = ["symbol", "bound", "exact"]
        rows = _compare_rows(f, f_other, args)
    else:  # pragma: no cover - argparse restricts choices
        raise _UsageError(f"unknown bound mode {args.mode!r}")
    report["table"] = {"header": header, "rows": _canonical(rows)}
    _emit_report(report, args.out, args.csv)
    return 0


def cmd_verify(args) -> int:
    f, source = _load_kernel(args)
    from .oracle import verify_suite

    started = time.monotonic()
    results = verify_suite(f, args.trials, args.seed)
    elapsed = time.monotonic() - started
    report = _metadata(f, source, seed=args.seed)
    report["command"] = "verify"
    report["elapsed_seconds"] = elapsed
    report["properties"] = results
    passed = all(r["passed"] for r in results)
    report["passed"] = passed
    _emit_report(report, args.out)
    return 0 if passed else 2


def cmd_simulate(args) -> int:
    f, source = _load_kernel(args)
    header = ["lag", "empirical", "se", "bound"]
    rows, burn = _lag_table(f, args, header, False, args.burn_in)
    report = _metadata(f, source, seed=args.seed)
    report["command"] = "simulate"
    report["length"] = args.length
    report["burn_in"] = burn
    report["table"] = {"header": header, "rows": _canonical(rows)}
    _emit_report(report, args.out, args.csv)
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("spec", nargs="?", help="kernel spec JSON file")
    p.add_argument("--example", choices=["paper-powerlaw", "markov"], help="builtin kernel family")
    p.add_argument("--epsilon", type=float, default=0.5, help="power-law example parameter")
    p.add_argument("--depth", type=int, default=64, help="power-law example memory depth")
    p.add_argument("--p01", type=float, default=0.3, help="markov example P(1|0)")
    p.add_argument("--p11", type=float, default=0.7, help="markov example P(1|1)")
    p.add_argument("--out", help="write the JSON report here instead of stdout")


def build_parser() -> _Parser:
    parser = _Parser(prog="lis-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the uniqueness criteria")
    _add_common(p_check)
    p_check.add_argument(
        "--criterion",
        choices=["dobrushin", "boundary", "both"],
        default="dobrushin",
        help="criterion deciding the exit code",
    )
    p_check.set_defaults(func=cmd_check)

    p_bound = sub.add_parser("bound", help="evaluate decay bounds")
    p_bound.add_argument("mode", choices=["memory", "correlation", "compare"])
    _add_common(p_bound)
    p_bound.add_argument("--csv", help="also write the tabular output as CSV")
    p_bound.add_argument(
        "--site", type=_int_in(hi=-1), default=-1, help="past site probed by memory bounds"
    )
    p_bound.add_argument("--symbol", help="indicator symbol (defaults to the second one)")
    p_bound.add_argument("--max-n", type=_int_in(lo=1), default=8, help="memory sweep window size")
    p_bound.add_argument(
        "--lags",
        type=_parse_lags,
        default=list(range(1, 9)),
        help="lag list fragment, e.g. 1:8 or 1,2,5",
    )
    p_bound.add_argument("--verify", action="store_true", help="add exact oracle columns")
    p_bound.add_argument(
        "--length", type=_int_in(lo=1), help="add empirical columns from a sampled path"
    )
    p_bound.add_argument("--seed", type=_int_in(lo=0), default=1, help="sampling seed")
    p_bound.add_argument("--other", help="second spec file for compare mode")
    p_bound.set_defaults(func=cmd_bound)

    p_verify = sub.add_parser("verify", help="run the exact property suite")
    _add_common(p_verify)
    p_verify.add_argument(
        "--trials", type=_int_in(lo=1), default=200, help="randomised trial budget"
    )
    p_verify.add_argument("--seed", type=_int_in(lo=0), default=0)
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="sample a path and estimate correlations")
    _add_common(p_sim)
    p_sim.add_argument("--csv", help="also write the tabular output as CSV")
    p_sim.add_argument("--length", type=_int_in(lo=1), default=100000)
    p_sim.add_argument("--seed", type=_int_in(lo=0), default=1)
    p_sim.add_argument("--lags", type=_parse_lags, default=list(range(1, 6)))
    p_sim.add_argument("--burn-in", type=_int_in(lo=0), help="override the heuristic burn-in")
    p_sim.add_argument("--symbol", help="indicator symbol (defaults to the second one)")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def _raised(exc: Exception, module: str, name: str) -> bool:
    """Whether ``exc`` is the error class ``name`` of the library ``module``.

    A module that never loaded raised nothing, so this imports none.
    """
    loaded = sys.modules.get(f"{__package__}.{module}")
    return loaded is not None and isinstance(exc, getattr(loaded, name))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not (args.spec or args.example):  # before the command loads any library module
            raise _UsageError("a spec file or --example is required")
        return args.func(args)
    except (_UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. a --length whose path cannot be allocated
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        if _raised(exc, "specio", "SpecError") or _raised(exc, "core", "CapExceededError"):
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if _raised(exc, "bounds", "BoundNotApplicableError"):
            print(f"criterion not met: {exc}", file=sys.stderr)
            return 2
        raise


if __name__ == "__main__":
    sys.exit(main())
