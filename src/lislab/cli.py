"""Batch front door: ``lis-lab check|bound|verify|simulate``.

Every report embeds the spec source hash, library version, memory depth,
caps, tolerances, and seeds, so a report alone identifies its inputs.
Exit codes: 0 pass, 1 usage or input error, 2 criterion or verification
failure.  Every command runs one lifecycle, ``_run``: load the kernel,
write the metadata, let the command's fill function call the library and
add its own fields, then emit the report.
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
# range or a ``--max-n`` alone loads ``bounds``, whose site budget caps both).


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve 2
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _plain_number(obj):
    """``json.dumps`` fallback: a numpy integer becomes an ``int``, any other numpy real a ``float``.

    numpy registers its scalars with ``numbers``, so this module imports no numpy.
    """
    if isinstance(obj, numbers.Real):
        return int(obj) if isinstance(obj, numbers.Integral) else float(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


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
    text = json.dumps(report, indent=2, sort_keys=True, default=_plain_number)
    texts = {csv_path: _csv_text(report["table"])} if csv_path else {}
    if out:
        texts[out] = text + "\n"
    _write_all(texts)
    if not out:
        print(text)


#: Each builtin example: the ``specio`` builder it calls and its parameters with their defaults.
_EXAMPLES = {
    "paper-powerlaw": ("power_law_linear", {"epsilon": 0.5, "depth": 64}),
    "markov": ("two_state_markov", {"p01": 0.3, "p11": 0.7}),
}


def _check_args(args) -> None:
    """Require one kernel source, each example parameter with its example, --seed with a path."""
    if not (args.spec or args.example):
        raise _UsageError("a spec file or --example is required")
    if args.spec and args.example:
        raise _UsageError("give a spec file or --example, not both")
    for example, (_, defaults) in _EXAMPLES.items():
        given = [name for name in defaults if getattr(args, name) is not None]
        if given and example != args.example:
            raise _UsageError(f"--{given[0]} applies only to --example {example}")
    if getattr(args, "seed", 1) is None:  # bound correlation's --seed: 1 when a path is sampled
        args.seed = 1 if args.length else None
    elif getattr(args, "length", 1) is None:
        raise _UsageError("--seed applies only with --length")


def _load_kernel(args) -> tuple[KernelSpec, dict]:
    from . import specio

    if not args.example:
        return specio.load_spec_file(args.spec)
    builder, defaults = _EXAMPLES[args.example]
    params = {k: d if getattr(args, k) is None else getattr(args, k) for k, d in defaults.items()}
    try:
        f = getattr(specio, builder)(*params.values(), label=args.example)
    except ValueError as exc:
        raise _UsageError(f"--example {args.example}: {exc}") from None
    doc = json.dumps(specio.kernel_to_doc(f), sort_keys=True)
    return f, {"example": args.example, **params, "sha256": specio.spec_sha256(doc.encode())}


def _metadata(f: KernelSpec, source: dict) -> dict:
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


def _parse_max_n(raw: str) -> int:
    """argparse type for ``--max-n``: an integer in ``[1, bounds._SITE_BUDGET]``."""
    from .bounds import _SITE_BUDGET

    return _int_in(lo=1, hi=_SITE_BUDGET)(raw)


_parse_max_n.__name__ = "int"  # argparse names the type in its "invalid int value" message


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


def _check_fill(f, args, report: dict) -> bool:
    from dataclasses import asdict  # here, so that --help loads no dataclasses or inspect

    from .analysis import boundary_uniformity_check, build_sensitivity_matrix, dobrushin_check

    verdicts = {
        "dobrushin": dobrushin_check(build_sensitivity_matrix(f)),
        "boundary": boundary_uniformity_check(f),
    }
    report["criteria"] = {name: asdict(v) for name, v in verdicts.items()}
    report["selected"] = args.criterion
    selected = verdicts.values() if args.criterion == "both" else [verdicts[args.criterion]]
    report["passed"] = all(v.satisfied for v in selected)
    return report["passed"]


def _memory_table(f, args, report: dict) -> tuple[list, list]:
    """One bound sweep gives every row, and with ``--verify`` one oracle call every ``exact``.

    An ``exact`` cell stays empty past the oracle's cap or its ``WORK_CAP`` of steps times blocks.
    """
    from .analysis import build_sensitivity_matrix
    from .bounds import memory_bound_rows
    from .core import indicator

    h0 = indicator(0, _indicator_symbol(f, args.symbol), f.alphabet)
    bounds = memory_bound_rows(build_sensitivity_matrix(f), h0, args.site, args.max_n)
    rows = [[n, bound, "", ""] for n, bound in enumerate(bounds, 1)]
    if args.verify:
        from .oracle import exact_oscillation_rows

        for row, exact in zip(rows, exact_oscillation_rows(f, h0, args.site, args.max_n)):
            row[2:] = exact, row[1] - exact
    return ["n", "bound", "exact", "slack"], rows


def _lag_table(f, args, header: list) -> tuple[list, int | None]:
    """Rows of the per-lag columns named in ``header``, each computed once, and the burn-in.

    ``bound`` is empty at lag 0 and where the row-sum criterion fails;
    ``exact`` (with ``args.verify``) comes from one forward sweep, empty past
    its work cap; ``empirical`` and ``se`` (with ``args.length``, else
    ``args.burn_in`` comes back as given) come from a path sampled last, so
    nothing before it adds to its peak memory.  A path too short is an input error.
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
    if args.verify:
        from . import oracle

        with contextlib.suppress(ValueError, oracle.ChainStructureError):  # no law, or past the cap
            exact = oracle.exact_correlations(f, h0, h0, args.lags)
            cols["exact"] = [exact.get(lag, "") for lag in args.lags]
    burn = args.burn_in
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


def _correlation_table(f, args, report: dict) -> tuple[list, list]:
    header = ["lag", "bound", "exact", "empirical", "se"]
    return header, _lag_table(f, args, header)[0]


def _simulate_table(f, args, report: dict) -> tuple[list, list]:
    header = ["lag", "empirical", "se", "bound"]
    rows, report["burn_in"] = _lag_table(f, args, header)
    report["length"] = args.length
    return header, rows


def _compare_table(f, args, report: dict) -> tuple[list, list]:
    from . import oracle
    from .analysis import build_sensitivity_matrix
    from .bounds import comparison_bound
    from .core import Window, indicator
    from .specio import SpecError, load_spec_file

    f_other, report["other_spec"] = load_spec_file(args.other)
    if f_other.alphabet != f.alphabet:
        raise SpecError(f"{args.other} is on another alphabet than the reference spec")
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
    return ["symbol", "bound", "exact"], [list(r) for r in zip(f.alphabet.symbols, bounds, exact)]


def _table_fill(f, args, report: dict) -> bool:
    """Fill the report's table from the command's builder, which adds its own fields."""
    header, rows = args.table(f, args, report)
    report["table"] = {"header": header, "rows": rows}
    return True


def _verify_fill(f, args, report: dict) -> bool:
    from .oracle import verify_suite

    started = time.monotonic()
    report["properties"] = verify_suite(f, args.trials, args.seed)
    report["elapsed_seconds"] = time.monotonic() - started
    report["passed"] = all(r["passed"] for r in report["properties"])
    return report["passed"]


def _run(args) -> int:
    """The one command lifecycle: 0 if the command's ``fill`` says the report passed, else 2."""
    f, source = _load_kernel(args)
    report = _metadata(f, source)
    report["command"] = args.command
    report["seed"] = getattr(args, "seed", None)  # None where nothing is sampled or drawn
    passed = args.fill(f, args, report)
    _emit_report(report, args.out, getattr(args, "csv", None))
    return 0 if passed else 2


def _common_flags() -> _Parser:
    """The kernel source and ``--out``, which every command reads."""
    p = _Parser(add_help=False)
    p.add_argument("spec", nargs="?", help="kernel spec JSON file")
    p.add_argument("--example", choices=list(_EXAMPLES), help="builtin kernel family")
    for example, (_, defaults) in _EXAMPLES.items():
        for name, value in defaults.items():
            # sweeps grow with the depth: at 5000, bound correlation --lags 1 takes about 3.5 s
            kind = _int_in(hi=5000) if name == "depth" else type(value)
            p.add_argument(f"--{name}", type=kind, help=f"{example} only, default {value}")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    return p


def _add_lag_flags(p: argparse.ArgumentParser, lags: int, length: int | None) -> None:
    """``--csv`` and the ``_lag_table`` flags, shared by ``bound correlation`` and ``simulate``."""
    p.add_argument("--csv", help="also write the tabular output as CSV")
    p.add_argument("--symbol", help="indicator symbol (defaults to the second one)")
    p.add_argument("--lags", type=_parse_lags, default=[*range(1, lags + 1)], help="1:8 or 1,2,5")
    p.add_argument("--length", type=_int_in(lo=1), default=length, help="sampled path length")
    p.add_argument("--seed", type=_int_in(lo=0), default=1, help="sampling seed, default 1")


def build_parser() -> _Parser:
    parser = _Parser(prog="lis-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = [_common_flags()]  # copying its actions costs less than adding them to each parser

    p_check = sub.add_parser("check", parents=common, help="run the uniqueness criteria")
    p_check.add_argument(
        "--criterion",
        choices=["dobrushin", "boundary", "both"],
        default="dobrushin",
        help="criterion deciding the exit code",
    )
    p_check.set_defaults(fill=_check_fill)

    p_bound = sub.add_parser("bound", help="evaluate decay bounds")
    modes = p_bound.add_subparsers(dest="mode", required=True)
    p_memory = modes.add_parser("memory", parents=common, help="memory bound on windows [0, n]")
    p_memory.add_argument("--csv", help="also write the tabular output as CSV")
    p_memory.add_argument("--site", type=_int_in(hi=-1), default=-1, help="past site probed")
    p_memory.add_argument("--symbol", help="indicator symbol (defaults to the second one)")
    p_memory.add_argument("--max-n", type=_parse_max_n, default=8, help="largest n")
    p_memory.add_argument("--verify", action="store_true", help="add exact oracle columns")
    p_memory.set_defaults(command="bound memory", fill=_table_fill, table=_memory_table)
    p_corr = modes.add_parser("correlation", parents=common, help="correlation bound per lag")
    _add_lag_flags(p_corr, lags=8, length=None)
    p_corr.add_argument("--verify", action="store_true", help="add exact oracle columns")
    p_corr.set_defaults(command="bound correlation", fill=_table_fill, table=_correlation_table)
    p_corr.set_defaults(burn_in=None, seed=None)  # _check_args sets seed 1 where --length samples
    p_compare = modes.add_parser("compare", parents=common, help="gap to a second kernel")
    p_compare.add_argument("--csv", help="also write the tabular output as CSV")
    p_compare.add_argument("--other", required=True, help="second spec file")
    p_compare.set_defaults(command="bound compare", fill=_table_fill, table=_compare_table)

    p_verify = sub.add_parser("verify", parents=common, help="run the exact property suite")
    p_verify.add_argument(
        "--trials", type=_int_in(lo=1), default=200, help="randomised trial budget"
    )
    p_verify.add_argument("--seed", type=_int_in(lo=0), default=0)
    p_verify.set_defaults(fill=_verify_fill)

    p_sim = sub.add_parser("simulate", parents=common, help="sample a path, estimate correlations")
    _add_lag_flags(p_sim, lags=5, length=100000)
    p_sim.add_argument("--burn-in", type=_int_in(lo=0), help="override the heuristic burn-in")
    p_sim.set_defaults(fill=_table_fill, table=_simulate_table, verify=False)
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
        _check_args(args)  # before the command loads any library module
        return _run(args)
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
