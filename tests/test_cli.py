"""Spec parsing and the lis-lab command surface."""

import contextlib
import copy
import io
import json
import math
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lislab import KernelSpec
from lislab.cli import main
from lislab.specio import SpecError, kernel_to_doc, load_spec_file, parse_spec

from conftest import per_call_columns


K1_DOC = {
    "label": "K1",
    "alphabet": {"symbols": ["0", "1"]},
    "memory_depth": 1,
    "kernel": {"type": "markov", "range": 1, "rows": [[0.7, 0.3], [0.3, 0.7]]},
}


@pytest.fixture()
def k1_path(tmp_path):
    path = tmp_path / "k1.json"
    path.write_text(json.dumps(K1_DOC))
    return str(path)


# --- parsing ----------------------------------------------------------------

def test_parse_roundtrip():
    f = parse_spec(K1_DOC)
    assert f.label == "K1"
    assert f.memory_depth == 1
    doc = kernel_to_doc(f)
    again = parse_spec(doc)
    assert again.family == f.family


def test_parse_rejects_unknown_fields():
    bad = dict(K1_DOC, extra=1)
    with pytest.raises(SpecError, match="extra"):
        parse_spec(bad)
    bad2 = json.loads(json.dumps(K1_DOC))
    bad2["kernel"]["typo"] = True
    with pytest.raises(SpecError, match="typo"):
        parse_spec(bad2)


def test_parse_rejects_bad_kernel():
    bad = json.loads(json.dumps(K1_DOC))
    bad["kernel"]["rows"] = [[0.7, 0.4], [0.3, 0.7]]
    with pytest.raises(SpecError, match="sums"):
        parse_spec(bad)


def test_parse_site_indexed():
    doc = {
        "alphabet": {"symbols": ["0", "1"]},
        "memory_depth": 1,
        "kernel": {
            "type": "site_indexed",
            "default": {"type": "markov", "range": 1, "rows": [[0.7, 0.3], [0.3, 0.7]]},
            "overrides": {"5": {"type": "markov", "range": 1, "rows": [[0.5, 0.5], [0.5, 0.5]]}},
        },
    }
    f = parse_spec(doc)
    assert f.override_sites == (5,)


def _site_indexed_doc(key: str) -> dict:
    rows = K1_DOC["kernel"]["rows"]
    return {
        "alphabet": {"symbols": ["0", "1"]},
        "memory_depth": 1,
        "kernel": {
            "type": "site_indexed",
            "default": {"type": "markov", "range": 1, "rows": rows},
            "overrides": {key: {"type": "markov", "range": 0, "rows": [[0.5, 0.5]]}},
        },
    }


@pytest.mark.parametrize("key", ["1_0", " 5", "5 ", "+5", "05", "-0", "\u0663", "x"])
def test_parse_rejects_non_canonical_override_keys(key):
    with pytest.raises(SpecError, match="site index"):
        parse_spec(_site_indexed_doc(key))


def test_parse_accepts_negative_override_key():
    assert parse_spec(_site_indexed_doc("-5")).override_sites == (-5,)


def test_parse_rejects_nested_site_indexed():
    doc = _site_indexed_doc("0")
    doc["kernel"]["default"] = copy.deepcopy(doc["kernel"])
    with pytest.raises(SpecError, match="nested"):
        parse_spec(doc)


def test_parse_rejects_huge_table_order_without_the_power():
    doc = dict(K1_DOC, memory_depth=10**9)
    doc["kernel"] = dict(K1_DOC["kernel"], range=10**9)
    started = time.perf_counter()
    with pytest.raises(SpecError, match=r"expected 2\*\*1000000000"):
        parse_spec(doc)
    assert time.perf_counter() - started < 1.0


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)

_VALID_DOCS = [
    K1_DOC,
    _site_indexed_doc("-2"),
    {
        "alphabet": {"symbols": ["a", "b", "c"], "metric": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
        "memory_depth": 1,
        "kernel": {"type": "table", "rows": [[0.2, 0.3, 0.5]] * 3},
    },
    {
        "label": "lin",
        "alphabet": {"symbols": ["0", "1"]},
        "memory_depth": 2,
        "kernel": {"type": "linear", "intercept": 0.1, "coefficients": [0.3, 0.2], "tail": 0.0},
    },
]


def _paths(doc, prefix=()):
    yield prefix
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield from _paths(value, prefix + (key,))


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_parse_spec_returns_a_spec_or_raises_spec_error(data):
    if data.draw(st.booleans()):
        doc = data.draw(_JSON)
    else:
        # a near miss: one value of a valid document replaced or removed
        doc = copy.deepcopy(data.draw(st.sampled_from(_VALID_DOCS)))
        path = data.draw(st.sampled_from(list(_paths(doc))[1:]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(_JSON)
    try:
        spec = parse_spec(doc)
    except SpecError:
        return
    assert isinstance(spec, KernelSpec)


def test_parse_linear():
    doc = {
        "alphabet": {"symbols": ["0", "1"]},
        "memory_depth": 2,
        "kernel": {"type": "linear", "intercept": 0.1, "coefficients": [0.3, 0.2]},
    }
    f = parse_spec(doc)
    assert f.family.intercept == 0.1


def test_load_spec_file_reports_hash(k1_path):
    f, meta = load_spec_file(k1_path)
    assert f.label == "K1"
    assert len(meta["sha256"]) == 64


# --- commands ---------------------------------------------------------------

def test_check_passes_for_k1(k1_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["check", k1_path, "--criterion", "dobrushin", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["criteria"]["dobrushin"]["scalars"]["row_sum_sup"] == pytest.approx(0.4)
    assert report["version"]
    assert report["spec"]["sha256"]
    assert report["kernel"]["memory_depth"] == 1
    assert report["caps"]["config_cap"] == 4096


def test_check_fails_at_row_sum_one(tmp_path):
    doc = {
        "alphabet": {"symbols": ["0", "1"]},
        "memory_depth": 1,
        "kernel": {"type": "markov", "range": 1, "rows": [[0.0, 1.0], [1.0, 0.0]]},
    }
    path = tmp_path / "flip.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 2


def test_check_input_errors(tmp_path, capsys):
    assert main(["check", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", str(bad)]) == 1
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps(dict(K1_DOC, wat=1)))
    assert main(["check", str(unknown)]) == 1
    capsys.readouterr()


def test_usage_error_is_exit_one(capsys):
    assert main(["check"]) == 1  # no spec, no example
    assert main(["bogus-command"]) == 1
    capsys.readouterr()


def test_builtin_examples(capsys):
    assert main(["check", "--example", "markov", "--p01", "0.3", "--p11", "0.7"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["spec"]["example"] == "markov"
    assert main(["check", "--example", "paper-powerlaw", "--epsilon", "0.5", "--depth", "64"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["criteria"]["dobrushin"]["satisfied"] is True
    assert report["criteria"]["dobrushin"]["truncation_tail"] > 0.0
    assert report["criteria"]["boundary"]["satisfied"] is False


def test_bound_memory_sweep(k1_path, tmp_path, capsys):
    csv_path = tmp_path / "mem.csv"
    code = main(
        ["bound", "memory", k1_path, "--verify", "--max-n", "4", "--csv", str(csv_path)]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    rows = report["table"]["rows"]
    assert [r[0] for r in rows] == [1, 2, 3, 4]
    for n, bound, exact, slack in rows:
        assert bound == pytest.approx(0.4 ** (n + 1), abs=1e-12)
        assert exact == pytest.approx(bound, abs=1e-12)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "n,bound,exact,slack"
    assert len(lines) == 5


def test_bound_correlation_with_verify(k1_path, capsys):
    code = main(["bound", "correlation", k1_path, "--verify", "--lags", "1:3"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    for lag, bound, exact, _, _ in report["table"]["rows"]:
        assert bound >= exact - 1e-12
    lag3 = report["table"]["rows"][2]
    assert lag3[1] == pytest.approx(0.019047619, abs=1e-6)
    assert lag3[2] == pytest.approx(0.016, abs=1e-12)


def test_bound_correlation_verify_fills_every_lag(capsys):
    # the joint-window enumeration left lags past 11 empty and lag 11 4e-12 relative off
    argv = ["bound", "correlation", "--example", "markov", "--verify", "--lags"]
    assert main(argv + ["1:60"]) == 0
    rows = json.loads(capsys.readouterr().out)["table"]["rows"]
    assert [row[0] for row in rows] == list(range(1, 61))
    for lag, bound, exact, _, _ in rows:
        assert exact == pytest.approx(0.25 * 0.4**lag, rel=1e-12, abs=0.0), lag
        assert bound >= exact - 1e-12
    # a lag past sys.maxsize is past the work cap: an empty cell, and nothing stepped
    start = time.perf_counter()
    assert main(argv + ["1" * 20]) == 0
    assert time.perf_counter() - start < 1.0
    assert json.loads(capsys.readouterr().out)["table"]["rows"] == [[int("1" * 20), "", "", "", ""]]


def test_bound_correlation_site_budget_leaves_cell_empty(capsys):
    # row sum 1 - 2e-10: the tail certificate would need ~1e11 sites
    argv = ["bound", "correlation", "--example", "markov", "--lags", "1"]
    code = main(argv + ["--p01", "1e-10", "--p11", "0.9999999999"])
    captured = capsys.readouterr()
    assert code == 0
    assert "Traceback" not in captured.err
    assert json.loads(captured.out)["table"]["rows"] == [[1, "", "", "", ""]]
    # a lag past the site budget and past sys.maxsize: no sweep and no enumeration
    deep, markov = ["paper-powerlaw", "--depth", "8"], ["markov"]
    for lag, source in [(10**19 + 1, deep), (int("1" * 20), markov)]:
        argv = ["bound", "correlation", "--example", *source, "--verify"]
        assert main(argv + ["--lags", str(lag)]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert json.loads(captured.out)["table"]["rows"] == [[lag, "", "", "", ""]]
    # beside such a lag, lag 1 still reads its column
    argv = ["bound", "correlation", "--example", "markov", "--lags", "1,10000000000000000001"]
    assert main(argv) == 0
    [[_, first, *_], [_, huge, *_]] = json.loads(capsys.readouterr().out)["table"]["rows"]
    assert isinstance(first, float) and huge == ""


def test_deep_power_law_sweep(capsys):
    # 25000 sites of a depth-1000 Neumann sweep; the value is pinned to the last digits
    argv = ["bound", "correlation", "--example", "paper-powerlaw", "--depth", "1000", "--lags", "1"]
    assert main(argv) == 0
    [[lag, bound, _, _, _]] = json.loads(capsys.readouterr().out)["table"]["rows"]
    assert lag == 1
    assert bound == pytest.approx(0.057442712097914496, rel=1e-12)


def test_row_sum_one_ulp_below_one_has_no_tail_certificate(tmp_path, capsys):
    # s = 1 - 2**-53 passes check, but its per-site tail base s**(1/2) rounds to 1
    doc = {
        "alphabet": {"symbols": ["0", "1"]},
        "memory_depth": 2,
        "kernel": {"type": "linear", "intercept": 0.0, "coefficients": [0.5, 0.4999999999999999]},
    }
    path = tmp_path / "ulp.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 0
    capsys.readouterr()
    for argv, expected, bound_column in [
        ("bound correlation {spec} --lags 1:2", 0, 1),
        ("bound compare {spec} --other {spec}", 2, None),
        ("simulate {spec} --length 200 --burn-in 10 --lags 1:2", 0, 3),
    ]:
        code = main(argv.format(spec=path).split())
        captured = capsys.readouterr()
        assert code == expected, argv
        assert "Traceback" not in captured.err
        if bound_column is None:
            assert captured.err.startswith("criterion not met:")
            assert len(captured.err.strip().splitlines()) == 1
        else:
            rows = json.loads(captured.out)["table"]["rows"]
            assert [row[bound_column] for row in rows] == ["", ""]


def test_slow_chain_gets_exact_cells(k1_path, tmp_path, capsys):
    # spectral gap 3e-5: the exact solve does not care how slowly the chain mixes
    argv = ["bound", "correlation", "--example", "markov", "--verify", "--lags", "1"]
    code = main(argv + ["--p01", "0.00001", "--p11", "0.99998"])
    captured = capsys.readouterr()
    assert code == 0
    assert "Traceback" not in captured.err
    [[lag, bound, exact, _, _]] = json.loads(captured.out)["table"]["rows"]
    assert (lag, bound) == (1, "")  # the bound still runs out of its site budget
    assert exact == pytest.approx(2 / 9 * (1 - 3e-5), rel=1e-9)  # pi_0 pi_1 (1 - p01 - p10)
    slow = json.loads(json.dumps(K1_DOC))
    slow["kernel"]["rows"] = [[0.99999, 0.00001], [0.00002, 0.99998]]
    (tmp_path / "slow.json").write_text(json.dumps(slow))
    assert main(["bound", "compare", k1_path, "--other", str(tmp_path / "slow.json")]) == 0
    rows = json.loads(capsys.readouterr().out)["table"]["rows"]
    # laws (1/2, 1/2) against (2/3, 1/3)
    assert [row[2] for row in rows] == pytest.approx([1 / 6, 1 / 6], rel=1e-9)


def test_bound_compare_rejects_another_alphabet(k1_path, tmp_path, capsys):
    other = {
        "alphabet": {"symbols": ["a", "b", "c"]},
        "memory_depth": 0,
        "kernel": {"type": "markov", "range": 0, "rows": [[0.2, 0.3, 0.5]]},
    }
    other_path = tmp_path / "other.json"
    other_path.write_text(json.dumps(other))
    assert main(["bound", "compare", k1_path, "--other", str(other_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "alphabet" in captured.err
    assert len(captured.err.strip().splitlines()) == 1


def test_bound_compare(k1_path, tmp_path, capsys):
    other = {
        "alphabet": {"symbols": ["0", "1"]},
        "memory_depth": 1,
        "kernel": {"type": "markov", "range": 1, "rows": [[0.69, 0.31], [0.3, 0.7]]},
    }
    other_path = tmp_path / "other.json"
    other_path.write_text(json.dumps(other))
    code = main(["bound", "compare", k1_path, "--other", str(other_path)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    for _, bound, exact in report["table"]["rows"]:
        assert bound >= exact


def test_verify_command(k1_path, capsys):
    assert main(["verify", k1_path, "--trials", "60"]) == 0
    report = json.loads(capsys.readouterr().out)
    names = {p["property"] for p in report["properties"]}
    assert names == {
        "normalization",
        "consistency",
        "factorization",
        "dusting",
        "memory-domination",
    }
    assert report["passed"] is True


def _table_path(tmp_path, n: int, depth: int) -> str:
    import numpy as np

    from conftest import random_table_kernel

    path = tmp_path / f"t{n}x{depth}.json"
    f = random_table_kernel(np.random.default_rng(0), n, depth)
    path.write_text(json.dumps(kernel_to_doc(f)))
    return str(path)


@pytest.mark.parametrize("n,depth", [(4, 4), (3, 5), (2, 10)])
def test_verify_rejects_tables_past_its_largest_enumeration(
    tmp_path, capsys, monkeypatch, n, depth
):
    # n**depth fits the cap, but the dusting observables span depth + 3 sites
    import lislab.oracle

    for name in ("compose_window", "verify_consistency", "verify_dusting", "random_observable"):
        monkeypatch.setattr(lislab.oracle, name, None)  # any suite work would raise
    assert main(["verify", _table_path(tmp_path, n, depth)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert f"{n}**{depth + 3} configurations" in lines[0]


@pytest.mark.parametrize("n,depth", [(2, 9), (4, 3)])
def test_verify_admits_tables_at_the_cap(tmp_path, capsys, n, depth):
    assert main(["verify", _table_path(tmp_path, n, depth)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_verify_flags_corrupted_kernel(tmp_path, capsys):
    # bypass the strict parser deliberately: build the spec in-process
    import lislab
    from lislab.oracle import verify_suite

    broken = lislab.KernelSpec(
        lislab.AlphabetSpec.binary(),
        1,
        lislab.MarkovTable(1, ((0.62, 0.6), (0.3, 0.7))),
        check=False,
    )
    results = verify_suite(broken, trials=40, seed=0)
    assert not all(r["passed"] for r in results)


def test_simulate_reproducible(k1_path, tmp_path):
    csv_a = tmp_path / "a.csv"
    csv_b = tmp_path / "b.csv"
    args = ["simulate", k1_path, "--length", "20000", "--lags", "1:3", "--seed", "9"]
    assert main(args + ["--csv", str(csv_a), "--out", str(tmp_path / "ra.json")]) == 0
    assert main(args + ["--csv", str(csv_b), "--out", str(tmp_path / "rb.json")]) == 0
    assert csv_a.read_bytes() == csv_b.read_bytes()
    header = csv_a.read_text().splitlines()[0]
    assert header == "lag,empirical,se,bound"


_METADATA = {"version", "spec", "kernel", "caps", "tolerances", "seed", "command"}


@pytest.mark.parametrize(
    ("argv", "own", "seed", "code"),
    [
        ("check {k1} --criterion both", {"criteria", "selected", "passed"}, None, 0),
        ("check --example markov --p01 1 --p11 0", {"criteria", "selected", "passed"}, None, 2),
        ("verify {k1} --trials 5 --seed 3", {"properties", "elapsed_seconds", "passed"}, 3, 0),
        ("bound memory {k1} --max-n 2", {"table"}, None, 0),
        ("bound correlation {k1} --lags 1", {"table"}, None, 0),
        ("bound correlation {k1} --lags 1 --length 2000", {"table"}, 1, 0),
        ("bound correlation {k1} --lags 1 --length 2000 --seed 0", {"table"}, 0, 0),
        ("bound compare {k1} --other {k1}", {"table", "other_spec"}, None, 0),
        ("simulate {k1} --length 2000 --lags 1", {"table", "length", "burn_in"}, 1, 0),
    ],
)
def test_each_command_fills_one_report(argv, own, seed, code, k1_path, capsys):
    words = argv.format(k1=k1_path).split()
    assert main(words) == code
    report = json.loads(capsys.readouterr().out)
    assert set(report) == _METADATA | own
    assert report["command"] == " ".join(words[: 2 if words[0] == "bound" else 1])
    assert report["seed"] == seed


@pytest.mark.parametrize(
    "command, kernel, depth",
    [
        ("verify", {"type": "markov", "range": 1, "rows": [[math.nan, math.nan]] * 2}, 1),
        ("check", {"type": "linear", "intercept": math.nan, "coefficients": [0.2]}, 1),
        ("check", {"type": "markov", "range": True, "rows": K1_DOC["kernel"]["rows"]}, 1),
        ("check", K1_DOC["kernel"], True),
    ],
    ids=["nan-rows", "nan-intercept", "bool-range", "bool-depth"],
)
def test_rejects_non_finite_and_boolean_input(command, kernel, depth, tmp_path, capsys):
    doc = dict(K1_DOC, kernel=kernel, memory_depth=depth)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))  # writes NaN as the bare token Python's json reads back
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        "check --example markov --p01 1.5",
        "check --example paper-powerlaw --depth 0",
        "check --example paper-powerlaw --epsilon 0",
        "simulate --example markov --p01 1 --p11 0 --length 1000",
        "simulate --example markov --length 10",
        "simulate --example markov --length 0",
        "simulate --example markov --length 1000 --burn-in=-5",
        "simulate --example markov --length 1000 --seed=-1",
        "bound correlation --example markov --lags x",
        "bound correlation --example markov --lags=-1 --length 1000",
        "bound correlation --example markov --lags 1 --length 10",
        "bound correlation --example markov --lags 5:1",
        "simulate --example markov --lags 5:1 --length 1000",
        "bound memory --example markov --site 5",
        "bound memory --example markov --symbol z",
        "bound memory --example markov --max-n 0",
        "bound memory --example markov --max-n 200001",
        "verify --example markov --trials -5",
        "simulate --example markov --length 1000000000000000",
        "bound correlation --example markov --lags 1 --length 1000000000000000",
        "bound correlation --example markov --lags 0:1000000000000",
        "check {spec} --example markov",
        "check {spec} --epsilon 0.3",
        "check --example markov --depth 8",
        "bound memory --example markov --other {spec}",
        "bound correlation --example markov --site -2",
        "bound compare {spec} --verify",
        "bound compare {spec}",
        "bound compare --example markov --other {spec} --verify --lags 1:50 --site -3",
        "bound correlation --example markov --seed 3",
        "check --example paper-powerlaw --depth 5001",
        "check --example paper-powerlaw --epsilon 1e-320",
    ],
)
def test_input_errors_exit_one_with_one_line(argv, k1_path, capsys):
    assert main(argv.format(spec=k1_path).split()) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_bound_modes_reject_the_flags_they_do_not_read(k1_path, capsys):
    unread = {
        "memory": ["--lags=1", "--length=99", "--seed=1", f"--other={k1_path}"],
        "correlation": ["--site=-1", "--max-n=2", f"--other={k1_path}"],
        "compare": ["--site=-1", "--symbol=1", "--max-n=2", "--lags=1", "--verify",
                    "--length=99", "--seed=1"],
    }
    for mode, flags in unread.items():
        argv = ["bound", mode, k1_path, *([f"--other={k1_path}"] if mode == "compare" else [])]
        for flag in flags:
            assert main(argv + [flag]) == 1, flag
            assert capsys.readouterr().err == f"error: unrecognized arguments: {flag}\n"
        assert main(argv) == 0
        capsys.readouterr()


@pytest.mark.parametrize("flag", ["--out", "--csv"])
@pytest.mark.parametrize("where", ["missing-dir/report", "a-directory"])
def test_write_error_names_the_given_path_and_leaves_no_temp_file(flag, where, tmp_path, capsys):
    (tmp_path / "a-directory").mkdir()
    target = str(tmp_path / where)
    argv = ["bound", "correlation", "--example", "markov", "--lags", "1", flag, target]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and err.endswith(f": {target!r}\n")
    assert len(err.splitlines()) == 1
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("bad", ["--out", "--csv"])
@pytest.mark.parametrize("where", ["missing-dir/report", "a-directory"])
def test_failed_write_leaves_neither_output(bad, where, tmp_path, capsys):
    (tmp_path / "a-directory").mkdir()
    target = str(tmp_path / where)
    good = "--csv" if bad == "--out" else "--out"
    argv = ["bound", "correlation", "--example", "markov", "--lags", "1", bad, target]
    assert main(argv + [good, str(tmp_path / "good-output")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and err.endswith(f": {target!r}\n")
    assert len(err.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a-directory"]


def test_csv_and_out_spelling_one_file_keep_the_report(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["bound", "correlation", "--example", "markov", "--lags", "1"]
    assert main(argv + ["--csv", "r.json", "--out", "./r.json"]) == 0
    assert json.loads((tmp_path / "r.json").read_text())["command"] == "bound correlation"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json"]


def test_csv_is_rejected_where_no_table_is_written(tmp_path, capsys):
    target = tmp_path / "x.csv"
    argv = ["check", "--example", "markov", "--csv", str(target)]
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "--csv" in lines[0]
    code, modules = _modules_after(argv)
    assert code == 1 and _under(modules, "numpy") == []
    assert not target.exists()


def test_canonical_converts_numpy_scalars_and_keeps_bools(capsys):
    import numpy as np

    from lislab.cli import _emit_report

    _emit_report({"b": True, "f": np.float32(0.1), "i": np.int64(3), "l": (np.float64(0.5), 2)}, None)
    out = json.loads(capsys.readouterr().out)
    assert out == {"b": True, "f": float(f"{float(np.float32(0.1)):.17g}"), "i": 3, "l": [0.5, 2]}
    assert out["b"] is True and type(out["i"]) is int and type(out["f"]) is float


_FUZZ_VALUES = ["0", "-1", "nan", "inf", "1e308", "3:1", "x", "", "1", "0.5"]
# flags that set a size take only values that are cheap or rejected, never 20 digits
_FUZZ_CHOICES = {
    "--length": ["64", "2000", *_FUZZ_VALUES],
    "--depth": ["8", *_FUZZ_VALUES],
    "--trials": ["2", *_FUZZ_VALUES],
    "--max-n": ["4", *_FUZZ_VALUES],
    "--criterion": ["boundary", "both", *_FUZZ_VALUES],
    "--epsilon": ["0.5", "0.05", *_FUZZ_VALUES, "1" * 20],
    "--p01": ["1e-05", *_FUZZ_VALUES, "1" * 20],
    "--p11": ["0.99998", *_FUZZ_VALUES, "1" * 20],
}
# the flags each command or bound mode reads, and each example's own parameters
_FUZZ_FLAGS = {
    "check": ["--criterion"],
    "memory": ["--site", "--symbol", "--max-n", "--verify"],
    "correlation": ["--symbol", "--lags", "--length", "--seed", "--verify"],
    "compare": ["--other"],
    "verify": ["--trials", "--seed"],
    "simulate": ["--length", "--seed", "--lags", "--burn-in", "--symbol"],
    "markov": ["--p01", "--p11"],
    "paper-powerlaw": ["--epsilon", "--depth"],
}


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, doc in (("k1", K1_DOC), ("three", _VALID_DOCS[2])):
        (root / f"{name}.json").write_text(json.dumps(doc))
    return {name: str(root / f"{name}.json") for name in ("k1", "three", "missing")}


# the kernel sources; a spec file is named by a placeholder the test fills with its path
_FUZZ_SOURCES = [["--example", "markov"], ["--example", "paper-powerlaw"], ["{k1}"], ["{three}"],
                 ["{missing}"]]


@st.composite
def _fuzz_argv(draw):
    command = draw(st.sampled_from(
        [["check"], ["bound", "memory"], ["bound", "correlation"], ["bound", "compare"],
         ["verify"], ["simulate"]]
    ))
    argv = command + draw(st.sampled_from(_FUZZ_SOURCES))
    # the sizes that default large and the required --other are always set
    needed = {"verify": ["--trials"], "simulate": ["--length"], "compare": ["--other"]}
    needed = needed.get(command[-1], []) + (["--depth"] if "paper-powerlaw" in argv else [])
    own = _FUZZ_FLAGS[command[-1]] + _FUZZ_FLAGS.get(argv[-1], [])
    flags = needed + draw(st.lists(st.sampled_from(own), max_size=4, unique=True))
    for flag in dict.fromkeys(flags):
        if flag == "--verify":
            argv.append(flag)
        elif flag == "--other":
            argv.append(f"--other={draw(st.sampled_from(_FUZZ_SOURCES[2:]))[0]}")
        else:
            value = draw(st.sampled_from(_FUZZ_CHOICES.get(flag, [*_FUZZ_VALUES, "1" * 20])))
            argv.append(f"{flag}={value}")
    return argv


@given(argv=_fuzz_argv())
# a lag past sys.maxsize reached the exact cell's enumeration with a traceback
@example(argv=["bound", "correlation", "--example", "markov", "--verify", "--lags=" + "1" * 20])
@settings(max_examples=200, deadline=None)
def test_main_never_escapes(fuzz_paths, argv):
    argv = [arg.format(**fuzz_paths) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv


@st.composite
def _far_override_doc(draw) -> dict:
    """A binary site-indexed spec of depth 0-2 with 1-3 overrides anywhere in +-10**12."""
    depth = draw(st.integers(0, 2))
    sites = draw(st.lists(st.integers(-10**12, 10**12), min_size=1, max_size=3, unique=True))

    def family() -> dict:
        ones = draw(st.lists(st.integers(1, 99), min_size=2**depth, max_size=2**depth))
        return {"type": "markov", "range": depth, "rows": [[1 - p / 100, p / 100] for p in ones]}

    return {
        "alphabet": {"symbols": ["0", "1"]},
        "memory_depth": depth,
        "kernel": {
            "type": "site_indexed",
            "default": family(),
            "overrides": {str(site): family() for site in sites},
        },
    }


_FAR_COMMANDS = [
    ["check", "{spec}", "--criterion", "both"],
    ["bound", "memory", "{spec}", "--verify", "--max-n", "50"],
    ["bound", "correlation", "{spec}", "--verify", "--lags", "1:3"],
    ["bound", "compare", "{spec}", "--other", "{spec}"],
    ["simulate", "{spec}", "--length", "2000"],
]


@given(doc=_far_override_doc(), command=st.sampled_from(_FAR_COMMANDS))
@settings(max_examples=60, deadline=5000)
def test_overrides_far_apart_finish_quickly(tmp_path_factory, doc, command):
    path = tmp_path_factory.mktemp("far") / "spec.json"
    path.write_text(json.dumps(doc))
    argv = [arg.format(spec=path) for arg in command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert len(err.getvalue().splitlines()) <= 1, err.getvalue()


def _modules_after(argv: list[str] | None) -> tuple[int | None, list[str]]:
    """Exit code and loaded modules after ``import lislab.cli`` and, if given, one ``main(argv)``.

    ``--help`` leaves through ``SystemExit``; its code is returned like ``main``'s.
    """
    run = f"code = lislab.cli.main({argv!r})" if argv is not None else "code = None"
    code = (
        "import contextlib, io, json, sys, lislab.cli\n"
        "out, err = io.StringIO(), io.StringIO()\n"
        "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        f"    try: {run}\n"
        "    except SystemExit as exc: code = exc.code\n"
        "print(json.dumps([code, sorted(sys.modules)]))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return tuple(json.loads(proc.stdout))


def _under(modules: list[str], package: str) -> list[str]:
    """The names in ``modules`` that are ``package`` or one of its submodules."""
    return [m for m in modules if m == package or m.startswith(package + ".")]


def test_cli_import_leaves_scipy_unloaded():
    assert _under(_modules_after(None)[1], "scipy") == []
    argv = ["check", "--example", "paper-powerlaw", "--depth", "8"]
    assert _under(_modules_after(argv)[1], "scipy") == []


@pytest.mark.parametrize(
    "argv",
    [
        "bound correlation --example paper-powerlaw --depth 8 --lags 1:2 --length 2000",
        "bound memory --example paper-powerlaw --depth 8 --max-n 2 --verify",
        "verify --example paper-powerlaw --depth 4 --trials 20",
        "simulate --example paper-powerlaw --depth 24 --length 5000 --lags 1",
    ],
)
def test_powerlaw_commands_leave_scipy_unloaded(argv):
    assert _under(_modules_after(argv.split())[1], "scipy") == []


@pytest.mark.parametrize(
    "argv, expected",
    [
        ("--help", 0),
        ("bound --help", 0),
        ("bogus-command", 1),
        ("check", 1),  # no spec, no example
        ("bound --example markov", 1),  # no mode
        ("bound memory --example markov --lags 1:4", 1),  # a flag memory does not read
        ("simulate --example markov --length 0", 1),
        ("bound memory --example markov --criterion both", 1),
        ("bound correlation --example markov --seed 3", 1),  # --seed without --length
        ("check --example paper-powerlaw --depth 5001", 1),
    ],
)
def test_help_and_usage_errors_load_no_numpy(argv, expected):
    code, modules = _modules_after(argv.split())
    assert code == expected
    assert _under(modules, "numpy") == []
    assert _under(modules, "lislab") == ["lislab", "lislab.cli"]
    assert not {"dataclasses", "inspect"} & set(modules)


def test_check_loads_no_bounds_oracle_or_sampler(k1_path):
    code, modules = _modules_after(["check", k1_path])
    assert code == 0
    loaded = set(modules)
    assert "lislab.analysis" in loaded and "lislab.specio" in loaded
    assert not loaded & {"lislab.bounds", "lislab.oracle", "lislab.sim", "numpy.random"}


@pytest.mark.parametrize(
    "argv",
    [
        "simulate --example markov --length 2000 --lags 1",
        "bound correlation --example markov --length 2000 --lags 1",
        "bound compare {k1} --other {k1}",
    ],
)
def test_one_sensitivity_matrix_per_command(argv, k1_path, monkeypatch, capsys):
    import lislab.analysis

    calls = []
    build = lislab.analysis.build_sensitivity_matrix

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    # the commands import it from its own module when they run, so no other binding is left to patch
    assert not [
        name for name, module in sys.modules.items()
        if name.startswith("lislab.") and module is not lislab.analysis
        and getattr(module, "build_sensitivity_matrix", None) is build
    ]
    monkeypatch.setattr(lislab.analysis, "build_sensitivity_matrix", counting)
    assert main(argv.format(k1=k1_path).split()) == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    ("argv", "solves"),
    [
        ("bound correlation {k1} --verify --lags 1:8", 1),
        ("bound compare {k1} --other {other}", 2),
    ],
)
def test_one_stationary_solve_per_kernel(argv, solves, k1_path, tmp_path, monkeypatch, capsys):
    import lislab.oracle

    other = json.loads(json.dumps(K1_DOC))
    other["kernel"]["rows"] = [[0.69, 0.31], [0.3, 0.7]]
    (tmp_path / "other.json").write_text(json.dumps(other))
    calls = []
    solve = lislab.oracle.stationary_measure

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(lislab.oracle, "stationary_measure", counting)
    assert main(argv.format(k1=k1_path, other=tmp_path / "other.json").split()) == 0
    assert len(calls) == solves
    rows = json.loads(capsys.readouterr().out)["table"]["rows"]
    assert all(isinstance(row[2], float) for row in rows)


@pytest.fixture()
def stepped_sites(monkeypatch):
    """Counts of ``_reach`` calls and of the sites every ``_backward_sweep`` steps."""
    import lislab.bounds
    import lislab.oracle

    calls = {"_reach": 0, "sites": 0}
    reach, sweep = lislab.bounds._reach, lislab.oracle._backward_sweep

    def counting_reach(*args):
        calls["_reach"] += 1
        return reach(*args)

    def counting_sweep(*args):
        for v in sweep(*args):
            calls["sites"] += 1
            yield v

    monkeypatch.setattr(lislab.bounds, "_reach", counting_reach)
    monkeypatch.setattr(lislab.oracle, "_backward_sweep", counting_sweep)
    return calls


def test_bound_memory_sweeps_once_for_the_bound_and_once_for_the_oracle(stepped_sites, capsys):
    # one forward sweep gives all 50 bounds and one backward sweep of 51 sites
    # all 50 exact values; rows that swept from their own tops would take 1325
    assert main("bound memory --example markov --max-n 50 --verify".split()) == 0
    assert stepped_sites == {"_reach": 1, "sites": 51}
    rows = json.loads(capsys.readouterr().out)["table"]["rows"]
    assert [n for n, *_ in rows] == list(range(1, 51))
    for n, _, exact, _ in rows:
        assert exact == pytest.approx(0.4 ** (n + 1), rel=1e-12, abs=0.0)


def test_bound_memory_verify_fills_every_row_of_a_site_indexed_spec(
    stepped_sites, tmp_path, capsys
):
    doc = _site_indexed_doc("2")
    override = {"type": "markov", "range": 1, "rows": [[0.6, 0.4], [0.2, 0.8]]}
    doc["kernel"]["overrides"]["2"] = override
    (tmp_path / "site.json").write_text(json.dumps(doc))
    assert main(["bound", "memory", str(tmp_path / "site.json"), "--max-n", "80", "--verify"]) == 0
    # rows 1 and 2 step their own 2 and 3 sites; each later row one more
    # default site above the override, then its own sites 2 .. 0
    assert stepped_sites == {"_reach": 1, "sites": 2 + 3 + 78 * (1 + 3)}
    rows = json.loads(capsys.readouterr().out)["table"]["rows"]
    assert len(rows) == 80
    for n, bound, exact, slack in rows:
        assert exact > 0.0 and slack == bound - exact
        assert bound >= exact * (1.0 - 1e-12)


def test_bound_memory_verify_on_a_sticky_table_stops_at_the_work_cap(tmp_path, capsys):
    # 4096 blocks: row n steps n + 1 sites, so rows past 1023 would pass WORK_CAP
    rows = [[0.999, 0.001] if code % 2 == 0 else [0.001, 0.999] for code in range(4096)]
    doc = {"alphabet": {"symbols": ["0", "1"]}, "memory_depth": 12,
           "kernel": {"type": "markov", "range": 12, "rows": rows}}
    (tmp_path / "sticky.json").write_text(json.dumps(doc))
    start = time.perf_counter()
    code = main(["bound", "memory", str(tmp_path / "sticky.json"), "--max-n", "200000", "--verify"])
    assert code == 0 and time.perf_counter() - start < 5.0
    table = json.loads(capsys.readouterr().out)["table"]["rows"]
    assert len(table) == 200000
    assert all(isinstance(row[2], float) and row[1] >= row[2] * (1.0 - 1e-12) for row in table[:1023])
    assert all(row[2:] == ["", ""] for row in table[1023:])


def test_bound_correlation_verify_builds_no_second_kernel(k1_path, tmp_path, monkeypatch, capsys):
    # the oracle reads the parsed kernel's own table; it declares no KernelSpec of its own
    specs = []
    post_init = KernelSpec.__post_init__

    def counting(self):
        specs.append(self)
        post_init(self)

    monkeypatch.setattr(KernelSpec, "__post_init__", counting)
    deep = json.loads(json.dumps(K1_DOC))
    deep["memory_depth"] = 4  # an order-1 table declared at depth 4
    (tmp_path / "deep.json").write_text(json.dumps(deep))
    for path in (k1_path, tmp_path / "deep.json"):
        specs.clear()
        assert main(["bound", "correlation", str(path), "--verify", "--lags", "1:8"]) == 0
        rows = json.loads(capsys.readouterr().out)["table"]["rows"]
        assert all(isinstance(row[2], float) for row in rows)
        assert len(specs) == 1


def test_simulate_and_bound_correlation_share_their_lag_columns(k1_path, capsys):
    common = ["--length", "5000", "--seed", "4", "--lags", "0,1,3"]
    assert main(["simulate", k1_path, *common]) == 0
    simulated = json.loads(capsys.readouterr().out)
    assert main(["bound", "correlation", k1_path, *common]) == 0
    bounded = json.loads(capsys.readouterr().out)
    by_name = [
        {name: list(column) for name, column in zip(r["table"]["header"], zip(*r["table"]["rows"]))}
        for r in (simulated, bounded)
    ]
    for name in ("lag", "empirical", "se", "bound"):
        assert by_name[0][name] == by_name[1][name]
    assert by_name[0]["bound"][0] == ""  # lag 0 has no bound
    assert simulated["seed"] == bounded["seed"] == 4


@pytest.fixture()
def swept(monkeypatch):
    """Sites every ``bounds._sweep`` steps, its calls, and each ``correlation_bound``'s ``k_floor``."""
    import lislab.bounds

    counts = {"sites": 0, "calls": 0, "k_floors": []}
    sweep, bound = lislab.bounds._sweep, lislab.bounds.correlation_bound

    def counting_sweep(alpha, g, start, stop, rows):
        counts["sites"] += max(stop - start, 0)
        counts["calls"] += 1
        return sweep(alpha, g, start, stop, rows)

    def tracing_bound(*args):
        report = bound(*args)
        counts["k_floors"].append(report.quantities["k_floor"])
        return report

    monkeypatch.setattr(lislab.bounds, "_sweep", counting_sweep)
    monkeypatch.setattr(lislab.bounds, "correlation_bound", tracing_bound)
    return counts


@pytest.mark.parametrize("command", ["bound correlation", "simulate"])
def test_every_lag_reads_one_stored_column(command, swept, capsys):
    # lag n's columns are the stationary column of its pattern moved by n, so
    # the 50 lags step it once; sweeping per lag would step lag + stop sites each
    assert main([*command.split(), "--example", "markov", "--lags", "1:50"]) == 0
    assert len(swept["k_floors"]) == 50
    deepest, depth = -min(swept["k_floors"]), 1
    assert 0 < swept["sites"] <= 50 + deepest + depth


def _site2_doc() -> dict:
    """Depth 2, weakly dependent, with overrides at sites -1, 0 and 1."""

    def table(p: float) -> dict:
        rows = [[1.0 - p - 0.05 * code, p + 0.05 * code] for code in range(4)]
        return {"type": "markov", "range": 2, "rows": rows}

    overrides = {str(site): table(0.2 + 0.1 * site) for site in (-1, 0, 1)}
    return {
        "alphabet": {"symbols": ["0", "1"]},
        "memory_depth": 2,
        "kernel": {"type": "site_indexed", "default": table(0.3), "overrides": overrides},
    }


def test_site_indexed_lags_equal_the_per_call_sweep(tmp_path, monkeypatch, capsys):
    # every lag continues below the override rows with its own entries
    from lislab import bounds
    from lislab.analysis import build_sensitivity_matrix
    from lislab.core import Window, indicator, shift_observable

    path = tmp_path / "site2.json"
    path.write_text(json.dumps(_site2_doc()))
    assert main(["bound", "correlation", str(path), "--lags", "1:60"]) == 0
    got = [bound for _, bound, *_ in json.loads(capsys.readouterr().out)["table"]["rows"]]
    f, _ = load_spec_file(str(path))
    alpha = build_sensitivity_matrix(f)
    h0 = indicator(0, 1, f.alphabet)
    monkeypatch.setattr(bounds, "_columns", per_call_columns)
    expected = [
        bounds.correlation_bound(
            alpha, Window(lag, lag), Window(0, 0), shift_observable(h0, lag), h0, 1.0
        ).value
        for lag in range(1, 61)
    ]
    assert [x.hex() for x in got] == [x.hex() for x in expected]


def test_slow_chain_lags_sweep_no_column(swept, capsys):
    argv = ["bound", "correlation", "--example", "markov", "--lags", "1:8"]
    assert main(argv + ["--p01", "0.00001", "--p11", "0.99998"]) == 0
    rows = json.loads(capsys.readouterr().out)["table"]["rows"]
    assert [row[1] for row in rows] == [""] * 8
    assert swept["calls"] == 0


def test_two_thousand_markov_lags_take_under_two_seconds(capsys):
    start = time.perf_counter()
    assert main(["bound", "correlation", "--example", "markov", "--lags", "1:2000"]) == 0
    assert time.perf_counter() - start < 2.0
    rows = json.loads(capsys.readouterr().out)["table"]["rows"]
    assert len(rows) == 2000 and all(isinstance(row[1], float) for row in rows)


@pytest.mark.parametrize("command", ["check", "simulate --length 1000"])
def test_huge_memory_depth_exits_fast_without_a_traceback(command, tmp_path, capsys):
    doc = {
        "alphabet": {"symbols": ["a", "b", "c"]},
        "memory_depth": 3_000_000,
        "kernel": {"type": "markov", "range": 0, "rows": [[0.2, 0.3, 0.5]]},
    }
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc))
    started = time.monotonic()
    code = main([*command.split()[:1], str(path), *command.split()[1:]])
    assert time.monotonic() - started < 5.0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert code in (0, 1)
    if code == 1:
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "3**3000000" in lines[0]


def _nan_verify_suite(monkeypatch, target: str) -> dict[str, bool]:
    """Verdicts of the verify suite on K1 with ``target`` patched to return NaN in ``oracle``.

    The suite and ``verify_consistency`` call the library through the names ``oracle`` binds.
    """
    import lislab.oracle
    from lislab.oracle import ConsistencyReport

    nan = ConsistencyReport(5, math.nan) if target == "verify_consistency" else math.nan
    monkeypatch.setattr(lislab.oracle, target, lambda *a, **k: nan)
    f = parse_spec(K1_DOC)
    return {r["property"]: r["passed"] for r in lislab.oracle.verify_suite(f, trials=20, seed=0)}


@pytest.mark.parametrize(
    "target, failing",
    [
        # verify_consistency calls compose_window through oracle too, so it sees the NaN
        ("compose_window", {"normalization", "consistency", "factorization"}),
        ("verify_consistency", {"consistency"}),
        ("exact_oscillation_of_average", {"dusting", "memory-domination"}),
    ],
)
def test_verify_suite_nan_residuals_fail(target, failing, monkeypatch):
    verdicts = _nan_verify_suite(monkeypatch, target)
    assert {name for name, passed in verdicts.items() if not passed} == failing


def test_module_entrypoint(k1_path):
    proc = subprocess.run(
        [sys.executable, "-m", "lislab.cli", "check", k1_path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True
