import json
from pathlib import Path

import pytest

from superhedge.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

GOLDEN_CASES = [
    ("check_binomial.txt", ["check", "binomial.json"]),
    ("check_hull.txt", ["check", "hull.json"]),
    ("price_binomial_full.txt", ["price", "binomial.json", "call100", "--mode", "full"]),
    ("price_tree_call.txt", ["price", "bound_tree.json", "--mode", "call", "--strike", "90"]),
    ("price_tree_put.txt", ["price", "bound_tree.json", "--mode", "put", "--strike", "90"]),
    ("price_tree_generated.txt", ["price", "bound_tree.json", "call90", "--mode", "generated"]),
    ("hedge_binomial.txt", ["hedge", "binomial.json", "call100", "--mode", "full"]),
    ("decompose_hull_witness.txt", ["decompose", "hull.json", "drifting", "--method", "witness"]),
    (
        "decompose_binomial_complete.txt",
        ["decompose", "binomial.json", "S", "--method", "complete", "--xi0", "ratio"],
    ),
]


def run(args, capsys):
    code = main([a if a.endswith(".json") is False else str(DATA / a) for a in args])
    out = capsys.readouterr().out
    return code, out


@pytest.mark.parametrize("golden,args", GOLDEN_CASES, ids=[g for g, _ in GOLDEN_CASES])
def test_golden_reports(golden, args, capsys):
    code, out = run(args, capsys)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_reports_are_deterministic(capsys):
    _, first = run(["price", "bound_tree.json", "call90", "--mode", "generated"], capsys)
    _, second = run(["price", "bound_tree.json", "call90", "--mode", "generated"], capsys)
    assert first == second


def test_validation_exit_codes(capsys):
    code, _ = run(["check", "bad_refine.json"], capsys)
    assert code == 2
    code, _ = run(["check", "zero_prob.json"], capsys)
    assert code == 2


def test_missing_file_is_io_error(capsys):
    assert main(["check", str(DATA / "nope.json")]) == 4


def test_infeasible_decomposition_exit_code(capsys):
    code, _ = run(["decompose", "hull.json", "envelope", "--method", "witness"], capsys)
    assert code == 3


def test_failed_self_check_is_math_error(monkeypatch, capsys):
    """A decomposition that fails the library's own validation is a
    MathError: decompose exits 3 with one error line."""
    from superhedge import decomposition

    failing = decomposition.DecompositionReport(False, 1.0, 0.0, 0.0, True)
    monkeypatch.setattr(decomposition, "validate_decomposition", lambda *args: failing)
    code = main(["decompose", str(DATA / "hull.json"), "drifting", "--method", "witness"])
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert code == 3
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith("error: decomposition invalid")


@pytest.mark.parametrize("args", [
    ["price", "bound_tree.json", "--mode", "call", "--strike", "nan"],
    ["hedge", "binomial.json", "--mode", "call", "--strike", "nan"],
    ["price", "bound_tree.json", "--mode", "put", "--strike", "inf"],
    ["price", "bound_tree.json", "--mode", "call", "--strike", "90", "--d2", "-5"],
    ["price", "bound_tree.json", "--mode", "call", "--strike", "90", "--d2", "inf"],
    ["price", "bound_tree.json", "--mode", "put", "--strike", "90", "--d1", "0"],
    ["price", "bound_tree.json", "--mode", "put", "--strike", "90", "--d1", "nan"],
])
def test_bad_numeric_flags_are_validation_errors(args, capsys):
    """A non-finite strike or a band bound that is not finite and positive
    exits 2 with one error line and no report."""
    code = main([str(DATA / a) if a.endswith(".json") else a for a in args])
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert code == 2 and captured.out == ""
    assert len(err) == 1 and err[0].startswith("error: --")


@pytest.mark.parametrize("flag,value,line", [
    ("--d2", "130", "closed-form (band worst case, D2=130): 30.7692307692\n"),
    ("--d1", "85", "closed-form (band worst case, D1=85): 5\n"),
])
def test_band_flags_set_the_closed_form(flag, value, line, capsys):
    mode = "call" if flag == "--d2" else "put"
    code, out = run(["price", "bound_tree.json", "--mode", mode, "--strike", "90", flag, value],
                    capsys)
    assert code == 0 and out.startswith(line)


@pytest.mark.parametrize("prices, args", [
    ([[0, 0], [1, -1]], ["c", "--mode", "generated"]),
    ([[0, 0], [1, -1]], ["--mode", "call", "--strike", "0"]),
    ([[0, 0], [1, -1]], ["--mode", "put", "--strike", "0"]),
    ([[-1, -1], [0, -2]], ["--mode", "call", "--strike", "0"]),
])
def test_an_asset_starting_at_or_below_zero_is_a_validation_error(tmp_path, capsys, prices,
                                                                  args):
    """The asset-ratio family needs S_0 != 0 and the closed forms S0, D1
    and D2 > 0: exit 2 with one error line and no report."""
    market = tmp_path / "market.json"
    market.write_text(json.dumps({
        "outcomes": {"count": 2}, "filtration": [[[0, 1]], [[0], [1]]],
        "measures": {"martingale_assets": ["S"]}, "processes": {"S": prices},
        "claims": {"c": [1, 0]},
    }))
    code = main(["price", str(market), *args])
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert code == 2 and captured.out == ""
    assert len(err) == 1 and err[0].startswith("error: ")


def test_unknown_claim_is_validation_error(capsys):
    code, _ = run(["price", "binomial.json", "ghost", "--mode", "full"], capsys)
    assert code == 2


def test_hedge_writes_strategy_and_check_verifies_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "strategy.json"
    code = main(
        [
            "hedge",
            str(DATA / "binomial.json"),
            "call100",
            "--mode",
            "full",
            "--output",
            str(out_file),
        ]
    )
    capsys.readouterr()
    assert code == 0 and out_file.exists()
    doc = json.loads(out_file.read_text())
    assert doc["price"] == pytest.approx(10.0)
    code = main(["check", str(DATA / "binomial.json"), "--strategy", str(out_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "strategy self-financing: ok" in out
    assert "strategy round-trip: identical" in out


def test_check_rejects_a_strategy_whose_holdings_vary_on_a_cell(tmp_path, capsys):
    """A strategy file is outside data: its time-2 holdings differ inside
    the time-1 cell {4,5,6,7}, so the check stops with NotPredictable
    naming that row and cell, exit 2, after the market's own report."""
    doc = {"assets": ["S"], "cash": [[0.0] * 8] * 4, "claim": "call90", "mode": "full",
           "price": 0.0, "risky": [[[0.0]] * 8, [[0.5]] * 8,
                                   [[0.5]] * 4 + [[0.5], [0.5], [0.7], [0.7]], [[0.2]] * 8]}
    strategy_file = tmp_path / "strategy.json"
    strategy_file.write_text(json.dumps(doc))
    code = main(["check", str(DATA / "bound_tree.json"), "--strategy", str(strategy_file)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: time-2 holdings vary on time-1 cell 1\n"
    assert captured.out.endswith("claim put90: nonnegative=yes unit-claim=no\n")


def test_decompose_writes_output(tmp_path, capsys):
    out_file = tmp_path / "dec.json"
    code = main(
        [
            "decompose",
            str(DATA / "hull.json"),
            "drifting",
            "--method",
            "witness",
            "--output",
            str(out_file),
        ]
    )
    capsys.readouterr()
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["process"] == "drifting"
    assert len(doc["martingale"]) == 3


def test_generated_mode_needs_family_on_hulls(capsys):
    code, _ = run(["price", "hull.json", "payout", "--mode", "generated"], capsys)
    assert code == 2


def test_hedge_call_mode_synthesizes_payoff(capsys):
    code, out = run(
        ["hedge", "bound_tree.json", "--mode", "call", "--strike", "90"], capsys
    )
    assert code == 0
    assert "price: 25" in out
    assert "self-financing: ok" in out
    assert "min surplus 0" in out


STRATEGY = {
    "assets": ["S"],
    "cash": [[10.0, 10.0], [-40.0, -40.0]],
    "claim": "call100",
    "mode": "full",
    "price": 10.0,
    "risky": [[[0.0], [0.0]], [[0.5], [0.5]]],
}

# (id, key path into the binomial market, new value, strategy document, word
# the error must name); a None path leaves the market as it is
MALFORMED = [
    ("ragged-process", ("processes", "S"), [[100, 100], [120]], None, "process"),
    ("non-numeric-claim", ("claims", "call100"), [20, "x"], None, "claim"),
    ("non-numeric-generator", ("measures",), {"generators": [[0.5, "half"]]}, None, "generator"),
    ("generators-number", ("measures",), {"generators": 5}, None, "generators"),
    ("string-filtration-entry", ("filtration", 1), [["a"], [1]], None, "filtration"),
    ("fractional-filtration-entry", ("filtration", 1), [[0.5], [1]], None, "filtration"),
    ("labels-number", ("outcomes", "labels"), 5, None, "labels"),
    ("labels-string", ("outcomes", "labels"), "ud", None, "labels"),
    ("assets-string", ("measures", "martingale_assets"), "S", None, "martingale_assets"),
    ("count-text", ("outcomes", "count"), "two", None, "count"),
    ("count-fractional", ("outcomes", "count"), 2.5, None, "count"),
    ("processes-list", ("processes",), ["S"], None, "processes"),
    ("measures-string", ("measures",), "generators", None, "measures"),
    ("strategy-list", None, None, [STRATEGY], "top level"),
    ("strategy-without-cash", None, None, {k: v for k, v in STRATEGY.items() if k != "cash"},
     "cash"),
    ("strategy-ragged-risky", None, None, {**STRATEGY, "risky": [[[0.0], [0.0]], [[0.5]]]},
     "risky"),
    ("strategy-undeclared-asset", None, None, {**STRATEGY, "assets": ["T"]}, "unknown"),
    ("strategy-price-text", None, None, {**STRATEGY, "price": "ten"}, "price"),
]


@pytest.mark.parametrize(
    "path,value,strategy,word", [c[1:] for c in MALFORMED], ids=[c[0] for c in MALFORMED]
)
def test_malformed_files_are_validation_errors(tmp_path, capsys, path, value, strategy, word):
    doc = json.loads((DATA / "binomial.json").read_text())
    if path is not None:
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    market = tmp_path / "market.json"
    market.write_text(json.dumps(doc))
    args = ["check", str(market)]
    if strategy is not None:
        strategy_file = tmp_path / "strategy.json"
        strategy_file.write_text(json.dumps(strategy))
        args += ["--strategy", str(strategy_file)]
    code = main(args)
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ") and word in err[0]


def test_price_beyond_the_largest_unit_is_validation_error(tmp_path, capsys):
    """An asset priced at 2**1023 or more has no power-of-two unit: check
    exits 2 with one error line, and no overflow warning is raised."""
    import warnings

    doc = json.loads((DATA / "binomial.json").read_text())
    doc["processes"]["S"][1][0] = 1.7e308
    market = tmp_path / "market.json"
    market.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["check", str(market)])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ") and "2**1023" in err[0]


def test_golden_files_match_their_benchmark_copies():
    """The benchmark replays the CLI goldens from its own copies of the
    market files and reports; each copy is byte for byte the test's file."""
    bench = Path(__file__).parent.parent / "bench" / "data"
    copies = sorted(p.relative_to(bench) for p in bench.rglob("*") if p.is_file())
    assert copies == sorted([Path(m) for m in ("binomial.json", "bound_tree.json", "hull.json")]
                            + [Path("golden") / g for g, _ in GOLDEN_CASES])
    for name in copies:
        assert (bench / name).read_bytes() == (DATA / name).read_bytes(), name


# per market file, the claim and the process its commands name
FUZZ_FILES = {"binomial.json": ("call100", "S"), "hull.json": ("payout", "drifting")}


def _paths(node, path=()):
    """Every key path into a parsed JSON document, the root excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _mutate(rng, doc):
    """Delete one entry of the document, or replace it with None, a string,
    an empty list or object, a bool, a list one entry too long or too
    short, 0 or -1."""
    paths = list(_paths(doc))
    path = paths[rng.integers(len(paths))]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    value = parent[path[-1]]
    kind = rng.integers(9)
    if kind == 0:
        del parent[path[-1]]
        return
    if kind == 6:
        if isinstance(value, list) and value and rng.random() < 0.5:
            parent[path[-1]] = value[:-1]
        else:
            parent[path[-1]] = (value if isinstance(value, list) else [value]) + [value]
        return
    parent[path[-1]] = [None, "x", [], {}, bool(rng.integers(2)), None, 0, -1, None][kind]


@pytest.mark.parametrize("name", sorted(FUZZ_FILES))
def test_mutated_files_exit_cleanly(tmp_path, capsys, name):
    """One to three mutations of a market file: check, price in both modes,
    hedge and decompose each end in an exit code, never an exception."""
    import numpy as np

    claim, process = FUZZ_FILES[name]
    commands = [["check"], ["price", claim, "--mode", "full"],
                ["price", claim, "--mode", "generated"],
                ["hedge", claim], ["decompose", process]]
    rng = np.random.default_rng(1015)
    market = tmp_path / name
    for _ in range(150):
        doc = json.loads((DATA / name).read_text())
        for _ in range(rng.integers(1, 4)):
            _mutate(rng, doc)
        market.write_text(json.dumps(doc))
        for command in commands:
            args = [command[0], str(market), *command[1:]]
            assert main(args) in (0, 2, 3, 4), (args, doc)
        capsys.readouterr()


def test_corrupt_maximiser_fails_the_price_certificate(monkeypatch, capsys):
    """A backward induction that records a wrong maximiser (a point mass
    that is no martingale kernel) gives a lower-bound measure Q* that
    breaks the asset equality: the full price is a MathError, exit 3 with
    one error line and no report."""
    import numpy as np

    from superhedge import measures

    one_step_sups = measures._one_step_sups

    def corrupt(groups, vals, unit):
        sups, picks = one_step_sups(groups, vals, unit)
        return sups, [np.zeros_like(pick) for pick in picks]

    monkeypatch.setattr(measures, "_one_step_sups", corrupt)
    code = main(["price", str(DATA / "binomial.json"), "call100", "--mode", "full"])
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert code == 3
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith("error: the measure attaining the price")
