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
