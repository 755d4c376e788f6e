"""Batch command line: check / decompose / price / hedge a market file.

Exit codes: 0 success, 2 validation failure (bad file or model), 3 the
requested mathematical object does not exist, 4 I/O failure.  Reports are
deterministic: stable ordering and 12-significant-digit numbers.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import market_io
from .decomposition import local_regular_witness, optional_decomposition_complete, validate_decomposition
from .errors import MathError, SuperhedgeError, ValidationError
from .hedging import (
    TradingStrategy,
    _asset_ratio_price,
    strategy_capital,
    superhedge,
    verify_self_financing,
)
from .measures import is_unit_claim
from .pricing import euro_call_price, euro_put_price, fair_price_full, fair_price_generated
from .processes import is_martingale, is_supermartingale
from .tolerances import EQ_TOL

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_MATH = 3
EXIT_IO = 4


def fmt(x: float) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0  # collapse negative zero for stable reports
    return format(x, ".12g")


def _check_numbers(args) -> None:
    """--strike must be finite, and the band bounds --d1 and --d2 finite and positive."""
    for flag in ("strike", "d1", "d2"):
        value = getattr(args, flag, None)
        if value is not None and not (np.isfinite(value) and (flag == "strike" or value > 0.0)):
            need = "finite" if flag == "strike" else "finite and positive"
            raise ValidationError(f"--{flag} must be {need}, got {fmt(value)}")


def _cell_name(space, t: int, c: int) -> str:
    return "{" + ",".join(str(w) for w in space.cells[t][c]) + "}"


def _cells_text(space, t: int, row) -> str:
    """The time-t cells of an outcome row, as {outcomes}=value pairs."""
    return " ".join(f"{_cell_name(space, t, c)}={fmt(row[space.cell_rep(t, c)])}"
                    for c in range(space.n_cells(t)))


def _print_rows(out, space, values):
    for t in range(space.horizon + 1):
        out.write(f"  t={t}: {_cells_text(space, t, values[t])}\n")


def cmd_check(args, out) -> int:
    model = market_io.load_market(args.spec)
    space, mset = model.space, model.measure_set
    out.write(f"space: outcomes={space.outcome_count} horizon={space.horizon}\n")
    out.write(
        "filtration: "
        + " ".join(f"t{t}={space.n_cells(t)}" for t in range(space.horizon + 1))
        + "\n"
    )
    if model.is_polytope:
        out.write(
            f"measures: martingale polytope over [{', '.join(mset.asset_names)}], "
            f"interior floor={fmt(mset.interior_measure.min())}\n"
        )
    else:
        out.write(f"measures: hull of {mset.k} generators\n")
    for name in sorted(model.processes):
        proc = model.processes[name]
        mart = is_martingale(space, mset, proc)
        if mart.ok:
            verdict = "martingale"
        elif is_supermartingale(space, mset, proc).ok:
            verdict = "super-martingale"
        else:
            verdict = "neither"
        out.write(f"process {name}: adapted=yes verdict={verdict}\n")
    names = sorted(model.claims)
    # every claim's unit verdict from one stacked call
    units = is_unit_claim(space, mset, [model.claims[name] for name in names]) if names else ()
    for name, unit in zip(names, units):
        nonneg = "yes" if model.claims[name].min() >= -EQ_TOL else "no"
        out.write(f"claim {name}: nonnegative={nonneg} unit-claim={'yes' if unit else 'no'}\n")

    if args.strategy:
        doc = market_io.load_strategy(args.strategy)
        undeclared = [a for a in doc.get("assets", ()) if a not in model.processes]
        if undeclared:
            raise ValidationError(f"strategy assets reference unknown processes {undeclared}")
        assets = tuple(model.processes[a] for a in doc.get("assets", ()))
        strategy = TradingStrategy(
            space=space,
            cash=np.asarray(doc["cash"], dtype=float),
            risky=np.asarray(doc["risky"], dtype=float),
            assets=assets,
        )
        sf = verify_self_financing(strategy)
        out.write(f"strategy self-financing: {'ok' if sf.ok else 'violated'}\n")
        with open(args.strategy, "r", encoding="utf-8") as fh:
            original = fh.read()
        rebuilt = market_io.dumps_canonical(
            market_io.strategy_document(
                strategy, doc.get("claim", ""), doc.get("mode", ""), doc.get("price", 0.0),
                asset_names=doc.get("assets", ()),
            )
        )
        out.write(f"strategy round-trip: {'identical' if rebuilt == original else 'differs'}\n")
        if not sf.ok or rebuilt != original:
            return EXIT_VALIDATION
    return EXIT_OK


def cmd_decompose(args, out) -> int:
    model = market_io.load_market(args.spec)
    space, mset = model.space, model.measure_set
    if args.process not in model.processes:
        raise ValidationError(f"process {args.process!r} not declared in the file")
    proc = model.processes[args.process]
    if args.method == "witness":
        dec = local_regular_witness(space, mset, proc)
    else:
        if not args.xi0:
            raise ValidationError("--xi0 CLAIM is required for the complete-set method")
        if args.xi0 not in model.claims:
            raise ValidationError(f"claim {args.xi0!r} not declared in the file")
        dec = optional_decomposition_complete(space, mset, model.claims[args.xi0], proc)

    out.write(f"decomposition of {args.process!r} method={args.method}\n")
    out.write("martingale:\n")
    _print_rows(out, space, dec.martingale.values)
    out.write("compensator:\n")
    _print_rows(out, space, dec.compensator.values)
    if dec.step_claims is not None:
        out.write(f"shift: {fmt(dec.shift)}\n")
        for n, claim in enumerate(dec.step_claims, start=1):
            out.write(f"step claim {n}: {_cells_text(space, n, claim)}\n")
    report = validate_decomposition(space, mset, proc, dec)
    out.write(
        f"re-verify: reconstruction={fmt(report.reconstruction_error)} "
        f"g0={fmt(report.initial_compensator)} min-step={fmt(report.min_step)} "
        f"martingale={'ok' if report.martingale_ok else 'violated'}\n"
    )
    if args.output:
        doc = {
            "process": args.process,
            "method": args.method,
            "martingale": [[float(v) for v in row] for row in dec.martingale.values],
            "compensator": [[float(v) for v in row] for row in dec.compensator.values],
        }
        market_io.save_strategy(doc, args.output)
        out.write(f"written: {args.output}\n")
    return EXIT_OK


def _resolve_claim(model, args):
    if args.mode in ("call", "put"):
        if args.strike is None:
            raise ValidationError("--strike is required for call/put modes")
        if not model.asset_names:
            raise ValidationError("call/put modes need a martingale-asset market")
        asset = model.processes[model.asset_names[0]]
        terminal = asset.values[-1]
        if args.mode == "call":
            payoff = np.maximum(terminal - args.strike, 0.0)
        else:
            payoff = np.maximum(args.strike - terminal, 0.0)
        return payoff, asset
    if not args.claim:
        raise ValidationError("a claim name is required for this mode")
    if args.claim not in model.claims:
        raise ValidationError(f"claim {args.claim!r} not declared in the file")
    return model.claims[args.claim], None


def cmd_price(args, out) -> int:
    model = market_io.load_market(args.spec)
    space, mset = model.space, model.measure_set
    payoff, asset = _resolve_claim(model, args)

    if args.mode == "full":
        result = fair_price_full(space, mset, payoff)
    elif args.mode == "generated":
        result = _generated_price(model, args, payoff)
    else:
        s0 = float(asset.values[0, 0])
        d2 = args.d2 if args.d2 is not None else float(asset.values[-1].max())
        d1 = args.d1 if args.d1 is not None else float(asset.values[-1].min())
        # the closed forms' own domains, checked before anything is printed
        for name, value in ({"S0": s0, "D2": d2} if args.mode == "call" else {"D1": d1}).items():
            if value <= 0.0:
                raise ValidationError(f"the closed form needs {name} > 0, got {fmt(value)}")
        if args.mode == "call":
            closed = euro_call_price(s0, d2, args.strike)
            out.write(f"closed-form (band worst case, D2={fmt(d2)}): {fmt(closed)}\n")
        else:
            closed = euro_put_price(d1, args.strike)
            out.write(f"closed-form (band worst case, D1={fmt(d1)}): {fmt(closed)}\n")
        result = _asset_ratio_price(space, mset, payoff)
        out.write(f"tree LP price (asset family): {fmt(result.price)}\n")
        out.write(f"lower bound sup E f_N: {fmt(result.lower_bound)}\n")
        return EXIT_OK

    out.write(f"price: {fmt(result.price)}\n")
    out.write(f"lower bound sup E f_N: {fmt(result.lower_bound)}\n")
    out.write(
        "witness claim: ["
        + ", ".join(fmt(v) for v in result.witness_claim)
        + f"] bound={'ok' if result.witness_bound.ok else 'violated'}\n"
    )
    return EXIT_OK


def _generated_price(model, args, payoff):
    """The generated price over the --family claims, or the asset ratios."""
    space, mset = model.space, model.measure_set
    if args.family:
        names = [s.strip() for s in args.family.split(",")]
        missing = [n for n in names if n not in model.claims]
        if missing:
            raise ValidationError(f"family claims not declared: {missing}")
        return fair_price_generated(space, mset, [model.claims[n] for n in names], payoff)
    if not model.is_polytope:
        raise ValidationError("generated mode needs --family for generator-hull markets")
    return _asset_ratio_price(space, mset, payoff)


def cmd_hedge(args, out) -> int:
    model = market_io.load_market(args.spec)
    space, mset = model.space, model.measure_set
    if not model.is_polytope:
        raise ValidationError("hedging requires a martingale-asset market")
    payoff, _ = _resolve_claim(model, args)
    price_mode = args.mode if args.mode in ("full", "generated") else "generated"
    strategy, dec, result = superhedge(space, mset, payoff, price_mode=price_mode)

    out.write(f"price: {fmt(result.price)}\n")
    out.write("cash leg:\n")
    _print_rows(out, space, strategy.cash)
    for j, name in enumerate(model.asset_names):
        out.write(f"holdings in {name}:\n")
        _print_rows(out, space, strategy.risky[:, :, j])
    capital = strategy_capital(strategy)
    out.write("capital:\n")
    _print_rows(out, space, capital.values)
    sf = verify_self_financing(strategy)
    surplus = float((capital.values[-1] - payoff).min())
    out.write(f"self-financing: {'ok' if sf.ok else 'violated'}\n")
    out.write(f"terminal domination: min surplus {fmt(surplus)}\n")
    if args.output:
        doc = market_io.strategy_document(
            strategy, args.claim or args.mode, args.mode, result.price,
            asset_names=model.asset_names,
        )
        market_io.save_strategy(doc, args.output)
        out.write(f"written: {args.output}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superhedge",
        description="check, decompose, price and hedge finite-market files",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a market file and report verdicts")
    p.add_argument("spec")
    p.add_argument("--strategy", help="strategy file to verify against the market")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("decompose", help="optional decomposition of a declared process")
    p.add_argument("spec")
    p.add_argument("process")
    p.add_argument("--method", choices=["witness", "complete"], default="witness")
    p.add_argument("--xi0", help="unit claim driving the complete-set construction")
    p.add_argument("--output", help="write the decomposition as JSON")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("price", help="fair price of a claim")
    p.add_argument("spec")
    p.add_argument("claim", nargs="?")
    p.add_argument("--mode", choices=["full", "generated", "call", "put"], default="full")
    p.add_argument("--strike", type=float)
    p.add_argument("--d1", type=float, help="terminal lower band bound (default: min S_N)")
    p.add_argument("--d2", type=float, help="terminal upper band bound (default: max S_N)")
    p.add_argument("--family", help="comma-separated unit-claim names for generated mode")
    p.set_defaults(func=cmd_price)

    p = sub.add_parser("hedge", help="superhedging strategy for a claim")
    p.add_argument("spec")
    p.add_argument("claim", nargs="?")
    p.add_argument("--mode", choices=["full", "generated", "call", "put"], default="full")
    p.add_argument("--strike", type=float)
    p.add_argument("--output", help="write the strategy as JSON")
    p.set_defaults(func=cmd_hedge)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    try:
        _check_numbers(args)
        return args.func(args, out)
    except (SuperhedgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, MathError):
            return EXIT_MATH
        return EXIT_IO if isinstance(exc, OSError) else EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
