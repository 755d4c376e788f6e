"""Library-facing half of the workloads: build markets, run tasks, gate answers.

Importing this module imports ``superhedge``, so the worker imports it inside
the timed set-up.  Tasks call the library through the package namespace
(``sh.fair_price_full``), never through names bound at import time, so that
the traced run's wrappers see every call.

A task returns a fingerprint (the arrays its answer consists of) and records
every failed correctness gate in its ``Checks``.  With ``corrupt`` set the
task hands a deliberately wrong answer to its gates; the self-test uses that
to prove the gates can fail.
"""

from __future__ import annotations

import numpy as np

import superhedge as sh

EQ_TOL = sh.EQ_TOL


class Checks:
    def __init__(self, corrupt: bool = False):
        self.corrupt = corrupt
        self.failed: list[str] = []

    def answer(self, value):
        """The answer a gate sees: unchanged, or visibly wrong when corrupting."""
        if not self.corrupt:
            return value
        if isinstance(value, sh.Decomposition):
            shifted = sh.AdaptedProcess(value.martingale.space, value.martingale.values + 1.0)
            return sh.Decomposition(shifted, value.compensator, value.step_claims, value.shift)
        return value + 1.0

    def require(self, gate: str, ok) -> None:
        if not ok:
            self.failed.append(gate)


def build_market(spec) -> dict:
    """The spec plus its space, measure family and (if any) process, built
    through the public constructors."""
    space = sh.build_space(spec["outcomes"], spec["partitions"])
    if "generators" in spec:
        mset = sh.GeneratorHull(space, spec["generators"])
    else:
        mset = sh.MartingalePolytope(space, [sh.AdaptedProcess(space, v) for v in spec["assets"]])
    market = dict(spec, space=space, mset=mset)
    if "process" in spec:
        market["process"] = sh.AdaptedProcess(space, spec["process"])
    return market


def _check_price(checks, result, claim, reference=None) -> float:
    price = checks.answer(result.price)
    scale = 1.0 + float(np.abs(claim).max()) + abs(price)
    checks.require("witness_bound", result.witness_bound.ok)
    checks.require("price>=lower_bound", price >= result.lower_bound - EQ_TOL * scale)
    checks.require("duality", abs(price - result.lower_bound) <= EQ_TOL * scale)
    if reference is not None:
        checks.require("price==backward_induction", abs(price - reference) <= EQ_TOL * scale)
    return price


def _check_hedge(checks, strategy, price, claim) -> None:
    sf = sh.verify_self_financing(strategy)
    capital = sh.strategy_capital(strategy).values
    scale = 1.0 + float(np.abs(claim).max()) + abs(price)
    checks.require("self_financing", sf.ok)
    checks.require("capital0==price", capital[0, 0] == price)
    checks.require("domination", float((capital[-1] - claim).min()) >= -EQ_TOL * scale)


def hedge_task(market, checks: Checks, modes):
    """Price a claim, then superhedge it in each price mode: the desk and
    wide-complete chain."""
    space, mset, claim = market["space"], market["mset"], market["claim"]
    result = sh.fair_price_full(space, mset, claim)
    price = _check_price(checks, result, claim, market.get("price"))
    prints = [price]
    for mode in modes:
        strategy, _, hedged = sh.superhedge(space, mset, claim, price_mode=mode)
        hedge_price = hedged.price
        if mode == "full":
            checks.require("hedge_price==price", hedge_price == result.price)
        else:
            scale = 1.0 + float(np.abs(claim).max()) + abs(price)
            checks.require("generated>=full", hedge_price >= price - EQ_TOL * scale)
        _check_hedge(checks, strategy, hedge_price, claim)
        prints += [hedge_price, strategy.cash, strategy.risky]
    return prints


def desk_task(market, checks: Checks):
    return hedge_task(market, checks, ("generated",))


def wide_task(market, checks: Checks):
    one_asset = len(market["assets"]) == 1
    return hedge_task(market, checks, ("full", "generated") if one_asset else ("full",))


def _check_decomposition(checks, market, process, dec):
    dec = checks.answer(dec)
    report = sh.validate_decomposition(market["space"], market["mset"], process, dec)
    checks.require("decomposition", report.ok)
    return [dec.martingale.values, dec.compensator.values]


def decompose_task(market, checks: Checks):
    """Super-martingale verdict plus optional decomposition.

    Hull markets decompose their class-K process by the per-cell witness,
    envelope markets decompose the ess-sup process of their claim by the
    witness, and complete polytopes use the complete-family construction.
    """
    space, mset = market["space"], market["mset"]
    if "xi0" in market:
        process = market["process"]
        dec = sh.optional_decomposition_complete(space, mset, market["xi0"], process)
        return _check_decomposition(checks, market, process, dec)
    if "claim" in market:
        process = sh.ess_sup_process(space, mset, market["claim"])
        scale = 1.0 + float(np.abs(market["envelope"]).max())
        gap = float(np.abs(process.values - market["envelope"]).max())
        checks.require("envelope==backward_induction", gap <= EQ_TOL * scale)
    else:
        process = market["process"]
    checks.require("supermartingale", sh.is_supermartingale(space, mset, process).ok)
    dec = sh.local_regular_witness(space, mset, process)
    return _check_decomposition(checks, market, process, dec)


TASKS = {
    "desk_incomplete": desk_task,
    "decompose_verdicts": decompose_task,
    "wide_complete": wide_task,
}
