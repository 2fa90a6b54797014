"""Pre-packaged optimization scripts mirroring common ABC recipes."""

from __future__ import annotations

from repro.aig.graph import Aig
from repro.opt.balance import balance
from repro.opt.refactor import refactor
from repro.opt.rewrite import rewrite
from repro.opt.sop_balance import sop_balance


def resyn2_script(aig: Aig) -> Aig:
    """A light ``resyn2``-style area script: balance / rewrite / refactor rounds."""
    aig = balance(aig)
    aig = rewrite(aig)
    aig = refactor(aig)
    aig = balance(aig)
    aig = rewrite(aig, zero_gain=True)
    aig = balance(aig)
    return aig.cleanup()


def delay_opt_script(aig: Aig, rounds: int = 2, k: int = 6, cut_limit: int = 8) -> Aig:
    """The technology-independent part of the delay flow: ``(st; if -g -K k)`` rounds."""
    for _ in range(rounds):
        aig = aig.strash()
        aig = sop_balance(aig, k=k, cut_limit=cut_limit)
    return aig.strash()
