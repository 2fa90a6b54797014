"""Pre-packaged optimization scripts mirroring common ABC recipes."""

from __future__ import annotations

from typing import Callable, Dict, List

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


_NAMED_SCRIPTS: Dict[str, Callable[[Aig], Aig]] = {
    "resyn2": resyn2_script,
    "delay": delay_opt_script,
    "balance": balance,
    "rewrite": rewrite,
    "refactor": refactor,
    "sop_balance": sop_balance,
}


class UnknownScriptError(KeyError):
    """A named script does not exist; carries the available names.

    Subclasses :class:`KeyError` for backward compatibility, but renders as
    its message (``KeyError.__str__`` would repr-quote it).
    """

    def __init__(self, name: str, available: List[str]):
        super().__init__(name)
        self.name = name
        self.available = list(available)

    def __str__(self) -> str:
        return f"unknown script {self.name!r}; available: {', '.join(self.available)}"


def run_script(aig: Aig, name: str) -> Aig:
    """Run a named optimization script.

    Raises :class:`UnknownScriptError` (a ``KeyError``) for unknown names.
    """
    if name not in _NAMED_SCRIPTS:
        raise UnknownScriptError(name, available_scripts())
    return _NAMED_SCRIPTS[name](aig)


def available_scripts() -> List[str]:
    """Names accepted by :func:`run_script`, sorted."""
    return sorted(_NAMED_SCRIPTS)
