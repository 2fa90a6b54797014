"""Rule scheduling for the saturation engine.

Schedulers decide, per iteration, which rules get to search and how many of
their matches survive.  The two implementations mirror egg's (Willsey et al.,
POPL'21):

* :class:`SimpleScheduler` — every rule searches every iteration, nothing is
  truncated beyond the engine's own ``match_limit_per_rule``.  This is
  byte-for-byte the behavior of the pre-engine runner loop and is what
  the parity tests pin.
* :class:`BackoffScheduler` — a rule whose match count exceeds its (per-rule,
  exponentially growing) threshold is *banned* for an exponentially growing
  window of iterations.  Explosive rules (associativity, distributivity)
  stop dominating search time while simplifying rules keep firing, which is
  where most of the engine's wall-clock win on large circuits comes from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Union


class SimpleScheduler:
    """Search every rule every iteration; never truncate or ban."""

    name = "simple"

    def can_search(self, iteration: int, rule_name: str) -> bool:
        """Whether the rule may search this iteration (always yes)."""
        return True

    def allowed_matches(self, iteration: int, rule_name: str, found: int) -> int:
        """How many of ``found`` matches the rule may keep this iteration."""
        return found


@dataclass
class _BackoffState:
    times_banned: int = 0
    banned_until: int = 0


class BackoffScheduler:
    """Ban over-matching rules for exponentially growing windows.

    A rule starts with ``match_limit`` allowed matches per iteration.  The
    ``k``-th time it overflows (finds more than ``match_limit * 2^k``
    matches), its surplus matches are dropped and it is banned for
    ``ban_length * 2^k`` iterations.
    """

    name = "backoff"

    def __init__(self, match_limit: int = 1_000, ban_length: int = 4) -> None:
        if match_limit <= 0:
            raise ValueError("match_limit must be positive")
        if ban_length <= 0:
            raise ValueError("ban_length must be positive")
        self.match_limit = match_limit
        self.ban_length = ban_length
        self.stats: Dict[str, _BackoffState] = {}

    def _state(self, rule_name: str) -> _BackoffState:
        return self.stats.setdefault(rule_name, _BackoffState())

    def can_search(self, iteration: int, rule_name: str) -> bool:
        """Whether the rule's ban window has expired."""
        return iteration >= self._state(rule_name).banned_until

    def allowed_matches(self, iteration: int, rule_name: str, found: int) -> int:
        """Cap ``found`` at the rule's current threshold, banning on overflow."""
        state = self._state(rule_name)
        threshold = self.match_limit << state.times_banned
        if found > threshold:
            state.banned_until = iteration + 1 + (self.ban_length << state.times_banned)
            state.times_banned += 1
            return threshold
        return found


Scheduler = Union[SimpleScheduler, BackoffScheduler]

SCHEDULERS = ("simple", "backoff")


def make_scheduler(spec: Union[str, Scheduler, None]) -> Scheduler:
    """Resolve a scheduler instance from a name, an instance, or ``None``.

    ``None`` means the engine default (backoff); pass ``"simple"`` for exact
    legacy-runner behavior.
    """
    if spec is None:
        return BackoffScheduler()
    if isinstance(spec, str):
        if spec == "simple":
            return SimpleScheduler()
        if spec == "backoff":
            return BackoffScheduler()
        raise ValueError(f"unknown scheduler {spec!r}; choose from {', '.join(SCHEDULERS)}")
    if not hasattr(spec, "can_search") or not hasattr(spec, "allowed_matches"):
        raise TypeError(f"not a scheduler: {spec!r}")
    return spec
