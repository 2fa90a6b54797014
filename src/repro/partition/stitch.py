"""Splicing optimized windows back into the host AIG.

The stitcher rebuilds the host circuit from scratch: primary inputs first,
then each window's (possibly replaced) sub-AIG materialised in index order
with its boundary literals remapped through a host-variable translation
table, and finally the host primary outputs.  Convexity of the partition
(window ``i`` only reads PIs and outputs of windows ``j < i`` — see
``windows.py``) makes this a single forward pass with no recursion.

Boundary semantics: a window's sub-AIG has one PI per boundary input
variable and one PO per boundary output variable, in the same order as
``Window.inputs`` / ``Window.outputs``.  Complemented boundary edges live on
the sub-AIG's internal literals (a sub PO literal may be complemented, a
constant, or a pass-through of a sub PI), so the splice is a pure literal
remap — no phase bookkeeping beyond XOR-ing the complement bits through.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.aig.graph import CONST0, Aig, lit_var
from repro.partition.windows import Window


def splice_window(host: Aig, window: Window, sub: Aig, old2new: Dict[int, int]) -> None:
    """Materialise ``sub`` (an implementation of ``window``) into ``host``.

    ``old2new`` maps original host variables to literals in the new host; the
    window's boundary inputs must already be present.  On return the window's
    boundary outputs are added to it.
    """
    if sub.num_pis != len(window.inputs) or sub.num_pos != len(window.outputs):
        raise ValueError(
            f"window {window.index}: sub-AIG interface {sub.num_pis}i/{sub.num_pos}o does not "
            f"match window boundary {len(window.inputs)}i/{len(window.outputs)}o"
        )
    old2new.update(zip(window.outputs, host.append(sub, [old2new[var] for var in window.inputs])))


def stitch_windows(
    original: Aig,
    windows: Sequence[Window],
    implementations: Sequence[Aig],
    name: str = "",
) -> Aig:
    """Rebuild the host AIG from per-window implementations.

    ``implementations[i]`` replaces ``windows[i]``; passing each window's own
    ``window.aig`` reproduces the original circuit (up to strashing), which
    is the round-trip identity the tests pin down.  The result is cleaned up
    (splicing optimized windows can strand dead logic).
    """
    if len(windows) != len(implementations):
        raise ValueError("need exactly one implementation per window")
    host = Aig(name=name or original.name)
    old2new: Dict[int, int] = {0: CONST0}
    for var in original.pis:
        old2new[var] = host.add_pi(original.node(var).name)
    for window, sub in zip(windows, implementations):
        splice_window(host, window, sub, old2new)
    for po_lit, po_name in original.pos:
        host.add_po(old2new[lit_var(po_lit)] ^ (po_lit & 1), po_name)
    return host.cleanup()


def window_round_trip(original: Aig, windows: Sequence[Window]) -> Aig:
    """The identity stitch: every window keeps its extracted sub-AIG."""
    return stitch_windows(original, windows, [w.aig for w in windows])


__all__ = ["splice_window", "stitch_windows", "window_round_trip"]
