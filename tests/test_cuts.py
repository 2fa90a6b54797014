"""The signature cut kernel against the pairwise merge it replaced.

``oracle_enumerate_cuts`` below is the enumeration ``repro.opt.cuts`` ran
before leaf signatures, kept verbatim with its ``merge_cuts`` and
``Cut.dominates``: every fanin pair merged into a sorted leaf tuple and two
stretched truth tables before the width test, dominance tested with two
sets per pair of cuts, and every merged cut filtered before the
``cut_limit`` slice.  The kernel must return the same cut lists, in the
same order and with the same truth tables, for every AIG, ``k``,
``cut_limit`` and ``include_trivial``.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.graph import Aig, AigNode, lit_is_compl, lit_var
from repro.benchgen import epfl
from repro.mapping.cut_mapping import map_aig
from repro.obs.trace import tracing
from repro.opt import cuts as cuts_mod
from repro.opt.cuts import Cut, enumerate_cuts
from repro.opt.truth import FULL, MAX_VARS, VAR_MASKS, stretch

# ---------------------------------------------------------------------------
# Oracle: the pairwise merge the signature kernel replaced.


def oracle_dominates(cut: Cut, other: Cut) -> bool:
    """True if ``cut``'s leaves are a subset of ``other``'s."""
    return set(cut.leaves) <= set(other.leaves)


def oracle_merge_cuts(cut0: Cut, cut1: Cut, compl0: bool, compl1: bool, k: int) -> Optional[Cut]:
    """Merge two fanin cuts into a cut of the AND node, or None if > k leaves."""
    leaves = tuple(sorted(set(cut0.leaves) | set(cut1.leaves)))
    if len(leaves) > k:
        return None
    n = len(leaves)
    t0 = stretch(cut0.truth, tuple(map(leaves.index, cut0.leaves)), n)
    t1 = stretch(cut1.truth, tuple(map(leaves.index, cut1.leaves)), n)
    if compl0:
        t0 ^= FULL[n]
    if compl1:
        t1 ^= FULL[n]
    return Cut(leaves=leaves, truth=t0 & t1)


def oracle_enumerate_cuts(
    aig: Aig,
    k: int = 4,
    cut_limit: int = 8,
    include_trivial: bool = True,
    counts: Optional[Dict[str, int]] = None,
) -> Dict[int, List[Cut]]:
    """Enumerate up to ``cut_limit`` k-feasible cuts per variable.

    ``counts``, when given, receives the fanin ``pairs`` merged and the
    merges that came back ``too_wide`` (``oracle_merge_cuts`` is None).
    """
    if k > MAX_VARS:
        raise ValueError(f"cut size larger than {MAX_VARS} is not supported (truth tables grow too large)")
    if cut_limit < 1:
        raise ValueError("cut_limit must be at least 1")
    if counts is None:
        counts = {}
    counts.update(pairs=0, too_wide=0)
    cuts: Dict[int, List[Cut]] = {}
    cuts[0] = [Cut(leaves=(), truth=0)]
    for var in aig.pis:
        cuts[var] = [Cut(leaves=(var,), truth=VAR_MASKS[1][0])]
    for node in aig.and_nodes():
        v0, v1 = lit_var(node.fanin0), lit_var(node.fanin1)
        c0, c1 = lit_is_compl(node.fanin0), lit_is_compl(node.fanin1)
        merged: List[Cut] = []
        seen = set()
        for cut0 in cuts[v0]:
            for cut1 in cuts[v1]:
                cut = oracle_merge_cuts(cut0, cut1, c0, c1, k)
                counts["pairs"] += 1
                counts["too_wide"] += cut is None
                if cut is None or cut.leaves in seen:
                    continue
                seen.add(cut.leaves)
                merged.append(cut)
        # Remove dominated cuts (a cut whose leaves are a superset of another's).
        filtered: List[Cut] = []
        for cut in sorted(merged, key=lambda c: (c.size, c.leaves)):
            if any(oracle_dominates(other, cut) and other.leaves != cut.leaves for other in filtered):
                continue
            filtered.append(cut)
        filtered = filtered[:cut_limit]
        if include_trivial:
            filtered.append(Cut(leaves=(node.var,), truth=VAR_MASKS[1][0]))
        cuts[node.var] = filtered
    return cuts


def assert_same_cuts(aig: Aig, k: int, cut_limit: int, include_trivial: bool) -> None:
    kernel = enumerate_cuts(aig, k=k, cut_limit=cut_limit, include_trivial=include_trivial)
    oracle = oracle_enumerate_cuts(aig, k=k, cut_limit=cut_limit, include_trivial=include_trivial)
    assert list(kernel) == list(oracle)
    for var, expected in oracle.items():
        assert kernel[var] == expected, (var, k, cut_limit, include_trivial)


# ---------------------------------------------------------------------------
# Parity on the benchmark circuits.


@pytest.mark.parametrize("circuit", epfl.available_circuits())
def test_test_preset_circuits_match_the_oracle(circuit):
    aig = epfl.build(circuit, preset="test")
    for k in range(1, MAX_VARS + 1):
        for cut_limit in (1, 2, 8, 12):
            for include_trivial in (True, False):
                assert_same_cuts(aig, k, cut_limit, include_trivial)


@pytest.mark.parametrize("circuit", ["hyp", "arbiter"])
@pytest.mark.parametrize("k, cut_limit", [(4, 8), (6, 8)])
def test_bench_preset_circuits_match_the_oracle(circuit, k, cut_limit):
    assert_same_cuts(epfl.build(circuit, preset="bench"), k, cut_limit, True)


# ---------------------------------------------------------------------------
# Parity on raw AIGs: constant fanins, ``x & x``, ``x & !x`` and leaves a
# multiple of 64 variables apart (equal signature bits) all occur, since
# the nodes bypass ``Aig.add_and``'s simplifications.


@st.composite
def raw_aigs(draw):
    # Few PIs make reconvergent cones; many put leaves 64 and 128 apart.
    num_pis = draw(st.one_of(st.integers(min_value=1, max_value=6), st.integers(min_value=65, max_value=200)))
    aig = Aig(name="raw")
    for _ in range(num_pis):
        aig.add_pi()
    # Leaves drawn from a few PIs plus the PIs 64 and 128 variables above them.
    bases = draw(st.lists(st.integers(min_value=1, max_value=num_pis), min_size=1, max_size=5))
    pool = sorted({var for base in bases for var in (base, base + 64, base + 128) if var <= num_pis})
    for _ in range(draw(st.integers(min_value=1, max_value=24))):
        var = len(aig.nodes)
        ands = list(range(num_pis + 1, var))
        fanins = pool + ands[-8:]
        shape = draw(st.sampled_from(["any", "any", "any", "same", "const"]))
        var0 = draw(st.sampled_from(fanins))
        if shape == "same":
            var1 = var0
        elif shape == "const":
            var1 = 0
        else:
            var1 = draw(st.sampled_from(fanins))
        lit0 = 2 * var0 + draw(st.integers(min_value=0, max_value=1))
        lit1 = 2 * var1 + draw(st.integers(min_value=0, max_value=1))
        aig.nodes.append(AigNode(var=var, kind="and", fanin0=lit0, fanin1=lit1))
    aig.add_po(2 * (len(aig.nodes) - 1))
    return aig


@settings(max_examples=250, deadline=None, derandomize=True)
@given(
    aig=raw_aigs(),
    k=st.integers(min_value=1, max_value=MAX_VARS),
    cut_limit=st.one_of(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=12)),
    include_trivial=st.booleans(),
)
def test_raw_aigs_match_the_oracle(aig, k, cut_limit, include_trivial):
    assert_same_cuts(aig, k, cut_limit, include_trivial)


def test_leaves_sharing_a_signature_bit_match_the_oracle():
    """PIs 1, 65 and 129 share signature bit 1, as do 2 and 66."""
    aig = Aig(name="collisions")
    pis = [aig.add_pi() for _ in range(130)]
    p1, p2, p65, p66, p129 = pis[0], pis[1], pis[64], pis[65], pis[128]
    a = aig.add_and(p1, p65)
    b = aig.add_and(p65 ^ 1, p129)
    c = aig.add_and(p2, p66)
    d = aig.add_and(a, p2)
    e = aig.add_and(b, c ^ 1)
    aig.add_po(aig.add_and(d, e))
    aig.add_po(aig.add_and(p1 ^ 1, p129))
    for k in range(1, MAX_VARS + 1):
        for cut_limit in (1, 2, 3, 8):
            for include_trivial in (True, False):
                assert_same_cuts(aig, k, cut_limit, include_trivial)
    # A union whose three leaves set only two signature bits is too wide.
    cuts = enumerate_cuts(aig, k=2)
    assert all(cut.size <= 2 for cut in cuts[lit_var(d)])


# ---------------------------------------------------------------------------
# Counters, typed errors and the popcount fallback.


def test_span_counts_match_the_oracle():
    aig = epfl.build("hyp", preset="test")
    counts: Dict[str, int] = {}
    oracle = oracle_enumerate_cuts(aig, k=4, cut_limit=8, counts=counts)
    with tracing() as tracer:
        kernel = enumerate_cuts(aig, k=4, cut_limit=8)
    (record,) = [r for r in tracer.records if r.name == "cut enumeration"]
    assert record.category == "opt.cuts"
    assert record.args["k"] == 4
    assert record.args["nodes"] == aig.num_ands
    assert record.args["pairs"] == counts["pairs"]
    assert record.args["too_wide"] == counts["too_wide"] > 0
    assert record.args["kept"] == sum(len(kernel[node.var]) - 1 for node in aig.and_nodes())
    assert kernel == oracle


@pytest.mark.parametrize("k", [0, -1])
def test_enumerate_cuts_rejects_k_below_one(small_adder, k):
    with pytest.raises(ValueError, match="at least 1"):
        enumerate_cuts(small_adder, k=k)


@pytest.mark.parametrize("k", [1, 0, -1])
def test_map_aig_rejects_k_below_two(small_adder, k):
    with pytest.raises(ValueError, match="at least 2"):
        map_aig(small_adder, k=k)


def test_popcount_fallback_equals_the_native_count():
    rng = random.Random(2718)
    words = [0, 1, (1 << 64) - 1] + [rng.getrandbits(64) for _ in range(2000)]
    for word in words:
        bits = sum((word >> i) & 1 for i in range(64))
        assert cuts_mod.popcount_fallback(word) == bits
        assert cuts_mod.popcount(word) == bits
        if hasattr(int, "bit_count"):
            assert cuts_mod.popcount_fallback(word) == word.bit_count()
