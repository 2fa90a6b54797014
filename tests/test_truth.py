"""The word-parallel truth-table kernels against the per-minterm loops they replaced.

``repro.opt.truth`` is the one module that knows the truth-table bit layout.
The loops below are the code it replaced, kept verbatim as oracles: every
kernel must agree with its oracle bit for bit, the library match table must
come out entry for entry the same, and the cut passes must produce identical
cuts, AIGs and netlists with the oracles patched in (caches cleared, so no
kernel result leaks into the oracle run).
"""

from __future__ import annotations

import dataclasses
from itertools import combinations, permutations
from typing import Dict, List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchgen import epfl
from repro.mapping import cut_mapping, library as library_mod
from repro.mapping.cut_mapping import map_aig
from repro.mapping.library import GateMatch, Library, asap7_like_library
from repro.opt import cuts as cuts_mod
from repro.opt import npn, sop, truth
from repro.opt.cuts import Cut, enumerate_cuts
from repro.opt.dch import compute_choices
from repro.opt.refactor import refactor
from repro.opt.rewrite import rewrite
from repro.opt.sop import factored_cover, factored_literal_count, isop_cover
from repro.opt.sop_balance import sop_balance

# ---------------------------------------------------------------------------
# Oracles: the per-minterm loops the kernels replaced.


def oracle_leaf_truth(index: int, num_leaves: int) -> int:
    """Truth table of input variable ``index`` over ``num_leaves`` variables."""
    width = 1 << num_leaves
    word = 0
    for minterm in range(width):
        if (minterm >> index) & 1:
            word |= 1 << minterm
    return word


def oracle_expand_truth(truth: int, old_leaves: Sequence[int], new_leaves: Sequence[int]) -> int:
    """Re-express ``truth`` (over ``old_leaves``) over the superset ``new_leaves``."""
    pos = {leaf: i for i, leaf in enumerate(new_leaves)}
    n_new = len(new_leaves)
    width = 1 << n_new
    out = 0
    for minterm in range(width):
        old_minterm = 0
        for i, leaf in enumerate(old_leaves):
            if (minterm >> pos[leaf]) & 1:
                old_minterm |= 1 << i
        if (truth >> old_minterm) & 1:
            out |= 1 << minterm
    return out


def oracle_remap_cut(cut: Cut, mapping: Dict[int, int]) -> Optional[Cut]:
    """Rename cut leaves according to ``mapping``, permuting the truth table."""
    new_leaves_unsorted = [mapping[leaf] for leaf in cut.leaves]
    if len(set(new_leaves_unsorted)) != len(new_leaves_unsorted):
        return None
    order = sorted(range(len(new_leaves_unsorted)), key=lambda i: new_leaves_unsorted[i])
    new_leaves = tuple(new_leaves_unsorted[i] for i in order)
    n = len(new_leaves)
    width = 1 << n
    new_truth = 0
    for minterm in range(width):
        src = 0
        for new_pos, old_pos in enumerate(order):
            if (minterm >> new_pos) & 1:
                src |= 1 << old_pos
        if (cut.truth >> src) & 1:
            new_truth |= 1 << minterm
    return Cut(leaves=new_leaves, truth=new_truth)


def oracle_negate_input(truth: int, var: int, num_vars: int) -> int:
    """Swap the cofactors of ``var``."""
    width = 1 << num_vars
    out = 0
    for minterm in range(width):
        src = minterm ^ (1 << var)
        if (truth >> src) & 1:
            out |= 1 << minterm
    return out


def oracle_permute_inputs(truth: int, perm: Tuple[int, ...], num_vars: int) -> int:
    """Apply an input permutation: new variable i reads old variable perm[i]."""
    width = 1 << num_vars
    out = 0
    for minterm in range(width):
        src = 0
        for new_idx, old_idx in enumerate(perm):
            if (minterm >> new_idx) & 1:
                src |= 1 << old_idx
        if (truth >> src) & 1:
            out |= 1 << minterm
    return out


def oracle_cofactors(truth: int, var: int, num_vars: int) -> Tuple[int, int]:
    """Return (negative cofactor, positive cofactor) as functions of all vars."""
    width = 1 << num_vars
    neg = pos = 0
    for minterm in range(width):
        bit = (truth >> minterm) & 1
        if not bit:
            continue
        if (minterm >> var) & 1:
            pos |= 1 << minterm
            pos |= 1 << (minterm ^ (1 << var))
        else:
            neg |= 1 << minterm
            neg |= 1 << (minterm ^ (1 << var))
    return neg, pos


def oracle_var_halves(var: int, num_vars: int) -> Tuple[int, int]:
    """Minterm masks for var=0 and var=1 halves of the truth table."""
    width = 1 << num_vars
    mask = (1 << width) - 1
    pos_mask = 0
    for minterm in range(width):
        if (minterm >> var) & 1:
            pos_mask |= 1 << minterm
    return mask ^ pos_mask, pos_mask


def oracle_index_gate(self: Library, gate) -> None:
    """``Library._index_gate`` as a per-minterm loop."""
    n = gate.num_inputs
    width = 1 << n
    for perm in permutations(range(n)):
        for neg_mask in range(1 << n):
            for out_neg in (False, True):
                table = 0
                for minterm in range(width):
                    gate_minterm = 0
                    for pin in range(n):
                        bit = (minterm >> perm[pin]) & 1
                        if (neg_mask >> pin) & 1:
                            bit ^= 1
                        gate_minterm |= bit << pin
                    value = (gate.truth >> gate_minterm) & 1
                    if out_neg:
                        value ^= 1
                    table |= value << minterm
                match = GateMatch(
                    gate=gate,
                    leaf_of_pin=perm,
                    pin_negated=tuple(bool((neg_mask >> pin) & 1) for pin in range(n)),
                    output_negated=out_neg,
                )
                key = (n, table)
                existing = self._match_table.get(key)
                if existing is None or self._match_rank(match) < self._match_rank(existing):
                    self._match_table[key] = match


def oracle_var_masks():
    """``truth.VAR_MASKS`` rebuilt from the per-minterm halves."""
    return tuple(
        tuple(oracle_var_halves(var, n)[1] for var in range(n)) for n in range(truth.MAX_VARS + 1)
    )


# ---------------------------------------------------------------------------
# Kernels against oracles.


def _check_all_kernels(table: int, n: int) -> None:
    """Every kernel on one function of ``n`` inputs, every argument."""
    for var in range(n):
        assert truth.VAR_MASKS[n][var] == oracle_leaf_truth(var, n)
        assert (truth.FULL[n] ^ truth.VAR_MASKS[n][var], truth.VAR_MASKS[n][var]) == oracle_var_halves(var, n)
        assert truth.flip(table, var, n) == oracle_negate_input(table, var, n)
        assert npn.negate_input(table, var, n) == oracle_negate_input(table, var, n)
        assert truth.cofactors(table, var, n) == oracle_cofactors(table, var, n)
    for perm in permutations(range(n)):
        assert truth.permute(table, perm) == oracle_permute_inputs(table, perm, n)
        assert npn.permute_inputs(table, perm, n) == oracle_permute_inputs(table, perm, n)
    for width in range(n, truth.MAX_VARS + 1 if n <= 2 else n + 2):
        for positions in combinations(range(width), n):
            expected = oracle_expand_truth(table, positions, range(width))
            assert truth.stretch(table, positions, width) == expected


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_kernels_exhaustive_up_to_three_inputs(n):
    for table in range(1 << (1 << n)):
        _check_all_kernels(table, n)


def test_kernels_exhaustive_four_inputs():
    # Each kernel and each oracle routes bits: every output bit copies one
    # input bit (or is 0), so both commute with OR and map 0 to 0.  Agreement
    # on 0 and on every one-minterm function is agreement on all 2**16.
    _check_all_kernels(0, 4)
    for minterm in range(16):
        _check_all_kernels(1 << minterm, 4)
    _check_all_kernels(truth.FULL[4], 4)
    _check_all_kernels(0x6996, 4)


@st.composite
def _functions(draw, max_vars=truth.MAX_VARS):
    n = draw(st.integers(min_value=0, max_value=max_vars))
    return n, draw(st.integers(min_value=0, max_value=truth.FULL[n]))


@given(_functions(), st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_kernels_match_oracles_up_to_eight_inputs(function, data):
    n, table = function
    if n:
        var = data.draw(st.integers(min_value=0, max_value=n - 1))
        assert truth.flip(table, var, n) == oracle_negate_input(table, var, n)
        assert truth.cofactors(table, var, n) == oracle_cofactors(table, var, n)
        assert truth.VAR_MASKS[n][var] == oracle_leaf_truth(var, n)
    perm = tuple(data.draw(st.permutations(range(n))))
    assert truth.permute(table, perm) == oracle_permute_inputs(table, perm, n)
    width = data.draw(st.integers(min_value=n, max_value=truth.MAX_VARS))
    positions = tuple(sorted(data.draw(st.permutations(range(width)))[:n]))
    assert truth.stretch(table, positions, width) == oracle_expand_truth(table, positions, range(width))


@given(_functions(max_vars=6), st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_remap_cut_matches_oracle(function, data):
    n, table = function
    leaves = tuple(sorted(data.draw(st.sets(st.integers(1, 40), min_size=n, max_size=n))))
    targets = data.draw(st.lists(st.integers(1, 40), min_size=n, max_size=n))
    cut = Cut(leaves=leaves, truth=table)
    mapping = dict(zip(leaves, targets))
    assert cut_mapping._remap_cut(cut, mapping) == oracle_remap_cut(cut, mapping)


def test_library_match_table_equals_oracle(monkeypatch):
    kernel = asap7_like_library()
    monkeypatch.setattr(Library, "_index_gate", oracle_index_gate)
    oracle = asap7_like_library()
    assert len(kernel._match_table) == 430
    assert list(kernel._match_table.items()) == list(oracle._match_table.items())


# ---------------------------------------------------------------------------
# Whole passes with the oracles patched in.


def _clear_caches() -> None:
    for cached in (truth.stretch, truth.permute, isop_cover, factored_cover, factored_literal_count,
                   npn.npn_canonical):
        cached.cache_clear()


def _aig_shape(aig):
    return [(node.kind, node.fanin0, node.fanin1) for node in aig.nodes], list(aig.pos)


def _netlist_shape(result):
    return result.netlist.to_verilog(), result.area, result.delay, result.levels


def _cut_pass_outputs(aig):
    """Everything the cut passes produce on ``aig``, in comparable form."""
    choice = compute_choices(aig, max_pairs=200, conflict_budget=200)
    return {
        "cuts4": enumerate_cuts(aig, k=4),
        "cuts6": enumerate_cuts(aig, k=6, cut_limit=6),
        "sop_balance": _aig_shape(sop_balance(aig.strash())),
        "rewrite": _aig_shape(rewrite(aig)),
        "refactor": _aig_shape(refactor(aig)),
        "choices": _aig_shape(choice.aig),
        "map": _netlist_shape(map_aig(choice.aig, choices=choice.classes)),
    }


def _patch_oracles(monkeypatch) -> List[Cut]:
    """Swap every kernel call site for its oracle; returns the remapped cuts seen."""
    masks = oracle_var_masks()
    remapped: List[Cut] = []

    def remap_cut(cut, mapping):
        remapped.append(cut)
        return oracle_remap_cut(cut, mapping)

    monkeypatch.setattr(cuts_mod, "stretch", lambda t, positions, n: oracle_expand_truth(t, positions, range(n)))
    monkeypatch.setattr(cuts_mod, "VAR_MASKS", masks)
    monkeypatch.setattr(sop, "cofactors", oracle_cofactors)
    monkeypatch.setattr(sop, "VAR_MASKS", masks)
    monkeypatch.setattr(npn, "negate_input", oracle_negate_input)
    monkeypatch.setattr(npn, "permute_inputs", oracle_permute_inputs)
    monkeypatch.setattr(cut_mapping, "_remap_cut", remap_cut)
    monkeypatch.setattr(library_mod.Library, "_index_gate", oracle_index_gate)
    monkeypatch.setattr(library_mod, "_DEFAULT_LIBRARY", None)
    return remapped


@pytest.mark.parametrize("circuit", ["adder", "sqrt", "square"])
def test_cut_passes_identical_with_oracles(circuit, monkeypatch):
    aig = epfl.build(circuit, preset="test")
    kernel = _cut_pass_outputs(aig)
    with monkeypatch.context() as patched:
        remapped = _patch_oracles(patched)
        _clear_caches()
        oracle = _cut_pass_outputs(aig)
    _clear_caches()
    assert remapped, "the choice mapping never remapped a cut"
    assert kernel.keys() == oracle.keys()
    for key in kernel:
        assert kernel[key] == oracle[key], key


# ---------------------------------------------------------------------------
# Cached values are immutable and stable.


def test_cached_cover_cannot_be_mutated():
    cover = isop_cover(0b11101000, 3)
    assert isinstance(cover, tuple)
    with pytest.raises(TypeError):
        cover[0] = cover[-1]  # type: ignore[index]
    with pytest.raises(dataclasses.FrozenInstanceError):
        cover[0].mask = 0  # type: ignore[misc]
    assert isop_cover(0b11101000, 3) == cover
    form = factored_cover(0b11101000, 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        form.kind = "lit"  # type: ignore[misc]
    assert factored_cover(0b11101000, 3) == form
    assert factored_literal_count(0b11101000, 3) == form.num_literals()


def test_cache_bounds_are_module_constants():
    assert truth.stretch.cache_info().maxsize == truth.STRETCH_CACHE_SIZE
    assert truth.permute.cache_info().maxsize == truth.PERMUTE_CACHE_SIZE
    for cached in (isop_cover, factored_cover, factored_literal_count):
        assert cached.cache_info().maxsize == sop.FUNCTION_CACHE_SIZE
