"""Tests of the cut enumeration, NPN classification, SOP/ISOP and factoring."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.graph import Aig, aig_from_functions, lit_var
from repro.aig.simulate import exhaustive_truth_tables
from repro.opt.cuts import Cut, cut_cone_volume, cut_truth_table, enumerate_cuts
from repro.opt.npn import (
    classify,
    is_npn_equivalent,
    negate_input,
    negate_output,
    npn_canonical,
    permute_inputs,
    truth_num_vars,
)
from repro.opt.sop import Cube, factor, factored_literal_count, isop, isop_cover, sop_truth


def _xor_aig():
    return aig_from_functions(2, lambda a, pis: a.add_xor(pis[0], pis[1]))


class TestCuts:
    def test_pi_has_trivial_cut(self, small_adder):
        cuts = enumerate_cuts(small_adder, k=4)
        pi = small_adder.pis[0]
        assert cuts[pi] == [Cut(leaves=(pi,), truth=0b10)]

    def test_cut_sizes_bounded(self, small_adder):
        cuts = enumerate_cuts(small_adder, k=4, cut_limit=6)
        for var, cut_list in cuts.items():
            for cut in cut_list:
                assert cut.size <= 4

    def test_cut_limit_respected(self, small_adder):
        cuts = enumerate_cuts(small_adder, k=4, cut_limit=3)
        for node in small_adder.and_nodes():
            # +1 for the trivial self-cut.
            assert len(cuts[node.var]) <= 4

    def test_cut_truths_match_local_simulation(self, small_sqrt):
        cuts = enumerate_cuts(small_sqrt, k=4, cut_limit=4)
        checked = 0
        for node in small_sqrt.and_nodes():
            for cut in cuts[node.var]:
                if cut.leaves == (node.var,):
                    continue
                assert cut.truth == cut_truth_table(small_sqrt, node.var, cut.leaves)
                checked += 1
            if checked > 50:
                break
        assert checked > 0

    def test_reject_oversized_k(self, small_adder):
        with pytest.raises(ValueError):
            enumerate_cuts(small_adder, k=9)

    def test_merge_cuts_respects_k(self):
        # Without trivial cuts each fanin of the root has the one cut (1, 2, 3)
        # or (4, 5, 6); their six-leaf union is no cut at k=4.
        aig = Aig()
        pis = [aig.add_pi() for _ in range(6)]
        left = aig.add_and(aig.add_and(pis[0], pis[1]), pis[2])
        right = aig.add_and(aig.add_and(pis[3], pis[4]), pis[5])
        root = lit_var(aig.add_and(left, right))
        assert enumerate_cuts(aig, k=4, include_trivial=False)[root] == []
        (cut,) = enumerate_cuts(aig, k=6, include_trivial=False)[root]
        assert cut.leaves == (1, 2, 3, 4, 5, 6)

    def test_cone_volume_of_xor(self):
        aig = _xor_aig()
        root = lit_var(aig.pos[0][0])
        leaves = tuple(aig.pis)
        assert cut_cone_volume(aig, root, leaves) == 3  # XOR = 3 AND nodes

    def test_and_node_two_input_cut_truth(self):
        aig = aig_from_functions(2, lambda a, pis: a.add_and(pis[0], pis[1]))
        root = lit_var(aig.pos[0][0])
        cuts = enumerate_cuts(aig, k=2)
        non_trivial = [c for c in cuts[root] if c.leaves != (root,)]
        assert any(c.truth == 0b1000 for c in non_trivial)


class TestNpn:
    def test_truth_num_vars(self):
        assert truth_num_vars(0b1000) == 2
        assert truth_num_vars(0b10) == 1

    def test_negate_output_involution(self):
        t = 0b1010
        assert negate_output(negate_output(t, 2), 2) == t

    def test_negate_input_swaps_cofactors(self):
        t_and = 0b1000
        # negating input 0 of AND gives b & !a -> truth 0b0100
        assert negate_input(t_and, 0, 2) == 0b0100

    def test_permute_identity(self):
        t = 0b0110
        assert permute_inputs(t, (0, 1), 2) == t

    def test_and_variants_same_class(self):
        # a&b, a&!b, !a&b, !(a|b), a|b ... AND-family NPN class
        variants = [0b1000, 0b0100, 0b0010, 0b0001, 0b1110, 0b0111]
        classes = {npn_canonical(t, 2) for t in variants}
        assert len(classes) == 1

    def test_xor_not_equivalent_to_and(self):
        assert not is_npn_equivalent(0b0110, 0b1000, 2)

    def test_classify_groups(self):
        groups = classify([0b1000, 0b1110, 0b0110, 0b1001], 2)
        sizes = sorted(len(v) for v in groups.values())
        assert sizes == [2, 2]

    @given(st.integers(min_value=0, max_value=65535))
    @settings(max_examples=40, deadline=None)
    def test_canonical_is_idempotent_and_invariant(self, truth):
        canon = npn_canonical(truth, 4)
        assert npn_canonical(canon, 4) == canon
        assert npn_canonical(negate_output(truth, 4), 4) == canon
        assert npn_canonical(negate_input(truth, 2, 4), 4) == canon


class TestSop:
    def test_cube_literals(self):
        cube = Cube(mask=0b101, polarity=0b001)
        assert cube.literals() == [(0, True), (2, False)]
        assert cube.num_literals == 2

    def test_isop_covers_function_exactly(self):
        for truth in (0b0110, 0b1000, 0b1110, 0b0111, 0b1001, 0b0001):
            cubes = isop_cover(truth, 2)
            assert sop_truth(cubes, 2) == truth

    @given(st.integers(min_value=0, max_value=255))
    @settings(max_examples=80, deadline=None)
    def test_isop_exact_for_3var_functions(self, truth):
        cubes = isop_cover(truth, 3)
        assert sop_truth(cubes, 3) == truth

    @given(st.integers(min_value=0, max_value=65535))
    @settings(max_examples=60, deadline=None)
    def test_isop_with_dont_cares_within_bounds(self, truth):
        upper = truth | 0b1111  # add don't cares on the low minterms
        cubes = isop(truth, upper, 4)
        result = sop_truth(cubes, 4)
        assert result & ~upper == 0
        assert truth & ~result == 0

    def test_factor_preserves_function(self):
        for truth in (0b11101000, 0b01100110, 0b10000001, 0b11111110):
            cubes = isop_cover(truth, 3)
            node = factor(cubes)
            # Evaluate the factored form on every minterm.
            def eval_factor(n, minterm):
                if n.kind == "lit":
                    bit = (minterm >> n.var) & 1
                    return bool(bit) == n.positive
                if n.kind == "and":
                    return all(eval_factor(c, minterm) for c in n.children)
                return any(eval_factor(c, minterm) for c in n.children)

            for minterm in range(8):
                assert eval_factor(node, minterm) == bool((truth >> minterm) & 1)

    def test_factored_literal_count_constants(self):
        assert factored_literal_count(0, 3) == 0
        assert factored_literal_count(0xFF, 3) == 0

    def test_factoring_shares_common_literal(self):
        # a*b + a*c should factor to a*(b+c): 3 literals, not 4.
        cubes = [Cube(0b011, 0b011), Cube(0b101, 0b101)]
        assert factor(cubes).num_literals() == 3

    def test_factor_empty_cover_raises(self):
        with pytest.raises(ValueError):
            factor([])


class TestSynth:
    def test_build_truth_factored_matches_truth(self):
        from repro.aig.graph import Aig
        from repro.opt.synth import build_truth_factored

        for truth in (0b0110, 0b1000, 0b0111, 0b1001, 0b11100000, 0b10010110):
            num_vars = 2 if truth < 16 else 3
            aig = Aig()
            leaves = [aig.add_pi() for _ in range(num_vars)]
            lit = build_truth_factored(aig, truth, leaves)
            aig.add_po(lit)
            assert exhaustive_truth_tables(aig)[0] == truth

    def test_build_sop_balanced_depth_estimate(self):
        from repro.aig.graph import Aig
        from repro.opt.synth import build_truth_sop_balanced

        aig = Aig()
        leaves = [aig.add_pi() for _ in range(3)]
        arrivals = [5.0, 0.0, 0.0]
        arr, lit = build_truth_sop_balanced(aig, 0b10000000, leaves, arrivals)
        aig.add_po(lit)
        assert exhaustive_truth_tables(aig)[0] == 0b10000000
        # The late leaf should be merged last: depth estimate 5 + 2 at most.
        assert arr <= 7.0
