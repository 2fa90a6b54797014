"""Tests of the technology-independent optimization passes.

Every pass must preserve functionality (checked by bit-parallel simulation
with shared seeds, and exhaustively for small circuits); the delay-oriented
passes must not increase depth on the reference circuits.
"""

from __future__ import annotations

import pytest

from repro.aig.graph import aig_from_functions
from repro.aig.levels import logic_depth
from repro.aig.simulate import exhaustive_truth_tables, node_words, random_simulate
from repro.benchgen import arithmetic, control, epfl
from repro.opt.balance import balance
from repro.opt.dch import compute_choices
from repro.opt.refactor import refactor
from repro.opt.rewrite import rewrite
from repro.opt.scripts import delay_opt_script, resyn2_script
from repro.opt.sop_balance import sop_balance


def same_function(a, b, words: int = 4, seed: int = 23) -> bool:
    return random_simulate(a, words, seed=seed) == random_simulate(b, words, seed=seed)


PASSES = [balance, rewrite, refactor, sop_balance]


@pytest.mark.parametrize("opt_pass", PASSES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("circuit", ["adder", "sqrt", "mem_ctrl", "arbiter"])
def test_pass_preserves_function(opt_pass, circuit):
    aig = epfl.build(circuit, preset="test")
    optimized = opt_pass(aig)
    assert same_function(aig, optimized)


@pytest.mark.parametrize("opt_pass", PASSES, ids=lambda f: f.__name__)
def test_pass_preserves_small_exhaustive(opt_pass):
    aig = arithmetic.multiplier(3)
    optimized = opt_pass(aig)
    assert exhaustive_truth_tables(optimized) == exhaustive_truth_tables(aig)


class TestBalance:
    def test_reduces_depth_of_linear_chain(self):
        def chain(aig, pis):
            lit = pis[0]
            for other in pis[1:]:
                lit = aig.add_and(lit, other)
            return lit

        aig = aig_from_functions(16, chain)
        assert logic_depth(aig) == 15
        balanced = balance(aig)
        assert logic_depth(balanced) == 4
        assert exhaustive_truth_tables(balanced) == exhaustive_truth_tables(aig)

    def test_does_not_duplicate_shared_logic(self):
        def shared(aig, pis):
            shared_node = aig.add_and(pis[0], pis[1])
            f = aig.add_and(shared_node, pis[2])
            g = aig.add_and(shared_node, pis[3])
            return [f, g]

        aig = aig_from_functions(4, shared)
        balanced = balance(aig)
        assert balanced.num_ands <= aig.num_ands

    def test_idempotent_on_depth(self, small_sqrt):
        once = balance(small_sqrt)
        twice = balance(once)
        assert logic_depth(twice) <= logic_depth(once)


class TestRewrite:
    def test_never_increases_node_count(self):
        for name in ["sqrt", "arbiter", "mem_ctrl"]:
            aig = epfl.build(name, preset="test")
            assert rewrite(aig).num_ands <= aig.num_ands

    def test_reduces_redundant_structure(self):
        # f = (a & b) | (a & c) has a smaller factored form a & (b | c).
        def redundant(aig, pis):
            return aig.add_or(aig.add_and(pis[0], pis[1]), aig.add_and(pis[0], pis[2]))

        aig = aig_from_functions(3, redundant)
        rewritten = rewrite(aig)
        assert rewritten.num_ands <= aig.num_ands
        assert exhaustive_truth_tables(rewritten) == exhaustive_truth_tables(aig)

    def test_zero_gain_option_keeps_function(self, small_sqrt):
        assert same_function(small_sqrt, rewrite(small_sqrt, zero_gain=True))


class TestRefactor:
    def test_never_increases_node_count_on_sqrt(self, small_sqrt):
        assert refactor(small_sqrt).num_ands <= small_sqrt.num_ands


class TestSopBalance:
    @pytest.mark.parametrize("circuit", ["adder", "multiplier", "sqrt", "arbiter"])
    def test_reduces_or_preserves_depth(self, circuit):
        aig = epfl.build(circuit, preset="test")
        balanced = sop_balance(aig)
        assert logic_depth(balanced) <= logic_depth(aig)

    def test_larger_k_not_worse(self, small_sqrt):
        d4 = logic_depth(sop_balance(small_sqrt, k=4))
        d6 = logic_depth(sop_balance(small_sqrt, k=6))
        assert d6 <= d4 + 2  # allow small noise, but no blow-up


class TestChoices:
    def test_choice_classes_are_well_formed(self, small_sqrt):
        choice = compute_choices(small_sqrt, max_pairs=100, conflict_budget=200)
        for rep, members in choice.classes.members.items():
            assert rep == min(members)
            assert all(choice.classes.repr_of[m] == rep for m in members)

    def test_union_aig_contains_original(self, small_sqrt):
        choice = compute_choices(small_sqrt, max_pairs=50, conflict_budget=100)
        assert choice.aig.num_pis == small_sqrt.num_pis
        assert choice.aig.num_pos == small_sqrt.num_pos
        assert choice.aig.num_ands >= small_sqrt.num_ands
        assert same_function(choice.aig, small_sqrt)

    def test_sat_verification_rejects_non_equivalent(self):
        # Members are SAT-proven equal to their representative, so fresh
        # simulation patterns must agree on every one of them.
        aig = epfl.build("sqrt", preset="test")
        choice = compute_choices(aig, max_pairs=100, conflict_budget=300)
        sigs = node_words(choice.aig, num_words=4, seed=123)
        for rep, members in choice.classes.members.items():
            for member in members:
                assert sigs[member] == sigs[rep]


class TestScripts:
    def test_available_scripts_listed(self, small_adder):
        from repro.pipeline import Pipeline, available_passes

        names = available_passes()
        assert "resyn2" in names and "delay_opt" in names
        # a recipe run by name is the script function it wraps
        for name, script in (("resyn2", resyn2_script), ("delay_opt", delay_opt_script)):
            by_name = Pipeline.from_script(name).run(small_adder).aig
            direct = script(small_adder)
            assert (by_name.num_ands, logic_depth(by_name)) == (direct.num_ands, logic_depth(direct))
            assert same_function(by_name, direct)

    def test_resyn2_preserves_function(self, small_sqrt):
        assert same_function(small_sqrt, resyn2_script(small_sqrt))

    def test_delay_script_reduces_depth(self, small_adder):
        optimized = delay_opt_script(small_adder)
        assert logic_depth(optimized) < logic_depth(small_adder)
        assert same_function(small_adder, optimized)
