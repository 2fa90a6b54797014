"""Tests of AIG simulation, levels, and I/O formats."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.graph import Aig, aig_from_functions, lit_not
from repro.aig.io_aiger import read_aag, write_aag
from repro.aig.io_eqn import read_eqn, roundtrip_eqn, write_eqn
from repro.aig.levels import compute_levels, critical_path, level_histogram, logic_depth, required_times, slack
from repro.aig.simulate import WORD_MASK, exhaustive_truth_tables, node_words, random_simulate, simulate
from repro.benchgen import arithmetic


class TestSimulate:
    def test_and_gate_truth(self):
        aig = aig_from_functions(2, lambda a, pis: a.add_and(pis[0], pis[1]))
        assert exhaustive_truth_tables(aig)[0] == 0b1000

    def test_simulate_bit_parallel_width(self):
        aig = aig_from_functions(2, lambda a, pis: a.add_or(pis[0], pis[1]))
        outs = simulate(aig, [0b1100, 0b1010], width=4)
        assert outs[0] == 0b1110

    def test_wrong_pattern_count_raises(self, small_adder):
        with pytest.raises(ValueError):
            simulate(small_adder, [0])

    def test_exhaustive_limit(self):
        aig = Aig()
        for _ in range(17):
            aig.add_pi()
        aig.add_po(1)
        with pytest.raises(ValueError):
            exhaustive_truth_tables(aig)

    def test_random_simulate_deterministic(self, small_adder):
        assert random_simulate(small_adder, 3, seed=1) == random_simulate(small_adder, 3, seed=1)
        assert random_simulate(small_adder, 3, seed=1) != random_simulate(small_adder, 3, seed=2)

    def test_signature_equal_for_equal_circuits(self, small_adder):
        def po_words(aig):
            sigs = node_words(aig, num_words=4, seed=12345)
            return [tuple(w ^ WORD_MASK if lit & 1 else w for w in sigs[lit >> 1]) for lit in aig.po_lits()]

        assert po_words(small_adder) == po_words(small_adder.cleanup())
        # node_words draws the same patterns as random_simulate
        assert [list(words) for words in zip(*po_words(small_adder))] == random_simulate(small_adder, 4, seed=12345)

    def test_node_signatures_cover_all_vars(self, small_adder):
        sigs = node_words(small_adder, num_words=2, seed=7)
        assert len(sigs) == small_adder.num_nodes
        assert sigs[0] == (0, 0)  # the constant-false node
        assert all(len(words) == 2 for words in sigs)

    @given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
    @settings(max_examples=50, deadline=None)
    def test_adder_matches_python_addition(self, x, y):
        aig = arithmetic.adder(8)
        pats = [(x >> i) & 1 for i in range(8)] + [(y >> i) & 1 for i in range(8)]
        outs = simulate(aig, pats, width=1)
        value = sum(b << i for i, b in enumerate(outs))
        assert value == x + y


class TestLevels:
    def test_pi_level_zero(self):
        aig = aig_from_functions(2, lambda a, pis: a.add_and(pis[0], pis[1]))
        levels = compute_levels(aig)
        assert levels[1] == 0 and levels[2] == 0
        assert logic_depth(aig) == 1

    def test_logic_depth_chain(self):
        aig = Aig()
        lit = aig.add_pi()
        for _ in range(5):
            lit = aig.add_and(lit, aig.add_pi())
        aig.add_po(lit)
        assert logic_depth(aig) == 5

    def test_critical_path_ends_at_deepest_po(self, small_adder):
        path = critical_path(small_adder)
        levels = compute_levels(small_adder)
        assert levels[path[-1]] == logic_depth(small_adder)
        # Path levels strictly increase.
        assert all(levels[path[i]] < levels[path[i + 1]] for i in range(len(path) - 1))

    def test_required_times_bound_arrivals(self, small_adder):
        levels = compute_levels(small_adder)
        req = required_times(small_adder, levels)
        assert all(req[v] >= levels[v] for v in range(small_adder.num_nodes))

    def test_slack_nonnegative(self, small_adder):
        assert all(s >= 0 for s in slack(small_adder).values())

    def test_level_histogram_totals(self, small_adder):
        hist = level_histogram(small_adder)
        assert sum(hist.values()) == small_adder.num_ands


class TestAigerIO:
    def test_roundtrip_preserves_function(self, tmp_path, small_adder):
        path = tmp_path / "adder.aag"
        write_aag(small_adder, path)
        back = read_aag(path)
        assert back.num_pis == small_adder.num_pis
        assert back.num_pos == small_adder.num_pos
        assert random_simulate(back, 4, seed=9) == random_simulate(small_adder, 4, seed=9)

    def test_reads_symbol_table(self, tmp_path):
        aig = aig_from_functions(2, lambda a, pis: a.add_and(pis[0], pis[1]), input_names=["x", "y"])
        path = tmp_path / "g.aag"
        write_aag(aig, path)
        back = read_aag(path)
        assert back.node(back.pis[0]).name == "x"

    def test_rejects_latches(self, tmp_path):
        path = tmp_path / "latch.aag"
        path.write_text("aag 1 0 1 0 0\n2 2\n")
        with pytest.raises(ValueError):
            read_aag(path)


class TestEqnIO:
    def test_roundtrip_preserves_function(self, small_sqrt):
        back = roundtrip_eqn(small_sqrt)
        assert random_simulate(back, 4, seed=4) == random_simulate(small_sqrt, 4, seed=4)

    def test_parse_simple_expression(self):
        text = "INORDER = a b c;\nOUTORDER = f;\nf = a * (b + !c);"
        aig = read_eqn(text)
        truth = exhaustive_truth_tables(aig)[0]
        expected = 0
        for m in range(8):
            a, b, c = m & 1, (m >> 1) & 1, (m >> 2) & 1
            if a and (b or not c):
                expected |= 1 << m
        assert truth == expected

    def test_unknown_signal_raises(self):
        with pytest.raises(ValueError):
            read_eqn("INORDER = a;\nOUTORDER = f;\nf = a * undefined_signal;")

    def test_constant_output(self):
        aig = Aig()
        aig.add_pi("a")
        aig.add_po(1, "t")
        text = write_eqn(aig)
        back = read_eqn(text)
        assert exhaustive_truth_tables(back)[0] == 0b11
