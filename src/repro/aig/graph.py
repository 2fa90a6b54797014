"""And-Inverter Graph with structural hashing.

Literals follow the AIGER convention: a literal is ``2 * var + sign`` where
``sign`` is 1 for a complemented edge.  Variable 0 is the constant, so literal
0 is constant false and literal 1 is constant true.  Variables 1..num_pis are
primary inputs; the remaining variables are AND nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

# ---------------------------------------------------------------------------
# Literal helpers
# ---------------------------------------------------------------------------

CONST0 = 0
CONST1 = 1


def var_lit(var: int, compl: bool = False) -> int:
    """Build a literal from a variable index and a complement flag."""
    return (var << 1) | int(compl)


def lit_var(lit: int) -> int:
    """Return the variable index of a literal."""
    return lit >> 1


def lit_is_compl(lit: int) -> bool:
    """Return True if the literal is complemented."""
    return bool(lit & 1)


def lit_not(lit: int) -> int:
    """Complement a literal."""
    return lit ^ 1


def lit_compl(lit: int, compl: bool) -> int:
    """Conditionally complement a literal."""
    return lit ^ int(compl)


@dataclass
class AigNode:
    """A single AIG node.

    ``kind`` is one of ``"const"``, ``"pi"``, or ``"and"``.  AND nodes carry
    two fanin literals; other kinds have ``fanin0 == fanin1 == 0``.
    """

    var: int
    kind: str
    fanin0: int = 0
    fanin1: int = 0
    name: Optional[str] = None

    @property
    def is_and(self) -> bool:
        """True for an AND node."""
        return self.kind == "and"

    @property
    def is_pi(self) -> bool:
        """True for a primary input."""
        return self.kind == "pi"

    @property
    def is_const(self) -> bool:
        """True for the constant node (variable 0)."""
        return self.kind == "const"

    def fanin_lits(self) -> Tuple[int, ...]:
        """The two fanin literals of an AND node; empty for other kinds."""
        if self.kind != "and":
            return ()
        return (self.fanin0, self.fanin1)


@dataclass
class Aig:
    """And-Inverter Graph with structural hashing and constant propagation.

    Nodes are stored densely indexed by variable.  Primary outputs are a list
    of (literal, name) pairs.  ``add_and`` performs one-level structural
    hashing and the trivial Boolean simplifications (``a & a``, ``a & !a``,
    ``a & 0``, ``a & 1``).
    """

    name: str = "aig"
    nodes: List[AigNode] = field(default_factory=list)
    pis: List[int] = field(default_factory=list)  # variable indices
    pos: List[Tuple[int, Optional[str]]] = field(default_factory=list)  # (lit, name)
    _strash: Dict[Tuple[int, int], int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self.nodes:
            self.nodes.append(AigNode(var=0, kind="const"))

    # -- construction -------------------------------------------------------

    def add_pi(self, name: Optional[str] = None) -> int:
        """Add a primary input; return its (non-complemented) literal."""
        var = len(self.nodes)
        if name is None:
            name = f"pi{len(self.pis)}"
        self.nodes.append(AigNode(var=var, kind="pi", name=name))
        self.pis.append(var)
        return var_lit(var)

    def add_po(self, lit: int, name: Optional[str] = None) -> int:
        """Add a primary output driven by ``lit``; return the output index."""
        self._check_lit(lit)
        if name is None:
            name = f"po{len(self.pos)}"
        self.pos.append((lit, name))
        return len(self.pos) - 1

    def add_and(self, lit0: int, lit1: int) -> int:
        """Add (or reuse) an AND node over two literals; return its literal."""
        self._check_lit(lit0)
        self._check_lit(lit1)
        # Trivial cases.
        if lit0 == lit1:
            return lit0
        if lit0 == lit_not(lit1):
            return CONST0
        if lit0 == CONST0 or lit1 == CONST0:
            return CONST0
        if lit0 == CONST1:
            return lit1
        if lit1 == CONST1:
            return lit0
        # Canonical order for structural hashing.
        if lit0 > lit1:
            lit0, lit1 = lit1, lit0
        key = (lit0, lit1)
        cached = self._strash.get(key)
        if cached is not None:
            return var_lit(cached)
        var = len(self.nodes)
        self.nodes.append(AigNode(var=var, kind="and", fanin0=lit0, fanin1=lit1))
        self._strash[key] = var
        return var_lit(var)

    # -- derived gates -------------------------------------------------------

    def add_or(self, lit0: int, lit1: int) -> int:
        """OR as complemented AND of complements."""
        return lit_not(self.add_and(lit_not(lit0), lit_not(lit1)))

    def add_xor(self, lit0: int, lit1: int) -> int:
        """XOR built from three AND nodes."""
        a = self.add_and(lit0, lit_not(lit1))
        b = self.add_and(lit_not(lit0), lit1)
        return self.add_or(a, b)

    def add_mux(self, sel: int, lit_true: int, lit_false: int) -> int:
        """MUX: ``sel ? lit_true : lit_false``."""
        t = self.add_and(sel, lit_true)
        f = self.add_and(lit_not(sel), lit_false)
        return self.add_or(t, f)

    def add_maj(self, a: int, b: int, c: int) -> int:
        """Majority of three literals."""
        ab = self.add_and(a, b)
        ac = self.add_and(a, c)
        bc = self.add_and(b, c)
        return self.add_or(ab, self.add_or(ac, bc))

    def add_and_multi(self, lits: Sequence[int]) -> int:
        """Balanced AND over an arbitrary number of literals."""
        if not lits:
            return CONST1
        work = list(lits)
        while len(work) > 1:
            nxt = []
            for i in range(0, len(work) - 1, 2):
                nxt.append(self.add_and(work[i], work[i + 1]))
            if len(work) % 2:
                nxt.append(work[-1])
            work = nxt
        return work[0]

    def add_or_multi(self, lits: Sequence[int]) -> int:
        """Balanced OR over an arbitrary number of literals."""
        return lit_not(self.add_and_multi([lit_not(x) for x in lits]))

    # -- queries ------------------------------------------------------------

    def node(self, var: int) -> AigNode:
        """The node of variable ``var``."""
        return self.nodes[var]

    @property
    def num_pis(self) -> int:
        """Number of primary inputs."""
        return len(self.pis)

    @property
    def num_pos(self) -> int:
        """Number of primary outputs."""
        return len(self.pos)

    @property
    def num_ands(self) -> int:
        """Number of AND nodes."""
        return sum(1 for n in self.nodes if n.is_and)

    @property
    def num_nodes(self) -> int:
        """Number of variables: the constant, the PIs and the AND nodes."""
        return len(self.nodes)

    def and_nodes(self) -> Iterator[AigNode]:
        """Iterate AND nodes in topological (creation) order."""
        for n in self.nodes:
            if n.is_and:
                yield n

    def po_lits(self) -> List[int]:
        """The literal driving each primary output, in output order."""
        return [lit for lit, _ in self.pos]

    def fanout_counts(self) -> List[int]:
        """Number of fanouts per variable (including PO references)."""
        counts = [0] * len(self.nodes)
        for n in self.and_nodes():
            counts[lit_var(n.fanin0)] += 1
            counts[lit_var(n.fanin1)] += 1
        for lit, _ in self.pos:
            counts[lit_var(lit)] += 1
        return counts

    def topological_order(self) -> List[int]:
        """Variables in topological order (constant, PIs, then ANDs)."""
        return [n.var for n in self.nodes]

    def _check_lit(self, lit: int) -> None:
        if lit < 0 or (lit >> 1) >= len(self.nodes):
            raise ValueError(f"literal {lit} references unknown variable")

    # -- transformation helpers ---------------------------------------------

    def append(self, src: "Aig", input_lits: Sequence[int]) -> List[int]:
        """Strash ``src`` into this AIG with its PIs driven by ``input_lits``.

        AND nodes are added in ``src``'s creation order.  Returns the literal
        of each ``src`` primary output, in output order.
        """
        if len(input_lits) != src.num_pis:
            raise ValueError(f"expected {src.num_pis} input literals, got {len(input_lits)}")
        old2new = [CONST0] * len(src.nodes)
        for var, lit in zip(src.pis, input_lits):
            old2new[var] = lit
        for node in src.nodes[:]:  # a copy: ``src`` may be ``self``
            if node.kind == "and":
                f0, f1 = node.fanin0, node.fanin1
                old2new[node.var] = self.add_and(old2new[f0 >> 1] ^ (f0 & 1), old2new[f1 >> 1] ^ (f1 & 1))
        return [old2new[lit >> 1] ^ (lit & 1) for lit, _ in src.pos]

    def clone(self) -> "Aig":
        """Deep-copy the AIG."""
        other = Aig(name=self.name)
        other.nodes = [AigNode(n.var, n.kind, n.fanin0, n.fanin1, n.name) for n in self.nodes]
        other.pis = list(self.pis)
        other.pos = list(self.pos)
        other._strash = dict(self._strash)
        return other

    def cleanup(self) -> "Aig":
        """Return a new AIG containing only nodes reachable from the POs.

        Also re-applies structural hashing, which removes duplicated
        structures that may have appeared through rewriting.
        """
        new = Aig(name=self.name)
        old2new: Dict[int, int] = {0: CONST0}
        for var in self.pis:
            old2new[var] = new.add_pi(self.nodes[var].name)

        # Mark reachable nodes.
        reachable = set()
        stack = [lit_var(lit) for lit, _ in self.pos]
        while stack:
            var = stack.pop()
            if var in reachable:
                continue
            reachable.add(var)
            node = self.nodes[var]
            if node.is_and:
                stack.append(lit_var(node.fanin0))
                stack.append(lit_var(node.fanin1))

        def map_lit(lit: int) -> int:
            return lit_compl(old2new[lit_var(lit)], lit_is_compl(lit))

        for node in self.and_nodes():
            if node.var not in reachable:
                continue
            new_lit = new.add_and(map_lit(node.fanin0), map_lit(node.fanin1))
            old2new[node.var] = new_lit  # may itself carry a complement
        for lit, name in self.pos:
            var = lit_var(lit)
            mapped = old2new[var] if var in old2new else CONST0
            new.add_po(lit_compl(mapped, lit_is_compl(lit)), name)
        return new

    def strash(self) -> "Aig":
        """ABC's ``st``: re-hash the whole network (alias of :meth:`cleanup`)."""
        return self.cleanup()

    # -- misc ----------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """PI, PO and AND counts plus the logic depth."""
        from repro.aig.levels import logic_depth

        return {
            "pis": self.num_pis,
            "pos": self.num_pos,
            "ands": self.num_ands,
            "levels": logic_depth(self),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Aig(name={self.name!r}, pis={self.num_pis}, pos={self.num_pos}, ands={self.num_ands})"


def aig_from_functions(
    num_inputs: int, build: "callable", name: str = "aig", input_names: Optional[Iterable[str]] = None
) -> Aig:
    """Convenience constructor: create PIs, call ``build(aig, pi_lits)``.

    ``build`` must return a list of output literals (or a single literal).
    """
    aig = Aig(name=name)
    names = list(input_names) if input_names is not None else [None] * num_inputs
    pis = [aig.add_pi(names[i] if i < len(names) else None) for i in range(num_inputs)]
    outs = build(aig, pis)
    if isinstance(outs, int):
        outs = [outs]
    for i, lit in enumerate(outs):
        aig.add_po(lit, f"out{i}")
    return aig
