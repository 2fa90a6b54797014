"""Equivalence checking: CNF encoding, a CDCL SAT solver, the pair prover and CEC."""

from repro.verify.cec import CecResult, PairProof, check_equivalence, prove_pair
from repro.verify.cnf import Cnf, tseitin_encode
from repro.verify.sat import SatResult, SatSolver

__all__ = [
    "Cnf",
    "tseitin_encode",
    "SatSolver",
    "SatResult",
    "PairProof",
    "prove_pair",
    "check_equivalence",
    "CecResult",
]
