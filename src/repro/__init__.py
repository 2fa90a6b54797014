"""E-morphic reproduction: scalable equality saturation for logic synthesis.

The package is organised into substrates (``aig``, ``opt``, ``mapping``,
``egraph``, ``verify``, ``benchgen``) and the E-morphic contribution itself
(``conversion``, ``extraction``, ``costmodel``, ``flows``); ``pipeline``
exposes every transform as a registered pass composable into scriptable,
first-class pipelines.

Quick start::

    from repro import benchgen, flows
    aig = benchgen.epfl.build("adder", width=16)
    result = flows.emorphic.run_emorphic_flow(aig)
    print(result.area, result.delay)
"""

import importlib

from repro import (
    aig,
    benchgen,
    conversion,
    egraph,
    extraction,
    flows,
    mapping,
    opt,
    pipeline,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "aig",
    "benchgen",
    "conversion",
    "costmodel",
    "egraph",
    "extraction",
    "flows",
    "mapping",
    "opt",
    "pipeline",
    "verify",
    "__version__",
]


def __getattr__(name: str):
    # ``costmodel`` needs numpy, which no flow but the ML mode uses: it is
    # imported on first access (PEP 562) instead of with the package.
    if name == "costmodel":
        return importlib.import_module("repro.costmodel")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
