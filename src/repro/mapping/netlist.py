"""Mapped gate-level netlist and its QoR reporting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.mapping.library import Gate, Library


@dataclass
class NetlistGate:
    """One gate instance: output net plus the nets driving each input pin."""

    gate: Gate
    output: str
    inputs: List[str]


@dataclass
class Netlist:
    """A mapped combinational netlist."""

    name: str
    library: Library
    primary_inputs: List[str] = field(default_factory=list)
    primary_outputs: List[str] = field(default_factory=list)
    gates: List[NetlistGate] = field(default_factory=list)
    # Constant output nets (for outputs that reduced to constants).
    constants: Dict[str, int] = field(default_factory=dict)

    def add_gate(self, gate: Gate, output: str, inputs: List[str]) -> NetlistGate:
        """Append a gate instance driving ``output`` from ``inputs`` (one net per pin)."""
        if len(inputs) != gate.num_inputs:
            raise ValueError(f"gate {gate.name} expects {gate.num_inputs} inputs, got {len(inputs)}")
        inst = NetlistGate(gate=gate, output=output, inputs=inputs)
        self.gates.append(inst)
        return inst

    @property
    def area(self) -> float:
        """Total cell area in um^2."""
        return sum(g.gate.area for g in self.gates)

    @property
    def num_gates(self) -> int:
        """Number of gate instances."""
        return len(self.gates)

    def arrival_times(self) -> Dict[str, float]:
        """Net arrival times in ps assuming PI arrival 0 and pin-to-pin gate delays."""
        arrivals: Dict[str, float] = {net: 0.0 for net in self.primary_inputs}
        for net in self.constants:
            arrivals[net] = 0.0
        remaining = list(self.gates)
        # Gates were appended in topological order by the mapper, so one pass suffices;
        # fall back to iteration if an out-of-order netlist is given.
        for _ in range(len(remaining) + 1):
            progressed = False
            still: List[NetlistGate] = []
            for inst in remaining:
                if all(net in arrivals for net in inst.inputs):
                    arrivals[inst.output] = inst.gate.delay + max(
                        (arrivals[net] for net in inst.inputs), default=0.0
                    )
                    progressed = True
                else:
                    still.append(inst)
            remaining = still
            if not remaining:
                break
            if not progressed:
                raise ValueError("netlist contains a combinational cycle or undriven net")
        return arrivals

    @property
    def delay(self) -> float:
        """Critical-path delay in ps (worst primary-output arrival)."""
        if not self.primary_outputs:
            return 0.0
        arrivals = self.arrival_times()
        return max(arrivals.get(net, 0.0) for net in self.primary_outputs)

    def gate_histogram(self) -> Dict[str, int]:
        """Instance count per cell name."""
        hist: Dict[str, int] = {}
        for inst in self.gates:
            hist[inst.gate.name] = hist.get(inst.gate.name, 0) + 1
        return hist

    def to_verilog(self) -> str:
        """Emit a simple structural Verilog view of the netlist."""
        lines = [f"module {self.name} ("]
        ports = [f"  input wire {p}" for p in self.primary_inputs]
        ports += [f"  output wire {p}" for p in self.primary_outputs]
        lines.append(",\n".join(ports))
        lines.append(");")
        declared = set(self.primary_inputs) | set(self.primary_outputs)
        for inst in self.gates:
            if inst.output not in declared:
                lines.append(f"  wire {inst.output};")
                declared.add(inst.output)
        for net, value in self.constants.items():
            lines.append(f"  assign {net} = 1'b{value};")
        for i, inst in enumerate(self.gates):
            pins = ", ".join([f".Y({inst.output})"] + [f".A{j}({net})" for j, net in enumerate(inst.inputs)])
            lines.append(f"  {inst.gate.name} g{i} ({pins});")
        lines.append("endmodule")
        return "\n".join(lines) + "\n"
