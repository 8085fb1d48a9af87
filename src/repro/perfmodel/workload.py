"""Per-CPU characterisation via calibration microkernels.

Three guest microkernels stress the three resource classes of
:class:`repro.npb.common.OpMix`:

- ``karp``  - floating-point pipelines (no divide/sqrt, pure mul/add);
- ``triad`` - loads/stores (STREAM-style);
- ``int_checksum`` - integer ALU and branches.

Each runs end to end through the CPU's own execution model (port/ROB
simulator or the full CMS+VLIW pipeline), yielding measured
cycles-per-guest-operation for that class.  Characterisations are
cached per processor name - simulation runs are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.cpus.base import Processor
from repro.isa import programs
from repro.npb.common import OpMix


@dataclass(frozen=True)
class CpuCharacterization:
    """Measured per-class cycles-per-operation for one CPU."""

    cpu_name: str
    clock_hz: float
    cpi_fp: float
    cpi_mem: float
    cpi_int: float

    def cpi_for(self, mix: OpMix) -> float:
        """Blend the class costs by the workload's mix."""
        return (
            mix.fp * self.cpi_fp
            + mix.mem * self.cpi_mem
            + mix.int_ * self.cpi_int
        )

    def ops_per_second(self, mix: OpMix) -> float:
        return self.clock_hz / self.cpi_for(mix)


_CACHE: Dict[str, CpuCharacterization] = {}

#: Calibration workload sizes: long enough that CMS translation costs
#: amortise the way they would on a real long-running benchmark.
_KARP = dict(n=64, passes=60)
_TRIAD_N = 4096
_INT_N = 4000

#: Average bytes of DRAM traffic per memory-class operation.
BYTES_PER_MEM_OP = 8.0


def characterize(cpu: Processor) -> CpuCharacterization:
    """Measure (or fetch cached) per-class rates for *cpu*."""
    if cpu.name in _CACHE:
        return _CACHE[cpu.name]

    karp = cpu.run_workload(programs.gravity_microkernel_karp(**_KARP))
    triad = cpu.run_workload(programs.stream_triad(n=_TRIAD_N))
    intk = cpu.run_workload(programs.int_checksum(n=_INT_N))

    # The instruction simulators model flat memory; cap streaming rates
    # at the node's DRAM bandwidth (BYTES_PER_MEM_OP bytes per memory
    # operation, typical of stride-1 double-precision kernels).
    dram_cpi = (
        cpu.spec.clock_hz * BYTES_PER_MEM_OP
        / (cpu.spec.memory_gbs * 1e9)
    )
    result = CpuCharacterization(
        cpu_name=cpu.name,
        clock_hz=cpu.spec.clock_hz,
        cpi_fp=karp.cycles_per_instruction,
        cpi_mem=max(triad.cycles_per_instruction, dram_cpi),
        cpi_int=intk.cycles_per_instruction,
    )
    _CACHE[cpu.name] = result
    return result
