"""Suite-level entry points for the NPB work-alikes."""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.npb.bt import run_bt
from repro.npb.cg import run_cg
from repro.npb.common import KernelOutcome
from repro.npb.ep import run_ep
from repro.npb.is_ import run_is
from repro.npb.lu import run_lu
from repro.npb.mg import run_mg
from repro.npb.sp import run_sp

#: All kernels by name.
NPB_KERNELS: Dict[str, Callable[..., KernelOutcome]] = {
    "EP": run_ep,
    "IS": run_is,
    "MG": run_mg,
    "CG": run_cg,
    "BT": run_bt,
    "SP": run_sp,
    "LU": run_lu,
}

#: The paper's Table 3 rows, in row order.
TABLE3_KERNELS: Tuple[str, ...] = ("BT", "SP", "LU", "MG", "EP", "IS")


def run_kernel(name: str, letter: str = "S") -> KernelOutcome:
    """Run one kernel at one class, verified."""
    try:
        fn = NPB_KERNELS[name.upper()]
    except KeyError:
        known = ", ".join(NPB_KERNELS)
        raise KeyError(f"unknown kernel {name!r}; known: {known}") from None
    return fn(letter=letter).require_verified()


def run_suite(letter: str = "S") -> List[KernelOutcome]:
    """Run the Table 3 kernels at one class, all verified."""
    return [run_kernel(name, letter) for name in TABLE3_KERNELS]
