"""Guest timing pinned exactly, in tier-1.

Architectural equivalence (``test_engine_equivalence.py``) says every
engine computes the same *state*; nothing there says how long the
modelled hardware took.  ``tests/data/guest_cycles_golden.json`` holds
the cycle counts of 40 random programs under four CMS configurations
and the four port-simulated CPUs, generated on the commit before the
decode-once executor landed.  A change to the executors, the molecule
scheduler or the port model that moves any of them must regenerate the
file on purpose::

    PYTHONPATH=src python tests/test_guest_cycles_golden.py
"""

import json
import re
from pathlib import Path

from repro.cms import CmsConfig, CodeMorphingSoftware
from repro.cpus.catalog import (
    ALPHA_EV56_533,
    ATHLON_MP_1200,
    CMS_42X,
    PENTIUM_III_500,
    POWER3_375,
)
from repro.cpus.portsim import PortSimulator
from repro.isa.randprog import random_program, random_state
from repro.vliw.molecules import NARROW_FORMAT

GOLDEN = Path(__file__).parent / "data" / "guest_cycles_golden.json"
SEEDS = range(40)

CMS_CONFIGS = {
    "default": CmsConfig(),
    "cms_42x": CMS_42X,
    "narrow": CmsConfig(limits=NARROW_FORMAT),
    "eager": CmsConfig(hot_threshold=1),
}
PORT_CPUS = (PENTIUM_III_500, ALPHA_EV56_533, POWER3_375, ATHLON_MP_1200)


def _program(seed):
    # Loops long enough that the default hot threshold (8) translates.
    return random_program(seed, blocks=4, block_len=12, loop_trips=20)


def measure():
    cms = {
        name: [
            CodeMorphingSoftware(config)
            .run(_program(seed), random_state(seed)).cycles
            for seed in SEEDS
        ]
        for name, config in CMS_CONFIGS.items()
    }
    portsim = {
        cpu.name: [
            PortSimulator(
                cpu.table, issue_width=cpu.spec.issue_width,
                window=cpu.window, has_fma=cpu.has_fma,
            ).simulate(_program(seed), random_state(seed)).cycles
            for seed in SEEDS
        ]
        for cpu in PORT_CPUS
    }
    return {"seeds": len(SEEDS), "cms": cms, "portsim": portsim}


def test_guest_cycles_match_golden():
    golden = json.loads(GOLDEN.read_text())
    measured = measure()
    for layer in ("cms", "portsim"):
        for name, cycles in measured[layer].items():
            assert cycles == golden[layer][name], (layer, name)
    assert measured == golden


if __name__ == "__main__":
    # One line per configuration, so a moved cycle count diffs as one row.
    text = json.dumps(measure(), indent=1)
    text = re.sub(r"\[[^\]]*\]", lambda m: " ".join(m.group().split()), text)
    GOLDEN.write_text(text + "\n")
    print(f"wrote {GOLDEN}")
