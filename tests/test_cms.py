"""Code Morphing Software: interpreter, translator, cache, orchestrator."""

import os
import subprocess
import sys

import pytest

from repro.cms import CmsConfig, CodeMorphingSoftware
from repro.cms.tcache import TranslationCache
from repro.cms.translator import Translation
from repro.isa import programs
from repro.isa.assembler import assemble
from repro.isa.instructions import Program
from repro.isa.machine import GuestFault, run_program
from repro.isa.randprog import random_program, random_state
from repro.vliw.engine import translate_block


def test_config_validation():
    with pytest.raises(ValueError):
        CmsConfig(hot_threshold=0)


def test_cms_matches_golden_on_all_kernels(all_small_workloads):
    for wl in all_small_workloads:
        golden, _ = run_program(wl.program, wl.make_state(), max_steps=10**7)
        cms = CodeMorphingSoftware(CmsConfig(hot_threshold=3))
        result = cms.run(wl.program, wl.make_state(), max_steps=10**7)
        assert (
            result.state.architectural_view() == golden.architectural_view()
        ), wl.name
        assert result.cycles > 0


@pytest.mark.parametrize("threshold", [1, 2, 8, 64, 10_000])
def test_threshold_never_changes_results(threshold, micro_karp):
    golden, _ = run_program(micro_karp.program, micro_karp.make_state())
    cms = CodeMorphingSoftware(CmsConfig(hot_threshold=threshold))
    result = cms.run(micro_karp.program, micro_karp.make_state())
    assert result.state.architectural_view() == golden.architectural_view()


def test_second_program_is_not_timed_with_the_first_ones_translations():
    """Cache, profile and chains are keyed by pc, so they belong to one
    program: a CMS handed another starts cold - it used to return other
    cycle counts, or die on a translation that covers the wrong block."""
    kw = dict(blocks=8, block_len=16, loop_trips=12)
    first = random_program(1, **kw)
    for seed in range(2, 40):
        program = random_program(seed, **kw)
        fresh = CodeMorphingSoftware().run(program, random_state(seed))
        cms = CodeMorphingSoftware()
        earlier = cms.run(first, random_state(1))
        reused = cms.run(program, random_state(seed))
        assert reused.cycles == fresh.cycles, seed
        assert reused.state.architectural_view() == \
            fresh.state.architectural_view()
        assert reused.profile.blocks == fresh.profile.blocks
        assert reused.profile is not earlier.profile


def test_same_program_again_stays_warm():
    """Binding is by identity: re-running the very ``Program`` object
    keeps its translations (an equal copy is another program)."""
    program = random_program(1, blocks=8, block_len=16, loop_trips=12)
    cms = CodeMorphingSoftware()
    cold = cms.run(program, random_state(1))
    warm = cms.run(program, random_state(1))
    assert (cold.cycles, warm.cycles) == (54_486, 3_645)
    assert warm.translated_blocks == cold.translated_blocks   # cumulative
    assert warm.state.architectural_view() == cold.state.architectural_view()
    copy = Program(instrs=program.instrs, name=program.name)
    assert copy == program
    assert cms.run(copy, random_state(1)).cycles == cold.cycles


def test_hot_code_gets_translated(micro_math):
    cms = CodeMorphingSoftware(CmsConfig(hot_threshold=2))
    result = cms.run(micro_math.program, micro_math.make_state())
    assert result.translated_blocks > 0
    assert result.native_blocks > 0
    assert 0.0 < result.native_fraction <= 1.0


def test_pure_interpreter_with_huge_threshold(micro_math):
    cms = CodeMorphingSoftware(CmsConfig(hot_threshold=10**9))
    result = cms.run(micro_math.program, micro_math.make_state())
    assert result.translated_blocks == 0
    assert result.native_blocks == 0
    assert result.native_fraction == 0.0


def test_translation_amortisation(micro_karp):
    """More re-execution -> fewer cycles per guest instruction."""
    heavy = programs.gravity_microkernel_karp(n=32, passes=20)
    light = programs.gravity_microkernel_karp(n=32, passes=1)
    heavy_cms = CodeMorphingSoftware(CmsConfig(hot_threshold=4))
    light_cms = CodeMorphingSoftware(CmsConfig(hot_threshold=4))
    heavy_res = heavy_cms.run(heavy.program, heavy.make_state(),
                              max_steps=10**8)
    light_res = light_cms.run(light.program, light.make_state())
    heavy_cpi = heavy_res.cycles / heavy_res.guest_stats.instructions
    light_cpi = light_res.cycles / light_res.guest_stats.instructions
    assert heavy_cpi < light_cpi


def test_locality_premise(micro_karp):
    """A handful of hot blocks covers nearly all dynamic execution."""
    wl = programs.gravity_microkernel_karp(n=32, passes=10)
    cms = CodeMorphingSoftware(CmsConfig(hot_threshold=10**9))
    result = cms.run(wl.program, wl.make_state(), max_steps=10**8)
    hottest = result.profile.hottest(top=2)
    coverage = result.profile.coverage(
        tuple(b.entry_pc for b in hottest)
    )
    assert coverage > 0.9


# -- translation cache -----------------------------------------------------


def _translation(program, pc=0):
    return Translation(
        block=translate_block(program, pc), translation_cycles=100
    )


def test_tcache_hit_miss_and_lru():
    program = assemble("addi r1, r1, 1\nbnez r1, 0\naddi r2, r2, 1\nhalt")
    cache = TranslationCache(capacity_bytes=10**6)
    assert cache.lookup(0) is None
    t0 = _translation(program, 0)
    cache.insert(t0)
    assert cache.lookup(0) is t0
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1


def test_tcache_eviction_under_pressure():
    program = assemble(
        "\n".join("addi r1, r1, 1" for _ in range(4)) + "\nhalt"
    )
    t = _translation(program, 0)
    size = t.block.code_bytes
    cache = TranslationCache(capacity_bytes=size)   # room for exactly one
    cache.insert(t)
    t2 = Translation(block=translate_block(program, 1), translation_cycles=1)
    cache.insert(t2)
    assert cache.stats.evictions == 1
    assert cache.lookup(t.block.entry_pc) is None
    assert cache.lookup(t2.block.entry_pc) is t2


def test_tcache_oversized_translation_not_cached():
    program = assemble(
        "\n".join("addi r1, r1, 1" for _ in range(8)) + "\nhalt"
    )
    cache = TranslationCache(capacity_bytes=4)
    cache.insert(_translation(program, 0))
    assert len(cache) == 0


def test_tcache_flush():
    program = assemble("addi r1, r1, 1\nhalt")
    cache = TranslationCache()
    cache.insert(_translation(program))
    cache.flush()
    assert len(cache) == 0
    assert cache.used_bytes == 0


def test_small_tcache_still_correct(micro_karp):
    """Thrashing the cache costs cycles, never correctness."""
    golden, _ = run_program(micro_karp.program, micro_karp.make_state())
    cms = CodeMorphingSoftware(
        CmsConfig(hot_threshold=1, tcache_bytes=64)
    )
    result = cms.run(micro_karp.program, micro_karp.make_state())
    assert result.state.architectural_view() == golden.architectural_view()


_RUNS_OFF_ITS_END = """
from repro.cms import CmsConfig, CodeMorphingSoftware
from repro.isa.assembler import assemble
from repro.isa.machine import GuestFault

program = assemble("li r1, 5\\naddi r1, r1, 1")
cms = CodeMorphingSoftware(CmsConfig(hot_threshold=1))
# The first run interprets the block (and translates it), the second
# enters it through the translation cache: both must fault.
for route in ("interpreted", "translated"):
    try:
        cms.run(program, max_steps=1000)
    except GuestFault as fault:
        print(route, fault)
"""


def test_guest_running_off_its_end_faults_instead_of_hanging():
    """Hostile input fails loudly: the golden model's fault, never a hang.

    Runs in a child process so that a regression is a timeout, not a
    test session that never ends.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", _RUNS_OFF_ITS_END],
        capture_output=True, text=True, timeout=20, env=env,
    )
    assert done.returncode == 0, done.stderr
    message = "pc 2 outside program <asm>"
    assert done.stdout.splitlines() == [
        f"interpreted {message}", f"translated {message}",
    ]
    with pytest.raises(GuestFault, match=message):
        run_program(assemble("li r1, 5\naddi r1, r1, 1"))
