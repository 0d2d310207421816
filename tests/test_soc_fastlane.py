"""Invalidation and fallback edges of the clean-burst fast lane.

The differential fuzzer (``tests/test_soc_fuzz.py``) sweeps the broad
state space; this file pins the specific hazards the fast lane's
caches must survive: forced faults queued mid-run, supply moves
between YIELDs, self-modifying instruction memory, architectural
rollback, latent corruption, unsupported port wiring, the exact
semantics of the instruction limit, and every way a compiled block can
stop in its middle.

Every test runs the same scenario through a reference platform
(``fast_lane=False``) and a fast-lane platform and requires identical
observable state — the contract is always "bit-exact with the
interpreter", never a hand-computed expectation.
"""

import numpy as np
import pytest

from repro.core.access import ACCESS_CELL_BASED_40NM_TYPICAL
from repro.ecc import SecdedCodec
from repro.soc.assembler import assemble
from repro.soc.cpu import StopReason
from repro.soc.fastlane import FastLaneEngine
from repro.soc.faults import VoltageFaultModel
from repro.soc.memory import FaultyMemory
from repro.soc.platform import Platform, SystemFailure
from repro.soc.ports import CodecPort, RawPort
from repro.soc.profiler import ProfilingPort

_MODEL = ACCESS_CELL_BASED_40NM_TYPICAL
_IM_WORDS = 64
_SP_WORDS = 64


def _build(scheme="raw", vdd=0.55, seed=11, fast_lane=False,
           profile_im=False):
    def faults(width, salt):
        return VoltageFaultModel(
            _MODEL, width, vdd, rng=np.random.default_rng(seed * 2 + salt)
        )

    if scheme == "raw":
        im = FaultyMemory("IM", _IM_WORDS, 32, faults=faults(32, 0))
        sp = FaultyMemory("SP", _SP_WORDS, 32, faults=faults(32, 1))
        im_port, sp_port = RawPort(im), RawPort(sp)
    else:
        codec = SecdedCodec()
        width = codec.code_bits
        im = FaultyMemory("IM", _IM_WORDS, width, faults=faults(width, 0))
        sp = FaultyMemory("SP", _SP_WORDS, width, faults=faults(width, 1))
        im_port = CodecPort(im, codec, auto_scrub=True)
        sp_port = CodecPort(sp, codec, auto_scrub=True)
    if profile_im:
        im_port = ProfilingPort(im_port)
    return Platform(im, im_port, sp, sp_port, fast_lane=fast_lane)


def _pair(**kwargs):
    return _build(fast_lane=False, **kwargs), _build(fast_lane=True, **kwargs)


def _state_tuple(platform):
    s = platform.cpu.state
    return (s.pc, list(s.registers), s.cycles, s.instructions,
            s.taken_branches)


def _assert_same_state(reference, fast):
    assert _state_tuple(fast) == _state_tuple(reference)
    assert fast.im.snapshot() == reference.im.snapshot()
    assert fast.sp.snapshot() == reference.sp.snapshot()
    assert fast.result() == reference.result()


def _assert_same(reference, fast):
    _assert_same_state(reference, fast)
    for mem_f, mem_r in ((fast.im, reference.im), (fast.sp, reference.sp)):
        assert (
            mem_f.faults.rng.bit_generator.state
            == mem_r.faults.rng.bit_generator.state
        )
        assert mem_f.faults.injected_bits == mem_r.faults.injected_bits
        assert mem_f.faults.injected_events == mem_r.faults.injected_events


# A store/compute loop with a yield per iteration: r1 counts down from
# r2's initial value, each iteration stores the counter and yields.
_LOOP = assemble("""
    addi r2, r0, 5
loop:
    sw   r2, r0, 8
    lw   r3, r0, 8
    add  r4, r4, r3
    yield
    addi r2, r2, -1
    bne  r2, r0, loop
    sw   r4, r0, 9
    halt
""")


def _load(platform, words=_LOOP):
    platform.load_program(words)
    platform.load_data([0] * 16)


def _drain(platform, max_instructions=20_000, max_yields=64):
    """Run through YIELDs until HALT (or a bounded yield budget).

    Every call passes the same bounded ``max_instructions`` so that a
    fault-corrupted runaway loop fails fast — and identically — in
    both lanes instead of grinding to the interpreter's default cap.
    """
    for _ in range(max_yields):
        if platform.run_until_stop(max_instructions) is StopReason.HALT:
            return StopReason.HALT
    return StopReason.YIELD


@pytest.mark.parametrize("scheme", ["raw", "secded"])
def test_forced_fault_mid_run(scheme):
    """force_next() queued between YIELDs lands on the same access."""
    reference, fast = _pair(scheme=scheme)
    for platform in (reference, fast):
        _load(platform)
        assert platform.run_until_stop() is StopReason.YIELD
        # Poison the very next SP access and (separately) a later IM
        # fetch: clean_run_length() must report 0 while forced masks
        # are queued so the slow path consumes them faithfully.
        platform.sp.faults.force_next(0b1)          # flips sw data bit 0
        platform.im.faults.force_next(0)            # explicit no-op mask
        _drain(platform)
    _assert_same(reference, fast)
    # The forced SP flip really happened (and, under SECDED, was
    # corrected; raw stores it silently).
    assert fast.sp.faults.injected_events >= 1


@pytest.mark.parametrize("scheme", ["raw", "secded"])
def test_set_vdd_mid_run(scheme):
    """A supply move between YIELDs reshapes both lanes identically."""
    reference, fast = _pair(scheme=scheme, vdd=0.55)
    for platform in (reference, fast):
        _load(platform)
        assert platform.run_until_stop() is StopReason.YIELD
        platform.im.faults.set_vdd(0.32)
        platform.sp.faults.set_vdd(0.32)
        try:
            _drain(platform)
        except SystemFailure:
            pass  # plausible at 0.32 V; both lanes must agree
    _assert_same(reference, fast)


def test_im_self_modification_between_yields():
    """A poke into the IM invalidates the predecoded view."""
    reference, fast = _pair(scheme="raw")
    patch = assemble("addi r2, r0, 0")[0]  # collapse the countdown
    for platform in (reference, fast):
        _load(platform)
        assert platform.run_until_stop() is StopReason.YIELD
        # Overwrite the decrement at word 5 so the loop exits after the
        # next iteration.  The fast lane predecoded this word already;
        # the memory version bump must drop the stale entry.
        platform.im.poke(5, patch)
        _drain(platform)
    _assert_same(reference, fast)
    assert fast.cpu.state.instructions < 5 * 6 + 4


def test_restore_cpu_rollback():
    """Architectural rollback between YIELDs replays identically."""
    reference, fast = _pair(scheme="secded")
    for platform in (reference, fast):
        _load(platform)
        snapshot = platform.snapshot_cpu()
        assert platform.run_until_stop() is StopReason.YIELD
        assert platform.run_until_stop() is StopReason.YIELD
        platform.restore_cpu(snapshot)
        _drain(platform)
    _assert_same(reference, fast)


@pytest.mark.parametrize("auto_scrub", [False, True])
def test_latent_corruption_takes_slow_path(auto_scrub):
    """A corrupted stored word never enters the clean view.

    The slow path corrects it (bumping corrected_words) and, with
    auto_scrub, writes the repaired codeword back; either way the fast
    lane's behaviour matches the interpreter exactly.
    """
    codec = SecdedCodec()
    platforms = []
    for fast_lane in (False, True):
        im = FaultyMemory("IM", _IM_WORDS, codec.code_bits)
        sp = FaultyMemory("SP", _SP_WORDS, codec.code_bits)
        platform = Platform(
            im,
            CodecPort(im, codec, auto_scrub=auto_scrub),
            sp,
            CodecPort(sp, codec, auto_scrub=auto_scrub),
            fast_lane=fast_lane,
        )
        # Two loads of the same address, so a scrubbed word is read
        # clean the second time while an unscrubbed one corrects again.
        _load(platform, assemble(
            "lw r1, r0, 8\nlw r2, r0, 8\nadd r3, r1, r2\nhalt"
        ))
        # Flip one stored bit in the data word at SP address 8 *and*
        # in the IM word at 0 (the first lw) — both must decode
        # through the faithful path and be counted as corrections.
        sp.poke(8, sp.peek(8) ^ 0b100)
        im.poke(0, im.peek(0) ^ 0b100)
        _drain(platform)
        platforms.append(platform)
    reference, fast = platforms
    _assert_same_state(reference, fast)
    assert fast.result().corrected_words >= 2


def test_profiling_port_falls_back_to_interpreter():
    """Unsupported wiring: the engine declines, Cpu.run takes over."""
    platform = _build(profile_im=True, fast_lane=True)
    assert not FastLaneEngine.supports(platform)
    _load(platform)
    _drain(platform)
    assert platform._fast_engine is None
    assert platform.im_port.profile.fetches == (
        platform.cpu.state.instructions
    )
    # And the run still matches a plain reference platform.
    reference = _build(fast_lane=False)
    _load(reference)
    _drain(reference)
    assert _state_tuple(platform) == _state_tuple(reference)


def test_execution_limit_parity():
    """The runaway failure fires at the same instruction, same pc,
    with the same message, in both lanes."""
    words = assemble("addi r1, r1, 1\njal r0, 0")
    failures = []
    for fast_lane in (False, True):
        platform = _build(fast_lane=fast_lane)
        _load(platform, words)
        with pytest.raises(SystemFailure) as excinfo:
            platform.run_until_stop(max_instructions=101)
        failures.append((str(excinfo.value), _state_tuple(platform)))
    assert failures[0] == failures[1]
    assert "runaway" in failures[0][0]


def test_halt_on_limit_instruction_returns():
    """HALT as the limit-th instruction halts — it does not raise."""
    words = assemble("addi r1, r0, 7\nhalt")
    for fast_lane in (False, True):
        platform = _build(fast_lane=fast_lane)
        _load(platform, words)
        assert platform.run_until_stop(max_instructions=2) is (
            StopReason.HALT
        )
        assert platform.cpu.state.instructions == 2


def test_run_rejects_nonpositive_limit():
    platform = _build(fast_lane=True)
    _load(platform)
    with pytest.raises(ValueError):
        platform.run_until_stop(max_instructions=0)


def test_engine_rebuilt_when_wiring_changes():
    """Swapping a port mid-life forces a rebuild, not a stale engine."""
    platform = _build(fast_lane=True)
    _load(platform)
    assert platform.run_until_stop() is StopReason.YIELD
    first = platform._fast_engine
    assert isinstance(first, FastLaneEngine)
    platform.sp_port = RawPort(platform.sp)
    assert platform.run_until_stop() is StopReason.YIELD
    second = platform._fast_engine
    assert second is not first
    assert second.matches(platform)


# ---------------------------------------------------------------------------
# Compiled blocks
# ---------------------------------------------------------------------------
# The loop below compiles into one 47-instruction block that branches
# back to its own start.  Its first pass runs per-opcode (its start
# only becomes a leader once the backward branch has executed); every
# later pass runs inside the generated function.  Each edge below
# makes that block stop somewhere in its middle.
_LOOP_START = 2
_LOOP_LENGTH = 47


def _long_loop(iterations=4, base_step=1, first_base=0):
    body = []
    for i in range(11):
        body += [
            f"lw   r2, r1, {i}",
            "add  r4, r4, r2",
            "xori r5, r4, 0x55",
            f"sw   r5, r1, {32 + i}",
        ]
    return assemble("\n".join([
        f"addi r15, r0, {iterations}",
        f"addi r1, r0, {first_base}",
        "loop:",
        *body,
        f"addi r1, r1, {base_step}",
        "addi r15, r15, -1",
        "bne  r15, r0, loop",
        "yield",
        "halt",
    ]))


def _slow_step_pcs(platform):
    """Record the pc of every slow step the platform's CPU takes."""
    pcs = []
    step = platform.cpu.step

    def recording_step():
        pcs.append(platform.cpu.state.pc)
        return step()

    platform.cpu.step = recording_step
    return pcs


#: The loop's start and the pc after its backward branch.
_LOOP_LEADERS = {_LOOP_START, _LOOP_START + _LOOP_LENGTH}


def _inside_loop_block(pc):
    return _LOOP_START < pc < _LOOP_START + _LOOP_LENGTH


def _drain_or_fail(platform, **kwargs):
    try:
        return _drain(platform, **kwargs)
    except SystemFailure as exc:
        return str(exc)


@pytest.mark.parametrize("scheme", ["raw", "secded"])
@pytest.mark.parametrize("memory,gap", [("im", 2 + 2 * 47 + 20),
                                        ("sp", 2 * 22 + 9)])
def test_fault_budget_ends_mid_block(scheme, memory, gap):
    """The scheduled faulty access lands inside a compiled loop pass:
    the block commits up to it and the slow step takes the fault."""
    reference, fast = _pair(scheme=scheme, vdd=0.35)
    outcomes = []
    for platform in (reference, fast):
        _load(platform, _long_loop())
        # Pin the next fault of one memory to an exact access.
        getattr(platform, memory).faults._gap = gap
        slow = _slow_step_pcs(platform)
        outcomes.append(_drain_or_fail(platform))
    _assert_same(reference, fast)
    assert outcomes[0] == outcomes[1]
    assert any(_inside_loop_block(pc) for pc in slow)
    assert getattr(fast, memory).faults.injected_events >= 1


@pytest.mark.parametrize("auto_scrub", [False, True])
def test_latent_corrupt_word_mid_block(auto_scrub):
    """An LW of a word that does not decode clean stops the block at
    that LW on every pass that reaches it."""
    codec = SecdedCodec()
    platforms = []
    slow = None
    for fast_lane in (False, True):
        im = FaultyMemory("IM", _IM_WORDS, codec.code_bits)
        sp = FaultyMemory("SP", _SP_WORDS, codec.code_bits)
        platform = Platform(
            im, CodecPort(im, codec, auto_scrub=auto_scrub),
            sp, CodecPort(sp, codec, auto_scrub=auto_scrub),
            fast_lane=fast_lane,
        )
        _load(platform, _long_loop())
        # Word 7 is loaded by the 8th LW of passes 1..4 (r1 = 0..3).
        sp.poke(7, sp.peek(7) ^ 0b1000)
        slow = _slow_step_pcs(platform)
        _drain(platform)
        platforms.append(platform)
    reference, fast = platforms
    _assert_same_state(reference, fast)
    assert fast.result().corrected_words >= 1
    assert any(_inside_loop_block(pc) for pc in slow)
    # Blocks are compiled at leaders only, never at a resume point.
    assert set(fast._fast_engine._blocks) <= _LOOP_LEADERS


@pytest.mark.parametrize("first_base,base_step,fault_engines", [
    # r1 = 0, 20, 40: pass 3 stores at 40 + 32 = 72, mid-pass.
    (0, 20, True),
    # The same without fault engines: no SP budget draws at all.
    (0, 20, False),
    # r1 = 21, 10, -1: pass 3 loads from -1, its first instruction,
    # on the second pass of one block call.
    (21, -11, True),
])
def test_out_of_range_address_mid_block(first_base, base_step,
                                        fault_engines):
    """An address that leaves the scratchpad on a later pass stops the
    block there; both lanes fail the same wild access."""
    platforms = []
    for fast_lane in (False, True):
        if fault_engines:
            platform = _build(scheme="secded", fast_lane=fast_lane)
        else:
            im = FaultyMemory("IM", _IM_WORDS, 32)
            sp = FaultyMemory("SP", _SP_WORDS, 32)
            platform = Platform(im, RawPort(im), sp, RawPort(sp),
                                fast_lane=fast_lane)
        _load(platform, _long_loop(iterations=5, base_step=base_step,
                                   first_base=first_base))
        slow = _slow_step_pcs(platform)
        with pytest.raises(SystemFailure) as excinfo:
            _drain(platform)
        platforms.append((platform, str(excinfo.value)))
    (reference, ref_failure), (fast, fast_failure) = platforms
    assert fast_failure == ref_failure
    assert "wild-access" in fast_failure
    _assert_same_state(reference, fast)
    assert any(_inside_loop_block(pc) or pc == _LOOP_START for pc in slow)
    assert set(fast._fast_engine._blocks) <= _LOOP_LEADERS


@pytest.mark.parametrize("limit", [
    2 + 47 + 10,          # first compiled pass cannot be entered
    2 + 2 * 47 + 30,      # a later pass is cut short
    2 + 3 * 47,           # limit on a pass boundary
    2 + 3 * 47 + 1,
])
def test_instruction_limit_mid_block(limit):
    """The runaway limit fires at the same instruction and pc whether
    it lands inside a block, on its boundary or inside a loop pass."""
    failures = []
    for fast_lane in (False, True):
        platform = _build(scheme="secded", fast_lane=fast_lane)
        _load(platform, _long_loop(iterations=6))
        with pytest.raises(SystemFailure) as excinfo:
            platform.run_until_stop(max_instructions=limit)
        failures.append((str(excinfo.value), _state_tuple(platform)))
    assert failures[0] == failures[1]
    assert failures[0][1][3] == limit


def test_im_rewrite_between_yields_recompiles():
    """Rewriting a word inside a compiled block between YIELDs drops
    the block; the next pass runs the new instruction."""
    words = assemble("\n".join([
        "addi r15, r0, 3",
        "loop:",
        *[f"addi r{1 + i % 6}, r{1 + i % 6}, {i + 1}" for i in range(40)],
        "yield",
        "addi r15, r15, -1",
        "bne  r15, r0, loop",
        "halt",
    ]))
    patch = assemble("addi r3, r3, 1000")[0]
    reference, fast = _pair(scheme="raw")
    for platform in (reference, fast):
        _load(platform, words)
        assert platform.run_until_stop() is StopReason.YIELD
        assert platform.run_until_stop() is StopReason.YIELD
        # The pass-2 block at `loop` is compiled; rewrite its 21st word.
        platform.im.poke(1 + 20, patch)
        _drain(platform)
    assert 1 in fast._fast_engine._blocks
    _assert_same(reference, fast)


@pytest.mark.parametrize("sampling_before", [False, True])
def test_store_sampling_switch_between_yields(sampling_before):
    """Whether stores draw from the SP fault budget is baked into a
    block; switching ``fault_on_write`` between YIELDs must not run
    the stale block (one that skips the store budget check would
    commit stores past the scheduled fault)."""
    body = []
    for i in range(10):
        body += [f"lw r2, r0, {i}", f"sw r2, r0, {20 + i}"]
    words = assemble("\n".join([
        "addi r15, r0, 4", "loop:", *body, "yield",
        "addi r15, r15, -1", "bne r15, r0, loop", "halt",
    ]))
    reference, fast = _pair(scheme="secded", vdd=0.35)
    for platform in (reference, fast):
        _load(platform, words)
        platform.sp.fault_on_write = sampling_before
        assert platform.run_until_stop() is StopReason.YIELD
        assert platform.run_until_stop() is StopReason.YIELD
        platform.sp.fault_on_write = not sampling_before
        # The next SP fault lands on the 13th sampled access from here.
        platform.sp.faults._gap = 12
        _drain_or_fail(platform)
    assert 1 in fast._fast_engine._blocks
    _assert_same(reference, fast)
    assert fast.sp.faults.injected_events == 1


def test_restore_cpu_resumes_mid_block():
    """An architectural rollback to a pc inside a compiled block runs
    on per-opcode from there, exactly like the interpreter."""
    reference, fast = _pair(scheme="secded")
    for platform in (reference, fast):
        _load(platform, _long_loop(iterations=3))
        assert platform.run_until_stop() is StopReason.YIELD
        snapshot = platform.snapshot_cpu()
        # OCEAN restores whatever pc its checkpoint holds; resume in
        # the middle of the compiled loop body with one pass to go.
        snapshot.pc = _LOOP_START + 17
        snapshot.registers[15] = 1
        platform.restore_cpu(snapshot)
        _drain(platform)
    assert _LOOP_START in fast._fast_engine._blocks
    _assert_same(reference, fast)


def test_block_control_flow_matches_interpreter():
    """Block exits through jalr (link register = base register),
    signed branches and jal, on compiled passes."""
    words = assemble("""
        addi r1, r0, 3
        lui  r2, -524288        ; r2 = 0x80000000, negative
        addi r6, r0, 0
    loop:
        addi r5, r0, 8
        jalr r5, r5, 0          ; target from the old r5, then link
        addi r6, r6, 100
        addi r6, r6, 100
        addi r6, r6, 100
        blt  r2, r0, 2          ; taken only under a signed compare
        addi r6, r6, 1000
        bge  r0, r2, 2
        addi r6, r6, 4000
        jal  r7, 2
        addi r6, r6, 7
        addi r1, r1, -1
        bne  r1, r0, loop
        halt
    """)
    reference, fast = _pair()
    for platform in (reference, fast):
        _load(platform, words)
        assert _drain(platform) is StopReason.HALT
    _assert_same(reference, fast)
    assert fast.cpu.state.registers[6] == 0
    assert {3, 8, 10, 12, 14} <= set(fast._fast_engine._blocks)


def test_code_cache_cap_holds_under_corrupted_variants():
    """More distinct blocks than the cache holds: the oldest are
    evicted, the cap holds, and every variant stays bit-exact."""
    from repro.soc import fastlane

    words = _long_loop(iterations=2)
    first_key = None
    for variant in range(fastlane.CODE_CACHE_LIMIT + 8):
        reference, fast = _pair(scheme="raw")
        for platform in (reference, fast):
            _load(platform, words)
            # Corrupt the immediate of the loop's `xori` (word 4) into
            # a distinct value: a new block at the same leader.
            platform.im.poke(4, words[4] ^ (variant << 1))
            _drain(platform)
        _assert_same(reference, fast)
        assert len(fastlane._CODE_CACHE) <= fastlane.CODE_CACHE_LIMIT
        if first_key is None:
            first_key = next(
                key for key in fastlane._CODE_CACHE
                if key[0] == _LOOP_START and key[1][2][4] == 0x55
            )
    assert first_key not in fastlane._CODE_CACHE


def test_code_cache_shared_by_threads():
    """Worker threads (as in ``repro serve``) compile and evict in the
    one process-wide code cache at once: the cap holds and every run
    stays bit-exact with its interpreter run."""
    import sys
    import threading

    from repro.soc import fastlane

    words = _long_loop(iterations=2)
    variants = range(fastlane.CODE_CACHE_LIMIT + 32)  # forces eviction

    def final_state(variant, fast_lane):
        platform = _build(fast_lane=fast_lane)
        _load(platform, words)
        platform.im.poke(4, words[4] ^ (variant << 1))
        _drain(platform)
        return _state_tuple(platform), platform.sp.snapshot()

    expected = {v: final_state(v, False) for v in variants}
    results, errors = {}, []

    def worker(offset):
        try:
            # Each thread walks the variants from a different start.
            for step in range(len(variants)):
                variant = (offset * 17 + step) % len(variants)
                results[(offset, variant)] = final_state(variant, True)
                assert len(fastlane._CODE_CACHE) <= fastlane.CODE_CACHE_LIMIT
        except Exception as exc:  # reported below, in the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(offset,))
            for offset in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(results) == 4 * len(variants)
    for (_, variant), state in results.items():
        assert state == expected[variant]
