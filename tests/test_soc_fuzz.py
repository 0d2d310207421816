"""Differential fuzzing of the NTC32 CPU.

Hypothesis generates random straight-line ALU programs; an independent
golden interpreter (written directly against the ISA spec, sharing no
code with :mod:`repro.soc.cpu`) predicts the architectural state, and
both must agree register for register.  This is the test that keeps
the FFT's correctness proofs honest: if the CPU and the golden model
ever disagree, one of them misreads the spec.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.access import ACCESS_CELL_BASED_40NM_TYPICAL
from repro.ecc import BchCodec, SecdedCodec
from repro.soc.assembler import assemble
from repro.soc.cpu import Cpu, StopReason
from repro.soc.faults import VoltageFaultModel
from repro.soc.isa import Opcode
from repro.soc.memory import FaultyMemory
from repro.soc.platform import DetectedError, Platform, SystemFailure
from repro.soc.ports import CodecPort, DetectOnlyCodec, RawPort

_MASK32 = 0xFFFFFFFF

_R_OPS = ["add", "sub", "and", "or", "xor", "sll", "srl", "sra", "slt",
          "mul", "mulh"]
_I_OPS = ["addi", "andi", "ori", "xori", "slli", "srli", "srai", "slti"]


def _signed(value):
    return value - (1 << 32) if value & 0x80000000 else value


def _golden_r(op, b, c):
    """Golden semantics of R-type ops on 32-bit unsigned patterns."""
    if op == "add":
        return (b + c) & _MASK32
    if op == "sub":
        return (b - c) & _MASK32
    if op == "and":
        return b & c
    if op == "or":
        return b | c
    if op == "xor":
        return b ^ c
    if op == "sll":
        return (b << (c & 31)) & _MASK32
    if op == "srl":
        return b >> (c & 31)
    if op == "sra":
        return (_signed(b) >> (c & 31)) & _MASK32
    if op == "slt":
        return int(_signed(b) < _signed(c))
    if op == "mul":
        return (_signed(b) * _signed(c)) & _MASK32
    if op == "mulh":
        return ((_signed(b) * _signed(c)) >> 32) & _MASK32
    raise AssertionError(op)


def _golden_i(op, b, imm):
    if op == "addi":
        return (b + imm) & _MASK32
    # Logical immediates are sign-extended (RISC-V convention), so a
    # negative imm applies as its full 32-bit two's-complement pattern.
    if op == "andi":
        return b & (imm & _MASK32)
    if op == "ori":
        return b | (imm & _MASK32)
    if op == "xori":
        return b ^ (imm & _MASK32)
    if op == "slli":
        return (b << (imm & 31)) & _MASK32
    if op == "srli":
        return b >> (imm & 31)
    if op == "srai":
        return (_signed(b) >> (imm & 31)) & _MASK32
    if op == "slti":
        return int(_signed(b) < imm)
    raise AssertionError(op)


def _golden_run(instructions, seed_regs):
    regs = list(seed_regs)
    for kind, payload in instructions:
        if kind == "r":
            op, a, b, c = payload
            result = _golden_r(op, regs[b], regs[c])
        elif kind == "i":
            op, a, b, imm = payload
            result = _golden_i(op, regs[b], imm)
        else:  # lui
            a, imm = payload
            result = (imm << 12) & _MASK32
        if a != 0:
            regs[a] = result
    return regs


@st.composite
def alu_programs(draw):
    """Random straight-line programs plus seed register values."""
    seed_regs = [0] + [
        draw(st.integers(0, _MASK32)) for _ in range(15)
    ]
    length = draw(st.integers(min_value=1, max_value=25))
    instructions = []
    for _ in range(length):
        kind = draw(st.sampled_from(["r", "i", "lui"]))
        a = draw(st.integers(0, 15))
        if kind == "r":
            op = draw(st.sampled_from(_R_OPS))
            b = draw(st.integers(0, 15))
            c = draw(st.integers(0, 15))
            instructions.append(("r", (op, a, b, c)))
        elif kind == "i":
            op = draw(st.sampled_from(_I_OPS))
            b = draw(st.integers(0, 15))
            imm = draw(st.integers(-(1 << 13), (1 << 13) - 1))
            if op in ("slli", "srli", "srai"):
                imm = draw(st.integers(0, 31))
            instructions.append(("i", (op, a, b, imm)))
        else:
            imm = draw(st.integers(0, (1 << 21) - 1))
            instructions.append(("lui", (a, imm)))
    return instructions, seed_regs


def _to_source(instructions):
    lines = []
    for kind, payload in instructions:
        if kind == "r":
            op, a, b, c = payload
            lines.append(f"{op} r{a}, r{b}, r{c}")
        elif kind == "i":
            op, a, b, imm = payload
            lines.append(f"{op} r{a}, r{b}, {imm}")
        else:
            a, imm = payload
            lines.append(f"lui r{a}, {imm}")
    lines.append("halt")
    return "\n".join(lines)


@given(program=alu_programs())
@settings(max_examples=300, deadline=None)
def test_cpu_matches_golden_model(program):
    instructions, seed_regs = program
    words = assemble(_to_source(instructions))
    memory = FaultyMemory("IM", max(len(words), 1), 32)
    memory.load(words)
    cpu = Cpu(
        fetch=memory.peek,
        load=lambda a: 0,
        store=lambda a, v: None,
    )
    cpu.state.registers = list(seed_regs)
    cpu.run(max_instructions=1000)
    expected = _golden_run(instructions, seed_regs)
    assert cpu.state.registers == expected


@given(program=alu_programs())
@settings(max_examples=100, deadline=None)
def test_r0_never_written(program):
    instructions, seed_regs = program
    seed_regs = [0] + seed_regs[1:]
    words = assemble(_to_source(instructions))
    memory = FaultyMemory("IM", max(len(words), 1), 32)
    memory.load(words)
    cpu = Cpu(fetch=memory.peek, load=lambda a: 0, store=lambda a, v: None)
    cpu.state.registers = list(seed_regs)
    cpu.run(max_instructions=1000)
    assert cpu.state.registers[0] == 0


def test_every_alu_opcode_covered_by_fuzz_tables():
    """The fuzz op tables must cover the full R/I ALU opcode sets."""
    from repro.soc.isa import I_TYPE, R_TYPE

    assert {op.name.lower() for op in R_TYPE} == set(_R_OPS)
    assert {op.name.lower() for op in I_TYPE} == set(_I_OPS)


def test_golden_tables_reject_unknown():
    import pytest

    with pytest.raises(AssertionError):
        _golden_r("nand", 1, 2)
    with pytest.raises(AssertionError):
        _golden_i("subi", 1, 2)


def test_opcode_enum_is_stable():
    """Binary compatibility: programs assembled today must decode the
    same tomorrow; pin the opcode numbering."""
    assert Opcode.ADD == 0x01
    assert Opcode.LW == 0x20
    assert Opcode.BEQ == 0x30
    assert Opcode.HALT == 0x3E
    assert Opcode.YIELD == 0x3F


# ---------------------------------------------------------------------------
# Differential fuzzing of the clean-burst fast lane
# ---------------------------------------------------------------------------
# The fast lane (repro.soc.fastlane) promises bit-exactness with the
# reference interpreter: same architectural state, same memory images,
# same counters, same fault statistics, and — the strongest claim —
# the same RNG stream consumption, so every later fault lands on the
# same access in both worlds.  Hypothesis generates random programs
# (ALU, loads/stores, branches, yields) and random supply voltages;
# the same platform is built twice with identically seeded fault
# engines, run once per lane, and fingerprinted.

_IM_WORDS = 64
_SP_WORDS = 64
_BRANCH_OPS = ["beq", "bne", "blt", "bge"]


@st.composite
def soc_programs(draw):
    """Random programs with memory traffic and control flow.

    Register seeds are biased toward small values so loads and stores
    mostly hit the scratchpad, with full-range outliers to exercise
    wild-access parity.  Branch offsets are mostly forward; runaway
    loops are fine — both lanes must then agree on the runaway
    failure, instruction for instruction.
    """
    seed_regs = [0] + [
        draw(
            st.one_of(
                st.integers(0, _SP_WORDS - 1),
                st.integers(0, _MASK32),
            )
        )
        for _ in range(15)
    ]
    length = draw(st.integers(min_value=1, max_value=20))
    lines = []
    for _ in range(length):
        kind = draw(
            st.sampled_from(
                ["r", "i", "lui", "lw", "sw", "branch", "yield"]
            )
        )
        a = draw(st.integers(0, 15))
        b = draw(st.integers(0, 15))
        if kind == "r":
            op = draw(st.sampled_from(_R_OPS))
            c = draw(st.integers(0, 15))
            lines.append(f"{op} r{a}, r{b}, r{c}")
        elif kind == "i":
            op = draw(st.sampled_from(_I_OPS))
            imm = draw(st.integers(-(1 << 13), (1 << 13) - 1))
            if op in ("slli", "srli", "srai"):
                imm = draw(st.integers(0, 31))
            lines.append(f"{op} r{a}, r{b}, {imm}")
        elif kind == "lui":
            lines.append(f"lui r{a}, {draw(st.integers(0, (1 << 21) - 1))}")
        elif kind == "lw":
            base = draw(st.sampled_from([0, b]))
            imm = draw(st.integers(0, _SP_WORDS - 1))
            lines.append(f"lw r{a}, r{base}, {imm}")
        elif kind == "sw":
            base = draw(st.sampled_from([0, b]))
            imm = draw(st.integers(0, _SP_WORDS - 1))
            lines.append(f"sw r{a}, r{base}, {imm}")
        elif kind == "branch":
            op = draw(st.sampled_from(_BRANCH_OPS))
            offset = draw(st.integers(-2, 3))
            lines.append(f"{op} r{a}, r{b}, {offset}")
        else:
            lines.append("yield")
    lines.append("halt")
    data = [draw(st.integers(0, _MASK32)) for _ in range(8)]
    return "\n".join(lines), seed_regs, data


def _build_soc(scheme, vdd, seed, fast_lane):
    """One platform; fault engines seeded deterministically per memory."""
    model = ACCESS_CELL_BASED_40NM_TYPICAL

    def faults(width, salt):
        return VoltageFaultModel(
            model, width, vdd, rng=np.random.default_rng(seed * 2 + salt)
        )

    if scheme == "raw":
        im = FaultyMemory("IM", _IM_WORDS, 32, faults=faults(32, 0))
        sp = FaultyMemory("SP", _SP_WORDS, 32, faults=faults(32, 1))
        im_port, sp_port = RawPort(im), RawPort(sp)
    else:
        # "dected" wires the BCH t=2 ports exactly as DectedRunner does
        # (CodecPort raises on a detected error by default).
        if scheme == "dected":
            codec = BchCodec(data_bits=32, t=2)
        else:
            codec = SecdedCodec()
        if scheme == "detect":
            codec = DetectOnlyCodec(codec)
        width = codec.code_bits
        im = FaultyMemory("IM", _IM_WORDS, width, faults=faults(width, 0))
        sp = FaultyMemory("SP", _SP_WORDS, width, faults=faults(width, 1))
        scrub = scheme in ("secded", "dected")
        im_port = CodecPort(im, codec, auto_scrub=scrub)
        sp_port = CodecPort(sp, codec, auto_scrub=scrub)
    return Platform(im, im_port, sp, sp_port, fast_lane=fast_lane)


def _run_soc(platform, source, seed_regs, data, max_instructions=300):
    """Run to completion/failure; return a comparable outcome trace."""
    platform.load_program(assemble(source))
    platform.load_data(data)
    platform.cpu.state.registers = list(seed_regs)
    outcome = []
    try:
        for _ in range(6):  # bounded number of YIELD resumptions
            reason = platform.run_until_stop(max_instructions)
            outcome.append(reason.name)
            if reason is StopReason.HALT:
                break
    except SystemFailure as exc:
        outcome.append(("SystemFailure", exc.kind, str(exc)))
    except DetectedError as exc:
        outcome.append(("DetectedError", exc.module, exc.address))
    return outcome


def _fingerprint(platform):
    """Everything the bit-exactness contract covers, in one dict."""
    state = platform.cpu.state
    fp = {
        "pc": state.pc,
        "registers": list(state.registers),
        "cycles": state.cycles,
        "instructions": state.instructions,
        "taken_branches": state.taken_branches,
        "im_data": platform.im.snapshot(),
        "sp_data": platform.sp.snapshot(),
    }
    for name, mem, port in (
        ("im", platform.im, platform.im_port),
        ("sp", platform.sp, platform.sp_port),
    ):
        fp[f"{name}_counters"] = (mem.counters.reads, mem.counters.writes)
        fp[f"{name}_injected"] = (
            mem.faults.injected_bits,
            mem.faults.injected_events,
        )
        fp[f"{name}_rng"] = mem.faults.rng.bit_generator.state
        if hasattr(port, "stats"):
            stats = port.stats
            fp[f"{name}_stats"] = (
                stats.reads,
                stats.writes,
                stats.corrected_words,
                stats.detected_words,
            )
    return fp


@st.composite
def soc_scenarios(draw):
    program = draw(soc_programs())
    vdd = draw(st.sampled_from([0.55, 0.45, 0.40, 0.35, 0.30]))
    scheme = draw(st.sampled_from(["raw", "secded", "detect", "dected"]))
    seed = draw(st.integers(0, 1 << 16))
    return program, vdd, scheme, seed


@given(scenario=soc_scenarios())
@settings(max_examples=120, deadline=None)
def test_fast_lane_is_bit_exact(scenario):
    (source, seed_regs, data), vdd, scheme, seed = scenario
    reference = _build_soc(scheme, vdd, seed, fast_lane=False)
    fast = _build_soc(scheme, vdd, seed, fast_lane=True)
    ref_outcome = _run_soc(reference, source, seed_regs, data)
    fast_outcome = _run_soc(fast, source, seed_regs, data)
    assert fast_outcome == ref_outcome
    assert _fingerprint(fast) == _fingerprint(reference)
    # SimulationResult is derived from the fingerprint, but it is the
    # object every experiment consumes — pin it directly too.
    assert fast.result() == reference.result()


@given(scenario=soc_scenarios())
@settings(max_examples=25, deadline=None)
def test_fast_lane_bit_exact_with_profiling(scenario):
    """Profiling on must be bit-exactness-neutral on both engines.

    Outcomes, architectural fingerprints (including fault statistics
    and RNG bit-generator positions) must match the unprofiled runs
    exactly, while the ``profile.*`` instruments actually populate.
    """
    from repro.obs import MetricsRegistry, names, scoped_metrics
    from repro.obs.profile import scoped_profiling

    (source, seed_regs, data), vdd, scheme, seed = scenario
    reference = _build_soc(scheme, vdd, seed, fast_lane=False)
    fast = _build_soc(scheme, vdd, seed, fast_lane=True)
    ref_outcome = _run_soc(reference, source, seed_regs, data)
    fast_outcome = _run_soc(fast, source, seed_regs, data)

    prof_reference = _build_soc(scheme, vdd, seed, fast_lane=False)
    prof_fast = _build_soc(scheme, vdd, seed, fast_lane=True)
    registry = MetricsRegistry()
    with scoped_metrics(registry), scoped_profiling():
        prof_ref_outcome = _run_soc(
            prof_reference, source, seed_regs, data
        )
        prof_fast_outcome = _run_soc(prof_fast, source, seed_regs, data)

    assert prof_ref_outcome == ref_outcome
    assert prof_fast_outcome == fast_outcome
    assert _fingerprint(prof_reference) == _fingerprint(reference)
    assert _fingerprint(prof_fast) == _fingerprint(fast)
    assert prof_fast.result() == fast.result()

    snapshot = registry.snapshot()
    # The scalar reference is pure slow path, and its every
    # instruction lands in the opcode mix.
    assert snapshot.counters[names.PROFILE_SLOW_INSTRUCTIONS] > 0
    assert sum(snapshot.histograms[names.PROFILE_OPCODE].values()) > 0
    if prof_fast._fast_engine is not None:
        assert snapshot.counters[names.PROFILE_BURSTS] > 0
        assert names.PROFILE_BURST_LENGTH in snapshot.histograms
