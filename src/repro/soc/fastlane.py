"""Fault-free fast lane: clean-burst execution for the platform.

At the voltages the paper studies, the overwhelming majority of memory
accesses are fault-free, and a fault-free ECC read is the identity — so
the faithful per-access machinery (port call, codec decode, mask
sampling, stats) only *needs* to run when a fault is actually
scheduled.  The fault engine already samples the geometric gap to the
next faulty access; :class:`FastLaneEngine` borrows that gap as an
execution *budget* and runs the CPU against cached plain-word views of
the instruction memory and scratchpad for exactly that many accesses,
falling back to the reference interpreter step at the scheduled faulty
access (or at any word it cannot prove clean).

Bit-exactness contract (checked by the differential fuzzer in
``tests/test_soc_fuzz.py``):

* **RNG streams.**  The only RNG draws the fault engine makes are the
  lazy gap draw and the per-faulty-access draws.  The fast lane reads
  the gap via ``clean_run_length()`` — the same lazy draw
  ``sample_mask`` would have made on the next access — and settles the
  fault-free decrements in bulk via ``consume_clean``.  Gap draws only
  happen when an access is genuinely about to occur, so the stream is
  positionally identical to per-access sampling.
* **Counters.**  Burst accesses are settled through the ports'
  ``account_clean_*`` hooks, which bump exactly the counters the
  per-access path would have bumped (memory access counters, wrapper
  read/write stats).  Corrected/detected counters never move in a
  burst because a burst only ever touches words that decode CLEAN.
* **Faithful slow path.**  Anything the burst cannot handle — the
  budgeted access where the fault lands, a stored word that does not
  decode CLEAN (latent corruption), a forced mask, an out-of-range
  address, an illegal instruction — is *not* partially executed: the
  burst stops before committing any state and the instruction replays
  wholly through ``Cpu.step`` against the real ports, reproducing
  stats, scrubbing, telemetry and exceptions exactly.
* **Stores.**  Burst stores land in a dirty plain-word buffer and are
  encoded and written back (fault-free, as budgeted) before anything
  can observe the memory: before every slow step, stop, or raise.

Cache invalidation keys off :attr:`FaultyMemory.version`, which bumps
on every content mutation (stores, destructive read upsets, scrubs,
back-door pokes/loads/restores, DMA): a version mismatch at burst
entry drops the whole cached view, so external mutation — OCEAN
rollback traffic, ``force_next``, ``set_vdd``, self-modifying tests —
can never be observed stale.

Compiled blocks.  Loop bodies dominate the paper's streaming FFT, so
each straight-line basic block of the IM view is compiled once into a
generated Python function (:func:`compiled_block`) that inlines its ALU
operations, keeps registers in locals, performs the same clean-view
checks as the per-opcode loop at every load and store, and ends with
its branch or jump (a block that branches back to its own start
repeats in place while the budgets cover a whole pass).  A burst enters a block only at a *leader* — the
pc a control transfer or a block exit lands on — and only when the
fault and instruction budgets cover the whole block; otherwise the
per-opcode loop runs, and it stays the only fallback.  A block that
meets an access it cannot commit stops *before* that instruction, so
the faithful slow step replays it exactly as before.  Blocks are kept
per engine and dropped with the IM view; the generated functions live
in one process-wide cache of at most :data:`CODE_CACHE_LIMIT` entries.
The scalar :class:`Cpu` stays the oracle: the differential fuzzers
compare both engines instruction for instruction.
"""

from __future__ import annotations

import re
import threading

import numpy as np

from repro.ecc.base import DecodeStatus
from repro.obs.profile import active_profiler
from repro.soc.cpu import (
    MEM_LOAD,
    MEM_STORE,
    OPCODE_NAMES,
    Cpu,
    ExecutionLimitExceeded,
    StopReason,
    predecode,
)
from repro.soc.isa import IllegalInstruction, Opcode
from repro.soc.ports import CodecPort, RawPort

_MASK32 = 0xFFFFFFFF

#: IM-view marker for addresses whose stored word cannot be executed
#: from the fast lane (non-CLEAN decode or illegal instruction): every
#: fetch of such an address takes the faithful slow path.
_BLOCKED: tuple = ()

#: SP-view marker with the same meaning (plain values are >= 0).
_SP_BLOCKED = -1

#: Dirty-store write-back switches to the vectorized codec path above
#: this many distinct addresses.
_BATCH_FLUSH_THRESHOLD = 16

#: Fault budget standing in for "no fault engine attached".
_UNBOUNDED = 1 << 62

#: Opcodes from here up end a basic block (branches, jumps, HALT/YIELD).
_FIRST_CONTROL = int(Opcode.BEQ)

#: Longest straight-line run compiled into one block function.
_BLOCK_MAX = 64

#: Most generated block functions kept process-wide (oldest evicted
#: first).  One FFT program needs a few dozen, a fault campaign over
#: three schemes with corrupted-IM variants about 75 (~0.5 MB); a
#: variant evicted past the cap only costs a recompile.
CODE_CACHE_LIMIT = 128

#: Marker for "no block lookup made yet at this pc".
_UNSEEN = object()


def _unbounded() -> int:
    return _UNBOUNDED


class FastLaneEngine:
    """Clean-burst executor bound to one :class:`Platform`.

    Build via :meth:`try_build`; ``None`` means the platform's ports
    are not the stock ``RawPort``/``CodecPort`` pair (e.g. a
    ``ProfilingPort`` observes every fetch) and the caller should use
    ``Cpu.run`` unchanged.
    """

    def __init__(self, platform) -> None:
        self._platform = platform
        self._cpu: Cpu = platform.cpu
        self._im = platform.im
        self._sp = platform.sp
        self._im_port = platform.im_port
        self._sp_port = platform.sp_port
        self._im_codec = platform.im_port.codec
        self._sp_codec = platform.sp_port.codec
        self._im_entries: list = [None] * self._im.words
        self._sp_values: list = [None] * self._sp.words
        # Forced stale so the first burst syncs against the memories.
        self._im_version = -1
        self._sp_version = -1
        self._dirty: set = set()
        #: Leader pc -> ``(block function, length)`` or None, for the
        #: current IM view and store-sampling mode.
        self._blocks: dict = {}
        self._samples_writes = False

    # ------------------------------------------------------------------
    # Construction / applicability
    # ------------------------------------------------------------------
    @staticmethod
    def supports(platform) -> bool:
        """Whether the platform's ports have fast-lane semantics.

        Only the stock port types qualify: any wrapper (profiler,
        custom instrumentation) observes per-access traffic that a
        burst would hide, so the engine declines and execution stays
        on the reference interpreter.
        """
        for port in (platform.im_port, platform.sp_port):
            if type(port) is RawPort:
                continue
            if type(port) is CodecPort and port.codec.data_bits == 32:
                continue
            return False
        return True

    @classmethod
    def try_build(cls, platform):
        """Return an engine for ``platform``, or None if unsupported."""
        if not cls.supports(platform):
            return None
        return cls(platform)

    def matches(self, platform) -> bool:
        """Whether this engine still reflects the platform's wiring."""
        return (
            self._cpu is platform.cpu
            and self._im_port is platform.im_port
            and self._sp_port is platform.sp_port
        )

    # ------------------------------------------------------------------
    # Execution (drop-in for Cpu.run)
    # ------------------------------------------------------------------
    def run(self, max_instructions: int = 50_000_000) -> StopReason:
        """Run until HALT/YIELD, alternating bursts and slow steps.

        Raises exactly what :meth:`Cpu.run` would: every blocked
        instruction replays through ``Cpu.step`` with all accounting
        settled first, so exceptions carry identical messages and the
        platform sees identical counter/RNG state.

        With a live profiler the same loop also counts the bursts'
        straight-line segments; the opcode mix is derived from them and
        the static predecode when the run ends (see
        :meth:`_publish_opcode_mix`).
        """
        if max_instructions <= 0:
            raise ValueError("max_instructions must be positive")
        state = self._cpu.state
        executed_limit = state.instructions + max_instructions
        profiler = active_profiler()
        segments = {} if profiler.enabled else None
        try:
            while True:
                stop = self._burst(executed_limit, max_instructions, segments)
                if stop is not None:
                    return stop
                # The burst could not (or could no longer) make progress:
                # one faithful reference step handles the blocking access.
                if segments is None:
                    reason = self._cpu.step()
                else:
                    reason = self._profiled_step(state, profiler)
                if reason is not None:
                    return reason
                if state.instructions >= executed_limit:
                    raise ExecutionLimitExceeded(
                        f"exceeded {max_instructions} instructions at "
                        f"pc={state.pc}"
                    )
        finally:
            if segments:
                self._publish_opcode_mix(segments, profiler)

    def _profiled_step(self, state, profiler):
        """One slow step, bracketed by its residency record.

        ``Cpu.step`` (not ``Cpu.run``) is used exactly as in the plain
        loop, so slow-path residency is recorded here once.
        """
        before_instructions = state.instructions
        before_cycles = state.cycles
        try:
            return self._cpu.step()
        finally:
            profiler.record_slow_path(
                state.instructions - before_instructions,
                state.cycles - before_cycles,
            )

    def _publish_opcode_mix(self, segments, profiler):
        """Fold committed segments into the opcode mix.

        ``segments`` counts ``(start_pc, executed, pass_length)``
        records: ``executed`` instructions run straight from
        ``start_pc`` through the current IM view, restarting at
        ``start_pc`` after every ``pass_length`` (a compiled loop; for
        everything else ``pass_length`` is ``executed``).  The view's
        predecoded entries name their opcodes exactly.  Called before
        the view is dropped and when a run ends.
        """
        entries = self._im_entries
        ops: dict = {}
        for (start, executed, pass_length), count in segments.items():
            passes, rest = divmod(executed, pass_length)
            stop = start + min(executed, pass_length)
            for index, entry in enumerate(entries[start:stop]):
                op = entry[6]
                ops[op] = ops.get(op, 0) + count * (
                    passes + (index < rest)
                )
        segments.clear()
        profiler.record_opcodes({OPCODE_NAMES[op]: n for op, n in ops.items()})

    # ------------------------------------------------------------------
    # Burst core
    # ------------------------------------------------------------------
    def _burst(self, executed_limit, max_instructions, segments=None):
        """Execute instructions against the clean views until blocked.

        Returns a :class:`StopReason` on HALT/YIELD, else ``None``
        (meaning: run one reference step next).  All accounting —
        fault-engine gap consumption, access counters, dirty stores —
        is settled before returning or raising, so every observer
        (slow path, controller code between YIELDs, result collection)
        sees the exact per-access state.

        At a *leader* (a pc some control transfer or block exit lands
        on) the burst runs the compiled block starting there, if the
        IM fault budget and the instruction budget both cover it
        whole.  Everywhere else, and whenever a block cannot be
        entered, the per-opcode loop below runs one instruction at a
        time.  A block that stops early has committed nothing of the
        instruction it stopped at; that instruction is the one the
        per-opcode loop would have broken on, so the burst ends and
        the slow step replays it.
        """
        im, sp = self._im, self._sp
        if im.version != self._im_version:
            if segments:
                self._publish_opcode_mix(segments, active_profiler())
            self._im_entries = [None] * im.words
            self._blocks = {}
            self._im_version = im.version
        if sp.version != self._sp_version:
            self._sp_values = [None] * sp.words
            self._dirty.clear()
            self._sp_version = sp.version
        state = self._cpu.state
        regs = state.registers
        im_entries = self._im_entries
        sp_values = self._sp_values
        im_words = im.words
        sp_words = sp.words
        im_faults = im.faults
        sp_faults = sp.faults
        sp_samples_writes = sp_faults is not None and sp.fault_on_write
        sp_draw = (
            sp_faults.clean_run_length if sp_faults is not None
            else _unbounded
        )
        if sp_samples_writes != self._samples_writes:
            # Blocks bake in whether stores draw from the SP budget.
            self._blocks = {}
            self._samples_writes = sp_samples_writes
        sp_fill = self._sp_fill
        dirty_add = self._dirty.add

        pc = state.pc
        if not 0 <= pc < im_words:
            return None  # the slow step raises the wild access
        # Safe to draw here: at least one fetch of `pc` follows, either
        # in this burst or in the slow step the caller runs next.
        if im_faults is not None:
            im_left = im_faults.clean_run_length()
        else:
            im_left = _UNBOUNDED
        sp_left = None  # drawn lazily at the first data access
        # Instruction/cycle tallies accumulate in locals and settle in
        # one shot at burst exit — the hot loop touches no dataclass
        # attributes beyond the PC handshake the shared handlers need.
        insns_left = executed_limit - state.instructions
        executed = 0
        cycles = 0
        sp_reads = 0
        sp_writes = 0
        stop = None
        blocks = self._blocks
        leader = pc in blocks
        # Start of the per-opcode segment in progress (profiling only).
        segment_pc = pc
        segment_start = 0

        while True:
            if leader:
                block = blocks.get(pc, _UNSEEN)
                if block is _UNSEEN:
                    block = self._block_at(pc, sp_samples_writes)
                room = insns_left - executed
                if im_left < room:
                    room = im_left
                if block is not None and block[1] <= room:
                    run, length = block
                    done, spent, sp_left, reads, writes, next_pc = run(
                        regs, sp_values, sp_fill, sp_left, sp_draw,
                        sp_words, dirty_add, state, room,
                    )
                    if segments is not None:
                        key = (pc, done, length)
                        segments[key] = segments.get(key, 0) + 1
                    im_left -= done
                    executed += done
                    cycles += spent
                    sp_reads += reads
                    sp_writes += writes
                    pc = next_pc
                    if done % length or not done:
                        # Stopped before an instruction it could not
                        # commit: the slow step replays it.  (A loop
                        # stopping at its top re-enters and stops at 0.)
                        break
                    if executed >= insns_left:
                        break
                    if not 0 <= pc < im_words:
                        break
                    continue
                leader = False
                segment_pc = pc
                segment_start = executed
            entry = im_entries[pc]
            if entry is None:
                entry = self._im_fill(pc)
            if entry is _BLOCKED or im_left < 1:
                break
            mem_kind = entry[7]
            if mem_kind == 0:
                op = entry[6]
                if op >= _FIRST_CONTROL:
                    if op >= 62:  # HALT (0x3E) / YIELD (0x3F)
                        im_left -= 1
                        executed += 1
                        cycles += entry[5]
                        pc += 1
                        stop = (
                            StopReason.HALT if op == 62 else StopReason.YIELD
                        )
                        break
                    # Branch or jump: wherever it lands is a leader.
                    leader = True
                    if segments is not None:
                        length = executed + 1 - segment_start
                        key = (segment_pc, length, length)
                        segments[key] = segments.get(key, 0) + 1
                im_left -= 1
                executed += 1
                cycles += entry[5]
                state.pc = pc
                entry[0](None, state, entry)
                pc = state.pc
            elif mem_kind == 1:  # LW
                address = (regs[entry[2]] + entry[4]) & _MASK32
                if address >= sp_words:
                    break
                value = sp_values[address]
                if value is None:
                    value = sp_fill(address)
                if value < 0:
                    break
                if sp_left is None:
                    sp_left = sp_draw()
                if sp_left < 1:
                    break
                sp_left -= 1
                sp_reads += 1
                im_left -= 1
                executed += 1
                cycles += entry[5]
                a = entry[1]
                if a:
                    regs[a] = value
                pc += 1
            else:  # SW
                address = (regs[entry[2]] + entry[4]) & _MASK32
                if address >= sp_words:
                    break
                if sp_samples_writes:
                    if sp_left is None:
                        sp_left = sp_draw()
                    if sp_left < 1:
                        break
                    sp_left -= 1
                sp_writes += 1
                im_left -= 1
                executed += 1
                cycles += entry[5]
                sp_values[address] = regs[entry[1]]
                dirty_add(address)
                pc += 1
            if executed >= insns_left:
                break
            if not 0 <= pc < im_words:
                break

        state.pc = pc
        state.instructions += executed
        state.cycles += cycles
        self._settle(executed, sp_reads, sp_writes, sp_samples_writes)
        if segments is not None:
            if not leader and executed > segment_start:
                length = executed - segment_start
                key = (segment_pc, length, length)
                segments[key] = segments.get(key, 0) + 1
            active_profiler().record_burst(executed, cycles)
        if stop is not None:
            return stop
        if executed >= insns_left:
            raise ExecutionLimitExceeded(
                f"exceeded {max_instructions} instructions at "
                f"pc={state.pc}"
            )
        return None

    # ------------------------------------------------------------------
    # Block compilation
    # ------------------------------------------------------------------
    def _block_at(self, pc, samples_writes):
        """Compile (or fetch) the block starting at leader ``pc``.

        The block is the straight-line run of executable IM-view
        entries from ``pc``: it ends with the first branch or jump,
        and stops short of HALT/YIELD, of a word the view cannot
        execute, of the end of IM and of :data:`_BLOCK_MAX`
        instructions.  Returns ``(function, length)`` or ``None`` when
        not even the first instruction qualifies.  Memoised per
        engine until the IM view is dropped.
        """
        im_entries = self._im_entries
        entries = []
        address = pc
        while address < len(im_entries) and len(entries) < _BLOCK_MAX:
            entry = im_entries[address]
            if entry is None:
                entry = self._im_fill(address)
            if entry is _BLOCKED or entry[6] >= 62:
                break
            entries.append(entry)
            address += 1
            if entry[6] >= _FIRST_CONTROL:
                break
        block = None
        if entries:
            block = (compiled_block(pc, tuple(entries), samples_writes),
                     len(entries))
        self._blocks[pc] = block
        return block

    # ------------------------------------------------------------------
    # View population
    # ------------------------------------------------------------------
    def _im_fill(self, address):
        """Predecode the stored IM word if it is provably clean."""
        raw = self._im.peek(address)
        codec = self._im_codec
        if codec is not None:
            result = codec.decode(raw)
            if result.status is not DecodeStatus.CLEAN:
                self._im_entries[address] = _BLOCKED
                return _BLOCKED
            raw = result.data
        try:
            entry = predecode(raw)
        except IllegalInstruction:
            entry = _BLOCKED
        self._im_entries[address] = entry
        return entry

    def _sp_fill(self, address):
        """Mirror the stored SP word if it is provably clean."""
        raw = self._sp.peek(address)
        codec = self._sp_codec
        if codec is None:
            value = raw
        else:
            result = codec.decode(raw)
            if result.status is not DecodeStatus.CLEAN:
                value = _SP_BLOCKED
            else:
                value = result.data
        self._sp_values[address] = value
        return value

    # ------------------------------------------------------------------
    # Accounting settlement
    # ------------------------------------------------------------------
    def _settle(self, im_used, sp_reads, sp_writes, sp_samples_writes):
        """Commit a burst's bulk accounting to the faithful state."""
        if im_used:
            if self._im.faults is not None:
                self._im.faults.consume_clean(im_used)
            self._im_port.account_clean_reads(im_used)
        sp_samples = sp_reads + (sp_writes if sp_samples_writes else 0)
        if sp_samples and self._sp.faults is not None:
            self._sp.faults.consume_clean(sp_samples)
        if sp_reads:
            self._sp_port.account_clean_reads(sp_reads)
        if sp_writes:
            self._sp_port.account_clean_writes(sp_writes)
            self._flush_dirty()
        if im_used or sp_reads or sp_writes:
            profiler = active_profiler()
            if profiler.enabled:
                profiler.record_settlement(sp_reads, sp_writes)

    def _flush_dirty(self):
        """Encode and write back the burst's pending stores.

        Back-door pokes, because counters and fault samples were
        already settled per executed SW; the codec encode is the same
        transform the per-access write path applies.
        """
        dirty = self._dirty
        if not dirty:
            return
        sp = self._sp
        values = self._sp_values
        codec = self._sp_codec
        profiler = active_profiler()
        if profiler.enabled:
            profiler.record_writeback(
                len(dirty),
                codec is not None and len(dirty) >= _BATCH_FLUSH_THRESHOLD,
            )
        if codec is None:
            for address in dirty:
                sp.poke(address, values[address])
        elif len(dirty) >= _BATCH_FLUSH_THRESHOLD:
            addresses = list(dirty)
            words = np.fromiter(
                (values[a] for a in addresses),
                dtype=np.uint64,
                count=len(addresses),
            )
            for address, codeword in zip(
                addresses, codec.encode_batch(words).tolist()
            ):
                sp.poke(address, codeword)
        else:
            for address in dirty:
                sp.poke(address, codec.encode(values[address]))
        dirty.clear()
        # The pokes bumped the version; the view itself made them, so
        # its cached plain words are still exact — resync, don't drop.
        self._sp_version = sp.version


# ----------------------------------------------------------------------
# Block compiler
# ----------------------------------------------------------------------
_CODE_CACHE: dict = {}
_CODE_LOCK = threading.Lock()

#: Right-hand sides of the register-writing ALU opcodes.  ``{b}`` and
#: ``{c}`` are operand registers, ``{sb}``/``{sc}`` their two's
#: complement readings; immediates are folded at compile time.  Each is
#: the expression of the matching ``repro.soc.cpu`` handler.
_ALU_EXPRESSIONS = {
    Opcode.ADD: "({b} + {c}) & 0xFFFFFFFF",
    Opcode.SUB: "({b} - {c}) & 0xFFFFFFFF",
    Opcode.AND: "{b} & {c}",
    Opcode.OR: "{b} | {c}",
    Opcode.XOR: "{b} ^ {c}",
    Opcode.SLL: "({b} << ({c} & 31)) & 0xFFFFFFFF",
    Opcode.SRL: "{b} >> ({c} & 31)",
    Opcode.SRA: "({sb} >> ({c} & 31)) & 0xFFFFFFFF",
    Opcode.SLT: "1 if {sb} < {sc} else 0",
    Opcode.MUL: "({sb} * {sc}) & 0xFFFFFFFF",
    Opcode.MULH: "(({sb} * {sc}) >> 32) & 0xFFFFFFFF",
    Opcode.ADDI: "({b} + {imm}) & 0xFFFFFFFF",
    Opcode.ANDI: "{b} & {imm32}",
    Opcode.ORI: "{b} | {imm32}",
    Opcode.XORI: "{b} ^ {imm32}",
    Opcode.SLLI: "({b} << {shamt}) & 0xFFFFFFFF",
    Opcode.SRLI: "{b} >> {shamt}",
    Opcode.SRAI: "({sb} >> {shamt}) & 0xFFFFFFFF",
    Opcode.SLTI: "1 if {sb} < {imm} else 0",
    Opcode.LUI: "{upper}",
}

#: Taken condition of each conditional branch (``{a}``, ``{b}`` as above).
_BRANCH_CONDITIONS = {
    Opcode.BEQ: "{a} == {b}",
    Opcode.BNE: "{a} != {b}",
    Opcode.BLT: "{sa} < {sb}",
    Opcode.BGE: "{sa} >= {sb}",
}

_REGISTER_NAME = re.compile(r"\br(\d+)\b")


def compiled_block(start: int, entries: tuple, samples_writes: bool):
    """The generated function of one basic block, from the code cache.

    ``entries`` holds the block's predecoded entries (see
    :func:`repro.soc.cpu.predecode`; the code is built from their
    integer fields only, and the key shares the entry tuples with the
    predecode table); ``samples_writes`` says whether stores draw from
    the SP fault budget.  The function is called as ``fn(regs,
    sp_values, sp_fill, sp_left, sp_draw, sp_words, dirty_add, state,
    room)`` and returns ``(executed, cycles, sp_left, reads, writes,
    next_pc)``.
    """
    key = (start, entries, samples_writes)
    function = _CODE_CACHE.get(key)
    if function is None:
        namespace: dict = {}
        fields = tuple(entry[1:] for entry in entries)
        source = _block_source(start, fields, samples_writes)
        exec(compile(source, f"<ntc32 block @{start}>", "exec"), namespace)
        function = namespace["block"]
        with _CODE_LOCK:
            while len(_CODE_CACHE) >= CODE_CACHE_LIMIT:
                del _CODE_CACHE[next(iter(_CODE_CACHE))]
            _CODE_CACHE[key] = function
    return function


def _operands(a, b, c, imm):
    """Spellings of one instruction's fields for the templates above."""

    def reg(r):
        return f"r{r}" if r else "0"

    def signed(r):
        name = reg(r)
        if not r:
            return name
        return f"({name} - 0x100000000 if {name} & 0x80000000 else {name})"

    return {
        "a": reg(a), "b": reg(b), "c": reg(c),
        "sa": signed(a), "sb": signed(b), "sc": signed(c),
        "imm": imm, "imm32": imm & _MASK32, "shamt": imm & 31,
        "upper": (imm << 12) & _MASK32,
    }


def _block_source(start: int, fields: tuple, samples_writes: bool) -> str:
    """Python source of one block function (see :func:`compiled_block`).

    ``fields`` holds ``(a, b, c, imm, cycles, opcode, mem_kind)`` per
    instruction.

    Registers live in locals named ``r1``..``r15``, loaded by the
    prologue (every register the block names) and stored back at every
    exit (every register it assigns).  Data accesses keep the
    per-opcode loop's checks in its order — range, view fill, blocked
    word, lazy SP budget draw, budget left — and a failed check breaks
    out with ``i``, the index of the instruction it could not commit,
    to the shared epilogue, which settles the counts of the ``i``
    committed instructions from per-index constant tables.  The SP
    budget is not decremented per access: access ``j`` of a pass needs
    more than ``j`` left.

    A block whose conditional branch jumps back to its own start is a
    loop: its body repeats for as long as ``room`` (the instructions
    both the IM fault budget and the instruction budget still allow)
    covers one more whole pass, so registers stay in locals across
    passes, and the epilogue adds ``k`` completed passes.
    """
    n = len(fields)
    last = fields[-1]
    looping = (
        last[5] in _BRANCH_CONDITIONS and start + n - 1 + last[3] == start
    )
    written = sorted({
        f[0] for f in fields
        if f[0] and f[6] != MEM_STORE and f[5] not in _BRANCH_CONDITIONS
    })
    lines: list = []
    # Counts committed before instruction i, for i = 0..n.
    before = {"cycles": [0], "reads": [0], "writes": [0], "samples": [0]}
    drawn = False

    def emit(line):
        lines.append("        " + line)

    def bail(condition, index):
        emit(f"if {condition}:")
        emit(f"    i = {index}")
        emit("    break")

    def budget(ready):
        # The lazy draw, once the access is known to happen, then the
        # budget test of this access.
        nonlocal drawn
        if not drawn:
            emit(f"if {ready}sp_left is None:")
            emit("    sp_left = sp_draw()")
            drawn = True
        return f"sp_left <= {before['samples'][-1]}"

    def leave(pad, next_pc):
        # An exit past the whole block (jump or taken branch).
        for r in written:
            emit(f"{pad}regs[{r}] = r{r}")
        samples = before["samples"][-1]
        emit(
            f"{pad}return ({n}, {before['cycles'][-1]}, "
            f"{f'sp_left - {samples}' if samples else 'sp_left'}, "
            f"{before['reads'][-1]}, {before['writes'][-1]}, {next_pc})"
        )

    for index, (a, b, c, imm, cycles, op, mem_kind) in enumerate(fields):
        pc = start + index
        spell = _operands(a, b, c, imm)
        reads, writes, samples = (
            before["reads"][-1], before["writes"][-1], before["samples"][-1]
        )
        if mem_kind == MEM_LOAD:
            # Out of range reads as blocked (-1): no fill, no draw.
            emit(f"t = ({spell['b']} + {imm}) & 0xFFFFFFFF")
            emit("v = sp_values[t] if t < sp_words else -1")
            emit("if v is None:")
            emit("    v = sp_fill(t)")
            bail(f"v < 0 or {budget('v >= 0 and ')}", index)
            if a:
                emit(f"r{a} = v")
            reads += 1
            samples += 1
        elif mem_kind == MEM_STORE:
            emit(f"t = ({spell['b']} + {imm}) & 0xFFFFFFFF")
            if samples_writes:
                bail(f"t >= sp_words or {budget('t < sp_words and ')}",
                     index)
                samples += 1
            else:
                bail("t >= sp_words", index)
            emit(f"sp_values[t] = {spell['a']}")
            emit("dirty_add(t)")
            writes += 1
        elif op == Opcode.JALR:
            emit(f"t = ({spell['b']} + {imm}) & 0xFFFFFFFF")
        elif a and op in _ALU_EXPRESSIONS:
            emit(f"r{a} = {_ALU_EXPRESSIONS[op].format(**spell)}")
        before["cycles"].append(before["cycles"][-1] + cycles)
        before["reads"].append(reads)
        before["writes"].append(writes)
        before["samples"].append(samples)
        if op in _BRANCH_CONDITIONS:
            emit(f"if {_BRANCH_CONDITIONS[op].format(**spell)}:")
            if looping:
                # Back to the top, if the budgets cover one more pass.
                emit("    k += 1")
                if samples:
                    emit(f"    sp_left -= {samples}")
                emit(f"    room -= {n}")
                emit(f"    if room >= {n}:")
                emit("        continue")
                emit("    i = 0")
                emit("    break")
            else:
                emit("    state.taken_branches += 1")
                emit("    state.cycles += 1  # pipeline bubble")
                leave("    ", pc + imm)
        elif op == Opcode.JAL or op == Opcode.JALR:
            if a:
                emit(f"r{a} = {(pc + 1) & _MASK32}")
            leave("", pc + imm if op == Opcode.JAL else "t")
    if last[5] not in (Opcode.JAL, Opcode.JALR):
        # Past the end (or a branch not taken): on to the next pc.
        emit(f"i = {n}")
        emit("break")

    def table(name):
        return "(" + ", ".join(map(str, before[name])) + ",)[i]"

    def passes(step, value):
        # Totals over ``k`` completed passes plus this one's ``value``.
        return f"k * {step} + {value}" if looping and step else value

    epilogue = [f"    regs[{r}] = r{r}" for r in written]
    if looping:
        epilogue.append("    state.taken_branches += k")
        epilogue.append("    state.cycles += k  # pipeline bubbles")
    epilogue.append(f"    spent = {table('samples')}")
    epilogue.append(
        f"    return ({passes(n, 'i')}, "
        f"{passes(before['cycles'][-1], table('cycles'))}, "
        "sp_left - spent if spent else sp_left, "
        f"{passes(before['reads'][-1], table('reads'))}, "
        f"{passes(before['writes'][-1], table('writes'))}, {start} + i)"
    )
    named = {int(r) for r in _REGISTER_NAME.findall("\n".join(lines))}
    prologue = [f"    r{r} = regs[{r}]" for r in sorted(named)]
    if looping:
        prologue.append("    k = 0")
    header = (
        "def block(regs, sp_values, sp_fill, sp_left, sp_draw, sp_words, "
        "dirty_add, state, room):"
    )
    return "\n".join(
        [header, *prologue, "    while True:", *lines, *epilogue]
    ) + "\n"
