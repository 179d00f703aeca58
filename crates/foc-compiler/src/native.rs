//! Native-tier lowering — the `ExecTier::Native` AOT pass.
//!
//! The superinstruction tier still pays one fetch/decode/dispatch per
//! (fused) opcode plus per-dispatch fuel and counter bookkeeping. This
//! pass compiles each function *past* fetch/decode ahead of time: it
//! partitions the fused instruction stream into **regions** — maximal
//! straight-line runs entered only at known leaders — and lowers every
//! region to a dense array of pre-decoded micro-ops ([`NOp`]) with all
//! operands resolved (scalar reprs unpacked, index deltas folded, branch
//! targets and fault pcs baked in). The VM executes a region with no
//! per-instruction dispatch: accounting for the whole region is charged
//! once at entry, and the micro-ops run back to back.
//!
//! ## Deopt contract
//!
//! The artifact adds no observable state of its own; every observable
//! surface must stay byte-identical to the baseline tier:
//!
//! * **Entry gate.** A region is entered only when the remaining fuel
//!   covers its whole pre-computed [`NativeRegion::charge`]. Otherwise
//!   the VM falls back to the interpreter, whose existing per-opcode
//!   deopt seams reproduce mid-pattern fuel exhaustion exactly.
//! * **Fault seams.** Micro-ops that can fault (guest loads/stores,
//!   division) carry a [`FaultAt`]: the architectural pc the fault must
//!   surface at and the components the unfused stream would have charged
//!   by that point. On a fault the VM refunds `charge - spent` and
//!   unwinds with the baseline tier's exact counters, stack, and log.
//! * **Boundaries.** Calls, builtins, returns, and any pc without a
//!   region (e.g. a jump target inside a fused pattern's preserved tail)
//!   drop to the interpreter, which runs the very same fused bytecode —
//!   the native artifact rides alongside the super tier's program, it
//!   never replaces it.
//!
//! Region selection is conservative: every slot of every instruction is
//! scanned for branch targets (fused tails keep their original jump
//! instructions, and a mid-pattern entry executes them), so the leader
//! set is a superset of the reachable entry points and the entry table
//! can never mis-align with the interpreter's view of the stream.

use foc_memory::AccessSize;

use crate::bytecode::{unpack_scalar, AluOp, CmpOp, CompiledFunc, Instr};

/// Entry-table sentinel: no region starts at this pc.
pub const NO_REGION: u32 = u32::MAX;

/// The per-program native artifact (one entry per function, indices
/// matching `CompiledProgram::funcs`). Immutable and `Sync`: one `Arc`
/// serves every machine booted from the image, checkpoints included.
#[derive(Debug, Clone, PartialEq)]
pub struct NativeProgram {
    /// Per-function lowered regions.
    pub funcs: Vec<NativeFunc>,
}

/// One function's lowered regions plus the pc → region map.
#[derive(Debug, Clone, PartialEq)]
pub struct NativeFunc {
    /// `entry[pc]` is the region starting at `pc`, or [`NO_REGION`].
    pub entry: Vec<u32>,
    /// The regions, in order of their entry pcs.
    pub regions: Vec<NativeRegion>,
}

/// A maximal straight-line run: pre-decoded micro-ops plus a terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct NativeRegion {
    /// Total components (fuel units / instruction counts) the region
    /// charges — the exact sum its instructions would charge when
    /// interpreted, terminator included.
    pub charge: u64,
    /// The straight-line micro-ops.
    pub ops: Vec<NOp>,
    /// How the region ends.
    pub term: Term,
}

/// Where a faulting micro-op surfaces architecturally: the pc the fault
/// is reported at, and the components the unfused stream would have
/// charged when it faulted there (the VM refunds `charge - spent`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultAt {
    /// Architectural fault pc (same pc the interpreter's seam uses).
    pub pc: u32,
    /// Components legitimately charged at the fault point.
    pub spent: u64,
}

/// A pre-decoded micro-op. Operand reprs are unpacked and constant
/// folds (index deltas, branch senses) are done at lowering time.
#[derive(Debug, Clone, PartialEq)]
pub enum NOp {
    /// Push a constant.
    Const(i64),
    /// Duplicate the top of stack.
    Dup,
    /// Discard the top of stack.
    Drop,
    /// Swap the top two values.
    Swap,
    /// Rotate the top three values.
    Rot3,
    /// Push a local slot's address.
    LocalAddr(u32),
    /// Push a global's address (resolved through the machine's table).
    GlobalAddr(u32),
    /// Push an interned string's address.
    StrAddr(u32),
    /// Direct scalar load from a local slot.
    LoadLocal {
        /// Frame offset.
        off: u32,
        /// Scalar width.
        size: AccessSize,
        /// Sign-extend when set.
        signed: bool,
    },
    /// Direct scalar store to a local slot (pops the value).
    StoreLocal {
        /// Frame offset.
        off: u32,
        /// Stored width.
        size: AccessSize,
    },
    /// Non-trapping binary ALU op.
    Alu(AluOp),
    /// Division/remainder (traps on a zero divisor).
    Div {
        /// Signed variant.
        signed: bool,
        /// Remainder instead of quotient.
        rem: bool,
        /// Divide-by-zero seam.
        at: FaultAt,
    },
    /// Comparison, pushing the 0/1 flag (unfolded form).
    Cmp(CmpOp),
    /// Arithmetic negation.
    Neg,
    /// Bitwise not.
    BitNot,
    /// Logical not.
    Not,
    /// Re-normalize the top value.
    Normalize {
        /// Width.
        size: AccessSize,
        /// Signedness.
        signed: bool,
    },
    /// Replace a pointer with its effective address.
    EffAddr,
    /// Checked pointer arithmetic (pops count, pointer).
    PtrAdd {
        /// Element size.
        esz: u64,
    },
    /// Pointer difference (pops rhs, lhs).
    PtrDiff {
        /// Element size.
        esz: u64,
    },
    /// Checked guest load (pops the address).
    Load {
        /// Access width.
        size: AccessSize,
        /// Sign-extend when set.
        signed: bool,
        /// Fault seam.
        at: FaultAt,
    },
    /// Checked guest store (pops address, then value).
    Store {
        /// Access width.
        size: AccessSize,
        /// Fault seam.
        at: FaultAt,
    },
    /// `FusedLocalIdxLoad`: constant-index read of a local array.
    IdxLoad {
        /// Frame offset of the aggregate.
        off: u32,
        /// Folded byte delta (`idx * esz`).
        delta: i64,
        /// Loaded width.
        size: AccessSize,
        /// Sign-extend when set.
        signed: bool,
        /// Fault seam.
        at: FaultAt,
    },
    /// `FusedLocalIdxStore`: constant-index write (pops the value).
    IdxStore {
        /// Frame offset of the aggregate.
        off: u32,
        /// Folded byte delta.
        delta: i64,
        /// Stored width.
        size: AccessSize,
        /// Fault seam.
        at: FaultAt,
    },
    /// `FusedLoadIdxAccum`: the whole `acc += xs[C]` statement.
    IdxAccum {
        /// Accumulator frame offset.
        acc: u32,
        /// Accumulator load width.
        acc_size: AccessSize,
        /// Accumulator load signedness.
        acc_signed: bool,
        /// Accumulator store width.
        store_size: AccessSize,
        /// Aggregate frame offset.
        addr: u32,
        /// Folded byte delta.
        delta: i64,
        /// Element load width.
        load_size: AccessSize,
        /// Element load signedness.
        load_signed: bool,
        /// Fault seam (the load is component 4; `spent` covers 5).
        at: FaultAt,
    },
    /// `FusedIncLocal`: direct-local increment statement.
    IncLocal {
        /// Frame offset.
        off: u32,
        /// Increment.
        delta: i64,
        /// Scalar width.
        size: AccessSize,
        /// Signedness.
        signed: bool,
    },
    /// `FusedConstAlu`: constant-rhs ALU op.
    ConstAlu {
        /// Constant rhs.
        c: i64,
        /// Operation.
        op: AluOp,
    },
    /// `FusedStoreLocalPop`: store top-of-stack to a local and pop.
    StoreLocalPop {
        /// Frame offset.
        off: u32,
        /// Stored width.
        size: AccessSize,
    },
    /// `FusedLoadLoad`: dereference a pointer held in a local.
    LoadLoad {
        /// Pointer local's frame offset.
        off: u32,
        /// Loaded width.
        size: AccessSize,
        /// Sign-extend when set.
        signed: bool,
        /// Fault seam.
        at: FaultAt,
    },
    /// A maximal run (length ≥ 2) of register-lowerable micro-ops: the
    /// operand stack is statically known at every point, so each
    /// push/pop is resolved to a fixed scratch-register index ahead of
    /// time and the ops run back to back with no operand-stack
    /// traffic. Pure frame-local ops service their accesses off a
    /// borrowed frame window (no region bounds/commit round-trips);
    /// checked guest accesses ([`ROp::GLoad`]/[`ROp::GStore`] and the
    /// pointer ops) stay inside the block too, probing the space's
    /// placement fast path inline against the live register file and
    /// deopting to the full access path — seam, spill, refund — only
    /// on a probe miss. This is the "pre-resolved operands" half of
    /// the native tier's dispatch win, extended across the memory
    /// boundary.
    Locals(LocalsBlock),
}

/// Scratch registers available to a [`LocalsBlock`]. Runs whose stack
/// shape exceeds this stay in individual-op form (none observed in
/// practice: the cap comfortably exceeds any expression depth the
/// front end emits).
pub const LOCALS_REGS: usize = 64;

/// A pure frame-local run in register form. `consumes` operand-stack
/// values enter as registers `0..consumes` (`consumes - 1` is the old
/// top of stack); after the ops run, registers `0..produces` are the
/// block's operand-stack contribution, pushed back in index order. A
/// self-contained block (every statement's expression stack starts and
/// ends empty) has `consumes == produces == 0` and touches the operand
/// stack not at all.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalsBlock {
    /// Operand-stack values consumed at entry.
    pub consumes: u8,
    /// Operand-stack values produced at exit.
    pub produces: u8,
    /// Whether the block contains guest-memory register ops (the
    /// `G`-prefixed [`ROp`] variants). A pure block (`mem == false`)
    /// runs on the executor's single-borrow fast path; a memory block
    /// runs segmented, releasing the frame borrow at each guest access
    /// so the space's placement machinery is reachable in between.
    pub mem: bool,
    /// The straight-line register ops.
    pub ops: Box<[ROp]>,
}

/// A register-form micro-op inside a [`LocalsBlock`]. All register
/// indices are below [`LOCALS_REGS`]; frame offsets were validated
/// against the frame layout by the front end, so the executor indexes
/// its borrowed frame window directly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ROp {
    /// `r[dst] = c`.
    Const {
        /// Destination register.
        dst: u8,
        /// The constant.
        c: i64,
    },
    /// `r[dst] = r[src]` (a `Dup` with its stack slots resolved).
    Copy {
        /// Destination register.
        dst: u8,
        /// Source register.
        src: u8,
    },
    /// Exchange two registers (a resolved `Swap`).
    Swap {
        /// One register.
        a: u8,
        /// The other.
        b: u8,
    },
    /// Rotate three registers (a resolved `Rot3`): `a←b, b←c, c←a`.
    Rot3 {
        /// Deepest slot.
        a: u8,
        /// Middle slot.
        b: u8,
        /// Top slot.
        c: u8,
    },
    /// `r[dst] = base + off` (a resolved `LocalAddr`).
    Addr {
        /// Destination register.
        dst: u8,
        /// Frame offset.
        off: u32,
    },
    /// Scalar load straight off the frame window.
    Load {
        /// Destination register.
        dst: u8,
        /// Frame offset.
        off: u32,
        /// Width.
        size: AccessSize,
        /// Sign-extend when set.
        signed: bool,
    },
    /// Scalar store straight into the frame window.
    Store {
        /// Source register.
        src: u8,
        /// Frame offset.
        off: u32,
        /// Width.
        size: AccessSize,
    },
    /// `r[dst] = op(r[a], r[b])` (`dst == a` in stack-lowered code).
    Alu {
        /// Destination register.
        dst: u8,
        /// Left operand.
        a: u8,
        /// Right operand.
        b: u8,
        /// Operation.
        op: AluOp,
    },
    /// `r[at] = op(r[at], c)` (a resolved `FusedConstAlu`).
    ConstAlu {
        /// In-place operand register.
        at: u8,
        /// Constant rhs.
        c: i64,
        /// Operation.
        op: AluOp,
    },
    /// `r[dst] = op(r[a], r[b])` as a 0/1 flag.
    Cmp {
        /// Destination register.
        dst: u8,
        /// Left operand.
        a: u8,
        /// Right operand.
        b: u8,
        /// Comparison.
        op: CmpOp,
    },
    /// In-place arithmetic negation.
    Neg {
        /// Operand register.
        at: u8,
    },
    /// In-place bitwise not.
    BitNot {
        /// Operand register.
        at: u8,
    },
    /// In-place logical not.
    Not {
        /// Operand register.
        at: u8,
    },
    /// In-place re-normalization.
    Normalize {
        /// Operand register.
        at: u8,
        /// Width.
        size: AccessSize,
        /// Signedness.
        signed: bool,
    },
    /// Direct-local increment against the frame window (a resolved
    /// `FusedIncLocal`; touches no registers).
    Inc {
        /// Frame offset.
        off: u32,
        /// Increment.
        delta: i64,
        /// Scalar width.
        size: AccessSize,
        /// Signedness.
        signed: bool,
    },
    /// Checked guest load against the live register file: the address
    /// comes from register `at` and the loaded value replaces it. The
    /// executor probes the space's pre-resolved placement fast path
    /// inline; a probe miss deopts to the full access path (violation
    /// continuation included), and a fault spills registers
    /// `0..spill` back to the operand stack — reproducing the
    /// interpreted stack image after the address pop — before
    /// unwinding at the pre-baked seam.
    GLoad {
        /// Address register, also the destination.
        at: u8,
        /// Access width.
        size: AccessSize,
        /// Sign-extend when set.
        signed: bool,
        /// Fault seam.
        seam: FaultAt,
        /// Live registers to spill to the operand stack on a fault.
        spill: u8,
    },
    /// Checked guest store against the live register file (consumes
    /// the address and value registers). Probe/deopt/spill contract as
    /// [`ROp::GLoad`].
    GStore {
        /// Address register.
        addr: u8,
        /// Value register.
        val: u8,
        /// Access width.
        size: AccessSize,
        /// Fault seam.
        seam: FaultAt,
        /// Live registers to spill to the operand stack on a fault.
        spill: u8,
    },
    /// Checked pointer arithmetic in register form: `r[dst] =
    /// ptr_add(r[ptr], r[count] * esz)`. Runs the interpreter's exact
    /// routine (out-of-bounds interning included) — it cannot fault,
    /// so it needs no seam.
    GPtrAdd {
        /// Destination register.
        dst: u8,
        /// Base-pointer register.
        ptr: u8,
        /// Element-count register.
        count: u8,
        /// Element size.
        esz: u64,
    },
    /// Pointer difference in register form (effective addresses of
    /// both operands; cannot fault).
    GPtrDiff {
        /// Destination register.
        dst: u8,
        /// Lhs register.
        a: u8,
        /// Rhs register.
        b: u8,
        /// Element size.
        esz: u64,
    },
    /// Effective-address fold in register form (cannot fault).
    GEffAddr {
        /// In-place operand register.
        at: u8,
    },
    /// A [`ROp::GPtrAdd`] whose derived pointer immediately feeds a
    /// [`ROp::GLoad`] — the variable-index access shape. One placement
    /// lookup answers both the derivation and the access on the hit
    /// path (units never overlap, so in-unit containment of the target
    /// proves both), exactly as the fused constant-index fast path
    /// does; a miss runs the exact two-step sequence.
    GIdxLoad {
        /// Destination register (the pair's net stack slot).
        dst: u8,
        /// Base-pointer register.
        ptr: u8,
        /// Element-count register.
        count: u8,
        /// Element size.
        esz: u64,
        /// Loaded width.
        size: AccessSize,
        /// Sign-extend when set.
        signed: bool,
        /// The load's fault seam (`spent` covers the pointer add).
        seam: FaultAt,
        /// Live registers to spill to the operand stack on a fault.
        spill: u8,
    },
    /// Store twin of [`ROp::GIdxLoad`].
    GIdxStore {
        /// Base-pointer register.
        ptr: u8,
        /// Element-count register.
        count: u8,
        /// Value register.
        val: u8,
        /// Element size.
        esz: u64,
        /// Stored width.
        size: AccessSize,
        /// The store's fault seam (`spent` covers the pointer add).
        seam: FaultAt,
        /// Live registers to spill to the operand stack on a fault.
        spill: u8,
    },
}

/// How a region ends. Conditional terminators carry both successors so
/// the executor can chain into the next region without touching the
/// interpreter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Term {
    /// Unconditional jump.
    Jump(u32),
    /// Pop; jump when zero.
    JumpIfZero {
        /// Branch target.
        target: u32,
        /// Fall-through pc.
        fall: u32,
    },
    /// Pop; jump when non-zero.
    JumpIfNotZero {
        /// Branch target.
        target: u32,
        /// Fall-through pc.
        fall: u32,
    },
    /// A comparison folded with its branch (the interpreter's runtime
    /// `cmp_arm` peephole, resolved at lowering time): pops rhs then
    /// lhs, jumps when `op` holds.
    FlagJump {
        /// Comparison, normalized to jump-when-true.
        op: CmpOp,
        /// Branch target.
        target: u32,
        /// Fall-through pc.
        fall: u32,
    },
    /// `FusedCmpJump`: the two-local loop head.
    CmpJump {
        /// Lhs frame offset.
        a: u32,
        /// Lhs width.
        a_size: AccessSize,
        /// Lhs signedness.
        a_signed: bool,
        /// Rhs frame offset.
        b: u32,
        /// Rhs width.
        b_size: AccessSize,
        /// Rhs signedness.
        b_signed: bool,
        /// Comparison, jump taken when true.
        op: CmpOp,
        /// Branch target.
        target: u32,
        /// Fall-through pc.
        fall: u32,
    },
    /// `FusedIncJump`: the loop latch (increment + back-jump).
    IncJump {
        /// Frame offset.
        off: u32,
        /// Increment.
        delta: i64,
        /// Scalar width.
        size: AccessSize,
        /// Signedness.
        signed: bool,
        /// Jump target.
        target: u32,
    },
    /// Straight-line fall to a pc the interpreter (or the next region)
    /// must handle: a call/builtin/return boundary or a region split at
    /// a leader. Charges nothing.
    Fall(u32),
}

/// Lowers a fused program's functions to their native artifacts. The
/// input must be the `ExecTier::Super` stream (the artifact executes
/// fused opcodes as single micro-ops and relies on their layout
/// preservation for mid-pattern entries).
pub fn lower_native(funcs: &[CompiledFunc]) -> NativeProgram {
    let mut scratch = Scratch::default();
    NativeProgram {
        funcs: funcs
            .iter()
            .map(|f| lower_func(&f.code, &mut scratch))
            .collect(),
    }
}

/// Working buffers reused across every function and region of one
/// lowering: the artifact's arrays are built here and copied out at
/// their exact sizes, so the pass allocates only what the artifact
/// keeps.
#[derive(Default)]
struct Scratch {
    /// Leader flags of the current function.
    leader: Vec<bool>,
    /// The current region's micro-ops before [`group_locals`].
    ops: Vec<NOp>,
    /// The current region's micro-ops after [`group_locals`].
    grouped: Vec<NOp>,
    /// The current block's register ops (see [`lower_locals`]).
    rops: Vec<ROp>,
    /// The current function's regions.
    regions: Vec<NativeRegion>,
}

/// Marks `pc` as a leader (a region entry point).
fn note_leader(leader: &mut [bool], pc: u32) {
    if let Some(slot) = leader.get_mut(pc as usize) {
        *slot = true;
    }
}

fn lower_func(code: &[Instr], scratch: &mut Scratch) -> NativeFunc {
    // Pass 1 — leaders: function entry plus every branch target named
    // anywhere in the stream. Tail slots of fused patterns keep their
    // original jump instructions and are reachable through mid-pattern
    // entries, so every slot is scanned; the result is a conservative
    // superset of the live entry points, which only ever adds regions.
    scratch.leader.clear();
    scratch.leader.resize(code.len(), false);
    note_leader(&mut scratch.leader, 0);
    for &instr in code {
        match instr {
            Instr::Jump(t)
            | Instr::JumpIfZero(t)
            | Instr::JumpIfNotZero(t)
            | Instr::FusedCmpJump { target: t, .. }
            | Instr::FusedIncJump { target: t, .. } => note_leader(&mut scratch.leader, t),
            _ => {}
        }
    }

    // Pass 2 — one region per leader, in pc order. Fall-through
    // successors of conditional terminators and post-call resume points
    // become leaders as the region ending just before them is built, so
    // the sweep always finds them flagged; no region ever crosses one
    // (both always follow a terminator/breaker, and no fused span
    // contains one), so late discovery cannot invalidate an earlier
    // region.
    let mut entry = vec![NO_REGION; code.len()];
    for start in 0..code.len() as u32 {
        if !scratch.leader[start as usize] {
            continue;
        }
        let region = build_region(code, start, scratch);
        if region.ops.is_empty() && region.term == Term::Fall(start) {
            // A leader that is immediately a call/ret lowers to a no-op
            // region falling to itself. Leave the slot unmapped so the
            // executor hands the pc straight to the interpreter instead
            // of spinning on a zero-charge region.
            continue;
        }
        entry[start as usize] = scratch.regions.len() as u32;
        scratch.regions.push(region);
    }
    let mut regions = Vec::with_capacity(scratch.regions.len());
    regions.append(&mut scratch.regions);
    NativeFunc { entry, regions }
}

/// Walks the stream from `start` to the region's end, lowering as it
/// goes; the fall-through or resume pc after its terminator is flagged
/// a leader.
fn build_region(code: &[Instr], start: u32, scratch: &mut Scratch) -> NativeRegion {
    let Scratch {
        leader,
        ops,
        grouped,
        rops,
        ..
    } = scratch;
    ops.clear();
    let mut done: u64 = 0;
    let mut pc = start as usize;
    let term = loop {
        if pc >= code.len() {
            // Defensive: the lowering never runs off a well-formed
            // function (every path ends in `Ret`), but a malformed one
            // must fail in the interpreter, not here.
            break Term::Fall(pc as u32);
        }
        if pc as u32 != start && leader[pc] {
            // Split at a known entry point; the executor chains into
            // the next region without leaving the fast path.
            break Term::Fall(pc as u32);
        }
        // The instruction after this one, unless it is a leader (a
        // comparison folds only with a branch no other path enters).
        let next = code.get(pc + 1).filter(|_| !leader[pc + 1]).copied();
        match lower_step(code[pc], next, pc as u32, done) {
            Step::Op(op, k) => {
                ops.push(op);
                done += u64::from(k);
                pc += k as usize;
            }
            Step::End {
                term,
                charge,
                resume,
            } => {
                done += charge;
                if let Some(resume) = resume {
                    note_leader(leader, resume);
                }
                break term;
            }
        }
    };
    // Every terminator folded its own components into `done` at its
    // break (a `Fall` charges nothing), so the region charge is final.
    // Charges were computed per original op, and grouping neither adds
    // nor removes components, so the charge is unaffected by it.
    group_locals(ops, rops, grouped);
    let mut region_ops = Vec::with_capacity(grouped.len());
    region_ops.append(grouped);
    NativeRegion {
        charge: done,
        ops: region_ops,
        term,
    }
}

/// Whether `op` is a pure frame-local micro-op: it touches only the
/// operand stack and the frame's byte window, cannot fault, and adds no
/// per-access stat extras. Pure ops run on the block executor's
/// single-borrow fast path; [`is_block_heap`] ops join blocks too but
/// force the segmented executor. Division stays top-level (its seam is
/// cheap to keep there and it never clusters with access traffic), as
/// do the frame-anchored fused access shapes, whose top-level handlers
/// already carry their own fast paths.
fn is_local_pure(op: &NOp) -> bool {
    matches!(
        op,
        NOp::Const(_)
            | NOp::Dup
            | NOp::Drop
            | NOp::Swap
            | NOp::Rot3
            | NOp::LocalAddr(_)
            | NOp::LoadLocal { .. }
            | NOp::StoreLocal { .. }
            | NOp::Alu(_)
            | NOp::Cmp(_)
            | NOp::Neg
            | NOp::BitNot
            | NOp::Not
            | NOp::Normalize { .. }
            | NOp::IncLocal { .. }
            | NOp::ConstAlu { .. }
            | NOp::StoreLocalPop { .. }
    )
}

/// Whether `op` is a guest-memory micro-op a [`LocalsBlock`] can span:
/// checked loads/stores (probe inline, deopt on miss) and the pointer
/// ops (which run the interpreter's exact space routines and cannot
/// fault). These force the block onto the segmented executor — see
/// [`LocalsBlock::mem`].
fn is_block_heap(op: &NOp) -> bool {
    matches!(
        op,
        NOp::Load { .. }
            | NOp::Store { .. }
            | NOp::PtrAdd { .. }
            | NOp::PtrDiff { .. }
            | NOp::EffAddr
    )
}

/// Block-membership predicate for [`group_locals`].
fn is_block_member(op: &NOp) -> bool {
    is_local_pure(op) || is_block_heap(op)
}

/// Groups maximal runs (length ≥ 2) of register-lowerable ops — pure
/// frame-local ops plus the guest-memory ops of [`is_block_heap`] —
/// into register-form [`NOp::Locals`] blocks. Singleton runs stay
/// as-is: the block only pays for its stack-to-register traffic when
/// at least two ops amortize it. Runs whose stack shape exceeds
/// [`LOCALS_REGS`] also stay in individual-op form (the executor's
/// slow path is observationally identical). Blocks are built from a
/// flat op vector, so they never nest. The grouped ops are appended to
/// `out`; `rops` is [`lower_locals`]' working buffer.
fn group_locals(ops: &[NOp], rops: &mut Vec<ROp>, out: &mut Vec<NOp>) {
    let mut i = 0;
    while i < ops.len() {
        if !is_block_member(&ops[i]) {
            out.push(ops[i].clone());
            i += 1;
            continue;
        }
        let mut j = i + 1;
        while j < ops.len() && is_block_member(&ops[j]) {
            j += 1;
        }
        match (j - i >= 2)
            .then(|| lower_locals(&ops[i..j], rops))
            .flatten()
        {
            Some(block) => out.push(NOp::Locals(block)),
            None => out.extend(ops[i..j].iter().cloned()),
        }
        i = j;
    }
}

/// How a pure-local op shapes the operand stack: `(consumed, effect)`
/// — how many values below the current top it reads or removes, and
/// its net depth change.
fn stack_shape(op: &NOp) -> (i32, i32) {
    match op {
        NOp::Const(_) | NOp::LocalAddr(_) | NOp::LoadLocal { .. } => (0, 1),
        NOp::Dup => (1, 1),
        NOp::Drop | NOp::StoreLocal { .. } | NOp::StoreLocalPop { .. } => (1, -1),
        NOp::Swap => (2, 0),
        NOp::Rot3 => (3, 0),
        NOp::Alu(_) | NOp::Cmp(_) => (2, -1),
        NOp::Neg | NOp::BitNot | NOp::Not | NOp::Normalize { .. } | NOp::ConstAlu { .. } => (1, 0),
        NOp::IncLocal { .. } => (0, 0),
        NOp::Load { .. } | NOp::EffAddr => (1, 0),
        NOp::Store { .. } => (2, -2),
        NOp::PtrAdd { .. } | NOp::PtrDiff { .. } => (2, -1),
        other => unreachable!("non-member op in a locals run: {other:?}"),
    }
}

/// Lowers a block-member run to register form. The run is
/// straight-line, so the operand-stack depth at every op is static:
/// stack slot `d` (relative to the block's deepest excursion below its
/// entry depth) becomes scratch register `d`, and every push/pop turns
/// into a fixed register index. A `Drop` vanishes entirely — the dead
/// value simply never makes it back to the operand stack. Guest
/// accesses bake their fault seam and static spill count per site, so
/// a mid-block fault can reproduce the interpreted operand-stack image
/// exactly; a `GPtrAdd` feeding the immediately following access fuses
/// into the combined `GIdx*` form (one placement lookup for the pair,
/// the same peephole the fused constant-index shapes get). Returns
/// `None` when the run's stack shape exceeds [`LOCALS_REGS`]. `ops` is
/// a working buffer; only the block's exact-size op slice is allocated.
fn lower_locals(run: &[NOp], ops: &mut Vec<ROp>) -> Option<LocalsBlock> {
    // Pass 1: the run's depth envelope relative to its entry depth.
    let mut depth: i32 = 0;
    let mut lowest: i32 = 0;
    let mut highest: i32 = 0;
    for op in run {
        let (consumed, effect) = stack_shape(op);
        lowest = lowest.min(depth - consumed);
        depth += effect;
        highest = highest.max(depth);
    }
    let bias = -lowest;
    if highest + bias > LOCALS_REGS as i32 {
        return None;
    }
    // Pass 2: emit, mapping relative depth `d` to register `d + bias`.
    let r = |d: i32| (d + bias) as u8;
    ops.clear();
    let mut d: i32 = 0;
    for op in run {
        match *op {
            NOp::Const(c) => {
                ops.push(ROp::Const { dst: r(d), c });
                d += 1;
            }
            NOp::Dup => {
                ops.push(ROp::Copy {
                    dst: r(d),
                    src: r(d - 1),
                });
                d += 1;
            }
            NOp::Drop => d -= 1,
            NOp::Swap => ops.push(ROp::Swap {
                a: r(d - 1),
                b: r(d - 2),
            }),
            NOp::Rot3 => ops.push(ROp::Rot3 {
                a: r(d - 3),
                b: r(d - 2),
                c: r(d - 1),
            }),
            NOp::LocalAddr(off) => {
                ops.push(ROp::Addr { dst: r(d), off });
                d += 1;
            }
            NOp::LoadLocal { off, size, signed } => {
                ops.push(ROp::Load {
                    dst: r(d),
                    off,
                    size,
                    signed,
                });
                d += 1;
            }
            NOp::StoreLocal { off, size } | NOp::StoreLocalPop { off, size } => {
                ops.push(ROp::Store {
                    src: r(d - 1),
                    off,
                    size,
                });
                d -= 1;
            }
            NOp::Alu(op) => {
                ops.push(ROp::Alu {
                    dst: r(d - 2),
                    a: r(d - 2),
                    b: r(d - 1),
                    op,
                });
                d -= 1;
            }
            NOp::Cmp(op) => {
                ops.push(ROp::Cmp {
                    dst: r(d - 2),
                    a: r(d - 2),
                    b: r(d - 1),
                    op,
                });
                d -= 1;
            }
            NOp::Neg => ops.push(ROp::Neg { at: r(d - 1) }),
            NOp::BitNot => ops.push(ROp::BitNot { at: r(d - 1) }),
            NOp::Not => ops.push(ROp::Not { at: r(d - 1) }),
            NOp::Normalize { size, signed } => ops.push(ROp::Normalize {
                at: r(d - 1),
                size,
                signed,
            }),
            NOp::ConstAlu { c, op } => ops.push(ROp::ConstAlu {
                at: r(d - 1),
                c,
                op,
            }),
            NOp::IncLocal {
                off,
                delta,
                size,
                signed,
            } => ops.push(ROp::Inc {
                off,
                delta,
                size,
                signed,
            }),
            NOp::Load { size, signed, at } => {
                // Pops the address, pushes the value: same slot. The
                // spill image on a fault is everything below the
                // popped address.
                let reg = r(d - 1);
                let fused = pop_ptr_add(ops, reg);
                ops.push(match fused {
                    Some((ptr, count, esz)) => ROp::GIdxLoad {
                        dst: reg,
                        ptr,
                        count,
                        esz,
                        size,
                        signed,
                        seam: at,
                        spill: reg,
                    },
                    None => ROp::GLoad {
                        at: reg,
                        size,
                        signed,
                        seam: at,
                        spill: reg,
                    },
                });
            }
            NOp::Store { size, at } => {
                let (addr, val) = (r(d - 1), r(d - 2));
                let fused = pop_ptr_add(ops, addr);
                ops.push(match fused {
                    Some((ptr, count, esz)) => ROp::GIdxStore {
                        ptr,
                        count,
                        val,
                        esz,
                        size,
                        seam: at,
                        spill: val,
                    },
                    None => ROp::GStore {
                        addr,
                        val,
                        size,
                        seam: at,
                        spill: val,
                    },
                });
                d -= 2;
            }
            NOp::PtrAdd { esz } => {
                ops.push(ROp::GPtrAdd {
                    dst: r(d - 2),
                    ptr: r(d - 2),
                    count: r(d - 1),
                    esz,
                });
                d -= 1;
            }
            NOp::PtrDiff { esz } => {
                ops.push(ROp::GPtrDiff {
                    dst: r(d - 2),
                    a: r(d - 2),
                    b: r(d - 1),
                    esz,
                });
                d -= 1;
            }
            NOp::EffAddr => ops.push(ROp::GEffAddr { at: r(d - 1) }),
            ref other => unreachable!("non-member op in a locals run: {other:?}"),
        }
    }
    Some(LocalsBlock {
        consumes: bias as u8,
        produces: (d + bias) as u8,
        mem: ops.iter().any(is_heap_rop),
        ops: Box::from(&ops[..]),
    })
}

/// Pops the block's last register op when it is a `GPtrAdd` deriving
/// the pointer in `reg`, returning its `(ptr, count, esz)` so the access
/// consuming that pointer can fuse with it into the one-lookup `GIdx*`
/// form. The derived
/// pointer is dead after the access pops it, so the rewrite is
/// invisible: on the hit path one in-unit containment check proves both
/// steps, and on the miss path the executor runs the exact two-step
/// sequence.
fn pop_ptr_add(ops: &mut Vec<ROp>, reg: u8) -> Option<(u8, u8, u64)> {
    match ops.last() {
        Some(&ROp::GPtrAdd {
            dst,
            ptr,
            count,
            esz,
        }) if dst == reg => {
            ops.pop();
            Some((ptr, count, esz))
        }
        _ => None,
    }
}

/// Whether a register op touches guest memory (decides
/// [`LocalsBlock::mem`], and where the segmented executor must release
/// its frame borrow).
pub fn is_heap_rop(op: &ROp) -> bool {
    matches!(
        op,
        ROp::GLoad { .. }
            | ROp::GStore { .. }
            | ROp::GPtrAdd { .. }
            | ROp::GPtrDiff { .. }
            | ROp::GEffAddr { .. }
            | ROp::GIdxLoad { .. }
            | ROp::GIdxStore { .. }
    )
}

/// One lowering step: a micro-op covering `k` instruction slots, or the
/// region's end.
enum Step {
    /// A straight-line micro-op and the slots (components) it covers.
    Op(NOp, u32),
    /// The region ends in `term`, which charges `charge` components;
    /// `resume` is a fall-through or post-call pc that must lead a
    /// region of its own.
    End {
        term: Term,
        charge: u64,
        resume: Option<u32>,
    },
}

/// Lowers the instruction at `pc` in one dispatch. `next` is the
/// following instruction when it is not a leader (the only case a
/// comparison may fold with it); `done` the components charged before
/// `pc`. Fault seams surface at the faulting component's architectural
/// pc with every component up to and including it charged.
fn lower_step(instr: Instr, next: Option<Instr>, pc: u32, done: u64) -> Step {
    let at = |k: u32| FaultAt {
        pc: pc + k,
        spent: done + u64::from(k),
    };
    let end = |term, charge, resume| Step::End {
        term,
        charge,
        resume,
    };
    let div = |signed, rem| NOp::Div {
        signed,
        rem,
        at: at(1),
    };
    let op = match instr {
        // Breakers: frame and builtin machinery the region executor does
        // not replicate drops to the interpreter, which resumes native
        // execution after a call returns.
        Instr::Call(_) | Instr::CallBuiltin(_) => return end(Term::Fall(pc), 0, Some(pc + 1)),
        Instr::Ret => return end(Term::Fall(pc), 0, None),
        Instr::Jump(t) => return end(Term::Jump(t), 1, None),
        Instr::JumpIfZero(t) => {
            let fall = pc + 1;
            return end(Term::JumpIfZero { target: t, fall }, 1, Some(fall));
        }
        Instr::JumpIfNotZero(t) => {
            let fall = pc + 1;
            return end(Term::JumpIfNotZero { target: t, fall }, 1, Some(fall));
        }
        Instr::FusedCmpJump {
            a,
            b,
            a_repr,
            b_repr,
            op,
            target,
        } => {
            let (a_size, a_signed) = unpack_scalar(a_repr);
            let (b_size, b_signed) = unpack_scalar(b_repr);
            let fall = pc + 5;
            let term = Term::CmpJump {
                a,
                a_size,
                a_signed,
                b,
                b_size,
                b_signed,
                op,
                target,
                fall,
            };
            return end(term, 5, Some(fall));
        }
        Instr::FusedIncJump {
            off,
            delta,
            repr,
            len,
            target,
        } => {
            let (size, signed) = unpack_scalar(repr);
            let term = Term::IncJump {
                off,
                delta: delta as i64,
                size,
                signed,
                target,
            };
            return end(term, u64::from(len), None);
        }
        Instr::Eq => return cmp_step(CmpOp::Eq, next, pc),
        Instr::Ne => return cmp_step(CmpOp::Ne, next, pc),
        Instr::LtS => return cmp_step(CmpOp::LtS, next, pc),
        Instr::LtU => return cmp_step(CmpOp::LtU, next, pc),
        Instr::LeS => return cmp_step(CmpOp::LeS, next, pc),
        Instr::LeU => return cmp_step(CmpOp::LeU, next, pc),
        Instr::GtS => return cmp_step(CmpOp::GtS, next, pc),
        Instr::GtU => return cmp_step(CmpOp::GtU, next, pc),
        Instr::GeS => return cmp_step(CmpOp::GeS, next, pc),
        Instr::GeU => return cmp_step(CmpOp::GeU, next, pc),
        Instr::Const(v) => NOp::Const(v),
        Instr::Dup => NOp::Dup,
        Instr::Drop => NOp::Drop,
        Instr::Swap => NOp::Swap,
        Instr::Rot3 => NOp::Rot3,
        Instr::LocalAddr(off) => NOp::LocalAddr(off),
        Instr::GlobalAddr(i) => NOp::GlobalAddr(i),
        Instr::StrAddr(i) => NOp::StrAddr(i),
        Instr::Load(size, signed) => NOp::Load {
            size,
            signed,
            at: at(1),
        },
        Instr::Store(size) => NOp::Store { size, at: at(1) },
        Instr::LoadLocal(off, size, signed) => NOp::LoadLocal { off, size, signed },
        Instr::StoreLocal(off, size) => NOp::StoreLocal { off, size },
        Instr::DivS => div(true, false),
        Instr::DivU => div(false, false),
        Instr::RemS => div(true, true),
        Instr::RemU => div(false, true),
        Instr::Add => NOp::Alu(AluOp::Add),
        Instr::Sub => NOp::Alu(AluOp::Sub),
        Instr::Mul => NOp::Alu(AluOp::Mul),
        Instr::And => NOp::Alu(AluOp::And),
        Instr::Or => NOp::Alu(AluOp::Or),
        Instr::Xor => NOp::Alu(AluOp::Xor),
        Instr::Shl => NOp::Alu(AluOp::Shl),
        Instr::ShrS => NOp::Alu(AluOp::ShrS),
        Instr::ShrU => NOp::Alu(AluOp::ShrU),
        Instr::Neg => NOp::Neg,
        Instr::BitNot => NOp::BitNot,
        Instr::Not => NOp::Not,
        Instr::Normalize(size, signed) => NOp::Normalize { size, signed },
        Instr::EffAddr => NOp::EffAddr,
        Instr::PtrAdd(esz) => NOp::PtrAdd { esz },
        Instr::PtrDiff(esz) => NOp::PtrDiff { esz },
        Instr::FusedLocalIdxLoad {
            off,
            idx,
            esz,
            repr,
        } => {
            let (size, signed) = unpack_scalar(repr);
            let op = NOp::IdxLoad {
                off,
                delta: (idx as i64).wrapping_mul(esz as i64),
                size,
                signed,
                at: at(4),
            };
            return Step::Op(op, 4);
        }
        Instr::FusedLocalIdxStore {
            off,
            idx,
            esz,
            size,
        } => {
            let op = NOp::IdxStore {
                off,
                delta: (idx as i64).wrapping_mul(esz as i64),
                size,
                at: at(4),
            };
            return Step::Op(op, 4);
        }
        Instr::FusedLoadIdxAccum {
            acc,
            addr,
            delta,
            load_repr,
            acc_repr,
            size,
        } => {
            let (acc_size, acc_signed) = unpack_scalar(acc_repr);
            let (load_size, load_signed) = unpack_scalar(load_repr);
            let op = NOp::IdxAccum {
                acc,
                acc_size,
                acc_signed,
                store_size: size,
                addr,
                delta: delta as i64,
                load_size,
                load_signed,
                // The load is component 4 of 9: a memory fault surfaces
                // with exactly components 0..=4 charged (the interpreter
                // refunds the four pure stack ops behind the load).
                at: at(5),
            };
            return Step::Op(op, 9);
        }
        Instr::FusedIncLocal {
            off,
            delta,
            repr,
            len,
        } => {
            let (size, signed) = unpack_scalar(repr);
            let op = NOp::IncLocal {
                off,
                delta: delta as i64,
                size,
                signed,
            };
            return Step::Op(op, u32::from(len));
        }
        Instr::FusedConstAlu { c, op } => return Step::Op(NOp::ConstAlu { c: c as i64, op }, 2),
        Instr::FusedStoreLocalPop { off, size } => {
            return Step::Op(NOp::StoreLocalPop { off, size }, 3)
        }
        Instr::FusedLoadLoad { off, repr } => {
            let (size, signed) = unpack_scalar(repr);
            let op = NOp::LoadLoad {
                off,
                size,
                signed,
                at: at(2),
            };
            return Step::Op(op, 2);
        }
    };
    Step::Op(op, 1)
}

/// A comparison: folded with a directly following branch — the
/// runtime `cmp_arm` peephole, resolved ahead of time — or pushed as a
/// flag. A branch that is itself a leader is never folded (the split
/// wins; the flag is pushed and the next region's terminator pops it,
/// which is observationally the same thing).
fn cmp_step(op: CmpOp, next: Option<Instr>, pc: u32) -> Step {
    let (op, target) = match next {
        Some(Instr::JumpIfZero(t)) => (op.negate(), t),
        Some(Instr::JumpIfNotZero(t)) => (op, t),
        _ => return Step::Op(NOp::Cmp(op), 1),
    };
    let fall = pc + 2;
    Step::End {
        term: Term::FlagJump { op, target, fall },
        charge: 2,
        resume: Some(fall),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile_source, fuse_program};

    fn lower(src: &str) -> NativeProgram {
        let fused = fuse_program(compile_source(src).unwrap());
        lower_native(&fused.funcs)
    }

    const LOOP_SRC: &str = "long spin(long n) { long i; long acc = 0; \
                            for (i = 0; i < n; i++) acc = acc + i; return acc; }";

    #[test]
    fn lowering_is_deterministic() {
        assert_eq!(lower(LOOP_SRC), lower(LOOP_SRC));
    }

    #[test]
    fn entry_table_is_aligned_and_indices_are_valid() {
        let fused = fuse_program(compile_source(LOOP_SRC).unwrap());
        let native = lower_native(&fused.funcs);
        for (f, nf) in fused.funcs.iter().zip(&native.funcs) {
            assert_eq!(nf.entry.len(), f.code.len());
            for &r in &nf.entry {
                assert!(r == NO_REGION || (r as usize) < nf.regions.len());
            }
            // Every region is reachable through the entry table.
            for idx in 0..nf.regions.len() as u32 {
                assert!(nf.entry.contains(&idx), "orphan region {idx}");
            }
        }
    }

    #[test]
    fn loop_lowers_to_chained_regions_with_fused_terminators() {
        let native = lower(LOOP_SRC);
        let nf = &native.funcs[0];
        let has_cmp_head = nf
            .regions
            .iter()
            .any(|r| matches!(r.term, Term::CmpJump { .. }));
        let has_latch = nf
            .regions
            .iter()
            .any(|r| matches!(r.term, Term::IncJump { .. }));
        assert!(has_cmp_head, "loop head should lower to Term::CmpJump");
        assert!(has_latch, "loop latch should lower to Term::IncJump");
        // The head's fall-through (the loop body) must itself start a
        // region, so a full iteration never leaves the native path.
        for r in &nf.regions {
            if let Term::CmpJump { target, fall, .. } = r.term {
                assert_ne!(nf.entry[fall as usize], NO_REGION, "body has a region");
                assert_ne!(nf.entry[target as usize], NO_REGION, "exit has a region");
            }
        }
    }

    #[test]
    fn charges_match_component_sums() {
        // A straight-line function: one region covering everything up to
        // the Ret breaker, charging exactly the unfused component count.
        let src = "int f() { int x = 3; int y = 4; return x + y; }";
        let fused = fuse_program(compile_source(src).unwrap());
        let native = lower_native(&fused.funcs);
        let nf = &native.funcs[0];
        let entry_region = &nf.regions[nf.entry[0] as usize];
        // The region ends at the Ret; its charge equals the instruction
        // slots it covers (every slot is one component).
        let covered = match entry_region.term {
            Term::Fall(at) => at as u64,
            ref t => panic!("straight-line function should fall to Ret, got {t:?}"),
        };
        assert_eq!(entry_region.charge, covered);
    }

    #[test]
    fn pure_local_runs_group_into_register_blocks() {
        // A dispatch-bound body of local expression arithmetic: the
        // whole thing must collapse into register-form Locals blocks
        // with no ungrouped pure-local runs left at top level.
        let src = "long f(long n) { long t = 0; long u = 1; \
                   t = t + u + 3; t = t + 5; u = u + t; return t + u; }";
        let native = lower(src);
        let mut blocks = 0usize;
        for region in &native.funcs[0].regions {
            let mut run = 0usize;
            for op in &region.ops {
                match op {
                    NOp::Locals(block) => {
                        blocks += 1;
                        assert!(!block.ops.is_empty(), "empty block");
                        // Statement-shaped code is self-contained: a
                        // block never digs below its entry stack, and
                        // leaves at most the `return` expression's one
                        // value behind for the Ret breaker.
                        assert_eq!(block.consumes, 0, "statement block consumes");
                        assert!(block.produces <= 1, "statement block produces");
                        for r in block.ops.iter() {
                            if let ROp::Alu { dst, a, b, .. } = r {
                                assert!(
                                    (*dst as usize) < LOCALS_REGS
                                        && (*a as usize) < LOCALS_REGS
                                        && (*b as usize) < LOCALS_REGS,
                                    "register index out of range"
                                );
                            }
                        }
                        run = 0;
                    }
                    op if is_local_pure(op) => {
                        run += 1;
                        assert!(run < 2, "ungrouped run of pure local ops");
                    }
                    _ => run = 0,
                }
            }
        }
        assert!(blocks > 0, "local-only body should form a block");
    }

    #[test]
    fn register_lowering_resolves_stack_slots() {
        // `t + u` is LoadLocal t, LoadLocal u, Alu(Add): registers 0
        // and 1, the add landing in 0, the store reading 0.
        let run = [
            NOp::LoadLocal {
                off: 0,
                size: AccessSize::B8,
                signed: true,
            },
            NOp::LoadLocal {
                off: 8,
                size: AccessSize::B8,
                signed: true,
            },
            NOp::Alu(AluOp::Add),
            NOp::StoreLocal {
                off: 0,
                size: AccessSize::B8,
            },
        ];
        let block = lower_locals(&run, &mut Vec::new()).expect("shallow run lowers");
        assert_eq!(block.consumes, 0);
        assert_eq!(block.produces, 0);
        assert_eq!(
            &*block.ops,
            &[
                ROp::Load {
                    dst: 0,
                    off: 0,
                    size: AccessSize::B8,
                    signed: true
                },
                ROp::Load {
                    dst: 1,
                    off: 8,
                    size: AccessSize::B8,
                    signed: true
                },
                ROp::Alu {
                    dst: 0,
                    a: 0,
                    b: 1,
                    op: AluOp::Add
                },
                ROp::Store {
                    src: 0,
                    off: 0,
                    size: AccessSize::B8
                },
            ]
        );
    }

    #[test]
    fn register_lowering_biases_entry_stack_consumption() {
        // A run that digs below its entry depth: the consumed values
        // become the low registers and the balance is reported so the
        // executor can move them in and out of the operand stack.
        let run = [
            NOp::StoreLocal {
                off: 0,
                size: AccessSize::B8,
            },
            NOp::Const(7),
        ];
        let block = lower_locals(&run, &mut Vec::new()).expect("shallow run lowers");
        assert_eq!(block.consumes, 1, "the store pops an entry value");
        assert_eq!(block.produces, 1, "the const pushes one back");
        assert_eq!(
            &*block.ops,
            &[
                ROp::Store {
                    src: 0,
                    off: 0,
                    size: AccessSize::B8
                },
                ROp::Const { dst: 0, c: 7 },
            ]
        );
    }

    #[test]
    fn impure_ops_split_locals_blocks() {
        // The division can trap, so it must stay top-level with its
        // seam; the pure prefix and suffix group around it.
        let src = "long f(long a, long b) { long x = a + 1; \
                   long q = x / b; long y = q + 2; return y + x; }";
        let native = lower(src);
        let ops: Vec<&NOp> = native.funcs[0]
            .regions
            .iter()
            .flat_map(|r| &r.ops)
            .collect();
        assert!(
            ops.iter().any(|op| matches!(op, NOp::Div { .. })),
            "division must stay a top-level op"
        );
        assert!(
            ops.iter().any(|op| matches!(op, NOp::Locals(_))),
            "pure neighbours should still group"
        );
    }

    #[test]
    fn heap_accesses_group_into_memory_blocks() {
        // The access_cost copy shape: the loop body's `dst[i] = src[i]`
        // is address arithmetic plus two checked accesses — all block
        // members now, so it must collapse into a single memory block
        // whose address+access pairs fuse into the combined index ops.
        let src = "long f(long n) { long src[4]; long dst[4]; long i; \
                   for (i = 0; i < n; i++) dst[i] = src[i]; return dst[0]; }";
        let native = lower(src);
        let blocks: Vec<&LocalsBlock> = native.funcs[0]
            .regions
            .iter()
            .flat_map(|r| &r.ops)
            .filter_map(|op| match op {
                NOp::Locals(b) => Some(b),
                _ => None,
            })
            .collect();
        assert!(
            blocks.iter().any(|b| b.mem),
            "the copy body must form a memory-spanning block"
        );
        let fused_idx = blocks
            .iter()
            .flat_map(|b| b.ops.iter())
            .filter(|r| matches!(r, ROp::GIdxLoad { .. } | ROp::GIdxStore { .. }))
            .count();
        assert!(
            fused_idx >= 2,
            "variable-index load and store must fuse into GIdx forms"
        );
        for b in &blocks {
            if !b.mem {
                assert!(
                    !b.ops.iter().any(is_heap_rop),
                    "a pure block must not carry heap ops"
                );
            }
        }
    }

    #[test]
    fn heap_lowering_pins_seam_and_spill() {
        // LocalAddr pushes the address (depth 0 → 1); the load pops it
        // and pushes the value back into the same register. A fault at
        // the load must surface the baked seam with an empty spill
        // image (nothing sat below the popped address).
        let seam = FaultAt { pc: 7, spent: 3 };
        let run = [
            NOp::LocalAddr(16),
            NOp::Load {
                size: AccessSize::B8,
                signed: true,
                at: seam,
            },
        ];
        let block = lower_locals(&run, &mut Vec::new()).expect("heap run lowers");
        assert!(block.mem);
        assert_eq!(block.consumes, 0);
        assert_eq!(block.produces, 1);
        assert_eq!(
            &*block.ops,
            &[
                ROp::Addr { dst: 0, off: 16 },
                ROp::GLoad {
                    at: 0,
                    size: AccessSize::B8,
                    signed: true,
                    seam,
                    spill: 0
                },
            ]
        );
    }

    #[test]
    fn ptr_add_access_pairs_fuse_into_idx_ops() {
        // value, base, index, PtrAdd, Store — the classic indexed-store
        // pattern. The PtrAdd's derived pointer feeds the store
        // directly, so the pair must fuse into one GIdxStore carrying
        // the access's seam and the store's spill image (just the
        // not-yet-consumed value... nothing: the store pops both).
        let seam = FaultAt { pc: 11, spent: 4 };
        let run = [
            NOp::Const(5),
            NOp::LocalAddr(0),
            NOp::LoadLocal {
                off: 32,
                size: AccessSize::B8,
                signed: true,
            },
            NOp::PtrAdd { esz: 8 },
            NOp::Store {
                size: AccessSize::B8,
                at: seam,
            },
        ];
        let block = lower_locals(&run, &mut Vec::new()).expect("heap run lowers");
        assert!(block.mem);
        assert_eq!(block.consumes, 0);
        assert_eq!(block.produces, 0);
        assert_eq!(
            &*block.ops,
            &[
                ROp::Const { dst: 0, c: 5 },
                ROp::Addr { dst: 1, off: 0 },
                ROp::Load {
                    dst: 2,
                    off: 32,
                    size: AccessSize::B8,
                    signed: true
                },
                ROp::GIdxStore {
                    ptr: 1,
                    count: 2,
                    val: 0,
                    esz: 8,
                    size: AccessSize::B8,
                    seam,
                    spill: 0
                },
            ]
        );
    }

    #[test]
    fn accum_fault_seam_covers_five_components() {
        let src = "long f() { long acc = 0; long xs[2]; acc += xs[5]; return acc; }";
        let native = lower(src);
        let accum = native.funcs[0]
            .regions
            .iter()
            .flat_map(|r| &r.ops)
            .find_map(|op| match op {
                NOp::IdxAccum { at, .. } => Some(*at),
                _ => None,
            })
            .expect("accumulate statement should lower to IdxAccum");
        // The load is component 4 of the 9-wide pattern: the seam must
        // surface with exactly `prefix + 5` components charged and the
        // load's own architectural pc.
        let fused = fuse_program(compile_source(src).unwrap());
        let head = fused.funcs[0]
            .code
            .iter()
            .position(|i| matches!(i, Instr::FusedLoadIdxAccum { .. }))
            .unwrap() as u32;
        assert_eq!(accum.pc, head + 5);
        assert!(accum.spent >= 5);
    }
}
