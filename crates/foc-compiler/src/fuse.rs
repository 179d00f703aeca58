//! Superinstruction fusion — the `ExecTier::Super` lowering post-pass.
//!
//! The pass rewrites each function's bytecode in place, fusing hot
//! instruction shapes (compare-and-branch loop heads, constant-index
//! array accesses, direct-local increments, constant ALU operands,
//! assignment tails, pointer dereferences) into single fused opcodes the
//! VM dispatches once instead of `k` times.
//!
//! ## Layout preservation
//!
//! Fusion never changes code length and never rewrites a jump target.
//! The fused opcode replaces only the *first* instruction of its
//! pattern; the remaining `k - 1` component instructions stay in their
//! slots. Consequences:
//!
//! * a jump into the middle of a fused region lands on original,
//!   unfused instructions and executes the pattern's tail exactly as
//!   the baseline tier would;
//! * the VM can *deopt* out of a fused opcode (when remaining fuel
//!   cannot cover the whole pattern) by executing just the first
//!   component and resuming the interpreter at `pc + 1` — mid-pattern
//!   fuel exhaustion then lands on the same architectural state,
//!   instruction counts, and fault pc as the baseline tier.
//!
//! ## Accounting contract
//!
//! A fused opcode charges exactly `k` fuel units, `k` instruction
//! counts, and `k * cost::BASE` cycles (plus the same `PTR_CHECK` /
//! `MEM_CHECK` extras its components charge), and presents memory
//! accesses with the same `AccessCtx { func, pc }` the unfused pattern
//! would — error-log contents are byte-identical across tiers. Patterns
//! are chosen so only their *last* component can fault (loads/stores);
//! division stays unfused because its divide-by-zero fault point must
//! remain a separate architectural instruction.

use foc_memory::AccessSize;

use crate::bytecode::{pack_scalar, AluOp, CmpOp, CompiledProgram, Instr};

/// Execution tier of a compiled image.
///
/// The tier is part of every boot spec: fused and unfused images hash to
/// different [`crate::ProgramId`]s (the bytecode differs), so they never
/// alias in the image or checkpoint caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecTier {
    /// The unfused baseline instruction stream straight out of `lower`.
    Baseline,
    /// The superinstruction stream produced by [`fuse_program`].
    Super,
    /// The fused stream plus an AOT-lowered region artifact
    /// ([`crate::native::lower_native`]): straight-line runs execute as
    /// pre-decoded micro-op arrays with no per-instruction dispatch,
    /// deopting to the interpreter at the same seams the fused opcodes
    /// use. The shipped default: the fastest tier on every measured
    /// workload, and observationally identical to the other two.
    #[default]
    Native,
}

/// Environment variable naming an execution tier (`baseline`, `super`,
/// or `native`; unset means [`ExecTier::default`]). No library code
/// reads it: bench binaries parse it once in `main` through
/// `foc-servers`' `BootSpec::from_env`, and `loadbench` refuses to run
/// while it is set.
pub const EXEC_TIER_ENV: &str = "FOC_EXEC_TIER";

impl ExecTier {
    /// Every tier, in cache-slot order.
    pub const ALL: [ExecTier; 3] = [ExecTier::Baseline, ExecTier::Super, ExecTier::Native];

    /// Dense index (cache slot).
    pub fn index(self) -> usize {
        match self {
            ExecTier::Baseline => 0,
            ExecTier::Super => 1,
            ExecTier::Native => 2,
        }
    }

    /// Stable label used in reports and diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            ExecTier::Baseline => "baseline",
            ExecTier::Super => "super",
            ExecTier::Native => "native",
        }
    }
}

impl std::str::FromStr for ExecTier {
    type Err = String;

    /// Case-insensitive tier name; the error message lists the valid
    /// spellings so a typo in `FOC_EXEC_TIER` is self-diagnosing.
    fn from_str(s: &str) -> Result<ExecTier, String> {
        for tier in ExecTier::ALL {
            if s.eq_ignore_ascii_case(tier.label()) {
                return Ok(tier);
            }
        }
        Err(format!(
            "unknown execution tier {s:?} (valid tiers: baseline, super, native)"
        ))
    }
}

/// Runs the fusion pass over every function of a program, rewriting it
/// in place (fusion never changes code length, so no function is
/// reallocated). Callers that still need the unfused stream fuse a
/// clone.
pub fn fuse_program(mut program: CompiledProgram) -> CompiledProgram {
    for func in &mut program.funcs {
        fuse_code(&mut func.code);
    }
    program
}

/// Fuses one function's code in place. Scanning is greedy left-to-right,
/// longest pattern first; after a fusion the scan resumes past the whole
/// pattern so fused regions never overlap (their tail slots must keep
/// the original instructions).
fn fuse_code(code: &mut [Instr]) {
    let mut i = 0;
    while i < code.len() {
        if let Some((fused, k)) = match_at(code, i) {
            code[i] = fused;
            i += k;
        } else {
            i += 1;
        }
    }
}

/// Tries every fusion pattern at index `i`, longest first. Returns the
/// fused opcode and the component count `k` on a match.
fn match_at(code: &[Instr], i: usize) -> Option<(Instr, usize)> {
    match_load_idx_accum(code, i)
        .or_else(|| match_inc_jump(code, i))
        .or_else(|| match_inc_local(code, i))
        .or_else(|| match_cmp_jump(code, i))
        .or_else(|| match_local_idx(code, i))
        .or_else(|| match_store_local_pop(code, i))
        .or_else(|| match_load_load(code, i))
        .or_else(|| match_const_alu(code, i))
}

fn cmp_op_of(instr: Instr) -> Option<CmpOp> {
    Some(match instr {
        Instr::Eq => CmpOp::Eq,
        Instr::Ne => CmpOp::Ne,
        Instr::LtS => CmpOp::LtS,
        Instr::LtU => CmpOp::LtU,
        Instr::LeS => CmpOp::LeS,
        Instr::LeU => CmpOp::LeU,
        Instr::GtS => CmpOp::GtS,
        Instr::GtU => CmpOp::GtU,
        Instr::GeS => CmpOp::GeS,
        Instr::GeU => CmpOp::GeU,
        _ => return None,
    })
}

fn alu_op_of(instr: Instr) -> Option<AluOp> {
    Some(match instr {
        Instr::Add => AluOp::Add,
        Instr::Sub => AluOp::Sub,
        Instr::Mul => AluOp::Mul,
        Instr::And => AluOp::And,
        Instr::Or => AluOp::Or,
        Instr::Xor => AluOp::Xor,
        Instr::Shl => AluOp::Shl,
        Instr::ShrS => AluOp::ShrS,
        Instr::ShrU => AluOp::ShrU,
        _ => return None,
    })
}

/// `LoadLocal a; LoadLocal b; <cmp>; Normalize; JumpIf(Not)Zero t` →
/// `FusedCmpJump` (k = 5), the canonical loop head: comparisons produce
/// an `int`, so lowering re-normalizes the flag before the branch. The
/// `Normalize` is an identity on the comparison's 0/1 result, and the
/// branch sense is folded into the stored comparison (jump-when-true).
fn match_cmp_jump(code: &[Instr], i: usize) -> Option<(Instr, usize)> {
    let [Instr::LoadLocal(a, asz, asg), Instr::LoadLocal(b, bsz, bsg), cmp, Instr::Normalize(..), branch] =
        *code.get(i..i + 5)?
    else {
        return None;
    };
    let op = cmp_op_of(cmp)?;
    let (op, target) = match branch {
        Instr::JumpIfNotZero(t) => (op, t),
        Instr::JumpIfZero(t) => (op.negate(), t),
        _ => return None,
    };
    Some((
        Instr::FusedCmpJump {
            a,
            b,
            a_repr: pack_scalar(asz, asg),
            b_repr: pack_scalar(bsz, bsg),
            op,
            target,
        },
        5,
    ))
}

/// `LoadLocal acc; LocalAddr; Const idx; PtrAdd esz; Load; Add; Dup;
/// StoreLocal acc; Drop` → `FusedLoadIdxAccum` (k = 9) — the whole
/// `acc += xs[IDX]` statement, the inner-loop body of every scan/sum
/// kernel. The index is folded into a byte delta at fusion time
/// (`ptr_add` only consumes the product), which is also why fusion
/// requires the product to fit `i32` without overflow: when it does,
/// the folded arithmetic matches the runtime `wrapping_mul` exactly.
fn match_load_idx_accum(code: &[Instr], i: usize) -> Option<(Instr, usize)> {
    let [Instr::LoadLocal(acc, asz, asg), Instr::LocalAddr(addr), Instr::Const(c), Instr::PtrAdd(esz), Instr::Load(lsz, lsg), Instr::Add, Instr::Dup, Instr::StoreLocal(dst, ssz), Instr::Drop] =
        *code.get(i..i + 9)?
    else {
        return None;
    };
    // The accumulate idiom: store back into the local that was loaded.
    if dst != acc {
        return None;
    }
    let delta = i32::try_from(c.checked_mul(esz as i64)?).ok()?;
    Some((
        Instr::FusedLoadIdxAccum {
            acc,
            addr,
            delta,
            load_repr: pack_scalar(lsz, lsg),
            acc_repr: pack_scalar(asz, asg),
            size: ssz,
        },
        9,
    ))
}

/// `LocalAddr; Const idx; PtrAdd esz; Load|Store` →
/// `FusedLocalIdxLoad|Store` (k = 4) — the constant-index array access,
/// in or out of bounds (the fused path still routes through `ptr_add`
/// and the checked access, so OOB interning, logging, and manufactured
/// values are identical).
fn match_local_idx(code: &[Instr], i: usize) -> Option<(Instr, usize)> {
    let [Instr::LocalAddr(off), Instr::Const(c), Instr::PtrAdd(esz), access] =
        *code.get(i..i + 4)?
    else {
        return None;
    };
    let idx = i32::try_from(c).ok()?;
    let esz = u16::try_from(esz).ok()?;
    let fused = match access {
        Instr::Load(size, signed) => Instr::FusedLocalIdxLoad {
            off,
            idx,
            esz,
            repr: pack_scalar(size, signed),
        },
        Instr::Store(size) => Instr::FusedLocalIdxStore {
            off,
            idx,
            esz,
            size,
        },
        _ => return None,
    };
    Some((fused, 4))
}

/// Direct-local increment statements (k = 6 without `Normalize`, 7 with):
///
/// * postfix `i++;` — `LoadLocal; Dup; Const d; Add; [Normalize;]
///   StoreLocal; Drop`
/// * prefix `++i;` — `LoadLocal; Const d; Add; [Normalize;] Dup;
///   StoreLocal; Drop`
///
/// Both shapes leave the stack untouched and store
/// `normalize(local + d)`; the fused opcode only needs the first
/// component (`LoadLocal`) for the deopt path, so one opcode covers all
/// four shapes.
fn match_inc_local(code: &[Instr], i: usize) -> Option<(Instr, usize)> {
    let Instr::LoadLocal(off, size, signed) = *code.get(i)? else {
        return None;
    };
    let rest = code.get(i + 1..)?;
    // Split the two shapes on the position of `Dup`.
    let (delta, after_add) = match *rest {
        [Instr::Dup, Instr::Const(d), Instr::Add, ..] => (d, &rest[3..]),
        [Instr::Const(d), Instr::Add, ..] => (d, &rest[2..]),
        _ => return None,
    };
    let postfix = matches!(rest[0], Instr::Dup);
    let delta = i32::try_from(delta).ok()?;
    // Narrow locals re-normalize after the add; B8 locals never do.
    let after_norm = match *after_add.first()? {
        Instr::Normalize(nsz, nsg) if nsz == size && nsg == signed && size != AccessSize::B8 => {
            &after_add[1..]
        }
        _ if size == AccessSize::B8 => after_add,
        _ => return None,
    };
    let has_norm = !std::ptr::eq(after_norm.as_ptr(), after_add.as_ptr());
    let tail_ok = if postfix {
        matches!(*after_norm, [Instr::StoreLocal(o, s), Instr::Drop, ..] if o == off && s == size)
    } else {
        matches!(
            *after_norm,
            [Instr::Dup, Instr::StoreLocal(o, s), Instr::Drop, ..] if o == off && s == size
        )
    };
    if !tail_ok {
        return None;
    }
    let len = 6 + has_norm as u8;
    Some((
        Instr::FusedIncLocal {
            off,
            delta,
            repr: pack_scalar(size, signed),
            len,
        },
        len as usize,
    ))
}

/// An increment statement followed by an unconditional `Jump` — the
/// loop latch every counted loop executes per iteration — fuses into
/// one dispatch (k = 7 or 8, jump included).
fn match_inc_jump(code: &[Instr], i: usize) -> Option<(Instr, usize)> {
    let (
        Instr::FusedIncLocal {
            off,
            delta,
            repr,
            len,
        },
        k,
    ) = match_inc_local(code, i)?
    else {
        return None;
    };
    let Instr::Jump(target) = *code.get(i + k)? else {
        return None;
    };
    Some((
        Instr::FusedIncJump {
            off,
            delta,
            repr,
            len: len + 1,
            target,
        },
        k + 1,
    ))
}

/// `Dup; StoreLocal; Drop` → `FusedStoreLocalPop` (k = 3) — the
/// direct-local assignment statement tail.
fn match_store_local_pop(code: &[Instr], i: usize) -> Option<(Instr, usize)> {
    let [Instr::Dup, Instr::StoreLocal(off, size), Instr::Drop] = *code.get(i..i + 3)? else {
        return None;
    };
    Some((Instr::FusedStoreLocalPop { off, size }, 3))
}

/// `LoadLocal (B8); Load` → `FusedLoadLoad` (k = 2) — dereference of a
/// pointer held in a scalar local. Only pointer-width locals qualify
/// (narrow locals cannot hold a guest address).
fn match_load_load(code: &[Instr], i: usize) -> Option<(Instr, usize)> {
    let [Instr::LoadLocal(off, AccessSize::B8, _), Instr::Load(size, signed)] =
        *code.get(i..i + 2)?
    else {
        return None;
    };
    Some((
        Instr::FusedLoadLoad {
            off,
            repr: pack_scalar(size, signed),
        },
        2,
    ))
}

/// `Const c; <alu>` → `FusedConstAlu` (k = 2). Comparisons are excluded
/// (they would defeat the VM's runtime compare+branch peephole) and so
/// are division/remainder (fault-point preservation).
fn match_const_alu(code: &[Instr], i: usize) -> Option<(Instr, usize)> {
    let [Instr::Const(c), alu] = *code.get(i..i + 2)? else {
        return None;
    };
    let op = alu_op_of(alu)?;
    let c = i32::try_from(c).ok()?;
    Some((Instr::FusedConstAlu { c, op }, 2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_source;

    fn fused_main(source: &str) -> Vec<Instr> {
        let program = compile_source(source).expect("compiles");
        let fused = fuse_program(program);
        let idx = fused.func_index("main").unwrap() as usize;
        fused.funcs[idx].code.clone()
    }

    fn count_fused(code: &[Instr]) -> usize {
        code.iter()
            .filter(|i| {
                matches!(
                    i,
                    Instr::FusedCmpJump { .. }
                        | Instr::FusedLoadIdxAccum { .. }
                        | Instr::FusedLocalIdxLoad { .. }
                        | Instr::FusedLocalIdxStore { .. }
                        | Instr::FusedIncLocal { .. }
                        | Instr::FusedIncJump { .. }
                        | Instr::FusedConstAlu { .. }
                        | Instr::FusedStoreLocalPop { .. }
                        | Instr::FusedLoadLoad { .. }
                )
            })
            .count()
    }

    #[test]
    fn instr_stays_within_16_bytes() {
        // `Const(i64)` sets the floor; the fused payloads must not grow
        // the enum past it (interpreter code-cache footprint).
        assert_eq!(std::mem::size_of::<Instr>(), 16);
    }

    #[test]
    fn fusion_preserves_code_length_and_tails() {
        let program = compile_source(
            "long spin(long n) { int xs[2]; long i; long acc = 0; \
             for (i = 0; i < n; i++) acc += xs[5]; return acc; }
             int main() { return 0; }",
        )
        .unwrap();
        let fused = fuse_program(program.clone());
        for (f, g) in program.funcs.iter().zip(&fused.funcs) {
            assert_eq!(f.code.len(), g.code.len(), "{}: length changed", f.name);
            for (i, (a, b)) in f.code.iter().zip(&g.code).enumerate() {
                if a != b {
                    // Only pattern heads are rewritten, and always to a
                    // fused opcode.
                    assert_eq!(count_fused(&[*b]), 1, "{}@{i}: {a} -> {b}", f.name);
                }
            }
        }
    }

    #[test]
    fn spin_loop_fuses_head_body_and_step() {
        let code = fused_main(
            "int main() { int xs[2]; long i; long acc = 0; long n = 4; \
             for (i = 0; i < n; i++) acc += xs[1]; return 0; }",
        );
        assert!(
            code.iter().any(|i| matches!(i, Instr::FusedCmpJump { .. })),
            "loop head fuses: {code:?}"
        );
        assert!(
            code.iter()
                .any(|i| matches!(i, Instr::FusedLoadIdxAccum { .. })),
            "accumulate body fuses whole: {code:?}"
        );
        assert!(
            code.iter().any(|i| matches!(i, Instr::FusedIncJump { .. })),
            "loop latch (step + back-jump) fuses: {code:?}"
        );
    }

    #[test]
    fn accum_mega_op_folds_index_and_keeps_smaller_fusions_elsewhere() {
        // `acc += xs[5]` with int elements folds to a byte delta of 20;
        // a non-accumulate read of the same array still takes the
        // smaller `FusedLocalIdxLoad`.
        let code = fused_main(
            "int main() { int xs[2]; long acc = 0; \
             acc += xs[5]; return (int) (acc + xs[1]); }",
        );
        let delta = code.iter().find_map(|i| match i {
            Instr::FusedLoadIdxAccum { delta, .. } => Some(*delta),
            _ => None,
        });
        assert_eq!(delta, Some(20), "{code:?}");
        assert!(
            code.iter()
                .any(|i| matches!(i, Instr::FusedLocalIdxLoad { .. })),
            "{code:?}"
        );
    }

    #[test]
    fn const_index_store_fuses() {
        let code = fused_main("int main() { int xs[2]; xs[5] = 7; return 0; }");
        assert!(
            code.iter()
                .any(|i| matches!(i, Instr::FusedLocalIdxStore { .. })),
            "{code:?}"
        );
    }

    #[test]
    fn pointer_deref_fuses() {
        let code = fused_main("int main() { int x; int *p; p = &x; *p = 3; return *p; }");
        assert!(
            code.iter()
                .any(|i| matches!(i, Instr::FusedLoadLoad { .. })),
            "{code:?}"
        );
    }

    #[test]
    fn division_never_fuses() {
        // Div/Rem keep their own dispatch slot so the divide-by-zero
        // fault pc stays architectural.
        let code = fused_main("int main() { int a; a = 9; return a / 3 + a % 2; }");
        assert!(code.contains(&Instr::DivS), "{code:?}");
        assert!(code.contains(&Instr::RemS), "{code:?}");
    }

    #[test]
    fn cmp_jump_folds_branch_sense() {
        // `while (i < n)` compiles to LtS + JumpIfZero(end): the fused
        // opcode must jump on the *negated* comparison.
        let code = fused_main(
            "int main() { long i; long n = 3; i = 0; while (i < n) { i++; } return 0; }",
        );
        let fused = code.iter().find_map(|i| match i {
            Instr::FusedCmpJump { op, .. } => Some(*op),
            _ => None,
        });
        assert_eq!(fused, Some(CmpOp::GeS), "{code:?}");
    }

    #[test]
    fn tier_labels_and_slots_are_stable() {
        assert_eq!(ExecTier::Baseline.label(), "baseline");
        assert_eq!(ExecTier::Super.label(), "super");
        assert_eq!(ExecTier::Native.label(), "native");
        assert_eq!(ExecTier::Baseline.index(), 0);
        assert_eq!(ExecTier::Super.index(), 1);
        assert_eq!(ExecTier::Native.index(), 2);
    }

    #[test]
    fn tier_parsing_round_trips_and_rejects_unknown_values() {
        for tier in ExecTier::ALL {
            assert_eq!(tier.label().parse::<ExecTier>(), Ok(tier));
            assert_eq!(tier.label().to_uppercase().parse::<ExecTier>(), Ok(tier));
        }
        let err = "jit".parse::<ExecTier>().unwrap_err();
        assert!(err.contains("\"jit\""), "error names the bad value: {err}");
        for valid in ["baseline", "super", "native"] {
            assert!(err.contains(valid), "error lists {valid}: {err}");
        }
        assert!("".parse::<ExecTier>().is_err());
    }
}
