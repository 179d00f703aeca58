//! MiniC bytecode compiler.
//!
//! Lowers the typed HIR from `foc-lang` into a stack-machine bytecode whose
//! memory instructions are exactly the operations the `foc-memory`
//! substrate checks:
//!
//! * [`bytecode::Instr::Load`] / [`bytecode::Instr::Store`] — every scalar
//!   access the program performs, subject to the mode's checking and
//!   continuation code at run time;
//! * [`bytecode::Instr::PtrAdd`] — instrumented pointer arithmetic (the
//!   Jones & Kelly / CRED hook that classifies derived pointers as in- or
//!   out-of-bounds);
//! * [`bytecode::Instr::EffAddr`] — pointer-to-integer bridging so that
//!   comparisons and casts involving out-of-bounds pointers behave as CRED
//!   specifies.
//!
//! There is deliberately no "unsafe" variant of the instruction set: the
//! *same* compiled program runs under every policy; the execution mode of
//! the memory space decides whether checks happen. This mirrors the
//! paper's methodology of compiling one source three ways, while keeping
//! compiled images byte-identical across modes (stronger than the paper:
//! any behavioural difference is attributable to the policy alone).

pub mod bytecode;
pub mod fuse;
pub mod image;
pub mod lower;
pub mod native;

pub use bytecode::{AluOp, CmpOp, CompiledFunc, CompiledProgram, FrameLayout, GlobalImage, Instr};
pub use fuse::{fuse_program, ExecTier, EXEC_TIER_ENV};
pub use image::{Fnv1a, ProgramId, ProgramImage};
pub use lower::{compile, CompileError};
pub use native::{lower_native, NativeProgram};

/// Convenience: front end plus lowering in one call.
pub fn compile_source(source: &str) -> Result<CompiledProgram, String> {
    let program = foc_lang::frontend(source).map_err(|e| e.to_string())?;
    compile(program).map_err(|e| e.to_string())
}

/// Compiles source straight into a shareable [`ProgramImage`] — the
/// entry point machines and image caches use. Always the baseline tier;
/// see [`compile_image_tier`] for the fused stream.
pub fn compile_image(source: &str) -> Result<ProgramImage, String> {
    compile_image_tier(source, ExecTier::Baseline)
}

/// Compiles source into a [`ProgramImage`] for the given execution
/// tier. Every tier's image has a distinct [`ProgramId`] — the fused
/// bytecode differs from the baseline, and the native image (same fused
/// bytecode plus the AOT region artifact) carries a tag in its id — so
/// tiered images never alias in downstream caches.
pub fn compile_image_tier(source: &str, tier: ExecTier) -> Result<ProgramImage, String> {
    let program = compile_source(source)?;
    Ok(match tier {
        ExecTier::Baseline => ProgramImage::new(program),
        ExecTier::Super => ProgramImage::new(fuse_program(program)),
        ExecTier::Native => {
            let fused = fuse_program(program);
            let native = lower_native(&fused.funcs);
            ProgramImage::with_native(fused, native)
        }
    })
}
