//! Set-up cost: compiling each server image and booting it the first
//! time, repeated and reported as medians. The first repetition is the
//! process's real first boot (it fills the image and checkpoint caches
//! the workload then restores from); the others compile and boot
//! uncached, doing the same work again.

use std::time::Instant;

use foc_memory::Mode;
use foc_servers::{BootSpec, ServerKind};

use crate::server::Server;
use crate::stats::median;
use crate::trace::{Tracer, NONE};

/// Repetitions of the whole set-up.
const REPS: usize = 31;

pub struct Setup {
    /// Median compile + first boot of every kind, seconds (`setup_s`).
    pub total_s: f64,
    /// Median per-repetition sums, milliseconds.
    pub frontend_ms: f64,
    pub compile_ms: f64,
    pub boot_ms: f64,
}

fn ms(a: Instant, b: Instant) -> f64 {
    b.duration_since(a).as_secs_f64() * 1e3
}

/// Measures set-up for `servers`; when `trace` is set also times the
/// front end alone and records `setup.*` spans.
pub fn measure(servers: &[(ServerKind, Mode)], trace: bool, tracer: &mut Tracer) -> Setup {
    tracer.set_on(trace);
    let (mut total, mut frontend, mut compile, mut boot) = (vec![], vec![], vec![], vec![]);
    for rep in 0..REPS {
        let (mut f, mut c, mut b) = (0.0, 0.0, 0.0);
        for &(kind, mode) in servers {
            let spec = BootSpec::new(kind, mode);
            if trace {
                let t0 = Instant::now();
                tracer.open_at("setup.frontend", NONE, t0);
                let hir = foc_lang::frontend(kind.source()).expect("server source type-checks");
                std::hint::black_box(hir);
                let t1 = Instant::now();
                tracer.close_at(t1);
                f += ms(t0, t1);
            }
            let t0 = Instant::now();
            tracer.open_at("setup.compile", NONE, t0);
            let image = if rep == 0 {
                kind.image_tier(spec.tier)
            } else {
                foc_compiler::compile_image_tier(kind.source(), spec.tier)
                    .expect("server source compiles")
            };
            let t1 = Instant::now();
            tracer.close_at(t1);
            tracer.open_at("setup.first_boot", NONE, t1);
            let server = if rep == 0 {
                Server::boot(kind, &spec)
            } else {
                Server::boot_uncached(kind, &image, &spec)
            };
            std::hint::black_box(&server);
            let t2 = Instant::now();
            tracer.close_at(t2);
            c += ms(t0, t1);
            b += ms(t1, t2);
        }
        total.push((c + b) / 1e3);
        frontend.push(f);
        compile.push(c);
        boot.push(b);
    }
    tracer.set_on(false);
    Setup {
        total_s: median(&total),
        frontend_ms: median(&frontend),
        compile_ms: median(&compile),
        boot_ms: median(&boot),
    }
}
