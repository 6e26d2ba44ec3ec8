//! # smokestack-repro
//!
//! A from-scratch Rust reproduction of **"Smokestack: Thwarting DOP
//! Attacks with Runtime Stack Layout Randomization"** (Aga & Austin,
//! CGO 2019): per-invocation stack-layout randomization implemented as
//! compiler instrumentation over a purpose-built IR, VM, and C-like
//! front-end, together with the paper's baseline defenses, its DOP
//! attack suite, and a benchmark harness that regenerates every table
//! and figure of its evaluation.
//!
//! This crate is the facade: it re-exports the workspace members and
//! offers [`harden_source`] as the one-call entry point.
//!
//! | crate | role |
//! |-------|------|
//! | [`ir`] | SSA-like typed IR + pass framework |
//! | [`srng`] | AES-128 CTR, insecure pseudo PRNG, simulated RDRAND |
//! | [`vm`] | flat-memory interpreter with a cycle model |
//! | [`minic`] | C-like front-end |
//! | [`core`] | the paper's contribution: P-BOX + instrumentation |
//! | [`defenses`] | prior stack-randomization schemes |
//! | [`attacks`] | DOP attack framework + CVE case studies |
//! | [`workloads`] | SPEC-2006-style benchmark corpus |
//! | [`telemetry`] | flight recorder: event trace, metrics, per-function spans |
//!
//! # Examples
//!
//! ```
//! use smokestack_repro::{harden_source, vm::{Executor, Exit, ScriptedInput}};
//!
//! let (module, report) = harden_source(
//!     "int main() { int x = 1; char buf[16]; long y = 2; return x; }",
//! ).unwrap();
//! assert_eq!(report.functions_instrumented, 1);
//! let exec = Executor::for_module(module).build();
//! assert_eq!(exec.run_main(ScriptedInput::empty()).exit, Exit::Return(1));
//! ```

#![warn(missing_docs)]

pub use smokestack_analyzer as analyzer;
pub use smokestack_attacks as attacks;
pub use smokestack_campaign as campaign;
pub use smokestack_core as core;
pub use smokestack_defenses as defenses;
pub use smokestack_fuzz as fuzz;
pub use smokestack_ir as ir;
pub use smokestack_minic as minic;
pub use smokestack_srng as srng;
pub use smokestack_telemetry as telemetry;
pub use smokestack_vm as vm;
pub use smokestack_workloads as workloads;

use smokestack_core::{harden, HardenReport, SmokestackConfig};
use smokestack_ir::Module;
use smokestack_minic::CompileError;

/// Compile MiniC source and apply the full Smokestack pipeline with
/// default configuration (P-BOX sharing optimizations on, guards on).
///
/// # Errors
///
/// Returns the front-end error if `src` does not compile.
pub fn harden_source(src: &str) -> Result<(Module, HardenReport), CompileError> {
    let mut module = smokestack_minic::compile(src)?;
    let report = harden(&mut module, &SmokestackConfig::default())
        .expect("instrumentation cannot fail on a freshly compiled module");
    Ok((module, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use smokestack_vm::{Executor, Exit, ScriptedInput};

    #[test]
    fn harden_source_end_to_end() {
        let (m, report) =
            harden_source("int main() { int a = 20; long b = 22; return a + b; }").unwrap();
        assert!(report.pbox_bytes > 0);
        let exec = Executor::for_module(m).build();
        assert_eq!(exec.run_main(ScriptedInput::empty()).exit, Exit::Return(42));
    }

    #[test]
    fn harden_source_propagates_compile_errors() {
        assert!(harden_source("int main( {").is_err());
    }
}
