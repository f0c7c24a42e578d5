//! # flexcl-sim
//!
//! Cycle-level FPGA execution simulator — the "System Run" ground truth of
//! the FlexCL evaluation (DAC'17 reproduction).
//!
//! In the paper, every design point is synthesized to a bitstream with
//! SDAccel, run on the ADM-PCIE-7V3 board, and timed with the runtime
//! profiler. A reproduction without that hardware needs an executable
//! stand-in that contains the effects the analytical model *approximates*:
//!
//! * per-operation implementation variance (SDAccel picks among IP variants
//!   with different latencies; FlexCL models the average — the paper's
//!   first stated error source);
//! * true per-access DRAM behaviour through a banked, open-row simulator
//!   (the second stated error source: the model uses per-pattern average
//!   latencies);
//! * serialized per-CU AXI burst engines, pipeline stalls when memory lags
//!   computation, and round-robin work-group dispatch with jittered
//!   scheduling overhead.
//!
//! All variance is seeded and deterministic: like a real synthesis run, a
//! given (kernel, configuration, seed) always produces the same "bitstream".
//!
//! [`system_run`] analyzes the kernel at the configuration's work-group
//! and then runs [`simulate`]; a caller that already holds that analysis
//! (a design-space sweep does, one per work-group family) passes it to
//! [`simulate`] directly and skips the re-analysis.
//!
//! ```no_run
//! use flexcl_core::{OptimizationConfig, Platform, Workload};
//! use flexcl_interp::KernelArg;
//! use flexcl_sim::{system_run, SimOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = flexcl_frontend::parse_and_check(
//!     "__kernel void inc(__global int* a) {
//!          int i = get_global_id(0);
//!          a[i] = a[i] + 1;
//!      }",
//! )?;
//! let func = flexcl_ir::lower_kernel(&program.kernels[0])?;
//! let workload = Workload { args: vec![KernelArg::IntBuf(vec![0; 4096])], global: (4096, 1) };
//! let config = OptimizationConfig::baseline((64, 1));
//! let measured = system_run(
//!     &func,
//!     &Platform::virtex7_adm7v3(),
//!     &workload,
//!     &config,
//!     SimOptions::default(),
//! )?;
//! println!("system run: {} cycles", measured.cycles);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod perturb;

pub use engine::{simulate, system_run, SimError, SimOptions, SimResult};
