//! The input corpus: Rodinia and PolyBench kernels at `Scale::Test`,
//! compiled through the frontend and IR layers under spans.

use crate::trace;
use flexcl_core::{DesignPoint, Platform, Workload};
use flexcl_interp::KernelArg;
use flexcl_ir::Function;
use flexcl_kernels::{KernelSpec, Scale};
use flexcl_sim::{system_run, SimOptions};

/// Seed of the corpus input generator. Kernel inputs are fixed so that
/// estimates, digests and `model_err_pct` are identical on every run;
/// `--seed` decides which kernels a run visits and in what order.
pub const INPUT_SEED: u64 = 1234;

pub fn platform() -> Platform {
    Platform::virtex7_adm7v3()
}

pub fn find(name: &str) -> KernelSpec {
    flexcl_kernels::all()
        .into_iter()
        .find(|s| s.full_name() == name)
        .unwrap_or_else(|| panic!("no corpus kernel {name}"))
}

pub fn workload(spec: &KernelSpec) -> Workload {
    spec.workload(Scale::Test, INPUT_SEED)
}

/// Parses and lowers a corpus kernel, one span per layer.
pub fn compile(source: &str, kernel: &str) -> Function {
    let program = trace::timed("frontend.parse", || flexcl_frontend::parse_and_check(source))
        .expect("corpus kernel parses");
    let kernel = program.kernel(kernel).expect("corpus kernel present");
    trace::timed("ir.lower", || flexcl_ir::lower_kernel(kernel)).expect("corpus kernel lowers")
}

/// Longest pointer buffer of the kernel's corpus workload, in elements:
/// what a served request for this kernel needs as `buf_elems`.
pub fn buf_elems(spec: &KernelSpec) -> u64 {
    workload(spec)
        .args
        .iter()
        .map(|a| match a {
            KernelArg::IntBuf(v) => v.len() as u64,
            KernelArg::FloatBuf(v) => v.len() as u64,
            _ => 0,
        })
        .max()
        .unwrap_or(1)
}

/// |model − sim| / sim of one best point, in percent. The simulator runs
/// outside every timed region.
pub fn model_err_pct(func: &Function, workload: &Workload, best: &DesignPoint) -> f64 {
    let sim = trace::timed("sim.system_run", || {
        system_run(func, &platform(), workload, &best.config, SimOptions::default())
    })
    .expect("simulator runs the best point");
    (best.estimate.cycles - sim.cycles).abs() / sim.cycles * 100.0
}

/// Canonical result line of one best point, for the digest.
pub fn best_line(name: &str, points: usize, best: &DesignPoint) -> String {
    format!("{name}|{points}|{}|{:016x}", best.config, best.estimate.cycles.to_bits())
}
