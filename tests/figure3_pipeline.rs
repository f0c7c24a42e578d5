//! Experiment E6 — the paper's Figure 3: work-item pipelining of a kernel
//! with an inter-work-item data dependency.
//!
//! Figure 3 shows `add.cl` where work-item `i+1` consumes work-item `i`'s
//! store; the recurrence forces `II = MII = 2` with pipeline depth 6 in
//! the paper's toy latency setting. This test reproduces the *mechanism*
//! end-to-end on the real pipeline (frontend → IR → recurrence analysis →
//! SMS → model): the scheduler-level reproduction of the exact II = 2 /
//! D = 6 numbers lives in `flexcl-sched`'s unit tests with the paper's
//! latencies.

use flexcl_core::{estimate, KernelAnalysis, OptimizationConfig, Platform, Workload};
use flexcl_interp::KernelArg;

const DEPENDENT: &str = "
    __kernel void add(__global float* a, __global float* b) {
        int i = get_global_id(0);
        b[i + 1] = b[i] + a[i];
    }";

const INDEPENDENT: &str = "
    __kernel void add(__global float* a, __global float* b) {
        int i = get_global_id(0);
        b[i] = b[i] + a[i];
    }";

fn analyze(src: &str) -> KernelAnalysis {
    let program = flexcl_frontend::parse_and_check(src).expect("frontend");
    let func = flexcl_ir::lower_kernel(&program.kernels[0]).expect("lowering");
    let workload = Workload {
        args: vec![KernelArg::FloatBuf(vec![1.0; 1024]), KernelArg::FloatBuf(vec![0.0; 1025])],
        global: (1024, 1),
    };
    KernelAnalysis::analyze(&func, &Platform::virtex7_adm7v3(), &workload, (64, 1))
        .expect("analysis")
}

#[test]
fn dependent_kernel_has_distance_one_recurrence() {
    let analysis = analyze(DEPENDENT);
    assert_eq!(analysis.recurrences.len(), 1);
    assert_eq!(analysis.recurrences[0].distance, 1);
    assert!(analysis.rec_mii() > 1, "RecMII = {}", analysis.rec_mii());
}

#[test]
fn independent_kernel_reaches_ii_one() {
    let analysis = analyze(INDEPENDENT);
    assert!(analysis.recurrences.is_empty());
    assert_eq!(analysis.rec_mii(), 1);
    let cfg =
        OptimizationConfig { work_item_pipeline: true, ..OptimizationConfig::baseline((64, 1)) };
    let est = estimate(&analysis, &cfg).expect("estimate");
    assert_eq!(est.ii_comp, 1, "no recurrence, ample resources: II = 1");
}

#[test]
fn recurrence_gates_the_pipelined_ii() {
    let dep = analyze(DEPENDENT);
    let cfg =
        OptimizationConfig { work_item_pipeline: true, ..OptimizationConfig::baseline((64, 1)) };
    let est = estimate(&dep, &cfg).expect("estimate");
    assert_eq!(est.ii_comp, dep.rec_mii(), "the recurrence is the binding constraint");
    assert!(est.depth > est.ii_comp, "pipeline deeper than its interval");
}

#[test]
fn pipelining_gains_less_under_recurrence() {
    // Work-item pipelining speeds up the independent kernel far more than
    // the dependent one — Figure 3's point: II is what pipelining buys,
    // and the recurrence caps it.
    let base = OptimizationConfig::baseline((64, 1));
    let piped = OptimizationConfig { work_item_pipeline: true, ..base };

    let dep = analyze(DEPENDENT);
    let ind = analyze(INDEPENDENT);
    let gain_dep = estimate(&dep, &base).expect("estimate").cycles
        / estimate(&dep, &piped).expect("estimate").cycles;
    let gain_ind = estimate(&ind, &base).expect("estimate").cycles
        / estimate(&ind, &piped).expect("estimate").cycles;
    assert!(
        gain_ind > gain_dep * 1.2,
        "independent gain {gain_ind:.2} vs dependent gain {gain_dep:.2}"
    );
}

#[test]
fn paper_figure3_numbers_at_paper_latencies() {
    // Direct reproduction of the II = 2, D = 6 example with the paper's
    // toy latencies, through the same scheduler the model uses.
    use flexcl_sched::{sms, ResourceBudget, ResourceClass, SchedGraph};
    let mut g = SchedGraph::new();
    let load = g.add_node(1, ResourceClass::LocalRead);
    let add = g.add_node(1, ResourceClass::Fabric);
    let store = g.add_node(0, ResourceClass::LocalWrite);
    let tail0 = g.add_node(2, ResourceClass::Fabric);
    let tail1 = g.add_node(2, ResourceClass::Fabric);
    g.add_edge(load, add);
    g.add_edge(add, store);
    g.add_edge_with_distance(store, load, 1);
    g.add_edge(add, tail0);
    g.add_edge(tail0, tail1);
    let s = sms::schedule(&g, &ResourceBudget::unconstrained(), 0);
    assert_eq!((s.ii, s.depth), (2, 6), "Figure 3: II_comp^wi = 2, D_comp^PE = 6");
}
