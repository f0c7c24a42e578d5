//! Synthesis-variance perturbation.
//!
//! The paper names FlexCL's two residual error sources (§4.2): (1) SDAccel
//! chooses among several hardware implementations per IR operation, with
//! different latencies, while the model uses the *average*; and (2) actual
//! per-access memory latency differs from the per-pattern average. The
//! System Run simulator reproduces source (1) by sampling a per-operation
//! implementation factor around the latency table — deterministic per seed,
//! as a given synthesis run is deterministic — and source (2) by servicing
//! every access through the behavioural DRAM model.
//!
//! The factor population itself ([`flexcl_sched::IMPL_FACTORS`]) lives in
//! `flexcl-sched`, shared with the analytical model's expected-schedule
//! ensemble; this module only owns the seeding policy.

use flexcl_sched::{
    impl_factor, impl_factor_weight_total, perturb_graph_with, ResourceClass, SchedGraph,
};
use rand::rngs::StdRng;
use rand::Rng;

/// Samples one implementation factor.
pub fn sample_factor(rng: &mut StdRng) -> f64 {
    impl_factor(rng.gen_range(0..impl_factor_weight_total()))
}

/// Returns a copy of `graph` whose node latencies are perturbed by
/// per-node implementation factors.
pub fn perturb_graph(graph: &SchedGraph, rng: &mut StdRng) -> SchedGraph {
    perturb_graph_with(graph, &mut || sample_factor(rng))
}

/// Average factor drawn for a whole-kernel scalar quantity (serial
/// work-item latency): the mean of `n` per-op draws.
pub fn sample_aggregate_factor(rng: &mut StdRng, n: usize) -> f64 {
    let n = n.max(1);
    (0..n).map(|_| sample_factor(rng)).sum::<f64>() / n as f64
}

/// Marker: perturbation never changes resource classes.
pub fn preserves_resources(a: &SchedGraph, b: &SchedGraph) -> bool {
    a.len() == b.len()
        && a.nodes().zip(b.nodes()).all(|((_, x), (_, y))| x.resource == y.resource)
        && a.edges() == b.edges()
}

/// Convenience used in tests: a graph with `n` fabric nodes in a chain.
pub fn chain_for_tests(lats: &[u32]) -> SchedGraph {
    let mut g = SchedGraph::new();
    let ids: Vec<_> = lats.iter().map(|l| g.add_node(*l, ResourceClass::Fabric)).collect();
    for w in ids.windows(2) {
        g.add_edge(w[0], w[1]);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn factors_are_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(sample_factor(&mut a), sample_factor(&mut b));
        }
    }

    #[test]
    fn factors_are_bounded() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let f = sample_factor(&mut rng);
            assert!((0.8..=1.2).contains(&f));
        }
    }

    #[test]
    fn perturbed_graph_preserves_structure() {
        let g = chain_for_tests(&[2, 4, 6, 0]);
        let mut rng = StdRng::seed_from_u64(3);
        let p = perturb_graph(&g, &mut rng);
        assert!(preserves_resources(&g, &p));
        // Zero-latency nodes stay zero.
        let last = p.nodes().last().expect("node").1;
        assert_eq!(last.latency, 0);
    }

    #[test]
    fn aggregate_factor_concentrates_near_one() {
        let mut rng = StdRng::seed_from_u64(9);
        let f = sample_aggregate_factor(&mut rng, 1000);
        assert!((0.95..=1.05).contains(&f), "aggregate factor {f}");
    }
}
