//! Data-flow-graph extraction.
//!
//! The schedulers in `flexcl-sched` operate on a generic dependence graph;
//! this module derives that graph from IR: def-use edges plus memory
//! ordering edges (store→load, store→store, load→store on the same root).
//! Private scalar slots participate like any other memory, which is exactly
//! what carries sequential dependencies of mutable variables.

use crate::function::{Function, InstId, MemRoot, Op, Value};
use std::collections::HashMap;

/// A dependence edge between two instructions of the same block (or of a
/// flattened instruction sequence).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DepEdge {
    /// Producer instruction.
    pub from: InstId,
    /// Consumer instruction.
    pub to: InstId,
    /// Edge kind.
    pub kind: DepKind,
}

/// Kinds of dependence edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// True data dependence (def → use).
    Data,
    /// Memory ordering: the consumer must not be reordered before the
    /// producer (RAW/WAR/WAW through the same root object).
    Memory,
    /// Barrier ordering: everything before a barrier precedes everything
    /// after it.
    Barrier,
}

/// Builds dependence edges over an ordered instruction sequence.
///
/// The sequence is usually the instruction list of one basic block, but the
/// same routine serves flattened multi-block sequences when modeling merged
/// CDFG nodes.
///
/// Memory disambiguation: two accesses conflict when they touch the same
/// [`MemRoot`] and their indices are not provably different constants. This
/// is conservative but exact for the common `a[i]` patterns after constant
/// folding at lowering.
pub fn build_deps(func: &Function, seq: &[InstId]) -> Vec<DepEdge> {
    let mut edges = Vec::new();
    let in_seq: HashMap<InstId, usize> = seq.iter().enumerate().map(|(i, id)| (*id, i)).collect();

    // Def-use edges.
    for &id in seq {
        let inst = func.inst(id);
        for arg in &inst.args {
            if let Value::Inst(dep) = arg {
                if in_seq.contains_key(dep) {
                    edges.push(DepEdge { from: *dep, to: id, kind: DepKind::Data });
                }
            }
        }
    }

    // Memory ordering: scan pairs grouped by root.
    let mut by_root: HashMap<MemRoot, Vec<InstId>> = HashMap::new();
    let mut barriers: Vec<InstId> = Vec::new();
    for &id in seq {
        let inst = func.inst(id);
        match &inst.op {
            Op::Load { root, .. } | Op::Store { root, .. } => {
                by_root.entry(*root).or_default().push(id)
            }
            Op::Barrier => barriers.push(id),
            _ => {}
        }
    }
    for accesses in by_root.values() {
        for (i, &a) in accesses.iter().enumerate() {
            for &b in &accesses[i + 1..] {
                let (ia, ib) = (func.inst(a), func.inst(b));
                let both_loads =
                    matches!(ia.op, Op::Load { .. }) && matches!(ib.op, Op::Load { .. });
                if both_loads {
                    continue;
                }
                if indices_provably_disjoint(ia, ib) {
                    continue;
                }
                // Order by position in the sequence.
                let (first, second) = if in_seq[&a] < in_seq[&b] { (a, b) } else { (b, a) };
                edges.push(DepEdge { from: first, to: second, kind: DepKind::Memory });
            }
        }
    }

    // Barrier edges: barrier depends on all prior memory ops; all later
    // memory ops depend on the barrier. To keep the edge count linear we
    // chain through the barrier only.
    for &bar in &barriers {
        let bar_pos = in_seq[&bar];
        for &id in seq {
            let inst = func.inst(id);
            if !inst.op.is_memory() {
                continue;
            }
            let pos = in_seq[&id];
            if pos < bar_pos {
                edges.push(DepEdge { from: id, to: bar, kind: DepKind::Barrier });
            } else if pos > bar_pos {
                edges.push(DepEdge { from: bar, to: id, kind: DepKind::Barrier });
            }
        }
    }

    edges.sort_by_key(|e| (e.from, e.to));
    edges.dedup();
    edges
}

/// True when the two accesses use distinct constant indices.
fn indices_provably_disjoint(a: &crate::function::Inst, b: &crate::function::Inst) -> bool {
    let idx = |inst: &crate::function::Inst| inst.args.first().and_then(Value::as_const_int);
    match (idx(a), idx(b)) {
        (Some(x), Some(y)) => x != y,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_kernel;
    use flexcl_frontend::parse_and_check;

    fn lower(src: &str) -> Function {
        let p = parse_and_check(src).expect("frontend");
        lower_kernel(&p.kernels[0]).expect("lowering")
    }

    fn all_insts(f: &Function) -> Vec<InstId> {
        f.insts.iter().map(|i| i.id).collect()
    }

    #[test]
    fn def_use_edges_exist() {
        let f = lower(
            "__kernel void k(__global int* a) {
                int i = get_global_id(0);
                a[i] = i + 1;
            }",
        );
        let edges = build_deps(&f, &all_insts(&f));
        assert!(edges.iter().any(|e| e.kind == DepKind::Data));
        // Every data edge goes forward in the arena (SSA construction order).
        for e in edges.iter().filter(|e| e.kind == DepKind::Data) {
            assert!(e.from < e.to, "{e:?}");
        }
    }

    #[test]
    fn store_load_same_root_ordered() {
        let f = lower(
            "__kernel void k(__global int* a, int n) {
                a[n] = 1;
                int x = a[n + 1];
                a[0] = x;
            }",
        );
        let edges = build_deps(&f, &all_insts(&f));
        // The store to a[n] and load of a[n+1] cannot be disambiguated
        // (indices are not constants), so a Memory edge must exist.
        assert!(edges.iter().any(|e| e.kind == DepKind::Memory));
    }

    #[test]
    fn constant_indices_disambiguate() {
        let f = lower(
            "__kernel void k(__global int* a) {
                __local int t[8];
                t[0] = 1;
                t[1] = 2;
                a[0] = t[0] + t[1];
            }",
        );
        let edges = build_deps(&f, &all_insts(&f));
        // Store t[0] and store t[1] are provably disjoint: no WAW edge
        // between them (they do have data edges to the loads).
        let store_ids: Vec<InstId> = f
            .insts
            .iter()
            .filter(|i| {
                matches!(&i.op, Op::Store { root: MemRoot::Alloca(_), .. })
                    && i.args[0].as_const_int().is_some()
            })
            .map(|i| i.id)
            .collect();
        assert!(store_ids.len() >= 2);
        let waw = edges.iter().any(|e| {
            e.kind == DepKind::Memory && store_ids.contains(&e.from) && store_ids.contains(&e.to)
        });
        assert!(!waw, "disjoint constant stores must not be ordered");
    }

    #[test]
    fn barrier_orders_memory() {
        let f = lower(
            "__kernel void k(__global int* a, __local int* t) {
                int l = get_local_id(0);
                t[l] = a[l];
                barrier(CLK_LOCAL_MEM_FENCE);
                a[l] = t[l];
            }",
        );
        let edges = build_deps(&f, &all_insts(&f));
        let bar = f.insts.iter().find(|i| matches!(i.op, Op::Barrier)).expect("barrier").id;
        assert!(edges.iter().any(|e| e.kind == DepKind::Barrier && e.to == bar));
        assert!(edges.iter().any(|e| e.kind == DepKind::Barrier && e.from == bar));
    }
}
