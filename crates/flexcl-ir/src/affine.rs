//! Affine index analysis and inter-work-item recurrence detection.
//!
//! FlexCL derives `RecMII` from static data dependences between successive
//! work-items (§3.3.1, refs [22, 23]). In the OpenCL setting such a
//! dependence arises when one work-item stores to a shared array at an
//! index that a *later* work-item loads: e.g. for `b[i+1] = f(b[i])` with
//! `i = get_global_id(0)`, work-item `i+1` reads what work-item `i` wrote —
//! a recurrence of distance 1 (the Figure 3 example of the paper).
//!
//! This module recognises indices of the affine form
//! `a·gid + b·lid + c` and reports `(load, store, distance)` triples; the
//! scheduler turns them into `RecMII = ceil(latency(load→store) / distance)`.

use crate::function::{Function, InstId, Literal, MemRoot, Op, Value};
use flexcl_frontend::ast::{BinOp, UnOp};
use flexcl_frontend::builtins::WorkItemFn;
use flexcl_frontend::types::AddressSpace;
use std::collections::HashMap;

/// An affine expression `g·gid0 + l·lid0 + c`, or "not affine".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Affine {
    /// Coefficient of `get_global_id(0)`.
    pub gid: i64,
    /// Coefficient of `get_local_id(0)`.
    pub lid: i64,
    /// Constant term.
    pub c: i64,
}

impl Affine {
    /// The constant `c`.
    pub fn constant(c: i64) -> Affine {
        Affine { gid: 0, lid: 0, c }
    }

    fn add(self, o: Affine) -> Affine {
        Affine { gid: self.gid + o.gid, lid: self.lid + o.lid, c: self.c + o.c }
    }

    fn sub(self, o: Affine) -> Affine {
        Affine { gid: self.gid - o.gid, lid: self.lid - o.lid, c: self.c - o.c }
    }

    fn neg(self) -> Affine {
        Affine { gid: -self.gid, lid: -self.lid, c: -self.c }
    }

    fn mul_const(self, k: i64) -> Affine {
        Affine { gid: self.gid * k, lid: self.lid * k, c: self.c * k }
    }

    fn as_const(self) -> Option<i64> {
        (self.gid == 0 && self.lid == 0).then_some(self.c)
    }
}

/// Computes affine forms for every instruction result where possible.
///
/// Private scalar slots with exactly one store propagate the stored value;
/// slots stored more than once (loop induction variables) are treated as
/// unknown, which keeps the analysis sound.
pub fn analyze(func: &Function) -> HashMap<InstId, Affine> {
    // Pass 1: count stores per private slot and record the stored value.
    let mut slot_value: HashMap<InstId, Option<Value>> = HashMap::new();
    for inst in &func.insts {
        if let Op::Store { space: AddressSpace::Private, root: MemRoot::Alloca(slot) } = inst.op {
            slot_value
                .entry(slot)
                .and_modify(|v| *v = None) // multiple stores: unknown
                .or_insert(Some(inst.args[1]));
        }
    }

    // Pass 2: forward propagation in arena order (construction order is a
    // topological order of def-use, so one pass suffices).
    let mut out: HashMap<InstId, Affine> = HashMap::new();
    for inst in &func.insts {
        if let Some(a) = infer_one(inst, &slot_value, &out) {
            out.insert(inst.id, a);
        }
    }
    out
}

fn infer_one(
    inst: &crate::function::Inst,
    slot_value: &HashMap<InstId, Option<Value>>,
    out: &HashMap<InstId, Affine>,
) -> Option<Affine> {
    let value_of = |v: &Value| -> Option<Affine> {
        match v {
            Value::Literal(Literal::Int(i)) => Some(Affine::constant(*i)),
            Value::Inst(id) => out.get(id).copied(),
            _ => None,
        }
    };
    match &inst.op {
        Op::WorkItem(WorkItemFn::GlobalId) if inst.args[0].as_const_int() == Some(0) => {
            Some(Affine { gid: 1, lid: 0, c: 0 })
        }
        Op::WorkItem(WorkItemFn::LocalId) if inst.args[0].as_const_int() == Some(0) => {
            Some(Affine { gid: 0, lid: 1, c: 0 })
        }
        Op::Bin(BinOp::Add) => Some(value_of(&inst.args[0])?.add(value_of(&inst.args[1])?)),
        Op::Bin(BinOp::Sub) => Some(value_of(&inst.args[0])?.sub(value_of(&inst.args[1])?)),
        Op::Bin(BinOp::Mul) => {
            let a = value_of(&inst.args[0])?;
            let b = value_of(&inst.args[1])?;
            match (a.as_const(), b.as_const()) {
                (Some(k), _) => Some(b.mul_const(k)),
                (_, Some(k)) => Some(a.mul_const(k)),
                _ => None,
            }
        }
        Op::Bin(BinOp::Shl) => {
            let a = value_of(&inst.args[0])?;
            let b = value_of(&inst.args[1])?;
            b.as_const().map(|k| a.mul_const(1 << k.clamp(0, 62)))
        }
        Op::Un(UnOp::Neg) => value_of(&inst.args[0]).map(Affine::neg),
        Op::Convert => value_of(&inst.args[0]),
        Op::Load { space: AddressSpace::Private, root: MemRoot::Alloca(slot) } => {
            match slot_value.get(slot) {
                Some(Some(v)) => value_of(v),
                _ => None,
            }
        }
        _ => None,
    }
}

/// An inter-work-item recurrence through shared memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recurrence {
    /// The load that observes a previous work-item's store.
    pub load: InstId,
    /// The store a later work-item depends on.
    pub store: InstId,
    /// Work-item distance of the dependence (≥ 1).
    pub distance: u32,
}

/// Finds inter-work-item recurrences: store/load pairs on the same shared
/// root whose indices are affine in `gid` (or `lid`) with the same
/// coefficient and a positive work-item distance.
pub fn find_recurrences(func: &Function) -> Vec<Recurrence> {
    let affine = analyze(func);
    let mut recs = Vec::new();

    let accesses: Vec<&crate::function::Inst> = func
        .insts
        .iter()
        .filter(|i| {
            matches!(i.op.mem_space(), Some(AddressSpace::Global) | Some(AddressSpace::Local))
        })
        .collect();

    for store in accesses.iter().filter(|i| matches!(i.op, Op::Store { .. })) {
        for load in accesses.iter().filter(|i| matches!(i.op, Op::Load { .. })) {
            if store.op.mem_root() != load.op.mem_root() {
                continue;
            }
            let (Some(si), Some(li)) = (index_affine(store, &affine), index_affine(load, &affine))
            else {
                continue;
            };
            // Same linear coefficient in the work-item id.
            let (coef_s, coef_l) =
                if si.gid != 0 || li.gid != 0 { (si.gid, li.gid) } else { (si.lid, li.lid) };
            if coef_s == 0 || coef_s != coef_l {
                continue;
            }
            let delta = si.c - li.c;
            if delta == 0 || delta % coef_s != 0 {
                continue;
            }
            let distance = delta / coef_s;
            if distance > 0 {
                recs.push(Recurrence { load: load.id, store: store.id, distance: distance as u32 });
            }
        }
    }
    recs.sort_by_key(|r| (r.load, r.store));
    recs
}

fn index_affine(inst: &crate::function::Inst, affine: &HashMap<InstId, Affine>) -> Option<Affine> {
    match &inst.args[0] {
        Value::Literal(Literal::Int(i)) => Some(Affine::constant(*i)),
        Value::Inst(id) => affine.get(id).copied(),
        _ => None,
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

    #[test]
    fn figure3_style_recurrence_detected() {
        // b[i+1] = b[i] + a[i]: work-item i+1 reads work-item i's store.
        let f = lower(
            "__kernel void k(__global float* a, __global float* b) {
                int i = get_global_id(0);
                b[i + 1] = b[i] + a[i];
            }",
        );
        let recs = find_recurrences(&f);
        assert_eq!(recs.len(), 1, "{recs:?}");
        assert_eq!(recs[0].distance, 1);
    }

    #[test]
    fn longer_distance_recurrence() {
        let f = lower(
            "__kernel void k(__global float* b) {
                int i = get_global_id(0);
                b[i + 4] = b[i] * 2.0f;
            }",
        );
        let recs = find_recurrences(&f);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].distance, 4);
    }

    #[test]
    fn elementwise_kernel_has_no_recurrence() {
        let f = lower(
            "__kernel void k(__global float* a, __global float* b) {
                int i = get_global_id(0);
                b[i] = a[i] + 1.0f;
            }",
        );
        assert!(find_recurrences(&f).is_empty());
    }

    #[test]
    fn scaled_index_distance_divides() {
        // b[2i+2] = b[2i]: distance (2)/(2) = 1.
        let f = lower(
            "__kernel void k(__global float* b) {
                int i = get_global_id(0);
                b[2 * i + 2] = b[2 * i] + 1.0f;
            }",
        );
        let recs = find_recurrences(&f);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].distance, 1);
    }

    #[test]
    fn backward_distance_not_a_recurrence() {
        // b[i] = b[i+1]: reads a *later* work-item's location, which is the
        // old value — not a pipeline recurrence.
        let f = lower(
            "__kernel void k(__global float* b) {
                int i = get_global_id(0);
                b[i] = b[i + 1] + 1.0f;
            }",
        );
        assert!(find_recurrences(&f).is_empty());
    }

    #[test]
    fn affine_analysis_tracks_slots() {
        let f = lower(
            "__kernel void k(__global float* b) {
                int i = get_global_id(0);
                int j = i * 2 + 3;
                b[j] = 1.0f;
            }",
        );
        let affine = analyze(&f);
        let store = f
            .insts
            .iter()
            .find(|i| matches!(i.op, Op::Store { space: AddressSpace::Global, .. }))
            .expect("store");
        let idx = match store.args[0] {
            Value::Inst(id) => affine[&id],
            _ => panic!("expected computed index"),
        };
        assert_eq!(idx, Affine { gid: 2, lid: 0, c: 3 });
    }

    #[test]
    fn loop_variable_is_not_affine() {
        let f = lower(
            "__kernel void k(__global float* b) {
                for (int i = 0; i < 8; i++) { b[i] = 0.0f; }
            }",
        );
        let affine = analyze(&f);
        let store = f
            .insts
            .iter()
            .find(|i| matches!(i.op, Op::Store { space: AddressSpace::Global, .. }))
            .expect("store");
        if let Value::Inst(id) = store.args[0] {
            assert!(!affine.contains_key(&id), "loop var must be unknown");
        }
    }
}
