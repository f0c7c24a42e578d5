//! IR cleanup passes: constant folding, local common-subexpression
//! elimination, and dead-code elimination.
//!
//! Clang runs the equivalent passes before FlexCL sees LLVM IR; without
//! them, the lowering's bookkeeping (index arithmetic with literal zeros,
//! repeated address computations) would be charged as real datapath
//! operations and bias every latency estimate upward. The passes are
//! deliberately conservative: they never touch memory operations, barriers
//! or anything with side effects.

use crate::function::{Function, Inst, InstId, Literal, Op, Terminator, Value};
use flexcl_frontend::ast::{BinOp, UnOp};
use std::collections::HashMap;

/// Runs the standard pass pipeline to a fixpoint (bounded).
///
/// Returns the number of instructions removed.
pub fn optimize(func: &mut Function) -> usize {
    let before = live_count(func);
    for _ in 0..4 {
        let changed = constant_fold(func) | local_cse(func);
        dead_code_elim(func);
        if !changed {
            break;
        }
    }
    before - live_count(func)
}

fn live_count(func: &Function) -> usize {
    func.blocks.iter().map(|b| b.insts.len()).sum()
}

/// Whether an instruction has effects beyond its result value.
fn has_side_effects(inst: &Inst) -> bool {
    matches!(inst.op, Op::Store { .. } | Op::Barrier | Op::Alloca { .. })
}

/// Whether an instruction's value may change between executions (loads,
/// work-item queries are fixed per work-item but loads may see new data).
fn is_pure(inst: &Inst) -> bool {
    !matches!(inst.op, Op::Store { .. } | Op::Barrier | Op::Alloca { .. } | Op::Load { .. })
}

// ---------------------------------------------------------------- folding

/// Folds operations whose operands are literals. Returns true on change.
pub fn constant_fold(func: &mut Function) -> bool {
    let mut changed = false;
    // Replacement map: instruction result → literal value.
    let mut folded: HashMap<InstId, Value> = HashMap::new();

    for idx in 0..func.insts.len() {
        // Substitute operands already known to be literals.
        let mut inst = func.insts[idx].clone();
        for a in &mut inst.args {
            if let Value::Inst(id) = a {
                if let Some(v) = folded.get(id) {
                    *a = *v;
                    changed = true;
                }
            }
        }
        if let Some(lit) = fold_inst(&inst) {
            folded.insert(inst.id, lit);
        }
        func.insts[idx] = inst;
    }
    changed
}

/// Evaluates a pure instruction over literal operands.
fn fold_inst(inst: &Inst) -> Option<Value> {
    if !is_pure(inst) {
        return None;
    }
    let lit = |v: &Value| match v {
        Value::Literal(l) => Some(*l),
        _ => None,
    };
    match &inst.op {
        Op::Bin(op) => {
            let a = lit(inst.args.first()?)?;
            let b = lit(inst.args.get(1)?)?;
            let folded = fold_bin(*op, a, b, inst.ty.is_float())?;
            Some(truncate_to(&inst.ty, folded))
        }
        Op::Un(op) => {
            let a = lit(inst.args.first()?)?;
            Some(match (op, a) {
                (UnOp::Neg, Literal::Int(v)) => truncate_to(&inst.ty, Value::int(v.wrapping_neg())),
                (UnOp::Neg, Literal::Float(v)) => Value::float(-v),
                (UnOp::Not, Literal::Int(v)) => Value::int(i64::from(v == 0)),
                (UnOp::Not, Literal::Float(v)) => Value::int(i64::from(v == 0.0)),
                (UnOp::BitNot, Literal::Int(v)) => truncate_to(&inst.ty, Value::int(!v)),
                (UnOp::BitNot, Literal::Float(_)) => return None,
            })
        }
        Op::Select => {
            let c = lit(inst.args.first()?)?;
            let taken = match c {
                Literal::Int(v) => v != 0,
                Literal::Float(v) => v != 0.0,
            };
            let pick = if taken { inst.args.get(1)? } else { inst.args.get(2)? };
            lit(pick).map(Value::Literal)
        }
        Op::Convert => {
            let a = lit(inst.args.first()?)?;
            Some(if inst.ty.is_float() {
                match a {
                    Literal::Int(v) => Value::float(v as f64),
                    Literal::Float(v) => Value::float(v),
                }
            } else {
                match a {
                    Literal::Int(v) => Value::int(v),
                    Literal::Float(v) => Value::int(v as i64),
                }
            })
        }
        _ => None,
    }
}

/// Wraps a folded integer to the width and signedness of `ty`, mirroring
/// the interpreter's storage semantics exactly (the property tests compare
/// the two paths bit-for-bit).
fn truncate_to(ty: &flexcl_frontend::types::Type, v: Value) -> Value {
    use flexcl_frontend::types::Scalar;
    let Value::Literal(Literal::Int(x)) = v else { return v };
    let s = ty.element_scalar().unwrap_or(Scalar::I64);
    let t = match s {
        Scalar::Bool => i64::from(x != 0),
        Scalar::I8 => x as i8 as i64,
        Scalar::U8 => x as u8 as i64,
        Scalar::I16 => x as i16 as i64,
        Scalar::U16 => x as u16 as i64,
        Scalar::I32 => x as i32 as i64,
        Scalar::U32 => x as u32 as i64,
        _ => x,
    };
    Value::int(t)
}

fn fold_bin(op: BinOp, a: Literal, b: Literal, float_result: bool) -> Option<Value> {
    use Literal::*;
    // Algebraic identities with one literal are handled by callers via
    // full-literal folding only; keep this total on literal pairs.
    let as_f = |l: Literal| match l {
        Int(v) => v as f64,
        Float(v) => v,
    };
    let both_int = matches!((a, b), (Int(_), Int(_)));
    if both_int && !float_result {
        let (Int(x), Int(y)) = (a, b) else { unreachable!() };
        let v = match op {
            BinOp::Add => x.wrapping_add(y),
            BinOp::Sub => x.wrapping_sub(y),
            BinOp::Mul => x.wrapping_mul(y),
            BinOp::Div => {
                if y == 0 {
                    return None;
                }
                x.wrapping_div(y)
            }
            BinOp::Rem => {
                if y == 0 {
                    return None;
                }
                x.wrapping_rem(y)
            }
            BinOp::And => x & y,
            BinOp::Or => x | y,
            BinOp::Xor => x ^ y,
            BinOp::Shl => x.wrapping_shl(y as u32 & 63),
            BinOp::Shr => x.wrapping_shr(y as u32 & 63),
            BinOp::Lt => i64::from(x < y),
            BinOp::Gt => i64::from(x > y),
            BinOp::Le => i64::from(x <= y),
            BinOp::Ge => i64::from(x >= y),
            BinOp::Eq => i64::from(x == y),
            BinOp::Ne => i64::from(x != y),
            BinOp::LogAnd => i64::from(x != 0 && y != 0),
            BinOp::LogOr => i64::from(x != 0 || y != 0),
        };
        return Some(Value::int(v));
    }
    let (x, y) = (as_f(a), as_f(b));
    let v = match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        BinOp::Div => x / y,
        BinOp::Lt => return Some(Value::int(i64::from(x < y))),
        BinOp::Gt => return Some(Value::int(i64::from(x > y))),
        BinOp::Le => return Some(Value::int(i64::from(x <= y))),
        BinOp::Ge => return Some(Value::int(i64::from(x >= y))),
        BinOp::Eq => return Some(Value::int(i64::from(x == y))),
        BinOp::Ne => return Some(Value::int(i64::from(x != y))),
        _ => return None,
    };
    Some(if float_result { Value::float(v) } else { Value::int(v as i64) })
}

// -------------------------------------------------------------------- CSE

/// Local (per-block) common-subexpression elimination over pure ops and
/// over loads whose memory version has not changed.
///
/// Loads participate with a per-root version that bumps on every store to
/// the same root and on barriers: two loads of the same address at the
/// same version are redundant, exactly as HLS merges them. Returns true on
/// change.
pub fn local_cse(func: &mut Function) -> bool {
    let mut changed = false;
    let mut replace: HashMap<InstId, InstId> = HashMap::new();

    for b in 0..func.blocks.len() {
        let mut seen: HashMap<String, InstId> = HashMap::new();
        let mut versions: HashMap<crate::function::MemRoot, u64> = HashMap::new();
        let mut epoch: u64 = 0;
        for &iid in &func.blocks[b].insts {
            let inst = &func.insts[iid.0 as usize];
            match &inst.op {
                Op::Store { root, .. } => {
                    *versions.entry(*root).or_insert(0) += 1;
                    continue;
                }
                Op::Barrier => {
                    epoch += 1;
                    versions.clear();
                    continue;
                }
                _ => {}
            }
            let key = if let Op::Load { root, .. } = &inst.op {
                let v = versions.get(root).copied().unwrap_or(0);
                format!("{:?}|{}|{:?}|v{}e{}", inst.op, inst.ty, inst.args, v, epoch)
            } else if is_pure(inst) && !inst.args.is_empty() {
                format!("{:?}|{}|{:?}", inst.op, inst.ty, inst.args)
            } else {
                continue;
            };
            match seen.get(&key) {
                Some(prev) => {
                    replace.insert(iid, *prev);
                    changed = true;
                }
                None => {
                    seen.insert(key, iid);
                }
            }
        }
    }
    if replace.is_empty() {
        return false;
    }
    // Rewrite uses (chase chains defensively).
    let resolve = |mut id: InstId| {
        let mut hops = 0;
        while let Some(next) = replace.get(&id) {
            id = *next;
            hops += 1;
            if hops > replace.len() {
                break;
            }
        }
        id
    };
    for inst in &mut func.insts {
        for a in &mut inst.args {
            if let Value::Inst(id) = a {
                let r = resolve(*id);
                if r != *id {
                    *a = Value::Inst(r);
                }
            }
        }
    }
    for block in &mut func.blocks {
        if let Terminator::CondBr(Value::Inst(id), t, f) = block.term.clone() {
            let r = resolve(id);
            if r != id {
                block.term = Terminator::CondBr(Value::Inst(r), t, f);
            }
        }
    }
    changed
}

// -------------------------------------------------------------------- DCE

/// Removes pure instructions whose results are never used. The arena keeps
/// the instruction slots (ids are stable); only block membership changes.
pub fn dead_code_elim(func: &mut Function) -> bool {
    let mut used = vec![false; func.insts.len()];
    for inst in &func.insts {
        for a in &inst.args {
            if let Value::Inst(id) = a {
                used[id.0 as usize] = true;
            }
        }
    }
    for block in &func.blocks {
        if let Terminator::CondBr(Value::Inst(id), _, _) = &block.term {
            used[id.0 as usize] = true;
        }
    }
    // Iterate: removing a dead op may free its operands.
    let mut changed_any = false;
    loop {
        let mut removed = false;
        for block in &mut func.blocks {
            block.insts.retain(|iid| {
                let inst = &func.insts[iid.0 as usize];
                let keep = has_side_effects(inst) || used[iid.0 as usize];
                if !keep {
                    removed = true;
                }
                keep
            });
        }
        if !removed {
            break;
        }
        changed_any = true;
        // Recompute uses from surviving instructions.
        used.iter_mut().for_each(|u| *u = false);
        let live: Vec<InstId> = func.blocks.iter().flat_map(|b| b.insts.iter().copied()).collect();
        for iid in live {
            for a in &func.insts[iid.0 as usize].args.clone() {
                if let Value::Inst(id) = a {
                    used[id.0 as usize] = true;
                }
            }
        }
        for block in &func.blocks {
            if let Terminator::CondBr(Value::Inst(id), _, _) = &block.term {
                used[id.0 as usize] = true;
            }
        }
    }
    changed_any
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_kernel;
    use flexcl_frontend::parse_and_check;

    fn lowered(src: &str) -> Function {
        let p = parse_and_check(src).expect("frontend");
        lower_kernel(&p.kernels[0]).expect("lowering")
    }

    fn optimized(src: &str) -> (Function, usize) {
        let mut f = lowered(src);
        let removed = optimize(&mut f);
        (f, removed)
    }

    #[test]
    fn folds_constant_arithmetic() {
        let (f, removed) = optimized(
            "__kernel void k(__global int* a) {
                int x = 3 * 4 + 2;
                a[get_global_id(0)] = x;
            }",
        );
        assert!(removed > 0);
        // The store's value operand must have become the literal 14 after
        // slot-forwarding is out of scope — at minimum the arithmetic ops
        // are gone from the blocks.
        let live_bins = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(f.inst(**i).op, Op::Bin(_)))
            .count();
        assert_eq!(live_bins, 0, "all arithmetic folded away");
    }

    #[test]
    fn cse_merges_repeated_address_math() {
        let src = "__kernel void k(__global float* a, int n) {
            int i = get_global_id(0);
            a[i * n + 1] = a[i * n] + 1.0f;
        }";
        let before = {
            let f = lowered(src);
            f.blocks.iter().map(|b| b.insts.len()).sum::<usize>()
        };
        let (f, removed) = optimized(src);
        let after: usize = f.blocks.iter().map(|b| b.insts.len()).sum();
        assert!(removed > 0, "i*n computed twice, merged once");
        assert!(after < before);
        assert_eq!(f.validate(), Ok(()));
    }

    #[test]
    fn dce_preserves_side_effects() {
        let (f, _) = optimized(
            "__kernel void k(__global int* a, __local int* t) {
                int unused = 40 + 2;
                t[get_local_id(0)] = a[0];
                barrier(CLK_LOCAL_MEM_FENCE);
                a[0] = t[0];
            }",
        );
        assert!(f.has_barrier(), "barrier survives DCE");
        let (loads, stores) = f.count_accesses(flexcl_frontend::types::AddressSpace::Local);
        assert_eq!((loads, stores), (1, 1), "local traffic survives DCE");
    }

    #[test]
    fn loads_are_never_cse_merged() {
        // Two loads of the same address may see different values (another
        // work-item's store could intervene): they must both survive.
        let (f, _) = optimized(
            "__kernel void k(__global int* a) {
                int x = a[0];
                a[1] = x;
                int y = a[0];
                a[2] = y;
            }",
        );
        let (loads, _) = f.count_accesses(flexcl_frontend::types::AddressSpace::Global);
        assert_eq!(loads, 2);
    }

    #[test]
    fn fixpoint_terminates_and_validates() {
        for spec_src in [
            "__kernel void k(__global float* a) {
                float s = 0.0f;
                for (int i = 0; i < 16; i++) { s += a[i] * 2.0f * 1.0f; }
                a[0] = s;
            }",
            "__kernel void k(__global int* a, int n) {
                int i = get_global_id(0);
                if (i < n && i >= 0) { a[i] = i % 3 + 7 * 0; }
            }",
        ] {
            let (f, _) = optimized(spec_src);
            assert_eq!(f.validate(), Ok(()));
        }
    }
}
