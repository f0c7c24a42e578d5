//! The IR interpreter.
//!
//! Executes a lowered kernel over an NDRange, both to verify functional
//! behaviour and — its main job inside FlexCL — to *dynamically profile*
//! the kernel: loop trip counts that static analysis could not determine
//! and the global-memory access trace that drives the DRAM model (§3.2).
//!
//! Work-items execute sequentially in id order within each work-group.
//! `barrier()` is therefore a no-op here: for the profiling observables
//! (indices, loop bounds) this is exact, since they derive from work-item
//! ids; data read through local memory follows the common
//! "write-own-slot, then read" idiom for which id-order execution is also
//! functionally correct for forward neighbourhoods.

use crate::profile::{EdgeCounts, GroupObservation, MemAccess, Profile};
use crate::value::{truncate_int, KernelArg, RtVal};
use flexcl_frontend::ast::{BinOp, UnOp};
use flexcl_frontend::builtins::{MathOp, WorkItemFn};
use flexcl_frontend::types::{AddressSpace, Scalar, Type};
use flexcl_ir::{Function, InstId, Literal, MemRoot, Op, Terminator, Value};
use std::fmt;

/// The execution geometry of a kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NdRange {
    /// Global work size per dimension.
    pub global: [u64; 3],
    /// Work-group size per dimension.
    pub local: [u64; 3],
}

impl NdRange {
    /// A 1-D NDRange.
    pub fn new_1d(global: u64, local: u64) -> Self {
        NdRange { global: [global, 1, 1], local: [local, 1, 1] }
    }

    /// A 2-D NDRange.
    pub fn new_2d(gx: u64, gy: u64, lx: u64, ly: u64) -> Self {
        NdRange { global: [gx, gy, 1], local: [lx, ly, 1] }
    }

    /// Total number of work-items.
    pub fn total_work_items(&self) -> u64 {
        self.global.iter().product()
    }

    /// Work-items per work-group.
    pub fn work_group_size(&self) -> u64 {
        self.local.iter().product()
    }

    /// Number of work-groups.
    pub fn num_groups(&self) -> u64 {
        (0..3).map(|d| self.global[d].div_ceil(self.local[d].max(1))).product()
    }

    /// Validates divisibility and non-zero sizes.
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] when a dimension is zero or the local
    /// size does not divide the global size.
    pub fn validate(&self) -> Result<(), GeometryError> {
        for d in 0..3 {
            if self.global[d] == 0 || self.local[d] == 0 {
                return Err(GeometryError::ZeroDimension { dim: d });
            }
            if !self.global[d].is_multiple_of(self.local[d]) {
                return Err(GeometryError::NotDivisible {
                    dim: d,
                    global: self.global[d],
                    local: self.local[d],
                });
            }
        }
        Ok(())
    }
}

/// An invalid NDRange geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeometryError {
    /// A global or local dimension is zero.
    ZeroDimension {
        /// The offending dimension (0–2).
        dim: usize,
    },
    /// The local size does not divide the global size in some dimension.
    NotDivisible {
        /// The offending dimension (0–2).
        dim: usize,
        /// Global size in that dimension.
        global: u64,
        /// Local size in that dimension.
        local: u64,
    },
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometryError::ZeroDimension { dim } => write!(f, "dimension {dim} has zero size"),
            GeometryError::NotDivisible { dim, global, local } => write!(
                f,
                "global size {global} not divisible by local size {local} in dim {dim}"
            ),
        }
    }
}

impl std::error::Error for GeometryError {}

/// Interpreter failures.
#[derive(Debug, Clone, PartialEq)]
pub enum InterpError {
    /// A buffer access was out of bounds.
    OutOfBounds {
        /// Parameter index of the buffer.
        param: u32,
        /// Offending element index.
        index: i64,
        /// Buffer length.
        len: usize,
    },
    /// The kernel exceeded the execution step budget (runaway loop).
    StepLimit(u64),
    /// The recorded memory trace exceeded its size budget.
    TraceLimit(usize),
    /// The launch geometry is invalid.
    Geometry(GeometryError),
    /// Argument count/type mismatch with the kernel signature.
    BadArguments(String),
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::OutOfBounds { param, index, len } => {
                write!(f, "buffer access out of bounds: param {param}, index {index}, len {len}")
            }
            InterpError::StepLimit(n) => write!(f, "execution exceeded {n} steps"),
            InterpError::TraceLimit(n) => {
                write!(f, "memory trace exceeded {n} recorded accesses")
            }
            InterpError::Geometry(g) => write!(f, "invalid NDRange: {g}"),
            InterpError::BadArguments(m) => write!(f, "bad kernel arguments: {m}"),
        }
    }
}

impl From<GeometryError> for InterpError {
    fn from(g: GeometryError) -> Self {
        InterpError::Geometry(g)
    }
}

impl std::error::Error for InterpError {}

/// How a profiled subset of work-groups is chosen from the NDRange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GroupSampling {
    /// The first `n` groups in linear order. Cheapest; representative only
    /// for kernels whose work is uniform over the index space.
    #[default]
    Leading,
    /// Groups spread evenly across the NDRange at a fixed stride, all
    /// weighted equally.
    Spread,
    /// Representative strata: the first, middle and last group, the
    /// boundary groups along each NDRange dimension, and evenly-strided
    /// fill up to the budget. Each profiled group carries a weight — the
    /// number of NDRange groups nearest to it in linear-id space — so the
    /// resulting [`Profile`] is a weighted mixture rather than a uniform
    /// average. Kernels whose work varies across the index space (guarded
    /// wavefronts, triangular iteration spaces) need this to avoid being
    /// modeled by their unguarded corner.
    Stratified,
}

/// Options controlling a profiled run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Profile only `n` work-groups (the paper profiles "a few
    /// work-groups"; traces are per-work-item so a subset suffices).
    /// `None` executes everything.
    pub profile_groups: Option<u64>,
    /// How the profiled subset is chosen (ignored when `profile_groups`
    /// covers the whole NDRange).
    pub profile_sampling: GroupSampling,
    /// Abort after this many interpreted instructions per work-item.
    pub step_limit: u64,
    /// Record the global memory trace.
    pub record_trace: bool,
    /// Abort once the recorded trace reaches this many accesses (bounds the
    /// profiling memory footprint for trip-count explosions).
    pub trace_limit: usize,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            profile_groups: None,
            profile_sampling: GroupSampling::Leading,
            step_limit: 10_000_000,
            record_trace: true,
            trace_limit: 16_777_216,
        }
    }
}

/// Executes `func` over `ndrange` with the given arguments.
///
/// Buffers in `args` are mutated in place (stores write through). Returns
/// the execution [`Profile`].
///
/// # Errors
///
/// Returns [`InterpError`] on out-of-bounds accesses, argument mismatches or
/// runaway loops.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use flexcl_interp::{run, KernelArg, NdRange, RunOptions};
///
/// let program = flexcl_frontend::parse_and_check(
///     "__kernel void inc(__global int* a) {
///          int i = get_global_id(0);
///          a[i] = a[i] + 1;
///      }",
/// )?;
/// let func = flexcl_ir::lower_kernel(&program.kernels[0])?;
/// let mut args = vec![KernelArg::IntBuf(vec![0; 8])];
/// run(&func, &mut args, NdRange::new_1d(8, 4), RunOptions::default())?;
/// assert_eq!(args[0], KernelArg::IntBuf(vec![1; 8]));
/// # Ok(())
/// # }
/// ```
pub fn run(
    func: &Function,
    args: &mut [KernelArg],
    ndrange: NdRange,
    opts: RunOptions,
) -> Result<Profile, InterpError> {
    let mut span = flexcl_obs::span("interp.profile");
    ndrange.validate()?;
    if args.len() != func.params.len() {
        return Err(InterpError::BadArguments(format!(
            "kernel `{}` takes {} arguments, got {}",
            func.name,
            func.params.len(),
            args.len()
        )));
    }
    for (i, (p, a)) in func.params.iter().zip(args.iter()).enumerate() {
        let ok = match (&p.ty, a) {
            (Type::Pointer(_, _), KernelArg::IntBuf(_) | KernelArg::FloatBuf(_)) => true,
            (Type::Pointer(_, _), _) => false,
            (_, KernelArg::IntBuf(_) | KernelArg::FloatBuf(_)) => false,
            _ => true,
        };
        if !ok {
            return Err(InterpError::BadArguments(format!(
                "argument {i} does not match parameter type {}",
                p.ty
            )));
        }
    }

    let mut machine = Machine {
        func,
        args,
        edge_counts: EdgeCounts::new(),
        trace: Vec::new(),
        opts,
        work_items_executed: 0,
        regs: Vec::new(),
        local_mem: AllocaMem::new(func, AddressSpace::Local),
        private_mem: AllocaMem::new(func, AddressSpace::Private),
    };

    let groups = group_iter(&ndrange);
    let total = groups.len() as u64;
    let limit = opts.profile_groups.unwrap_or(u64::MAX);
    let counts = [
        ndrange.global[0] / ndrange.local[0],
        ndrange.global[1] / ndrange.local[1],
        ndrange.global[2] / ndrange.local[2],
    ];
    let selected = select_profiled_groups(total, limit, counts, opts.profile_sampling);

    let mut observations = Vec::with_capacity(selected.len());
    for (g_idx, weight) in selected {
        let wi_before = machine.work_items_executed;
        machine.run_group(g_idx, groups[g_idx as usize], &ndrange)?;
        observations.push(GroupObservation {
            group: g_idx,
            weight,
            edges: std::mem::take(&mut machine.edge_counts),
            work_items: machine.work_items_executed - wi_before,
        });
    }

    span.attr_u64("groups_profiled", observations.len() as u64);
    span.attr_u64("work_items", machine.work_items_executed);
    Ok(Profile::from_group_parts(
        func,
        observations,
        machine.trace,
        machine.work_items_executed,
    ))
}

/// Picks the profiled work-groups and their stratum weights.
///
/// Returns `(linear group id, weight)` pairs in ascending id order. Weights
/// partition the NDRange: every group is charged to its nearest selected
/// id in linear-id space (ties to the lower id), so `Σ weights = total`.
/// When `limit >= total` every group is selected with weight 1 — sampling
/// degenerates to exact profiling.
fn select_profiled_groups(
    total: u64,
    limit: u64,
    counts: [u64; 3],
    sampling: GroupSampling,
) -> Vec<(u64, f64)> {
    if total == 0 {
        return Vec::new();
    }
    if limit >= total {
        return (0..total).map(|g| (g, 1.0)).collect();
    }
    let limit = limit.max(1);

    let ids: Vec<u64> = match sampling {
        GroupSampling::Leading => (0..limit).collect(),
        GroupSampling::Spread => {
            // Evenly spread sample (ceil stride keeps the count ≤ limit).
            let stride = total.div_ceil(limit);
            (0..total).step_by(stride as usize).take(limit as usize).collect()
        }
        GroupSampling::Stratified => {
            // Candidate strata in priority order: corners of the linear
            // space, the middle, per-dimension boundary groups (first/last
            // slice along each multi-group dimension, other dims at their
            // middle), quartiles, then an even stride fill.
            let linear = |coord: [u64; 3]| -> u64 {
                (coord[2] * counts[1] + coord[1]) * counts[0] + coord[0]
            };
            let mid = [counts[0] / 2, counts[1] / 2, counts[2] / 2];
            // Interior "typical" samples are nudged to odd linear ids and
            // the stride fill runs at an odd stride from a half-stride
            // offset: memory systems are periodic in powers of two (bank
            // count, rows per group block), so even-aligned samples like
            // {0, 8, 16, ...} can all land in the same bank-conflict class
            // and misrepresent a population whose conflict rate is 1 in
            // `banks`. Odd ids/strides are coprime to every power of two,
            // rotating consecutive samples through the residue classes.
            let nudge_odd = |id: u64| -> u64 {
                let odd = id | 1;
                if odd < total {
                    odd
                } else {
                    id.min(total - 1)
                }
            };
            let mut candidates: Vec<u64> = vec![0, total - 1, nudge_odd(total / 2)];
            for d in 0..3 {
                if counts[d] > 1 {
                    let mut lo = mid;
                    lo[d] = 0;
                    let mut hi = mid;
                    hi[d] = counts[d] - 1;
                    candidates.push(linear(lo));
                    candidates.push(linear(hi));
                }
            }
            candidates.push(nudge_odd(total / 4));
            candidates.push(nudge_odd(3 * total / 4));
            let stride = total.div_ceil(limit) | 1;
            let mut v = stride / 2;
            while v < total {
                candidates.push(v);
                v += stride;
            }
            let mut picked = Vec::with_capacity(limit as usize);
            for c in candidates {
                if picked.len() as u64 >= limit {
                    break;
                }
                if !picked.contains(&c) {
                    picked.push(c);
                }
            }
            // Backstop: fill any remaining budget with the lowest unpicked
            // ids (odd first, for the same de-aliasing reason).
            for c in (1..total).step_by(2).chain((0..total).step_by(2)) {
                if picked.len() as u64 >= limit {
                    break;
                }
                if !picked.contains(&c) {
                    picked.push(c);
                }
            }
            picked
        }
    };

    let mut ids = ids;
    ids.sort_unstable();
    ids.dedup();

    // Stratum weights: each NDRange group is charged to the nearest
    // selected id (ties to the lower id); the boundary between consecutive
    // selected ids s_i < s_{i+1} falls at floor((s_i + s_{i+1}) / 2).
    // Exception: group 0 (and, when an interior sample can absorb the
    // mass, group total-1) represents only itself — it is sampled
    // *because* it is atypical (`get_global_id`-guarded prologues and
    // partial tails fire there), so it must not stand in for the bulk.
    let weighted = matches!(sampling, GroupSampling::Stratified);
    let n = ids.len();
    let first_pinned = weighted && n >= 2 && ids[0] == 0;
    let last_pinned = weighted && n >= 3 && ids[n - 1] == total - 1;
    let strata: Vec<(u64, f64)> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            // Pinned boundary groups represent only themselves (weight 1);
            // exact sampling weights everything 1.
            let pinned = (first_pinned && i == 0) || (last_pinned && i == n - 1);
            let w = if !weighted || pinned {
                1.0
            } else {
                let seg_start = if i == 0 {
                    0
                } else if first_pinned && i == 1 {
                    1
                } else {
                    (ids[i - 1] + id) / 2 + 1
                };
                let seg_end = if i == n - 1 {
                    total - 1
                } else if last_pinned && i == n - 2 {
                    total - 2
                } else {
                    (id + ids[i + 1]) / 2
                };
                (seg_end - seg_start + 1) as f64
            };
            (id, w)
        })
        .collect();
    if !weighted {
        return strata;
    }
    // Zero-weight warm-up predecessors: a stratum's memory-pattern stream is
    // only faithful if the DRAM bank state it replays against matches what
    // the *adjacent* group would have left (a group's first access typically
    // follows its predecessor's last write to the same bank). Each sampled
    // stratum therefore drags its immediate predecessor along, profiled but
    // weightless: it warms the replay state and contributes nothing to the
    // weighted aggregates.
    let mut out = Vec::with_capacity(strata.len() * 2);
    for (id, w) in strata {
        if id > 0
            && ids.binary_search(&(id - 1)).is_err()
            && out.last().map(|&(p, _)| p) != Some(id - 1)
        {
            out.push((id - 1, 0.0));
        }
        out.push((id, w));
    }
    out
}

/// Enumerates work-group origin coordinates.
fn group_iter(nd: &NdRange) -> Vec<[u64; 3]> {
    let mut out = Vec::new();
    let counts: Vec<u64> = (0..3).map(|d| nd.global[d] / nd.local[d]).collect();
    for gz in 0..counts[2] {
        for gy in 0..counts[1] {
            for gx in 0..counts[0] {
                out.push([gx, gy, gz]);
            }
        }
    }
    out
}

struct Machine<'a> {
    func: &'a Function,
    args: &'a mut [KernelArg],
    edge_counts: EdgeCounts,
    trace: Vec<MemAccess>,
    opts: RunOptions,
    work_items_executed: u64,
    /// Register file, one slot per instruction, reused across work-items
    /// (cleared to `None` before each one).
    regs: Vec<Option<RtVal>>,
    /// `__local` allocas, shared by the work-items of one group.
    local_mem: AllocaMem,
    /// `__private` allocas of the running work-item.
    private_mem: AllocaMem,
}

/// The allocas of one address space in dense slots, indexed through a
/// per-instruction slot table instead of a map lookup per access.
///
/// A slot holds data only once its alloca is *live*: `__local` allocas
/// go live when their group starts, `__private` ones when the work-item
/// executes the alloca (re-executing it zeroes the slot again). Buffers
/// keep their capacity across groups and work-items.
struct AllocaMem {
    /// `slot_of[inst id]`: index into `bufs`, or [`AllocaMem::NONE`] for
    /// instructions that are not allocas of this space.
    slot_of: Vec<u32>,
    bufs: Vec<Vec<RtVal>>,
    live: Vec<bool>,
}

impl AllocaMem {
    const NONE: u32 = u32::MAX;

    /// Slots for every alloca of `func` in `space`, none live yet.
    fn new(func: &Function, space: AddressSpace) -> Self {
        let mut slot_of = vec![Self::NONE; func.insts.len()];
        let mut n = 0usize;
        for inst in &func.insts {
            if matches!(inst.op, Op::Alloca { space: s, .. } if s == space) {
                slot_of[inst.id.0 as usize] = n as u32;
                n += 1;
            }
        }
        AllocaMem { slot_of, bufs: vec![Vec::new(); n], live: vec![false; n] }
    }

    fn slot(&self, a: InstId) -> Option<usize> {
        match self.slot_of.get(a.0 as usize) {
            Some(&s) if s != Self::NONE && self.live[s as usize] => Some(s as usize),
            _ => None,
        }
    }

    /// The live buffer of alloca `a`.
    fn get(&self, a: InstId) -> Option<&Vec<RtVal>> {
        self.slot(a).map(|s| &self.bufs[s])
    }

    /// The live buffer of alloca `a`, mutably.
    fn get_mut(&mut self, a: InstId) -> Option<&mut Vec<RtVal>> {
        self.slot(a).map(|s| &mut self.bufs[s])
    }

    /// Makes alloca `a` live with `len` zeroed elements.
    fn alloc(&mut self, a: InstId, len: usize, zero: &RtVal) {
        if let Some(&s) = self.slot_of.get(a.0 as usize).filter(|&&s| s != Self::NONE) {
            let buf = &mut self.bufs[s as usize];
            buf.clear();
            buf.resize(len, zero.clone());
            self.live[s as usize] = true;
        }
    }

    /// Retires every alloca (end of scope).
    fn reset(&mut self) {
        self.live.fill(false);
    }
}

/// Per-work-item geometry context.
#[derive(Debug, Clone, Copy)]
struct WiCtx {
    global_id: [u64; 3],
    local_id: [u64; 3],
    group_id: [u64; 3],
    global_size: [u64; 3],
    local_size: [u64; 3],
    num_groups: [u64; 3],
    linear_id: u64,
    group_linear: u64,
}

impl<'a> Machine<'a> {
    /// Appends a memory access to the trace, enforcing the trace-size fuel.
    fn push_trace(&mut self, access: MemAccess) -> Result<(), InterpError> {
        if self.trace.len() >= self.opts.trace_limit {
            return Err(InterpError::TraceLimit(self.opts.trace_limit));
        }
        self.trace.push(access);
        Ok(())
    }

    fn run_group(
        &mut self,
        group_linear: u64,
        group: [u64; 3],
        nd: &NdRange,
    ) -> Result<(), InterpError> {
        // Local allocas shared across the work-group.
        for inst in &self.func.insts {
            if let Op::Alloca { space: AddressSpace::Local, elems } = inst.op {
                let lanes = inst.ty.lanes() as u64;
                self.local_mem.alloc(
                    inst.id,
                    (elems * lanes.max(1)) as usize,
                    &RtVal::zero(&inst.ty),
                );
            }
        }

        for lz in 0..nd.local[2] {
            for ly in 0..nd.local[1] {
                for lx in 0..nd.local[0] {
                    let local_id = [lx, ly, lz];
                    let global_id = [
                        group[0] * nd.local[0] + lx,
                        group[1] * nd.local[1] + ly,
                        group[2] * nd.local[2] + lz,
                    ];
                    let linear_id = global_id[2] * nd.global[1] * nd.global[0]
                        + global_id[1] * nd.global[0]
                        + global_id[0];
                    let ctx = WiCtx {
                        global_id,
                        local_id,
                        group_id: group,
                        global_size: nd.global,
                        local_size: nd.local,
                        num_groups: [
                            nd.global[0] / nd.local[0],
                            nd.global[1] / nd.local[1],
                            nd.global[2] / nd.local[2],
                        ],
                        linear_id,
                        group_linear,
                    };
                    self.run_work_item(ctx)?;
                    self.work_items_executed += 1;
                }
            }
        }
        Ok(())
    }

    fn run_work_item(&mut self, ctx: WiCtx) -> Result<(), InterpError> {
        let func = self.func;
        // Taken out of the machine for the work-item so instructions can
        // borrow it alongside `&mut self`; put back on the way out.
        let mut regs = std::mem::take(&mut self.regs);
        regs.clear();
        regs.resize(func.insts.len(), None);
        self.private_mem.reset();
        let result = self.run_work_item_with(&ctx, &mut regs);
        self.regs = regs;
        result
    }

    fn run_work_item_with(
        &mut self,
        ctx: &WiCtx,
        regs: &mut [Option<RtVal>],
    ) -> Result<(), InterpError> {
        let func = self.func;
        let mut steps: u64 = 0;
        let mut block = func.entry;
        let mut prev_block: Option<flexcl_ir::BlockId> = None;

        loop {
            if let Some(p) = prev_block {
                self.edge_counts.record(p, block);
            }
            for &iid in &func.block(block).insts {
                steps += 1;
                if steps > self.opts.step_limit {
                    return Err(InterpError::StepLimit(self.opts.step_limit));
                }
                let inst = func.inst(iid);
                let result = self.exec_inst(inst, ctx, regs)?;
                regs[iid.0 as usize] = result;
            }
            let term = &func.block(block).term;
            prev_block = Some(block);
            match term {
                Terminator::Br(t) => block = *t,
                Terminator::CondBr(c, t, f) => {
                    let cond = eval_value_with(c, regs, self.args);
                    block = if cond.as_bool() { *t } else { *f };
                }
                Terminator::Ret => return Ok(()),
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    fn exec_inst(
        &mut self,
        inst: &flexcl_ir::Inst,
        ctx: &WiCtx,
        regs: &mut [Option<RtVal>],
    ) -> Result<Option<RtVal>, InterpError> {
        let arg = |i: usize| eval_value_with(&inst.args[i], regs, self.args);
        Ok(match &inst.op {
            Op::Alloca { space, elems } => {
                if *space == AddressSpace::Private {
                    self.private_mem.alloc(inst.id, *elems as usize, &RtVal::zero(&inst.ty));
                }
                // Local allocas were materialised per work-group.
                Some(RtVal::Int(0))
            }
            Op::Bin(op) => Some(eval_bin(*op, &arg(0), &arg(1), &inst.ty)),
            Op::Un(op) => Some(eval_un(*op, &arg(0), &inst.ty)),
            Op::Select => {
                let v = if arg(0).as_bool() { arg(1) } else { arg(2) };
                Some(v.convert_to(&inst.ty))
            }
            Op::Convert => Some(arg(0).convert_to(&inst.ty)),
            Op::Splat => Some(arg(0).convert_to(&inst.ty)),
            Op::Extract(lane) => Some(match arg(0) {
                RtVal::FloatVec(v) => RtVal::Float(v.get(*lane as usize).copied().unwrap_or(0.0)),
                RtVal::IntVec(v) => RtVal::Int(v.get(*lane as usize).copied().unwrap_or(0)),
                scalar => scalar,
            }),
            Op::Insert(lane) => {
                let mut vec = arg(0).convert_to(&inst.ty);
                let s = arg(1);
                match &mut vec {
                    RtVal::FloatVec(v) => {
                        if let Some(slot) = v.get_mut(*lane as usize) {
                            *slot = s.as_float();
                        }
                    }
                    RtVal::IntVec(v) => {
                        if let Some(slot) = v.get_mut(*lane as usize) {
                            *slot = s.as_int();
                        }
                    }
                    _ => {}
                }
                Some(vec)
            }
            Op::Math(m) => {
                let vals: Vec<RtVal> = (0..inst.args.len()).map(arg).collect();
                Some(eval_math(*m, &vals, &inst.ty))
            }
            Op::WorkItem(wi) => {
                let dim = (arg(0).as_int().clamp(0, 2)) as usize;
                let v = match wi {
                    WorkItemFn::GlobalId => ctx.global_id[dim],
                    WorkItemFn::LocalId => ctx.local_id[dim],
                    WorkItemFn::GroupId => ctx.group_id[dim],
                    WorkItemFn::GlobalSize => ctx.global_size[dim],
                    WorkItemFn::LocalSize => ctx.local_size[dim],
                    WorkItemFn::NumGroups => ctx.num_groups[dim],
                    WorkItemFn::WorkDim => 3,
                };
                Some(RtVal::Int(v as i64))
            }
            Op::Barrier => None,
            Op::Load { space, root } => {
                let idx = arg(0).as_int();
                Some(self.load(*space, *root, idx, &inst.ty, ctx)?)
            }
            Op::Store { space, root } => {
                let idx = arg(0).as_int();
                let val = arg(1);
                self.store(*space, *root, idx, &val, ctx)?;
                None
            }
        })
    }

    fn load(
        &mut self,
        space: AddressSpace,
        root: MemRoot,
        idx: i64,
        ty: &Type,
        ctx: &WiCtx,
    ) -> Result<RtVal, InterpError> {
        match (space, root) {
            (AddressSpace::Global | AddressSpace::Constant, MemRoot::Param(p)) => {
                let lanes = ty.lanes() as i64;
                let elem_bytes = ty.bytes().unwrap_or(4) as u32;
                if self.opts.record_trace {
                    self.push_trace(MemAccess {
                        write: false,
                        param: p,
                        elem_index: idx,
                        bytes: elem_bytes,
                        work_item: ctx.linear_id,
                        work_group: ctx.group_linear,
                    })?;
                }
                let buf = &self.args[p as usize];
                if lanes == 1 {
                    buf.read(usize::try_from(idx).map_err(|_| InterpError::OutOfBounds {
                        param: p,
                        index: idx,
                        len: buf.len(),
                    })?)
                    .ok_or(InterpError::OutOfBounds { param: p, index: idx, len: buf.len() })
                } else {
                    let base = idx * lanes;
                    let mut out_f = Vec::with_capacity(lanes as usize);
                    let mut out_i = Vec::with_capacity(lanes as usize);
                    let is_float = ty.is_float();
                    for l in 0..lanes {
                        let v = buf
                            .read((base + l) as usize)
                            .ok_or(InterpError::OutOfBounds {
                                param: p,
                                index: base + l,
                                len: buf.len(),
                            })?;
                        if is_float {
                            out_f.push(v.as_float());
                        } else {
                            out_i.push(v.as_int());
                        }
                    }
                    Ok(if is_float { RtVal::FloatVec(out_f) } else { RtVal::IntVec(out_i) })
                }
            }
            (AddressSpace::Local, MemRoot::Param(p)) => {
                // __local pointer parameter: host-allocated scratch; treat as
                // a work-group buffer keyed by param index via a pseudo
                // buffer in args.
                let buf = &self.args[p as usize];
                buf.read(usize::try_from(idx).unwrap_or(usize::MAX)).ok_or(
                    InterpError::OutOfBounds { param: p, index: idx, len: buf.len() },
                )
            }
            (_, MemRoot::Alloca(a)) => {
                let mem = if space == AddressSpace::Local {
                    self.local_mem.get(a)
                } else {
                    self.private_mem.get(a)
                };
                let mem = mem.ok_or(InterpError::OutOfBounds { param: 0, index: idx, len: 0 })?;
                mem.get(usize::try_from(idx).unwrap_or(usize::MAX)).cloned().ok_or(
                    InterpError::OutOfBounds { param: 0, index: idx, len: mem.len() },
                )
            }
            (space, root) => Err(InterpError::BadArguments(format!(
                "unsupported load: {space} from {root:?}"
            ))),
        }
    }

    fn store(
        &mut self,
        space: AddressSpace,
        root: MemRoot,
        idx: i64,
        val: &RtVal,
        ctx: &WiCtx,
    ) -> Result<(), InterpError> {
        match (space, root) {
            (AddressSpace::Global, MemRoot::Param(p)) => {
                let (lanes, elem_bytes, is_float) = match val {
                    RtVal::FloatVec(v) => (v.len() as i64, 4 * v.len() as u32, true),
                    RtVal::IntVec(v) => (v.len() as i64, 4 * v.len() as u32, false),
                    RtVal::Float(_) => (1, 4, true),
                    RtVal::Int(_) => (1, 4, false),
                };
                let _ = is_float;
                if self.opts.record_trace {
                    self.push_trace(MemAccess {
                        write: true,
                        param: p,
                        elem_index: idx,
                        bytes: elem_bytes,
                        work_item: ctx.linear_id,
                        work_group: ctx.group_linear,
                    })?;
                }
                let buf = &mut self.args[p as usize];
                if lanes == 1 {
                    if !buf.write(usize::try_from(idx).unwrap_or(usize::MAX), val) {
                        return Err(InterpError::OutOfBounds {
                            param: p,
                            index: idx,
                            len: buf.len(),
                        });
                    }
                } else {
                    let base = idx * lanes;
                    for l in 0..lanes {
                        let scalar = match val {
                            RtVal::FloatVec(v) => {
                                RtVal::Float(v.get(l as usize).copied().unwrap_or(0.0))
                            }
                            RtVal::IntVec(v) => {
                                RtVal::Int(v.get(l as usize).copied().unwrap_or(0))
                            }
                            // `lanes > 1` only for the vector variants, but
                            // degrade to a broadcast rather than panic.
                            other => other.clone(),
                        };
                        if !buf.write((base + l) as usize, &scalar) {
                            return Err(InterpError::OutOfBounds {
                                param: p,
                                index: base + l,
                                len: buf.len(),
                            });
                        }
                    }
                }
                Ok(())
            }
            (AddressSpace::Local, MemRoot::Param(p)) => {
                let buf = &mut self.args[p as usize];
                if buf.write(usize::try_from(idx).unwrap_or(usize::MAX), val) {
                    Ok(())
                } else {
                    Err(InterpError::OutOfBounds { param: p, index: idx, len: buf.len() })
                }
            }
            (_, MemRoot::Alloca(a)) => {
                let mem = if space == AddressSpace::Local {
                    self.local_mem.get_mut(a)
                } else {
                    self.private_mem.get_mut(a)
                };
                let mem = mem.ok_or(InterpError::OutOfBounds { param: 0, index: idx, len: 0 })?;
                let len = mem.len();
                match mem.get_mut(usize::try_from(idx).unwrap_or(usize::MAX)) {
                    Some(slot) => {
                        *slot = val.clone();
                        Ok(())
                    }
                    None => Err(InterpError::OutOfBounds { param: 0, index: idx, len }),
                }
            }
            (space, root) => Err(InterpError::BadArguments(format!(
                "unsupported store: {space} to {root:?}"
            ))),
        }
    }
}

fn eval_value_with(v: &Value, regs: &[Option<RtVal>], args: &[KernelArg]) -> RtVal {
    match v {
        Value::Literal(Literal::Int(i)) => RtVal::Int(*i),
        Value::Literal(Literal::Float(f)) => RtVal::Float(*f),
        Value::Inst(id) => regs[id.0 as usize].clone().unwrap_or(RtVal::Int(0)),
        Value::Param(p) => match args.get(*p as usize) {
            Some(KernelArg::Int(i)) => RtVal::Int(*i),
            Some(KernelArg::Float(f)) => RtVal::Float(*f),
            _ => RtVal::Int(0), // pointer params never appear in value position
        },
    }
}

fn eval_bin(op: BinOp, a: &RtVal, b: &RtVal, ty: &Type) -> RtVal {
    // Vector case: lane-wise recursion.
    if ty.lanes() > 1 {
        let n = ty.lanes() as usize;
        let elem_ty = Type::Scalar(ty.element_scalar().unwrap_or(Scalar::I64));
        let lane = |v: &RtVal, i: usize| -> RtVal {
            match v {
                RtVal::FloatVec(x) => RtVal::Float(x.get(i).copied().unwrap_or(0.0)),
                RtVal::IntVec(x) => RtVal::Int(x.get(i).copied().unwrap_or(0)),
                s => s.clone(),
            }
        };
        let results: Vec<RtVal> = (0..n).map(|i| eval_bin(op, &lane(a, i), &lane(b, i), &elem_ty)).collect();
        return if elem_ty.is_float() {
            RtVal::FloatVec(results.iter().map(RtVal::as_float).collect())
        } else {
            RtVal::IntVec(results.iter().map(RtVal::as_int).collect())
        };
    }

    let float_op = ty.is_float()
        || matches!(
            (a, b),
            (RtVal::Float(_), _) | (_, RtVal::Float(_))
        ) && !op.is_comparison();
    let is_cmp = op.is_comparison();
    let float_inputs = matches!(a, RtVal::Float(_) | RtVal::FloatVec(_))
        || matches!(b, RtVal::Float(_) | RtVal::FloatVec(_));

    if is_cmp {
        let r = if float_inputs {
            let (x, y) = (a.as_float(), b.as_float());
            match op {
                BinOp::Lt => x < y,
                BinOp::Gt => x > y,
                BinOp::Le => x <= y,
                BinOp::Ge => x >= y,
                BinOp::Eq => x == y,
                BinOp::Ne => x != y,
                BinOp::LogAnd => x != 0.0 && y != 0.0,
                BinOp::LogOr => x != 0.0 || y != 0.0,
                _ => false, // is_cmp guarantees a comparison op

            }
        } else {
            let (x, y) = (a.as_int(), b.as_int());
            match op {
                BinOp::Lt => x < y,
                BinOp::Gt => x > y,
                BinOp::Le => x <= y,
                BinOp::Ge => x >= y,
                BinOp::Eq => x == y,
                BinOp::Ne => x != y,
                BinOp::LogAnd => x != 0 && y != 0,
                BinOp::LogOr => x != 0 || y != 0,
                _ => false, // is_cmp guarantees a comparison op

            }
        };
        return RtVal::Int(i64::from(r));
    }

    if float_op {
        let (x, y) = (a.as_float(), b.as_float());
        let r = match op {
            BinOp::Add => x + y,
            BinOp::Sub => x - y,
            BinOp::Mul => x * y,
            BinOp::Div => x / y,
            BinOp::Rem => x % y,
            _ => return RtVal::Int(0),
        };
        RtVal::Float(r)
    } else {
        let (x, y) = (a.as_int(), b.as_int());
        let r = match op {
            BinOp::Add => x.wrapping_add(y),
            BinOp::Sub => x.wrapping_sub(y),
            BinOp::Mul => x.wrapping_mul(y),
            BinOp::Div => {
                if y == 0 {
                    0
                } else {
                    x.wrapping_div(y)
                }
            }
            BinOp::Rem => {
                if y == 0 {
                    0
                } else {
                    x.wrapping_rem(y)
                }
            }
            BinOp::And => x & y,
            BinOp::Or => x | y,
            BinOp::Xor => x ^ y,
            BinOp::Shl => x.wrapping_shl(y as u32 & 63),
            BinOp::Shr => x.wrapping_shr(y as u32 & 63),
            _ => 0,
        };
        let s = ty.element_scalar().unwrap_or(Scalar::I64);
        RtVal::Int(truncate_int(r, s))
    }
}

fn eval_un(op: UnOp, a: &RtVal, ty: &Type) -> RtVal {
    match op {
        UnOp::Neg => {
            if ty.is_float() {
                RtVal::Float(-a.as_float())
            } else if let RtVal::FloatVec(v) = a {
                RtVal::FloatVec(v.iter().map(|x| -x).collect())
            } else if let RtVal::IntVec(v) = a {
                RtVal::IntVec(v.iter().map(|x| -x).collect())
            } else if matches!(a, RtVal::Float(_)) {
                RtVal::Float(-a.as_float())
            } else {
                RtVal::Int(-a.as_int())
            }
        }
        UnOp::Not => RtVal::Int(i64::from(!a.as_bool())),
        UnOp::BitNot => RtVal::Int(!a.as_int()),
    }
}

fn eval_math(m: MathOp, args: &[RtVal], ty: &Type) -> RtVal {
    // Vector math: lane-wise.
    if ty.lanes() > 1 {
        let n = ty.lanes() as usize;
        let elem_ty = Type::Scalar(ty.element_scalar().unwrap_or(Scalar::I64));
        let lane = |v: &RtVal, i: usize| -> RtVal {
            match v {
                RtVal::FloatVec(x) => RtVal::Float(x.get(i).copied().unwrap_or(0.0)),
                RtVal::IntVec(x) => RtVal::Int(x.get(i).copied().unwrap_or(0)),
                s => s.clone(),
            }
        };
        let results: Vec<RtVal> = (0..n)
            .map(|i| {
                let lane_args: Vec<RtVal> = args.iter().map(|a| lane(a, i)).collect();
                eval_math(m, &lane_args, &elem_ty)
            })
            .collect();
        return if elem_ty.is_float() {
            RtVal::FloatVec(results.iter().map(RtVal::as_float).collect())
        } else {
            RtVal::IntVec(results.iter().map(RtVal::as_int).collect())
        };
    }

    use MathOp::*;
    let f = |i: usize| args.get(i).map_or(0.0, RtVal::as_float);
    let n = |i: usize| args.get(i).map_or(0, RtVal::as_int);
    let float_result = |v: f64| {
        if ty.is_float() {
            RtVal::Float(v)
        } else {
            RtVal::Int(v as i64)
        }
    };
    match m {
        Sqrt => float_result(f(0).sqrt()),
        Rsqrt => float_result(1.0 / f(0).sqrt()),
        Exp => float_result(f(0).exp()),
        Exp2 => float_result(f(0).exp2()),
        Log => float_result(f(0).ln()),
        Log2 => float_result(f(0).log2()),
        Sin => float_result(f(0).sin()),
        Cos => float_result(f(0).cos()),
        Tan => float_result(f(0).tan()),
        Fabs => float_result(f(0).abs()),
        Floor => float_result(f(0).floor()),
        Ceil => float_result(f(0).ceil()),
        Round => float_result(f(0).round()),
        Trunc => float_result(f(0).trunc()),
        Pow => float_result(f(0).powf(f(1))),
        Fmod => float_result(f(0) % f(1)),
        Atan2 => float_result(f(0).atan2(f(1))),
        Hypot => float_result(f(0).hypot(f(1))),
        Fmin => float_result(f(0).min(f(1))),
        Fmax => float_result(f(0).max(f(1))),
        Mad | Fma => float_result(f(0) * f(1) + f(2)),
        Clamp => float_result(f(0).clamp(f(1), f(2).max(f(1)))),
        Mix => float_result(f(0) + (f(1) - f(0)) * f(2)),
        Min => {
            if ty.is_float() {
                RtVal::Float(f(0).min(f(1)))
            } else {
                RtVal::Int(n(0).min(n(1)))
            }
        }
        Max => {
            if ty.is_float() {
                RtVal::Float(f(0).max(f(1)))
            } else {
                RtVal::Int(n(0).max(n(1)))
            }
        }
        Abs => {
            if ty.is_float() {
                RtVal::Float(f(0).abs())
            } else {
                RtVal::Int(n(0).abs())
            }
        }
        Mul24 => RtVal::Int((n(0) & 0xFF_FFFF).wrapping_mul(n(1) & 0xFF_FFFF)),
        Mad24 => RtVal::Int((n(0) & 0xFF_FFFF).wrapping_mul(n(1) & 0xFF_FFFF).wrapping_add(n(2))),
        Select => {
            if args.get(2).is_some_and(RtVal::as_bool) {
                args[1].clone()
            } else {
                args[0].clone()
            }
        }
    }
}
