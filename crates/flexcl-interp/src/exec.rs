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

use crate::decode::{
    arith, cmp, math, un, AllocaSlot, Instr, Program, Reg, Term, Val, NO_SLOT, SINK_LANES,
};
use crate::profile::{EdgeCounts, GroupObservation, MemAccess, Profile};
use crate::value::KernelArg;
use flexcl_frontend::builtins::WorkItemFn;
use flexcl_frontend::types::Type;
use flexcl_ir::{BlockId, Function, MemRoot, Op};
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
            GeometryError::NotDivisible { dim, global, local } => {
                write!(f, "global size {global} not divisible by local size {local} in dim {dim}")
            }
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
    let mut refs: Vec<ArgRef<'_>> = args.iter_mut().map(ArgRef::Write).collect();
    run_refs(func, &mut refs, ndrange, opts)
}

/// A kernel argument lent to [`run_refs`].
#[derive(Debug)]
pub enum ArgRef<'a> {
    /// An argument the kernel never stores to, read in place.
    Read(&'a KernelArg),
    /// An argument the kernel may store to; stores write through.
    Write(&'a mut KernelArg),
}

impl ArgRef<'_> {
    fn get(&self) -> &KernelArg {
        match self {
            ArgRef::Read(a) => a,
            ArgRef::Write(a) => a,
        }
    }
}

/// [`run`] over lent arguments, so a caller can profile against buffers
/// it shares — only the ones the kernel stores to need to be its own.
///
/// # Errors
///
/// As [`run`], plus [`InterpError::BadArguments`] when the kernel has a
/// store to an argument lent as [`ArgRef::Read`].
pub fn run_refs(
    func: &Function,
    args: &mut [ArgRef<'_>],
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
        let ok = match (&p.ty, a.get()) {
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
    for inst in &func.insts {
        if let Op::Store { root: MemRoot::Param(p), .. } = inst.op {
            if matches!(args.get(p as usize), Some(ArgRef::Read(_))) {
                return Err(InterpError::BadArguments(format!(
                    "argument {p} is lent read-only but the kernel stores to it"
                )));
            }
        }
    }

    let counts = [0, 1, 2].map(|d| ndrange.global[d] / ndrange.local[d]);
    let sizes = [ndrange.global, ndrange.local, counts];
    let prog = Program::decode(func, &args.iter().map(ArgRef::get).collect::<Vec<_>>(), sizes);
    let bufs = args
        .iter_mut()
        .map(|a| match a {
            ArgRef::Write(KernelArg::IntBuf(v)) => Buf::Int(v),
            ArgRef::Write(KernelArg::FloatBuf(v)) => Buf::Float(v),
            ArgRef::Read(KernelArg::IntBuf(v)) => Buf::IntRead(v),
            ArgRef::Read(KernelArg::FloatBuf(v)) => Buf::FloatRead(v),
            _ => Buf::None,
        })
        .collect();
    let mut machine = Machine {
        prog: &prog,
        bufs,
        regs: prog.init.clone(),
        trace: Vec::new(),
        trace_limit: opts.trace_limit,
        step_limit: opts.step_limit,
        steps: 0,
        work_items_executed: 0,
        hits: vec![[0; 2]; prog.blocks.len()],
        private: AllocaMem::new(&prog.private),
        local: AllocaMem::new(&prog.local),
        ids: [[0; 3]; 3],
        sizes,
        linear_id: 0,
        group_linear: 0,
    };

    let total: u64 = counts.iter().product();
    let limit = opts.profile_groups.unwrap_or(u64::MAX);
    let selected = select_profiled_groups(total, limit, counts, opts.profile_sampling);

    let mut observations = Vec::with_capacity(selected.len());
    for (g_idx, weight) in selected {
        let wi_before = machine.work_items_executed;
        let (gx, gy) = (g_idx % counts[0], g_idx / counts[0] % counts[1]);
        let group = [gx, gy, g_idx / (counts[0] * counts[1])];
        machine.run_group(g_idx, group)?;
        observations.push(GroupObservation {
            group: g_idx,
            weight,
            edges: machine.take_edges(),
            work_items: machine.work_items_executed - wi_before,
        });
    }

    span.attr_u64("groups_profiled", observations.len() as u64);
    span.attr_u64("work_items", machine.work_items_executed);
    span.attr_u64("steps", machine.steps);
    Ok(Profile {
        steps: machine.steps,
        ..Profile::from_group_parts(func, observations, machine.trace, machine.work_items_executed)
    })
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

/// One kernel argument as the machine accesses it.
enum Buf<'a> {
    Int(&'a mut [i64]),
    Float(&'a mut [f64]),
    /// Lent read-only ([`ArgRef::Read`]); the kernel never stores to it.
    IntRead(&'a [i64]),
    FloatRead(&'a [f64]),
    /// A scalar argument: no memory.
    None,
}

impl Buf<'_> {
    fn len(&self) -> usize {
        match self {
            Buf::Int(v) => v.len(),
            Buf::Float(v) => v.len(),
            Buf::IntRead(v) => v.len(),
            Buf::FloatRead(v) => v.len(),
            Buf::None => 0,
        }
    }

    /// Element `i`, tagged by the buffer's kind.
    #[inline(always)]
    fn read(&self, i: usize) -> Option<Val> {
        match self {
            Buf::Int(v) => v.get(i).map(|x| Val::Int(*x)),
            Buf::Float(v) => v.get(i).map(|x| Val::Float(*x)),
            Buf::IntRead(v) => v.get(i).map(|x| Val::Int(*x)),
            Buf::FloatRead(v) => v.get(i).map(|x| Val::Float(*x)),
            Buf::None => None,
        }
    }

    /// Writes element `i` converted to the buffer's kind; `false` when out
    /// of bounds.
    #[inline(always)]
    fn write(&mut self, i: usize, val: Val) -> bool {
        match self {
            Buf::Int(v) => v.get_mut(i).map(|slot| *slot = val.as_int()).is_some(),
            Buf::Float(v) => v.get_mut(i).map(|slot| *slot = val.as_float()).is_some(),
            // `run_refs` rejects kernels that store to a read-only argument.
            Buf::IntRead(_) | Buf::FloatRead(_) | Buf::None => false,
        }
    }
}

/// The cells of one address space's allocas (layout in
/// [`Program::private`] / [`Program::local`]). A slot holds data only once
/// its alloca is *live*: `__local` allocas go live when their group
/// starts, `__private` ones when the work-item executes the alloca
/// (re-executing it zeroes the slot again).
struct AllocaMem {
    cells: Vec<Val>,
    live: Vec<bool>,
}

impl AllocaMem {
    fn new(slots: &[AllocaSlot]) -> Self {
        let cells = slots.last().map_or(0, |s| s.offset + s.len * s.width);
        AllocaMem { cells: vec![Val::Int(0); cells], live: vec![false; slots.len()] }
    }

    /// Makes slot `k` live, zeroed.
    fn alloc(&mut self, slots: &[AllocaSlot], k: usize) {
        let s = slots[k];
        self.cells[s.offset..s.offset + s.len * s.width].fill(s.zero);
        self.live[k] = true;
    }

    /// The first cell of element `idx` of live slot `slot`.
    #[inline(always)]
    fn element(
        &self,
        slots: &[AllocaSlot],
        slot: u32,
        idx: i64,
    ) -> Result<(usize, usize), InterpError> {
        if slot == NO_SLOT || !self.live[slot as usize] {
            return Err(InterpError::OutOfBounds { param: 0, index: idx, len: 0 });
        }
        let s = slots[slot as usize];
        match usize::try_from(idx) {
            Ok(i) if i < s.len => Ok((s.offset + i * s.width, s.width)),
            _ => Err(InterpError::OutOfBounds { param: 0, index: idx, len: s.len }),
        }
    }
}

/// Executes a [`Program`] over the profiled work-groups.
struct Machine<'p, 'a> {
    prog: &'p Program,
    bufs: Vec<Buf<'a>>,
    /// Work-item registers, then the constant pool.
    regs: Vec<Val>,
    trace: Vec<MemAccess>,
    trace_limit: usize,
    step_limit: u64,
    /// Instructions executed by completed work-items.
    steps: u64,
    work_items_executed: u64,
    /// Taken-edge counts of the running group: `hits[block]` holds the
    /// branch-taken and fall-through counts of the block's terminator.
    hits: Vec<[u64; 2]>,
    private: AllocaMem,
    local: AllocaMem,
    /// Global, local and group id of the running work-item
    /// (`[field][dim]`).
    ids: [[u64; 3]; 3],
    /// Global size, local size and group count (`[field][dim]`).
    sizes: [[u64; 3]; 3],
    linear_id: u64,
    group_linear: u64,
}

impl Machine<'_, '_> {
    fn run_group(&mut self, group_linear: u64, group: [u64; 3]) -> Result<(), InterpError> {
        let prog = self.prog;
        for k in 0..prog.local.len() {
            self.local.alloc(&prog.local, k);
        }
        let [global, local, _] = self.sizes;
        self.group_linear = group_linear;
        for lz in 0..local[2] {
            for ly in 0..local[1] {
                for lx in 0..local[0] {
                    let l = [lx, ly, lz];
                    let g = [0, 1, 2].map(|d| group[d] * local[d] + l[d]);
                    self.ids = [g, l, group];
                    self.linear_id = g[2] * global[1] * global[0] + g[1] * global[0] + g[0];
                    self.run_work_item()?;
                    self.work_items_executed += 1;
                }
            }
        }
        Ok(())
    }

    /// The running group's edge counts, resetting them.
    fn take_edges(&mut self) -> EdgeCounts {
        let mut edges = EdgeCounts::new();
        for (b, block) in self.prog.blocks.iter().enumerate() {
            let [taken, not_taken] = std::mem::take(&mut self.hits[b]);
            let from = BlockId(b as u32);
            match block.term {
                Term::Br(t) => edges.record_n(from, BlockId(t), taken),
                Term::CondBr { t, f, .. } => {
                    edges.record_n(from, BlockId(t), taken);
                    edges.record_n(from, BlockId(f), not_taken);
                }
                Term::Ret => {}
            }
        }
        edges
    }

    fn run_work_item(&mut self) -> Result<(), InterpError> {
        let prog = self.prog;
        self.regs[SINK_LANES..prog.wi_regs].fill(Val::Int(0));
        self.private.live.fill(false);
        let mut steps = 0u64;
        let mut b = prog.entry as usize;
        loop {
            let block = &prog.blocks[b];
            let ops = &prog.ops[block.start as usize..block.end as usize];
            // Each instruction is one step; the step that would exceed the
            // limit fails instead of executing.
            let room = self.step_limit - steps;
            let runnable = if ops.len() as u64 <= room { ops } else { &ops[..room as usize] };
            steps += runnable.len() as u64;
            for op in runnable {
                self.exec(op)?;
            }
            if runnable.len() < ops.len() {
                return Err(InterpError::StepLimit(self.step_limit));
            }
            match block.term {
                Term::Br(t) => {
                    self.hits[b][0] += 1;
                    b = t as usize;
                }
                Term::CondBr { cond, lanes, t, f } => {
                    let c = (cond as usize..cond as usize + usize::from(lanes))
                        .any(|r| self.regs[r].as_bool());
                    self.hits[b][usize::from(!c)] += 1;
                    b = if c { t } else { f } as usize;
                }
                Term::Ret => {
                    self.steps += steps;
                    return Ok(());
                }
            }
        }
    }

    /// Appends a global access to the trace, enforcing the trace-size fuel.
    #[inline(always)]
    fn record(
        &mut self,
        write: bool,
        param: u32,
        elem_index: i64,
        bytes: u32,
    ) -> Result<(), InterpError> {
        if self.trace.len() >= self.trace_limit {
            return Err(InterpError::TraceLimit(self.trace_limit));
        }
        self.trace.push(MemAccess {
            write,
            param,
            elem_index,
            bytes,
            work_item: self.linear_id,
            work_group: self.group_linear,
        });
        Ok(())
    }

    #[inline(always)]
    fn exec(&mut self, op: &Instr) -> Result<(), InterpError> {
        let r = |x: Reg| x as usize;
        match *op {
            Instr::Nop => {}
            Instr::Copy { dst, src } => self.regs[r(dst)] = self.regs[r(src)],
            Instr::Cmp { op, dst, a, b } => {
                self.regs[r(dst)] = cmp(op, self.regs[r(a)], self.regs[r(b)]);
            }
            Instr::Arith { op, dst, a, b, float_ty, trunc } => {
                self.regs[r(dst)] = arith(op, self.regs[r(a)], self.regs[r(b)], float_ty, trunc);
            }
            Instr::Un { op, dst, a, float_ty } => {
                self.regs[r(dst)] = un(op, self.regs[r(a)], float_ty);
            }
            Instr::Conv { dst, a, to } => self.regs[r(dst)] = to.apply(self.regs[r(a)]),
            Instr::Select { dst, cond, cond_lanes, t, f, to } => {
                let c =
                    (r(cond)..r(cond) + usize::from(cond_lanes)).any(|x| self.regs[x].as_bool());
                self.regs[r(dst)] = to.apply(self.regs[r(if c { t } else { f })]);
            }
            Instr::Math { m, dst, args, float_ty } => {
                self.regs[r(dst)] = math(m, args.map(|a| self.regs[r(a)]), float_ty);
            }
            Instr::WorkItem { f, dst, dim } => {
                let d = self.regs[r(dim)].as_int().clamp(0, 2) as usize;
                let v = match f {
                    WorkItemFn::GlobalId => self.ids[0][d],
                    WorkItemFn::LocalId => self.ids[1][d],
                    WorkItemFn::GroupId => self.ids[2][d],
                    WorkItemFn::GlobalSize => self.sizes[0][d],
                    WorkItemFn::LocalSize => self.sizes[1][d],
                    WorkItemFn::NumGroups => self.sizes[2][d],
                    WorkItemFn::WorkDim => 3,
                };
                self.regs[r(dst)] = Val::Int(v as i64);
            }
            Instr::PrivAlloc { slot } => self.private.alloc(&self.prog.private, slot as usize),
            Instr::LoadGlobal { dst, param, idx, bytes } => {
                let i = self.regs[r(idx)].as_int();
                self.record(false, param, i, bytes)?;
                let buf = &self.bufs[param as usize];
                let oob = || InterpError::OutOfBounds { param, index: i, len: buf.len() };
                let i = usize::try_from(i).map_err(|_| oob())?;
                self.regs[r(dst)] = buf.read(i).ok_or_else(oob)?;
            }
            Instr::LoadGlobalVec { dst, param, idx, bytes, lanes, float } => {
                let i = self.regs[r(idx)].as_int();
                self.record(false, param, i, bytes)?;
                let buf = &self.bufs[param as usize];
                let base = i.wrapping_mul(i64::from(lanes));
                for l in 0..lanes {
                    let e = base.wrapping_add(i64::from(l));
                    let v = buf.read(e as usize).ok_or(InterpError::OutOfBounds {
                        param,
                        index: e,
                        len: buf.len(),
                    })?;
                    self.regs[r(dst) + usize::from(l)] =
                        if float { Val::Float(v.as_float()) } else { Val::Int(v.as_int()) };
                }
            }
            Instr::LoadLocalParam { dst, param, idx } => {
                let i = self.regs[r(idx)].as_int();
                let buf = &self.bufs[param as usize];
                self.regs[r(dst)] = buf
                    .read(usize::try_from(i).unwrap_or(usize::MAX))
                    .ok_or(InterpError::OutOfBounds { param, index: i, len: buf.len() })?;
            }
            Instr::LoadAlloca { dst, local, slot, idx, lanes } => {
                let i = self.regs[r(idx)].as_int();
                let (mem, slots) = if local {
                    (&self.local, &self.prog.local)
                } else {
                    (&self.private, &self.prog.private)
                };
                let (base, width) = mem.element(slots, slot, i)?;
                for l in 0..usize::from(lanes) {
                    self.regs[r(dst) + l] = mem.cells[base + if l < width { l } else { 0 }];
                }
            }
            Instr::LoadCell { dst, slot, cell, idx } => {
                if !self.private.live[slot as usize] {
                    return Err(InterpError::OutOfBounds { param: 0, index: idx, len: 0 });
                }
                self.regs[r(dst)] = self.private.cells[cell as usize];
            }
            Instr::StoreCell { slot, cell, idx, val } => {
                if !self.private.live[slot as usize] {
                    return Err(InterpError::OutOfBounds { param: 0, index: idx, len: 0 });
                }
                self.private.cells[cell as usize] = self.regs[r(val)];
            }
            Instr::StoreGlobal { param, idx, val, lanes } => {
                let i = self.regs[r(idx)].as_int();
                self.record(true, param, i, 4 * u32::from(lanes))?;
                let buf = &mut self.bufs[param as usize];
                if lanes == 1 {
                    if !buf.write(usize::try_from(i).unwrap_or(usize::MAX), self.regs[r(val)]) {
                        return Err(InterpError::OutOfBounds { param, index: i, len: buf.len() });
                    }
                } else {
                    let base = i.wrapping_mul(i64::from(lanes));
                    for l in 0..lanes {
                        let e = base.wrapping_add(i64::from(l));
                        if !buf.write(e as usize, self.regs[r(val) + usize::from(l)]) {
                            let len = buf.len();
                            return Err(InterpError::OutOfBounds { param, index: e, len });
                        }
                    }
                }
            }
            Instr::StoreLocalParam { param, idx, val } => {
                let i = self.regs[r(idx)].as_int();
                let buf = &mut self.bufs[param as usize];
                if !buf.write(usize::try_from(i).unwrap_or(usize::MAX), self.regs[r(val)]) {
                    return Err(InterpError::OutOfBounds { param, index: i, len: buf.len() });
                }
            }
            Instr::StoreAlloca { local, slot, idx, val, lanes } => {
                let i = self.regs[r(idx)].as_int();
                let (mem, slots) = if local {
                    (&mut self.local, &self.prog.local)
                } else {
                    (&mut self.private, &self.prog.private)
                };
                let (base, width) = mem.element(slots, slot, i)?;
                for l in 0..width {
                    let lane = if l < usize::from(lanes) { l } else { 0 };
                    mem.cells[base + l] = self.regs[r(val) + lane];
                }
            }
            Instr::Lanes(ref lane_op) => lane_op.exec(&mut self.regs),
            Instr::Fail(ref e) => return Err((**e).clone()),
        }
        Ok(())
    }
}
