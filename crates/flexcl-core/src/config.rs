//! Optimization configurations and the design space FlexCL explores.
//!
//! A configuration fixes the knobs the paper sweeps in §4: work-group
//! size, work-item pipelining, PE parallelism (loop unrolling /
//! vectorization), CU replication, and the communication mode.

use std::fmt;

/// How computation communicates with global memory (§3.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CommMode {
    /// Computation and global transfers are separated by barriers and do
    /// not overlap (Eq. 10).
    #[default]
    Barrier,
    /// Global transfers overlap computation through the work-item pipeline
    /// (Eq. 11–12).
    Pipeline,
}

impl fmt::Display for CommMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommMode::Barrier => f.write_str("barrier"),
            CommMode::Pipeline => f.write_str("pipeline"),
        }
    }
}

/// One point of the optimization design space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OptimizationConfig {
    /// Work-group size (x, y); `N_wi^wg = x · y`.
    pub work_group: (u32, u32),
    /// Whether work-items are pipelined within a PE.
    pub work_item_pipeline: bool,
    /// PE replication inside each CU (`P` of Eq. 6).
    pub num_pes: u32,
    /// CU replication (`C` of Eq. 7–8).
    pub num_cus: u32,
    /// Kernel vectorization width (scalar PEs per vector lane; §3.3.2 fn 1).
    pub vector_width: u32,
    /// Communication mode.
    pub comm_mode: CommMode,
    /// Thread-coarsening factor: each PE executes `coarsen_factor`
    /// consecutive work-items as one coarse item (1 = no coarsening).
    /// Must divide the work-group size. Coarsening rescales the NDRange
    /// seen by a PE, amortizes loop recurrences across the merged items,
    /// and re-groups the merged memory trace so overlapping stencil reads
    /// coalesce into fewer, wider bursts (DESIGN.md §15).
    pub coarsen_factor: u32,
    /// Temporal-blocking depth for iterative stencil kernels: the number
    /// of stencil time-steps fused on chip per DRAM round trip
    /// (1 = no temporal blocking). Depth `t` trades `(t-1)` halo-expanded
    /// compute layers held in BRAM for a `1/t` cut in global traffic
    /// (DESIGN.md §15). Only valid on iterative kernels.
    pub temporal_block_depth: u32,
}

impl OptimizationConfig {
    /// The unoptimized baseline: one scalar PE, one CU, no pipelining,
    /// barrier communication.
    pub fn baseline(work_group: (u32, u32)) -> Self {
        OptimizationConfig {
            work_group,
            work_item_pipeline: false,
            num_pes: 1,
            num_cus: 1,
            vector_width: 1,
            comm_mode: CommMode::Barrier,
            coarsen_factor: 1,
            temporal_block_depth: 1,
        }
    }

    /// Work-items per work-group.
    pub fn work_group_size(&self) -> u64 {
        u64::from(self.work_group.0) * u64::from(self.work_group.1)
    }

    /// Effective scalar-PE count (`P · vector width`).
    pub fn effective_pes(&self) -> u32 {
        self.num_pes * self.vector_width
    }

    /// Checks the configuration's structural invariants (non-zero
    /// work-group dimensions and replication factors).
    ///
    /// [`enumerate`] only generates valid configurations; this guards the
    /// hand-built ones entering through [`crate::dse::explore_configs`] or
    /// the public [`crate::estimate`] API.
    ///
    /// # Errors
    ///
    /// Returns [`crate::error::FlexclError::Config`] naming the first
    /// violated invariant.
    pub fn validate(&self) -> Result<(), crate::error::FlexclError> {
        let fail = |detail: &str| {
            Err(crate::error::FlexclError::Config { config: *self, detail: detail.into() })
        };
        if self.work_group.0 == 0 || self.work_group.1 == 0 {
            return fail("work-group dimensions must be non-zero");
        }
        if self.num_pes == 0 {
            return fail("PE replication must be at least 1");
        }
        if self.num_cus == 0 {
            return fail("CU replication must be at least 1");
        }
        if self.vector_width == 0 {
            return fail("vector width must be at least 1");
        }
        if self.num_pes.checked_mul(self.vector_width).is_none() {
            return fail("PE replication times vector width overflows");
        }
        if self.coarsen_factor == 0 {
            return fail("coarsening factor must be at least 1");
        }
        if self.temporal_block_depth == 0 {
            return fail("temporal blocking depth must be at least 1");
        }
        if !self.work_group_size().is_multiple_of(u64::from(self.coarsen_factor)) {
            return fail("coarsening factor must divide the work-group size");
        }
        Ok(())
    }

    /// Validates against both the structural invariants *and* a kernel's
    /// [`DesignSpaceLimits`] — the checks [`ConfigSpace`] enforces by
    /// construction but hand-built configurations (e.g. via
    /// [`crate::dse::explore_configs`]) can violate. Today that is the
    /// temporal-blocking gate: depth > 1 is only meaningful on iterative
    /// stencil kernels, where successive launches re-consume the previous
    /// step's output.
    ///
    /// # Errors
    ///
    /// Returns [`crate::error::FlexclError::Config`] naming the violated
    /// invariant.
    pub fn validate_for(
        &self,
        limits: &DesignSpaceLimits,
    ) -> Result<(), crate::error::FlexclError> {
        self.validate()?;
        if self.temporal_block_depth > 1 && !limits.iterative {
            return Err(crate::error::FlexclError::Config {
                config: *self,
                detail: "temporal blocking requires an iterative stencil kernel".into(),
            });
        }
        Ok(())
    }
}

impl Default for OptimizationConfig {
    fn default() -> Self {
        OptimizationConfig::baseline((64, 1))
    }
}

impl fmt::Display for OptimizationConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "wg={}x{} pipe={} P={} C={} V={} mode={}",
            self.work_group.0,
            self.work_group.1,
            u8::from(self.work_item_pipeline),
            self.num_pes,
            self.num_cus,
            self.vector_width,
            self.comm_mode
        )?;
        // Identity values stay silent so logs/goldens from before the
        // coarsening/temporal-blocking axes render unchanged.
        if self.coarsen_factor != 1 || self.temporal_block_depth != 1 {
            write!(f, " cf={} tb={}", self.coarsen_factor, self.temporal_block_depth)?;
        }
        Ok(())
    }
}

/// Properties of the kernel/workload that prune the design space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesignSpaceLimits {
    /// Global size in x (work-group x must divide it).
    pub global_x: u64,
    /// Global size in y.
    pub global_y: u64,
    /// Whether the kernel contains `barrier()` — such kernels always use
    /// barrier communication (the toolchain cannot stream across barriers).
    pub has_barrier: bool,
    /// Work-group size required by a source attribute, if any.
    pub reqd_work_group: Option<(u32, u32)>,
    /// Whether the kernel's data types permit vectorization (pure
    /// elementwise access, no vector types already in use).
    pub vectorizable: bool,
    /// Whether the kernel is an iterative stencil (host re-launches it,
    /// feeding each step's output back as the next step's input) — the
    /// only shape where temporal blocking depth > 1 is meaningful.
    pub iterative: bool,
}

/// Largest PE replication factor [`SweepGrid::standard`] generates.
pub const MAX_PES: u32 = 16;

/// Largest CU replication factor [`SweepGrid::standard`] generates.
pub const MAX_CUS: u32 = 4;

/// Largest vectorization width [`SweepGrid::standard`] generates.
pub const MAX_VECTOR_WIDTH: u32 = 4;

/// Largest thread-coarsening factor any preset grid generates.
pub const MAX_COARSEN: u32 = 8;

/// Largest temporal-blocking depth any preset grid generates.
pub const MAX_TEMPORAL_DEPTH: u32 = 8;

/// Whether a kernel (by name) is one of the suite's iterative stencils —
/// the kernels the host launches repeatedly with each step's output fed
/// back as the next step's input (jacobi2d, hotspot/hotspot3D, srad).
/// These are the only kernels where a
/// [`OptimizationConfig::temporal_block_depth`] above 1 is meaningful;
/// [`crate::dse::limits_for`] uses this to gate the temporal axis per
/// kernel so non-stencils don't multiply the space.
pub fn is_iterative_stencil(kernel_name: &str) -> bool {
    matches!(kernel_name, "jacobi2d" | "hotspot" | "hotspot3D" | "srad" | "srad2")
}

/// The knob grids a sweep enumerates: the cross product of these axes
/// (filtered by [`DesignSpaceLimits`]) is the design space.
///
/// Axis values must be ascending and deduplicated, and each replication
/// axis must contain `1` (the baseline); the presets guarantee this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepGrid {
    /// Work-group candidates for 1-D NDRanges.
    pub work_groups_1d: Vec<(u32, u32)>,
    /// Work-group candidates for 2-D NDRanges.
    pub work_groups_2d: Vec<(u32, u32)>,
    /// PE replication factors (`P`).
    pub pes: Vec<u32>,
    /// CU replication factors (`C`).
    pub cus: Vec<u32>,
    /// Vectorization widths (dropped to `[1]` for non-vectorizable
    /// kernels).
    pub vector_widths: Vec<u32>,
    /// Thread-coarsening factors (filtered per work-group family to the
    /// values dividing the work-group size).
    pub coarsen_factors: Vec<u32>,
    /// Temporal-blocking depths (dropped to `[1]` for non-iterative
    /// kernels).
    pub temporal_depths: Vec<u32>,
}

impl SweepGrid {
    /// The paper-scale grid: 100–400 configurations per kernel, matching
    /// the "#Designs" column of Table 2. This is what [`enumerate`]
    /// lists and [`crate::FlexCl::explore_source`] sweeps.
    pub fn standard() -> Self {
        SweepGrid {
            work_groups_1d: vec![(16, 1), (32, 1), (64, 1), (128, 1), (256, 1)],
            work_groups_2d: vec![(4, 4), (8, 8), (16, 8), (16, 16), (32, 8)],
            pes: vec![1, 2, 4, 8, MAX_PES],
            cus: vec![1, 2, MAX_CUS],
            vector_widths: vec![1, MAX_VECTOR_WIDTH],
            // The paper's Table 2 space has neither axis; keeping the
            // standard grid at the identity preserves its 100–400-point
            // size and the published comparison.
            coarsen_factors: vec![1],
            temporal_depths: vec![1],
        }
    }

    /// A fine-grained grid: every PE count up to 64, every CU count up to
    /// 16 and eight vector widths, giving ~10⁵ configurations per kernel
    /// (more work-group shapes, all integer `P`). Meant for the scaled
    /// sweep; the bound-based pruning and lazy chunk materialization in
    /// [`crate::dse`] keep it interactive.
    pub fn fine() -> Self {
        SweepGrid {
            work_groups_1d: (3..=10).map(|s| (1u32 << s, 1)).collect(),
            work_groups_2d: vec![
                (4, 4),
                (8, 4),
                (4, 8),
                (8, 8),
                (16, 4),
                (16, 8),
                (8, 16),
                (16, 16),
                (32, 8),
                (32, 16),
                (16, 32),
                (32, 32),
            ],
            pes: (1..=64).collect(),
            cus: (1..=16).collect(),
            vector_widths: vec![1, 2, 3, 4, 5, 6, 8, 10, 12, 16],
            coarsen_factors: vec![1, 2, 4],
            temporal_depths: vec![1, 2, 4],
        }
    }

    /// The stress grid: toward 10⁶+ configurations per kernel (every `P`
    /// up to 128, every `C` up to 32, twelve vector widths). Sweeping it
    /// exhaustively allocates on the order of a few hundred MB of design
    /// points; prefer `prune: true`.
    pub fn ultra() -> Self {
        SweepGrid {
            work_groups_1d: (3..=10).map(|s| (1u32 << s, 1)).collect(),
            work_groups_2d: vec![
                (4, 4),
                (8, 4),
                (4, 8),
                (8, 8),
                (16, 4),
                (4, 16),
                (16, 8),
                (8, 16),
                (16, 16),
                (32, 8),
                (8, 32),
                (32, 16),
                (16, 32),
                (32, 32),
                (64, 8),
                (64, 16),
            ],
            pes: (1..=128).collect(),
            cus: (1..=32).collect(),
            vector_widths: vec![1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 24, 32],
            coarsen_factors: vec![1, 2, 4, MAX_COARSEN],
            temporal_depths: vec![1, 2, 4, MAX_TEMPORAL_DEPTH],
        }
    }

    /// Looks a preset up by name (`standard`, `fine`, `ultra`) — the
    /// spelling the `dse` binary's `--grid` flag accepts.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "standard" => Some(Self::standard()),
            "fine" => Some(Self::fine()),
            "ultra" => Some(Self::ultra()),
            _ => None,
        }
    }

    /// The next-cheaper preset on the degradation ladder the serving
    /// layer walks under queue pressure: `ultra` → `fine` → `standard` →
    /// (none). `standard` is the floor — a degraded request is still a
    /// full paper-scale sweep, never an empty one. Returns `None` for the
    /// floor and for unknown names.
    pub fn coarser(name: &str) -> Option<&'static str> {
        match name {
            "ultra" => Some("fine"),
            "fine" => Some("standard"),
            _ => None,
        }
    }
}

impl Default for SweepGrid {
    fn default() -> Self {
        SweepGrid::standard()
    }
}

/// One `(work_item_pipeline, num_pes)` block of a family: a contiguous
/// index range whose candidates differ only in `(C, V, mode)`.
#[derive(Debug, Clone, Copy)]
struct Block {
    pipe: bool,
    num_pes: u32,
    /// Index of the block's first candidate within its family.
    offset: usize,
    len: usize,
}

/// One work-group family of a [`ConfigSpace`]: a contiguous run of
/// enumeration indices sharing one work-group size (hence one kernel
/// analysis).
#[derive(Debug, Clone)]
struct FamilySpace {
    work_group: (u32, u32),
    /// Global enumeration index of the family's first candidate.
    offset: usize,
    len: usize,
    blocks: Vec<Block>,
    /// Coarsening factors valid for this family (grid values dividing the
    /// work-group size; always contains 1).
    cfs: Vec<u32>,
}

/// A lazily-materialized design space: the filtered cross product of a
/// [`SweepGrid`] under [`DesignSpaceLimits`], addressable by enumeration
/// index without ever allocating the full candidate list.
///
/// The enumeration order is identical to the nested-loop order the
/// original `enumerate` used (work-group → pipelining → `P` → `C` → `V` →
/// mode), so [`ConfigSpace::get`] is a pure index-arithmetic decode: the
/// sweep engine materializes fixed-size chunks on demand, which is what
/// lets it scale to 10⁶+ points per kernel with bounded memory.
#[derive(Debug, Clone)]
pub struct ConfigSpace {
    families: Vec<FamilySpace>,
    cus: Vec<u32>,
    vecs: Vec<u32>,
    /// Modes available with work-item pipelining on (`[Barrier]` or
    /// `[Barrier, Pipeline]`); pipelining off always leaves `[Barrier]`.
    modes_pipe: Vec<CommMode>,
    /// Temporal-blocking depths (`[1]` unless the kernel is iterative).
    tbs: Vec<u32>,
    total: usize,
}

impl ConfigSpace {
    /// Builds the space for `limits` over `grid`.
    pub fn new(limits: &DesignSpaceLimits, grid: &SweepGrid) -> Self {
        let wg_candidates: Vec<(u32, u32)> = match limits.reqd_work_group {
            Some(wg) => vec![wg],
            None => {
                if limits.global_y > 1 {
                    grid.work_groups_2d.clone()
                } else {
                    grid.work_groups_1d.clone()
                }
            }
        };
        let vecs: Vec<u32> = if limits.vectorizable { grid.vector_widths.clone() } else { vec![1] };
        let modes_pipe: Vec<CommMode> = if limits.has_barrier {
            vec![CommMode::Barrier]
        } else {
            vec![CommMode::Barrier, CommMode::Pipeline]
        };
        let tbs: Vec<u32> = if limits.iterative { grid.temporal_depths.clone() } else { vec![1] };

        let mut families = Vec::new();
        let mut total = 0usize;
        for &wg in &wg_candidates {
            if u64::from(wg.0) > limits.global_x || u64::from(wg.1) > limits.global_y.max(1) {
                continue;
            }
            if !limits.global_x.is_multiple_of(u64::from(wg.0)) {
                continue;
            }
            if limits.global_y > 1 && !limits.global_y.is_multiple_of(u64::from(wg.1)) {
                continue;
            }
            let wg_size = u64::from(wg.0) * u64::from(wg.1);
            // Coarsening merges whole work-items, so only factors that
            // tile the group evenly are generated for this family.
            let cfs: Vec<u32> = grid
                .coarsen_factors
                .iter()
                .copied()
                .filter(|&cf| cf >= 1 && wg_size.is_multiple_of(u64::from(cf)))
                .collect();
            let mut blocks = Vec::new();
            let mut fam_len = 0usize;
            for pipe in [false, true] {
                for &p in &grid.pes {
                    if !pipe && p > 1 {
                        // PE replication without pipelining is dominated and
                        // not generated by the toolchain.
                        continue;
                    }
                    if u64::from(p) > wg_size {
                        continue;
                    }
                    // Pipeline communication overlaps transfers with
                    // computation *through* the work-item pipeline; without
                    // pipelining only barrier mode remains.
                    let n_modes = if pipe { modes_pipe.len() } else { 1 };
                    let len = grid.cus.len() * vecs.len() * n_modes * cfs.len() * tbs.len();
                    blocks.push(Block { pipe, num_pes: p, offset: fam_len, len });
                    fam_len += len;
                }
            }
            if fam_len == 0 {
                continue;
            }
            families.push(FamilySpace { work_group: wg, offset: total, len: fam_len, blocks, cfs });
            total += fam_len;
        }
        ConfigSpace { families, cus: grid.cus.clone(), vecs, modes_pipe, tbs, total }
    }

    /// Number of candidates in the space.
    pub fn len(&self) -> usize {
        self.total
    }

    /// `true` when the space is empty (no work-group candidate survived
    /// the limits).
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of work-group families.
    pub fn family_count(&self) -> usize {
        self.families.len()
    }

    /// Work-group size of family `f`.
    pub fn family_work_group(&self, f: usize) -> (u32, u32) {
        self.families[f].work_group
    }

    /// Number of candidates in family `f`.
    pub fn family_len(&self, f: usize) -> usize {
        self.families[f].len
    }

    /// Global enumeration index of family `f`'s first candidate.
    pub fn family_offset(&self, f: usize) -> usize {
        self.families[f].offset
    }

    /// Decodes the candidate at enumeration index `i` (`i < len()`).
    pub fn get(&self, i: usize) -> OptimizationConfig {
        assert!(i < self.total, "index {i} out of bounds for space of {}", self.total);
        let f = self.families.partition_point(|fam| fam.offset + fam.len <= i);
        let fam = &self.families[f];
        self.decode(fam, i - fam.offset)
    }

    /// Sizes of a block's axes, outermost first: C → V → mode → cf → tb.
    /// With the identity axes ([1]/[1]) the last two are 1 and the decode
    /// is bit-for-bit the pre-axis enumeration order.
    fn radices(&self, fam: &FamilySpace, block: &Block) -> [usize; 5] {
        let n_modes = if block.pipe { self.modes_pipe.len() } else { 1 };
        [self.cus.len(), self.vecs.len(), n_modes, fam.cfs.len(), self.tbs.len()]
    }

    /// The candidate of `block` whose axis digits (in [`Self::radices`]
    /// order) are `d`.
    fn at(&self, fam: &FamilySpace, block: &Block, d: [usize; 5]) -> OptimizationConfig {
        OptimizationConfig {
            work_group: fam.work_group,
            work_item_pipeline: block.pipe,
            num_pes: block.num_pes,
            num_cus: self.cus[d[0]],
            vector_width: self.vecs[d[1]],
            comm_mode: if block.pipe { self.modes_pipe[d[2]] } else { CommMode::Barrier },
            coarsen_factor: fam.cfs[d[3]],
            temporal_block_depth: self.tbs[d[4]],
        }
    }

    /// Locates candidate `local` of family `fam`: its `(pipe, P)` block
    /// and its axis digits within the block.
    fn locate<'s>(&self, fam: &'s FamilySpace, local: usize) -> (&'s Block, [usize; 5]) {
        let block = &fam.blocks[fam.blocks.partition_point(|b| b.offset + b.len <= local)];
        let radices = self.radices(fam, block);
        let mut rem = local - block.offset;
        let mut d = [0; 5];
        for k in (0..5).rev() {
            d[k] = rem % radices[k];
            rem /= radices[k];
        }
        (block, d)
    }

    /// Decodes candidate `local` of family `fam` by index arithmetic over
    /// the family's `(pipe, P)` blocks.
    fn decode(&self, fam: &FamilySpace, local: usize) -> OptimizationConfig {
        let (block, d) = self.locate(fam, local);
        self.at(fam, block, d)
    }

    /// Materializes the candidates `[start, start + len)` of family `f`
    /// into `out` as `(enumeration index, config)` pairs, appending.
    ///
    /// This is the sweep engine's chunk loader: each work unit calls it
    /// with its own subrange, so no more than a chunk of the space is ever
    /// resident per worker. Only the first candidate of each block is
    /// decoded by division; the rest step the axis digits like an
    /// odometer, `tb` fastest.
    pub fn fill_family_range(
        &self,
        f: usize,
        start: usize,
        len: usize,
        out: &mut Vec<(usize, OptimizationConfig)>,
    ) {
        let fam = &self.families[f];
        let end = (start + len).min(fam.len);
        out.reserve(end.saturating_sub(start));
        let mut local = start;
        while local < end {
            let (block, mut d) = self.locate(fam, local);
            let radices = self.radices(fam, block);
            let block_end = (block.offset + block.len).min(end);
            for i in local..block_end {
                out.push((fam.offset + i, self.at(fam, block, d)));
                for k in (0..5).rev() {
                    d[k] += 1;
                    if d[k] < radices[k] {
                        break;
                    }
                    d[k] = 0;
                }
            }
            local = block_end;
        }
    }

    /// Iterates the whole space in enumeration order.
    pub fn iter(&self) -> impl Iterator<Item = OptimizationConfig> + '_ {
        self.families
            .iter()
            .flat_map(move |fam| (0..fam.len).map(move |local| self.decode(fam, local)))
    }
}

/// Enumerates the design space the experiments sweep, over the
/// [`SweepGrid::standard`] grid.
///
/// The defaults produce 100–400 configurations per kernel, matching the
/// "#Designs" column of Table 2. Large sweeps should prefer
/// [`ConfigSpace`] (via [`crate::dse::explore_space_cached`]), which never
/// materializes the candidate list.
pub fn enumerate(limits: &DesignSpaceLimits) -> Vec<OptimizationConfig> {
    ConfigSpace::new(limits, &SweepGrid::standard()).iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits_1d() -> DesignSpaceLimits {
        DesignSpaceLimits {
            global_x: 4096,
            global_y: 1,
            has_barrier: false,
            reqd_work_group: None,
            vectorizable: true,
            iterative: false,
        }
    }

    #[test]
    fn space_has_hundreds_of_points() {
        let space = enumerate(&limits_1d());
        assert!(space.len() >= 100, "got {}", space.len());
        assert!(space.len() <= 400, "got {}", space.len());
    }

    #[test]
    fn barrier_kernels_never_get_pipeline_mode() {
        let space = enumerate(&DesignSpaceLimits { has_barrier: true, ..limits_1d() });
        assert!(space.iter().all(|c| c.comm_mode == CommMode::Barrier));
    }

    #[test]
    fn reqd_work_group_pins_wg() {
        let space = enumerate(&DesignSpaceLimits { reqd_work_group: Some((64, 1)), ..limits_1d() });
        assert!(space.iter().all(|c| c.work_group == (64, 1)));
    }

    #[test]
    fn two_dimensional_kernels_get_2d_groups() {
        let space = enumerate(&DesignSpaceLimits { global_x: 256, global_y: 256, ..limits_1d() });
        assert!(space.iter().all(|c| c.work_group.1 > 1));
    }

    #[test]
    fn pe_parallelism_requires_pipelining() {
        let space = enumerate(&limits_1d());
        assert!(space.iter().all(|c| c.work_item_pipeline || c.num_pes == 1));
    }

    #[test]
    fn pes_never_exceed_work_group() {
        let space = enumerate(&DesignSpaceLimits { global_x: 64, ..limits_1d() });
        assert!(space.iter().all(|c| u64::from(c.num_pes) <= c.work_group_size()));
    }

    #[test]
    fn degradation_ladder_descends_to_standard_floor() {
        assert_eq!(SweepGrid::coarser("ultra"), Some("fine"));
        assert_eq!(SweepGrid::coarser("fine"), Some("standard"));
        assert_eq!(SweepGrid::coarser("standard"), None);
        assert_eq!(SweepGrid::coarser("bogus"), None);
        // Every rung names a real preset.
        let mut name = "ultra";
        while let Some(next) = SweepGrid::coarser(name) {
            assert!(SweepGrid::by_name(next).is_some(), "{next}");
            name = next;
        }
    }

    #[test]
    fn config_space_get_matches_enumeration_order() {
        let limits = limits_1d();
        let listed = enumerate(&limits);
        let space = ConfigSpace::new(&limits, &SweepGrid::standard());
        assert_eq!(space.len(), listed.len());
        for (i, cfg) in listed.iter().enumerate() {
            assert_eq!(space.get(i), *cfg, "index {i}");
        }
        // Families are contiguous, contiguous-offset runs of one work-group.
        let mut next_offset = 0usize;
        for f in 0..space.family_count() {
            assert_eq!(space.family_offset(f), next_offset);
            for local in 0..space.family_len(f) {
                assert_eq!(listed[next_offset + local].work_group, space.family_work_group(f));
            }
            next_offset += space.family_len(f);
        }
        assert_eq!(next_offset, space.len());
    }

    #[test]
    fn config_space_fill_family_range_matches_get() {
        let limits = DesignSpaceLimits { global_x: 256, global_y: 256, ..limits_1d() };
        let space = ConfigSpace::new(&limits, &SweepGrid::fine());
        let f = space.family_count() / 2;
        let mut buf = Vec::new();
        space.fill_family_range(f, 7, 13, &mut buf);
        assert_eq!(buf.len(), 13.min(space.family_len(f).saturating_sub(7)));
        for (idx, cfg) in &buf {
            assert_eq!(space.get(*idx), *cfg);
        }
        // Out-of-range tails are clipped, not panicked.
        buf.clear();
        space.fill_family_range(f, space.family_len(f) - 2, 100, &mut buf);
        assert_eq!(buf.len(), 2);
    }

    /// The chunk loader's odometer walk agrees, candidate by candidate,
    /// with the per-candidate division decode it replaced, across block
    /// and chunk boundaries and with every axis live (iterative kernel).
    #[test]
    fn chunked_fill_matches_the_division_decode() {
        fn reference(space: &ConfigSpace, fam: &FamilySpace, local: usize) -> OptimizationConfig {
            let b = fam.blocks.partition_point(|b| b.offset + b.len <= local);
            let block = &fam.blocks[b];
            let rem = local - block.offset;
            let n_modes = if block.pipe { space.modes_pipe.len() } else { 1 };
            let per_mode = fam.cfs.len() * space.tbs.len();
            let per_vec = n_modes * per_mode;
            let per_cu = space.vecs.len() * per_vec;
            OptimizationConfig {
                work_group: fam.work_group,
                work_item_pipeline: block.pipe,
                num_pes: block.num_pes,
                num_cus: space.cus[rem / per_cu],
                vector_width: space.vecs[(rem / per_vec) % space.vecs.len()],
                comm_mode: if block.pipe {
                    space.modes_pipe[(rem / per_mode) % n_modes]
                } else {
                    CommMode::Barrier
                },
                coarsen_factor: fam.cfs[(rem / space.tbs.len()) % fam.cfs.len()],
                temporal_block_depth: space.tbs[rem % space.tbs.len()],
            }
        }
        let limits = DesignSpaceLimits { iterative: true, ..limits_1d() };
        let cases = [(SweepGrid::standard(), vec![1, 7]), (SweepGrid::fine(), vec![7, 2048])];
        for (grid, chunks) in cases {
            let space = ConfigSpace::new(&limits, &grid);
            assert!(space.tbs.len() > 1 || grid.temporal_depths.len() == 1);
            for chunk in chunks {
                for (f, fam) in space.families.iter().enumerate() {
                    let mut buf = Vec::new();
                    for start in (0..fam.len).step_by(chunk) {
                        space.fill_family_range(f, start, chunk, &mut buf);
                    }
                    assert_eq!(buf.len(), fam.len);
                    for (local, (idx, cfg)) in buf.iter().enumerate() {
                        assert_eq!(*idx, fam.offset + local);
                        let want = reference(&space, fam, local);
                        assert_eq!(*cfg, want, "chunk {chunk} local {local}");
                    }
                }
            }
        }
    }

    #[test]
    fn fine_grid_reaches_a_hundred_thousand_points() {
        let space = ConfigSpace::new(&limits_1d(), &SweepGrid::fine());
        assert!(space.len() >= 100_000, "fine grid has {} points", space.len());
        // Lazy decode agrees with iteration over the whole space.
        let mut n = 0usize;
        for (i, cfg) in space.iter().enumerate() {
            if i % 9973 == 0 {
                assert_eq!(space.get(i), cfg);
            }
            n += 1;
        }
        assert_eq!(n, space.len());
    }

    #[test]
    fn ultra_grid_reaches_toward_a_million_points() {
        let space = ConfigSpace::new(&limits_1d(), &SweepGrid::ultra());
        assert!(space.len() >= 400_000, "ultra 1-D grid has {} points", space.len());
        let space_2d = ConfigSpace::new(
            &DesignSpaceLimits { global_x: 256, global_y: 256, ..limits_1d() },
            &SweepGrid::ultra(),
        );
        assert!(space_2d.len() >= 1_000_000, "ultra 2-D grid has {} points", space_2d.len());
        for cfg in [space.get(0), space.get(space.len() / 2), space.get(space.len() - 1)] {
            cfg.validate().expect("generated configs are valid");
        }
    }

    #[test]
    fn config_display_is_readable() {
        let c = OptimizationConfig::default();
        assert_eq!(c.to_string(), "wg=64x1 pipe=0 P=1 C=1 V=1 mode=barrier");
        // The new axes only render away from the identity, so pre-axis
        // logs and goldens keep their exact strings.
        let c = OptimizationConfig { coarsen_factor: 4, ..Default::default() };
        assert_eq!(c.to_string(), "wg=64x1 pipe=0 P=1 C=1 V=1 mode=barrier cf=4 tb=1");
        let c = OptimizationConfig { temporal_block_depth: 2, ..Default::default() };
        assert_eq!(c.to_string(), "wg=64x1 pipe=0 P=1 C=1 V=1 mode=barrier cf=1 tb=2");
    }

    #[test]
    fn coarsen_axis_respects_work_group_divisibility() {
        // wg=(16,1) with grid cfs [1,2,4,8]: all divide 16. A wg of 24
        // would drop 16 if present; use a custom grid with a non-divisor.
        let mut grid = SweepGrid::standard();
        grid.work_groups_1d = vec![(16, 1), (64, 1)];
        grid.coarsen_factors = vec![1, 3, 4];
        let space = ConfigSpace::new(&limits_1d(), &grid);
        for cfg in space.iter() {
            assert!(cfg.work_group_size().is_multiple_of(u64::from(cfg.coarsen_factor)), "{cfg}");
            assert_ne!(cfg.coarsen_factor, 3, "3 divides neither 16 nor 64: {cfg}");
        }
        assert!(space.iter().any(|c| c.coarsen_factor == 4));
    }

    #[test]
    fn temporal_axis_is_gated_on_iterative_kernels() {
        let grid = SweepGrid::fine();
        let flat = ConfigSpace::new(&limits_1d(), &grid);
        assert!(flat.iter().all(|c| c.temporal_block_depth == 1));
        let iter_space =
            ConfigSpace::new(&DesignSpaceLimits { iterative: true, ..limits_1d() }, &grid);
        assert!(iter_space.iter().any(|c| c.temporal_block_depth > 1));
        assert_eq!(
            iter_space.len(),
            flat.len() * grid.temporal_depths.len(),
            "temporal depth multiplies the space uniformly"
        );
        // Lazy decode still agrees with iteration over the enlarged space.
        for (i, cfg) in iter_space.iter().enumerate().step_by(9973) {
            assert_eq!(iter_space.get(i), cfg);
        }
    }

    #[test]
    fn new_axis_zero_values_are_rejected() {
        use crate::error::ErrorKind;
        let zero_cf = OptimizationConfig { coarsen_factor: 0, ..Default::default() };
        let err = zero_cf.validate().unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Config);
        assert!(err.to_string().contains("coarsening"));

        let zero_tb = OptimizationConfig { temporal_block_depth: 0, ..Default::default() };
        let err = zero_tb.validate().unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Config);
        assert!(err.to_string().contains("temporal"));
    }

    #[test]
    fn coarsen_factor_must_divide_work_group_size() {
        use crate::error::ErrorKind;
        let bad = OptimizationConfig { coarsen_factor: 3, ..Default::default() }; // wg=64
        let err = bad.validate().unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Config);
        assert!(err.to_string().contains("divide"));
        let ok = OptimizationConfig { coarsen_factor: 8, ..Default::default() };
        ok.validate().expect("8 divides 64");
    }

    #[test]
    fn temporal_blocking_rejected_on_non_iterative_kernels() {
        use crate::error::ErrorKind;
        let cfg = OptimizationConfig { temporal_block_depth: 2, ..Default::default() };
        let err = cfg.validate_for(&limits_1d()).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Config);
        assert!(err.to_string().contains("iterative"));
        cfg.validate_for(&DesignSpaceLimits { iterative: true, ..limits_1d() })
            .expect("iterative kernels accept depth > 1");
        // validate_for still enforces the structural invariants.
        let zero = OptimizationConfig { coarsen_factor: 0, ..Default::default() };
        assert!(zero.validate_for(&limits_1d()).is_err());
    }

    #[test]
    fn iterative_stencils_are_recognized_by_name() {
        for name in ["jacobi2d", "hotspot", "hotspot3D", "srad", "srad2"] {
            assert!(is_iterative_stencil(name), "{name}");
        }
        for name in ["vadd", "gemm", "nw1", "bfs_1", ""] {
            assert!(!is_iterative_stencil(name), "{name}");
        }
    }

    #[test]
    fn every_enumerated_config_validates() {
        for cfg in enumerate(&limits_1d()) {
            cfg.validate().expect("enumerated configs are always valid");
        }
    }

    #[test]
    fn invalid_configs_are_rejected_with_context() {
        use crate::error::ErrorKind;
        let zero_wg = OptimizationConfig { work_group: (0, 1), ..Default::default() };
        let err = zero_wg.validate().unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Config);
        assert!(err.to_string().contains("work-group"));

        let zero_pes = OptimizationConfig { num_pes: 0, ..Default::default() };
        assert_eq!(zero_pes.validate().unwrap_err().kind(), ErrorKind::Config);

        let overflow =
            OptimizationConfig { num_pes: u32::MAX, vector_width: u32::MAX, ..Default::default() };
        assert!(overflow.validate().is_err());
    }
}
