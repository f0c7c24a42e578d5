//! Analysis golden: every [`KernelAnalysis`] field the model reads, hashed
//! per corpus kernel at one standard work-group, must stay bit-identical.
//!
//! `identity_golden` pins final estimates only, so a change inside the
//! analysis that happens to cancel out (or lands in a branch its probe
//! configurations never take) can slip past it. This test pins the
//! analysis itself: the factor-1 memory level (pattern counts in both
//! burst orders, transfer beats, burst owners and group maxima), the
//! latency table, every coarsening level, the contention curve, loop
//! trips and recurrences — plus the profiled trace and weights they are
//! derived from, re-profiled through [`ProfileArgs::profile`] (the
//! analysis keeps only the trips).
//!
//! Each line is `kernel|field|hash` with a stable FNV-1a hash over the
//! fields' `f64::to_bits` / integer words, so a mismatch names the field
//! that moved. On a mismatch the current rendering is written to
//! `analysis_golden.actual.txt` under the cargo test scratch directory
//! ([`support::assert_golden`]).

mod support;

use flexcl_bench::{compile, standard_wg};
use flexcl_core::{KernelAnalysis, Platform, ProfileArgs, ProfileFuel};
use flexcl_interp::Profile;
use flexcl_kernels::Scale;
use std::fmt::Write as _;
use support::{assert_golden, Fnv};

const GOLDEN: &str = include_str!("data/analysis_golden.txt");

fn render_fields(out: &mut String, name: &str, a: &KernelAnalysis, profile: &Profile) {
    let mut line = |field: &str, h: Fnv| writeln!(out, "{name}|{field}|{:016x}", h.0).unwrap();
    let (base, coarsened) = a.mem_levels.split_first().expect("factor-1 level");
    assert_eq!(base.factor, 1, "{name}: the first memory level is factor 1");
    line("pattern_counts", Fnv::new().table(&base.pattern_counts));
    line("pattern_counts_phased", Fnv::new().table(&base.pattern_counts_phased));
    line("pattern_latencies", Fnv::new().table(&a.pattern_latencies));
    line(
        "mem_scalars",
        Fnv::new()
            .f64(base.global_accesses_per_wi)
            .f64(base.mem_extra_wi)
            .f64(base.burst_owners_per_group)
            .f64(base.mem_group_max)
            .f64(base.mem_group_max_phased),
    );
    let mut h = Fnv::new().u64(coarsened.len() as u64);
    for l in coarsened {
        h = h
            .u64(u64::from(l.factor))
            .table(&l.pattern_counts)
            .table(&l.pattern_counts_phased)
            .f64(l.global_accesses_per_wi)
            .f64(l.mem_extra_wi)
            .f64(l.burst_owners_per_group)
            .f64(l.mem_group_max)
            .f64(l.mem_group_max_phased);
    }
    line("coarsen_levels", h);
    let mut h = Fnv::new();
    for &(c, p, b) in a.contention.points() {
        h = h.u64(u64::from(c)).f64(p).f64(b);
    }
    line("contention_curve", h);
    let mut trips: Vec<_> = a.trips.raw.iter().collect();
    trips.sort_by_key(|(id, _)| **id);
    let h =
        trips.into_iter().fold(Fnv::new(), |h, (id, (e, i))| h.u64(u64::from(*id)).f64(*e).f64(*i));
    line("trips", h);
    let h = a.recurrences.iter().fold(Fnv::new(), |h, r| {
        h.u64(u64::from(r.distance))
            .u64(r.cycle_latency)
            .u64(u64::from(r.load.0))
            .u64(u64::from(r.store.0))
    });
    line("recurrences", h);
    let h = profile.trace.iter().fold(Fnv::new().u64(profile.work_items), |h, m| {
        h.u64(u64::from(m.write))
            .u64(u64::from(m.param))
            .u64(m.elem_index as u64)
            .u64(u64::from(m.bytes))
            .u64(m.work_item)
            .u64(m.work_group)
    });
    line("trace", h);
    let h = profile
        .groups
        .iter()
        .fold(Fnv::new(), |h, g| h.u64(g.group).f64(g.weight).u64(g.work_items));
    line("group_weights", h);
    let mut local: Vec<(String, f64)> = a
        .local_reads
        .iter()
        .map(|(r, v)| (format!("r{r:?}"), *v))
        .chain(a.local_writes.iter().map(|(r, v)| (format!("w{r:?}"), *v)))
        .collect();
    local.sort_by(|x, y| x.0.cmp(&y.0));
    let mut h = Fnv::new()
        .f64(a.dsp_ops_per_wi)
        .u64(u64::from(a.static_dsps_per_pe))
        .u64(u64::from(a.dsp_op_instances))
        .u64(a.local_bytes);
    for (k, v) in &local {
        h = k.bytes().fold(h, |h, b| h.u64(u64::from(b))).f64(*v);
    }
    for inst in &a.func.insts {
        h = h.f64(a.multiplier(inst.id));
    }
    line("static", h);
}

fn render_current() -> String {
    let platform = Platform::virtex7_adm7v3();
    let mut out = String::new();
    for spec in flexcl_kernels::all() {
        let func = compile(&spec);
        let workload = spec.workload(Scale::Test, 7);
        let wg = standard_wg(workload.global, func.reqd_work_group_size);
        let name = spec.full_name();
        match KernelAnalysis::analyze(&func, &platform, &workload, wg) {
            Ok(a) => {
                let profile = ProfileArgs::new(&workload)
                    .profile(&func, wg, ProfileFuel::default())
                    .expect("an analyzed kernel profiles");
                render_fields(&mut out, &name, &a, &profile);
            }
            Err(e) => writeln!(out, "{name}|analysis-err|{}", e.kind()).unwrap(),
        }
    }
    out
}

#[test]
fn corpus_analyses_match_golden_bit_for_bit() {
    assert_golden("analysis_golden", GOLDEN, &render_current(), "kernel analyses");
}
