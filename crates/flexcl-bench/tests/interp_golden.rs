//! Interpreter golden: what the profiling interpreter observes on every
//! corpus kernel, hashed, must stay bit-identical.
//!
//! `analysis_golden` pins the analysis the profile feeds; this test pins
//! the interpreter itself, on the three kinds of run the system makes:
//!
//! - `stratified`: the analysis-style run (12 stratified work-groups at
//!   the standard work-group) — trace, loop trips, group weights,
//!   work-item count and every argument buffer afterwards;
//! - `full`: the full-NDRange run the System Run simulator makes —
//!   argument buffers and loop trips;
//! - `starved`: the stratified run on a tiny step and trace budget — its
//!   exact [`InterpError`] (or the hash of the run when it fits).
//!
//! Each line is `kernel|run|value`. The hashes are FNV-1a over the
//! fields' `f64::to_bits` / integer words. On a mismatch the rendered
//! output is written to `interp_golden.actual.txt` under the cargo test
//! scratch directory for inspection ([`support::assert_golden`]).

mod support;

use flexcl_bench::{compile, standard_wg};
use flexcl_interp::{run, GroupSampling, InterpError, KernelArg, NdRange, Profile, RunOptions};
use flexcl_kernels::Scale;
use std::fmt::Write as _;
use support::{assert_golden, Fnv};

const GOLDEN: &str = include_str!("data/interp_golden.txt");

/// Step and trace budgets of the `starved` run: small enough that most
/// corpus kernels exhaust one of them inside the first profiled groups.
const STARVED_STEPS: u64 = 400;
const STARVED_TRACE: usize = 300;

fn hash_args(h: Fnv, args: &[KernelArg]) -> Fnv {
    args.iter().fold(h.u64(args.len() as u64), |h, a| match a {
        KernelArg::Int(v) => h.u64(0).u64(*v as u64),
        KernelArg::Float(v) => h.u64(1).f64(*v),
        KernelArg::IntBuf(v) => {
            v.iter().fold(h.u64(2).u64(v.len() as u64), |h, x| h.u64(*x as u64))
        }
        KernelArg::FloatBuf(v) => v.iter().fold(h.u64(3).u64(v.len() as u64), |h, x| h.f64(*x)),
    })
}

fn hash_trips(h: Fnv, p: &Profile) -> Fnv {
    let mut trips: Vec<_> = p.trips.raw.iter().collect();
    trips.sort_by_key(|(id, _)| **id);
    trips.into_iter().fold(h.u64(p.trips.raw.len() as u64), |h, (id, (e, i))| {
        h.u64(u64::from(*id)).f64(*e).f64(*i)
    })
}

fn hash_profile(p: &Profile, args: &[KernelArg]) -> Fnv {
    let h = p.trace.iter().fold(Fnv::new().u64(p.trace.len() as u64), |h, m| {
        h.u64(u64::from(m.write))
            .u64(u64::from(m.param))
            .u64(m.elem_index as u64)
            .u64(u64::from(m.bytes))
            .u64(m.work_item)
            .u64(m.work_group)
    });
    let h = hash_trips(h, p);
    let h = p
        .groups
        .iter()
        .fold(h.u64(p.groups.len() as u64), |h, g| h.u64(g.group).f64(g.weight).u64(g.work_items));
    hash_args(h.u64(p.work_items), args)
}

fn outcome(r: Result<Fnv, InterpError>) -> String {
    match r {
        Ok(h) => format!("{:016x}", h.0),
        Err(e) => format!("err {e:?}"),
    }
}

fn render_current() -> String {
    let mut out = String::new();
    for spec in flexcl_kernels::all() {
        let func = compile(&spec);
        let workload = spec.workload(Scale::Test, 7);
        let wg = standard_wg(workload.global, func.reqd_work_group_size);
        let nd = NdRange {
            global: [workload.global.0, workload.global.1, 1],
            local: [u64::from(wg.0), u64::from(wg.1), 1],
        };
        let stratified = RunOptions {
            profile_groups: Some(12),
            profile_sampling: GroupSampling::Stratified,
            ..RunOptions::default()
        };
        let name = spec.full_name();

        let mut args = workload.args.clone();
        let r = run(&func, &mut args, nd, stratified).map(|p| hash_profile(&p, &args));
        writeln!(out, "{name}|stratified|{}", outcome(r)).unwrap();

        let mut args = workload.args.clone();
        let r = run(&func, &mut args, nd, RunOptions::default())
            .map(|p| hash_args(hash_trips(Fnv::new(), &p), &args));
        writeln!(out, "{name}|full|{}", outcome(r)).unwrap();

        let starved =
            RunOptions { step_limit: STARVED_STEPS, trace_limit: STARVED_TRACE, ..stratified };
        let mut args = workload.args.clone();
        let r = run(&func, &mut args, nd, starved).map(|p| hash_profile(&p, &args));
        writeln!(out, "{name}|starved|{}", outcome(r)).unwrap();
    }
    out
}

#[test]
fn corpus_interpretation_matches_golden_bit_for_bit() {
    assert_golden("interp_golden", GOLDEN, &render_current(), "interpreter observations");
}
