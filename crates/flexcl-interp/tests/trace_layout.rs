//! The trace layout the analysis's per-group passes rely on: every
//! profiled work-group's accesses form exactly one contiguous run of
//! [`Profile::trace`], runs in ascending group id — for every sampling
//! mode, on a 2-D NDRange, with the stratified mode's weight-0 warm-up
//! predecessors included.

use flexcl_interp::{run, GroupSampling, KernelArg, NdRange, Profile, RunOptions};

const SRC: &str = "__kernel void k(__global float* a, __global float* b, int w) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    float s = 0.0f;
    for (int j = 0; j < 3; j++) { s += a[y * w + (x + j) % w]; }
    b[y * w + x] = s;
}";

/// 32×16 global, 4×4 local: an 8×4 grid of 32 groups.
const GX: u64 = 32;
const GY: u64 = 16;
const LX: u64 = 4;
const LY: u64 = 4;

fn profile(sampling: GroupSampling, groups: u64) -> Profile {
    let program = flexcl_frontend::parse_and_check(SRC).expect("frontend");
    let func = flexcl_ir::lower_kernel(&program.kernels[0]).expect("lowering");
    let n = (GX * GY) as usize;
    let mut args = vec![
        KernelArg::FloatBuf(vec![1.0; n]),
        KernelArg::FloatBuf(vec![0.0; n]),
        KernelArg::Int(GX as i64),
    ];
    let opts = RunOptions {
        profile_groups: Some(groups),
        profile_sampling: sampling,
        ..RunOptions::default()
    };
    run(&func, &mut args, NdRange::new_2d(GX, GY, LX, LY), opts).expect("run")
}

/// Linear id of the group that owns linear work-item `wi`.
fn group_of(wi: u64) -> u64 {
    let (x, y) = (wi % GX, wi / GX);
    (y / LY) * (GX / LX) + x / LX
}

fn assert_grouped_layout(p: &Profile, what: &str) {
    let runs: Vec<&[flexcl_interp::MemAccess]> =
        p.trace.chunk_by(|a, b| a.work_group == b.work_group).collect();
    let run_ids: Vec<u64> = runs.iter().map(|r| r[0].work_group).collect();
    assert!(
        run_ids.windows(2).all(|w| w[0] < w[1]),
        "{what}: group runs not strictly ascending (a group revisited?): {run_ids:?}"
    );
    let profiled: Vec<u64> = p.groups.iter().map(|g| g.group).collect();
    assert_eq!(run_ids, profiled, "{what}: one run per profiled group, in id order");
    for r in &runs {
        let per_item = (3 + 1) * (LX * LY) as usize;
        assert_eq!(r.len(), per_item, "{what}: group {} run is whole", r[0].work_group);
        assert!(
            r.iter().all(|a| group_of(a.work_item) == a.work_group),
            "{what}: group {} run holds another group's work-items",
            r[0].work_group
        );
    }
}

#[test]
fn every_sampling_mode_keeps_one_ascending_run_per_group() {
    for (sampling, groups) in [
        (GroupSampling::Leading, 5),
        (GroupSampling::Spread, 5),
        (GroupSampling::Stratified, 6),
        (GroupSampling::Stratified, 32),
    ] {
        let p = profile(sampling, groups);
        assert_grouped_layout(&p, &format!("{sampling:?} x{groups}"));
    }
}

#[test]
fn stratified_warm_up_predecessors_run_in_place() {
    let p = profile(GroupSampling::Stratified, 6);
    let warm: Vec<u64> = p.groups.iter().filter(|g| g.weight == 0.0).map(|g| g.group).collect();
    assert!(!warm.is_empty(), "stratified sampling adds weight-0 predecessors: {:?}", p.groups);
    for g in &warm {
        // The predecessor runs right before the stratum it warms up.
        let next = p.groups.iter().find(|s| s.group == g + 1).expect("its stratum is profiled");
        assert!(next.weight > 0.0, "group {g} warms a weighted stratum");
    }
    assert_grouped_layout(&p, "Stratified x6");
}
