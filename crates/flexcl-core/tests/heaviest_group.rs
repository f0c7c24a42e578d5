//! The heaviest-group floor (`MemLevel::mem_group_max`) is the service
//! span of the heaviest profiled group in a serial `DramSim` replay of the
//! level's group bursts, with every transfer beat counted once.
//!
//! The platform's 1024-bit access unit lets vadd's coalesced bursts span
//! two 64-byte interleave chunks, so every burst streams one transfer
//! beat beyond its pattern's latency.

use flexcl_core::analysis::trace_to_group_bursts;
use flexcl_core::{KernelAnalysis, Platform, ProfileArgs, ProfileFuel, Workload};
use flexcl_dram::{AccessKind, DramSim, Request};
use flexcl_interp::KernelArg;

#[test]
fn heaviest_group_floor_is_the_serial_dram_service_span() {
    let p = flexcl_frontend::parse_and_check(
        "__kernel void vadd(__global float* a, __global float* b, __global float* c) {
            int i = get_global_id(0);
            c[i] = a[i] + b[i];
        }",
    )
    .expect("frontend");
    let f = flexcl_ir::lower_kernel(&p.kernels[0]).expect("lowering");
    let platform = Platform { mem_access_unit_bits: 1024, ..Platform::virtex7_adm7v3() };
    platform.validate().expect("a valid platform");
    let workload = Workload {
        args: vec![
            KernelArg::FloatBuf(vec![1.0; 4096]),
            KernelArg::FloatBuf(vec![2.0; 4096]),
            KernelArg::FloatBuf(vec![0.0; 4096]),
        ],
        global: (4096, 1),
    };
    let wg = (64, 1);
    let analysis = KernelAnalysis::analyze(&f, &platform, &workload, wg).expect("analysis");
    let profile =
        ProfileArgs::new(&workload).profile(&f, wg, ProfileFuel::default()).expect("profile");
    let groups = trace_to_group_bursts(&profile.trace, platform.mem_access_unit_bits / 8);
    let chunk = platform.dram.interleave_bytes;
    assert!(
        groups.iter().flat_map(|(_, b)| b).any(|b| u64::from(b.burst.bytes) > chunk),
        "some burst must span more than one interleave chunk"
    );
    let level = &analysis.mem_levels[0];
    for (phased, floor) in [(false, level.mem_group_max), (true, level.mem_group_max_phased)] {
        // One lane: every group in id order, each burst arriving as the
        // previous one finishes.
        let mut sim = DramSim::new(platform.dram);
        let mut t = 0u64;
        let mut heaviest = 0u64;
        for (_, bursts) in &groups {
            let mut order: Vec<_> = bursts.iter().map(|b| b.burst).collect();
            if phased {
                order.sort_by_key(|b| b.kind == AccessKind::Write);
            }
            let entered = t;
            for b in order {
                let req = Request { addr: b.addr, bytes: b.bytes, kind: b.kind, arrival: t };
                t = sim.access(req).finish;
            }
            heaviest = heaviest.max(t - entered);
        }
        assert_eq!(floor, heaviest as f64, "phased = {phased}");
    }
}
