//! Service-level robustness: one poisoned request cannot hurt its
//! neighbours, and every served answer is bit-identical to the offline
//! engine.
//!
//! The acceptance scenario from the issue: ≥ 8 concurrent well-formed
//! requests complete with results bit-identical to a direct
//! `explore_space_cached` call, while interleaved panicking / fuel-starved /
//! over-deadline / malformed / cache-corrupting requests are each
//! rejected with their typed error kind. Admission control is exercised
//! separately with a one-slot queue.

use flexcl_core::config::SweepGrid;
use flexcl_core::{explore_space_cached, AnalysisCache, DseOptions, Platform};
use flexcl_serve::protocol::Response;
use flexcl_serve::server::ServerConfig;
use flexcl_serve::{workload, Server};
use std::sync::Arc;

const VADD: &str = "__kernel void vadd(__global float* a, __global float* b, \
                     __global float* c) { int i = get_global_id(0); c[i] = a[i] + b[i]; }";

/// A second kernel shape so concurrent traffic is not all one
/// fingerprint.
const SCALE: &str = "__kernel void scale(__global float* a, float k) { \
                      int i = get_global_id(0); a[i] = a[i] * k; }";

fn request(id: &str, src: &str, global: u64, extra: &str) -> String {
    let src_json = src.replace('\\', "\\\\").replace('"', "\\\"");
    format!(r#"{{"id":"{id}","src":"{src_json}","global":{global}{extra}}}"#)
}

/// The offline reference digest for (src, global) over the standard
/// grid, computed through the same workload synthesis the server uses.
fn offline_best_cycles(src: &str, global: u64) -> (u64, f64) {
    let p = workload::prepare(src, None, (global, 1), Default::default()).expect("prepare");
    let r = explore_space_cached(
        &p.func,
        &Platform::virtex7_adm7v3(),
        &p.workload,
        &SweepGrid::standard(),
        DseOptions::default(),
        None,
        &AnalysisCache::new(),
    )
    .expect("offline sweep");
    (r.points.len() as u64, r.best().expect("best").estimate.cycles)
}

#[test]
fn poisoned_requests_are_isolated_while_concurrent_clean_ones_complete() {
    let (server, _) = Server::start(ServerConfig {
        workers: 2,
        queue_cap: 64,
        degrade_at: usize::MAX, // pressure-free: this test is about isolation
        default_deadline_ms: 60_000,
        enable_testhooks: true,
        ..ServerConfig::default()
    })
    .expect("start");
    let server = Arc::new(server);

    // 10 well-formed requests (two kernel shapes) racing 5 poisoned ones.
    let mut handles = Vec::new();
    for i in 0..10 {
        let server = Arc::clone(&server);
        let (src, global) = if i % 2 == 0 { (VADD, 4096) } else { (SCALE, 2048) };
        handles.push(std::thread::spawn(move || {
            let frame = request(&format!("ok-{i}"), src, global, "");
            (i, server.handle_frame(&frame))
        }));
    }
    let poison = [
        ("panic", r#","fault":"panic""#),
        ("estimate-panic", r#","fault":"estimate-panic""#),
        ("fuel", r#","fault":"fuel""#),
        ("deadline", r#","deadline_ms":0"#),
        ("corrupt", r#","fault":"corrupt-cache""#),
    ];
    let mut poison_handles = Vec::new();
    for (tag, extra) in poison {
        let server = Arc::clone(&server);
        let frame = request(&format!("bad-{tag}"), VADD, 4096, extra);
        poison_handles.push(std::thread::spawn(move || (tag, server.handle_frame(&frame))));
    }
    // Malformed frames from the same firehose.
    let malformed = server.handle_frame(r#"{"id":"bad-json","src":"x","#);
    assert_eq!(malformed.kind(), "malformed");

    // Every clean request completes with the offline engine's bits.
    let vadd_ref = offline_best_cycles(VADD, 4096);
    let scale_ref = offline_best_cycles(SCALE, 2048);
    for h in handles {
        let (i, resp) = h.join().expect("client thread");
        let Response::Ok { summary, degraded, .. } = &resp else {
            panic!("clean request {i} failed: {}", resp.to_json());
        };
        assert_eq!(*degraded, 0);
        let (points, cycles) = if i % 2 == 0 { vadd_ref } else { scale_ref };
        assert_eq!(summary.points, points, "request {i}");
        let got = summary.best_cycles.expect("best");
        assert_eq!(got.to_bits(), cycles.to_bits(), "request {i}: {got} != {cycles}");
    }

    // Every poisoned request is rejected with its typed kind.
    for h in poison_handles {
        let (tag, resp) = h.join().expect("poison thread");
        match tag {
            "panic" => assert_eq!(resp.kind(), "panic", "{}", resp.to_json()),
            "fuel" => assert_eq!(resp.kind(), "resource-limit", "{}", resp.to_json()),
            "deadline" => assert_eq!(resp.kind(), "deadline", "{}", resp.to_json()),
            // One panicking candidate out of hundreds: the sweep still
            // completes (that is the point of chunk isolation).
            "estimate-panic" => assert_eq!(resp.kind(), "ok", "{}", resp.to_json()),
            // Corruption happens *after* a successful answer; the damage
            // shows up (and is quarantined) only on the next cache read.
            "corrupt" => assert_eq!(resp.kind(), "ok", "{}", resp.to_json()),
            _ => unreachable!(),
        }
    }

    let server = Arc::into_inner(server).expect("sole handle");
    let c = server.shutdown();
    assert_eq!(c.completed, 12, "10 clean + estimate-panic + corrupt");
    assert_eq!(c.deadline_expired, 1);
    assert_eq!(c.malformed, 1);
    assert_eq!(c.failed, 2, "panic + fuel");
    assert_eq!(c.shed, 0);
}

#[test]
fn an_expired_request_never_leads_its_live_twin() {
    let (server, _) = Server::start(ServerConfig {
        workers: 1,
        degrade_at: usize::MAX,
        default_deadline_ms: 60_000,
        ..ServerConfig::default()
    })
    .expect("start");
    let (tx, rx) = std::sync::mpsc::channel();
    let submit = |frame: String| {
        let tx = tx.clone();
        let req = flexcl_serve::Request::parse(&frame).expect("well-formed");
        server.submit_async(req, Box::new(move |r: Response| drop(tx.send(r))));
    };
    // The only worker takes an unrelated fine-grid sweep first, so the
    // expired request and its clean twin both arrive while it is busy:
    // queued, the expired one would lead a sweep the twin parks on.
    submit(request("busy", SCALE, 2048, r#","grid":"fine""#));
    submit(request("expired", VADD, 4096, r#","deadline_ms":0"#));
    submit(request("twin", VADD, 4096, ""));
    let mut answers: Vec<Response> = (0..3).map(|_| rx.recv().expect("answer")).collect();
    answers.sort_by_key(|r| r.id().to_string());

    let [busy, expired, twin] = &answers[..] else { unreachable!() };
    assert_eq!(busy.kind(), "ok", "{}", busy.to_json());
    assert_eq!(expired.kind(), "deadline", "{}", expired.to_json());
    let Response::Ok { summary, coalesced, .. } = twin else {
        panic!("the live twin must not inherit the expired answer: {}", twin.to_json());
    };
    assert!(!coalesced);
    let (points, cycles) = offline_best_cycles(VADD, 4096);
    assert_eq!(summary.points, points);
    assert_eq!(summary.best_cycles.expect("best").to_bits(), cycles.to_bits());

    let c = server.shutdown();
    assert_eq!((c.completed, c.deadline_expired, c.shed), (2, 1, 0));
}

#[test]
fn served_results_are_bit_identical_to_offline_followups_hit_cache() {
    let dir = std::env::temp_dir()
        .join(format!("flexcl-serve-bitident-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (server, _) = Server::start(ServerConfig {
        workers: 1,
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("start");

    let first = server.handle_frame(&request("a", VADD, 4096, ""));
    let second = server.handle_frame(&request("b", VADD, 4096, ""));
    let (Response::Ok { summary: s1, cache: c1, .. }, Response::Ok { summary: s2, cache: c2, .. }) =
        (&first, &second)
    else {
        panic!("{} / {}", first.to_json(), second.to_json());
    };
    assert_eq!(format!("{c1:?}"), "Miss");
    assert_eq!(format!("{c2:?}"), "Hit");
    assert_eq!(s1, s2, "a cache hit must serve the very same digest");

    let (points, cycles) = offline_best_cycles(VADD, 4096);
    assert_eq!(s1.points, points);
    assert_eq!(s1.best_cycles.expect("best").to_bits(), cycles.to_bits());

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_queue_sheds_with_retry_hint_and_degrades_under_pressure() {
    // Zero workers draining… is impossible (workers ≥ 1), so saturate a
    // 1-slot queue with slow requests from many clients instead.
    let (server, _) = Server::start(ServerConfig {
        workers: 1,
        queue_cap: 2,
        degrade_at: 1, // every queued request degrades one rung per depth
        default_deadline_ms: 60_000,
        ..ServerConfig::default()
    })
    .expect("start");
    let server = Arc::new(server);

    // Unique sources defeat any caching; "fine" grid makes each compute
    // slow enough to pile the queue up on the 1-core container.
    let mut handles = Vec::new();
    for i in 0..12 {
        let server = Arc::clone(&server);
        handles.push(std::thread::spawn(move || {
            let src = format!(
                "__kernel void k{i}(__global float* a) {{ \
                  int i = get_global_id(0); a[i] = a[i] + {i}.0f; }}"
            );
            let frame = request(&format!("p-{i}"), &src, 1024, r#","grid":"fine""#);
            server.handle_frame(&frame)
        }));
    }
    let responses: Vec<Response> =
        handles.into_iter().map(|h| h.join().expect("client")).collect();

    let shed: Vec<&Response> = responses.iter().filter(|r| r.kind() == "overloaded").collect();
    let ok: Vec<&Response> = responses.iter().filter(|r| r.kind() == "ok").collect();
    assert!(!shed.is_empty(), "12 clients on a 2-slot queue must shed");
    assert!(!ok.is_empty(), "admitted requests must still complete");
    for r in &shed {
        let Response::Err { retry_after_ms, .. } = r else { unreachable!() };
        assert!(retry_after_ms.is_some(), "shed responses carry a retry hint");
    }
    // At least one admitted request saw queue depth ≥ degrade_at and got
    // the coarser grid, labeled as such.
    let degraded: Vec<_> = ok
        .iter()
        .filter_map(|r| match r {
            Response::Ok { degraded, grid_used, .. } if *degraded > 0 => Some(grid_used.clone()),
            _ => None,
        })
        .collect();
    // Shedding implies some request was admitted at depth ≥ 1 =
    // degrade_at, so at least one answer must be a recorded degradation.
    assert!(!degraded.is_empty(), "sheds without degradations cannot happen at degrade_at=1");
    assert!(
        degraded.iter().all(|g| g == "standard"),
        "fine degrades to standard, got {degraded:?}"
    );

    let server = Arc::into_inner(server).expect("sole handle");
    let c = server.shutdown();
    assert_eq!(c.shed as usize, shed.len());
    assert!(c.completed >= 1);
}
