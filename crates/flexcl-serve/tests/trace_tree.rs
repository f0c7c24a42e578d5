//! End-to-end span-tree reconstruction: one served request must emit a
//! single rooted trace — `serve.request` at the root, the worker-side
//! `serve.exec` under it, and the pipeline phases (frontend parse, IR
//! lowering, the sweep and its children) hanging off that.
//!
//! This is its own integration-test binary because the tracer is
//! process-global: nothing else in this process may install one.

use flexcl_serve::json::{self, Json};
use flexcl_serve::server::ServerConfig;
use flexcl_serve::Server;
use std::collections::HashMap;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// A `Write` sink the test can read back after tracer shutdown.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("buf lock").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[derive(Debug)]
struct Rec {
    id: u64,
    parent: u64,
    name: String,
}

fn parse_record(line: &str) -> Rec {
    let v = json::parse(line).unwrap_or_else(|e| panic!("bad trace line {line:?}: {e}"));
    let field =
        |k: &str| v.get(k).and_then(Json::as_u64).unwrap_or_else(|| panic!("no {k} in {line}"));
    Rec {
        id: field("id"),
        parent: field("parent"),
        name: v.get("name").and_then(Json::as_str).expect("name").to_string(),
    }
}

#[test]
fn one_request_emits_a_single_rooted_span_tree() {
    let sink = SharedBuf::default();
    assert!(
        flexcl_obs::trace::install(Box::new(sink.clone()), 1),
        "tracer already installed in this process"
    );

    let (server, _) =
        Server::start(ServerConfig { workers: 1, ..ServerConfig::default() }).expect("start");
    let resp = server.handle_frame(
        r#"{"id":"t1","src":"__kernel void vadd(__global float* a, __global float* b, __global float* c) { int i = get_global_id(0); c[i] = a[i] + b[i]; }","global":256}"#,
    );
    assert_eq!(resp.kind(), "ok", "sweep failed: {}", resp.to_json());
    server.shutdown();
    flexcl_obs::trace::shutdown();

    let bytes = sink.0.lock().expect("buf lock").clone();
    let text = String::from_utf8(bytes).expect("trace is utf-8");
    let recs: Vec<Rec> = text.lines().map(parse_record).collect();
    assert!(!recs.is_empty(), "no spans were emitted");
    assert_eq!(
        flexcl_obs::trace::dropped_counter().get(),
        0,
        "spans were dropped; the tree below would be partial"
    );

    let by_id: HashMap<u64, &Rec> = recs.iter().map(|r| (r.id, r)).collect();
    let roots: Vec<&&Rec> = by_id.values().filter(|r| r.parent == 0).collect();
    assert_eq!(roots.len(), 1, "expected one root, got {roots:?}");
    let root = roots[0];
    assert_eq!(root.name, "serve.request");

    // Every span's parent chain terminates at the root, with no orphans
    // (a parent id that was never emitted) and no cycles.
    for rec in &recs {
        let mut cur = rec;
        let mut hops = 0;
        while cur.parent != 0 {
            cur = by_id.get(&cur.parent).unwrap_or_else(|| {
                panic!("span {} ({}) has unknown parent {}", rec.id, rec.name, cur.parent)
            });
            hops += 1;
            assert!(hops <= recs.len(), "parent cycle reaching {}", rec.name);
        }
        assert_eq!(cur.id, root.id, "span {} is rooted elsewhere", rec.name);
    }

    // The pipeline phases all appear, wired the way the docs claim:
    // request → exec → sweep, with per-phase children under the sweep.
    let find = |name: &str| -> &Rec {
        recs.iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("no `{name}` span in:\n{text}"))
    };
    let exec = find("serve.exec");
    assert_eq!(exec.parent, root.id);
    let sweep = find("dse.sweep");
    assert_eq!(sweep.parent, exec.id);
    for leaf in ["serve.cache_miss", "frontend.parse", "ir.lower"] {
        assert_eq!(find(leaf).parent, exec.id, "{leaf} not under serve.exec");
    }
    // Analysis work runs inside a (sampled) chunk span under the sweep:
    // dse.analysis → dse.chunk → dse.sweep, and profiling under analysis.
    let analysis = find("dse.analysis");
    let chunk = by_id[&analysis.parent];
    assert_eq!(chunk.name, "dse.chunk", "dse.analysis not inside a chunk");
    assert_eq!(chunk.parent, sweep.id);
    assert_eq!(by_id[&find("interp.profile").parent].name, "dse.analysis");
    find("sched.list");
    find("sched.sms");
}
