//! Epoll transport over real TCP sockets: framing round-trips,
//! pipelining, malformed and oversize frames, idle-timeout reaping,
//! and multi-listener `SO_REUSEPORT` mode.

#![cfg(target_os = "linux")]

use flexcl_serve::net::epoll::{EpollOptions, EpollTransport};
use flexcl_serve::protocol::{read_frame, write_frame, MAX_FRAME_LEN};
use flexcl_serve::server::ServerConfig;
use flexcl_serve::Server;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const VADD: &str = "__kernel void vadd(__global float* a, __global float* b, \
                    __global float* c) { int i = get_global_id(0); c[i] = a[i] + b[i]; }";

fn request(id: &str) -> String {
    let src_json = VADD.replace('\\', "\\\\").replace('"', "\\\"");
    format!(r#"{{"id":"{id}","src":"{src_json}","global":256,"grid":"standard"}}"#)
}

fn start(opts: EpollOptions) -> (EpollTransport, std::net::SocketAddrV4) {
    let (server, _) = Server::start(ServerConfig { workers: 2, ..ServerConfig::default() })
        .expect("start server");
    let transport =
        EpollTransport::bind(Arc::new(server), "127.0.0.1:0", opts).expect("bind epoll");
    let addr = transport.local_addr();
    (transport, addr)
}

#[test]
fn frames_round_trip_and_pipelined_requests_all_answer() {
    let (transport, addr) = start(EpollOptions::default());
    let mut stream = TcpStream::connect(addr).expect("connect");

    // Two requests written back-to-back before reading either reply.
    write_frame(&mut stream, &request("p1")).expect("write p1");
    write_frame(&mut stream, &request("p2")).expect("write p2");
    let mut ids = Vec::new();
    for _ in 0..2 {
        let reply = read_frame(&mut stream).expect("read").expect("frame");
        assert!(reply.contains("\"status\":\"ok\""), "{reply}");
        for id in ["p1", "p2"] {
            if reply.contains(&format!("\"id\":\"{id}\"")) {
                ids.push(id);
            }
        }
    }
    ids.sort_unstable();
    assert_eq!(ids, ["p1", "p2"], "each pipelined request answered exactly once");

    // A metrics frame on the same connection reports live counters.
    write_frame(&mut stream, "{\"metrics\":\"json\"}").expect("write metrics");
    let metrics = read_frame(&mut stream).expect("read").expect("frame");
    assert!(metrics.contains("\"serve.completed\":2"), "{metrics}");
    drop(stream);
    transport.shutdown().expect("shutdown");
}

#[test]
fn malformed_json_is_answered_in_band_but_bad_framing_drops_the_connection() {
    let (transport, addr) = start(EpollOptions::default());

    // Malformed JSON inside a well-formed frame: typed error, conn lives.
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_frame(&mut stream, "{\"id\":\"broken\"").expect("write");
    let reply = read_frame(&mut stream).expect("read").expect("frame");
    assert!(reply.contains("\"kind\":\"malformed\""), "{reply}");
    write_frame(&mut stream, &request("after-garbage")).expect("write");
    let reply = read_frame(&mut stream).expect("read").expect("frame");
    assert!(reply.contains("\"status\":\"ok\""), "{reply}");

    // A length prefix beyond MAX_FRAME_LEN is a framing violation: the
    // server hangs up rather than buffering it.
    let mut bad = TcpStream::connect(addr).expect("connect");
    bad.write_all(&((MAX_FRAME_LEN as u32) + 1).to_be_bytes()).expect("write prefix");
    bad.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let mut buf = [0u8; 1];
    assert_eq!(bad.read(&mut buf).expect("read EOF"), 0, "connection must be closed");

    transport.shutdown().expect("shutdown");
}

#[test]
fn idle_connections_are_reaped_after_the_timeout() {
    let (transport, addr) =
        start(EpollOptions { idle_timeout: Duration::from_millis(200), ..EpollOptions::default() });
    let mut stream = TcpStream::connect(addr).expect("connect");
    // Activity first, so the reap isn't just the accept timestamp.
    write_frame(&mut stream, "{\"metrics\":\"json\"}").expect("write");
    read_frame(&mut stream).expect("read").expect("frame");

    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let mut buf = [0u8; 1];
    match stream.read(&mut buf) {
        Ok(0) => {} // reaped: clean EOF
        Ok(n) => panic!("unexpected {n} bytes from an idle connection"),
        Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
        Err(e) => panic!("expected idle close, got {e}"),
    }
    transport.shutdown().expect("shutdown");
}

#[test]
fn zero_idle_timeout_disables_reaping() {
    // Regression: a zero idle timeout used to make the reap predicate
    // `now - last >= 0` trivially true, so every quiescent connection was
    // closed on the very first loop tick. Zero must mean "never reap".
    let (transport, addr) =
        start(EpollOptions { idle_timeout: Duration::ZERO, ..EpollOptions::default() });
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_frame(&mut stream, "{\"metrics\":\"json\"}").expect("write");
    read_frame(&mut stream).expect("read").expect("frame");

    // Sit idle for well over several loop ticks (the buggy tick was the
    // 10ms clamp floor; the disabled-reap tick is 200ms), then prove the
    // connection still answers.
    std::thread::sleep(Duration::from_millis(700));
    write_frame(&mut stream, "{\"metrics\":\"json\"}").expect("write after idle");
    let reply = read_frame(&mut stream)
        .expect("connection must survive idling with reaping disabled")
        .expect("frame");
    assert!(reply.contains("serve."), "{reply}");
    transport.shutdown().expect("shutdown");
}

#[test]
fn reuseport_listeners_share_one_resolved_port() {
    let (transport, addr) = start(EpollOptions { listeners: 3, ..EpollOptions::default() });
    assert_ne!(addr.port(), 0, "port 0 must resolve");
    // Every connection lands on the same address; the kernel shards
    // them across the three loops.
    for i in 0..6 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write_frame(&mut stream, &request(&format!("lb-{i}"))).expect("write");
        let reply = read_frame(&mut stream).expect("read").expect("frame");
        assert!(reply.contains("\"status\":\"ok\""), "{reply}");
    }
    transport.shutdown().expect("shutdown");
}
