//! The per-server response memo seen from the wire: a repeated
//! `POST /v1/optimize` is answered from the memo with the same bytes
//! and counted as coalesced.
//!
//! Its own test binary: `served.coalesced` is a process-global
//! counter, so no other server may share the process.

use accordion_served::{start, ServeConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn post(addr: SocketAddr, path: &str, body: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    conn.write_all(
        format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
    .expect("send");
    let mut out = String::new();
    let _ = conn.read_to_string(&mut out);
    out
}

fn coalesced() -> u64 {
    accordion_telemetry::registry::global()
        .counter("served.coalesced")
        .get()
}

#[test]
fn repeated_optimize_replays_the_memo() {
    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        handler_threads: 2,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = handle.addr();
    let body = r#"{"app": "hotspot", "topo": "small", "chips": 2, "pop_seed": 9104,
        "seed": 5, "population": 8, "generations": 2, "scout_steps": 2}"#;

    let before = coalesced();
    let first = post(addr, "/v1/optimize", body);
    assert!(first.starts_with("HTTP/1.1 200"), "{first}");
    assert_eq!(coalesced(), before, "the first request evaluates");
    let second = post(addr, "/v1/optimize", body);
    assert_eq!(second, first, "a memo replay is byte-identical");
    assert_eq!(coalesced(), before + 1, "the replay counts as coalesced");

    handle.shutdown();
}
