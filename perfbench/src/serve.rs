//! The probe server behind the `served.*` per-layer metrics: an
//! in-process `accordion-served` server, configured the way
//! `repro serve` configures it, and a closed-loop keep-alive client.

use crate::gen;
use accordion_bench::registry::{generate, ARTIFACTS};
use accordion_served::engine::{self, SimQuery};
use accordion_served::{start, ArtifactSource, ServeConfig, ServerHandle};
use accordion_telemetry::json;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// Starts the server the way `repro serve` would, on an ephemeral
/// port, then warms the six quality models.
pub fn boot() -> std::io::Result<ServerHandle> {
    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        artifacts: Some(ArtifactSource {
            ids: ARTIFACTS,
            generate,
        }),
        ..ServeConfig::default()
    })?;
    for app in gen::APPS {
        let doc = json::parse(&format!(
            r#"{{"app":"{app}","topo":"small","chips":1,"pop_seed":1}}"#
        ))
        .expect("warm-up query parses");
        let q = SimQuery::from_json(&doc).expect("warm-up query is valid");
        let _ = engine::simulate(&q);
    }
    Ok(handle)
}

/// The status and body range of the first complete response in `buf`,
/// or `None` while it is incomplete.
pub fn parse_response(buf: &[u8]) -> Option<(u16, std::ops::Range<usize>)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status = head.get(9..12)?.parse().ok()?;
    let len = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse::<usize>().ok())
                .flatten()
        })
        .unwrap_or(0);
    (buf.len() >= head_end + len).then_some((status, head_end..head_end + len))
}

/// Sends `requests` one at a time over one keep-alive connection and
/// returns each round trip in microseconds (fewer if the connection
/// fails).
pub fn round_trips_us(addr: SocketAddr, requests: impl Iterator<Item = Vec<u8>>) -> Vec<f64> {
    let mut samples = Vec::new();
    let Ok(mut s) = TcpStream::connect(addr) else {
        return samples;
    };
    let _ = s.set_nodelay(true);
    let mut buf = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    for request in requests {
        let t = Instant::now();
        if s.write_all(&request).is_err() {
            break;
        }
        buf.clear();
        let done = loop {
            if let Some((_, body)) = parse_response(&buf) {
                break body.end == buf.len();
            }
            match s.read(&mut chunk) {
                Ok(0) | Err(_) => break false,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
            }
        };
        if !done {
            break;
        }
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_framed_responses_incrementally() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}HTTP/1.1 503 Service Unavailable\r\ncontent-length: 0\r\n\r\n";
        for cut in 0..60 {
            assert!(parse_response(&wire[..cut]).is_none(), "cut {cut}");
        }
        let (status, body) = parse_response(wire).unwrap();
        assert_eq!(status, 200);
        assert_eq!(&wire[body.clone()], b"{}");
        let (status, rest) = parse_response(&wire[body.end..]).unwrap();
        assert_eq!((status, rest.len()), (503, 0));
    }
}
