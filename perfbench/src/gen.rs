//! Seeded inputs: the repeated-key request mix the probe server
//! answers, and the hash behind every seeded choice of the benchmark.
//! Request `k` of a stream is a pure function of `(seed, k)`.

/// The route of a generated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `POST /v1/simulate`.
    Simulate,
    /// `POST /v1/sweep`.
    Sweep,
    /// `GET /v1/artifacts`.
    Artifacts,
    /// `GET /healthz`.
    Health,
}

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    /// Route.
    pub kind: Kind,
    /// JSON body (empty for GETs).
    pub body: String,
}

impl Req {
    /// The full HTTP/1.1 keep-alive request.
    pub fn wire(&self) -> Vec<u8> {
        let path = match self.kind {
            Kind::Simulate => "/v1/simulate",
            Kind::Sweep => "/v1/sweep",
            Kind::Artifacts => {
                return b"GET /v1/artifacts HTTP/1.1\r\nHost: perfbench\r\n\r\n".to_vec()
            }
            Kind::Health => return b"GET /healthz HTTP/1.1\r\nHost: perfbench\r\n\r\n".to_vec(),
        };
        format!(
            "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
            self.body.len(),
            self.body
        )
        .into_bytes()
    }
}

/// SplitMix64 finalizer: a well-mixed 64-bit hash of `x`.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The hash behind request `k` of stream `seed`.
pub fn mix(seed: u64, k: u64) -> u64 {
    splitmix64(splitmix64(seed) ^ k)
}

/// The six paper benchmarks, in registry order.
pub const APPS: [&str; 6] = ["canneal", "ferret", "bodytrack", "x264", "hotspot", "srad"];

/// The repeated-key mix: one small-topology population, eight
/// measurement seeds, one 2×2 sweep, the artifact listing and healthz
/// (70 / 15 / 10 / 5 %).
pub fn hot(seed: u64, k: u64) -> Req {
    let h = mix(seed, k);
    let pop_seed = 1 + splitmix64(seed ^ 0x686f74) % 100_000;
    match h % 100 {
        0..=69 => Req {
            kind: Kind::Simulate,
            body: format!(
                r#"{{"app":"hotspot","topo":"small","chips":2,"pop_seed":{pop_seed},"seed":{}}}"#,
                (h >> 8) % 8
            ),
        },
        70..=84 => Req {
            kind: Kind::Sweep,
            body: format!(
                r#"{{"app":"hotspot","topo":"small","chips":2,"pop_seed":{pop_seed},"vdd_mv":[550,600],"size":[0.5,1.0]}}"#
            ),
        },
        85..=94 => Req {
            kind: Kind::Artifacts,
            body: String::new(),
        },
        _ => Req {
            kind: Kind::Health,
            body: String::new(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn hot_stream_is_deterministic_per_seed() {
        for k in 0..200 {
            assert_eq!(hot(7, k), hot(7, k));
        }
        let wire = |seed| (0..500).map(|k| hot(seed, k).wire()).collect::<Vec<_>>();
        assert_eq!(wire(7), wire(7));
        assert_ne!(wire(7), wire(8));
    }

    #[test]
    fn hot_stream_repeats_keys() {
        let bodies: HashSet<String> = (0..2000)
            .map(|k| hot(3, k).wire())
            .map(|w| String::from_utf8(w).unwrap())
            .collect();
        // 8 simulates + 1 sweep + listing + healthz.
        assert!(bodies.len() <= 11, "{} distinct hot requests", bodies.len());
    }

    #[test]
    fn wire_form_frames_the_body() {
        let r = hot(1, 1);
        let w = String::from_utf8(r.wire()).unwrap();
        assert!(w.contains(&format!("Content-Length: {}\r\n\r\n", r.body.len())));
        assert!(w.ends_with(&r.body));
    }
}
