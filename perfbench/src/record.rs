//! What one measurement process reports, and the process-level probes
//! (peak RSS, timers) every workload shares.

use crate::stats::Pct;
use accordion_telemetry::json::Json;
use std::time::Instant;

/// Failed operations, with the first few reasons kept for the report.
#[derive(Debug, Default)]
pub struct Fails {
    /// Failed operations.
    pub count: u64,
    /// The first reasons, for diagnosis.
    pub notes: Vec<String>,
}

impl Fails {
    /// Records one failed operation.
    pub fn add(&mut self, note: impl Into<String>) {
        self.count += 1;
        if self.notes.len() < 10 {
            self.notes.push(note.into());
        }
    }
}

/// One process's measurements. Every workload fills every field; see
/// the benchmark's README for what each means per workload.
#[derive(Debug, Default)]
pub struct Record {
    /// Process start → first timed operation, seconds.
    pub setup_s: f64,
    /// Host seconds of the timed part.
    pub wall_s: f64,
    /// Median operation latency.
    pub p50_ms: Option<Pct>,
    /// Tail operation latency.
    pub p99_ms: Option<Pct>,
    /// Operations per second of the timed part.
    pub max_rps: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Failed operations.
    pub fails: Fails,
    /// Digest of the generated inputs.
    pub input_digest: String,
    /// Workload-specific extras for the report line.
    pub detail: Vec<(&'static str, Json)>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<(String, f64)>,
}

impl Record {
    /// The record as one JSON line.
    pub fn to_json(&self) -> Json {
        let pct = |p: &Option<Pct>| match p {
            Some(p) => Json::obj(vec![
                ("value", Json::Num(p.value)),
                ("q", Json::Num(p.q)),
                ("n", Json::Num(p.n as f64)),
            ]),
            None => Json::Null,
        };
        Json::obj(vec![
            ("setup_s", Json::Num(self.setup_s)),
            ("wall_s", Json::Num(self.wall_s)),
            ("p50_ms", pct(&self.p50_ms)),
            ("p99_ms", pct(&self.p99_ms)),
            ("max_rps", Json::Num(self.max_rps)),
            ("peak_rss_mb", Json::Num(peak_rss_mb())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.fails.count as f64)),
            (
                "failures",
                Json::Arr(
                    self.fails
                        .notes
                        .iter()
                        .map(|n| Json::str(n.as_str()))
                        .collect(),
                ),
            ),
            ("input_digest", Json::str(self.input_digest.as_str())),
            (
                "detail",
                Json::Obj(
                    self.detail
                        .iter()
                        .map(|(k, v)| ((*k).to_string(), v.clone()))
                        .collect(),
                ),
            ),
            (
                "layers",
                Json::Obj(
                    self.layers
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// The process's resident-set high-water mark, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host CPU ticks `(stolen, all)` so far, from the `cpu` line of
/// `/proc/stat`. On a shared virtual machine the steal share between
/// two readings says how much CPU the host withheld meanwhile.
pub fn cpu_ticks() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = line
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Share of CPU time the host stole since `before` (a [`cpu_ticks`]
/// reading).
pub fn steal_since(before: (u64, u64)) -> f64 {
    let (steal, all) = cpu_ticks();
    let all = all.saturating_sub(before.1);
    if all == 0 {
        0.0
    } else {
        steal.saturating_sub(before.0) as f64 / all as f64
    }
}

/// Runs `f`, returning its value and elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}
