//! The two batch workloads: regenerating every artifact, and one
//! operating-point search.

use crate::record::{timed, Record};
use crate::stats::{percentile, Fnv};
use accordion_bench::registry::{generate, ARTIFACTS};
use accordion_chip::topology::Topology;
use accordion_opt::nsga::{self, OptOutcome};
use accordion_opt::space::{Candidate, Constraints, KnobSpace};
use accordion_opt::{Evaluator, OptConfig};
use accordion_telemetry::json::Json;
use std::time::Instant;

/// Population size of every artifact, as the golden snapshots use.
pub const CHIPS: usize = 2;

/// Per-artifact generation times of one `reproduce` pass, in registry
/// order, seconds.
pub type ArtifactTimes = Vec<(&'static str, f64)>;

/// `reproduce`: every artifact in registry order on `jobs` pool
/// workers, each byte-compared with `tests/golden/<id>.txt`. The
/// artifacts take no random input, so the seed only enters the digest.
pub fn reproduce(t0: Instant, seed: u64, jobs: usize) -> (Record, ArtifactTimes) {
    let mut rec = Record::default();
    accordion_pool::set_jobs(Some(jobs));
    let goldens: Vec<Option<String>> = ARTIFACTS
        .iter()
        .map(|id| std::fs::read_to_string(format!("tests/golden/{id}.txt")).ok())
        .collect();
    let mut fnv = Fnv::default();
    fnv.write(format!("seed={seed} chips={CHIPS} jobs={jobs}\n").as_bytes());
    for id in ARTIFACTS {
        fnv.write(id.as_bytes());
        fnv.write(b"\n");
    }
    rec.input_digest = fnv.hex();
    rec.setup_s = t0.elapsed().as_secs_f64();

    let mut times = Vec::with_capacity(ARTIFACTS.len());
    let started = Instant::now();
    for (id, golden) in ARTIFACTS.iter().zip(&goldens) {
        let (report, s) = timed(|| generate(id, CHIPS));
        times.push((*id, s));
        rec.attempted += 1;
        match (report, golden) {
            (Some(r), Some(g)) if r == *g => {}
            (_, None) => rec.fails.add(format!("{id}: no golden snapshot")),
            _ => rec
                .fails
                .add(format!("{id}: report differs from its golden snapshot")),
        }
    }
    rec.wall_s = started.elapsed().as_secs_f64();
    let ms: Vec<f64> = times.iter().map(|(_, s)| s * 1e3).collect();
    rec.p50_ms = percentile(&ms, 0.50);
    rec.p99_ms = percentile(&ms, 0.99);
    rec.max_rps = ARTIFACTS.len() as f64 / rec.wall_s;
    rec.detail.push(("jobs", Json::Num(jobs as f64)));
    rec.detail.push(("latency_ms", latency_json(&ms)));
    (rec, times)
}

/// Per-operation latencies for `run.py`, which pools them over the
/// run's processes.
fn latency_json(ms: &[f64]) -> Json {
    Json::Arr(ms.iter().map(|&v| Json::Num(v)).collect())
}

/// Benchmark the search optimizes, on chip 0 of the paper-default
/// 8-chip population 2014.
pub const EXPLORE_APP: &str = "canneal";
/// Population size of the search.
pub const EXPLORE_POPULATION: usize = 32;
/// Breeding generations: enough for an archive of thousands of points.
pub const EXPLORE_GENERATIONS: usize = 110;
/// Fresh single-candidate evaluations timed for the latency figures.
pub const EXPLORE_PROBES: usize = 1500;

/// The evaluator every explore measurement binds.
pub fn explore_evaluator() -> Result<Evaluator, String> {
    Evaluator::new(Topology::paper_default(), 2014, 8, 0, EXPLORE_APP)
}

/// The search configuration for `seed`.
pub fn explore_config(seed: u64, generations: usize, eval: &Evaluator) -> OptConfig {
    OptConfig {
        seed,
        population: EXPLORE_POPULATION,
        generations,
        scout_steps: KnobSpace::SCOUT_STEPS,
        space: KnobSpace::full(eval.max_clusters()),
        constraints: Constraints {
            quality_floor: Some(0.99),
            ..Constraints::default()
        },
    }
}

/// `n` seeded candidates spread over `space`.
pub fn random_candidates(seed: u64, n: usize, space: &KnobSpace) -> Vec<Candidate> {
    let span = |(lo, hi): (u32, u32), h: u64| lo + (h % u64::from(hi - lo + 1)) as u32;
    (0..n as u64)
        .map(|i| {
            let h = crate::gen::mix(seed ^ 0x6578_706c, i);
            Candidate {
                vdd_mv: span(space.vdd_mv, h),
                clusters: span(space.clusters, h >> 16),
                size_milli: span(space.size_milli, h >> 32),
                gb_centi: span(space.gb_centi, h >> 48),
            }
        })
        .collect()
}

/// The search result rendered byte-for-byte: equal strings mean equal
/// searches.
pub fn render_outcome(out: &OptOutcome, cons: &Constraints) -> String {
    let mut s = format!("archive {}\n", out.archive_len);
    for g in &out.generations {
        s.push_str(&format!(
            "gen {} evals {} hits {} front {}\n",
            g.generation, g.evals, g.cache_hits, g.front
        ));
    }
    for p in &out.front {
        s.push_str(&format!("{p:?} violation {:?}\n", p.violation(cons)));
    }
    s
}

/// What the traced run needs from an explore pass.
pub struct Search {
    /// Seconds to bind the evaluator.
    pub evaluator_new_s: f64,
    /// Seconds of the search.
    pub search_s: f64,
    /// Distinct candidates the search evaluated.
    pub archive_len: usize,
    /// `(fresh evaluations, memo hits)` of the search.
    pub evals: (u64, u64),
}

/// `explore`: bind the evaluator (set-up), run one seeded search on
/// `jobs` workers (timed), check that its front dominates the scout
/// grid, then time single fresh candidate evaluations.
pub fn explore(t0: Instant, seed: u64, jobs: usize, generations: usize) -> (Record, Search) {
    let mut rec = Record::default();
    let (eval, evaluator_new_s) = timed(explore_evaluator);
    let eval = match eval {
        Ok(e) => e,
        Err(e) => {
            rec.attempted = 1;
            rec.fails.add(format!("evaluator: {e}"));
            let search = Search {
                evaluator_new_s,
                search_s: 0.0,
                archive_len: 0,
                evals: (0, 0),
            };
            return (rec, search);
        }
    };
    let cfg = explore_config(seed, generations, &eval);
    let probes = random_candidates(seed, EXPLORE_PROBES, &cfg.space);
    let mut fnv = Fnv::default();
    fnv.write(format!("{cfg:?}\n{probes:?}").as_bytes());
    rec.input_digest = fnv.hex();
    rec.setup_s = t0.elapsed().as_secs_f64();

    let (outcome, search_s) = timed(|| nsga::optimize(&eval, &cfg, jobs));
    rec.wall_s = search_s;
    rec.max_rps = outcome.archive_len as f64 / search_s;
    let (evals, hits, _, _) = eval.stats();
    let report = render_outcome(&outcome, &cfg.constraints);
    let mut fnv = Fnv::default();
    fnv.write(report.as_bytes());

    rec.attempted += 1;
    let grid = eval.batch(&cfg.space.scout_grid(KnobSpace::SCOUT_STEPS), jobs);
    if !nsga::front_dominates_grid(&outcome.front, &grid, &cfg.constraints) {
        rec.fails
            .add("search front does not dominate the scout grid");
    }
    if outcome.archive_len < 1000 {
        rec.fails
            .add(format!("archive of {} points", outcome.archive_len));
    }

    // Single-candidate latency: only fresh (memo-missing) evaluations.
    let mut ms = Vec::with_capacity(probes.len());
    for c in probes {
        let before = eval.stats().0;
        let (_, s) = timed(|| eval.point(c));
        if eval.stats().0 > before {
            ms.push(s * 1e3);
        }
    }
    rec.p50_ms = percentile(&ms, 0.50);
    rec.p99_ms = percentile(&ms, 0.99);
    rec.detail.push(("latency_ms", latency_json(&ms)));
    rec.detail.push(("jobs", Json::Num(jobs as f64)));
    rec.detail
        .push(("archive", Json::Num(outcome.archive_len as f64)));
    rec.detail
        .push(("front", Json::Num(outcome.front.len() as f64)));
    rec.detail.push(("report_digest", Json::str(fnv.hex())));
    let search = Search {
        evaluator_new_s,
        search_s,
        archive_len: outcome.archive_len,
        evals: (evals, hits),
    };
    (rec, search)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explore_inputs_are_deterministic_per_seed() {
        let space = KnobSpace::full(4);
        let a = random_candidates(7, 500, &space);
        assert_eq!(a, random_candidates(7, 500, &space));
        assert_ne!(a, random_candidates(8, 500, &space));
        for c in &a {
            assert!((space.vdd_mv.0..=space.vdd_mv.1).contains(&c.vdd_mv));
            assert!((space.clusters.0..=space.clusters.1).contains(&c.clusters));
            assert!((space.size_milli.0..=space.size_milli.1).contains(&c.size_milli));
            assert!((space.gb_centi.0..=space.gb_centi.1).contains(&c.gb_centi));
        }
    }
}
