//! Per-layer metrics for the traced run. Two sources, both outside the
//! program: the benchmark's own timers around each crate's public
//! calls, and deltas of the counters the program already registers in
//! the global telemetry registry.

use crate::batch::{self, ArtifactTimes, Search};
use crate::record::timed;
use crate::serve::round_trips_us;
use crate::stats::median;
use accordion::pareto::{ParetoExtractor, SweepEngine};
use accordion_apps::app::all_apps;
use accordion_apps::characterize::characterize_all;
use accordion_apps::config::RunConfig;
use accordion_apps::harness::FrontSet;
use accordion_apps::hotspot::Hotspot;
use accordion_bench::registry::{generate, ARTIFACTS};
use accordion_chip::chip::Chip;
use accordion_chip::columns::{ChipColumns, OperatingTimings};
use accordion_chip::floorplan::Floorplan;
use accordion_chip::topology::Topology;
use accordion_served::engine::{self, SimQuery};
use accordion_sim::ccdc::{run_round, CcDcConfig};
use accordion_sim::phases::{iterative_app, run_app};
use accordion_stats::rng::SeedStream;
use accordion_telemetry::json;
use accordion_telemetry::registry::{exponential_bounds, global, HistogramSnapshot};
use accordion_varius::params::VariationParams;
use accordion_varius::vmap::ChipVariation;
use std::net::SocketAddr;

/// Named per-layer values, in report order.
pub type Layers = Vec<(String, f64)>;

/// Artifacts reported on their own; the rest are summed as `other`.
pub const NAMED_ARTIFACTS: [&str; 8] = [
    "fig2",
    "fig4",
    "tab3",
    "errmodel",
    "ext-validate",
    "headline",
    "fig6",
    "fig7",
];

fn queue_hist() -> HistogramSnapshot {
    global()
        .histogram(
            "served.http.queue_wait_us",
            &exponential_bounds(1.0, 2.0, 24),
        )
        .snapshot()
}

fn scrape_hist() -> HistogramSnapshot {
    global()
        .histogram("served.scrape.us", &exponential_bounds(1.0, 2.0, 20))
        .snapshot()
}

fn count(name: &str) -> u64 {
    global().counter(name).get()
}

fn shed() -> u64 {
    global()
        .labeled_counter("served.http.requests_by_outcome", &[("outcome", "shed")])
        .get()
}

/// A snapshot of every counter a per-layer metric is a delta of.
pub struct Snap {
    pop_hits: u64,
    pop_misses: u64,
    coalesced: u64,
    requests: u64,
    shed: u64,
    tasks: u64,
    steals: u64,
    queue: HistogramSnapshot,
    scrape: HistogramSnapshot,
}

impl Snap {
    /// Reads the counters now.
    pub fn take() -> Self {
        Self {
            pop_hits: count("chip.popcache.hits"),
            pop_misses: count("chip.popcache.misses"),
            coalesced: count("served.coalesced"),
            requests: count("served.http.requests"),
            shed: shed(),
            tasks: count("pool.tasks"),
            steals: count("pool.steals"),
            queue: queue_hist(),
            scrape: scrape_hist(),
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `after − before` of a registry histogram, as a snapshot.
fn hist_delta(before: &HistogramSnapshot, after: &HistogramSnapshot) -> HistogramSnapshot {
    HistogramSnapshot {
        bounds: after.bounds.clone(),
        buckets: after
            .buckets
            .iter()
            .zip(before.buckets.iter().chain(std::iter::repeat(&0)))
            .map(|(a, b)| a - b)
            .collect(),
        count: after.count - before.count,
        sum: after.sum - before.sum,
        min: Some(0.0),
        max: after.max,
    }
}

/// Workload-window metrics: cache hit ratios and pool activity between
/// two snapshots around the timed part of a workload.
pub fn workload_window(before: &Snap, after: &Snap, out: &mut Layers) {
    let hits = after.pop_hits - before.pop_hits;
    let misses = after.pop_misses - before.pop_misses;
    out.push(("chip.popcache_hit_ratio".into(), ratio(hits, hits + misses)));
    out.push(("pool.tasks".into(), (after.tasks - before.tasks) as f64));
    out.push(("pool.steals".into(), (after.steals - before.steals) as f64));
    let slowest = global().span_stats("pool.task").max_ns();
    out.push(("pool.slowest_task_ms".into(), slowest as f64 / 1e6));
}

/// Serving-window metrics between two snapshots around the requests a
/// server answered.
pub fn serve_window(before: &Snap, after: &Snap, out: &mut Layers) {
    out.push((
        "served.memo_hit_ratio".into(),
        ratio(
            after.coalesced - before.coalesced,
            after.requests - before.requests,
        ),
    ));
    let q = hist_delta(&before.queue, &after.queue);
    for (name, p) in [
        ("served.queue_wait_us.p50", 0.5),
        ("served.queue_wait_us.p99", 0.99),
    ] {
        out.push((name.into(), q.percentile(p).unwrap_or(0.0)));
    }
    out.push(("served.shed".into(), (after.shed - before.shed) as f64));
    let s = hist_delta(&before.scrape, &after.scrape);
    let scrape = s.mean().or_else(|| after.scrape.mean()).unwrap_or(0.0);
    out.push(("telemetry.scrape_us".into(), scrape));
}

/// Median seconds of `n` calls of `f(i)`.
fn median_s(n: u64, mut f: impl FnMut(u64)) -> f64 {
    let samples: Vec<f64> = (0..n).map(|i| timed(|| f(i)).1).collect();
    median(&samples).unwrap_or(0.0)
}

/// Per-artifact seconds of one `reproduce` pass.
pub fn artifact_layers(times: &ArtifactTimes, out: &mut Layers) {
    let mut other = 0.0;
    for (id, s) in times {
        if !NAMED_ARTIFACTS.contains(id) {
            other += s;
        }
    }
    for name in NAMED_ARTIFACTS {
        let s = times
            .iter()
            .find(|(id, _)| *id == name)
            .map_or(0.0, |t| t.1);
        out.push((format!("bench.artifact_s.{name}"), s));
    }
    out.push(("bench.artifact_s.other".into(), other));
}

/// Times every artifact in registry order (for workloads other than
/// `reproduce`, whose own pass provides the figures).
pub fn artifact_pass() -> ArtifactTimes {
    ARTIFACTS
        .iter()
        .map(|id| (*id, timed(|| generate(id, batch::CHIPS)).1))
        .collect()
}

/// The optimizer rows from one search plus a fresh evaluator running
/// `Evaluator::batch` over as many seeded candidates as the search
/// archived (`search − eval` ≈ archive bookkeeping).
pub fn opt_layers(search: &Search, seed: u64, jobs: usize, out: &mut Layers) {
    out.push(("opt.evaluator_new_s".into(), search.evaluator_new_s));
    out.push(("opt.search_s".into(), search.search_s));
    let eval_s = match batch::explore_evaluator() {
        Ok(eval) => {
            let cfg = batch::explore_config(seed, 0, &eval);
            let cands = batch::random_candidates(seed ^ 1, search.archive_len, &cfg.space);
            timed(|| eval.batch(&cands, jobs)).1
        }
        Err(_) => 0.0,
    };
    out.push(("opt.eval_s".into(), eval_s));
    out.push(("opt.evals".into(), search.evals.0 as f64));
    out.push((
        "opt.eval_cache_hit_ratio".into(),
        ratio(search.evals.1, search.evals.0 + search.evals.1),
    ));
}

/// Direct probes of each layer's public calls.
pub fn probes(addr: SocketAddr, out: &mut Layers) {
    // apps: uncached front measurement, characterization, one default
    // kernel run per benchmark.
    let apps = all_apps();
    let front_s: f64 = apps
        .iter()
        .map(|a| timed(|| FrontSet::measure(a.as_ref())).1)
        .sum();
    out.push(("apps.front_measure_s".into(), front_s));
    out.push(("apps.characterize_s".into(), timed(characterize_all).1));
    for a in &apps {
        let cfg = RunConfig::default_run(a.profile_threads());
        let s = median_s(3, |_| {
            std::hint::black_box(a.run(a.default_knob(), &cfg));
        });
        out.push((format!("apps.kernel_ms.{}", a.name()), s * 1e3));
    }

    // varius: uncached sampler construction and one chip sample.
    let topo = Topology::paper_default();
    let plan = Floorplan::paper_default().site_plan(&topo);
    let params = VariationParams::default();
    let build_s = median_s(5, |_| {
        std::hint::black_box(ChipVariation::sampler(&plan, &params).expect("sampler"));
    });
    out.push(("varius.sampler_build_ms".into(), build_s * 1e3));
    let sampler = ChipVariation::sampler(&plan, &params).expect("sampler");
    let seed = SeedStream::new(0x7065_7266);
    let sample_s = median_s(200, |i| {
        std::hint::black_box(sampler.sample(&mut seed.stream("perfbench", i)));
    });
    out.push(("varius.sample_us".into(), sample_s * 1e6));

    // chip: population fabrication, columns, per-supply timings.
    let fab_s = median_s(5, |i| {
        std::hint::black_box(
            Chip::fabricate_population(topo, &params, SeedStream::new(900 + i), 0, 8)
                .expect("population"),
        );
    });
    out.push(("chip.fabricate_ms".into(), fab_s * 1e3));
    let chip = accordion_bench::chip0();
    let cols_s = median_s(20, |_| {
        std::hint::black_box(ChipColumns::build(chip));
    });
    out.push(("chip.columns_us".into(), cols_s * 1e6));
    let ot_s = median_s(50, |i| {
        std::hint::black_box(OperatingTimings::at(chip, 0.55 + 0.001 * i as f64));
    });
    out.push(("chip.operating_timings_us".into(), ot_s * 1e6));

    // core: one batched Pareto extraction.
    let hotspot = Hotspot::paper_default();
    let fronts = FrontSet::measured(&hotspot);
    let extractor = ParetoExtractor::new(chip, &hotspot, &fronts);
    let sweep_s = median_s(5, |_| {
        std::hint::black_box(extractor.extract_with(SweepEngine::Batched));
    });
    out.push(("core.sweep_extract_ms".into(), sweep_s * 1e3));

    // sim: a short iterative app and one CC/DC round.
    let phases = iterative_app(3, 1_000_000, 10_000);
    let app_s = median_s(50, |i| {
        std::hint::black_box(run_app(&phases, 16, 1e-7, SeedStream::new(i)));
    });
    out.push(("sim.run_app_us".into(), app_s * 1e6));
    let round = CcDcConfig::default_round(64, 1e-7);
    let round_s = median_s(50, |i| {
        std::hint::black_box(run_round(
            &round,
            &mut SeedStream::new(i).stream("round", 0),
        ));
    });
    out.push(("sim.ccdc_round_us".into(), round_s * 1e6));

    // served engine: resident population, new seed each call.
    let query = |seed: u64| {
        format!(r#"{{"app":"hotspot","topo":"default","chips":8,"pop_seed":77,"seed":{seed}"#)
    };
    let sim = |seed: u64| {
        let doc = json::parse(&format!("{}}}", query(seed))).expect("probe query");
        engine::simulate(&SimQuery::from_json(&doc).expect("valid probe query"))
    };
    let _ = sim(0);
    let sim_s = median_s(50, |i| {
        let _ = std::hint::black_box(sim(1 + i));
    });
    out.push(("served.simulate_us".into(), sim_s * 1e6));
    let sweep_doc = |seed: u64| {
        json::parse(&format!(
            r#"{},"vdd_mv":[500,550,600],"size":[0.5,1.0,1.5]}}"#,
            query(seed)
        ))
        .expect("probe sweep")
    };
    let sweep_s = median_s(10, |i| {
        let _ = std::hint::black_box(engine::sweep(&sweep_doc(100 + i), 2));
    });
    out.push(("served.sweep_us".into(), sweep_s * 1e6));
    let healthz =
        std::iter::repeat_with(|| b"GET /healthz HTTP/1.1\r\nHost: perfbench\r\n\r\n".to_vec());
    let rtt = median(&round_trips_us(addr, healthz.take(300))).unwrap_or(0.0);
    out.push(("served.healthz_rtt_us".into(), rtt));
    // The memo's hit path: the repeated-key mix, closed loop.
    round_trips_us(addr, (0..3000).map(|k| crate::gen::hot(1, k).wire()));
}
