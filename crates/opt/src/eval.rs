//! Candidate evaluation: one [`Candidate`] in, one fully-priced
//! [`OperatingPoint`] out — deterministic, memoized, and cheap to
//! repeat.
//!
//! Two caches make the search fast without touching its bytes:
//!
//! * a **per-supply timing-context cache** — [`OperatingTimings`]
//!   derivation (per-core critical-path statistics at a given `Vdd`)
//!   is the expensive part of an evaluation, and adjacent candidates
//!   (a bisection step, a mutated neighbour) usually share a supply.
//!   Contexts are keyed by integer millivolts and kept in a small
//!   LRU [`Memo`] (`opt.ctx_cache.*`); `OperatingTimings::at` is a pure
//!   function of `(chip, vdd)`, so eviction can never change a result.
//! * a **candidate memo** — the NSGA-II loop revisits operating points
//!   constantly (elitism keeps parents around; mutation often lands on
//!   a previous candidate). The memo makes a repeat evaluation a hash
//!   lookup. Hits and misses feed the `opt_evals_total` /
//!   `opt_eval_cache_hits_total` counters and the report's hit ratio.
//!
//! The chip itself comes from the process-wide
//! [`accordion_chip::popcache`], and the quality fronts from the
//! process-wide [`FrontSet`](accordion_apps::harness::FrontSet)
//! measurement cache — a second `optimize` call in the same process
//! (or served worker) skips fabrication and kernel measurement
//! entirely.

use crate::space::{Candidate, Constraints};
use accordion::baseline::StvBaseline;
use accordion::quality::QualityModel;
use accordion_apps::app::all_apps;
use accordion_chip::chip::Chip;
use accordion_chip::columns::{ChipColumns, OperatingTimings};
use accordion_chip::popcache;
use accordion_chip::topology::Topology;
use accordion_sim::exec::ExecModel;
use accordion_telemetry::counter;
use accordion_telemetry::memo::Memo;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Timing contexts kept live per evaluator (LRU); large enough for a
/// bisection's working set, small enough that a long NSGA-II run over
/// the full 900 mV range cannot hoard hundreds of contexts.
const CTX_CAPACITY: usize = 32;

/// One evaluated candidate with everything the objectives, the
/// constraints and the report need.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingPoint {
    /// The candidate knobs this point was evaluated at.
    pub candidate: Candidate,
    /// Safe (error-free) frequency of the engaged prefix, GHz.
    pub f_safe_ghz: f64,
    /// Operating frequency (= safe frequency for Safe candidates), GHz.
    pub f_run_ghz: f64,
    /// Per-core-cycle timing-error rate; `0.0` for Safe candidates.
    pub perr: f64,
    /// Execution time of the scaled workload, seconds.
    pub time_s: f64,
    /// Chip power of the engaged prefix at the operating point, watts.
    pub power_w: f64,
    /// Aggregate throughput, MIPS.
    pub mips: f64,
    /// Output quality (normalized to the STV default run).
    pub quality: f64,
}

impl OperatingPoint {
    /// Energy efficiency in MIPS per watt.
    pub fn mips_per_w(&self) -> f64 {
        self.mips / self.power_w
    }

    /// The minimization objectives `[power, time, quality deficit]`.
    /// Lower is better in every coordinate, which keeps the dominance
    /// code sign-free.
    pub fn objectives(&self) -> [f64; 3] {
        [self.power_w, self.time_s, 1.0 - self.quality]
    }

    /// Total constraint violation under `cons` (`0.0` = feasible).
    pub fn violation(&self, cons: &Constraints) -> f64 {
        cons.violation(self.power_w, self.time_s, self.quality)
    }
}

/// Deterministic, cached candidate evaluator for one `(population,
/// chip, app)` binding.
pub struct Evaluator {
    pop: Arc<Vec<Chip>>,
    chip_index: usize,
    cols: ChipColumns,
    quality: QualityModel,
    exec: ExecModel,
    baseline: StvBaseline,
    /// Per-supply timing contexts, keyed by millivolts.
    ctxs: Memo<u32, OperatingTimings>,
    memo: Mutex<HashMap<Candidate, OperatingPoint>>,
    evals: AtomicU64,
    memo_hits: AtomicU64,
}

impl Evaluator {
    /// Binds an evaluator to chip `chip_index` of the
    /// `(topo, pop_seed, chips)` population (via the process-wide
    /// popcache) and benchmark `app` (quality fronts via the
    /// process-wide measurement cache).
    ///
    /// # Errors
    ///
    /// A human-readable message when the app is unknown, the chip
    /// index is out of range, or fabrication fails.
    pub fn new(
        topo: Topology,
        pop_seed: u64,
        chips: usize,
        chip_index: usize,
        app: &str,
    ) -> Result<Self, String> {
        let app = all_apps()
            .into_iter()
            .find(|a| a.name() == app)
            .ok_or_else(|| {
                let known: Vec<String> = all_apps().iter().map(|a| a.name().to_string()).collect();
                format!("unknown app {app:?}; known: {}", known.join(", "))
            })?;
        let pop = popcache::population(topo, pop_seed, chips)
            .map_err(|e| format!("variation sampler: {e:?}"))?;
        if chip_index >= pop.len() {
            return Err(format!(
                "chip index {chip_index} outside population of {}",
                pop.len()
            ));
        }
        let chip = &pop[chip_index];
        let cols = ChipColumns::build(chip);
        let quality = QualityModel::measure(app.as_ref());
        let exec = ExecModel::paper_default();
        let baseline = StvBaseline::compute(chip, app.as_ref(), &exec);
        Ok(Self {
            pop,
            chip_index,
            cols,
            quality,
            exec,
            baseline,
            ctxs: Memo::new("opt.ctx_cache", CTX_CAPACITY),
            memo: Mutex::new(HashMap::new()),
            evals: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
        })
    }

    /// The chip candidates are evaluated on.
    pub fn chip(&self) -> &Chip {
        &self.pop[self.chip_index]
    }

    /// The STV reference execution everything is normalized to.
    pub fn baseline(&self) -> &StvBaseline {
        &self.baseline
    }

    /// The benchmark's interpolated quality model.
    pub fn quality(&self) -> &QualityModel {
        &self.quality
    }

    /// The chip's cluster count (upper bound for the cluster knob).
    pub fn max_clusters(&self) -> u32 {
        self.cols.num_clusters() as u32
    }

    /// `(fresh evaluations, memo hits, ctx hits, ctx misses)` so far.
    pub fn stats(&self) -> (u64, u64, u64, u64) {
        let ctx = self.ctxs.stats();
        (
            self.evals.load(Ordering::Relaxed),
            self.memo_hits.load(Ordering::Relaxed),
            ctx.hits,
            ctx.misses,
        )
    }

    /// The per-supply timing context for `vdd_mv`, derived at most
    /// once while it stays in the LRU window. Derivation runs outside
    /// the cache lock: a 288-core context must not serialize the whole
    /// worker pool.
    fn ctx(&self, vdd_mv: u32) -> Arc<OperatingTimings> {
        self.ctxs.get_or_insert_with(vdd_mv, || {
            OperatingTimings::at(self.chip(), f64::from(vdd_mv) / 1000.0)
        })
    }

    /// Evaluates one candidate, bypassing the memo. Pure function of
    /// `(chip, candidate)` — no wall clock, no RNG.
    fn eval_uncached(&self, c: Candidate) -> OperatingPoint {
        let chip = self.chip();
        let ctx = self.ctx(c.vdd_mv);
        let n = (c.clusters as usize).clamp(1, self.cols.num_clusters());
        // The engaged clusters are the first `n` of the chip's
        // NTV-efficiency order — the same prefix rule the pareto
        // extractor and the batched sweep engine use.
        let prefix = || self.cols.efficiency_order()[..n].iter().map(|cl| cl.0);
        let params = chip.variation_params();
        let f_safe = ctx
            .columns()
            .min_frequency_for_perr_over(prefix(), params.perr_safe_target);
        let (f_run, perr) = match c.perr_target() {
            // Speculation can only raise the binding frequency; `max`
            // guards the degenerate case where the relaxed target is
            // still below the safe one.
            Some(p) => (
                ctx.columns()
                    .min_frequency_for_perr_over(prefix(), p)
                    .max(f_safe),
                p,
            ),
            None => (f_safe, 0.0),
        };

        let size = c.size();
        let w = self.baseline.workload.scaled(size);
        let n_cores = n * chip.topology().cores_per_cluster;
        let time_s = self.exec.execution_time_s(&w, n_cores, f_run);
        let mips = self.exec.total_mips(&w, n_cores, f_run);
        let power_w = self.prefix_power_w(n, c.vdd_v(), f_run);

        let (lo, hi) = self.quality.size_domain();
        let s = size.clamp(lo, hi);
        let quality = if c.is_safe() {
            self.quality.quality_safe(s)
        } else {
            self.quality.quality_speculative(s)
        };

        OperatingPoint {
            candidate: c,
            f_safe_ghz: f_safe,
            f_run_ghz: f_run,
            perr,
            time_s,
            power_w,
            mips,
            quality,
        }
    }

    /// Power of the first `n` efficiency-ordered clusters at an
    /// arbitrary supply: per-core variation-aware dynamic+leakage plus
    /// per-cluster uncore (the served engine's whole-chip pricing,
    /// restricted to the engaged prefix).
    fn prefix_power_w(&self, n: usize, vdd_v: f64, f_ghz: f64) -> f64 {
        let chip = self.chip();
        let core_model = chip.power_model().core_model();
        let variation = &chip.sample().variation;
        let tech = chip.freq_model().technology();
        let mut total = 0.0;
        for &cl in &self.cols.efficiency_order()[..n] {
            for core in chip.topology().cores_of(cl) {
                let dv = variation.core_vth_delta_v[core.0];
                let lm = variation.core_leff_mult[core.0];
                total += core_model.core_power(vdd_v, f_ghz, dv, lm).total_w();
            }
            total += chip
                .power_model()
                .cluster_uncore_w(vdd_v, f_ghz / tech.f_nom_ghz);
        }
        total
    }

    /// Every point evaluated so far, in candidate order.
    #[cfg(test)]
    pub(crate) fn evaluated(&self) -> Vec<OperatingPoint> {
        let mut points: Vec<OperatingPoint> = self.memo().values().cloned().collect();
        points.sort_by_key(|p| p.candidate);
        points
    }

    /// The candidate memo. Every update inserts one complete, pure
    /// value, so a lock poisoned by a panicking holder is recovered.
    fn memo(&self) -> MutexGuard<'_, HashMap<Candidate, OperatingPoint>> {
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Evaluates one candidate through the memo.
    pub fn point(&self, c: Candidate) -> OperatingPoint {
        if let Some(hit) = self.memo().get(&c) {
            self.memo_hits.fetch_add(1, Ordering::Relaxed);
            counter!("opt.eval_cache.hits").inc();
            return hit.clone();
        }
        self.evals.fetch_add(1, Ordering::Relaxed);
        counter!("opt.evals").inc();
        let p = self.eval_uncached(c);
        self.memo().insert(c, p.clone());
        p
    }

    /// Evaluates a batch: memo misses fan out over `workers` pool
    /// threads (ordered parallel map — byte-identical at any worker
    /// count), hits replay from the memo. Results are in input order.
    pub fn batch(&self, cands: &[Candidate], workers: usize) -> Vec<OperatingPoint> {
        // Collect the distinct misses in first-appearance order so the
        // parallel fan-out sees a deterministic work list.
        let mut fresh: Vec<Candidate> = Vec::new();
        {
            let memo = self.memo();
            let mut seen: Vec<Candidate> = Vec::new();
            for &c in cands {
                if !memo.contains_key(&c) && !seen.contains(&c) {
                    seen.push(c);
                    fresh.push(c);
                }
            }
        }
        let hits = (cands.len() - fresh.len()) as u64;
        self.memo_hits.fetch_add(hits, Ordering::Relaxed);
        counter!("opt.eval_cache.hits").add(hits);
        self.evals.fetch_add(fresh.len() as u64, Ordering::Relaxed);
        counter!("opt.evals").add(fresh.len() as u64);
        let points =
            accordion_pool::par_map_with(workers, fresh.clone(), |c| self.eval_uncached(c));
        {
            let mut memo = self.memo();
            for (c, p) in fresh.iter().zip(points) {
                memo.insert(*c, p);
            }
        }
        let memo = self.memo();
        cands
            .iter()
            .map(|c| memo.get(c).expect("batch populated the memo").clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::GB_SAFE_CENTI;
    use std::sync::OnceLock;

    fn eval() -> &'static Evaluator {
        static EVAL: OnceLock<Evaluator> = OnceLock::new();
        EVAL.get_or_init(|| {
            Evaluator::new(Topology::small(), 7001, 2, 0, "hotspot").expect("evaluator")
        })
    }

    fn cand(vdd_mv: u32, clusters: u32, size_milli: u32, gb_centi: u32) -> Candidate {
        Candidate {
            vdd_mv,
            clusters,
            size_milli,
            gb_centi,
        }
    }

    #[test]
    fn rejects_bad_bindings() {
        assert!(Evaluator::new(Topology::small(), 1, 2, 0, "nope").is_err());
        assert!(Evaluator::new(Topology::small(), 1, 2, 5, "hotspot").is_err());
    }

    #[test]
    fn point_is_physical_and_memoized() {
        let e = eval();
        let c = cand(550, 2, 1000, GB_SAFE_CENTI);
        let p = e.point(c);
        assert!(p.f_safe_ghz > 0.05 && p.f_safe_ghz < 4.0, "{p:?}");
        assert_eq!(p.f_run_ghz, p.f_safe_ghz, "safe mode runs at f_safe");
        assert_eq!(p.perr, 0.0);
        assert!(p.power_w > 0.0 && p.time_s > 0.0 && p.quality > 0.5);
        let again = e.point(c);
        assert_eq!(p, again);
        let (_, hits, _, _) = e.stats();
        assert!(hits >= 1, "second lookup must hit the memo");
    }

    #[test]
    fn speculation_buys_frequency_and_costs_quality() {
        let e = eval();
        let safe = e.point(cand(500, 2, 1000, GB_SAFE_CENTI));
        let spec = e.point(cand(500, 2, 1000, 600));
        assert!(spec.f_run_ghz > safe.f_run_ghz, "{spec:?} vs {safe:?}");
        assert!(spec.quality <= safe.quality + 1e-12);
        assert!(spec.time_s < safe.time_s);
    }

    #[test]
    fn higher_vdd_clocks_faster_and_draws_more() {
        let e = eval();
        let lo = e.point(cand(450, 2, 1000, GB_SAFE_CENTI));
        let hi = e.point(cand(900, 2, 1000, GB_SAFE_CENTI));
        assert!(hi.f_safe_ghz > lo.f_safe_ghz);
        assert!(hi.power_w > lo.power_w);
        assert!(hi.time_s < lo.time_s);
    }

    #[test]
    fn batch_matches_pointwise_and_reuses_contexts() {
        let e = Evaluator::new(Topology::small(), 7002, 2, 1, "hotspot").expect("evaluator");
        let cands: Vec<Candidate> = (0..12u32)
            .map(|i| cand(500 + (i % 3) * 50, 1 + i % 2, 800 + i * 10, GB_SAFE_CENTI))
            .collect();
        let seq: Vec<OperatingPoint> = cands.iter().map(|&c| e.eval_uncached(c)).collect();
        let batched = e.batch(&cands, 4);
        assert_eq!(seq, batched);
        let (_, _, ctx_hits, ctx_misses) = e.stats();
        assert_eq!(ctx_misses, 3, "three distinct supplies derive contexts");
        assert!(ctx_hits > ctx_misses, "adjacent candidates reuse contexts");
    }

    #[test]
    fn poisoned_memo_lock_still_serves_correct_points() {
        let e = Evaluator::new(Topology::small(), 7003, 2, 0, "hotspot").expect("evaluator");
        let warm = cand(600, 2, 1000, GB_SAFE_CENTI);
        let expected_warm = e.point(warm);
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _held = e.memo();
                panic!("poisoning the candidate memo on purpose");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(e.memo.is_poisoned());
        assert_eq!(e.point(warm), expected_warm, "memo hit after poison");
        let fresh = cand(700, 1, 900, 600);
        assert_eq!(
            e.point(fresh),
            e.eval_uncached(fresh),
            "memo miss after poison"
        );
        let cands: Vec<Candidate> = (0..6u32)
            .map(|i| cand(500 + i * 40, 1 + i % 2, 1000, GB_SAFE_CENTI))
            .chain([warm, fresh])
            .collect();
        let seq: Vec<OperatingPoint> = cands.iter().map(|&c| e.eval_uncached(c)).collect();
        assert_eq!(e.batch(&cands, 2), seq);
    }
}
