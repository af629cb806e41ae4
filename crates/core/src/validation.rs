//! End-to-end validation of the speculative quality model.
//!
//! The iso-time machinery *estimates* speculative quality by reading
//! the measured Drop fronts (Section 6.3's methodology). This module
//! closes the loop without interpolation: it takes a speculative
//! operating point, drives the CC/DC protocol simulation at the
//! point's error rate, converts the per-DC outcomes (abandoned →
//! dropped, completed-infected → corrupted end results) into a kernel
//! run configuration, executes the *real* kernel under it, and
//! compares the measured quality against the front-based estimate.
//!
//! The error-rate bridge: a thread of `e` cycles is infected with
//! probability `1 − (1 − Perr)^e`. The paper's shorthand `Perr = 1/e`
//! infects ≈63 % of threads; to validate a Drop-`x` quality level the
//! consistent rate is `Perr = −ln(1 − x)/e`, which this module uses.

use crate::pareto::ParetoPoint;
use crate::quality::QualityModel;
use accordion_apps::app::RmsApp;
use accordion_apps::config::RunConfig;
use accordion_apps::harness::{FrontSet, Scenario};
use accordion_sim::ccdc::{run_round, CcDcConfig, DcOutcome};
use accordion_sim::exec::ExecModel;
use accordion_stats::rng::SeedStream;

/// Outcome of validating one speculative operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointValidation {
    /// Quality the framework's interpolated model predicts.
    pub estimated_quality: f64,
    /// Quality measured by running the kernel under protocol-derived
    /// error masks.
    pub measured_quality: f64,
    /// Fraction of threads the protocol abandoned (perceived Drop).
    pub dropped_fraction: f64,
    /// Fraction of threads that terminated infected (corrupted data).
    pub infected_fraction: f64,
    /// The per-cycle error rate used in the protocol simulation.
    pub perr_per_cycle: f64,
}

impl PointValidation {
    /// Absolute estimation error of the quality model.
    pub fn estimation_error(&self) -> f64 {
        (self.estimated_quality - self.measured_quality).abs()
    }
}

/// Validates a speculative `point` of `app` by protocol simulation +
/// real kernel execution.
///
/// `fronts` is `app`'s measured front set: its hyper-accurate
/// reference output and default-input quality normalize the measured
/// quality exactly as the fronts were normalized, so only the
/// protocol-driven kernel run executes here.
///
/// # Panics
///
/// Panics if the point carries no error rate (a Safe point).
pub fn validate_point(
    app: &dyn RmsApp,
    fronts: &FrontSet,
    quality: &QualityModel,
    point: &ParetoPoint,
    seed: u64,
) -> PointValidation {
    assert!(point.perr > 0.0, "validation needs a speculative point");
    let threads = app.profile_threads();
    let exec = ExecModel::paper_default();

    // Per-thread cycle count at the point's operating conditions,
    // full input scale.
    let w = app
        .full_scale_workload(app.default_knob())
        .scaled(point.size_norm);
    let e_cycles = exec.thread_cycles(&w, w.work_units / point.n_ntv as f64, point.f_ntv_ghz);

    // The Drop level the quality model reads for speculation sets the
    // target infection fraction; derive the consistent per-cycle rate.
    let drop_fraction = match quality.speculative_scenario() {
        Scenario::Drop(f) => f,
        Scenario::Default => 0.25,
    };
    let perr = -f64::ln_1p(-drop_fraction) / e_cycles;

    // Drive the CC/DC protocol: one DC per application thread.
    let cfg = CcDcConfig {
        num_dcs: threads,
        work_cycles: e_cycles.min(1e15) as u64,
        perr_per_cycle: perr.min(1.0),
        // The paper's exhaustive manifestation split (Section 6.2):
        // some infections hang (watchdog → Drop), the rest terminate
        // with corrupted results.
        hang_fraction: 0.5,
        watchdog_timeout_cycles: (2.0 * e_cycles).min(1e15) as u64,
        max_restarts: 0,
        merge_cycles_per_dc: 1_000,
    };
    let mut rng = SeedStream::new(seed).stream("validate", 0);
    let report = run_round(&cfg, &mut rng);

    // Protocol outcomes → kernel error masks.
    let mut drop_mask = vec![false; threads];
    let mut infected = vec![false; threads];
    for (t, outcome) in report.outcomes.iter().enumerate() {
        match outcome {
            DcOutcome::Abandoned => drop_mask[t] = true,
            DcOutcome::CompletedInfected => infected[t] = true,
            DcOutcome::Completed => {}
        }
    }
    let dropped_fraction = drop_mask.iter().filter(|&&d| d).count() as f64 / threads as f64;
    let infected_fraction = infected.iter().filter(|&&i| i).count() as f64 / threads as f64;

    // CC quality-limit enforcement (Section 6.2): corrupted
    // terminations whose results would blow the preset degradation
    // limit are treated exactly like hangs — as Drop. Random bit
    // flips on raw f64 end results essentially always trip the limit,
    // so the CC folds the infected set into the dropped set. (The
    // paper's bins: (i) no termination and (ii) excessive degradation
    // both surface as Drop; (iii) tolerable degradation is, by the
    // validated assumption, no worse than Drop.)
    let mut effective_drop = drop_mask.clone();
    for (d, &i) in effective_drop.iter_mut().zip(&infected) {
        *d = *d || i;
    }
    let run_cfg = RunConfig {
        threads,
        drop_mask: effective_drop,
        corruption: None,
        ..RunConfig::default_run(threads)
    };

    // Execute the real kernel at the point's problem size; quality is
    // computed exactly as the fronts were: against the hyper-accurate
    // reference, normalized to the default-input error-free quality.
    let knob = knob_for_size(app, point.size_norm);
    let out = app.run(knob, &run_cfg);
    let measured_quality = app.quality(&out, &fronts.reference) / fronts.q_default;

    PointValidation {
        estimated_quality: quality.quality_speculative(point.size_norm),
        measured_quality,
        dropped_fraction,
        infected_fraction,
        perr_per_cycle: perr,
    }
}

/// Finds the knob whose problem size is closest to `size_norm` × the
/// default size (kernels take knobs, not sizes).
fn knob_for_size(app: &dyn RmsApp, size_norm: f64) -> f64 {
    let target = size_norm * app.problem_size(app.default_knob());
    // Search the sweep plus a dense interpolation between neighbours.
    // A problem size can cost a kernel run (x264 counts retained
    // coefficients), so the candidates are sized in parallel and then
    // scanned in order: the first closest knob wins.
    let sweep = app.knob_sweep();
    let candidates: Vec<f64> = sweep
        .windows(2)
        .flat_map(|w| (0..=8).map(move |step| w[0] + (w[1] - w[0]) * step as f64 / 8.0))
        .collect();
    let sizes =
        accordion_pool::par_map_indexed(candidates.len(), |i| app.problem_size(candidates[i]));
    let mut best = (f64::INFINITY, app.default_knob());
    for (&k, size) in candidates.iter().zip(sizes) {
        let err = (size - target).abs();
        if err < best.0 {
            best = (err, k);
        }
    }
    best.1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mode::{FrequencyPolicy, Mode, ProblemScaling};
    use crate::pareto::ParetoExtractor;
    use accordion_apps::hotspot::Hotspot;
    use accordion_chip::chip::Chip;
    use std::sync::{Arc, OnceLock};

    struct Fx {
        app: Hotspot,
        set: FrontSet,
        quality: QualityModel,
        point: ParetoPoint,
    }

    fn fx() -> &'static Fx {
        static FX: OnceLock<Fx> = OnceLock::new();
        FX.get_or_init(|| {
            let chip = Chip::fabricate_default(0).expect("chip");
            let app = Hotspot::paper_default();
            let set = FrontSet::measure(&app);
            let quality = QualityModel::from_front_set(&set);
            let extractor = ParetoExtractor::new(&chip, &app, &set);
            let point = extractor
                .solve_point(
                    Mode {
                        scaling: ProblemScaling::Still,
                        policy: FrequencyPolicy::Speculative,
                    },
                    1.0,
                )
                .expect("speculative Still point");
            Fx {
                app,
                set,
                quality,
                point,
            }
        })
    }

    #[test]
    fn protocol_produces_the_targeted_error_level() {
        let v = validate_point(&fx().app, &fx().set, &fx().quality, &fx().point, 7);
        let total_affected = v.dropped_fraction + v.infected_fraction;
        let target = match fx().quality.speculative_scenario() {
            Scenario::Drop(f) => f,
            Scenario::Default => 0.25,
        };
        assert!(
            (total_affected - target).abs() < 0.15,
            "affected {total_affected} vs target {target}"
        );
    }

    #[test]
    fn quality_model_estimate_is_honest() {
        // The interpolated estimate should sit within a modest band of
        // the measured end-to-end quality — it models hangs as Drop
        // and ignores corrupted-termination, which the paper argues
        // (and our corruption sweep confirms) behaves no better.
        let v = validate_point(&fx().app, &fx().set, &fx().quality, &fx().point, 11);
        assert!(
            v.estimation_error() < 0.25,
            "estimate {} vs measured {}",
            v.estimated_quality,
            v.measured_quality
        );
    }

    #[test]
    fn validation_is_reproducible() {
        let a = validate_point(&fx().app, &fx().set, &fx().quality, &fx().point, 3);
        let b = validate_point(&fx().app, &fx().set, &fx().quality, &fx().point, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn fronts_fed_validation_equals_rerunning_the_references() {
        let app = &fx().app;
        let clean = RunConfig::default_run(app.profile_threads());
        let reference = app.run(app.hyper_knob(), &clean);
        let default_out = app.run(app.default_knob(), &clean);
        let q_default = app.quality(&default_out, &reference).max(1e-9);
        let rerun_set = FrontSet {
            reference: Arc::new(reference),
            q_default,
            ..fx().set.clone()
        };
        for seed in [3, 7, 2014] {
            let fed = validate_point(app, &fx().set, &fx().quality, &fx().point, seed);
            let rerun = validate_point(app, &rerun_set, &fx().quality, &fx().point, seed);
            assert_eq!(
                fed.measured_quality.to_bits(),
                rerun.measured_quality.to_bits()
            );
            assert_eq!(fed, rerun);
        }
    }

    #[test]
    fn knob_search_recovers_default_size() {
        let app = Hotspot::paper_default();
        let k = knob_for_size(&app, 1.0);
        let size = app.problem_size(k) / app.problem_size(app.default_knob());
        assert!((size - 1.0).abs() < 0.05, "size {size}");
    }

    #[test]
    #[should_panic(expected = "speculative point")]
    fn safe_points_rejected() {
        let mut p = fx().point.clone();
        p.perr = 0.0;
        validate_point(&fx().app, &fx().set, &fx().quality, &p, 0);
    }
}
