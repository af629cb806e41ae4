//! Table 3 characterization: how problem size and quality depend on
//! the Accordion input.
//!
//! The paper classifies each dependence as *linear* or *complex*.
//! We recover the classification empirically: problem size is judged
//! by its power-law exponent against the knob (|slope| ≈ 1 → linear);
//! quality, which saturates rather than following a power law, is
//! judged by how well a straight line in (knob, quality) explains the
//! sweep.

use crate::app::RmsApp;
use crate::harness::{FrontSet, Scenario};
use accordion_stats::fit::{line_fit, power_fit};

/// Dependence type of a quantity on the Accordion input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dependence {
    /// Power-law exponent ≈ 1.
    Linear,
    /// Anything else (super-/sub-linear, non-monotone-in-knob, …).
    Complex,
}

impl std::fmt::Display for Dependence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Dependence::Linear => write!(f, "linear"),
            Dependence::Complex => write!(f, "complex"),
        }
    }
}

/// One row of the Table 3 reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizationRow {
    /// Benchmark name.
    pub app: String,
    /// Accordion input name.
    pub knob: String,
    /// Fitted log-log slope of problem size vs knob.
    pub size_exponent: f64,
    /// Classified size dependence.
    pub size_dependence: Dependence,
    /// R-squared of the straight-line fit of quality vs knob.
    pub quality_r2: f64,
    /// Classified quality dependence.
    pub quality_dependence: Dependence,
}

/// Problem-size classification: power-law exponent of size vs knob;
/// |exponent| ≈ 1 is linear.
fn classify_size(exponent: f64) -> Dependence {
    if (exponent.abs() - 1.0).abs() <= 0.25 {
        Dependence::Linear
    } else {
        Dependence::Complex
    }
}

/// Quality classification: quality saturates rather than following a
/// power law, so "linear" means a straight line in (knob, quality)
/// explains the sweep well; anything the line misses badly — flat,
/// wiggly or strongly convex responses — is complex.
fn classify_quality(r2: f64) -> Dependence {
    if r2 >= 0.75 {
        Dependence::Linear
    } else {
        Dependence::Complex
    }
}

/// Characterizes one benchmark over its knob sweep.
///
/// Runs no kernels: the knobs and raw qualities are those of the
/// `Default` front of [`FrontSet::measured`], which runs the same
/// error-free sweep against the same hyper-accurate reference.
pub fn characterize(app: &dyn RmsApp) -> CharacterizationRow {
    let set = FrontSet::measured(app);
    let front = set
        .front(Scenario::Default)
        .expect("measured sets hold the Default front");
    let knobs: Vec<f64> = front.points.iter().map(|p| p.knob).collect();
    let sizes: Vec<f64> = knobs.iter().map(|&k| app.problem_size(k)).collect();
    let quality: Vec<f64> = front.points.iter().map(|p| p.quality).collect();
    row(app, &knobs, &sizes, &quality)
}

/// Fits and classifies one benchmark's sweep.
fn row(app: &dyn RmsApp, knobs: &[f64], sizes: &[f64], quality: &[f64]) -> CharacterizationRow {
    let size_exponent = power_fit(knobs, sizes).slope;
    let quality_r2 = line_fit(knobs, quality).r_squared;
    CharacterizationRow {
        app: app.name().to_string(),
        knob: app.knob_name().to_string(),
        size_exponent,
        size_dependence: classify_size(size_exponent),
        quality_r2,
        quality_dependence: classify_quality(quality_r2),
    }
}

/// Characterizes every registered benchmark (the Table 3
/// reproduction), measuring their fronts in parallel on a cold cache.
pub fn characterize_all() -> Vec<CharacterizationRow> {
    accordion_pool::par_map(crate::all_apps(), |a| characterize(a.as_ref()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canneal::Canneal;
    use crate::hotspot::Hotspot;
    use crate::x264::X264;

    #[test]
    fn canneal_size_is_linear_in_swaps() {
        let row = characterize(&Canneal::paper_default());
        assert_eq!(row.size_dependence, Dependence::Linear, "{row:?}");
    }

    #[test]
    fn hotspot_size_is_linear_in_iterations() {
        let row = characterize(&Hotspot::paper_default());
        assert_eq!(row.size_dependence, Dependence::Linear, "{row:?}");
    }

    #[test]
    fn x264_size_is_complex_in_qp() {
        // Table 3 marks x264's problem-size dependence complex.
        let row = characterize(&X264::paper_default());
        assert_eq!(row.size_dependence, Dependence::Complex, "{row:?}");
    }

    /// The direct-kernel characterization: its own reference run and
    /// an error-free run per sweep knob.
    fn characterize_direct(app: &dyn RmsApp) -> CharacterizationRow {
        let cfg = crate::config::RunConfig::default_run(app.profile_threads());
        let reference = app.run(app.hyper_knob(), &cfg);
        let knobs = app.knob_sweep();
        let sizes: Vec<f64> = knobs.iter().map(|&k| app.problem_size(k)).collect();
        let quality: Vec<f64> = knobs
            .iter()
            .map(|&k| app.quality(&app.run(k, &cfg), &reference))
            .collect();
        row(app, &knobs, &sizes, &quality)
    }

    #[test]
    fn fronts_derived_rows_equal_direct_kernel_rows() {
        for (fronts, direct) in accordion_pool::par_map(crate::all_apps(), |a| {
            (characterize(a.as_ref()), characterize_direct(a.as_ref()))
        }) {
            assert_eq!(
                fronts.size_exponent.to_bits(),
                direct.size_exponent.to_bits(),
                "{}",
                direct.app
            );
            assert_eq!(
                fronts.quality_r2.to_bits(),
                direct.quality_r2.to_bits(),
                "{}",
                direct.app
            );
            assert_eq!(fronts, direct);
        }
    }

    #[test]
    fn classification_thresholds() {
        assert_eq!(classify_size(1.0), Dependence::Linear);
        assert_eq!(classify_size(-1.1), Dependence::Linear);
        assert_eq!(classify_size(2.0), Dependence::Complex);
        assert_eq!(classify_size(0.2), Dependence::Complex);
        assert_eq!(classify_quality(0.95), Dependence::Linear);
        assert_eq!(classify_quality(0.4), Dependence::Complex);
    }
}
