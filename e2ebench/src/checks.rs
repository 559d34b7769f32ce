//! Output checks that do not copy today's output: NB2 score equations,
//! dataset conservation, and the rendering of Tables 1 and 2.

use crate::measure::{Checks, Ops, Tracer};
use booters_core::datasets::HoneypotDataset;
use booters_core::pipeline::{
    fit_global, global_intervention_windows, GlobalModelResult, PipelineConfig,
};
use booters_core::report::{table1, table2};
use booters_glm::CovarianceKind;
use booters_market::calibration::Calibration;
use booters_timeseries::design::its_design;
use booters_timeseries::{InterventionWindow, WeeklySeries};

/// Largest relative NB2 score a converged fit may leave.
const SCORE_TOLERANCE: f64 = 1e-8;

/// The pipeline configuration of Table 1 and Table 2 (model-based
/// standard errors) or of Table 1's robust variant (HC1).
pub fn pipeline(covariance: CovarianceKind) -> PipelineConfig {
    PipelineConfig {
        covariance,
        ..PipelineConfig::default()
    }
}

/// Rebuild the design of `fit` from `series` and `windows`, recompute
/// μ = exp(Xβ), and require every NB2 score equation
/// Σᵢ xᵢⱼ(yᵢ − μᵢ)/(1 + αμᵢ) to vanish relative to Σᵢ |xᵢⱼ|(yᵢ + μᵢ)/(1 + αμᵢ).
pub fn nb2_score(
    label: &str,
    series: &WeeklySeries,
    windows: &[InterventionWindow],
    fit: &GlobalModelResult,
    checks: &mut Checks,
) {
    let design = its_design(series, windows, &PipelineConfig::default().design);
    if design.names != fit.names {
        checks.fail(format!(
            "{label}: rebuilt design columns differ from the fit's"
        ));
        return;
    }
    let (x, beta, alpha) = (&design.x, &fit.fit.fit.beta, fit.fit.alpha);
    let (n, p) = (x.rows(), x.cols());
    let mut score = vec![0.0; p];
    let mut scale = vec![0.0; p];
    for i in 0..n {
        let y = series.get(i).max(0.0).round();
        let mu = (0..p).map(|j| x[(i, j)] * beta[j]).sum::<f64>().exp();
        let w = 1.0 / (1.0 + alpha * mu);
        for j in 0..p {
            score[j] += x[(i, j)] * (y - mu) * w;
            scale[j] += x[(i, j)].abs() * (y + mu) * w;
        }
    }
    let worst = score
        .iter()
        .zip(&scale)
        .map(|(s, c)| if *c > 0.0 { s.abs() / c } else { s.abs() })
        .fold(0.0, f64::max);
    checks.scored_fits += 1;
    checks.worst_score = checks.worst_score.max(worst);
    checks.ensure(worst.is_finite() && worst < SCORE_TOLERANCE, || {
        format!("{label}: NB2 score equations off by {worst:e} of their scale")
    });
}

/// Every week: observed counts are at most ground truth, and the
/// per-country and per-protocol series sum to the global series, in both
/// the observed and the ground-truth datasets.
pub fn conservation(
    label: &str,
    observed: &HoneypotDataset,
    truth: &HoneypotDataset,
    checks: &mut Checks,
) {
    for (name, ds) in [("observed", observed), ("ground truth", truth)] {
        for i in 0..ds.global.len() {
            let g = ds.global.get(i);
            let by_country: f64 = ds.by_country.iter().map(|s| s.get(i)).sum();
            let by_protocol: f64 = ds.by_protocol.iter().map(|s| s.get(i)).sum();
            if by_country != g || by_protocol != g {
                checks.fail(format!(
                    "{label}: {name} week {i}: global {g}, countries {by_country}, protocols {by_protocol}"
                ));
                return;
            }
        }
    }
    for i in 0..observed.global.len() {
        let (o, g) = (observed.global.get(i), truth.global.get(i));
        if o > g {
            checks.fail(format!(
                "{label}: week {i} observed {o} above ground truth {g}"
            ));
            return;
        }
    }
}

/// The rendered Table 1 (model-based and HC1) and Table 2 of one dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tables {
    pub table1: String,
    pub table1_hc1: String,
    pub table2: String,
}

/// Fits and renders Tables 1 and 2, timing each call under `glm.fit`.
/// Returns the two Table 1 fits for checking.
pub fn render_tables(
    ds: &HoneypotDataset,
    cal: &Calibration,
    ops: &mut Ops,
    t: &mut Tracer,
) -> Result<(Tables, [GlobalModelResult; 2]), String> {
    let (mb, hc1) = (
        pipeline(CovarianceKind::ModelBased),
        pipeline(CovarianceKind::RobustHc1),
    );
    let g_mb = t
        .sample("glm.fit", || fit_global(ds, cal, &mb))
        .map_err(|e| e.to_string())?;
    let g_hc1 = t
        .sample("glm.fit", || fit_global(ds, cal, &hc1))
        .map_err(|e| e.to_string())?;
    // Table 2 refits seven countries and the overall model.
    let t2 = t
        .sample("glm.fit", || table2(ds, cal, &mb))
        .map_err(|e| e.to_string())?;
    ops.ok(2 + 8);
    t.add("glm.fits", 2.0 + 8.0);
    t.add(
        "glm.irls_iterations",
        (g_mb.fit.fit.iterations + g_hc1.fit.fit.iterations) as f64,
    );
    let tables = Tables {
        table1: table1(&g_mb),
        table1_hc1: table1(&g_hc1),
        table2: t2,
    };
    Ok((tables, [g_mb, g_hc1]))
}

/// Check one world's outputs: conservation, and the score equations of
/// both Table 1 fits.
pub fn check_world(
    label: &str,
    observed: &HoneypotDataset,
    truth: &HoneypotDataset,
    cal: &Calibration,
    fits: &[GlobalModelResult],
    checks: &mut Checks,
) {
    conservation(label, observed, truth, checks);
    let cfg = PipelineConfig::default();
    let windows = global_intervention_windows(cal);
    match observed.global.window(cfg.window_start, cfg.window_end) {
        Some(series) => {
            for fit in fits {
                nb2_score(label, &series, &windows, fit, checks);
            }
        }
        None => checks.fail(format!("{label}: modelling window outside the dataset")),
    }
}
