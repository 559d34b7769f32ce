//! The three workloads. Each builds its inputs from the seed, sets up
//! (several times, reporting the median), then either runs whole rounds
//! through the public entry points for the timed phase, or, traced,
//! rebuilds a round from per-layer calls and times each one.

use crate::checks::{check_world, conservation, nb2_score, pipeline, render_tables, Tables};
use crate::measure::{
    host_speed, median, ms, peak_rss_mb, percentile, Checks, Ops, Rates, Tracer, REFERENCE_SPEED,
};
use crate::world::{prefix, rebuilt_world, world, Knobs, Path, Rebuilt, CHECK_WEEKS};
use booters_core::pipeline::{
    country_intervention_windows, fit_countries, fit_global, fit_series,
    global_intervention_windows, CountryResult, GlobalModelResult, PipelineConfig,
};
use booters_core::scenario::{Fidelity, Scenario, ScenarioConfig};
use booters_core::HoneypotDataset;
use booters_glm::{CovarianceKind, GlmError};
use booters_market::calibration::Calibration;
use booters_market::market::MarketSim;
use booters_netsim::flow::VictimKey;
use booters_netsim::{group_flows_par, AttackCommand, Engine, SensorPacket};
use booters_timeseries::{Date, InterventionWindow, WeeklySeries};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Weeks of the world each setup runs untimed, so one-time costs
/// (allocator growth, page faults, scratch directories) land there.
const SETUP_WEEKS: usize = 8;

/// `paper_packets`: the paper's window at scale 0.25, full packets.
const PAPER_SCALE: f64 = 0.25;
const PAPER_PER_WEEK: usize = 64;
/// `backends`: the same window at a lower command density.
const BACKENDS_SCALE: f64 = 0.25;
const BACKENDS_PER_WEEK: usize = 16;
/// `seed_sweep`: paper scale, aggregate fidelity.
const SWEEP_SCALE: f64 = 1.0;
/// Command density of the full-packet check pass on a `seed_sweep` world.
const SWEEP_CHECK_PER_WEEK: usize = 16;
/// Replicates per timed block of `seed_sweep`.
const SWEEP_BLOCK: usize = 16;
/// Replicates per phase of a traced `seed_sweep` run.
const SWEEP_TRACE_REPLICATES: usize = 16;
/// Timed repetitions of each thread-speedup probe at each thread count.
const SPEEDUP_REPS: usize = 9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperPackets,
    Backends,
    SeedSweep,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperPackets,
        Workload::Backends,
        Workload::SeedSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperPackets => "paper_packets",
            Workload::Backends => "backends",
            Workload::SeedSweep => "seed_sweep",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub ops: Ops,
    pub checks: Checks,
    /// Human-readable lines: seeds and the make-up of the inputs.
    pub notes: Vec<String>,
}

/// Run `workload` and return its metrics: the end-to-end ones untraced,
/// the per-layer ones traced. `t0` is the process's start.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    k: &Knobs,
    t0: Instant,
) -> Outcome {
    match workload {
        Workload::PaperPackets => {
            let cfg = world(
                seed,
                PAPER_SCALE,
                Fidelity::FullPackets {
                    per_week: PAPER_PER_WEEK,
                },
            );
            packets(&cfg, &[Path::Memory], seconds, traced, k, t0)
        }
        Workload::Backends => {
            let cfg = world(
                seed,
                BACKENDS_SCALE,
                Fidelity::FullPackets {
                    per_week: BACKENDS_PER_WEEK,
                },
            );
            packets(&cfg, &Path::ALL, seconds, traced, k, t0)
        }
        Workload::SeedSweep => sweep(seed, seconds, traced, k, t0),
    }
}

fn world_notes(cfg: &ScenarioConfig) -> Vec<String> {
    let cal = &cfg.market.calibration;
    vec![
        format!(
            "seeds market={} engine={} observe={}",
            cfg.market.seed, cfg.engine.seed, cfg.observe_seed
        ),
        format!(
            "world {}..{} scale={} fidelity={:?}",
            cal.scenario_start, cal.scenario_end, cfg.market.scale, cfg.fidelity
        ),
    ]
}

fn rounded(v: &[f64]) -> String {
    let parts: Vec<String> = v.iter().map(|x| format!("{x:.2}")).collect();
    parts.join(" ")
}

/// The timed phase's rounds: their rates as timed, the host's speed
/// around each, and their rates at the reference speed.
fn rate_notes(round: &str, unit: &str, timed: Duration, rates: &Rates) -> Vec<String> {
    let scaled = rates.scaled();
    vec![
        format!(
            "timed phase: {} {round}s in {:.3} s; {unit} per {round} as timed {} (median {:.2}, upper quartile {:.2})",
            rates.raw.len(),
            timed.as_secs_f64(),
            rounded(&rates.raw),
            median(&rates.raw),
            percentile(&rates.raw, 0.75)
        ),
        format!(
            "host speed per {round} {} (reference {REFERENCE_SPEED}); {unit} per {round} at the reference speed {} (median {:.2}, upper quartile {:.2})",
            rounded(&rates.host),
            rounded(&scaled),
            median(&scaled),
            rates.reported()
        ),
    ]
}

/// Set-up durations of one run. The first set-up is timed from the
/// process's start; the others repeat it, one before each of the first
/// rounds, so the median spans the run instead of one stretch of it.
struct Setups {
    times: Vec<f64>,
}

impl Setups {
    fn first(
        t0: Instant,
        setup: impl FnOnce() -> Result<(), String>,
        checks: &mut Checks,
    ) -> Setups {
        let mut s = Setups { times: Vec::new() };
        s.time(t0, setup, checks);
        s
    }

    /// Set up again unless [`SETUP_REPS`] set-ups are done.
    fn again(&mut self, setup: impl FnOnce() -> Result<(), String>, checks: &mut Checks) {
        if self.times.len() < SETUP_REPS {
            self.time(Instant::now(), setup, checks);
        }
    }

    fn time(
        &mut self,
        start: Instant,
        setup: impl FnOnce() -> Result<(), String>,
        checks: &mut Checks,
    ) {
        if let Err(e) = setup() {
            checks.fail(format!("setup: {e}"));
        }
        self.times.push(start.elapsed().as_secs_f64());
    }

    fn median(&self) -> f64 {
        median(&self.times)
    }
}

/// One world through `path`'s entry point, then Tables 1 and 2.
fn path_round(
    path: Path,
    cfg: &ScenarioConfig,
    k: &Knobs,
    ops: &mut Ops,
    t: &mut Tracer,
) -> Result<(Scenario, Tables, [GlobalModelResult; 2]), String> {
    let s = path
        .run(cfg, k)
        .map_err(|e| format!("{} path: {e}", path.name()))?;
    ops.ok(1);
    let (tables, fits) = render_tables(&s.honeypot, &cfg.market.calibration, ops, t)?;
    Ok((s, tables, fits))
}

/// Checks on one path's world: conservation, score equations, the path's
/// own counters, and table identity with the first path of the round.
fn check_path_round(
    path: Path,
    cfg: &ScenarioConfig,
    s: &Scenario,
    tables: &Tables,
    fits: &[GlobalModelResult],
    reference: &Tables,
    checks: &mut Checks,
) {
    let label = path.name();
    check_world(
        label,
        &s.honeypot,
        &s.ground_truth,
        &cfg.market.calibration,
        fits,
        checks,
    );
    checks.ensure(tables == reference, || {
        format!("{label} path: Tables 1/2 differ from the memory path")
    });
    match path {
        Path::Memory => {}
        Path::Store => {
            let runs = s.store_stats.map_or(0, |st| st.spill_runs);
            checks.ensure(runs > 0, || "store path: no spill runs".into());
        }
        Path::Serve => match &s.serve_stats {
            Some(st) => checks.ensure(st.grouped == st.packets && st.late_packets == 0, || {
                format!(
                    "serve path: grouped {} of {} packets, {} late",
                    st.grouped, st.packets, st.late_packets
                )
            }),
            None => checks.fail("serve path: no serve stats".into()),
        },
        Path::Query => checks.ensure(s.query_stats.is_some(), || {
            "query path: no query stats".into()
        }),
    }
}

/// The two packet workloads: each round runs the world through every path
/// in `paths`, rendering Tables 1 and 2 from each.
fn packets(
    cfg: &ScenarioConfig,
    paths: &[Path],
    seconds: f64,
    traced: bool,
    k: &Knobs,
    t0: Instant,
) -> Outcome {
    let mut out = Outcome {
        notes: world_notes(cfg),
        ..Outcome::default()
    };
    out.notes.push(format!(
        "paths {:?}; tables: Table 1 (model-based, HC1) and Table 2 per path",
        paths
    ));
    let warm = prefix(cfg, SETUP_WEEKS);
    let setup = || {
        paths.iter().try_for_each(|p| {
            p.run(&warm, k)
                .map(drop)
                .map_err(|e| format!("{} path: {e}", p.name()))
        })
    };
    let mut setups = Setups::first(t0, setup, &mut out.checks);
    if traced {
        packets_traced(cfg, paths, k, &mut out);
        return out;
    }
    // Rounds of identical work, each between two readings of the host's
    // speed.
    let mut timed = Duration::ZERO;
    let mut rates = Rates::default();
    let mut t = Tracer::default();
    'rounds: while timed.as_secs_f64() < seconds {
        setups.again(setup, &mut out.checks);
        let before = host_speed();
        let mut reference: Option<Tables> = None;
        let (mut round_time, mut round_weeks) = (Duration::ZERO, 0);
        for &path in paths {
            let start = Instant::now();
            let round = path_round(path, cfg, k, &mut out.ops, &mut t);
            round_time += start.elapsed();
            match round {
                Ok((s, tables, fits)) => {
                    round_weeks += s.weeks.len();
                    let reference = reference.get_or_insert_with(|| tables.clone());
                    check_path_round(path, cfg, &s, &tables, &fits, reference, &mut out.checks);
                }
                Err(e) => {
                    out.ops.record(false);
                    out.checks.fail(e);
                    break 'rounds;
                }
            }
        }
        timed += round_time;
        rates.push(round_weeks as f64, round_time, before, host_speed());
    }
    let rss = peak_rss_mb();
    packet_check_pass(cfg, k, &mut Tracer::default(), &mut out.checks);
    out.notes
        .extend(rate_notes("round", "weeks/s", timed, &rates));
    out.metrics = vec![
        metric("setup_s", setups.median(), "s"),
        metric("work_per_s", rates.reported(), "1/s"),
        metric("peak_rss_mb", rss, "MB"),
    ];
    out
}

/// Rebuild the first [`CHECK_WEEKS`] weeks of `cfg` from per-layer calls,
/// checking the sampled weeks against the flow oracle and the weekly
/// series against the entry point's.
fn packet_check_pass(
    cfg: &ScenarioConfig,
    k: &Knobs,
    t: &mut Tracer,
    checks: &mut Checks,
) -> Option<Rebuilt> {
    let cfg = prefix(cfg, CHECK_WEEKS);
    let entry = match Path::Memory.run(&cfg, k) {
        Ok(s) => s,
        Err(e) => {
            checks.fail(format!("check pass: {e}"));
            return None;
        }
    };
    let mut oracle_t = Tracer::default();
    match rebuilt_world(
        &cfg,
        Path::Memory,
        k,
        t,
        Some((&mut *checks, &mut oracle_t)),
    ) {
        Ok(r) => {
            t.merge(&oracle_t);
            same_series("check pass", &entry, &r, checks);
            Some(r)
        }
        Err(e) => {
            checks.fail(format!("check pass: {e}"));
            None
        }
    }
}

fn same_series(label: &str, entry: &Scenario, rebuilt: &Rebuilt, checks: &mut Checks) {
    checks.ensure(
        entry.honeypot.global.values() == rebuilt.honeypot.global.values(),
        || format!("{label}: rebuilt weekly honeypot series differs from the entry point's"),
    );
    checks.ensure(
        entry.ground_truth.global.values() == rebuilt.ground_truth.global.values(),
        || format!("{label}: rebuilt ground truth differs from the entry point's"),
    );
    conservation(label, &rebuilt.honeypot, &rebuilt.ground_truth, checks);
}

/// A traced packet run: one untraced round through the entry points, then
/// the same round rebuilt from per-layer calls, then the thread-speedup
/// probes on the sampled weeks.
fn packets_traced(cfg: &ScenarioConfig, paths: &[Path], k: &Knobs, out: &mut Outcome) {
    let (ops, checks) = (&mut out.ops, &mut out.checks);
    let cal = &cfg.market.calibration;
    let start = Instant::now();
    let mut entries = Vec::new();
    for &path in paths {
        match path_round(path, cfg, k, ops, &mut Tracer::default()) {
            Ok((s, tables, _)) => entries.push((s, tables)),
            Err(e) => {
                checks.fail(e);
                return;
            }
        }
    }
    let untraced = start.elapsed();

    let (mut t, mut oracle_t) = (Tracer::default(), Tracer::default());
    let mut check_time = Duration::ZERO;
    let mut memory = None;
    let start = Instant::now();
    for (&path, (entry, entry_tables)) in paths.iter().zip(&entries) {
        let oracle = (path == Path::Memory).then_some((&mut *checks, &mut oracle_t));
        let rebuilt = match rebuilt_world(cfg, path, k, &mut t, oracle) {
            Ok(r) => r,
            Err(e) => {
                checks.fail(format!("traced {} path: {e}", path.name()));
                return;
            }
        };
        let label = format!("traced {} path", path.name());
        let rendered = render_tables(&rebuilt.honeypot, cal, &mut Ops::default(), &mut t);
        let c0 = Instant::now();
        same_series(&label, entry, &rebuilt, checks);
        match rendered {
            Ok((tables, fits)) => {
                checks.ensure(&tables == entry_tables, || {
                    format!("{label}: tables differ")
                });
                check_world(
                    &label,
                    &rebuilt.honeypot,
                    &rebuilt.ground_truth,
                    cal,
                    &fits,
                    checks,
                );
            }
            Err(e) => checks.fail(format!("{label}: {e}")),
        }
        check_time += rebuilt.check_time + c0.elapsed();
        if path == Path::Memory {
            memory = Some(rebuilt);
        }
    }
    let traced = start.elapsed() - check_time;
    let speedups = memory
        .map(|r| speedups(cfg, &r.samples, &r.honeypot, cal))
        .unwrap_or_default();
    out.metrics = layer_metrics(&t, &oracle_t, traced, untraced, &speedups, &mut out.notes);
}

/// Milliseconds of the same calls at one and at two threads, one sample
/// per repetition.
#[derive(Debug, Default)]
struct Speedups {
    synth: [Vec<f64>; 2],
    group: [Vec<f64>; 2],
    fits: [Vec<f64>; 2],
}

impl Speedups {
    /// Median at one thread, median at two, and their ratio.
    fn summary(samples: &[Vec<f64>; 2]) -> (f64, f64, f64) {
        let (one, two) = (median(&samples[0]), median(&samples[1]));
        (one, two, ratio(one, two))
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Time packet synthesis and flow grouping of the sampled weeks, and the
/// Table 2 country fits of `ds`, at one and at two threads, alternating
/// which goes first in each repetition.
fn speedups(
    cfg: &ScenarioConfig,
    samples: &[(Vec<AttackCommand>, Vec<SensorPacket>)],
    ds: &HoneypotDataset,
    cal: &Calibration,
) -> Speedups {
    let timed = |n: usize, f: &mut dyn FnMut()| {
        let start = Instant::now();
        booters_par::with_threads(n, f);
        ms(start.elapsed())
    };
    let mut sp = Speedups::default();
    let countries = Calibration::table2_countries();
    let mb = pipeline(CovarianceKind::ModelBased);
    for rep in 0..SPEEDUP_REPS {
        let order = if rep % 2 == 0 { [1, 2] } else { [2, 1] };
        for n in order {
            let (mut synth, mut group) = (0.0, 0.0);
            for (cmds, packets) in samples {
                // A fresh engine, warmed once so reflector lists exist and
                // only synthesis is timed.
                let mut engine = Engine::new(cfg.engine);
                let mut sink = Vec::new();
                engine.simulate_attacks_batch_into(cmds, &mut sink);
                sink.clear();
                synth += timed(n, &mut || {
                    engine.simulate_attacks_batch_into(cmds, &mut sink);
                });
                group += timed(n, &mut || {
                    std::hint::black_box(group_flows_par(packets, VictimKey::ByIp));
                });
            }
            sp.synth[n - 1].push(synth);
            sp.group[n - 1].push(group);
            sp.fits[n - 1].push(timed(n, &mut || {
                std::hint::black_box(fit_countries(ds, cal, &countries, &mb).ok());
            }));
        }
    }
    sp
}

/// Per-layer metrics. `t` holds the traced round, whose wall time is
/// `traced` against `untraced` for the same round through the entry
/// points; `checks_t` holds the flow-oracle checks, whose layer calls are
/// reported with the round's but are no part of its wall time.
fn layer_metrics(
    t: &Tracer,
    checks_t: &Tracer,
    traced: Duration,
    untraced: Duration,
    sp: &Speedups,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let wall = ms(traced);
    notes.push(format!(
        "traced round {wall:.1} ms, untraced round {:.1} ms",
        ms(untraced)
    ));
    let per_thread = |d: &[Vec<f64>; 2]| {
        let (one, two, _) = Speedups::summary(d);
        format!("{one:.2} ms at 1 thread, {two:.2} ms at 2 (medians of {SPEEDUP_REPS})")
    };
    notes.push(format!("threads: synthesis {}", per_thread(&sp.synth)));
    notes.push(format!("threads: flow grouping {}", per_thread(&sp.group)));
    notes.push(format!(
        "threads: Table 2 country fits {}",
        per_thread(&sp.fits)
    ));
    let unattributed = wall - t.attributed_ms();
    let mut all = Tracer::default();
    all.merge(t);
    all.merge(checks_t);
    let t = &all;
    let packets = t.count("netsim.packets");
    let fits = t.samples("glm.fit");
    let closes = t.samples("serve.close");
    let speedup = |d: &[Vec<f64>; 2]| Speedups::summary(d).2;
    vec![
        metric(
            "market.step_ms",
            t.ms("market.step") + t.ms("market.run"),
            "ms",
        ),
        metric("market.commands_ms", t.ms("market.commands"), "ms"),
        metric(
            "core.observe_ms",
            t.ms("core.observe") + t.ms("core.scenario") - t.ms("market.run"),
            "ms",
        ),
        metric("netsim.synth_ms", t.ms("netsim.synth"), "ms"),
        metric(
            "netsim.synth_mpps",
            ratio(packets, t.ms("netsim.synth")) / 1e3,
            "Mpkt/s",
        ),
        metric("netsim.group_ms", t.ms("netsim.group"), "ms"),
        metric(
            "netsim.group_mpps",
            ratio(t.count("netsim.grouped"), t.ms("netsim.group")) / 1e3,
            "Mpkt/s",
        ),
        metric("netsim.packets", packets, "count"),
        metric("netsim.flows", t.count("netsim.flows"), "count"),
        metric(
            "netsim.attack_flows",
            t.count("netsim.attack_flows"),
            "count",
        ),
        metric("store.spill_accept_ms", t.ms("store.spill_accept"), "ms"),
        metric("store.spill_finish_ms", t.ms("store.spill_finish"), "ms"),
        metric("store.spill_runs", t.count("store.spill_runs"), "count"),
        metric("store.spill_mb", t.count("store.spill_mb"), "MB"),
        metric("store.write_ms", t.ms("store.write"), "ms"),
        metric("store.written_mb", t.count("store.written_mb"), "MB"),
        metric("serve.intake_ms", t.ms("serve.intake"), "ms"),
        metric("serve.close_ms", t.ms("serve.close"), "ms"),
        metric("serve.close_p50_ms", percentile(closes, 0.5), "ms"),
        metric("serve.close_p90_ms", percentile(closes, 0.9), "ms"),
        metric(
            "serve.backpressure_events",
            t.count("serve.backpressure_events"),
            "count",
        ),
        metric("serve.refits", t.count("serve.refits"), "count"),
        metric(
            "serve.peak_open_flows",
            t.count("serve.peak_open_flows"),
            "count",
        ),
        metric("query.open_ms", t.ms("query.open"), "ms"),
        metric("query.scan_ms", t.ms("query.scan"), "ms"),
        metric(
            "query.chunks_decoded",
            t.count("query.chunks_decoded"),
            "count",
        ),
        metric("query.rows_scanned", t.count("query.rows_scanned"), "count"),
        metric("glm.fit_ms", t.ms("glm.fit"), "ms"),
        metric("glm.fit_p50_ms", percentile(fits, 0.5), "ms"),
        metric("glm.fit_p90_ms", percentile(fits, 0.9), "ms"),
        metric("glm.fits", t.count("glm.fits"), "count"),
        metric(
            "glm.irls_iterations",
            t.count("glm.irls_iterations"),
            "count",
        ),
        metric("par.synth_speedup", speedup(&sp.synth), "ratio"),
        metric("par.group_speedup", speedup(&sp.group), "ratio"),
        metric("par.fits_speedup", speedup(&sp.fits), "ratio"),
        metric("unattributed_ms", unattributed, "ms"),
        metric("unattributed_pct", 100.0 * ratio(unattributed, wall), "%"),
        metric(
            "trace.overhead_pct",
            100.0 * (ratio(wall, ms(untraced)) - 1.0),
            "%",
        ),
    ]
}

/// `seed_sweep`'s replicate `i`: a paper-scale aggregate world.
fn replicate_config(seed: u64, i: u64) -> ScenarioConfig {
    world(
        booters_par::stream_seed(seed, 1000 + i),
        SWEEP_SCALE,
        Fidelity::Aggregate,
    )
}

/// What one replicate produced, kept for the untimed checks.
struct Replicate {
    scenario: Scenario,
    table1: [GlobalModelResult; 2],
    countries: Vec<CountryResult>,
}

/// One replicate: `Scenario::run`, Table 1 (model-based and HC1), the
/// Table 2 country fits, and the two identifiability probes.
fn replicate(cfg: &ScenarioConfig, ops: &mut Ops, t: &mut Tracer) -> Result<Replicate, String> {
    let cal = &cfg.market.calibration;
    let scenario = t
        .time("core.scenario", || Scenario::try_run(cfg.clone()))
        .map_err(|e| e.to_string())?;
    ops.ok(1);
    let ds = &scenario.honeypot;
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
    let countries = Calibration::table2_countries();
    let country_fits = t
        .sample("glm.fit", || fit_countries(ds, cal, &countries, &mb))
        .map_err(|e| e.to_string())?;
    ops.ok(2 + countries.len() as u64);
    t.add("glm.fits", (2 + countries.len()) as f64);
    let iterations = [&g_mb, &g_hc1]
        .into_iter()
        .chain(country_fits.iter().map(|c| &c.model))
        .map(|m| m.fit.fit.iterations)
        .sum::<usize>();
    t.add("glm.irls_iterations", iterations as f64);
    let series = ds
        .global
        .window(mb.window_start, mb.window_end)
        .ok_or("modelling window outside the dataset")?;
    identifiability_probes(&series, cal, &mb, ops, t);
    Ok(Replicate {
        scenario,
        table1: [g_mb, g_hc1],
        countries: country_fits,
    })
}

/// Fit the Table 1 windows plus one window the design cannot identify: a
/// duplicate of the first window, and a window dated before the modelling
/// range. Each probe succeeds only when the fit reports an error or drops
/// the offending column.
fn identifiability_probes(
    series: &WeeklySeries,
    cal: &Calibration,
    cfg: &PipelineConfig,
    ops: &mut Ops,
    t: &mut Tracer,
) {
    let base = global_intervention_windows(cal);
    let first = &base[0];
    let probes = [
        InterventionWindow {
            name: "probe: duplicate window".into(),
            ..first.clone()
        },
        InterventionWindow::immediate(
            "probe: before the modelling range",
            Date::new(2010, 1, 4),
            4,
        ),
    ];
    for probe in probes {
        let mut windows = base.clone();
        windows.push(probe.clone());
        let fit = t.sample("glm.fit", || fit_series(series, &windows, cfg));
        t.add("glm.fits", 1.0);
        let identified = match fit {
            // Running out of iterations is the ridge rescue failing by
            // chance on this seed, not a diagnosis of the design.
            Err(GlmError::NotConverged { .. }) => false,
            Err(_) => true,
            Ok(m) => !m.names.contains(&probe.name),
        };
        ops.record(identified);
    }
}

/// Untimed checks of one replicate; adds its Table 1 intervention
/// coefficients to `coef_sums`.
fn check_replicate(
    i: u64,
    cfg: &ScenarioConfig,
    r: &Replicate,
    coef_sums: &mut [f64],
    checks: &mut Checks,
) {
    let cal = &cfg.market.calibration;
    let label = format!("replicate {i}");
    let ds = &r.scenario.honeypot;
    check_world(&label, ds, &r.scenario.ground_truth, cal, &r.table1, checks);
    let window = PipelineConfig::default();
    for c in &r.countries {
        match ds
            .country(c.country)
            .window(window.window_start, window.window_end)
        {
            Some(series) => nb2_score(
                &format!("{label} {}", c.country.label()),
                &series,
                &country_intervention_windows(cal, c.country),
                &c.model,
                checks,
            ),
            None => checks.fail(format!("{label}: country window outside the dataset")),
        }
    }
    for (sum, w) in coef_sums.iter_mut().zip(global_intervention_windows(cal)) {
        match r.table1[0].fit.inference.coef(&w.name) {
            Some(c) => *sum += c.coef,
            None => checks.fail(format!("{label}: no coefficient for {}", w.name)),
        }
    }
}

/// The replicate means of every calibrated intervention must be
/// reductions, as every one is in `Calibration`.
fn check_means(cal: &Calibration, coef_sums: &[f64], n: usize, checks: &mut Checks) -> Vec<String> {
    let mut notes = Vec::new();
    for ((sum, w), ic) in coef_sums
        .iter()
        .zip(global_intervention_windows(cal))
        .zip(&cal.interventions)
    {
        let mean = sum / n as f64;
        checks.ensure(ic.overall.coef() < 0.0, || {
            format!("{}: calibrated effect is not a reduction", w.name)
        });
        checks.ensure(n > 0 && mean < 0.0, || {
            format!("{}: mean coefficient {mean} over {n} replicates", w.name)
        });
        notes.push(format!(
            "mean coefficient {:<36} {mean:+.4} (calibrated {:+.4})",
            w.name,
            ic.overall.coef()
        ));
    }
    notes
}

fn sweep(seed: u64, seconds: f64, traced: bool, k: &Knobs, t0: Instant) -> Outcome {
    let first = replicate_config(seed, 0);
    let mut out = Outcome {
        notes: world_notes(&first),
        ..Outcome::default()
    };
    out.notes.push(format!(
        "replicate i: world seed = stream_seed({seed}, 1000 + i); Table 1 (model-based, HC1), 7 country fits, 2 probes"
    ));
    let cal = first.market.calibration.clone();
    let setup = || replicate(&first, &mut Ops::default(), &mut Tracer::default()).map(drop);
    let mut setups = Setups::first(t0, setup, &mut out.checks);
    let mut coef_sums = vec![0.0; cal.interventions.len()];
    let check_cfg = ScenarioConfig {
        fidelity: Fidelity::FullPackets {
            per_week: SWEEP_CHECK_PER_WEEK,
        },
        ..first.clone()
    };
    if traced {
        sweep_traced(seed, &check_cfg, k, &mut out, &mut coef_sums);
        let notes = check_means(&cal, &coef_sums, SWEEP_TRACE_REPLICATES, &mut out.checks);
        out.notes.extend(notes);
        return out;
    }
    // Whole blocks of fresh replicates, each between two readings of the
    // host's speed.
    let mut timed = Duration::ZERO;
    let mut rates = Rates::default();
    let mut n = 0u64;
    let mut t = Tracer::default();
    'blocks: while timed.as_secs_f64() < seconds {
        setups.again(setup, &mut out.checks);
        let before = host_speed();
        let mut block_time = Duration::ZERO;
        for _ in 0..SWEEP_BLOCK {
            let cfg = replicate_config(seed, n);
            let start = Instant::now();
            let r = replicate(&cfg, &mut out.ops, &mut t);
            block_time += start.elapsed();
            match r {
                Ok(r) => check_replicate(n, &cfg, &r, &mut coef_sums, &mut out.checks),
                Err(e) => {
                    out.ops.record(false);
                    out.checks.fail(format!("replicate {n}: {e}"));
                    break 'blocks;
                }
            }
            n += 1;
        }
        timed += block_time;
        rates.push(SWEEP_BLOCK as f64, block_time, before, host_speed());
    }
    let rss = peak_rss_mb();
    let notes = check_means(&cal, &coef_sums, n as usize, &mut out.checks);
    out.notes.extend(notes);
    packet_check_pass(&check_cfg, k, &mut Tracer::default(), &mut out.checks);
    out.notes.push(format!("timed phase: {n} replicates"));
    out.notes
        .extend(rate_notes("block", "replicates/s", timed, &rates));
    out.metrics = vec![
        metric("setup_s", setups.median(), "s"),
        metric("work_per_s", rates.reported(), "1/s"),
        metric("peak_rss_mb", rss, "MB"),
    ];
    out
}

/// A traced sweep: replicates through the entry points untraced, the same
/// replicates again with `MarketSim::run` also timed on each seed, then
/// the full-packet check pass and the speedup probes. Checks are kept out
/// of the traced wall time.
fn sweep_traced(
    seed: u64,
    check_cfg: &ScenarioConfig,
    k: &Knobs,
    out: &mut Outcome,
    coef_sums: &mut [f64],
) {
    let (ops, checks) = (&mut out.ops, &mut out.checks);
    let mut globals = Vec::new();
    let start = Instant::now();
    for i in 0..SWEEP_TRACE_REPLICATES as u64 {
        match replicate(&replicate_config(seed, i), ops, &mut Tracer::default()) {
            Ok(r) => globals.push(r.scenario.honeypot.global.values().to_vec()),
            Err(e) => {
                checks.fail(format!("replicate {i}: {e}"));
                return;
            }
        }
    }
    let untraced = start.elapsed();

    let mut t = Tracer::default();
    let mut first = None;
    let mut check_time = Duration::ZERO;
    let start = Instant::now();
    for (i, global) in globals.iter().enumerate() {
        let cfg = replicate_config(seed, i as u64);
        t.time("market.run", || MarketSim::new(cfg.market.clone()).run());
        let r = replicate(&cfg, &mut Ops::default(), &mut t);
        let c0 = Instant::now();
        match r {
            Ok(r) => {
                checks.ensure(
                    r.scenario.honeypot.global.values() == global.as_slice(),
                    || format!("replicate {i}: traced run differs from the untraced one"),
                );
                check_replicate(i as u64, &cfg, &r, coef_sums, checks);
                first.get_or_insert(r.scenario.honeypot);
            }
            Err(e) => checks.fail(format!("traced replicate {i}: {e}")),
        }
        check_time += c0.elapsed();
    }
    let traced = start.elapsed() - check_time;
    let mut checks_t = Tracer::default();
    let rebuilt = packet_check_pass(check_cfg, k, &mut checks_t, checks);
    let speedups = match (&first, rebuilt) {
        (Some(ds), Some(r)) => speedups(check_cfg, &r.samples, ds, &check_cfg.market.calibration),
        _ => Speedups::default(),
    };
    out.metrics = layer_metrics(&t, &checks_t, traced, untraced, &speedups, &mut out.notes);
}
