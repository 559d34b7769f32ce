//! The pinned knobs, the seeded world configurations, the four dataset
//! paths, and the week loop rebuilt from public calls into each layer.

use crate::measure::{Checks, Tracer};
use crate::oracle::{add_serve_stats, cross_check};
use booters_core::datasets::HoneypotDataset;
use booters_core::pipeline::{build_dataset_query, build_dataset_serve, build_dataset_store};
use booters_core::scenario::{Fidelity, Scenario, ScenarioConfig, ScenarioError};
use booters_market::commands::commands_for_week;
use booters_market::market::{sample_binomial, MarketConfig, MarketSim};
use booters_netsim::flow::{Flow, FlowClass, VictimKey};
use booters_netsim::{
    group_flows_par, AttackCommand, Country, Engine, EngineConfig, PacketSink, SensorPacket,
    UdpProtocol,
};
use booters_query::{Predicate, QueryConfig, QueryEngine, QueryStats};
use booters_serve::{RefitPolicy, ServeConfig, ServeNode};
use booters_store::{ChunkWriter, SpillConfig, SpillGrouper};
use booters_testkit::rngs::StdRng;
use booters_testkit::SeedableRng;
use booters_timeseries::Date;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Weeks whose packets every grouping path must group exactly as the flow
/// oracle does. Fixed, so every seed checks the same weeks.
pub const SAMPLE_WEEKS: [usize; 3] = [4, 12, 20];

/// Weeks in the prefix the untraced check pass rebuilds; covers
/// [`SAMPLE_WEEKS`].
pub const CHECK_WEEKS: usize = 24;

/// Every setting the program would otherwise read from the environment,
/// pinned by the benchmark and printed with each run.
#[derive(Debug, Clone)]
pub struct Knobs {
    pub threads: usize,
    pub par_min_items: usize,
    pub spill_budget_bytes: usize,
    pub serve_shards: usize,
    pub serve_queue: usize,
    pub serve_lag_secs: u64,
    pub query_chunk_capacity: usize,
    pub scratch: PathBuf,
}

impl Knobs {
    pub fn new(scratch: PathBuf) -> Knobs {
        Knobs {
            threads: 2,
            par_min_items: 16,
            // A week of the `backends` world holds about 14k packets
            // (~330 KB in memory); 128 KiB makes each week spill about
            // three runs.
            spill_budget_bytes: 128 << 10,
            serve_shards: 4,
            serve_queue: 1024,
            serve_lag_secs: 1800,
            query_chunk_capacity: 2048,
            scratch,
        }
    }

    /// The environment the program sees: every `BOOTERS_*` variable it
    /// reads, set to the benchmark's value.
    pub fn env(&self) -> Vec<(&'static str, String)> {
        vec![
            ("BOOTERS_THREADS", self.threads.to_string()),
            ("BOOTERS_PAR_MIN_ITEMS", self.par_min_items.to_string()),
            ("BOOTERS_OBS", "0".into()),
            ("BOOTERS_SCALAR_KERNELS", "0".into()),
            ("BOOTERS_CACHE_BYTES", "0".into()),
            ("BOOTERS_STORE_BUDGET", self.spill_budget_bytes.to_string()),
            ("BOOTERS_SERVE_SHARDS", self.serve_shards.to_string()),
            ("BOOTERS_SERVE_QUEUE", self.serve_queue.to_string()),
            ("BOOTERS_SERVE_LAG_SECS", self.serve_lag_secs.to_string()),
            (
                "BOOTERS_QUERY_PAGE",
                booters_core::runreport::DEFAULT_PAGE_SIZE.to_string(),
            ),
        ]
    }

    pub fn spill(&self) -> SpillConfig {
        SpillConfig {
            budget_bytes: self.spill_budget_bytes,
            key: VictimKey::ByIp,
            dir: Some(self.scratch.join("spill")),
            chunk_capacity: booters_store::DEFAULT_CHUNK_CAPACITY,
            merge_read_bytes: booters_store::extsort::DEFAULT_MERGE_READ_BYTES,
        }
    }

    pub fn serve(&self) -> ServeConfig {
        ServeConfig {
            shards: self.serve_shards,
            queue_capacity: self.serve_queue,
            watermark_lag_secs: self.serve_lag_secs,
            key: VictimKey::ByIp,
            epoch_start: Date::new(2016, 6, 6),
            refit: RefitPolicy::default(),
            fault_panic_shard: None,
        }
    }

    pub fn query(&self) -> QueryConfig {
        QueryConfig {
            chunk_capacity: self.query_chunk_capacity,
            dir: Some(self.scratch.join("query")),
        }
    }
}

/// A world over the paper's 248-week window whose market, engine and
/// observation seeds all derive from `seed`.
pub fn world(seed: u64, scale: f64, fidelity: Fidelity) -> ScenarioConfig {
    let stream = |i| booters_par::stream_seed(seed, i);
    ScenarioConfig {
        market: MarketConfig {
            scale,
            seed: stream(1),
            ..MarketConfig::default()
        },
        engine: EngineConfig {
            seed: stream(2),
            ..EngineConfig::default()
        },
        fidelity,
        observe_seed: stream(3),
        ..ScenarioConfig::default()
    }
}

/// `cfg` cut to its first `weeks` weeks. The market steps forward only, so
/// the prefix's weeks equal the first weeks of the whole world.
pub fn prefix(cfg: &ScenarioConfig, weeks: usize) -> ScenarioConfig {
    let mut p = cfg.clone();
    let cal = &mut p.market.calibration;
    cal.scenario_end = cal.scenario_start.week_start().add_days(7 * weeks as i64);
    p
}

/// The four interchangeable dataset paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    Memory,
    Store,
    Serve,
    Query,
}

impl Path {
    pub const ALL: [Path; 4] = [Path::Memory, Path::Store, Path::Serve, Path::Query];

    pub fn name(self) -> &'static str {
        match self {
            Path::Memory => "memory",
            Path::Store => "store",
            Path::Serve => "serve",
            Path::Query => "query",
        }
    }

    /// Build the world's datasets through this path's public entry point.
    pub fn run(self, cfg: &ScenarioConfig, k: &Knobs) -> Result<Scenario, ScenarioError> {
        let cfg = cfg.clone();
        match self {
            Path::Memory => Scenario::try_run(cfg),
            Path::Store => build_dataset_store(cfg, k.spill()),
            Path::Serve => build_dataset_serve(cfg, k.serve()),
            Path::Query => build_dataset_query(cfg, k.query()),
        }
    }
}

/// Datasets from the rebuilt week loop, plus the sampled weeks' inputs for
/// the thread-speedup probes.
pub struct Rebuilt {
    pub honeypot: HoneypotDataset,
    pub ground_truth: HoneypotDataset,
    /// (commands, time-sorted packets) of each sampled week.
    pub samples: Vec<(Vec<AttackCommand>, Vec<SensorPacket>)>,
    /// Wall time spent in the flow-oracle checks inside the loop.
    pub check_time: Duration,
}

/// `Scenario::try_run`'s full-packet week loop, rebuilt from public calls
/// and timed call by call. The datasets equal the entry point's for the
/// same configuration and path. With `oracle` set, each of
/// [`SAMPLE_WEEKS`] is also grouped by every path and checked against the
/// flow oracle, timed into the oracle's own tracer.
pub fn rebuilt_world(
    cfg: &ScenarioConfig,
    path: Path,
    k: &Knobs,
    t: &mut Tracer,
    mut oracle: Option<(&mut Checks, &mut Tracer)>,
) -> Result<Rebuilt, String> {
    let Fidelity::FullPackets { per_week } = cfg.fidelity else {
        return Err("the rebuilt loop needs Fidelity::FullPackets".into());
    };
    let cal = &cfg.market.calibration;
    let (start, end) = (cal.scenario_start, cal.scenario_end);
    let mut sim = MarketSim::new(cfg.market.clone());
    let mut engine = Engine::new(cfg.engine);
    let mut rng = StdRng::seed_from_u64(cfg.observe_seed);
    let mut honeypot = HoneypotDataset::new(start, end);
    let mut ground_truth = HoneypotDataset::new(start, end);
    let mut node = (path == Path::Serve).then(|| {
        ServeNode::new(ServeConfig {
            epoch_start: start,
            ..k.serve()
        })
    });
    let mut samples = Vec::new();
    let mut raw: Vec<SensorPacket> = Vec::new();
    let mut check_time = Duration::ZERO;
    while let Some(out) = t.time("market.step", || sim.step()) {
        let cmds = t.time("market.commands", || {
            commands_for_week(&out, sim.population().booters(), &mut rng, per_week)
        });
        raw.clear();
        if !cmds.is_empty() {
            t.time("netsim.synth", || {
                engine.simulate_attacks_batch_into(&cmds, &mut raw)
            });
        }
        t.add("netsim.packets", raw.len() as f64);
        let sampled = SAMPLE_WEEKS.contains(&out.week);
        if let (true, Some((checks, ct))) = (sampled, oracle.as_mut()) {
            let c0 = Instant::now();
            cross_check(out.week, &raw, k, start, ct, checks);
            check_time += c0.elapsed();
        }
        let week_end = (out.week as u64 + 1) * 7 * 86_400;
        let attacks = match (path, &mut node) {
            _ if cmds.is_empty() && path != Path::Serve => 0,
            (Path::Memory, _) => {
                // `simulate_attacks_batch` is the `Vec` sink plus this sort.
                t.time("netsim.synth", || raw.sort_by_key(|p| p.time));
                let flows = t.time("netsim.group", || group_flows_par(&raw, VictimKey::ByIp));
                t.add("netsim.grouped", raw.len() as f64);
                if sampled {
                    samples.push((cmds.clone(), raw.clone()));
                }
                count_attacks(t, &flows)
            }
            (Path::Store, _) => {
                let flows = spill_week(&raw, k, t).map_err(|e| e.to_string())?;
                count_attacks(t, &flows)
            }
            (Path::Serve, Some(node)) => {
                if !cmds.is_empty() {
                    t.time("serve.intake", || raw.iter().for_each(|p| node.accept(p)));
                    if let Some(e) = node.sink_error() {
                        return Err(e.to_string());
                    }
                }
                let flows = t
                    .sample("serve.close", || node.close_epoch_at(week_end))
                    .map_err(|e| e.to_string())?;
                count_attacks(t, &flows)
            }
            (Path::Query, _) => query_week(&raw, k, t).map_err(|e| e.to_string())?.0,
            (Path::Serve, None) => unreachable!("serve path always has a node"),
        };
        let rate = if cmds.is_empty() {
            1.0
        } else {
            (attacks as f64 / cmds.len() as f64).min(1.0)
        };
        t.time("core.observe", || {
            let monday = out.monday;
            let np = UdpProtocol::ALL.len();
            let mut observed_global = 0u64;
            for country in Country::ALL {
                let ci = country.index();
                let mut country_total = 0u64;
                for pi in 0..np {
                    let cell = out.country_protocol[ci][pi];
                    let seen = sample_binomial(&mut rng, cell, rate);
                    country_total += seen;
                    honeypot.by_protocol[pi].add_event(monday, seen as f64);
                    ground_truth.by_protocol[pi].add_event(monday, cell as f64);
                    honeypot.country_protocol[ci * np + pi].add_event(monday, seen as f64);
                    ground_truth.country_protocol[ci * np + pi].add_event(monday, cell as f64);
                }
                honeypot.by_country[ci].add_event(monday, country_total as f64);
                ground_truth.by_country[ci].add_event(monday, out.country_counts[ci] as f64);
                observed_global += country_total;
            }
            honeypot.global.add_event(monday, observed_global as f64);
            ground_truth.global.add_event(monday, out.total as f64);
            engine.maintain(out.week as u64 * 7 * 86_400);
        });
    }
    if let Some(node) = node {
        let s = node.stats();
        add_serve_stats(t, &s);
    }
    Ok(Rebuilt {
        honeypot,
        ground_truth,
        samples,
        check_time,
    })
}

fn count_attacks(t: &mut Tracer, flows: &[Flow]) -> usize {
    let attacks = flows
        .iter()
        .filter(|f| f.classify() == FlowClass::Attack)
        .count();
    t.add("netsim.flows", flows.len() as f64);
    t.add("netsim.attack_flows", attacks as f64);
    attacks
}

/// One week through the spill grouper, packets in emission order.
pub fn spill_week(
    raw: &[SensorPacket],
    k: &Knobs,
    t: &mut Tracer,
) -> Result<Vec<Flow>, booters_store::StoreError> {
    let mut g = SpillGrouper::new(k.spill());
    t.time("store.spill_accept", || {
        raw.iter().for_each(|p| g.accept(p))
    });
    let done = t.time("store.spill_finish", || g.finish())?;
    t.add("store.spill_runs", done.stats.spill_runs as f64);
    t.add("store.spill_mb", done.stats.run_bytes as f64 / 1e6);
    Ok(done.flows)
}

/// One week through the query path: write a scratch store, open it, and
/// count the attack flows of a full scan.
pub fn query_week(
    raw: &[SensorPacket],
    k: &Knobs,
    t: &mut Tracer,
) -> Result<(usize, QueryStats), booters_store::StoreError> {
    let path = k.query().scratch_path();
    let result = (|| {
        let mut w = ChunkWriter::with_capacity(&path, k.query_chunk_capacity)?;
        t.time("store.write", || raw.iter().for_each(|p| w.accept(p)));
        let meta = t.time("store.write", || w.finish())?;
        t.add("store.written_mb", meta.file_bytes as f64 / 1e6);
        let q = t.time("query.open", || QueryEngine::open(&path))?;
        let (weeks, stats) = t.time("query.scan", || {
            q.weekly_attacks(&Predicate::all(), VictimKey::ByIp)
        })?;
        t.add("query.chunks_decoded", stats.chunks_decoded as f64);
        t.add("query.rows_scanned", stats.rows_scanned as f64);
        Ok((weeks.values().sum::<u64>() as usize, stats))
    })();
    let _ = std::fs::remove_file(&path);
    result
}
