//! Timers, operation counts and correctness checks shared by the
//! workloads, plus the order statistics the reports use.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Per-layer wall time, latency samples and work counts, each taken from
/// outside a public call into one layer.
#[derive(Debug, Default)]
pub struct Tracer {
    times: BTreeMap<&'static str, Duration>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, f64>,
    peaks: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// Run `f`, adding its wall time to `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        *self.times.entry(layer).or_default() += start.elapsed();
        out
    }

    /// As [`Tracer::time`], also keeping the call's latency as one sample.
    pub fn sample<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let took = start.elapsed();
        *self.times.entry(layer).or_default() += took;
        self.samples.entry(layer).or_default().push(ms(took));
        out
    }

    /// Add `v` to the work count `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    /// Raise the peak `name` to at least `v`.
    pub fn max(&mut self, name: &'static str, v: f64) {
        let c = self.peaks.entry(name).or_default();
        *c = c.max(v);
    }

    /// Fold `other`'s times, samples, counts and peaks into this tracer.
    pub fn merge(&mut self, other: &Tracer) {
        for (k, d) in &other.times {
            *self.times.entry(k).or_default() += *d;
        }
        for (k, v) in &other.samples {
            self.samples.entry(k).or_default().extend(v);
        }
        for (k, v) in &other.counts {
            self.add(k, *v);
        }
        for (k, v) in &other.peaks {
            self.max(k, *v);
        }
    }

    /// Total milliseconds attributed to `layer`.
    pub fn ms(&self, layer: &str) -> f64 {
        self.times.get(layer).map_or(0.0, |d| ms(*d))
    }

    /// The work count or peak `name` (0 when never recorded).
    pub fn count(&self, name: &str) -> f64 {
        self.counts
            .get(name)
            .or(self.peaks.get(name))
            .copied()
            .unwrap_or(0.0)
    }

    /// Latency samples of `layer`, in milliseconds.
    pub fn samples(&self, layer: &str) -> &[f64] {
        self.samples.get(layer).map_or(&[], |v| v.as_slice())
    }

    /// Milliseconds attributed to any layer.
    pub fn attributed_ms(&self) -> f64 {
        self.times.values().map(|d| ms(*d)).sum()
    }
}

/// Operations attempted and failed: entry-point calls, model fits and
/// identifiability probes.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn record(&mut self, succeeded: bool) {
        self.attempted += 1;
        if !succeeded {
            self.failed += 1;
        }
    }
}

/// Correctness checks of one run. Any failure makes the run incorrect.
#[derive(Debug, Default)]
pub struct Checks {
    pub failures: Vec<String>,
    /// Largest relative NB2 score over every checked fit.
    pub worst_score: f64,
    /// Number of NB2 fits whose score equations were checked.
    pub scored_fits: u64,
    /// Weeks whose flows were compared against the flow oracle.
    pub oracle_weeks: u64,
}

impl Checks {
    pub fn ensure(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Linearly interpolated percentile `q` in [0, 1] of `v` (0 when empty).
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(v, n=4)`, the spread the bounds are judged by.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Steps of [`host_speed`]'s loop: about 25 ms on the host the benchmark
/// was tuned on.
const HOST_STEPS: u64 = 10_000_000;

/// [`host_speed`] on the host the benchmark was tuned on (a 2-vCPU Xeon
/// guest at 2.1 GHz), in passes per second: the speed a timed round's
/// rate is scaled to.
pub const REFERENCE_SPEED: f64 = 44.0;

/// The host's speed right now, in passes per second of a fixed chain of
/// dependent integer operations that touches no memory. The loop is the
/// benchmark's own code, the same in every commit of the program, so its
/// speed moves only with the host: with the clock and the share of the
/// core that the run is given.
pub fn host_speed() -> f64 {
    let start = Instant::now();
    let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15_u64);
    for _ in 0..HOST_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    1.0 / start.elapsed().as_secs_f64()
}

/// Per-round throughput of a timed phase. Each round is bracketed by two
/// readings of [`host_speed`], and its rate is also kept scaled by their
/// mean to [`REFERENCE_SPEED`].
#[derive(Debug, Default)]
pub struct Rates {
    /// Units per second of each round, as timed.
    pub raw: Vec<f64>,
    /// Mean host speed around each round.
    pub host: Vec<f64>,
}

impl Rates {
    pub fn push(&mut self, units: f64, took: Duration, before: f64, after: f64) {
        self.raw.push(units / took.as_secs_f64());
        self.host.push((before + after) / 2.0);
    }

    /// Each round's rate at the reference host speed.
    pub fn scaled(&self) -> Vec<f64> {
        self.raw
            .iter()
            .zip(&self.host)
            .map(|(r, h)| r * REFERENCE_SPEED / h)
            .collect()
    }

    /// The reported rate: the upper quartile of the scaled round rates.
    /// The host can only slow a round, never speed it past the program's
    /// own pace, so the pace a quarter of the rounds reach is nearer that
    /// pace than their median.
    pub fn reported(&self) -> f64 {
        percentile(&self.scaled(), 0.75)
    }
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
