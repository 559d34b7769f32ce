//! A brute-force flow grouper written from the paper's rule, and the
//! comparison of every grouping path against it on one week's packets.
//!
//! The rule (§3): packets to one victim and protocol form a flow until a
//! gap of 900 s; a flow is an attack when some sensor saw more than five
//! of its packets. The constants are spelled out here rather than taken
//! from `booters-netsim`, so a change to the program's constants shows as
//! a mismatch instead of moving the oracle with it.

use crate::measure::{Checks, Tracer};
use crate::world::{query_week, spill_week, Knobs};
use booters_netsim::flow::{Flow, FlowClass, VictimKey};
use booters_netsim::{group_flows_par, PacketSink, SensorPacket};
use booters_serve::{ServeConfig, ServeNode};
use booters_timeseries::Date;
use std::collections::BTreeMap;

const GAP_SECS: u64 = 900;
const ATTACK_PACKETS: u32 = 5;
const WEEK_SECS: u64 = 7 * 86_400;

/// Flows and attack flows found in one packet set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowCounts {
    pub flows: usize,
    pub attacks: usize,
}

impl FlowCounts {
    fn of(flows: &[Flow]) -> FlowCounts {
        FlowCounts {
            flows: flows.len(),
            attacks: flows
                .iter()
                .filter(|f| f.classify() == FlowClass::Attack)
                .count(),
        }
    }
}

/// Group `packets` by sorting them on (victim, protocol, time) and walking
/// the sorted list once.
pub fn oracle(packets: &[SensorPacket]) -> FlowCounts {
    let mut sorted: Vec<&SensorPacket> = packets.iter().collect();
    sorted.sort_by_key(|p| (p.victim.0, p.protocol.index(), p.time));
    let mut counts = FlowCounts {
        flows: 0,
        attacks: 0,
    };
    let mut per_sensor: BTreeMap<u32, u32> = BTreeMap::new();
    let close = |per_sensor: &mut BTreeMap<u32, u32>, counts: &mut FlowCounts| {
        if !per_sensor.is_empty() {
            counts.flows += 1;
            if per_sensor.values().any(|&n| n > ATTACK_PACKETS) {
                counts.attacks += 1;
            }
            per_sensor.clear();
        }
    };
    let mut last: Option<&SensorPacket> = None;
    for p in sorted {
        let continues = last.is_some_and(|l| {
            l.victim == p.victim && l.protocol == p.protocol && p.time - l.time < GAP_SECS
        });
        if !continues {
            close(&mut per_sensor, &mut counts);
        }
        *per_sensor.entry(p.sensor).or_insert(0) += 1;
        last = Some(p);
    }
    close(&mut per_sensor, &mut counts);
    counts
}

/// Group one week's packets, in the order the engine emitted them, through
/// `group_flows_par`, the spill grouper, a fresh serve node and the query
/// path, and require every result to equal the oracle's.
pub fn cross_check(
    week: usize,
    raw: &[SensorPacket],
    k: &Knobs,
    epoch_start: Date,
    t: &mut Tracer,
    checks: &mut Checks,
) {
    checks.oracle_weeks += 1;
    let want = oracle(raw);
    let mismatch = |path: &str, got: FlowCounts, checks: &mut Checks| {
        checks.ensure(got == want, || {
            format!("week {week}: {path} found {got:?}, flow oracle {want:?}")
        });
    };

    let mut sorted = raw.to_vec();
    sorted.sort_by_key(|p| p.time);
    let flows = t.time("netsim.group", || group_flows_par(&sorted, VictimKey::ByIp));
    t.add("netsim.grouped", sorted.len() as f64);
    mismatch("group_flows_par", FlowCounts::of(&flows), checks);

    match spill_week(raw, k, t) {
        Ok(flows) => mismatch("spill grouper", FlowCounts::of(&flows), checks),
        Err(e) => checks.fail(format!("week {week}: spill grouper failed: {e}")),
    }

    let mut node = ServeNode::new(ServeConfig {
        epoch_start,
        ..k.serve()
    });
    t.time("serve.intake", || raw.iter().for_each(|p| node.accept(p)));
    match t.sample("serve.close", || {
        node.close_epoch_at((week as u64 + 1) * WEEK_SECS)
    }) {
        Ok(flows) => {
            mismatch("serve node", FlowCounts::of(&flows), checks);
            let s = node.stats();
            checks.ensure(s.grouped == s.packets && s.late_packets == 0, || {
                format!(
                    "week {week}: serve node grouped {} of {} packets",
                    s.grouped, s.packets
                )
            });
            add_serve_stats(t, &s);
        }
        Err(e) => checks.fail(format!("week {week}: serve node failed: {e}")),
    }

    // The query path returns attack counts only, so only those compare.
    match query_week(raw, k, t) {
        Ok((attacks, stats)) => {
            mismatch(
                "query path",
                FlowCounts {
                    flows: want.flows,
                    attacks,
                },
                checks,
            );
            checks.ensure(stats.rows_scanned == raw.len() as u64, || {
                format!(
                    "week {week}: query scanned {} of {} rows",
                    stats.rows_scanned,
                    raw.len()
                )
            });
        }
        Err(e) => checks.fail(format!("week {week}: query path failed: {e}")),
    }
}

/// Fold a serve node's counters into the per-layer counts.
pub fn add_serve_stats(t: &mut Tracer, s: &booters_serve::ServeStats) {
    t.add("serve.backpressure_events", s.backpressure_events as f64);
    t.add("serve.refits", (s.refits_warm + s.refits_full) as f64);
    t.max("serve.peak_open_flows", s.peak_open_flows as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use booters_netsim::{UdpProtocol, VictimAddr};

    fn pkt(time: u64, victim: u32, sensor: u32) -> SensorPacket {
        SensorPacket {
            time,
            sensor,
            victim: VictimAddr(victim),
            protocol: UdpProtocol::Ntp,
            ttl: 64,
            src_port: 123,
        }
    }

    #[test]
    fn gap_of_exactly_900_seconds_splits_a_flow() {
        let packets: Vec<_> = (0..6)
            .map(|i| pkt(i, 1, 0))
            .chain([pkt(905, 1, 0)])
            .collect();
        assert_eq!(
            oracle(&packets),
            FlowCounts {
                flows: 2,
                attacks: 1
            }
        );
        let joined: Vec<_> = (0..6)
            .map(|i| pkt(i, 1, 0))
            .chain([pkt(904, 1, 0)])
            .collect();
        assert_eq!(
            oracle(&joined),
            FlowCounts {
                flows: 1,
                attacks: 1
            }
        );
    }

    #[test]
    fn attack_needs_more_than_five_packets_on_one_sensor() {
        let spread: Vec<_> = (0..10).map(|i| pkt(i, 1, (i % 2) as u32)).collect();
        assert_eq!(
            oracle(&spread),
            FlowCounts {
                flows: 1,
                attacks: 0
            }
        );
        let hot: Vec<_> = (0..6).map(|i| pkt(i, 2, 3)).collect();
        assert_eq!(
            oracle(&hot),
            FlowCounts {
                flows: 1,
                attacks: 1
            }
        );
    }
}
