//! Scenario runner: graph + scheme + workload + rate, swept to find the
//! saturation knee.
//!
//! A [`TrafficScenario`] fixes everything but the offered rate. [`run`]
//! plans the full injection schedule up front (seeded, so the run is
//! byte-identical across repeats), drives [`crate::sim::simulate`], and
//! assembles an [`obs::traffic::TrafficSummary`] plus the dense per-round
//! conservation series. [`sweep`] runs a rate ladder and reports the *knee*:
//! the largest offered rate the network sustains with a p99 queueing delay
//! of at most [`MAX_P99_QUEUE_DELAY`] rounds and a loss of at most
//! [`MAX_DROP_FRACTION`].
//!
//! [`run`]: TrafficScenario::run
//! [`sweep`]: TrafficScenario::sweep

use congest::{Network, RunStats};
use graphs::shortest_paths::dijkstra;
use graphs::{VertexId, Weight};
use obs::flight::{EdgeLoadMap, LoadStats};
use obs::traffic::TrafficSummary;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing::{packet, RoutingScheme};

use crate::sim::{simulate, DropPolicy, Injection, RoundTotals, SimConfig, TrafficPacket};
use crate::workload::{Arrival, ArrivalKind, Workload, WorkloadKind};

/// Default seed for scenario schedules.
pub const DEFAULT_SEED: u64 = 0x007A_FF1C;

/// Largest p99 per-packet queueing delay, in rounds, a sustainable rate
/// may show.
pub const MAX_P99_QUEUE_DELAY: u64 = 8;

/// Largest `dropped / injected` fraction a sustainable rate may show.
pub const MAX_DROP_FRACTION: f64 = 0.01;

/// The most packets one run may offer: what keeps a run's plan and
/// simulation within 4 GiB of heap. [`TrafficScenario::run`] holds per
/// offered packet a flow record, the packet, its label and its flow index,
/// and the simulation a copy of each injected packet, its schedule entry
/// and its outcome. Measured from 32,768 to 1,048,576 offered packets on
/// 1,024- and 4,096-vertex graphs, a run's peak heap is 228–302 bytes per
/// offered packet; labels lengthen with `log n`, so the budget is 512 bytes
/// a packet, or 2^23 packets. `drt traffic` refuses a sweep whose peak rate
/// offers more.
pub const MAX_OFFERED_PACKETS: u64 = (4 << 30) / 512;

/// The most injection rounds one run may take: what keeps its dense
/// per-round series within 4 GiB of heap. [`TrafficScenario::run`] lets the
/// engine run `inject_rounds + max(16 · inject_rounds, 4096)` rounds before
/// it cuts a run off, 17 per injection round from 256 on, and the series
/// holds one 64-byte [`RoundTotals`] per simulated round, so the budget is
/// 17 · 64 bytes an injection round. The planning loop, which turns once
/// per injection round even when nothing is offered, ends with it. `drt
/// traffic` refuses more `--rounds`, and `drt churn` more `--burst-rounds`
/// (a burst runs at most `burst_rounds + 4096` rounds).
pub const MAX_INJECT_ROUNDS: u64 = (4 << 30) / (17 * 64);

/// Everything about a scenario except the workload and the rate.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioConfig {
    /// The arrival process.
    pub arrival: ArrivalKind,
    /// Rounds during which sources inject.
    pub inject_rounds: u64,
    /// Per-port queue capacity in packets.
    pub queue_cap: usize,
    /// Drop policy at a full queue.
    pub policy: DropPolicy,
    /// Profile the engine round loop; phase attribution comes back in the
    /// result's `stats.profile`. Never changes simulated results.
    pub profile: bool,
    /// Schedule seed.
    pub seed: u64,
}

impl Default for ScenarioConfig {
    fn default() -> ScenarioConfig {
        ScenarioConfig {
            arrival: ArrivalKind::Fixed,
            inject_rounds: 128,
            queue_cap: 8,
            policy: DropPolicy::TailDrop,
            profile: false,
            seed: DEFAULT_SEED,
        }
    }
}

/// What ultimately happened to one offered flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowOutcome {
    /// Arrived: delivery round, routed weight, hop count.
    Delivered {
        /// Engine round of arrival.
        round: u64,
        /// Routed path weight.
        weight: Weight,
        /// Edges traversed.
        hops: u32,
    },
    /// Lost to a full queue.
    DroppedCapacity,
    /// Lost to the rule: stuck, missing port or hop cap.
    DroppedStuck,
    /// Never injected: the pair has no common tree.
    Undeliverable,
    /// Still queued or on the wire when the round cap cut the run off.
    InFlight,
}

/// One offered flow and its fate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowRecord {
    /// Source vertex.
    pub src: VertexId,
    /// Destination vertex.
    pub dst: VertexId,
    /// Round the flow was offered (and injected, if deliverable).
    pub inject_round: u64,
    /// Its fate.
    pub outcome: FlowOutcome,
}

/// Everything one scenario run produced.
#[derive(Clone, Debug)]
pub struct TrafficRun {
    /// The `traffic_summary` record.
    pub summary: TrafficSummary,
    /// Dense per-round totals (index = round).
    pub series: Vec<RoundTotals>,
    /// Words actually transmitted per edge.
    pub edge_load: EdgeLoadMap,
    /// Engine statistics.
    pub stats: RunStats,
    /// Every offered flow, in offer order.
    pub flows: Vec<FlowRecord>,
}

impl TrafficRun {
    /// Re-check the per-round conservation identity over the dense series:
    /// cumulative injections equal cumulative deliveries plus cumulative
    /// drops plus current queue occupancy plus packets on the wire.
    ///
    /// # Errors
    ///
    /// Returns the first round at which the identity fails.
    pub fn verify_conservation(&self) -> Result<(), String> {
        let (mut inj, mut del, mut drop) = (0u64, 0u64, 0u64);
        for t in &self.series {
            inj += t.injected;
            del += t.delivered;
            drop += t.dropped_capacity + t.dropped_stuck;
            let accounted = del + drop + t.queued_packets + t.sent;
            if inj != accounted {
                return Err(format!(
                    "round {}: injected {} != delivered {} + dropped {} + queued {} + on-wire {}",
                    t.round, inj, del, drop, t.queued_packets, t.sent
                ));
            }
        }
        Ok(())
    }

    /// Whether this run is sustainable: it drained, its p99 queueing delay
    /// is at most [`MAX_P99_QUEUE_DELAY`], and its loss fraction at most
    /// [`MAX_DROP_FRACTION`].
    pub fn sustainable(&self) -> bool {
        self.summary.drained
            && self.summary.queue_delay.p99 <= MAX_P99_QUEUE_DELAY
            && self.summary.dropped() as f64 <= MAX_DROP_FRACTION * self.summary.injected as f64
    }
}

/// A rate sweep's outcome: one run per rate plus the saturation knee.
#[derive(Clone, Debug)]
pub struct KneeReport {
    /// The swept rates, in the order given.
    pub rates: Vec<f64>,
    /// One run per rate.
    pub points: Vec<TrafficRun>,
    /// The largest swept rate that was sustainable (`None` if none was).
    pub knee: Option<f64>,
}

/// A fixed network, scheme, and workload, ready to run at any offered rate.
#[derive(Clone, Copy, Debug)]
pub struct TrafficScenario<'a> {
    /// The network to route over.
    pub network: &'a Network,
    /// The compact-routing scheme driving the forwarding rule.
    pub scheme: &'a RoutingScheme,
    /// The traffic matrix.
    pub workload: WorkloadKind,
    /// Everything else.
    pub config: ScenarioConfig,
}

impl TrafficScenario<'_> {
    /// Run the scenario at one offered rate (packets per round,
    /// network-wide).
    pub fn run(&self, rate: f64) -> TrafficRun {
        let cfg = &self.config;
        let g = self.network.graph();
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let mut workload = Workload::prepare(self.workload, g, self.scheme, cfg.seed);
        let mut arrival = Arrival::new(cfg.arrival, rate);

        // Plan the entire schedule up front: which flows are offered
        // each round, which of them can route at all, and the packet each
        // deliverable flow injects.
        let mut flows: Vec<FlowRecord> = Vec::new();
        let mut injections: Vec<Injection> = Vec::new();
        let mut flow_of_packet: Vec<usize> = Vec::new();
        for round in 0..cfg.inject_rounds {
            for _ in 0..arrival.count(&mut rng) {
                let (src, dst) = workload.draw(&mut rng);
                let outcome = match packet::plan(self.scheme, src, dst) {
                    Some(plan) => {
                        let id = u32::try_from(injections.len())
                            .expect("packet ids are u32: a sweep offers at most u32::MAX packets");
                        injections.push((round, src, TrafficPacket::from_plan(id, plan)));
                        flow_of_packet.push(flows.len());
                        FlowOutcome::InFlight
                    }
                    None => FlowOutcome::Undeliverable,
                };
                flows.push(FlowRecord {
                    src,
                    dst,
                    inject_round: round,
                    outcome,
                });
            }
        }

        let sim = simulate(
            self.network,
            self.scheme,
            &injections,
            &SimConfig {
                queue_cap: cfg.queue_cap,
                policy: cfg.policy,
                // A drain budget generous enough that a stable network
                // always finishes (the engine stops early on drain).
                max_rounds: cfg.inject_rounds + cfg.inject_rounds.saturating_mul(16).max(4096),
                threads: 1,
                profile: cfg.profile,
            },
        );

        // Resolve each injected packet's fate back onto its flow.
        for d in &sim.deliveries {
            flows[flow_of_packet[d.id as usize]].outcome = FlowOutcome::Delivered {
                round: d.round,
                weight: d.weight,
                hops: d.hops,
            };
        }
        for &id in &sim.dropped_capacity {
            flows[flow_of_packet[id as usize]].outcome = FlowOutcome::DroppedCapacity;
        }
        for &id in &sim.dropped_stuck {
            flows[flow_of_packet[id as usize]].outcome = FlowOutcome::DroppedStuck;
        }

        let injected = injections.len() as u64;
        let delivered = sim.deliveries.len() as u64;
        let dropped_capacity = sim.dropped_capacity.len() as u64;
        let dropped_stuck = sim.dropped_stuck.len() as u64;
        let in_flight = injected - delivered - dropped_capacity - dropped_stuck;

        // Latency = delivery round − injection round; queueing delay is what
        // remains after the pure hop time.
        let mut latencies = Vec::with_capacity(sim.deliveries.len());
        let mut queue_delays = Vec::with_capacity(sim.deliveries.len());
        for d in &sim.deliveries {
            let injected_at = flows[flow_of_packet[d.id as usize]].inject_round;
            let latency = d.round - injected_at;
            latencies.push(latency);
            queue_delays.push(latency - u64::from(d.hops));
        }

        let (stretch_mean, stretch_max) = delivered_stretch(g, &flows);

        let sim_rounds = sim.stats.rounds;
        let summary = TrafficSummary {
            workload: self.workload.name().to_string(),
            arrival: cfg.arrival.name().to_string(),
            rate,
            inject_rounds: cfg.inject_rounds,
            sim_rounds,
            queue_cap: cfg.queue_cap as u64,
            drop_policy: cfg.policy.name().to_string(),
            offered: flows.len() as u64,
            injected,
            undeliverable: flows.len() as u64 - injected,
            delivered,
            dropped_capacity,
            dropped_stuck,
            in_flight,
            drained: in_flight == 0,
            throughput: delivered as f64 / sim_rounds.max(1) as f64,
            latency: LoadStats::from_loads(&latencies),
            queue_delay: LoadStats::from_loads(&queue_delays),
            peak_queue_packets: sim.peak_queue_packets(),
            peak_queue_words: sim.peak_queue_words(),
            stretch_mean,
            stretch_max,
        };
        debug_assert!(summary.conserved(), "summary violates conservation");

        let run = TrafficRun {
            summary,
            edge_load: sim.edge_load(),
            series: sim.series,
            stats: sim.stats,
            flows,
        };
        debug_assert_eq!(run.verify_conservation(), Ok(()));
        run
    }

    /// Run every rate in `rates` and locate the saturation knee.
    pub fn sweep(&self, rates: &[f64]) -> KneeReport {
        let points: Vec<TrafficRun> = rates.iter().map(|&r| self.run(r)).collect();
        let knee = rates
            .iter()
            .zip(&points)
            .filter(|(_, p)| p.sustainable())
            .map(|(&r, _)| r)
            .fold(None, |best: Option<f64>, r| {
                Some(best.map_or(r, |b| b.max(r)))
            });
        KneeReport {
            rates: rates.to_vec(),
            points,
            knee,
        }
    }
}

/// Mean and max routed-weight / true-distance over delivered flows, folded
/// in flow order. Exact distances come from one Dijkstra per distinct
/// endpoint on the smaller side (sources vs destinations — a hotspot needs
/// exactly one), run root by root so one distance array is alive at a time.
fn delivered_stretch(g: &graphs::Graph, flows: &[FlowRecord]) -> (f64, f64) {
    let mut delivered: Vec<(u32, u32, Weight)> = flows
        .iter()
        .filter_map(|f| match f.outcome {
            FlowOutcome::Delivered { weight, .. } => Some((f.src.0, f.dst.0, weight)),
            _ => None,
        })
        .collect();
    let distinct = |end: fn(&(u32, u32, Weight)) -> u32| {
        let mut ends: Vec<u32> = delivered.iter().map(end).collect();
        ends.sort_unstable();
        ends.dedup();
        ends.len()
    };
    // The graph is undirected, so rooting at whichever side has fewer
    // distinct endpoints gives the same distances for less work: from here
    // on each entry is `(root, leaf, weight)`.
    if distinct(|f| f.0) > distinct(|f| f.1) {
        for (src, dst, _) in &mut delivered {
            std::mem::swap(src, dst);
        }
    }
    let mut by_root: Vec<usize> = (0..delivered.len()).collect();
    by_root.sort_unstable_by_key(|&i| delivered[i].0);
    let mut exact = vec![0; delivered.len()];
    for group in by_root.chunk_by(|&a, &b| delivered[a].0 == delivered[b].0) {
        let dist = dijkstra(g, VertexId(delivered[group[0]].0));
        for &i in group {
            exact[i] = dist[delivered[i].1 as usize];
        }
    }
    let (mut sum, mut max, mut count) = (0.0f64, 0.0f64, 0u64);
    for (&(_, _, weight), &exact) in delivered.iter().zip(&exact) {
        if exact == 0 || exact == Weight::MAX {
            continue;
        }
        let stretch = weight as f64 / exact as f64;
        sum += stretch;
        max = max.max(stretch);
        count += 1;
    }
    if count == 0 {
        (0.0, 0.0)
    } else {
        (sum / count as f64, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::generators;
    use routing::BuildParams;

    fn scenario_parts(n: usize, seed: u64) -> (Network, RoutingScheme) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::erdos_renyi_connected(n, 0.06, 1..=20, &mut rng);
        let scheme = routing::build(&g, &BuildParams::new(2), &mut rng).scheme;
        (Network::new(g), scheme)
    }

    #[test]
    fn runs_are_thread_count_invariant() {
        // The engine is serial, so thread-count invariance is run-to-run
        // invariance.
        let (net, scheme) = scenario_parts(48, 31);
        let base = TrafficScenario {
            network: &net,
            scheme: &scheme,
            workload: WorkloadKind::Hotspot,
            config: ScenarioConfig {
                inject_rounds: 32,
                queue_cap: 2,
                ..ScenarioConfig::default()
            },
        };
        let (first, again) = (base.run(2.5), base.run(2.5));
        assert_eq!(first.summary, again.summary);
        assert_eq!(first.series, again.series);
        assert_eq!(first.flows, again.flows);
        assert!(first.stats.same_simulation(&again.stats));
        assert_eq!(first.edge_load, again.edge_load);
    }

    /// [`delivered_stretch`] against one Dijkstra per delivered flow,
    /// folded in flow order: equal to the bit.
    #[test]
    fn delivered_stretch_matches_a_dijkstra_per_flow() {
        let mut rng = ChaCha8Rng::seed_from_u64(34);
        let graphs = [
            generators::erdos_renyi_connected(60, 0.08, 1..=20, &mut rng),
            generators::torus(6, 7, 1..=9, &mut rng),
        ];
        let kinds = [
            WorkloadKind::Uniform,
            WorkloadKind::Hotspot,
            WorkloadKind::WorstPairs,
        ];
        for g in &graphs {
            let scheme = routing::build(g, &BuildParams::new(2), &mut rng).scheme;
            for kind in kinds {
                let mut workload = Workload::prepare(kind, g, &scheme, 35);
                // Every seventh flow is lost, so the fold must skip it.
                let flows: Vec<FlowRecord> = (0..160)
                    .map(|round| {
                        let (src, dst) = workload.draw(&mut rng);
                        let outcome = match routing::router::route(g, &scheme, src, dst) {
                            Ok(trace) if round % 7 != 0 => FlowOutcome::Delivered {
                                round,
                                weight: trace.weight,
                                hops: trace.hops() as u32,
                            },
                            _ => FlowOutcome::DroppedCapacity,
                        };
                        FlowRecord {
                            src,
                            dst,
                            inject_round: round,
                            outcome,
                        }
                    })
                    .collect();
                let (mut sum, mut max, mut count) = (0.0f64, 0.0f64, 0u64);
                for f in &flows {
                    let FlowOutcome::Delivered { weight, .. } = f.outcome else {
                        continue;
                    };
                    let exact = dijkstra(g, f.src)[f.dst.index()];
                    if exact == 0 || exact == Weight::MAX {
                        continue;
                    }
                    let stretch = weight as f64 / exact as f64;
                    sum += stretch;
                    max = max.max(stretch);
                    count += 1;
                }
                assert!(count > 100, "{}: {count} delivered flows", kind.name());
                let (mean, worst) = delivered_stretch(g, &flows);
                assert_eq!(
                    (mean.to_bits(), worst.to_bits()),
                    ((sum / count as f64).to_bits(), max.to_bits()),
                    "{}",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn conservation_holds_every_round() {
        let (net, scheme) = scenario_parts(40, 32);
        for &kind in WorkloadKind::all() {
            let scenario = TrafficScenario {
                network: &net,
                scheme: &scheme,
                workload: kind,
                config: ScenarioConfig {
                    inject_rounds: 24,
                    queue_cap: 1,
                    ..ScenarioConfig::default()
                },
            };
            let run = scenario.run(3.0);
            assert_eq!(run.verify_conservation(), Ok(()), "{}", kind.name());
            assert!(run.summary.conserved(), "{}", kind.name());
            assert!(run.summary.injected > 0, "{}", kind.name());
        }
    }

    #[test]
    fn delivered_latency_decomposes_into_hops_plus_queueing() {
        let (net, scheme) = scenario_parts(40, 33);
        let scenario = TrafficScenario {
            network: &net,
            scheme: &scheme,
            workload: WorkloadKind::Uniform,
            config: ScenarioConfig {
                inject_rounds: 16,
                ..ScenarioConfig::default()
            },
        };
        let run = scenario.run(1.0);
        assert!(run.summary.delivered > 0);
        // At a light load with deep queues nothing queues for long: the p99
        // queueing delay is far below the p99 latency.
        assert!(run.summary.queue_delay.max <= run.summary.latency.max);
        assert!(run.summary.stretch_mean >= 1.0 - 1e-9);
        assert!(run.summary.stretch_max >= run.summary.stretch_mean - 1e-9);
    }

    #[test]
    fn sweep_finds_a_knee_between_light_and_crushing_load() {
        let (net, scheme) = scenario_parts(40, 34);
        let scenario = TrafficScenario {
            network: &net,
            scheme: &scheme,
            workload: WorkloadKind::Hotspot,
            config: ScenarioConfig {
                inject_rounds: 64,
                queue_cap: 2,
                ..ScenarioConfig::default()
            },
        };
        // A hotspot sink with per-port queues of 2 cannot absorb 32
        // packets per round; 0.25 per round it absorbs trivially.
        let report = scenario.sweep(&[0.25, 32.0]);
        assert_eq!(report.points.len(), 2);
        assert!(report.points[0].sustainable());
        assert!(!report.points[1].sustainable());
        assert_eq!(report.knee, Some(0.25));
    }

    #[test]
    fn zero_rate_runs_produce_an_empty_conserved_summary() {
        let (net, scheme) = scenario_parts(24, 35);
        let scenario = TrafficScenario {
            network: &net,
            scheme: &scheme,
            workload: WorkloadKind::Uniform,
            config: ScenarioConfig {
                inject_rounds: 8,
                ..ScenarioConfig::default()
            },
        };
        let run = scenario.run(0.0);
        assert_eq!(run.summary.offered, 0);
        assert_eq!(run.summary.sim_rounds, 0);
        assert!(run.summary.drained);
        assert!(run.summary.conserved());
    }

    #[test]
    fn oldest_drop_prefers_fresh_packets() {
        let (net, scheme) = scenario_parts(40, 36);
        let mut config = ScenarioConfig {
            inject_rounds: 48,
            queue_cap: 1,
            ..ScenarioConfig::default()
        };
        let tail = TrafficScenario {
            network: &net,
            scheme: &scheme,
            workload: WorkloadKind::Hotspot,
            config,
        }
        .run(8.0);
        config.policy = DropPolicy::OldestDrop;
        let oldest = TrafficScenario {
            network: &net,
            scheme: &scheme,
            workload: WorkloadKind::Hotspot,
            config,
        }
        .run(8.0);
        // Both overload runs drop and still conserve; the split differs.
        assert!(tail.summary.dropped_capacity > 0);
        assert!(oldest.summary.dropped_capacity > 0);
        assert!(tail.summary.conserved() && oldest.summary.conserved());
        assert_eq!(tail.summary.drop_policy, "tail-drop");
        assert_eq!(oldest.summary.drop_policy, "oldest-drop");
    }
}
