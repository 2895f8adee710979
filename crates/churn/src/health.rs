//! Per-round health telemetry over a churn schedule.
//!
//! [`ChurnScenario::run`] plans the event schedule, then walks it round by
//! round: after applying each round's events to the tombstone overlay it
//! samples (a) a *fixed* routing probe — the same seeded source/target pairs
//! every round, routed by the unmodified stale tables over the perturbed
//! graph — (b) a traffic burst through `traffic::sim::simulate` on the
//! perturbed network, and (c) the blast radius of the accumulated failures
//! via `routing::audit::blast_radius`.
//!
//! Because the pair sample, tables, and routes are all fixed, a pair that
//! fails once can never come back while failures only accumulate: the
//! delivered count — and therefore reachability over the fixed
//! baseline-connected denominator — is monotonically non-increasing for
//! revival-free processes. The `churn_timeline` parser re-checks exactly
//! this invariant.
//!
//! Everything random is drawn from seeds derived from the master seed, and
//! the engine is deterministic, so the full series is a pure function of the
//! graph, the scheme and the config. The run writes it straight into its
//! `churn_timeline` record ([`ChurnRun::timeline`]), which also holds the
//! one reading of it: the reachability series, its knee/half-life fold and
//! the SLO verdict.

use congest::Network;
use graphs::{shortest_paths, Graph, Overlay, VertexId, INFINITY};
use obs::churn::{ChurnTimeline, DegradationStat, HealthRow};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use routing::audit::blast_radius;
use routing::router::{self, GraphRouteError, Selection};
use routing::{packet, RoutingScheme};
use traffic::sim::{self, DropPolicy, Injection, SimConfig};
use traffic::{Arrival, ArrivalKind, TrafficPacket, Workload, WorkloadKind};

use crate::process::{plan_schedule, ProcessKind, ScheduleParams};

/// Salt for the probe pair sample stream.
const PAIR_SALT: u64 = 0x000C_4112_B417;
/// Salt for the traffic planning stream.
const TRAFFIC_SALT: u64 = 0x000C_4112_F10C;

/// Default master seed for churn runs.
pub const DEFAULT_SEED: u64 = 0x000C_42AB;

/// The most churn rounds one run may take: what keeps its per-round state
/// within 1 GiB of heap. A run plans every round's events up front (a
/// 32-byte `RoundEvents` plus 8 bytes an event), keeps a 160-byte
/// [`HealthRow`] per round, and `drt churn` renders each row as a JSON value
/// for its report. Measured at n = 64 with revival on (so events never run
/// out), a run's peak heap grows by under 3 KB a round; the budget is 4 KiB
/// a round, or 2^18 rounds. `drt churn` refuses more.
pub const MAX_ROUNDS: u64 = (1 << 30) / 4096;

/// Everything a churn run needs besides the graph and scheme.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnConfig {
    /// The failure process.
    pub process: ProcessKind,
    /// Per-round failure rate (fraction of original vertices, or edges for
    /// `random-edges`; floored at one element per round).
    pub rate: f64,
    /// Churn rounds (round 0 is the intact baseline sample).
    pub rounds: u64,
    /// Per-round revival probability for dead vertices.
    pub revive: f64,
    /// Master seed; schedule, probe sample, and traffic all derive from it.
    pub seed: u64,
    /// Traffic workload for the per-round bursts.
    pub workload: WorkloadKind,
    /// Flows offered per engine round during each burst.
    pub traffic_rate: f64,
    /// Engine rounds of injection per burst.
    pub burst_rounds: u64,
    /// Per-port queue capacity during bursts.
    pub queue_cap: usize,
    /// Requested probe sample size (realized as sources × targets, like the
    /// audit probe).
    pub probe_pairs: usize,
}

impl Default for ChurnConfig {
    fn default() -> ChurnConfig {
        ChurnConfig {
            process: ProcessKind::Random,
            rate: 0.02,
            rounds: 10,
            revive: 0.0,
            seed: DEFAULT_SEED,
            workload: WorkloadKind::Uniform,
            traffic_rate: 2.0,
            burst_rounds: 16,
            queue_cap: 8,
            probe_pairs: 256,
        }
    }
}

/// A churn scenario: graph + stale scheme + configuration.
#[derive(Clone, Copy)]
pub struct ChurnScenario<'a> {
    /// The base graph the scheme was built on.
    pub graph: &'a Graph,
    /// The (never-updated) routing scheme under test.
    pub scheme: &'a RoutingScheme,
    /// Process and sampling knobs.
    pub config: ChurnConfig,
}

/// Everything one churn run produced: its `churn_timeline` record (no SLO
/// verdict; [`ChurnTimeline::slo_verdict`] judges one) and what its bursts
/// cost the engine.
#[derive(Clone, Debug)]
pub struct ChurnRun {
    /// The config echo, the per-round health samples (round 0 first) and
    /// their degradation summary.
    pub timeline: ChurnTimeline,
    /// Engine rounds, messages and words summed over all bursts.
    pub engine: obs::Counters,
    /// Worst per-port queue depth (packets) seen in any burst.
    pub peak_queue_packets: u64,
}

/// The fixed probe sample: sources with their target lists.
struct PairSample {
    by_source: Vec<(VertexId, Vec<VertexId>)>,
}

impl PairSample {
    /// Sample ~`requested` pairs as sources × targets-per-source (the audit
    /// probe's shape, so one Dijkstra per source covers a whole target
    /// list). Drawn once, on the intact graph, before any failure.
    fn draw(g: &Graph, requested: usize, rng: &mut ChaCha8Rng) -> PairSample {
        let n = g.num_vertices();
        let sources = ((requested as f64).sqrt().ceil() as usize).clamp(1, n);
        let targets_per_source = requested.div_ceil(sources).min(n - 1);
        let mut by_source = Vec::with_capacity(sources);
        let mut used = vec![false; n];
        for _ in 0..sources {
            let mut s;
            loop {
                s = VertexId(rng.gen_range(0..n as u32));
                if !used[s.index()] {
                    break;
                }
            }
            used[s.index()] = true;
            let mut targets = Vec::with_capacity(targets_per_source);
            let mut in_targets = vec![false; n];
            for _ in 0..targets_per_source {
                let mut t;
                loop {
                    t = VertexId(rng.gen_range(0..n as u32));
                    if t != s && !in_targets[t.index()] {
                        break;
                    }
                }
                in_targets[t.index()] = true;
                targets.push(t);
            }
            by_source.push((s, targets));
        }
        by_source.sort_unstable_by_key(|&(s, _)| s);
        PairSample { by_source }
    }

    fn len(&self) -> usize {
        self.by_source.iter().map(|(_, ts)| ts.len()).sum()
    }
}

/// One round's probe tallies before they are merged with the traffic burst.
#[derive(Default)]
struct ProbeTally {
    /// Pairs with both endpoints alive and a path between them.
    connected: u64,
    delivered: u64,
    endpoint_dead: u64,
    no_common_tree: u64,
    stuck: u64,
    bad_forward: u64,
    looped: u64,
    stretch_sum: f64,
    stretch_count: u64,
}

impl ProbeTally {
    fn mean_stretch(&self) -> f64 {
        if self.stretch_count == 0 {
            0.0
        } else {
            self.stretch_sum / self.stretch_count as f64
        }
    }
}

impl ChurnScenario<'_> {
    /// Run the full timeline. Panics if the graph has fewer than two
    /// vertices (no pairs to probe).
    pub fn run(&self) -> ChurnRun {
        let g = self.graph;
        let cfg = &self.config;
        assert!(g.num_vertices() >= 2, "churn needs at least two vertices");
        assert!(cfg.rate.is_finite() && cfg.rate >= 0.0, "bad rate");

        let schedule = plan_schedule(
            g,
            &ScheduleParams {
                process: cfg.process,
                rate: cfg.rate,
                rounds: cfg.rounds,
                revive: cfg.revive,
                seed: cfg.seed,
            },
        );

        let mut pair_rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ PAIR_SALT);
        let sample = PairSample::draw(g, cfg.probe_pairs.max(1), &mut pair_rng);

        // Traffic planning state persists across rounds: the workload is
        // prepared on the intact graph and the arrival/draw stream never
        // consults liveness, so randomness consumption is failure-independent.
        let traffic_seed = cfg.seed ^ TRAFFIC_SALT;
        let mut workload = Workload::prepare(cfg.workload, g, self.scheme, traffic_seed);
        let mut traffic_rng = ChaCha8Rng::seed_from_u64(traffic_seed);
        let mut arrival = Arrival::new(ArrivalKind::Fixed, cfg.traffic_rate);

        let mut overlay = Overlay::new(g);
        let mut run = ChurnRun {
            timeline: ChurnTimeline {
                n: g.num_vertices() as u64,
                m: g.num_edges() as u64,
                k: self.scheme.k as u64,
                process: cfg.process.name().to_string(),
                rate: cfg.rate,
                revive: cfg.revive,
                seed: cfg.seed,
                workload: cfg.workload.name().to_string(),
                traffic_rate: cfg.traffic_rate,
                probe_pairs: sample.len() as u64,
                baseline_connected: 0,
                baseline_mean_stretch: 0.0,
                rounds: Vec::with_capacity(cfg.rounds as usize + 1),
                // Folded once the series is complete.
                degradation: DegradationStat::default(),
                slo: None,
            },
            engine: obs::Counters::ZERO,
            peak_queue_packets: 0,
        };

        // Round 0 probes the intact graph: its connected pairs are the
        // fixed reachability denominator.
        run.timeline.baseline_connected = self.sample_round(
            g,
            &overlay,
            0,
            0,
            &sample,
            &mut workload,
            &mut traffic_rng,
            &mut arrival,
            &mut run,
        );
        let baseline = &mut run.timeline.rounds[0];
        // Round 0's inflation is 1.0 by definition.
        baseline.stretch_inflation = 1.0;
        run.timeline.baseline_mean_stretch = baseline.mean_stretch;

        for round_events in &schedule {
            crate::process::apply(&mut overlay, &round_events.events);
            self.sample_round(
                g,
                &overlay,
                round_events.round,
                round_events.events.len() as u64,
                &sample,
                &mut workload,
                &mut traffic_rng,
                &mut arrival,
                &mut run,
            );
        }
        run.timeline.degradation = run.timeline.fold_degradation();
        run
    }

    /// Sample one round into `run.timeline.rounds`; returns how many probe
    /// pairs with both endpoints alive are connected in the perturbed graph.
    #[allow(clippy::too_many_arguments)]
    fn sample_round(
        &self,
        g: &Graph,
        overlay: &Overlay,
        round: u64,
        events: u64,
        sample: &PairSample,
        workload: &mut Workload,
        traffic_rng: &mut ChaCha8Rng,
        arrival: &mut Arrival,
        run: &mut ChurnRun,
    ) -> u64 {
        let cfg = &self.config;
        let perturbed = overlay.build_graph(g);
        let alive = overlay.alive_vertices();

        // Fixed-pair probe with stale tables over the perturbed graph.
        let mut tally = ProbeTally::default();
        for &(s, ref targets) in &sample.by_source {
            let src_dead = !alive[s.index()];
            let dist = if src_dead {
                Vec::new()
            } else {
                shortest_paths::dijkstra(&perturbed, s)
            };
            for &t in targets {
                if src_dead || !alive[t.index()] {
                    tally.endpoint_dead += 1;
                    continue;
                }
                if dist[t.index()] < INFINITY {
                    tally.connected += 1;
                }
                match router::route_with(&perturbed, self.scheme, s, t, Selection::SourceOptimal) {
                    Ok(trace) => {
                        tally.delivered += 1;
                        let exact = dist[t.index()];
                        if exact > 0 && exact < INFINITY {
                            tally.stretch_sum += trace.weight as f64 / exact as f64;
                            tally.stretch_count += 1;
                        }
                    }
                    Err(GraphRouteError::NoCommonTree) => tally.no_common_tree += 1,
                    Err(GraphRouteError::Stuck(_)) => tally.stuck += 1,
                    Err(GraphRouteError::BadForward { .. }) => tally.bad_forward += 1,
                    Err(GraphRouteError::Loop) => tally.looped += 1,
                }
            }
        }
        let mean_stretch = tally.mean_stretch();
        let baseline_mean_stretch = run.timeline.baseline_mean_stretch;
        let stretch_inflation = if tally.delivered > 0 && baseline_mean_stretch > 0.0 {
            mean_stretch / baseline_mean_stretch
        } else {
            1.0
        };

        // Traffic burst: plan injections against current liveness, then let
        // the engine forward them with the stale tables. Dead endpoints are
        // refused at injection; stale next-hops over dead edges surface as
        // `dropped_stuck` inside the engine.
        let mut injections: Vec<Injection> = Vec::new();
        let mut offered = 0u64;
        let mut undeliverable = 0u64;
        for burst_round in 0..cfg.burst_rounds {
            for _ in 0..arrival.count(traffic_rng) {
                offered += 1;
                let (src, dst) = workload.draw(traffic_rng);
                if !alive[src.index()] || !alive[dst.index()] {
                    undeliverable += 1;
                    continue;
                }
                match packet::plan(self.scheme, src, dst) {
                    Some(plan) => {
                        let id = u32::try_from(injections.len())
                            .expect("packet ids are u32: a burst offers at most u32::MAX packets");
                        injections.push((burst_round, src, TrafficPacket::from_plan(id, plan)));
                    }
                    None => undeliverable += 1,
                }
            }
        }
        let injected = injections.len() as u64;
        let net = Network::new(perturbed);
        let sim_cfg = SimConfig {
            queue_cap: cfg.queue_cap,
            policy: DropPolicy::TailDrop,
            max_rounds: cfg.burst_rounds + 4096,
            threads: 1,
            profile: false,
        };
        let result = sim::simulate(&net, self.scheme, &injections, &sim_cfg);
        let flow_delivered = result.deliveries.len() as u64;
        let dropped_capacity = result.dropped_capacity.len() as u64;
        let dropped_stuck = result.dropped_stuck.len() as u64;
        let in_flight = injected - flow_delivered - dropped_capacity - dropped_stuck;
        run.engine.add(&result.stats.counters());
        run.peak_queue_packets = run
            .peak_queue_packets
            .max(result.peak_queue_packets() as u64);

        run.timeline.rounds.push(HealthRow {
            round,
            events,
            dead_vertices: overlay.killed_vertices() as u64,
            dead_edges: (g.num_edges() - overlay.surviving_edges(g)) as u64,
            blast_radius: blast_radius(g, self.scheme, overlay),
            delivered: tally.delivered,
            endpoint_dead: tally.endpoint_dead,
            no_common_tree: tally.no_common_tree,
            stuck: tally.stuck,
            bad_forward: tally.bad_forward,
            looped: tally.looped,
            mean_stretch,
            stretch_inflation,
            offered,
            injected,
            undeliverable,
            flow_delivered,
            dropped_capacity,
            dropped_stuck,
            in_flight,
        });
        tally.connected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::generators;
    use routing::BuildParams;

    fn scale_free(n: usize, seed: u64) -> Graph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        generators::preferential_attachment(n, 3, 1..=100, &mut rng)
    }

    fn built(g: &Graph, seed: u64) -> RoutingScheme {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        routing::build(g, &BuildParams::new(2), &mut rng).scheme
    }

    fn scenario_config(process: ProcessKind, rounds: u64) -> ChurnConfig {
        ChurnConfig {
            process,
            rate: 0.03,
            rounds,
            probe_pairs: 64,
            burst_rounds: 8,
            ..ChurnConfig::default()
        }
    }

    #[test]
    fn timeline_record_round_trips_and_validates() {
        let g = scale_free(72, 21);
        let scheme = built(&g, 22);
        let run = ChurnScenario {
            graph: &g,
            scheme: &scheme,
            config: scenario_config(ProcessKind::Targeted, 8),
        }
        .run();
        let mut record = run.timeline;
        record.slo = Some(record.slo_verdict(0.99, 8));
        // from_value re-checks partition, conservation, and monotonicity.
        let parsed = obs::churn::ChurnTimeline::from_value(
            &obs::json::parse(&record.to_value().to_string()).unwrap(),
        )
        .unwrap();
        assert_eq!(parsed, record);
        assert_eq!(parsed.rounds.len(), 9);
        // Targeted removal of ~24% of a scale-free graph must hurt: the SLO
        // with a 99% floor through the last round is breached.
        assert!(!parsed.ok(), "{:?}", parsed.slo);
    }

    #[test]
    fn thread_count_never_changes_the_series() {
        // The engine is serial, so thread-count invariance is run-to-run
        // invariance.
        let g = scale_free(64, 31);
        let scheme = built(&g, 32);
        let config = scenario_config(ProcessKind::Random, 5);
        let run = || {
            let run = ChurnScenario {
                graph: &g,
                scheme: &scheme,
                config,
            }
            .run();
            run.timeline.to_value().to_string()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn degradation_summary_matches_series() {
        let g = scale_free(72, 41);
        let scheme = built(&g, 42);
        let run = ChurnScenario {
            graph: &g,
            scheme: &scheme,
            config: ChurnConfig {
                rate: 0.08,
                ..scenario_config(ProcessKind::Targeted, 10)
            },
        }
        .run();
        let series = run.timeline.reachability_series();
        let d = &run.timeline.degradation;
        assert_eq!(d.initial_reachability, series[0]);
        assert_eq!(d.final_reachability, *series.last().unwrap());
        if let Some(k) = d.knee_round {
            let k = k as usize;
            assert!((series[k - 1] - series[k] - d.knee_drop).abs() < 1e-12);
        }
        if let Some(h) = d.half_life_round {
            assert!(series[h as usize] <= d.initial_reachability / 2.0);
        }
        // 8% targeted kills for 10 rounds floors a 72-vertex scale-free
        // graph; the half-life must exist.
        assert!(d.half_life_round.is_some(), "series: {series:?}");
    }

    #[test]
    fn slo_verdict_finds_first_breach() {
        let g = scale_free(64, 51);
        let scheme = built(&g, 52);
        let run = ChurnScenario {
            graph: &g,
            scheme: &scheme,
            config: ChurnConfig {
                rate: 0.08,
                ..scenario_config(ProcessKind::Targeted, 8)
            },
        }
        .run();
        let series = run.timeline.reachability_series();
        let verdict = run.timeline.slo_verdict(0.9, 8);
        match verdict.breach_round {
            Some(r) => {
                assert!(series[r as usize] < 0.9);
                assert!(series[..r as usize].iter().all(|&x| x >= 0.9));
                assert!(!verdict.ok());
            }
            None => assert!(series.iter().all(|&x| x >= 0.9)),
        }
        // A floor of 0 through round 0 can never breach (reachability ≥ 0).
        assert!(run.timeline.slo_verdict(0.0, 0).ok());
    }

    #[test]
    fn baseline_row_is_intact() {
        let g = scale_free(60, 61);
        let scheme = built(&g, 62);
        let run = ChurnScenario {
            graph: &g,
            scheme: &scheme,
            config: scenario_config(ProcessKind::Regional, 3),
        }
        .run();
        let r0 = &run.timeline.rounds[0];
        assert_eq!(r0.dead_vertices, 0);
        assert_eq!(r0.dead_edges, 0);
        assert_eq!(r0.blast_radius, 0);
        assert_eq!(r0.endpoint_dead, 0);
        assert_eq!(r0.stretch_inflation, 1.0);
        assert!(run.engine.rounds > 0, "bursts must exercise the engine");
    }
}
