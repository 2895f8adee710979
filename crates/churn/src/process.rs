//! Seeded churn processes: deterministic per-round failure (and optional
//! revival) schedules over a fixed base graph.
//!
//! A process never mutates the graph — it plans a list of [`ChurnEvent`]s
//! per round, computed against an evolving [`Overlay`] scratch copy so that
//! each round's choices (which vertex has the max alive degree, which
//! vertices a BFS ball reaches) see the failures of every earlier round.
//! Planning happens before any simulation and consumes randomness in a fixed
//! order, so the schedule — and everything sampled from it — is a pure
//! function of the seed.

use graphs::{EdgeId, Graph, Overlay, VertexId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The failure process driving the timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcessKind {
    /// Uniformly random alive vertices fail.
    Random,
    /// Uniformly random usable edges fail (vertices stay up).
    RandomEdges,
    /// The alive vertices with the highest surviving degree fail — the
    /// DRFE-R-style targeted attack that collapses scale-free graphs.
    Targeted,
    /// A regional outage: a BFS ball around a random alive center fails.
    Regional,
}

impl ProcessKind {
    /// The CLI/schema name.
    pub fn name(self) -> &'static str {
        match self {
            ProcessKind::Random => "random",
            ProcessKind::RandomEdges => "random-edges",
            ProcessKind::Targeted => "targeted",
            ProcessKind::Regional => "regional",
        }
    }

    /// Parse a CLI/schema name.
    pub fn parse(s: &str) -> Option<ProcessKind> {
        ProcessKind::all().iter().copied().find(|p| p.name() == s)
    }

    /// Every process, in display order.
    pub fn all() -> &'static [ProcessKind] {
        &[
            ProcessKind::Random,
            ProcessKind::RandomEdges,
            ProcessKind::Targeted,
            ProcessKind::Regional,
        ]
    }
}

/// One scheduled topology change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnEvent {
    /// Vertex fails; its incident edges stop carrying traffic.
    KillVertex(VertexId),
    /// Edge fails on its own.
    KillEdge(EdgeId),
    /// A failed vertex comes back (its non-tombstoned edges return with it).
    ReviveVertex(VertexId),
}

/// The events of one churn round, in application order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundEvents {
    /// The 1-based round these events fire in (round 0 is the intact
    /// baseline sample).
    pub round: u64,
    /// Events, applied in order.
    pub events: Vec<ChurnEvent>,
}

/// Schedule parameters: which process, how hard, for how long.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScheduleParams {
    /// The failure process.
    pub process: ProcessKind,
    /// Per-round failure budget as a fraction of the original element count
    /// (vertices for vertex processes, edges for `random-edges`), floored
    /// at one element per round.
    pub rate: f64,
    /// Number of churn rounds.
    pub rounds: u64,
    /// Per-round revival probability for each vertex that was dead when the
    /// round started (`0.0` disables revival and makes decay monotone).
    pub revive: f64,
    /// Seed for every random choice the schedule makes.
    pub seed: u64,
}

/// Apply one round's events to an overlay.
pub fn apply(overlay: &mut Overlay, events: &[ChurnEvent]) {
    for &e in events {
        match e {
            ChurnEvent::KillVertex(v) => {
                overlay.kill_vertex(v);
            }
            ChurnEvent::KillEdge(e) => {
                overlay.kill_edge(e);
            }
            ChurnEvent::ReviveVertex(v) => {
                overlay.revive_vertex(v);
            }
        }
    }
}

/// Plan the full deterministic event schedule for `params` over `g`.
///
/// Rounds run `1..=params.rounds`; a round's kill choices see the overlay
/// state produced by all earlier rounds. When a budget exceeds what is left
/// alive, the round kills whatever remains and later rounds emit no events.
pub fn plan_schedule(g: &Graph, params: &ScheduleParams) -> Vec<RoundEvents> {
    let mut rng = ChaCha8Rng::seed_from_u64(params.seed);
    let mut overlay = Overlay::new(g);
    let n = g.num_vertices();
    let m = g.num_edges();
    let vertex_budget = ((params.rate * n as f64).round() as usize).max(1);
    let edge_budget = ((params.rate * m as f64).round() as usize).max(1);
    let mut schedule = Vec::with_capacity(params.rounds as usize);
    for round in 1..=params.rounds {
        let mut events = Vec::new();
        // Revive first, drawing one uniform per vertex dead at round start
        // (in id order), so revival cannot resurrect this round's kills.
        if params.revive > 0.0 {
            let dead: Vec<VertexId> = g.vertices().filter(|&v| !overlay.vertex_alive(v)).collect();
            for v in dead {
                if rng.gen::<f64>() < params.revive {
                    events.push(ChurnEvent::ReviveVertex(v));
                    overlay.revive_vertex(v);
                }
            }
        }
        match params.process {
            ProcessKind::Random => {
                let mut alive: Vec<VertexId> =
                    g.vertices().filter(|&v| overlay.vertex_alive(v)).collect();
                for _ in 0..vertex_budget.min(alive.len()) {
                    let v = alive.swap_remove(rng.gen_range(0..alive.len()));
                    events.push(ChurnEvent::KillVertex(v));
                    overlay.kill_vertex(v);
                }
            }
            ProcessKind::RandomEdges => {
                let mut usable: Vec<EdgeId> = (0..m as u32)
                    .map(EdgeId)
                    .filter(|&e| overlay.edge_usable(g, e))
                    .collect();
                for _ in 0..edge_budget.min(usable.len()) {
                    let e = usable.swap_remove(rng.gen_range(0..usable.len()));
                    events.push(ChurnEvent::KillEdge(e));
                    overlay.kill_edge(e);
                }
            }
            ProcessKind::Targeted => {
                for _ in 0..vertex_budget {
                    // Re-rank after every kill: removing a hub shifts the
                    // surviving-degree order. Ties break toward smaller id.
                    let target = g
                        .vertices()
                        .filter(|&v| overlay.vertex_alive(v))
                        .max_by_key(|&v| (overlay.alive_degree(g, v), std::cmp::Reverse(v)));
                    match target {
                        Some(v) => {
                            events.push(ChurnEvent::KillVertex(v));
                            overlay.kill_vertex(v);
                        }
                        None => break,
                    }
                }
            }
            ProcessKind::Regional => {
                let alive: Vec<VertexId> =
                    g.vertices().filter(|&v| overlay.vertex_alive(v)).collect();
                if !alive.is_empty() {
                    let center = alive[rng.gen_range(0..alive.len())];
                    for v in bfs_ball(g, &overlay, center, vertex_budget) {
                        events.push(ChurnEvent::KillVertex(v));
                        overlay.kill_vertex(v);
                    }
                }
            }
        }
        schedule.push(RoundEvents { round, events });
    }
    schedule
}

/// Up to `budget` alive vertices reachable from `center` over usable edges,
/// in BFS order (adjacency order within a level).
fn bfs_ball(g: &Graph, overlay: &Overlay, center: VertexId, budget: usize) -> Vec<VertexId> {
    let mut ball = vec![center];
    let mut seen = vec![false; g.num_vertices()];
    seen[center.index()] = true;
    let mut head = 0;
    while head < ball.len() && ball.len() < budget {
        let u = ball[head];
        head += 1;
        for a in g.neighbors(u) {
            if ball.len() >= budget {
                break;
            }
            if !seen[a.to.index()] && overlay.edge_usable(g, a.edge) {
                seen[a.to.index()] = true;
                ball.push(a.to);
            }
        }
    }
    ball
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::generators;

    fn graph(n: usize, seed: u64) -> Graph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        generators::erdos_renyi_connected(n, 3.0 / n as f64, 1..=9, &mut rng)
    }

    fn replay(g: &Graph, schedule: &[RoundEvents]) -> Overlay {
        let mut o = Overlay::new(g);
        for r in schedule {
            apply(&mut o, &r.events);
        }
        o
    }

    #[test]
    fn schedules_are_deterministic() {
        let g = graph(64, 11);
        for process in ProcessKind::all() {
            let params = ScheduleParams {
                process: *process,
                rate: 0.05,
                rounds: 6,
                revive: 0.0,
                seed: 42,
            };
            let a = plan_schedule(&g, &params);
            let b = plan_schedule(&g, &params);
            assert_eq!(a, b, "{}", process.name());
            assert_eq!(a.len(), 6);
        }
    }

    #[test]
    fn vertex_budget_is_rate_times_n() {
        let g = graph(60, 12);
        let params = ScheduleParams {
            process: ProcessKind::Random,
            rate: 0.05,
            rounds: 4,
            revive: 0.0,
            seed: 1,
        };
        let schedule = plan_schedule(&g, &params);
        for r in &schedule {
            assert_eq!(r.events.len(), 3, "round(0.05·60) = 3 kills per round");
        }
        let o = replay(&g, &schedule);
        assert_eq!(o.killed_vertices(), 12);
    }

    #[test]
    fn targeted_takes_the_max_degree_vertex_first() {
        let g = graph(50, 13);
        let hub = g
            .vertices()
            .max_by_key(|&v| (g.degree(v), std::cmp::Reverse(v)))
            .unwrap();
        let params = ScheduleParams {
            process: ProcessKind::Targeted,
            rate: 0.0, // floors at one kill per round
            rounds: 1,
            revive: 0.0,
            seed: 0,
        };
        let schedule = plan_schedule(&g, &params);
        assert_eq!(schedule[0].events, vec![ChurnEvent::KillVertex(hub)]);
    }

    #[test]
    fn regional_ball_is_connected_and_budgeted() {
        let g = graph(64, 14);
        let params = ScheduleParams {
            process: ProcessKind::Regional,
            rate: 0.1,
            rounds: 3,
            revive: 0.0,
            seed: 9,
        };
        for r in plan_schedule(&g, &params) {
            assert!(!r.events.is_empty());
            assert!(r.events.len() <= 6, "ball capped at round(0.1·64)");
        }
    }

    #[test]
    fn revival_brings_vertices_back() {
        let g = graph(48, 15);
        let no_revive = ScheduleParams {
            process: ProcessKind::Random,
            rate: 0.1,
            rounds: 8,
            revive: 0.0,
            seed: 3,
        };
        let with_revive = ScheduleParams {
            revive: 0.5,
            ..no_revive
        };
        let dead_monotone = replay(&g, &plan_schedule(&g, &no_revive)).killed_vertices();
        let dead_revived = replay(&g, &plan_schedule(&g, &with_revive)).killed_vertices();
        assert!(
            dead_revived < dead_monotone,
            "revival must leave fewer vertices dead ({dead_revived} vs {dead_monotone})"
        );
        let revivals = plan_schedule(&g, &with_revive)
            .iter()
            .flat_map(|r| &r.events)
            .filter(|e| matches!(e, ChurnEvent::ReviveVertex(_)))
            .count();
        assert!(revivals > 0);
    }

    #[test]
    fn kill_budget_exhausts_gracefully() {
        let g = graph(10, 16);
        let params = ScheduleParams {
            process: ProcessKind::Random,
            rate: 0.5,
            rounds: 5,
            revive: 0.0,
            seed: 2,
        };
        let schedule = plan_schedule(&g, &params);
        let o = replay(&g, &schedule);
        assert_eq!(o.killed_vertices(), 10, "everything eventually dies");
        assert!(schedule.last().unwrap().events.is_empty());
    }

    #[test]
    fn process_names_round_trip() {
        for p in ProcessKind::all() {
            assert_eq!(ProcessKind::parse(p.name()), Some(*p));
        }
        assert_eq!(ProcessKind::parse("nope"), None);
    }
}
