//! Constructing many trees at once (Theorem 2, second assertion).
//!
//! Given a collection of trees in which every vertex appears at most `s`
//! times — exactly the situation the general-graph scheme creates, where
//! cluster trees overlap by `s = Õ(n^{1/k})` — pick `q = 1/√(sn)` and give
//! each tree a random start time from a window of `O(√(sn)·log n)` rounds.
//! All constructions then run concurrently: whp the total time is
//! `Õ(√(sn) + D)` rather than the naive `Õ(s·√n + D)`, and each vertex's
//! memory is the sum over the (at most `s`) trees containing it —
//! `O(s log n)` words.
//!
//! [`Schedule`] is that rule, written once: it owns `q`, the window and the
//! shared construction config, and charges each finished tree to the
//! caller's recorder and meter. The general-graph scheme (both its Theorem-2
//! row and the \[EN16b\]-style row) drives one over its cluster trees.

use congest::MemoryMeter;
use graphs::VertexId;
use rand::Rng;

use crate::distributed::{log2_ceil, Config};

/// The concurrent schedule of a set of tree constructions.
#[derive(Clone, Debug)]
pub struct Schedule {
    config: Config,
    window: u64,
    max_finish: u64,
}

impl Schedule {
    /// The schedule for trees inside an `n`-vertex network in which every
    /// vertex lies in at most `s` trees (`s = 0` counts as 1), all sharing
    /// one BFS backbone of depth `backbone_depth`: `q = 1/√(sn)` and a
    /// window of `(⌊√(sn)⌋ + 1)·⌈log₂ n⌉` rounds.
    pub fn new(n: usize, s: usize, backbone_depth: usize) -> Schedule {
        let root_sn = ((s.max(1) * n) as f64).sqrt();
        let log_n = log2_ceil(n.max(2)) as u64;
        Schedule {
            config: Config {
                q: Some((1.0 / root_sn).clamp(0.0, 1.0)),
                backbone_depth: Some(backbone_depth),
            },
            window: (root_sn as u64 + 1) * log_n.max(1),
            max_finish: 0,
        }
    }

    /// The config every tree is constructed with: the schedule's `q` and
    /// the shared backbone.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The window start offsets are drawn from (`0..=window`).
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Account one finished tree, whose members are `members` and whose run
    /// charged `tree_cost` and metered `tree_memory` (one slot per member):
    /// draw its start offset, charge its messages to `rec`, and fold its
    /// meter into `memory` as running concurrently with every other tree.
    pub fn charge_tree<R: Rng>(
        &mut self,
        rng: &mut R,
        members: &[VertexId],
        tree_cost: &obs::Counters,
        tree_memory: &MemoryMeter,
        rec: &mut obs::Recorder,
        memory: &mut MemoryMeter,
    ) {
        let offset = rng.gen_range(0..=self.window);
        self.max_finish = self.max_finish.max(offset + tree_cost.rounds);
        rec.charge_messages(tree_cost.messages);
        memory.merge_concurrent(members, tree_memory);
    }

    /// Charge the stage's rounds to `rec` and return them:
    /// `window + max_t (offset_t + rounds_t)`.
    pub fn close(self, rec: &mut obs::Recorder) -> u64 {
        let rounds = self.window + self.max_finish;
        rec.charge_rounds(rounds);
        rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::{self, Scratch, TreeRun};
    use crate::{router, tz};
    use congest::Network;
    use graphs::{generators, tree::shortest_path_tree, RootedTree};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// SPTs from several roots: every vertex is in every tree (overlap = s).
    fn spts(net: &Network, roots: &[u32]) -> Vec<RootedTree> {
        roots
            .iter()
            .map(|&r| shortest_path_tree(net.graph(), VertexId(r)))
            .collect()
    }

    /// Every tree on one shared backbone under one schedule with overlap
    /// bound `s`: the runs (every label asked for) and the network's
    /// recorder and meter.
    fn run_all(
        net: &Network,
        trees: &[RootedTree],
        s: usize,
        rng: &mut ChaCha8Rng,
    ) -> (Vec<TreeRun>, obs::Recorder, MemoryMeter) {
        let backbone = congest::bfs::build_bfs_tree(net, trees[0].root());
        let mut account = obs::Recorder::disabled();
        let mut memory = MemoryMeter::new(net.len());
        account.charge_rounds(backbone.stats.rounds);
        for v in net.graph().vertices() {
            memory.add(v, 3);
        }
        let mut schedule = Schedule::new(net.len(), s, backbone.depth);
        let mut scratch = Scratch::default();
        let disabled = &mut obs::Recorder::disabled();
        let mut runs = Vec::new();
        for t in trees {
            let every: Vec<usize> = (0..t.num_vertices()).collect();
            let run = scratch.run(net, t, schedule.config(), &every, rng, disabled);
            let (c, m) = (&run.cost, &run.memory);
            schedule.charge_tree(rng, t.members(), c, m, &mut account, &mut memory);
            runs.push(run);
        }
        schedule.close(&mut account);
        (runs, account, memory)
    }

    #[test]
    fn all_schemes_match_centralized() {
        let mut rng = ChaCha8Rng::seed_from_u64(101);
        let g = generators::erdos_renyi_connected(90, 0.05, 1..=9, &mut rng);
        let net = Network::new(g);
        let trees = spts(&net, &[0, 17, 44]);
        let (runs, _, _) = run_all(&net, &trees, 3, &mut rng);
        for (t, run) in trees.iter().zip(&runs) {
            let (scheme, want) = (run.scheme(t), tz::build(t));
            for v in t.vertices() {
                assert_eq!(scheme.table(v), want.table(v));
                assert_eq!(scheme.label(v), want.label(v));
            }
        }
    }

    #[test]
    fn schemes_route_exactly() {
        let mut rng = ChaCha8Rng::seed_from_u64(102);
        let g = generators::erdos_renyi_connected(50, 0.08, 1..=9, &mut rng);
        let net = Network::new(g);
        let trees = spts(&net, &[0, 25]);
        let (runs, _, _) = run_all(&net, &trees, 2, &mut rng);
        for (t, run) in trees.iter().zip(&runs) {
            router::verify_exactness(t, &run.scheme(t));
        }
    }

    #[test]
    fn memory_adds_across_trees() {
        let mut rng = ChaCha8Rng::seed_from_u64(103);
        let g = generators::erdos_renyi_connected(200, 0.03, 1..=9, &mut rng);
        let net = Network::new(g);
        let s = 4;
        let trees = spts(&net, &[0, 50, 100, 150]);
        let (_, _, memory) = run_all(&net, &trees, s, &mut rng);
        let log_n = log2_ceil(200);
        let bound = s * (18 + 7 * log_n);
        assert!(
            memory.max_peak() <= bound,
            "memory {} exceeds O(s log n) bound {}",
            memory.max_peak(),
            bound
        );
    }

    #[test]
    fn parallel_rounds_beat_sequential() {
        let mut rng = ChaCha8Rng::seed_from_u64(104);
        let g = generators::erdos_renyi_connected(300, 0.02, 1..=9, &mut rng);
        let net = Network::new(g);
        let roots: Vec<u32> = (0..8).map(|i| i * 37).collect();
        let trees = spts(&net, &roots);
        let (_, par, _) = run_all(&net, &trees, 8, &mut rng);
        // Sequential: sum of independent single-tree constructions at q=1/√n.
        let mut seq = 0u64;
        for t in &trees {
            let disabled = &mut obs::Recorder::disabled();
            let out = distributed::build(&net, t, &Config::default(), &mut rng, disabled);
            seq += out.cost.rounds;
        }
        assert!(
            par.totals().rounds < seq,
            "parallel {} should beat sequential {}",
            par.totals().rounds,
            seq
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        /// Whatever the trees, the stage is charged `window + max_t (offset_t
        /// + rounds_t)` with each offset drawn right after its tree's run,
        /// which is at most one window more than the slowest tree could need
        /// from its offset.
        #[test]
        fn charged_rounds_are_window_plus_latest_finish(
            sizes in proptest::collection::vec(1usize..80, 1..6),
            s in 0usize..8,
            depth in 0usize..12,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let host = 80;
            let net = Network::new(generators::star(host, 1..=1, &mut rng));
            let mut schedule = Schedule::new(host, s, depth);
            let window = schedule.window();
            let mut account = obs::Recorder::disabled();
            let mut memory = MemoryMeter::new(host);
            let (mut latest, mut slowest, mut messages) = (0, 0, 0);
            let mut scratch = Scratch::default();
            for size in sizes {
                let mut ids: Vec<VertexId> = (0..host as u32).map(VertexId).collect();
                ids.rotate_left(rng.gen_range(0..host));
                let t = graphs::tree::random_recursive_tree(host, &ids[..size], 9, &mut rng);
                let disabled = &mut obs::Recorder::disabled();
                let run = scratch.run(&net, &t, schedule.config(), &[], &mut rng, disabled);
                let offset = rng.clone().gen_range(0..=window);
                let (c, m) = (&run.cost, &run.memory);
                schedule.charge_tree(&mut rng, t.members(), c, m, &mut account, &mut memory);
                latest = latest.max(offset + run.cost.rounds);
                slowest = slowest.max(run.cost.rounds);
                messages += run.cost.messages;
            }
            let rounds = schedule.close(&mut account);
            proptest::prop_assert_eq!(rounds, window + latest);
            proptest::prop_assert!(rounds <= 2 * window + slowest);
            proptest::prop_assert_eq!(account.totals().rounds, rounds);
            proptest::prop_assert_eq!(account.totals().messages, messages);
        }
    }
}
