//! Integration tests for the scheme observatory (`routing::audit`):
//!
//! * the audit is **read-only** — the scheme's serialized bytes are
//!   identical before and after (and across) audits;
//! * it is **deterministic** — the same graph, scheme, and config produce
//!   the same outcome however often the scheme is rebuilt, and auditing
//!   twice changes nothing;
//! * the component attribution **sums exactly** to the per-vertex resident
//!   words the construction charged to its memory meter — property-tested
//!   over random graphs, not just fixed seeds;
//! * attribution survives a [`routing::persist`] save/load round trip
//!   byte-for-byte, so audits of a freshly built scheme and of the scheme
//!   reloaded from disk agree on every number they both compute.

use graphs::{generators, Graph, GraphBuilder, VertexId};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing::audit::{self, AuditConfig, Component, PerturbSpec};
use routing::{build, persist, BuildParams, Built};

fn seed_built(n: usize, seed: u64) -> (Graph, Built) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = generators::erdos_renyi_connected(n, 3.0 / n as f64, 1..=9, &mut rng);
    let b = build(&g, &BuildParams::new(2), &mut rng);
    (g, b)
}

#[test]
fn audit_is_deterministic_across_build_thread_counts() {
    let cfg = AuditConfig::default();
    // The engine is serial, so "any thread count" means any rebuild.
    let baseline = seed_built(140, 411);
    let base_audit = audit::audit_built(&baseline.0, &baseline.1, &cfg);
    assert!(base_audit.ok());
    let (g, b) = seed_built(140, 411);
    let out = audit::audit_built(&g, &b, &cfg);
    assert_eq!(out, base_audit, "audit outcome drifted on a rebuild");
}

#[test]
fn auditing_twice_is_idempotent_and_mutation_free() {
    let (g, b) = seed_built(110, 412);
    let before = persist::encode_scheme(&b.scheme).unwrap();
    let cfg = AuditConfig::default();
    let first = audit::audit_built(&g, &b, &cfg);
    let second = audit::audit_built(&g, &b, &cfg);
    assert_eq!(first, second);
    // The perturbation probe reads the same scheme; it must not mutate it
    // either.
    let spec = PerturbSpec {
        kill_edges: 0.3,
        kill_vertices: 0.1,
        seed: 17,
    };
    let p1 = audit::probe_perturbed(&g, &b.scheme, &cfg, &spec, first.probe.mean_stretch);
    let p2 = audit::probe_perturbed(&g, &b.scheme, &cfg, &spec, first.probe.mean_stretch);
    assert_eq!(p1, p2);
    let after = persist::encode_scheme(&b.scheme).unwrap();
    assert_eq!(before, after, "auditing changed the scheme's bytes");
}

#[test]
fn attribution_survives_persistence_round_trip() {
    let (g, b) = seed_built(130, 413);
    let cfg = AuditConfig::default();
    let fresh = audit::audit_built(&g, &b, &cfg);
    assert!(fresh.ok());

    let bytes = persist::encode_scheme(&b.scheme).unwrap();
    let loaded = persist::decode_scheme(&bytes).unwrap();
    let reloaded = audit::audit(&g, &loaded, &cfg);

    // Byte-identical attribution: same per-component split, same resident
    // words, exact on both sides.
    assert_eq!(reloaded.attribution, fresh.attribution);
    assert_eq!(reloaded.probe, fresh.probe);
    // Built-only context is gone after a reload, but nothing the two audits
    // both compute may disagree.
    assert!(!reloaded.meter_checked);
    for check in &reloaded.invariants {
        let counterpart = fresh.invariants.iter().find(|c| c.name == check.name);
        assert_eq!(
            counterpart,
            Some(check),
            "{} diverged after reload",
            check.name
        );
    }
    assert!(reloaded.ok());
}

#[test]
fn component_split_matches_scheme_records() {
    let (g, b) = seed_built(150, 414);
    let att = audit::attribution(&b.scheme);
    assert!(att.exact);
    // Spot-check the split against the raw structures at a few vertices.
    for v in [0usize, 50, 149] {
        let split = att.per_vertex[v];
        let v = VertexId(v as u32);
        assert_eq!(split[0], 3 * b.scheme.table(v).rows().len());
        assert_eq!(split[2], 3 * b.scheme.label(v).rows().len());
        assert_eq!(split[4], 2 * b.scheme.pivots(v).len());
        assert_eq!(split.iter().sum::<usize>(), b.scheme.resident_words(v));
    }
    let _ = g;
}

#[test]
fn perturbed_probe_counts_are_consistent() {
    let (g, b) = seed_built(120, 415);
    let cfg = AuditConfig::default();
    let intact = audit::audit_built(&g, &b, &cfg);
    for (ke, kv) in [(0.15, 0.0), (0.0, 0.2), (0.25, 0.1)] {
        let spec = PerturbSpec {
            kill_edges: ke,
            kill_vertices: kv,
            seed: 31,
        };
        let p = audit::probe_perturbed(&g, &b.scheme, &cfg, &spec, intact.probe.mean_stretch);
        assert_eq!(p.killed_edges + p.surviving_edges, g.num_edges());
        let q = &p.probe;
        assert!(q.connected <= q.pairs);
        assert_eq!(
            q.delivered + q.no_common_tree + q.stuck + q.bad_forward + q.looped,
            q.connected,
            "probe outcomes must partition connected pairs"
        );
        assert!(q.reachability() >= 0.0 && q.reachability() <= 1.0);
        // The record layer re-checks the same identities on parse.
        let record = intact.to_record(Some(&p));
        let parsed = obs::audit::SchemeAudit::from_value(
            &obs::json::parse(&record.to_value().to_string()).unwrap(),
        )
        .unwrap();
        assert_eq!(parsed, record);
    }
}

/// A connected random weighted graph from a compact proptest description:
/// a random spanning tree plus extra edges (same idiom as
/// `tests/properties.rs`).
fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (8..max_n)
        .prop_flat_map(|n| {
            let tree_parents = proptest::collection::vec(0..u32::MAX, n - 1);
            let tree_weights = proptest::collection::vec(1u64..50, n - 1);
            let extras = proptest::collection::vec((0..u32::MAX, 0..u32::MAX, 1u64..50), 0..n);
            (Just(n), tree_parents, tree_weights, extras)
        })
        .prop_map(|(n, parents, weights, extras)| {
            let mut b = GraphBuilder::new(n);
            for v in 1..n {
                let p = (parents[v - 1] as usize) % v;
                b.add_edge(VertexId(p as u32), VertexId(v as u32), weights[v - 1]);
            }
            for (x, y, w) in extras {
                let u = (x as usize) % n;
                let v = (y as usize) % n;
                if u != v && !b.has_edge(VertexId(u as u32), VertexId(v as u32)) {
                    b.add_edge(VertexId(u as u32), VertexId(v as u32), w);
                }
            }
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// On any connected graph: the component attribution reconciles
    /// exactly, every resident word was charged to the meter, and a
    /// freshly built scheme audits clean.
    #[test]
    fn audit_invariants_hold_on_random_graphs(g in arb_graph(48), seed in 0u64..1000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let b = build(&g, &BuildParams::new(2), &mut rng);
        let att = audit::attribution(&b.scheme);
        prop_assert!(att.exact);
        for v in g.vertices() {
            let total: usize = att.per_vertex[v.index()].iter().sum();
            prop_assert_eq!(total, b.scheme.resident_words(v));
        }
        prop_assert_eq!(b.report.memory.first_undershoot(&att.resident), None);
        let out = audit::audit_built(&g, &b, &AuditConfig::default());
        prop_assert_eq!(out.total_violations(), 0);
        // Small n: the probe must have swept every ordered pair.
        prop_assert!(out.probe.full_sweep);
        let n = g.num_vertices() as u64;
        prop_assert_eq!(out.probe.pairs, n * (n - 1));
    }

    /// Component totals in the serialized record match the in-memory
    /// attribution on any audited scheme.
    #[test]
    fn record_component_totals_match_attribution(g in arb_graph(40), seed in 0u64..1000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let b = build(&g, &BuildParams::new(2), &mut rng);
        let out = audit::audit_built(&g, &b, &AuditConfig::default());
        let record = out.to_record(None);
        for &c in &Component::ALL {
            let stat = record.components.iter().find(|s| s.name == c.name()).unwrap();
            let expected: u64 = out.attribution.component_words(c).iter().sum();
            prop_assert_eq!(stat.total, expected);
            prop_assert!(stat.resident);
        }
        prop_assert_eq!(record.resident_total, out.attribution.resident_total());
    }
}
