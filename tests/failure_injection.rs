//! Failure injection: corrupted or missing routing state must surface as
//! typed errors, never as panics or silent misrouting.

use graphs::{generators, tree, VertexId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing::forward::{self, GraphRouteError, Step};
use routing::scheme::TableEntry;
use routing::{build, packet, router, BuildParams, RoutingTable};
use traffic::sim::{simulate, DropPolicy, SimConfig};
use traffic::TrafficPacket;
use tree_routing::types::{RouteAction, TreeLabel};
use tree_routing::{router as tree_router, tz, RouteError};

fn tree_fixture() -> (graphs::RootedTree, tree_routing::TreeScheme) {
    let mut rng = ChaCha8Rng::seed_from_u64(3001);
    let g = generators::erdos_renyi_connected(50, 0.08, 1..=9, &mut rng);
    let t = tree::shortest_path_tree(&g, VertexId(0));
    let s = tz::build(&t);
    (t, s)
}

#[test]
fn tree_label_with_bogus_light_edge_errors() {
    let (t, s) = tree_fixture();
    // A label claiming a light edge to a vertex that is not a tree child.
    let victim = VertexId(30);
    let real = s.label(victim).unwrap().clone();
    let forged = TreeLabel {
        enter: real.enter,
        light: vec![(VertexId(0), VertexId(0))], // self-edge nonsense
    };
    let mut s2 = s.clone();
    *s2.label_mut(victim).unwrap() = forged;
    // Routing toward the forged label either errors or still delivers via
    // heavy edges (if the bogus edge is never consulted) — it must not panic
    // or deliver to the wrong vertex.
    match tree_router::route(&t, &s2, VertexId(7), victim) {
        Ok(trace) => assert_eq!(*trace.path.last().unwrap(), victim),
        Err(RouteError::BadForward { .. } | RouteError::Stuck(_) | RouteError::Loop) => {}
        Err(e) => panic!("unexpected error kind: {e}"),
    }
}

#[test]
fn tree_label_with_foreign_enter_time_errors() {
    let (t, s) = tree_fixture();
    let mut s2 = s.clone();
    // Entry time far outside the DFS range of the tree.
    *s2.label_mut(VertexId(20)).unwrap() = TreeLabel {
        enter: 10_000,
        light: vec![],
    };
    match tree_router::route(&t, &s2, VertexId(5), VertexId(20)) {
        Err(RouteError::Stuck(_)) => {}
        other => panic!("expected Stuck at the root, got {other:?}"),
    }
}

#[test]
fn tree_table_with_wrong_heavy_child_cannot_misdeliver() {
    let (t, s) = tree_fixture();
    let mut s2 = s.clone();
    // Corrupt an internal vertex's heavy pointer to a non-child.
    let internal = t
        .vertices()
        .find(|&v| !t.children(v).is_empty() && t.parent(v).is_some())
        .unwrap();
    s2.table_mut(internal).unwrap().heavy = Some(t.root());
    for target in t.vertices().take(10) {
        match tree_router::route(&t, &s2, t.root(), target) {
            Ok(trace) => assert_eq!(*trace.path.last().unwrap(), target),
            Err(RouteError::BadForward { .. } | RouteError::Loop | RouteError::Stuck(_)) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
}

#[test]
fn graph_scheme_with_deleted_table_entry_gets_stuck_not_lost() {
    let mut rng = ChaCha8Rng::seed_from_u64(3002);
    let g = generators::erdos_renyi_connected(60, 0.08, 1..=9, &mut rng);
    let built = build(&g, &BuildParams::new(2), &mut rng);
    let mut scheme = built.scheme.clone();
    // Find a working route, then delete an intermediate vertex's entry for
    // the committed tree.
    let trace = router::route(&g, &scheme, VertexId(0), VertexId(55)).unwrap();
    if trace.hops() >= 2 {
        let mid = trace.path[1];
        let mut rows = scheme.table(mid).rows().to_vec();
        rows.retain(|e| e.root != trace.tree_root);
        scheme.replace_table(mid, rows);
        match router::route_with(
            &g,
            &scheme,
            VertexId(0),
            VertexId(55),
            router::Selection::FirstValid,
        ) {
            // Either the source picked the broken tree and gets stuck at the
            // gap, or first-valid picked another tree and still delivers.
            Ok(t2) => assert_eq!(*t2.path.last().unwrap(), VertexId(55)),
            Err(router::GraphRouteError::Stuck(v)) => assert_eq!(v, mid),
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
}

#[test]
fn graph_scheme_with_empty_label_reports_no_common_tree() {
    let mut rng = ChaCha8Rng::seed_from_u64(3003);
    let g = generators::erdos_renyi_connected(40, 0.1, 1..=9, &mut rng);
    let built = build(&g, &BuildParams::new(2), &mut rng);
    let mut scheme = built.scheme.clone();
    scheme.replace_label(VertexId(25), Vec::new());
    match router::route(&g, &scheme, VertexId(0), VertexId(25)) {
        Err(router::GraphRouteError::NoCommonTree) => {}
        other => panic!("expected NoCommonTree, got {other:?}"),
    }
}

#[test]
fn forged_forwarding_cycle_is_reported_as_a_loop_on_every_plane() {
    let mut rng = ChaCha8Rng::seed_from_u64(3005);
    let g = generators::erdos_renyi_connected(60, 0.08, 1..=9, &mut rng);
    let built = build(&g, &BuildParams::new(2), &mut rng);
    let mut scheme = built.scheme.clone();
    // A route whose first two hops both climb the committed tree: point the
    // second vertex's parent back at the first, so the two tree neighbours
    // name each other as the way up and the message bounces between them.
    let parent_in = |scheme: &routing::RoutingScheme, v, root| scheme.entry(v, root)?.table.parent;
    let (src, dst, trace) = g
        .vertices()
        .flat_map(|s| g.vertices().map(move |t| (s, t)))
        .find_map(|(s, t)| {
            let trace = router::route(&g, &scheme, s, t).ok()?;
            let climbs = |i: usize| {
                parent_in(&scheme, trace.path[i], trace.tree_root) == Some(trace.path[i + 1])
            };
            (trace.hops() >= 2 && climbs(0) && climbs(1)).then_some((s, t, trace))
        })
        .expect("some route starts with two ascents");
    let mut rows = scheme.table(trace.path[1]).rows().to_vec();
    for e in &mut rows {
        if e.root == trace.tree_root {
            e.table.parent = Some(src);
        }
    }
    scheme.replace_table(trace.path[1], rows);

    assert_eq!(
        router::route(&g, &scheme, src, dst).unwrap_err(),
        GraphRouteError::Loop
    );

    let snap = serve::Snapshot::share(g.clone(), scheme.clone());
    let oracle = routing::oracle::DistanceOracle::new(&snap.scheme);
    let mut paths = Vec::new();
    for kind in [serve::QueryKind::Route, serve::QueryKind::Trace] {
        let q = serve::Query { kind, src, dst };
        let answer = serve::query::answer_query(&snap, &oracle, q, &mut paths);
        assert_eq!(answer, serve::Answer::Error, "{kind:?}");
        assert!(paths.is_empty(), "the partial path is discarded");
    }

    // Every plane of the store-and-forward protocol drops the packet as a
    // loop once it has taken `hop_cap` hops, which ends the run.
    let net = congest::Network::new(g.clone());
    let cap = forward::hop_cap(net.len());
    for traced in [false, true] {
        let opts = packet::SendOptions {
            trace: traced,
            profile: false,
        };
        let sent = packet::send(&net, &scheme, &[(src, dst)], opts);
        assert_eq!(
            sent.outcomes,
            [packet::PacketOutcome::Failed(GraphRouteError::Loop)]
        );
        assert_eq!(sent.stats.rounds, cap as u64, "dropped at the hop cap");
        assert!(sent.stats.completed);
        let partial = sent.traces[0]
            .as_ref()
            .map(|t| (t.hop_count(), t.delivered_round));
        assert_eq!(
            partial,
            traced.then_some((cap, None)),
            "the partial journey"
        );
    }

    // Beside a healthy packet that never meets the bouncing one.
    let (looping, bounce) = (src, trace.path[1]);
    let healthy = g
        .vertices()
        .flat_map(|s| g.vertices().map(move |t| (s, t)))
        .find_map(|(s, t)| {
            let route = router::route(&g, &scheme, s, t).ok()?;
            let clear = !route.path.iter().any(|&v| v == looping || v == bounce);
            (s != t && clear).then_some(((s, t), route.weight))
        })
        .expect("some route avoids the forged cycle");
    let sent = packet::send(
        &net,
        &scheme,
        &[(src, dst), healthy.0],
        packet::SendOptions::default(),
    );
    assert_eq!(
        sent.outcomes[0],
        packet::PacketOutcome::Failed(GraphRouteError::Loop)
    );
    assert_eq!(sent.delivery(1).map(|(_, w)| w), Some(healthy.1));
    assert_eq!(sent.stats.rounds, cap as u64, "dropped at the hop cap");
    assert!(sent.stats.completed);

    // And the steady-state plane: one injection, dropped as stuck.
    let plan = packet::plan(&scheme, src, dst).expect("a tree was shared");
    let sim = simulate(
        &net,
        &scheme,
        &[(0, src, TrafficPacket::from_plan(0, plan))],
        &SimConfig {
            queue_cap: 1,
            policy: DropPolicy::TailDrop,
            max_rounds: 100 * cap as u64,
            threads: 1,
            profile: false,
        },
    );
    assert!(sim.deliveries.is_empty());
    assert_eq!(sim.dropped_stuck, [0]);
    assert_eq!(sim.stuck_errors, [GraphRouteError::Loop]);
    assert_eq!(sim.stats.rounds, cap as u64, "dropped at the hop cap");
    assert!(sim.stats.completed);
    assert_eq!(sim.series[cap].dropped_stuck, 1);
}

#[test]
fn forged_forwarding_to_non_neighbor_is_caught() {
    // A malicious table whose heavy child is not even a graph neighbor: the
    // router validates each hop against the graph.
    let (t, s) = tree_fixture();
    let mut s2 = s.clone();
    let leafy = t.vertices().find(|&v| t.children(v).is_empty()).unwrap();
    s2.table_mut(leafy).unwrap().parent = Some(leafy); // self-parent: never a valid hop
                                                       // Route from the corrupted leaf to somewhere above it.
    match tree_router::route(&t, &s2, leafy, t.root()) {
        Ok(trace) => assert_eq!(*trace.path.last().unwrap(), t.root()),
        Err(RouteError::BadForward { from, .. }) => assert_eq!(from, leafy),
        Err(e) => panic!("unexpected error: {e}"),
    }
}

#[test]
fn route_step_never_panics_on_arbitrary_inputs() {
    // Exhaustive small-space sweep of the forwarding rule. Vertex 0 of a
    // path has exactly one port, to vertex 1.
    let g = generators::path(4, 1..=1, &mut ChaCha8Rng::seed_from_u64(3006));
    for enter in 0..6u64 {
        for exit in 0..6u64 {
            for target in 0..6u64 {
                let table = tree_routing::TreeTable {
                    enter,
                    exit,
                    parent: (enter % 2 == 0).then_some(VertexId(1)),
                    heavy: (exit % 2 == 0).then_some(VertexId(2)),
                };
                let label = TreeLabel {
                    enter: target,
                    light: vec![(VertexId(0), VertexId(3))],
                };
                let _ = tree_routing::types::route_step(VertexId(0), &table, &label);
                // The kernel on the same inputs, as the one row of a table
                // and again with that row missing: every arm answers with a
                // step or a typed error.
                let row = TableEntry {
                    root: VertexId(4),
                    level: 0,
                    dist: 0,
                    table,
                };
                let table = RoutingTable::from_rows(vec![row]);
                let ports = g.neighbors(VertexId(0));
                for root in [VertexId(4), VertexId(5)] {
                    match forward::step(&table, VertexId(0), root, &label, ports) {
                        Ok(Step::Deliver) => assert_eq!(target, enter),
                        Ok(Step::Forward { port, .. }) => assert!(port < ports.len()),
                        Err(GraphRouteError::Stuck(v)) => assert_eq!(v, VertexId(0)),
                        Err(GraphRouteError::BadForward { from, .. }) => {
                            assert_eq!(from, VertexId(0));
                        }
                        Err(e) => panic!("a single step cannot report {e}"),
                    }
                }
            }
        }
    }
    // And the action type is inspectable.
    let t = tree_routing::TreeTable {
        enter: 1,
        exit: 1,
        parent: None,
        heavy: None,
    };
    let l = TreeLabel {
        enter: 1,
        light: vec![],
    };
    assert_eq!(
        tree_routing::types::route_step(VertexId(0), &t, &l),
        Some(RouteAction::Deliver)
    );
}
