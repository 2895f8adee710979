//! Verbatim copies of the hopset crate's hot paths as they were before they
//! ran on reused scratch, kept to pin the current code byte for byte: the
//! construction with one full Dijkstra per interconnecting and per top
//! vertex, the exploration that touches the meter on every improvement, and
//! the Bellman–Ford driver that clones its estimates every half-step.

use congest::MemoryMeter;
use graphs::{dist_add, shortest_paths, Graph, VertexId, Weight, INFINITY};
use rand::Rng;

use crate::bellman_ford::{BfOutput, LimitedBf, Via};
use crate::construction::{BuildStats, HopsetOutput, HopsetParams};
use crate::hopset::Hopset;
use crate::virtual_graph::{Exploration, VirtualGraph};

/// The hopset construction before balls.
pub(crate) fn build<R: Rng>(
    g: &Graph,
    virt: &VirtualGraph,
    params: HopsetParams,
    d: u64,
    rec: &mut obs::Recorder,
    memory: &mut MemoryMeter,
    rng: &mut R,
) -> HopsetOutput {
    let verts = virt.virtual_vertices();
    assert!(!verts.is_empty(), "virtual graph has no vertices");
    let m = verts.len();
    let levels = params.levels.max(1);
    let p = (m as f64).powf(-1.0 / (levels as f64 + 1.0));

    // Hierarchy: A_0 = V'; demote with probability p at each step.
    let mut hierarchy: Vec<Vec<VertexId>> = vec![verts.to_vec()];
    for _ in 0..levels {
        let prev = hierarchy.last().expect("non-empty");
        let next: Vec<VertexId> = prev
            .iter()
            .copied()
            .filter(|_| rng.gen_bool(p.clamp(0.0, 1.0)))
            .collect();
        hierarchy.push(next);
    }
    // The top level anchors everything; if sampling emptied it, promote the
    // last non-empty set (keeps the construction total on small inputs).
    if hierarchy.last().expect("non-empty").is_empty() {
        let last_nonempty = hierarchy
            .iter()
            .rposition(|a| !a.is_empty())
            .expect("A_0 is non-empty");
        hierarchy.truncate(last_nonempty + 1);
    }
    let levels = hierarchy.len() - 1;

    let mut hopset = Hopset::new(g.num_vertices());

    // Per-level membership flags for bunch tests.
    let mut member: Vec<Vec<bool>> = Vec::with_capacity(levels + 1);
    for a in &hierarchy {
        let mut f = vec![false; g.num_vertices()];
        for &v in a {
            f[v.index()] = true;
        }
        member.push(f);
    }

    let path_from = |parents: &[Option<VertexId>], src: VertexId, dst: VertexId| {
        let mut path = vec![dst];
        let mut cur = dst;
        while cur != src {
            cur = parents[cur.index()].expect("reachable");
            path.push(cur);
        }
        path.reverse();
        path
    };

    for i in 0..levels {
        // Pivot distances d(·, A_{i+1}) via a multi-source exploration.
        let super_span = rec.begin(&format!("hopset/L{i}/superclustering"));
        let (piv_dist, piv_owner) = shortest_paths::multi_source_dijkstra(g, &hierarchy[i + 1]);
        rec.charge_rounds(virt.b_hops() as u64);
        rec.charge_broadcast(hierarchy[i].len() as u64, d);
        rec.end_with_memory(super_span, memory.peaks());

        let inter_span = rec.begin(&format!("hopset/L{i}/interconnection"));
        let mut level_edges = 0u64;
        for &u in &hierarchy[i] {
            if member[i + 1][u.index()] {
                continue; // u survives to the next level
            }
            let (dist_u, parents_u) = shortest_paths::dijkstra_with_parents(g, u);
            let du_next = piv_dist[u.index()];
            // Bunch edges: strictly closer members of A_i than A_{i+1}.
            for &v in &hierarchy[i] {
                if v != u && dist_u[v.index()] < du_next {
                    let path = path_from(&parents_u, u, v);
                    hopset.add_edge(u, v, dist_u[v.index()], path);
                    level_edges += 1;
                }
            }
            // Pivot edge.
            if du_next != INFINITY {
                let pivot = piv_owner[u.index()].expect("finite pivot distance");
                debug_assert_eq!(dist_u[pivot.index()], du_next);
                let path = path_from(&parents_u, u, pivot);
                hopset.add_edge(u, pivot, du_next, path);
                level_edges += 1;
            }
            memory.set(u, hopset.memory_words(u) + 2 * (levels + 1));
        }
        rec.charge_broadcast(level_edges, d);
        rec.end_with_memory(inter_span, memory.peaks());
    }

    // Top level: intraconnect (oriented small-id → large-id).
    let intra_span = rec.begin("hopset/intraconnect");
    let top = &hierarchy[levels];
    let mut top_edges = 0u64;
    for (j, &u) in top.iter().enumerate() {
        if top.len() > 1 {
            let (dist_u, parents_u) = shortest_paths::dijkstra_with_parents(g, u);
            for &v in &top[j + 1..] {
                if dist_u[v.index()] != INFINITY {
                    let path = path_from(&parents_u, u, v);
                    hopset.add_edge(u, v, dist_u[v.index()], path);
                    top_edges += 1;
                }
            }
        }
        memory.set(u, hopset.memory_words(u) + 2 * (levels + 1));
    }
    rec.charge_rounds(virt.b_hops() as u64);
    rec.charge_broadcast(top_edges, d);
    rec.end_with_memory(intra_span, memory.peaks());

    let stats = BuildStats {
        level_sizes: hierarchy.iter().map(Vec::len).collect(),
        edges: hopset.num_edges(),
        arboricity: hopset.max_out_degree(),
    };
    HopsetOutput { hopset, stats }
}

/// The bounded exploration before its meter pass.
pub(crate) fn bounded_exploration(
    virt: &VirtualGraph,
    g: &Graph,
    seeds: &[(VertexId, Weight)],
    limit: &dyn Fn(VertexId, Weight) -> bool,
    rec: &mut obs::Recorder,
    memory: &mut MemoryMeter,
) -> Exploration {
    let n = g.num_vertices();
    let mut dist = vec![INFINITY; n];
    let mut parent: Vec<Option<VertexId>> = vec![None; n];
    let mut origin: Vec<Option<VertexId>> = vec![None; n];
    // `queued` flags exactly the vertices in `frontier`; each round
    // clears its frontier's flags and reads its round-start values.
    let mut queued = vec![false; n];
    let mut frontier: Vec<VertexId> = Vec::new();
    for &(s, val) in seeds {
        if val < dist[s.index()] {
            dist[s.index()] = val;
            origin[s.index()] = Some(s);
            if !queued[s.index()] {
                queued[s.index()] = true;
                frontier.push(s);
            }
        }
    }
    let mut next: Vec<VertexId> = Vec::new();
    let mut snapshot: Vec<Weight> = Vec::new();
    for _ in 0..virt.b_hops() {
        if frontier.is_empty() {
            break;
        }
        snapshot.clear();
        for &u in &frontier {
            queued[u.index()] = false;
            snapshot.push(dist[u.index()]);
        }
        for (&u, &du) in frontier.iter().zip(&snapshot) {
            // Non-seed vertices only relay while under their limit.
            let is_seed = origin[u.index()] == Some(u);
            if !is_seed && !limit(u, du) {
                continue;
            }
            for arc in g.neighbors(u) {
                let nd = dist_add(du, arc.weight);
                if nd < dist[arc.to.index()] {
                    memory.touch(arc.to, 2);
                    dist[arc.to.index()] = nd;
                    parent[arc.to.index()] = Some(u);
                    origin[arc.to.index()] = origin[u.index()];
                    if !queued[arc.to.index()] {
                        queued[arc.to.index()] = true;
                        next.push(arc.to);
                    }
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
    }
    rec.charge_rounds(virt.b_hops() as u64);
    Exploration {
        dist,
        parent,
        origin,
    }
}

/// The Bellman–Ford driver before its offer lists.
pub(crate) fn run(
    bf: &LimitedBf,
    roots: &[(VertexId, Weight)],
    limit: &dyn Fn(VertexId, Weight) -> bool,
    max_iters: usize,
    d: u64,
    rec: &mut obs::Recorder,
    memory: &mut MemoryMeter,
) -> BfOutput {
    assert!(max_iters > 0, "need at least one iteration");
    let n = bf.g.num_vertices();
    let mut est = vec![INFINITY; n];
    let mut via = vec![Via::Seed; n];
    let mut origin: Vec<Option<VertexId>> = vec![None; n];
    for &(r, v0) in roots {
        if v0 < est[r.index()] {
            est[r.index()] = v0;
            origin[r.index()] = Some(r);
        }
    }

    let mut beta_used = 0;
    let mut last_exploration = Exploration {
        dist: vec![INFINITY; n],
        parent: vec![None; n],
        origin: vec![None; n],
    };
    for _ in 0..max_iters {
        beta_used += 1;
        let mut changed = false;

        // ---- E'-step: one B-bounded exploration seeded by all finite,
        // unclipped estimates (roots always speak).
        let is_root = |v: VertexId| roots.iter().any(|&(r, _)| r == v);
        let seeds: Vec<(VertexId, Weight)> =
            bf.g.vertices()
                .filter(|&v| est[v.index()] != INFINITY)
                .filter(|&v| is_root(v) || limit(v, est[v.index()]))
                .map(|v| (v, est[v.index()]))
                .collect();
        let explo = bounded_exploration(bf.virt, bf.g, &seeds, limit, rec, memory);
        let origin_snapshot = origin.clone();
        for &x in bf.virt.virtual_vertices() {
            let heard = explo.dist[x.index()];
            if heard < est[x.index()] {
                est[x.index()] = heard;
                via[x.index()] = Via::Bounded;
                origin[x.index()] =
                    explo.origin[x.index()].and_then(|seed| origin_snapshot[seed.index()]);
                changed = true;
            }
        }
        last_exploration = explo;

        // ---- H-step: broadcast estimates + out-records; relax both ways.
        let mut msgs = 0u64;
        let snapshot = est.clone();
        let origin_snapshot = origin.clone();
        for &u in bf.virt.virtual_vertices() {
            if snapshot[u.index()] == INFINITY || !limit(u, snapshot[u.index()]) {
                continue;
            }
            msgs += 1 + bf.hopset.out_edges(u).len() as u64;
            for (j, e) in bf.hopset.out_edges(u).iter().enumerate() {
                memory.touch(e.to, 2);
                // Forward: u's estimate reaches e.to.
                let fwd = dist_add(snapshot[u.index()], e.weight);
                if fwd < est[e.to.index()] {
                    est[e.to.index()] = fwd;
                    via[e.to.index()] = Via::Hopset {
                        owner: u,
                        index: j,
                        reversed: false,
                    };
                    origin[e.to.index()] = origin_snapshot[u.index()];
                    changed = true;
                }
                // Reverse: e.to's estimate reaches u, provided e.to may
                // speak (it hears its own edge in u's announcement).
                if snapshot[e.to.index()] != INFINITY && limit(e.to, snapshot[e.to.index()]) {
                    let rev = dist_add(snapshot[e.to.index()], e.weight);
                    if rev < est[u.index()] {
                        est[u.index()] = rev;
                        via[u.index()] = Via::Hopset {
                            owner: u,
                            index: j,
                            reversed: true,
                        };
                        origin[u.index()] = origin_snapshot[e.to.index()];
                        changed = true;
                    }
                }
            }
        }
        rec.charge_broadcast(msgs, d);

        if !changed {
            break;
        }
    }

    BfOutput {
        est,
        via,
        origin,
        beta_used,
        last_exploration,
    }
}
