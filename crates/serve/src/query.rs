//! Queries, answers, the lean serving path, and the ground-truth check.
//!
//! The serving path is the [`routing::forward`] kernel with a visitor chosen
//! per query kind: route queries count hops and sum weight in registers,
//! trace queries write the path into a caller-owned arena. The central
//! router runs the same kernel, so agreeing with it would prove nothing;
//! [`check_answer`] instead holds every sampled answer to facts read
//! straight off the graph and the tables. The path (served, or replayed for
//! a route summary) must start at the source, end at the target, and be a
//! walk in `G` whose edges sum to the answered weight and whose length is
//! the answered hop count plus one; every vertex on it must hold a row for
//! the committed tree; that tree must be the cheapest (first on ties) of
//! the target's label entries the source shares, found by a direct scan —
//! and "unreachable" must mean the scan found none.

use graphs::{VertexId, Weight, INFINITY};
use routing::forward::{self, GraphRouteError, Selection};
use routing::oracle::DistanceOracle;

use crate::snapshot::Snapshot;

/// What a query asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryKind {
    /// Route summary: weight, hops, committed tree.
    Route,
    /// Distance estimate from the `2k − 1` oracle.
    Distance,
    /// Full hop-by-hop path.
    Trace,
}

/// One query: a kind and an endpoint pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Query {
    /// What the client asked for.
    pub kind: QueryKind,
    /// Source vertex.
    pub src: VertexId,
    /// Destination vertex.
    pub dst: VertexId,
}

/// One served answer. `Copy` and arena-indexed so batches of answers live
/// in flat reusable buffers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Answer {
    /// A completed route summary.
    Route {
        /// Total routed weight.
        weight: Weight,
        /// Edges traversed.
        hops: u32,
        /// Root of the committed tree.
        tree_root: VertexId,
        /// Hierarchy level of the chosen label entry.
        level: u32,
    },
    /// A distance estimate ([`INFINITY`] never appears here; that case is
    /// reported as [`Answer::Unreachable`]).
    Distance {
        /// The oracle's estimate.
        estimate: Weight,
    },
    /// A completed trace; the path lives in the batch arena at
    /// `paths[path_start .. path_start + path_len]`.
    Trace {
        /// Total routed weight.
        weight: Weight,
        /// Edges traversed.
        hops: u32,
        /// Root of the committed tree.
        tree_root: VertexId,
        /// Hierarchy level of the chosen label entry.
        level: u32,
        /// Offset of the path in the arena's path buffer.
        path_start: u32,
        /// Path length in vertices (hops + 1).
        path_len: u32,
    },
    /// The endpoints share no tree (disconnected pair).
    Unreachable,
    /// The forwarding walk failed (stuck rule, bad forward, loop) — a
    /// scheme-construction bug surfaced as a counted error, never a panic.
    Error,
}

impl From<GraphRouteError> for Answer {
    fn from(err: GraphRouteError) -> Answer {
        match err {
            GraphRouteError::NoCommonTree => Answer::Unreachable,
            _ => Answer::Error,
        }
    }
}

/// `(weight, hops, tree_root, level)` of a completed route.
type Routed = (Weight, u32, VertexId, u32);

/// Route `src → dst` through the kernel, feeding every visited vertex
/// (source included) to `visit`.
fn routed(
    snap: &Snapshot,
    src: VertexId,
    dst: VertexId,
    mut visit: impl FnMut(VertexId),
) -> Result<Routed, GraphRouteError> {
    if src == dst {
        visit(src);
        return Ok((0, 0, src, 0));
    }
    let header = forward::select(&snap.scheme, src, dst, Selection::SourceOptimal)
        .ok_or(GraphRouteError::NoCommonTree)?;
    let (weight, hops) = forward::walk(&snap.graph, &snap.scheme, src, &header, visit)?;
    Ok((weight, hops, header.entry.pivot, header.entry.level as u32))
}

/// Answer one query against the snapshot. Trace paths are appended to
/// `paths` (the serving thread's arena); all other answers touch no memory
/// beyond the tables themselves.
pub fn answer_query(
    snap: &Snapshot,
    oracle: &DistanceOracle<'_>,
    q: Query,
    paths: &mut Vec<VertexId>,
) -> Answer {
    match q.kind {
        QueryKind::Route => match routed(snap, q.src, q.dst, |_| {}) {
            Ok((weight, hops, tree_root, level)) => Answer::Route {
                weight,
                hops,
                tree_root,
                level,
            },
            Err(err) => err.into(),
        },
        QueryKind::Distance => {
            let estimate = oracle.query(q.src, q.dst);
            if estimate == INFINITY {
                Answer::Unreachable
            } else {
                Answer::Distance { estimate }
            }
        }
        QueryKind::Trace => {
            let path_start = paths.len() as u32;
            match routed(snap, q.src, q.dst, |v| paths.push(v)) {
                Ok((weight, hops, tree_root, level)) => Answer::Trace {
                    weight,
                    hops,
                    tree_root,
                    level,
                    path_start,
                    path_len: hops + 1,
                },
                Err(err) => {
                    paths.truncate(path_start as usize); // discard the partial path
                    err.into()
                }
            }
        }
    }
}

/// The sender's options by direct scan: `(pivot, level, estimate)` of every
/// entry of `dst`'s label whose tree `src` holds a row for, in label order.
fn shared_trees(
    snap: &Snapshot,
    src: VertexId,
    dst: VertexId,
) -> impl Iterator<Item = (VertexId, u32, Weight)> + '_ {
    snap.scheme.label(dst).rows().iter().filter_map(move |e| {
        let row = snap.scheme.entry(src, e.pivot)?;
        Some((e.pivot, e.level as u32, row.dist.saturating_add(e.dist)))
    })
}

/// Whether `path` with summary `routed` is a sound answer to `src → dst`
/// (see the module docs for the facts checked).
fn sound_route(
    snap: &Snapshot,
    src: VertexId,
    dst: VertexId,
    routed: Routed,
    path: &[VertexId],
) -> bool {
    let (weight, hops, tree_root, level) = routed;
    if src == dst {
        return routed == (0, 0, src, 0) && path == [src];
    }
    let edges: Option<Weight> = path
        .windows(2)
        .map(|e| snap.graph.edge_weight(e[0], e[1]))
        .sum();
    let committed = shared_trees(snap, src, dst).min_by_key(|&(_, _, cost)| cost);
    path.first() == Some(&src)
        && path.last() == Some(&dst)
        && path.len() == hops as usize + 1
        && edges == Some(weight)
        && path
            .iter()
            .all(|&v| snap.scheme.entry(v, tree_root).is_some())
        && committed.is_some_and(|(pivot, lvl, _)| (pivot, lvl) == (tree_root, level))
}

/// Hold `answer` to the ground truth of the graph and the tables (routes and
/// traces; see the module docs) or of the central [`DistanceOracle`]
/// (estimates). Returns `true` when the served answer stands.
pub fn check_answer(
    snap: &Snapshot,
    oracle: &DistanceOracle<'_>,
    q: Query,
    answer: Answer,
    paths: &[VertexId],
) -> bool {
    let shares_a_tree = || q.src == q.dst || shared_trees(snap, q.src, q.dst).next().is_some();
    match (q.kind, answer) {
        (
            QueryKind::Route,
            Answer::Route {
                weight,
                hops,
                tree_root,
                level,
            },
        ) => {
            // A summary carries no path: replay it, hold the replay to the
            // summary, and judge the replayed path.
            let served = (weight, hops, tree_root, level);
            let mut replay = Vec::with_capacity(hops as usize + 1);
            routed(snap, q.src, q.dst, |v| replay.push(v)) == Ok(served)
                && sound_route(snap, q.src, q.dst, served, &replay)
        }
        (
            QueryKind::Trace,
            Answer::Trace {
                weight,
                hops,
                tree_root,
                level,
                path_start,
                path_len,
            },
        ) => {
            let served = &paths[path_start as usize..(path_start + path_len) as usize];
            sound_route(snap, q.src, q.dst, (weight, hops, tree_root, level), served)
        }
        (QueryKind::Route | QueryKind::Trace, Answer::Unreachable) => !shares_a_tree(),
        // A failed walk has no path to judge; it stands if a tree was there
        // to commit to and the failure reproduces.
        (QueryKind::Route | QueryKind::Trace, Answer::Error) => {
            shares_a_tree() && routed(snap, q.src, q.dst, |_| {}).is_err()
        }
        (QueryKind::Distance, Answer::Distance { estimate }) => {
            estimate == oracle.query(q.src, q.dst)
        }
        (QueryKind::Distance, Answer::Unreachable) => oracle.query(q.src, q.dst) == INFINITY,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::Snapshot;
    use graphs::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use routing::scheme::{build, BuildParams};

    fn snap(n: usize, seed: u64) -> crate::SharedSnapshot {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::erdos_renyi_connected(n, 3.0 / n as f64, 1..=9, &mut rng);
        let built = build(&g, &BuildParams::new(2), &mut rng);
        Snapshot::share(g, built.scheme)
    }

    #[test]
    fn lean_route_matches_central_router_exactly() {
        let s = snap(60, 0x5E01);
        let oracle = DistanceOracle::new(&s.scheme);
        let mut paths = Vec::new();
        for a in 0..60u32 {
            let b = (a * 7 + 13) % 60;
            let q = Query {
                kind: QueryKind::Route,
                src: VertexId(a),
                dst: VertexId(b),
            };
            let ans = answer_query(&s, &oracle, q, &mut paths);
            assert!(check_answer(&s, &oracle, q, ans, &paths), "pair {a}->{b}");
            let central = routing::router::route(&s.graph, &s.scheme, q.src, q.dst).unwrap();
            assert_eq!(
                ans,
                Answer::Route {
                    weight: central.weight,
                    hops: central.hops() as u32,
                    tree_root: central.tree_root,
                    level: central.level as u32,
                }
            );
        }
    }

    #[test]
    fn trace_paths_land_in_the_arena() {
        let s = snap(40, 0x5E02);
        let oracle = DistanceOracle::new(&s.scheme);
        let mut paths = Vec::new();
        let q = Query {
            kind: QueryKind::Trace,
            src: VertexId(0),
            dst: VertexId(39),
        };
        let ans = answer_query(&s, &oracle, q, &mut paths);
        let Answer::Trace {
            hops,
            path_start,
            path_len,
            ..
        } = ans
        else {
            panic!("expected a trace, got {ans:?}");
        };
        assert_eq!(path_len, hops + 1);
        let served = &paths[path_start as usize..(path_start + path_len) as usize];
        assert_eq!(served.first(), Some(&VertexId(0)));
        assert_eq!(served.last(), Some(&VertexId(39)));
        assert!(check_answer(&s, &oracle, q, ans, &paths));
    }

    #[test]
    fn distance_estimate_matches_the_oracle() {
        let s = snap(50, 0x5E03);
        let oracle = DistanceOracle::new(&s.scheme);
        let mut paths = Vec::new();
        let q = Query {
            kind: QueryKind::Distance,
            src: VertexId(3),
            dst: VertexId(47),
        };
        match answer_query(&s, &oracle, q, &mut paths) {
            Answer::Distance { estimate } => {
                assert_eq!(estimate, oracle.query(VertexId(3), VertexId(47)));
            }
            other => panic!("expected an estimate, got {other:?}"),
        }
    }

    #[test]
    fn self_queries_are_trivial() {
        let s = snap(30, 0x5E04);
        let oracle = DistanceOracle::new(&s.scheme);
        let mut paths = Vec::new();
        for kind in [QueryKind::Route, QueryKind::Distance, QueryKind::Trace] {
            let q = Query {
                kind,
                src: VertexId(7),
                dst: VertexId(7),
            };
            let ans = answer_query(&s, &oracle, q, &mut paths);
            assert!(check_answer(&s, &oracle, q, ans, &paths), "{kind:?}");
        }
    }
}
