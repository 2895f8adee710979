//! The routing phase: hop-by-hop forwarding driven only by tables and labels.
//!
//! This module *is the correctness check* for every tree scheme in the crate:
//! a message starting at `src` carrying `Label(dst)` must traverse exactly
//! the unique `src → dst` tree path.

use std::fmt;

use graphs::{RootedTree, VertexId, Weight};

use crate::types::{route_step, RouteAction, TreeScheme};

/// The path a routed message took.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteTrace {
    /// Vertices visited, starting with the source and ending with the target.
    pub path: Vec<VertexId>,
    /// Total weight of traversed tree edges.
    pub weight: Weight,
}

impl RouteTrace {
    /// Number of edges traversed.
    pub fn hops(&self) -> usize {
        self.path.len() - 1
    }
}

/// Why routing failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RouteError {
    /// The source is not in the tree (has no table).
    SourceNotInTree(VertexId),
    /// The destination is not in the tree (has no label).
    TargetNotInTree(VertexId),
    /// The forwarding rule got stuck at this vertex.
    Stuck(VertexId),
    /// A vertex forwarded to a non-neighbor or a vertex with no table.
    BadForward { from: VertexId, to: VertexId },
    /// Took `2·h + 2` hops without delivering, where `h` is the tree's
    /// [`RootedTree::host_len`] — a forwarding loop.
    Loop,
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::SourceNotInTree(v) => write!(f, "source {v} is not in the tree"),
            RouteError::TargetNotInTree(v) => write!(f, "target {v} is not in the tree"),
            RouteError::Stuck(v) => write!(f, "forwarding rule stuck at {v}"),
            RouteError::BadForward { from, to } => {
                write!(f, "{from} forwarded to invalid next hop {to}")
            }
            RouteError::Loop => write!(f, "forwarding loop detected"),
        }
    }
}

impl std::error::Error for RouteError {}

/// Route a message from `src` to `dst` through `tree` using `scheme`.
///
/// Every forwarding decision uses only the current vertex's table and the
/// target's label, exactly as the model prescribes. The `tree` argument is
/// used solely to verify each hop is a real tree edge and to price it.
///
/// # Errors
///
/// Returns a [`RouteError`] if either endpoint is missing from the scheme,
/// the rule gets stuck, a hop is not a tree edge, or a loop arises.
///
/// # Examples
///
/// ```
/// use graphs::{tree, VertexId};
/// use tree_routing::{router, tz};
///
/// let t = tree::star_tree(4, &[VertexId(0), VertexId(1), VertexId(2), VertexId(3)], 2);
/// let s = tz::build(&t);
/// let trace = router::route(&t, &s, VertexId(1), VertexId(3)).unwrap();
/// assert_eq!(trace.path, vec![VertexId(1), VertexId(0), VertexId(3)]);
/// assert_eq!(trace.weight, 4);
/// ```
pub fn route(
    tree: &RootedTree,
    scheme: &TreeScheme,
    src: VertexId,
    dst: VertexId,
) -> Result<RouteTrace, RouteError> {
    let table = |v| scheme.table(v);
    walk(tree, (src, dst), table, scheme.label(dst), route_step)
}

/// The one single-tree walk every tree scheme routes with, from `src` toward
/// `dst`, whose label is `label`: `table(v)` is `v`'s table (`None` outside
/// the scheme) and `step` the scheme's forwarding rule. Every hop must be a
/// tree edge to a vertex with a table, and is priced by the tree edge's
/// weight.
pub(crate) fn walk<'s, T: 's, L>(
    tree: &RootedTree,
    (src, dst): (VertexId, VertexId),
    table: impl Fn(VertexId) -> Option<&'s T>,
    label: Option<&L>,
    step: impl Fn(VertexId, &T, &L) -> Option<RouteAction>,
) -> Result<RouteTrace, RouteError> {
    let mut at = table(src).ok_or(RouteError::SourceNotInTree(src))?;
    let label = label.ok_or(RouteError::TargetNotInTree(dst))?;
    let mut path = vec![src];
    let mut weight = 0;
    let mut cur = src;
    let cap = 2 * tree.host_len() + 2;
    loop {
        if path.len() > cap {
            return Err(RouteError::Loop);
        }
        match step(cur, at, label).ok_or(RouteError::Stuck(cur))? {
            RouteAction::Deliver => return Ok(RouteTrace { path, weight }),
            RouteAction::Forward(next) => {
                // Validate the hop is a genuine tree edge.
                let up = tree.parent(cur) == Some(next);
                let is_edge = up || tree.parent(next) == Some(cur);
                at = table(next)
                    .filter(|_| is_edge)
                    .ok_or(RouteError::BadForward {
                        from: cur,
                        to: next,
                    })?;
                weight += tree.parent_weight(if up { cur } else { next });
                path.push(next);
                cur = next;
            }
        }
    }
}

/// Route between every ordered pair of tree vertices and assert exactness
/// against [`RootedTree::tree_distance`]. Returns the number of pairs
/// checked. Intended for tests; cost is O(n² · depth).
///
/// # Panics
///
/// Panics on the first pair whose routed weight differs from the tree
/// distance, or on any routing error.
pub fn verify_exactness(tree: &RootedTree, scheme: &TreeScheme) -> usize {
    let verts: Vec<VertexId> = tree.vertices().collect();
    let mut pairs = 0;
    for &u in &verts {
        for &v in &verts {
            let trace = route(tree, scheme, u, v)
                .unwrap_or_else(|e| panic!("routing {u} -> {v} failed: {e}"));
            let want = tree.tree_distance(u, v).expect("both are members");
            assert_eq!(
                trace.weight, want,
                "stretch violation routing {u} -> {v}: got {} want {want}",
                trace.weight
            );
            pairs += 1;
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tz;
    use graphs::tree::{path_tree, random_recursive_tree, star_tree};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn ids(n: u32) -> Vec<VertexId> {
        (0..n).map(VertexId).collect()
    }

    #[test]
    fn routes_exactly_on_random_trees() {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        for n in [1usize, 2, 7, 40] {
            let t = random_recursive_tree(n, &ids(n as u32), 6, &mut rng);
            let s = tz::build(&t);
            let pairs = verify_exactness(&t, &s);
            assert_eq!(pairs, n * n);
        }
    }

    #[test]
    fn route_to_self_is_empty() {
        let t = path_tree(4, &ids(4), 3);
        let s = tz::build(&t);
        let trace = route(&t, &s, VertexId(2), VertexId(2)).unwrap();
        assert_eq!(trace.path, vec![VertexId(2)]);
        assert_eq!(trace.weight, 0);
        assert_eq!(trace.hops(), 0);
    }

    #[test]
    fn path_tree_routes_along_the_path() {
        let t = path_tree(6, &ids(6), 2);
        let s = tz::build(&t);
        let trace = route(&t, &s, VertexId(5), VertexId(1)).unwrap();
        assert_eq!(trace.path.len(), 5);
        assert_eq!(trace.weight, 8);
    }

    #[test]
    fn star_routes_through_center() {
        let t = star_tree(5, &ids(5), 1);
        let s = tz::build(&t);
        let trace = route(&t, &s, VertexId(4), VertexId(2)).unwrap();
        assert_eq!(trace.path, vec![VertexId(4), VertexId(0), VertexId(2)]);
    }

    #[test]
    fn missing_endpoints_error() {
        // Tree on {0, 2} in a host of 3.
        let t = RootedTree::from_parents(
            VertexId(0),
            vec![None, None, Some(VertexId(0))],
            vec![0, 0, 1],
        );
        let s = tz::build(&t);
        assert_eq!(
            route(&t, &s, VertexId(1), VertexId(0)),
            Err(RouteError::SourceNotInTree(VertexId(1)))
        );
        assert_eq!(
            route(&t, &s, VertexId(0), VertexId(1)),
            Err(RouteError::TargetNotInTree(VertexId(1)))
        );
    }

    #[test]
    fn hops_counts_edges() {
        let t = path_tree(3, &ids(3), 5);
        let s = tz::build(&t);
        let trace = route(&t, &s, VertexId(0), VertexId(2)).unwrap();
        assert_eq!(trace.hops(), 2);
    }
}
