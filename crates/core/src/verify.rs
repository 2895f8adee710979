//! Self-checking a routing scheme against its graph.
//!
//! Adopters loading a persisted scheme (or receiving one from an untrusted
//! preprocessing service) can validate its structural invariants before
//! trusting it to route. The checks are those the test suite relies on,
//! packaged behind one call.

use std::collections::HashMap;

use graphs::{Graph, VertexId};

use crate::scheme::RoutingScheme;

/// A violated invariant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// The scheme's vertex count differs from the graph's.
    SizeMismatch {
        /// Vertices in the scheme.
        scheme: usize,
        /// Vertices in the graph.
        graph: usize,
    },
    /// A table's entries are not sorted by root (breaks lookup).
    UnsortedTable(VertexId),
    /// A table entry's parent pointer is not a graph neighbor.
    BadParent {
        /// The vertex holding the entry.
        vertex: VertexId,
        /// The offending tree root.
        root: VertexId,
    },
    /// A label entry references a tree the target has no table row for.
    DanglingLabel {
        /// The labeled vertex.
        vertex: VertexId,
        /// The referenced pivot/root.
        pivot: VertexId,
    },
    /// Two vertices in one tree share a DFS entry time.
    DuplicateEnter {
        /// The tree root.
        root: VertexId,
        /// The clashing entry time.
        enter: u64,
    },
    /// A vertex is missing its own (level-`ℓ(v)`) cluster entry.
    MissingOwnCluster(VertexId),
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::SizeMismatch { scheme, graph } => {
                write!(f, "scheme covers {scheme} vertices, graph has {graph}")
            }
            Violation::UnsortedTable(v) => write!(f, "table of {v} is not sorted by root"),
            Violation::BadParent { vertex, root } => {
                write!(f, "{vertex}'s parent in tree {root} is not a neighbor")
            }
            Violation::DanglingLabel { vertex, pivot } => {
                write!(f, "label of {vertex} references tree {pivot} it is not in")
            }
            Violation::DuplicateEnter { root, enter } => {
                write!(f, "tree {root} has two vertices with enter time {enter}")
            }
            Violation::MissingOwnCluster(v) => write!(f, "{v} lacks its own cluster entry"),
        }
    }
}

/// Check every structural invariant; returns all violations found (empty =
/// the scheme is well formed).
pub fn verify(g: &Graph, scheme: &RoutingScheme) -> Vec<Violation> {
    let mut out = Vec::new();
    let n = g.num_vertices();
    if scheme.num_vertices() != n {
        out.push(Violation::SizeMismatch {
            scheme: scheme.num_vertices(),
            graph: n,
        });
        return out;
    }
    // Per-tree DFS enter times for duplicate detection.
    let mut enters: HashMap<VertexId, HashMap<u64, VertexId>> = HashMap::new();
    for v in g.vertices() {
        let table = scheme.table(v);
        for w in table.rows().windows(2) {
            if w[0].root >= w[1].root {
                out.push(Violation::UnsortedTable(v));
                break;
            }
        }
        let mut has_self = false;
        for e in table.rows() {
            if e.root == v {
                has_self = true;
            }
            let (parent, enter) = (e.table.parent, e.table.enter);
            if let Some(p) = parent {
                if g.edge_weight(v, p).is_none() {
                    out.push(Violation::BadParent {
                        vertex: v,
                        root: e.root,
                    });
                }
            }
            if let Some(prev) = enters.entry(e.root).or_default().insert(enter, v) {
                if prev != v {
                    out.push(Violation::DuplicateEnter {
                        root: e.root,
                        enter,
                    });
                }
            }
        }
        if !has_self {
            out.push(Violation::MissingOwnCluster(v));
        }
        for e in scheme.label(v).rows() {
            if table.entry(e.pivot).is_none() {
                out.push(Violation::DanglingLabel {
                    vertex: v,
                    pivot: e.pivot,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{build, BuildParams};
    use graphs::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn built(n: usize, seed: u64) -> (Graph, RoutingScheme) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::erdos_renyi_connected(n, 3.0 / n as f64, 1..=9, &mut rng);
        let b = build(&g, &BuildParams::new(2), &mut rng);
        (g, b.scheme)
    }

    #[test]
    fn freshly_built_schemes_are_clean() {
        let (g, s) = built(100, 1201);
        assert!(verify(&g, &s).is_empty());
    }

    #[test]
    fn detects_unsorted_tables() {
        let (g, mut s) = built(60, 1203);
        let v = VertexId(5);
        let mut rows = s.table(v).rows().to_vec();
        rows.reverse();
        s.replace_table(v, rows);
        if s.table(v).rows().len() >= 2 {
            assert!(verify(&g, &s)
                .iter()
                .any(|x| matches!(x, Violation::UnsortedTable(u) if *u == v)));
        }
    }

    #[test]
    fn detects_missing_own_cluster() {
        let (g, mut s) = built(60, 1204);
        let v = VertexId(9);
        let mut rows = s.table(v).rows().to_vec();
        rows.retain(|e| e.root != v);
        s.replace_table(v, rows);
        assert!(verify(&g, &s)
            .iter()
            .any(|x| matches!(x, Violation::MissingOwnCluster(u) if *u == v)));
    }

    #[test]
    fn detects_dangling_labels() {
        let (g, mut s) = built(60, 1205);
        let v = VertexId(11);
        // Point a label entry at a tree v is not in.
        let foreign = (0..60u32)
            .map(VertexId)
            .find(|&w| s.entry(v, w).is_none())
            .unwrap();
        let mut rows = s.label(v).rows().to_vec();
        if let Some(e) = rows.first_mut() {
            e.pivot = foreign;
        }
        s.replace_label(v, rows);
        assert!(verify(&g, &s)
            .iter()
            .any(|x| matches!(x, Violation::DanglingLabel { vertex, .. } if *vertex == v)));
    }

    #[test]
    fn detects_size_mismatch() {
        // A scheme built for 60 vertices, checked against a 61-vertex graph.
        let (_, s) = built(60, 1206);
        let (g, _) = built(61, 1206);
        assert!(matches!(
            verify(&g, &s).first(),
            Some(Violation::SizeMismatch { .. })
        ));
    }

    #[test]
    fn detects_non_neighbor_parents() {
        let (g, mut s) = built(60, 1207);
        // Corrupt a parent pointer to a (very likely) non-neighbor.
        for v in g.vertices() {
            let candidates: Vec<VertexId> = g
                .vertices()
                .filter(|&u| u != v && g.edge_weight(u, v).is_none())
                .collect();
            let Some(&far) = candidates.first() else {
                continue;
            };
            let mut rows = s.table(v).rows().to_vec();
            if let Some(e) = rows.iter_mut().find(|e| e.table.parent.is_some()) {
                e.table.parent = Some(far);
                s.replace_table(v, rows);
                assert!(verify(&g, &s)
                    .iter()
                    .any(|x| matches!(x, Violation::BadParent { vertex, .. } if *vertex == v)));
                break;
            }
        }
    }
}
