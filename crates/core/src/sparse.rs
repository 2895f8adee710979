//! Sparse per-tree storage.
//!
//! The scheme builds one cluster tree per vertex — thousands of trees whose
//! total membership is `Õ(n^{1+1/k})`, a few percent of `n · #trees`. Nothing
//! about a tree is ever sized by the host network: a [`SparseTree`] is keyed
//! by member vertex as the cluster growth produces it, and
//! [`SparseTree::to_rooted`] turns it into a [`RootedTree`], which stores the
//! members sorted by id and everything else by *rank* in that order. The
//! tree-routing stage runs on ranks and returns member-sorted
//! [`tree_routing::TreeScheme`]s, so the whole stage — and the assembly that
//! reads its output by rank — costs `O(|T| log |T|)` per tree.

use std::collections::HashMap;

use graphs::{RootedTree, VertexId, Weight};

/// A cluster tree of `G`: root, members, and per-member parent pointers.
#[derive(Clone, Debug)]
pub struct SparseTree {
    /// The cluster center (tree root).
    pub root: VertexId,
    /// The hierarchy level of the root (`root ∈ A_level \ A_{level+1}`).
    pub level: usize,
    /// Per member: `(parent, parent edge weight, distance estimate to root)`;
    /// the root maps to `(root, 0, 0)`.
    pub members: HashMap<VertexId, MemberInfo>,
}

/// Per-member tree data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemberInfo {
    /// Tree parent (self for the root).
    pub parent: VertexId,
    /// Weight of the parent edge (0 for the root).
    pub parent_weight: Weight,
    /// The estimate `b_root(v)` the construction derived (≥ true distance).
    pub dist: Weight,
}

impl SparseTree {
    /// Number of members (including the root).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the tree has no members (never true for built trees).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether `v` belongs to this tree.
    pub fn contains(&self, v: VertexId) -> bool {
        self.members.contains_key(&v)
    }

    /// Convert to a [`RootedTree`] inside a host universe of `host_n`, in
    /// `O(|T| log |T|)` whatever `host_n` is.
    ///
    /// # Panics
    ///
    /// Panics if a member's parent chain is inconsistent (caught by
    /// [`RootedTree::from_edges`]'s checks).
    pub fn to_rooted(&self, host_n: usize) -> RootedTree {
        let edges = self
            .members
            .iter()
            .filter(|(&v, _)| v != self.root)
            .map(|(&v, info)| (v, info.parent, info.parent_weight));
        RootedTree::from_edges(host_n, self.root, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_sparse() -> SparseTree {
        let mut members = HashMap::new();
        members.insert(
            VertexId(0),
            MemberInfo {
                parent: VertexId(0),
                parent_weight: 0,
                dist: 0,
            },
        );
        members.insert(
            VertexId(2),
            MemberInfo {
                parent: VertexId(0),
                parent_weight: 5,
                dist: 5,
            },
        );
        members.insert(
            VertexId(3),
            MemberInfo {
                parent: VertexId(2),
                parent_weight: 1,
                dist: 6,
            },
        );
        SparseTree {
            root: VertexId(0),
            level: 1,
            members,
        }
    }

    #[test]
    fn to_rooted_reconstructs_structure() {
        let st = path_sparse();
        let t = st.to_rooted(5);
        assert_eq!(t.root(), VertexId(0));
        assert_eq!(t.num_vertices(), 3);
        assert!(!t.contains(VertexId(1)));
        assert_eq!(t.parent(VertexId(3)), Some(VertexId(2)));
        assert_eq!(t.root_distance(VertexId(3)), Some(6));
    }

    #[test]
    fn membership_queries() {
        let st = path_sparse();
        assert_eq!(st.len(), 3);
        assert!(st.contains(VertexId(2)));
        assert!(!st.contains(VertexId(4)));
        assert!(!st.is_empty());
    }

    #[test]
    fn sparse_scheme_round_trips_members() {
        // The tree scheme of a 3-member tree in a host of 5 has 3 entries,
        // keyed by exactly the tree's members.
        let st = path_sparse();
        let scheme = tree_routing::tz::build(&st.to_rooted(5));
        assert_eq!(
            scheme.members(),
            [VertexId(0), VertexId(2), VertexId(3)].as_slice()
        );
        for v in (0..5).map(VertexId) {
            assert_eq!(scheme.table(v).is_some(), st.contains(v));
            assert_eq!(scheme.label(v).is_some(), st.contains(v));
        }
    }
}
