//! Sparse per-tree storage.
//!
//! The scheme builds one cluster tree per vertex — thousands of trees whose
//! total membership is `Õ(n^{1+1/k})`, a few percent of `n · #trees`. Nothing
//! about a tree is ever sized by the host network: a [`SparseTree`] is
//! member-sorted — members ascending by id, everything else by *rank* in that
//! order — the layout of [`RootedTree`] and [`tree_routing::TreeScheme`]. The
//! tree-routing stage runs on ranks and returns member-sorted tree schemes,
//! so the whole stage — and the assembly that zips its output with the
//! cluster rows by rank — costs `O(|T| log |T|)` per tree.

use graphs::{tree::rank_in, RootedTree, VertexId, Weight};

/// A cluster tree of `G`: root, members, and per-member parent pointers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SparseTree {
    /// The cluster center (tree root).
    pub root: VertexId,
    /// The hierarchy level of the root (`root ∈ A_level \ A_{level+1}`).
    pub level: usize,
    /// The members, strictly ascending by id.
    members: Vec<VertexId>,
    /// Per-member rows, by rank; the root's row is `(root, 0, 0)`.
    info: Vec<MemberInfo>,
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
    /// A tree from its members, strictly ascending by id, and their rows.
    pub fn new(
        root: VertexId,
        level: usize,
        members: Vec<VertexId>,
        info: Vec<MemberInfo>,
    ) -> Self {
        debug_assert_eq!(members.len(), info.len(), "one row per member");
        debug_assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "members must be strictly ascending"
        );
        SparseTree {
            root,
            level,
            members,
            info,
        }
    }

    /// Number of members (including the root).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the tree has no members (never true for built trees).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The members, ascending by id.
    pub fn members(&self) -> &[VertexId] {
        &self.members
    }

    /// The members' rows, by rank.
    pub fn info(&self) -> &[MemberInfo] {
        &self.info
    }

    /// `v`'s row, if `v` is a member.
    pub fn member(&self, v: VertexId) -> Option<&MemberInfo> {
        rank_in(&self.members, v).map(|r| &self.info[r])
    }

    /// Whether `v` belongs to this tree.
    pub fn contains(&self, v: VertexId) -> bool {
        rank_in(&self.members, v).is_some()
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
            .zip(&self.info)
            .filter(|&(&v, _)| v != self.root)
            .map(|(&v, info)| (v, info.parent, info.parent_weight));
        RootedTree::from_edges(host_n, self.root, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_sparse() -> SparseTree {
        let row = |parent, parent_weight, dist| MemberInfo {
            parent: VertexId(parent),
            parent_weight,
            dist,
        };
        SparseTree::new(
            VertexId(0),
            1,
            vec![VertexId(0), VertexId(2), VertexId(3)],
            vec![row(0, 0, 0), row(0, 5, 5), row(2, 1, 6)],
        )
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

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// A member-sorted tree converts without a sort into the tree its
        /// rows give in any order.
        #[test]
        fn to_rooted_matches_shuffled_rows(
            size in 1usize..150,
            host in 150usize..500,
            seed in 0u64..1_000_000,
        ) {
            use rand::seq::SliceRandom;
            use rand::SeedableRng;
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut verts: Vec<VertexId> = (0..host as u32).map(VertexId).collect();
            verts.shuffle(&mut rng);
            let t = graphs::tree::random_recursive_tree(host, &verts[..size], 9, &mut rng);
            let info = t
                .vertices()
                .map(|v| MemberInfo {
                    parent: t.parent(v).unwrap_or(v),
                    parent_weight: t.parent_weight(v),
                    dist: t.root_distance(v).expect("member"),
                })
                .collect();
            let st = SparseTree::new(t.root(), 0, t.members().to_vec(), info);
            let mut rows: Vec<_> = st
                .members()
                .iter()
                .zip(st.info())
                .filter(|&(&v, _)| v != st.root)
                .map(|(&v, m)| (v, m.parent, m.parent_weight))
                .collect();
            rows.shuffle(&mut rng);
            let shuffled = RootedTree::from_edges(host, st.root, rows);
            proptest::prop_assert_eq!(&st.to_rooted(host), &shuffled);
        }
    }

    #[test]
    fn membership_queries() {
        let st = path_sparse();
        assert_eq!(st.len(), 3);
        assert!(st.contains(VertexId(2)));
        assert!(!st.contains(VertexId(4)));
        assert!(!st.is_empty());
        assert_eq!(st.member(VertexId(3)).map(|m| m.dist), Some(6));
        assert_eq!(st.member(VertexId(1)), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_members_are_rejected() {
        let row = MemberInfo {
            parent: VertexId(0),
            parent_weight: 0,
            dist: 0,
        };
        SparseTree::new(
            VertexId(0),
            0,
            vec![VertexId(2), VertexId(0)],
            vec![row, row],
        );
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
