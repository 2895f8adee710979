//! The centralized Thorup–Zwick exact tree-routing construction.
//!
//! This is the "NA rounds" reference row of the paper's Table 2: tables of
//! `O(1)` words and labels of `O(log n)` words. The distributed construction
//! in [`crate::distributed`] reproduces *exactly these* tables and labels
//! (with identical tie-breaking), which is what its tests assert.

use graphs::{RootedTree, VertexId};

use crate::types::{TreeLabel, TreeScheme, TreeTable};

/// `head ++ tail`, allocated at its final size (light-edge lists end up in
/// labels, which outlive the construction).
pub(crate) fn concat(
    head: &[(VertexId, VertexId)],
    tail: &[(VertexId, VertexId)],
) -> Vec<(VertexId, VertexId)> {
    let mut list = Vec::with_capacity(head.len() + tail.len());
    list.extend_from_slice(head);
    list.extend_from_slice(tail);
    list
}

/// Pick the heavy child of the member with rank `r`: the child with the
/// largest subtree, ties broken toward the smaller vertex id (= smaller
/// rank). Deterministic so the distributed construction can match it exactly.
fn heavy_child(tree: &RootedTree, sizes: &[usize], r: usize) -> Option<usize> {
    tree.child_ranks(r)
        .iter()
        .map(|&c| c as usize)
        .max_by(|&a, &b| sizes[a].cmp(&sizes[b]).then(b.cmp(&a))) // ties: prefer the smaller id
}

/// Build the Thorup–Zwick scheme for `tree` centrally, in time and space
/// proportional to the tree (not its host).
///
/// DFS entry times are assigned in child order (ascending vertex id, the
/// order [`RootedTree::children`] stores), each child receiving a contiguous
/// block sized by its subtree.
///
/// # Examples
///
/// ```
/// use graphs::{tree, VertexId};
/// use tree_routing::tz;
///
/// let t = tree::path_tree(3, &[VertexId(0), VertexId(1), VertexId(2)], 1);
/// let scheme = tz::build(&t);
/// assert_eq!(scheme.max_table_words(), 4);
/// ```
pub fn build(tree: &RootedTree) -> TreeScheme {
    let m = tree.num_vertices();
    let members = tree.members();
    let sizes = tree.rank_subtree_sizes();
    let order = tree.preorder_ranks();
    let heavy: Vec<Option<usize>> = (0..m).map(|r| heavy_child(tree, &sizes, r)).collect();

    // DFS ranges: the root owns [1, size]; children take consecutive
    // sub-blocks after their parent's entry.
    let mut enter = vec![0u64; m];
    let root = tree.root_rank();
    enter[root] = 1;
    for &r in &order {
        let mut next = enter[r] + 1;
        for &c in tree.child_ranks(r) {
            enter[c as usize] = next;
            next += sizes[c as usize] as u64;
        }
    }

    // Labels, top-down: a child's light list extends its parent's.
    let mut labels: Vec<TreeLabel> = vec![
        TreeLabel {
            enter: 0,
            light: Vec::new(),
        };
        m
    ];
    for &r in &order {
        let light = match tree.parent_rank(r) {
            Some(p) => {
                // Preorder guarantees the parent is labeled first.
                let own = (heavy[p] != Some(r)).then_some((members[p], members[r]));
                concat(&labels[p].light, own.as_slice())
            }
            None => Vec::new(),
        };
        labels[r] = TreeLabel {
            enter: enter[r],
            light,
        };
    }
    let tables = (0..m)
        .map(|r| TreeTable {
            enter: enter[r],
            exit: enter[r] + sizes[r] as u64 - 1,
            parent: tree.parent_rank(r).map(|p| members[p]),
            heavy: heavy[r].map(|h| members[h]),
        })
        .collect();
    TreeScheme::from_parts(members.to_vec(), tables, labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest::WordSized;
    use graphs::tree::{path_tree, random_recursive_tree, star_tree};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn ids(n: u32) -> Vec<VertexId> {
        (0..n).map(VertexId).collect()
    }

    #[test]
    fn path_tree_has_no_light_edges() {
        let t = path_tree(5, &ids(5), 1);
        let s = build(&t);
        for v in t.vertices() {
            assert!(s.label(v).unwrap().light.is_empty());
        }
        assert_eq!(s.table(VertexId(0)).unwrap().enter, 1);
        assert_eq!(s.table(VertexId(0)).unwrap().exit, 5);
        assert_eq!(s.table(VertexId(4)).unwrap().heavy, None);
    }

    #[test]
    fn star_leaves_all_light_but_heavy() {
        let t = star_tree(6, &ids(6), 1);
        let s = build(&t);
        let heavy = s.table(VertexId(0)).unwrap().heavy.unwrap();
        // All leaves have equal size 1; tie-break picks the smallest id.
        assert_eq!(heavy, VertexId(1));
        for v in 1..6u32 {
            let label = s.label(VertexId(v)).unwrap();
            if VertexId(v) == heavy {
                assert!(label.light.is_empty());
            } else {
                assert_eq!(label.light.len(), 1);
                assert_eq!(label.light[0], (VertexId(0), VertexId(v)));
            }
        }
    }

    #[test]
    fn dfs_intervals_nest_properly() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let t = random_recursive_tree(60, &ids(60), 5, &mut rng);
        let s = build(&t);
        for v in t.vertices() {
            let tv = s.table(v).unwrap();
            // Interval length equals subtree size.
            assert_eq!(
                (tv.exit - tv.enter + 1) as usize,
                t.subtree_sizes()[v.index()]
            );
            if let Some(p) = t.parent(v) {
                let tp = s.table(p).unwrap();
                assert!(tp.enter < tv.enter && tv.exit <= tp.exit);
            }
            for &c in t.children(v) {
                let tc = s.table(c).unwrap();
                assert!(tv.enter < tc.enter && tc.exit <= tv.exit);
            }
        }
    }

    #[test]
    fn sibling_intervals_are_disjoint() {
        let mut rng = ChaCha8Rng::seed_from_u64(32);
        let t = random_recursive_tree(40, &ids(40), 5, &mut rng);
        let s = build(&t);
        for v in t.vertices() {
            let kids = t.children(v);
            for i in 0..kids.len() {
                for j in (i + 1)..kids.len() {
                    let a = s.table(kids[i]).unwrap();
                    let b = s.table(kids[j]).unwrap();
                    assert!(a.exit < b.enter || b.exit < a.enter);
                }
            }
        }
    }

    #[test]
    fn entry_times_are_unique_and_dense() {
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let t = random_recursive_tree(50, &ids(50), 5, &mut rng);
        let s = build(&t);
        let mut enters: Vec<u64> = t.vertices().map(|v| s.table(v).unwrap().enter).collect();
        enters.sort_unstable();
        assert_eq!(enters, (1..=50).collect::<Vec<u64>>());
    }

    #[test]
    fn light_edge_count_is_logarithmic() {
        let mut rng = ChaCha8Rng::seed_from_u64(34);
        for n in [10usize, 100, 500] {
            let t = random_recursive_tree(n, &ids(n as u32), 5, &mut rng);
            let s = build(&t);
            let log2n = (n as f64).log2().ceil() as usize;
            for v in t.vertices() {
                assert!(
                    s.label(v).unwrap().light.len() <= log2n,
                    "label light edges exceed log2(n)"
                );
            }
        }
    }

    #[test]
    fn label_words_bounded_by_log() {
        let mut rng = ChaCha8Rng::seed_from_u64(35);
        let t = random_recursive_tree(256, &ids(256), 5, &mut rng);
        let s = build(&t);
        assert!(s.max_label_words() <= 1 + 2 * 8);
        assert_eq!(s.max_table_words(), 4);
    }

    #[test]
    fn heavy_chain_covers_majority() {
        // On a path, the single child is always heavy.
        let t = path_tree(8, &ids(8), 1);
        let s = build(&t);
        for v in 0..7u32 {
            assert_eq!(s.table(VertexId(v)).unwrap().heavy, Some(VertexId(v + 1)));
        }
    }

    #[test]
    fn singleton_tree() {
        let t = star_tree(1, &ids(1), 1);
        let s = build(&t);
        let table = s.table(VertexId(0)).unwrap();
        assert_eq!((table.enter, table.exit), (1, 1));
        assert_eq!(table.heavy, None);
        assert_eq!(s.label(VertexId(0)).unwrap().words(), 1);
    }

    #[test]
    fn non_tree_vertices_have_no_entries() {
        // Tree on vertices {0, 2} of a 4-vertex host.
        let t = RootedTree::from_parents(
            VertexId(0),
            vec![None, None, Some(VertexId(0)), None],
            vec![0, 0, 1, 0],
        );
        let s = build(&t);
        assert!(s.table(VertexId(1)).is_none());
        assert!(s.label(VertexId(3)).is_none());
        assert!(s.table(VertexId(2)).is_some());
    }
}
