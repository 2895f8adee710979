//! Rooted trees: the object the Section-3 tree-routing scheme operates on.
//!
//! A [`RootedTree`] lives *inside* a host network `G`: its vertex set is a
//! subset of `V(G)` and its edges are edges of `G`. The tree-routing problem
//! (paper §3) is: given `G` with hop-diameter `D` and a spanning (or partial)
//! tree `T`, compute exact routing tables for `T` fast in `G` — exploiting
//! that `D` is typically much smaller than the depth of `T`.

use crate::graph::{Graph, VertexId, Weight};
use crate::shortest_paths::dijkstra_with_parents;
use rand::Rng;

/// Rank of `v` in `members`, which must be sorted ascending and duplicate
/// free: a binary search, or the identity when the members are exactly
/// `0..len` (a spanning tree — the common case outside the cluster trees).
#[inline]
pub fn rank_in(members: &[VertexId], v: VertexId) -> Option<usize> {
    if members
        .last()
        .is_some_and(|l| l.index() + 1 == members.len())
    {
        return (v.index() < members.len()).then_some(v.index());
    }
    members.binary_search(&v).ok()
}

/// A rooted tree on a subset of a host graph's vertices.
///
/// Stored compactly: the members sorted by host id, and per member *rank*
/// (position in that order) the parent's rank, the parent-edge weight and the
/// children. Space and construction time depend on the tree, not on the host:
/// the general-graph scheme builds one such tree per vertex, each holding a
/// few percent of the host. The id-based accessors resolve a host id to its
/// rank by binary search; algorithms that sweep the whole tree use the
/// rank-based ones ([`RootedTree::members`], [`RootedTree::parent_rank`],
/// [`RootedTree::child_ranks`]) and dense arrays of [`RootedTree::num_vertices`]
/// entries. Ranks preserve id order, so id tie-breaks carry over unchanged.
///
/// # Examples
///
/// ```
/// use graphs::{RootedTree, VertexId};
/// // A path 0 - 1 - 2 rooted at 0.
/// let t = RootedTree::from_parents(
///     VertexId(0),
///     vec![None, Some(VertexId(0)), Some(VertexId(1))],
///     vec![0, 1, 1],
/// );
/// assert_eq!(t.root(), VertexId(0));
/// assert_eq!(t.depth_of(VertexId(2)), Some(2));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RootedTree {
    root: VertexId,
    host_len: usize,
    /// Member host ids, ascending; a member's index here is its rank.
    members: Vec<VertexId>,
    /// Per rank, the parent's rank ([`NO_PARENT`] at the root).
    parent: Vec<u32>,
    /// Per rank, the weight of the parent edge (0 at the root).
    parent_weight: Vec<Weight>,
    /// Per rank `r`, its children are `child_*[child_start[r]..child_start[r + 1]]`,
    /// ascending by id.
    child_start: Vec<u32>,
    child_rank: Vec<u32>,
    child_id: Vec<VertexId>,
}

const NO_PARENT: u32 = u32::MAX;

impl RootedTree {
    /// Build a tree from a parent array over host-vertex ids.
    ///
    /// `parent_weight[v]` is the weight of `v`'s parent edge (ignored when
    /// `parent[v]` is `None`). A vertex is a member iff it is the root or has
    /// a parent.
    ///
    /// # Panics
    ///
    /// Panics if the arrays disagree in length, if the root has a parent, or
    /// if the parent pointers contain a cycle.
    pub fn from_parents(
        root: VertexId,
        parent: Vec<Option<VertexId>>,
        parent_weight: Vec<Weight>,
    ) -> Self {
        let n = parent.len();
        assert_eq!(n, parent_weight.len(), "parent/weight length mismatch");
        assert!(root.index() < n, "root out of range");
        assert!(parent[root.index()].is_none(), "root must have no parent");
        let edges = parent
            .iter()
            .zip(&parent_weight)
            .enumerate()
            .filter_map(|(v, (p, &w))| p.map(|p| (VertexId(v as u32), p, w)));
        Self::from_edges(n, root, edges)
    }

    /// Build a tree inside a host of `host_len` vertices from its parent
    /// edges `(child, parent, weight)`, one per non-root member in any order.
    /// Cost is `O(|T| log |T|)`, independent of `host_len`; edges that arrive
    /// strictly ascending by child skip the sort.
    ///
    /// # Panics
    ///
    /// Panics if a vertex is out of range or listed twice, if the root has a
    /// parent, if a parent is not a member, or if the parent pointers contain
    /// a cycle.
    pub fn from_edges(
        host_len: usize,
        root: VertexId,
        edges: impl IntoIterator<Item = (VertexId, VertexId, Weight)>,
    ) -> Self {
        let mut rows: Vec<(VertexId, VertexId, Weight)> = edges.into_iter().collect();
        if rows.windows(2).all(|w| w[0].0 < w[1].0) {
            let at = rows.partition_point(|&(v, _, _)| v < root);
            rows.insert(at, (root, root, 0));
        } else {
            rows.push((root, root, 0));
            rows.sort_unstable_by_key(|&(v, _, _)| v);
        }
        let m = rows.len();
        assert!(
            rows[m - 1].0.index() < host_len,
            "vertex {} out of range",
            rows[m - 1].0
        );
        for w in rows.windows(2) {
            assert!(
                w[0].0 != w[1].0 || w[0].0 != root,
                "root must have no parent"
            );
            assert!(w[0].0 != w[1].0, "vertex {} listed twice", w[0].0);
        }
        let members: Vec<VertexId> = rows.iter().map(|&(v, _, _)| v).collect();

        let mut parent = vec![NO_PARENT; m];
        let mut child_start = vec![0u32; m + 1];
        for (r, &(v, p, _)) in rows.iter().enumerate() {
            if v == root {
                continue;
            }
            let Some(pr) = rank_in(&members, p) else {
                panic!("member {} does not reach the root", v.0);
            };
            parent[r] = pr as u32;
            child_start[pr + 1] += 1;
        }
        for r in 0..m {
            child_start[r + 1] += child_start[r];
        }
        // Filling in rank order leaves every child list ascending by id.
        let mut next = child_start.clone();
        let mut child_rank = vec![0u32; m - 1];
        let mut child_id = vec![root; m - 1];
        for (r, &p) in parent.iter().enumerate() {
            if p != NO_PARENT {
                let slot = &mut next[p as usize];
                child_rank[*slot as usize] = r as u32;
                child_id[*slot as usize] = members[r];
                *slot += 1;
            }
        }

        // Cycle check: every member has a member parent, so a walk up either
        // joins a vertex known to reach the root or closes on itself. Each
        // vertex is walked over once.
        const UNSEEN: u8 = 0;
        const WALKING: u8 = 1;
        const REACHES_ROOT: u8 = 2;
        let mut state = vec![UNSEEN; m];
        state[rank_in(&members, root).expect("root row pushed above")] = REACHES_ROOT;
        let mut walk = Vec::new();
        for r in 0..m {
            let mut cur = r;
            while state[cur] == UNSEEN {
                state[cur] = WALKING;
                walk.push(cur);
                cur = parent[cur] as usize;
            }
            assert!(
                state[cur] == REACHES_ROOT,
                "cycle in parent pointers at {}",
                members[cur]
            );
            for w in walk.drain(..) {
                state[w] = REACHES_ROOT;
            }
        }

        RootedTree {
            root,
            host_len,
            members,
            parent,
            parent_weight: rows.iter().map(|&(_, _, w)| w).collect(),
            child_start,
            child_rank,
            child_id,
        }
    }

    /// The root vertex.
    #[inline]
    pub fn root(&self) -> VertexId {
        self.root
    }

    /// Size of the host vertex universe (not the tree).
    #[inline]
    pub fn host_len(&self) -> usize {
        self.host_len
    }

    /// Whether host vertex `v` belongs to the tree.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.rank_of(v).is_some()
    }

    /// Number of tree vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.members.len()
    }

    /// The members in ascending id order; a member's position is its rank.
    #[inline]
    pub fn members(&self) -> &[VertexId] {
        &self.members
    }

    /// The rank of `v` among the members, `None` for non-members.
    #[inline]
    pub fn rank_of(&self, v: VertexId) -> Option<usize> {
        rank_in(&self.members, v)
    }

    /// The rank of the root.
    #[inline]
    pub fn root_rank(&self) -> usize {
        self.rank_of(self.root).expect("the root is a member")
    }

    /// The rank of the parent of the member with rank `r` (`None` at the root).
    #[inline]
    pub fn parent_rank(&self, r: usize) -> Option<usize> {
        let p = self.parent[r];
        (p != NO_PARENT).then_some(p as usize)
    }

    /// The ranks of the children of the member with rank `r`, ascending.
    #[inline]
    pub fn child_ranks(&self, r: usize) -> &[u32] {
        &self.child_rank[self.child_start[r] as usize..self.child_start[r + 1] as usize]
    }

    /// The tree parent of `v` (`None` for the root or non-members).
    #[inline]
    pub fn parent(&self, v: VertexId) -> Option<VertexId> {
        let p = self.parent_rank(self.rank_of(v)?)?;
        Some(self.members[p])
    }

    /// Weight of `v`'s parent edge (0 for the root / non-members).
    #[inline]
    pub fn parent_weight(&self, v: VertexId) -> Weight {
        self.rank_of(v).map_or(0, |r| self.parent_weight[r])
    }

    /// Children of `v` in the tree, ascending by id.
    #[inline]
    pub fn children(&self, v: VertexId) -> &[VertexId] {
        match self.rank_of(v) {
            Some(r) => {
                &self.child_id[self.child_start[r] as usize..self.child_start[r + 1] as usize]
            }
            None => &[],
        }
    }

    /// Iterator over the tree's member vertices, ascending by id.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.members.iter().copied()
    }

    /// The proper ancestors' ranks of rank `r`, nearest first.
    fn ancestors(&self, r: usize) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.parent_rank(r), |&p| self.parent_rank(p))
    }

    /// Hop depth of `v` below the root, `None` for non-members.
    pub fn depth_of(&self, v: VertexId) -> Option<usize> {
        Some(self.ancestors(self.rank_of(v)?).count())
    }

    /// Hop depth of every member, indexed by rank.
    pub fn rank_depths(&self) -> Vec<usize> {
        let mut depth = vec![0usize; self.members.len()];
        for r in self.preorder_ranks() {
            if let Some(p) = self.parent_rank(r) {
                depth[r] = depth[p] + 1;
            }
        }
        depth
    }

    /// Maximum hop depth over all members.
    pub fn height(&self) -> usize {
        self.rank_depths().into_iter().max().unwrap_or(0)
    }

    /// Weighted distance from `v` up to the root along tree edges.
    pub fn root_distance(&self, v: VertexId) -> Option<Weight> {
        let r = self.rank_of(v)?;
        Some(
            self.parent_weight[r]
                + self
                    .ancestors(r)
                    .map(|a| self.parent_weight[a])
                    .sum::<Weight>(),
        )
    }

    /// Weighted distance between two members *along tree edges* (via their LCA).
    pub fn tree_distance(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        // Walk both up to the root recording prefix distances, then match.
        let path = |x: VertexId| {
            let mut r = self.rank_of(x)?;
            let mut anc = vec![(r, 0u64)];
            let mut d = 0u64;
            while let Some(p) = self.parent_rank(r) {
                d += self.parent_weight[r];
                r = p;
                anc.push((r, d));
            }
            Some(anc)
        };
        let pu = path(u)?;
        let pv = path(v)?;
        pu.iter()
            .find_map(|&(a, da)| pv.iter().find(|&&(b, _)| b == a).map(|&(_, db)| da + db))
    }

    /// Subtree sizes indexed by rank.
    pub fn rank_subtree_sizes(&self) -> Vec<usize> {
        let mut size = vec![1usize; self.members.len()];
        // Reverse preorder visits every child before its parent.
        for r in self.preorder_ranks().into_iter().rev() {
            if let Some(p) = self.parent_rank(r) {
                size[p] += size[r];
            }
        }
        size
    }

    /// Subtree sizes indexed by host id (0 outside the tree) — the
    /// centralized reference against which the distributed pointer-jumping
    /// Stage 1 is tested.
    pub fn subtree_sizes(&self) -> Vec<usize> {
        let mut size = vec![0usize; self.host_len];
        for (&v, s) in self.members.iter().zip(self.rank_subtree_sizes()) {
            size[v.index()] = s;
        }
        size
    }

    /// Member ranks in preorder (root first, children in ascending id order).
    pub fn preorder_ranks(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.members.len());
        let mut stack = vec![self.root_rank()];
        while let Some(r) = stack.pop() {
            out.push(r);
            stack.extend(self.child_ranks(r).iter().rev().map(|&c| c as usize));
        }
        out
    }

    /// Members in preorder (root first, children in stored order).
    pub fn preorder(&self) -> Vec<VertexId> {
        self.preorder_ranks()
            .into_iter()
            .map(|r| self.members[r])
            .collect()
    }
}

/// The shortest-path tree of `G` rooted at `root` (a spanning tree of the
/// component of `root`). This is the canonical "tree inside a network" used
/// by Table-2 experiments.
pub fn shortest_path_tree(g: &Graph, root: VertexId) -> RootedTree {
    let (_, parent) = dijkstra_with_parents(g, root);
    let weights = parent
        .iter()
        .enumerate()
        .map(|(v, p)| match p {
            Some(p) => g
                .edge_weight(*p, VertexId(v as u32))
                .expect("SPT parent edge exists"),
            None => 0,
        })
        .collect();
    RootedTree::from_parents(root, parent, weights)
}

/// A uniformly random recursive tree on the member set `verts` (the first
/// element becomes the root): each subsequent vertex attaches to a uniformly
/// random earlier vertex. Edge weights are drawn from `1..=max_w`.
///
/// The returned tree's parent edges are *virtual* (not edges of any host
/// graph); it exercises tree-only code paths and property tests.
///
/// # Panics
///
/// Panics if `verts` is empty or `max_w == 0`.
pub fn random_recursive_tree<R: Rng>(
    host_len: usize,
    verts: &[VertexId],
    max_w: Weight,
    rng: &mut R,
) -> RootedTree {
    assert!(!verts.is_empty(), "need at least a root");
    assert!(max_w > 0, "max weight must be positive");
    let edges: Vec<_> = (1..verts.len())
        .map(|i| {
            let p = verts[rng.gen_range(0..i)];
            (verts[i], p, rng.gen_range(1..=max_w))
        })
        .collect();
    RootedTree::from_edges(host_len, verts[0], edges)
}

/// A path tree `v0 -> v1 -> ... -> v_{n-1}` (worst case for naive tree
/// algorithms: depth n−1).
pub fn path_tree(host_len: usize, verts: &[VertexId], w: Weight) -> RootedTree {
    assert!(!verts.is_empty());
    let edges = verts.windows(2).map(|pair| (pair[1], pair[0], w));
    RootedTree::from_edges(host_len, verts[0], edges)
}

/// A star rooted at `verts[0]` with all other members as leaves.
pub fn star_tree(host_len: usize, verts: &[VertexId], w: Weight) -> RootedTree {
    assert!(!verts.is_empty());
    let edges = verts[1..].iter().map(|&v| (v, verts[0], w));
    RootedTree::from_edges(host_len, verts[0], edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn ids(n: u32) -> Vec<VertexId> {
        (0..n).map(VertexId).collect()
    }

    #[test]
    fn path_tree_depth_and_distance() {
        let t = path_tree(5, &ids(5), 2);
        assert_eq!(t.height(), 4);
        assert_eq!(t.root_distance(VertexId(4)), Some(8));
        assert_eq!(t.tree_distance(VertexId(1), VertexId(4)), Some(6));
        assert_eq!(t.depth_of(VertexId(3)), Some(3));
    }

    #[test]
    fn star_tree_children() {
        let t = star_tree(4, &ids(4), 1);
        assert_eq!(t.children(VertexId(0)).len(), 3);
        assert_eq!(t.height(), 1);
        assert_eq!(t.tree_distance(VertexId(1), VertexId(2)), Some(2));
    }

    #[test]
    fn subtree_sizes_on_path() {
        let t = path_tree(4, &ids(4), 1);
        let s = t.subtree_sizes();
        assert_eq!(s, vec![4, 3, 2, 1]);
    }

    #[test]
    fn partial_membership() {
        // Tree on {0, 2} inside a host of 4 vertices.
        let t = RootedTree::from_parents(
            VertexId(0),
            vec![None, None, Some(VertexId(0)), None],
            vec![0, 0, 5, 0],
        );
        assert!(t.contains(VertexId(0)));
        assert!(t.contains(VertexId(2)));
        assert!(!t.contains(VertexId(1)));
        assert_eq!(t.num_vertices(), 2);
        assert_eq!(t.tree_distance(VertexId(0), VertexId(1)), None);
    }

    #[test]
    fn random_recursive_tree_spans_members() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let t = random_recursive_tree(20, &ids(20), 10, &mut rng);
        assert_eq!(t.num_vertices(), 20);
        for v in t.vertices() {
            assert!(t.depth_of(v).is_some());
        }
        let sizes = t.subtree_sizes();
        assert_eq!(sizes[0], 20);
    }

    #[test]
    fn spt_distances_match_dijkstra() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let g = generators::erdos_renyi_connected(40, 0.15, 1..=9, &mut rng);
        let t = shortest_path_tree(&g, VertexId(0));
        let d = crate::shortest_paths::dijkstra(&g, VertexId(0));
        for v in g.vertices() {
            assert_eq!(t.root_distance(v), Some(d[v.index()]));
        }
    }

    #[test]
    fn preorder_starts_at_root_and_respects_parents() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let t = random_recursive_tree(15, &ids(15), 3, &mut rng);
        let order = t.preorder();
        assert_eq!(order[0], t.root());
        assert_eq!(order.len(), 15);
        let pos: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        for v in t.vertices() {
            if let Some(p) = t.parent(v) {
                assert!(pos[&p] < pos[&v], "parent must precede child in preorder");
            }
        }
    }

    #[test]
    fn sparse_and_dense_constructors_agree() {
        // Tree on {2, 40, 7, 999} given as edges in no particular order.
        let edges = [
            (VertexId(999), VertexId(7), 3),
            (VertexId(2), VertexId(40), 5),
            (VertexId(7), VertexId(40), 1),
        ];
        let t = RootedTree::from_edges(1000, VertexId(40), edges);
        assert_eq!(t.members(), [2, 7, 40, 999].map(VertexId).as_slice());
        assert_eq!(t.rank_of(VertexId(40)), Some(2));
        assert_eq!(t.rank_of(VertexId(41)), None);
        assert_eq!(t.root_rank(), 2);
        assert_eq!(t.parent_rank(3), Some(1));
        assert_eq!(t.child_ranks(2), [0, 1].as_slice());
        assert_eq!(t.children(VertexId(40)), [2, 7].map(VertexId).as_slice());
        assert_eq!(t.rank_subtree_sizes(), vec![1, 2, 4, 1]);
        assert_eq!(t.rank_depths(), vec![1, 1, 0, 2]);
        assert_eq!(t.root_distance(VertexId(999)), Some(4));

        let mut parent = vec![None; 1000];
        let mut weight = vec![0; 1000];
        for (c, p, w) in edges {
            parent[c.index()] = Some(p);
            weight[c.index()] = w;
        }
        assert_eq!(t, RootedTree::from_parents(VertexId(40), parent, weight));
    }

    #[test]
    fn deep_path_checks_in_one_pass() {
        // Depth n − 1: a per-member walk to the root would be quadratic.
        let n = 200_000;
        let t = path_tree(n, &ids(n as u32), 1);
        assert_eq!(t.height(), n - 1);
        assert_eq!(t.rank_subtree_sizes()[0], n);
    }

    #[test]
    #[should_panic(expected = "does not reach the root")]
    fn rejects_parent_outside_the_tree() {
        RootedTree::from_edges(9, VertexId(0), [(VertexId(3), VertexId(5), 1)]);
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn rejects_a_member_listed_twice() {
        let edges = [(VertexId(3), VertexId(0), 1), (VertexId(3), VertexId(0), 2)];
        RootedTree::from_edges(9, VertexId(0), edges);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_member_beyond_the_host() {
        RootedTree::from_edges(3, VertexId(0), [(VertexId(3), VertexId(0), 1)]);
    }

    #[test]
    #[should_panic(expected = "root must have no parent")]
    fn rejects_a_parent_for_the_root_in_sorted_rows() {
        let edges = [(VertexId(0), VertexId(3), 1), (VertexId(3), VertexId(0), 1)];
        RootedTree::from_edges(9, VertexId(0), edges);
    }

    #[test]
    #[should_panic(expected = "cycle in parent pointers")]
    fn rejects_a_cycle_in_unsorted_rows() {
        let edges = [(VertexId(2), VertexId(1), 1), (VertexId(1), VertexId(2), 1)];
        RootedTree::from_edges(9, VertexId(0), edges);
    }

    #[test]
    #[should_panic(expected = "does not reach the root")]
    fn rejects_parent_outside_the_tree_in_unsorted_rows() {
        let edges = [(VertexId(4), VertexId(0), 1), (VertexId(3), VertexId(5), 1)];
        RootedTree::from_edges(9, VertexId(0), edges);
    }

    #[test]
    #[should_panic(expected = "root must have no parent")]
    fn rejects_rooted_cycle() {
        RootedTree::from_parents(
            VertexId(0),
            vec![Some(VertexId(1)), Some(VertexId(0))],
            vec![1, 1],
        );
    }

    #[test]
    #[should_panic(expected = "cycle in parent pointers")]
    fn rejects_detached_cycle() {
        // 0 is the root; 1 and 2 form a 2-cycle not attached to the root.
        RootedTree::from_parents(
            VertexId(0),
            vec![None, Some(VertexId(2)), Some(VertexId(1))],
            vec![0, 1, 1],
        );
    }

    #[test]
    fn tree_distance_is_symmetric_and_triangleish() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let t = random_recursive_tree(25, &ids(25), 7, &mut rng);
        for u in 0..25u32 {
            for v in 0..25u32 {
                let duv = t.tree_distance(VertexId(u), VertexId(v)).unwrap();
                let dvu = t.tree_distance(VertexId(v), VertexId(u)).unwrap();
                assert_eq!(duv, dvu);
                if u == v {
                    assert_eq!(duv, 0);
                }
            }
        }
    }
}
