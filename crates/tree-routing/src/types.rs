//! Routing tables, labels, and the Thorup–Zwick forwarding rule.
//!
//! The *sizes in words* of these structures are first-class experimental
//! quantities (they are two columns of the paper's Table 2), so each type
//! reports its footprint via [`congest::WordSized`].

use congest::WordSized;
use graphs::{tree::rank_in, VertexId};

/// The routing table a tree vertex stores — `O(1)` words.
///
/// Per \[TZ01b\]: the vertex's DFS interval, its parent, and its heavy child.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TreeTable {
    /// DFS entry time; doubles as the vertex's identity inside the tree.
    pub enter: u64,
    /// DFS exit time: the subtree of this vertex is exactly the set of
    /// vertices with entry times in `enter..=exit`.
    pub exit: u64,
    /// Tree parent (`None` at the root).
    pub parent: Option<VertexId>,
    /// Heavy child: the child with the largest subtree (`None` at leaves).
    pub heavy: Option<VertexId>,
}

impl TreeTable {
    /// Whether the vertex owning this table has `label`'s target in its
    /// subtree.
    #[inline]
    pub fn subtree_contains(&self, label: &TreeLabel) -> bool {
        self.enter <= label.enter && label.enter <= self.exit
    }
}

impl WordSized for TreeTable {
    fn words(&self) -> usize {
        4
    }
}

/// The label of a tree vertex — `O(log n)` words.
///
/// Per \[TZ01b\]: the vertex's DFS entry time plus the *light edges* on the
/// path from the root: pairs `(parent, child)` for every path edge whose
/// child is not the parent's heavy child. A root-to-vertex path has at most
/// `⌊log₂ n⌋` light edges, bounding the label size.
///
/// Light edges name vertices by id (not DFS time) because the distributed
/// construction discovers them in Stage 2, before DFS times exist.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreeLabel {
    /// DFS entry time of the labeled vertex (its in-tree identity).
    pub enter: u64,
    /// Light edges on the root path, ordered root-side first.
    pub light: Vec<(VertexId, VertexId)>,
}

impl WordSized for TreeLabel {
    fn words(&self) -> usize {
        1 + 2 * self.light.len()
    }
}

/// One forwarding decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteAction {
    /// The message has arrived.
    Deliver,
    /// Forward to this neighbor in the tree.
    Forward(VertexId),
}

/// A forwarding decision with its *reason* exposed — which branch of the
/// Thorup–Zwick rule chose the port. The flight recorder attributes each
/// hop's cost to ascent (toward the committed tree's root) or descent
/// (down a light or heavy edge), which is exactly this distinction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ForwardingDecision {
    /// The message has arrived.
    Deliver,
    /// The target is outside our subtree: ascend to the parent.
    Ascend(VertexId),
    /// The target is below us via a light edge listed in its label.
    DescendLight(VertexId),
    /// The target is below us via the heavy-child edge.
    DescendHeavy(VertexId),
}

impl ForwardingDecision {
    /// Collapse the reason, keeping only deliver-vs-forward.
    pub fn action(self) -> RouteAction {
        match self {
            ForwardingDecision::Deliver => RouteAction::Deliver,
            ForwardingDecision::Ascend(next)
            | ForwardingDecision::DescendLight(next)
            | ForwardingDecision::DescendHeavy(next) => RouteAction::Forward(next),
        }
    }
}

/// The Thorup–Zwick forwarding rule with the decision kind exposed: decide
/// the next hop toward `label`'s target from vertex `me`, which owns
/// `table`, and say *why* that port was chosen.
///
/// Returns `None` when the rule cannot make progress — the target is outside
/// the tree (the root sees an entry time outside its interval) or the table
/// is inconsistent; the caller reports this as a routing error.
///
/// # Examples
///
/// ```
/// use tree_routing::types::{route_decision, ForwardingDecision, TreeLabel, TreeTable};
/// use graphs::VertexId;
///
/// // Root [0..=1] with a single (heavy) child whose entry time is 1.
/// let root = TreeTable { enter: 0, exit: 1, parent: None, heavy: Some(VertexId(5)) };
/// let target = TreeLabel { enter: 1, light: vec![] };
/// assert_eq!(
///     route_decision(VertexId(0), &root, &target),
///     Some(ForwardingDecision::DescendHeavy(VertexId(5)))
/// );
/// ```
pub fn route_decision(
    me: VertexId,
    table: &TreeTable,
    label: &TreeLabel,
) -> Option<ForwardingDecision> {
    if label.enter == table.enter {
        return Some(ForwardingDecision::Deliver);
    }
    if !table.subtree_contains(label) {
        // Target is above or beside us: go to the parent.
        return table.parent.map(ForwardingDecision::Ascend);
    }
    // Target is strictly below us: take the listed light edge if one leaves
    // here, otherwise the heavy edge.
    if let Some(&(_, child)) = label.light.iter().find(|&&(pe, _)| pe == me) {
        return Some(ForwardingDecision::DescendLight(child));
    }
    table.heavy.map(ForwardingDecision::DescendHeavy)
}

/// The forwarding rule without the reason: [`route_decision`] collapsed to
/// deliver-vs-forward.
///
/// # Examples
///
/// ```
/// use tree_routing::types::{route_step, RouteAction, TreeLabel, TreeTable};
/// use graphs::VertexId;
///
/// // Root [0..=1] with a single (heavy) child whose entry time is 1.
/// let root = TreeTable { enter: 0, exit: 1, parent: None, heavy: Some(VertexId(5)) };
/// let target = TreeLabel { enter: 1, light: vec![] };
/// assert_eq!(
///     route_step(VertexId(0), &root, &target),
///     Some(RouteAction::Forward(VertexId(5)))
/// );
/// ```
pub fn route_step(me: VertexId, table: &TreeTable, label: &TreeLabel) -> Option<RouteAction> {
    route_decision(me, table, label).map(ForwardingDecision::action)
}

/// A complete tree routing scheme: one table and one label per tree member,
/// stored in ascending member-id order (a member's position is its *rank*,
/// as in [`graphs::RootedTree`]). Size is proportional to the tree, not to
/// the host network.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct TreeScheme {
    members: Vec<VertexId>,
    tables: Vec<TreeTable>,
    labels: Vec<TreeLabel>,
}

impl TreeScheme {
    /// Assemble a scheme from per-rank tables and labels.
    ///
    /// # Panics
    ///
    /// Panics if the three vectors disagree in length or `members` is not
    /// strictly ascending.
    pub fn from_parts(
        members: Vec<VertexId>,
        tables: Vec<TreeTable>,
        labels: Vec<TreeLabel>,
    ) -> Self {
        assert_eq!(members.len(), tables.len(), "one table per member");
        assert_eq!(members.len(), labels.len(), "one label per member");
        assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "members must be strictly ascending"
        );
        TreeScheme {
            members,
            tables,
            labels,
        }
    }

    /// Take the scheme apart: members (ascending) with their per-rank
    /// tables and labels.
    pub fn into_parts(self) -> (Vec<VertexId>, Vec<TreeTable>, Vec<TreeLabel>) {
        (self.members, self.tables, self.labels)
    }

    /// The tree's members, ascending by id.
    pub fn members(&self) -> &[VertexId] {
        &self.members
    }

    /// The table of `v`, if `v` is in the tree.
    pub fn table(&self, v: VertexId) -> Option<&TreeTable> {
        rank_in(&self.members, v).map(|r| &self.tables[r])
    }

    /// The label of `v`, if `v` is in the tree.
    pub fn label(&self, v: VertexId) -> Option<&TreeLabel> {
        rank_in(&self.members, v).map(|r| &self.labels[r])
    }

    /// Mutable access to the table of `v` (fault-injection tests corrupt it).
    pub fn table_mut(&mut self, v: VertexId) -> Option<&mut TreeTable> {
        rank_in(&self.members, v).map(|r| &mut self.tables[r])
    }

    /// Mutable access to the label of `v`.
    pub fn label_mut(&mut self, v: VertexId) -> Option<&mut TreeLabel> {
        rank_in(&self.members, v).map(|r| &mut self.labels[r])
    }

    /// Largest table size in words over tree vertices (0 if none).
    pub fn max_table_words(&self) -> usize {
        self.tables.iter().map(WordSized::words).max().unwrap_or(0)
    }

    /// Largest label size in words over tree vertices (0 if none).
    pub fn max_label_words(&self) -> usize {
        self.labels.iter().map(WordSized::words).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(enter: u64, exit: u64, parent: Option<u32>, heavy: Option<u32>) -> TreeTable {
        TreeTable {
            enter,
            exit,
            parent: parent.map(VertexId),
            heavy: heavy.map(VertexId),
        }
    }

    #[test]
    fn table_is_constant_size() {
        assert_eq!(table(0, 9, None, Some(1)).words(), 4);
    }

    #[test]
    fn label_size_grows_with_light_edges() {
        let l0 = TreeLabel {
            enter: 3,
            light: vec![],
        };
        let l2 = TreeLabel {
            enter: 3,
            light: vec![(VertexId(0), VertexId(1)), (VertexId(5), VertexId(2))],
        };
        assert_eq!(l0.words(), 1);
        assert_eq!(l2.words(), 5);
    }

    #[test]
    fn step_delivers_on_identity() {
        let t = table(4, 8, Some(0), Some(2));
        let l = TreeLabel {
            enter: 4,
            light: vec![],
        };
        assert_eq!(route_step(VertexId(3), &t, &l), Some(RouteAction::Deliver));
    }

    #[test]
    fn step_goes_up_when_target_outside_subtree() {
        let t = table(4, 8, Some(9), Some(2));
        let l = TreeLabel {
            enter: 2,
            light: vec![],
        };
        assert_eq!(
            route_step(VertexId(3), &t, &l),
            Some(RouteAction::Forward(VertexId(9)))
        );
    }

    #[test]
    fn step_prefers_listed_light_edge_over_heavy() {
        let t = table(4, 8, Some(9), Some(2));
        let l = TreeLabel {
            enter: 6,
            light: vec![(VertexId(3), VertexId(7))],
        };
        assert_eq!(
            route_step(VertexId(3), &t, &l),
            Some(RouteAction::Forward(VertexId(7)))
        );
    }

    #[test]
    fn step_defaults_to_heavy_child() {
        let t = table(4, 8, Some(9), Some(2));
        let l = TreeLabel {
            enter: 6,
            // Light edge elsewhere on the path, not at vertex 3.
            light: vec![(VertexId(0), VertexId(7))],
        };
        assert_eq!(
            route_step(VertexId(3), &t, &l),
            Some(RouteAction::Forward(VertexId(2)))
        );
    }

    #[test]
    fn decision_exposes_the_reason_behind_each_port() {
        let t = table(4, 8, Some(9), Some(2));
        // Outside the subtree: ascend.
        let above = TreeLabel {
            enter: 2,
            light: vec![],
        };
        assert_eq!(
            route_decision(VertexId(3), &t, &above),
            Some(ForwardingDecision::Ascend(VertexId(9)))
        );
        // Below via a listed light edge.
        let light = TreeLabel {
            enter: 6,
            light: vec![(VertexId(3), VertexId(7))],
        };
        assert_eq!(
            route_decision(VertexId(3), &t, &light),
            Some(ForwardingDecision::DescendLight(VertexId(7)))
        );
        // Below via the heavy child.
        let heavy = TreeLabel {
            enter: 6,
            light: vec![],
        };
        assert_eq!(
            route_decision(VertexId(3), &t, &heavy),
            Some(ForwardingDecision::DescendHeavy(VertexId(2)))
        );
        // Identity: deliver, no next hop.
        let own = TreeLabel {
            enter: 4,
            light: vec![],
        };
        let d = route_decision(VertexId(3), &t, &own).unwrap();
        assert_eq!(d, ForwardingDecision::Deliver);
        assert_eq!(d.action(), RouteAction::Deliver);
    }

    #[test]
    fn decision_and_step_always_agree() {
        let t = table(4, 8, Some(9), Some(2));
        for enter in 0..12u64 {
            let l = TreeLabel {
                enter,
                light: vec![(VertexId(3), VertexId(7))],
            };
            assert_eq!(
                route_step(VertexId(3), &t, &l),
                route_decision(VertexId(3), &t, &l).map(ForwardingDecision::action),
                "enter time {enter}"
            );
        }
    }

    #[test]
    fn step_fails_at_root_for_foreign_target() {
        let t = table(0, 8, None, Some(2));
        let l = TreeLabel {
            enter: 100,
            light: vec![],
        };
        assert_eq!(route_step(VertexId(0), &t, &l), None);
    }

    #[test]
    fn scheme_size_reports() {
        // A one-member scheme inside a larger host.
        let s = TreeScheme::from_parts(
            vec![VertexId(0)],
            vec![table(0, 1, None, Some(1))],
            vec![TreeLabel {
                enter: 0,
                light: vec![(VertexId(0), VertexId(1))],
            }],
        );
        assert_eq!(s.max_table_words(), 4);
        assert_eq!(s.max_label_words(), 3);
        assert!(s.table(VertexId(1)).is_none());
    }
}
