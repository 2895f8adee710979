//! The routing rule, written once.
//!
//! The paper's routing phase is one rule. The sender intersects the target's
//! label with its own table and commits to one tree ([`select`]); after
//! that every vertex consults only its own row for that tree and the
//! `O(1)`-word header ([`step`]). Every plane — the central router, the
//! serve plane, the packet protocol, the two comparison baselines —
//! calls these functions and nothing else: this is the only file outside
//! `tree-routing` that invokes the per-tree rules.
//!
//! A step is a function of the vertex and the header alone, so a walk that
//! visits a vertex twice repeats forever, and one that delivers visits each
//! vertex at most once: at most `n − 1` hops. [`hop_cap`] is that bound, the
//! one place it is written down.

use std::fmt;

use graphs::graph::Arc;
use graphs::{dist_add, Graph, VertexId, Weight};
use obs::flight::HopKind;
use tree_routing::baseline::{self, BaselineLabel, BaselineTable};
use tree_routing::types::{route_decision, ForwardingDecision, RouteAction, TreeLabel, TreeTable};

use crate::scheme::{LabelEntry, RoutingScheme, RoutingTable};

/// How the source picks among valid label entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Selection {
    /// Lowest valid level (the classical `4k − 3` argument).
    FirstValid,
    /// Minimize `d̂(u, w) + d̂(w, v)` over valid entries. Never worse than
    /// [`Selection::FirstValid`] in estimate; the guarantee stays `4k − 3`.
    SourceOptimal,
    /// Handshake: the endpoints probe every tree shared through the target's
    /// label and commit to the one whose *realized* route is shortest. This
    /// is a measured upper-bound improvement over [`Selection::SourceOptimal`]
    /// (never worse, typically slightly better); Thorup–Zwick's full
    /// handshaking variant (stretch `2k − 1`) additionally meets at
    /// source-side pivots and is not implemented.
    Handshake,
}

/// Why a walk failed — the one error every plane's outcome is derived from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphRouteError {
    /// No label entry's tree contains the source (disconnected pair, or a
    /// construction bug — tests treat it as such).
    NoCommonTree,
    /// The per-tree rule got stuck at this vertex (no row for the committed
    /// tree, or the rule cannot make progress).
    Stuck(VertexId),
    /// A vertex forwarded to a non-neighbor.
    BadForward {
        /// Forwarding vertex.
        from: VertexId,
        /// Claimed next hop.
        to: VertexId,
    },
    /// Exceeded [`hop_cap`] — a forwarding loop.
    Loop,
}

impl fmt::Display for GraphRouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphRouteError::NoCommonTree => write!(f, "no tree contains both endpoints"),
            GraphRouteError::Stuck(v) => write!(f, "routing rule stuck at {v}"),
            GraphRouteError::BadForward { from, to } => {
                write!(f, "{from} forwarded to invalid hop {to}")
            }
            GraphRouteError::Loop => write!(f, "forwarding loop"),
        }
    }
}

impl std::error::Error for GraphRouteError {}

/// The most hops any message may take in an `n`-vertex network (see the
/// module docs for why nothing that delivers needs more).
pub fn hop_cap(n: usize) -> usize {
    n
}

/// The sender's commitment: the entry of the target's label whose tree the
/// message will travel in.
#[derive(Clone, Copy, Debug)]
pub struct Header<'s> {
    /// The chosen label entry: tree root, level, and the target's label in
    /// that tree.
    pub entry: &'s LabelEntry,
    /// The sender's estimate for the committed route, `d̂(u, w) + d̂(w, v)`.
    pub cost: Weight,
}

/// Every commitment open to `src`: the entries of `dst`'s label whose tree
/// contains `src`, in label (ascending level) order.
pub fn candidates(
    scheme: &RoutingScheme,
    src: VertexId,
    dst: VertexId,
) -> impl Iterator<Item = Header<'_>> {
    let table = scheme.table(src);
    scheme.label(dst).rows().iter().filter_map(move |entry| {
        let row = table.entry(entry.pivot)?;
        Some(Header {
            entry,
            cost: row.dist.saturating_add(entry.dist),
        })
    })
}

/// The sender's decision. `None` when no tree contains both endpoints.
///
/// A handshake is settled by realized routes, which takes a walker
/// ([`crate::router::route_with`] walks every candidate); from tables alone
/// its estimate is the source-optimal one.
pub fn select(
    scheme: &RoutingScheme,
    src: VertexId,
    dst: VertexId,
    selection: Selection,
) -> Option<Header<'_>> {
    let mut open = candidates(scheme, src, dst);
    match selection {
        Selection::FirstValid => open.next(),
        // The first of equally cheap entries wins.
        Selection::SourceOptimal | Selection::Handshake => open.min_by_key(|h| h.cost),
    }
}

/// One vertex's verdict on a message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// The message has arrived.
    Deliver,
    /// Send it out of `port` (an index into the vertex's neighbor list).
    Forward {
        /// The chosen port.
        port: usize,
        /// Which branch of the rule chose it; [`baseline_step`] does not
        /// say.
        kind: Option<HopKind>,
    },
}

#[inline]
fn forward_to(
    me: VertexId,
    next: VertexId,
    kind: Option<HopKind>,
    ports: &[Arc],
) -> Result<Step, GraphRouteError> {
    match ports.iter().position(|a| a.to == next) {
        Some(port) => Ok(Step::Forward { port, kind }),
        None => Err(GraphRouteError::BadForward { from: me, to: next }),
    }
}

/// The Theorem-2 rule at `me`, which holds `table` in the message's tree
/// and has `ports` as its neighbor list.
///
/// # Errors
///
/// [`GraphRouteError::Stuck`] when the rule cannot make progress,
/// [`GraphRouteError::BadForward`] when it names a non-neighbor.
#[inline]
pub fn tree_step(
    me: VertexId,
    table: &TreeTable,
    label: &TreeLabel,
    ports: &[Arc],
) -> Result<Step, GraphRouteError> {
    let (next, kind) = match route_decision(me, table, label).ok_or(GraphRouteError::Stuck(me))? {
        ForwardingDecision::Deliver => return Ok(Step::Deliver),
        ForwardingDecision::Ascend(next) => (next, HopKind::Ascent),
        ForwardingDecision::DescendLight(next) => (next, HopKind::DescentLight),
        ForwardingDecision::DescendHeavy(next) => (next, HopKind::DescentHeavy),
    };
    forward_to(me, next, Some(kind), ports)
}

/// The prior two-level rule (\[EN16b\]-style, [`crate::prior`]) at `me`,
/// which holds `table` in the message's tree. The rule does not name its
/// branch, so a forward carries no [`HopKind`].
///
/// # Errors
///
/// As [`tree_step`].
#[inline]
pub fn baseline_step(
    me: VertexId,
    table: &BaselineTable,
    label: &BaselineLabel,
    ports: &[Arc],
) -> Result<Step, GraphRouteError> {
    match baseline::decide(me, table, label).ok_or(GraphRouteError::Stuck(me))? {
        RouteAction::Deliver => Ok(Step::Deliver),
        RouteAction::Forward(next) => forward_to(me, next, None, ports),
    }
}

/// The rule at `me`: look up its row for the tree rooted at `root` in its
/// own `table` and apply the tree rule to the carried `label`.
///
/// # Errors
///
/// As [`tree_step`]; a missing row is [`GraphRouteError::Stuck`].
#[inline]
pub fn step(
    table: &RoutingTable,
    me: VertexId,
    root: VertexId,
    label: &TreeLabel,
    ports: &[Arc],
) -> Result<Step, GraphRouteError> {
    let row = table.entry(root).ok_or(GraphRouteError::Stuck(me))?;
    tree_step(me, &row.table, label, ports)
}

/// Drive a message from `src` until `step_at` delivers it, feeding every
/// visited vertex (source included) to `visit`. Returns `(weight, hops)`.
///
/// # Errors
///
/// Whatever `step_at` reports, or [`GraphRouteError::Loop`] past
/// [`hop_cap`].
pub fn drive(
    g: &Graph,
    src: VertexId,
    mut step_at: impl FnMut(VertexId, &[Arc]) -> Result<Step, GraphRouteError>,
    mut visit: impl FnMut(VertexId),
) -> Result<(Weight, u32), GraphRouteError> {
    let cap = hop_cap(g.num_vertices());
    let (mut cur, mut weight, mut hops) = (src, 0, 0u32);
    visit(cur);
    loop {
        let ports = g.neighbors(cur);
        match step_at(cur, ports)? {
            Step::Deliver => return Ok((weight, hops)),
            Step::Forward { port, .. } => {
                if hops as usize == cap {
                    return Err(GraphRouteError::Loop);
                }
                weight = dist_add(weight, ports[port].weight);
                hops += 1;
                cur = ports[port].to;
                visit(cur);
            }
        }
    }
}

/// Walk the committed route hop by hop over `scheme`'s tables.
///
/// # Errors
///
/// See [`GraphRouteError`].
pub fn walk(
    g: &Graph,
    scheme: &RoutingScheme,
    src: VertexId,
    header: &Header<'_>,
    visit: impl FnMut(VertexId),
) -> Result<(Weight, u32), GraphRouteError> {
    let (root, label) = (header.entry.pivot, &header.entry.tree_label);
    drive(
        g,
        src,
        |at, ports| step(scheme.table(at), at, root, label, ports),
        visit,
    )
}
