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
//!
//! [`walk`], which sees the whole scheme, also follows the scheme's row
//! links: a hop up to the tree parent or down the heavy edge reads the next
//! vertex's row at the index a previous walk found there, once its root
//! checks out, instead of searching that vertex's table. [`step`] is what a
//! single vertex can do with its own table, so the packet plane never reads
//! a link.

use std::fmt;

use graphs::graph::Arc;
use graphs::{dist_add, Graph, VertexId, Weight};
use obs::flight::HopKind;
use tree_routing::baseline::{self, BaselineLabel, BaselineTable};
use tree_routing::types::{route_decision, ForwardingDecision, RouteAction, TreeLabel, TreeTable};

use crate::scheme::{LabelEntry, Link, RoutingScheme, RoutingTable};

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
    /// The index of the sender's row for the committed tree in its table.
    pub row: usize,
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
        let row = table.position(entry.pivot)?;
        Some(Header {
            entry,
            cost: table.rows()[row].dist.saturating_add(entry.dist),
            row,
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
/// Each hop applies [`step`]'s rule to the visited vertex's row for the
/// committed tree. The row is found from a hint: the header's row at the
/// source, the link learned from the previous row after a hop up or down
/// the heavy edge. A hint whose row is for another tree, or no hint, costs
/// the one search of the table, which then teaches the previous row its
/// link. The answer and the error are [`step`]'s, hop for hop.
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
    // The row hint for the vertex being stepped, and the row the walk left
    // to reach it, which learns the index a search finds.
    let (mut hint, mut learner) = (Some(header.row), None);
    let step_at = |at: VertexId, ports: &[Arc]| {
        let table = scheme.table(at);
        let rows = table.rows();
        let row = match hint.filter(|&i| rows.get(i).is_some_and(|e| e.root == root)) {
            Some(i) => i,
            None => {
                let i = table.position(root).ok_or(GraphRouteError::Stuck(at))?;
                if let Some((from, from_row, dir)) = learner {
                    scheme.learn_link(from, from_row, dir, i);
                }
                i
            }
        };
        let step = tree_step(at, &rows[row].table, label, ports)?;
        let dir = match step {
            Step::Forward { kind, .. } => kind.and_then(link_of),
            Step::Deliver => None,
        };
        hint = dir.and_then(|dir| scheme.learned_link(at, row, dir));
        learner = dir.map(|dir| (at, row, dir));
        Ok(step)
    };
    drive(g, src, step_at, visit)
}

/// The link a hop of `kind` follows: a light edge has none, since which
/// light child a message takes depends on its target.
#[inline]
fn link_of(kind: HopKind) -> Option<Link> {
    match kind {
        HopKind::Ascent => Some(Link::Up),
        HopKind::DescentHeavy => Some(Link::Down),
        HopKind::DescentLight => None,
    }
}

/// The walk as it was before row links, verbatim: every hop searches the
/// visited vertex's table through [`step`]. The differential tests below
/// hold [`walk`] to it.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{build, BuildParams, Mode};
    use graphs::generators;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::sync::Barrier;

    /// What a walk returns, with the vertices it visited.
    type Walked = (Result<(Weight, u32), GraphRouteError>, Vec<VertexId>);

    fn linked(g: &Graph, scheme: &RoutingScheme, src: VertexId, header: &Header<'_>) -> Walked {
        let mut path = Vec::new();
        (walk(g, scheme, src, header, |v| path.push(v)), path)
    }

    fn searched(g: &Graph, scheme: &RoutingScheme, src: VertexId, header: &Header<'_>) -> Walked {
        let mut path = Vec::new();
        (
            reference::walk(g, scheme, src, header, |v| path.push(v)),
            path,
        )
    }

    /// Walk every commitment open to each pair on `scheme` and name the
    /// first one whose walk differs from the reference's, in the `pass`
    /// named.
    fn mismatch(
        pass: &str,
        g: &Graph,
        scheme: &RoutingScheme,
        pairs: &[(VertexId, VertexId)],
    ) -> Option<String> {
        for &(src, dst) in pairs {
            for header in candidates(scheme, src, dst) {
                let (got, want) = (
                    linked(g, scheme, src, &header),
                    searched(g, scheme, src, &header),
                );
                if got != want {
                    let tree = header.entry.pivot;
                    return Some(format!(
                        "{pass}: {src} → {dst} in tree {tree}: {got:?} vs {want:?}"
                    ));
                }
            }
        }
        None
    }

    fn shaped(shape: u8, size: usize, rng: &mut ChaCha8Rng) -> Graph {
        match shape {
            0 => generators::erdos_renyi_connected(size, (3.0 / size as f64).min(1.0), 1..=9, rng),
            1 => generators::preferential_attachment(size.max(3), 2, 1..=9, rng),
            _ => generators::torus(3 + size % 11, 3 + size / 16, 1..=9, rng),
        }
    }

    fn pairs(n: usize, count: usize, rng: &mut ChaCha8Rng) -> Vec<(VertexId, VertexId)> {
        let mut at = || VertexId(rng.gen_range(0..n as u32));
        (0..count).map(|_| (at(), at())).collect()
    }

    /// Break some of `scheme`'s tables, keeping each sorted by root: a
    /// vertex forgets a row, names a random vertex as a row's parent or
    /// heavy child, or moves a row's interval.
    fn forge(scheme: &mut RoutingScheme, rng: &mut ChaCha8Rng) {
        let n = scheme.num_vertices() as u32;
        for v in (0..n).map(VertexId) {
            let mut rows = scheme.table(v).rows().to_vec();
            if rows.is_empty() || rng.gen_range(0..4) != 0 {
                continue;
            }
            let i = rng.gen_range(0..rows.len());
            let other = Some(VertexId(rng.gen_range(0..n)));
            match rng.gen_range(0..4) {
                0 => drop(rows.remove(i)),
                1 => rows[i].table.parent = other,
                2 => rows[i].table.heavy = other,
                _ => rows[i].table.exit = rows[i].table.enter + rng.gen_range(0..4u64),
            }
            scheme.replace_table(v, rows);
        }
    }

    /// Plant links that lead nowhere useful: past the end of the next
    /// table, or to a row of another tree.
    fn mislead(scheme: &RoutingScheme, rng: &mut ChaCha8Rng) {
        for v in scheme.vertices() {
            let rows = scheme.table(v).rows().len();
            for row in 0..rows {
                for dir in [Link::Up, Link::Down] {
                    if rng.gen_range(0..3) == 0 {
                        scheme.learn_link(v, row, dir, rng.gen_range(0..rows + 4));
                    }
                }
            }
        }
    }

    #[test]
    fn walks_learn_links_that_name_the_same_tree() {
        let mut rng = ChaCha8Rng::seed_from_u64(5401);
        let g = generators::torus(8, 9, 1..=9, &mut rng);
        let scheme = build(&g, &BuildParams::new(3), &mut rng).scheme;
        let every: Vec<_> = g
            .vertices()
            .flat_map(|s| g.vertices().map(move |t| (s, t)))
            .collect();
        assert_eq!(mismatch("all pairs", &g, &scheme, &every), None);
        let mut learned = 0;
        for v in g.vertices() {
            for (row, e) in scheme.table(v).rows().iter().enumerate() {
                for (dir, next) in [(Link::Up, e.table.parent), (Link::Down, e.table.heavy)] {
                    if let Some(to) = scheme.learned_link(v, row, dir) {
                        let next = next.expect("a link leads to a tree neighbour");
                        assert_eq!(scheme.table(next).rows()[to].root, e.root);
                        learned += 1;
                    }
                }
            }
        }
        assert!(learned > 0, "no walk learned a link");
        // A clone and a replaced table start over.
        let (v, row, dir) = g
            .vertices()
            .flat_map(|v| (0..scheme.table(v).rows().len()).map(move |r| (v, r)))
            .flat_map(|(v, r)| [(v, r, Link::Up), (v, r, Link::Down)])
            .find(|&(v, r, d)| scheme.learned_link(v, r, d).is_some())
            .expect("some link was learned");
        let mut copy = scheme.clone();
        assert_eq!(copy.learned_link(v, row, dir), None);
        copy.learn_link(v, row, dir, 0);
        assert_eq!(copy.learned_link(v, row, dir), Some(0));
        copy.replace_table(v, copy.table(v).rows().to_vec());
        assert_eq!(copy.learned_link(v, row, dir), None);
        // Rows past a slot's range are never linked to.
        copy.learn_link(v, row, dir, usize::from(u16::MAX));
        assert_eq!(copy.learned_link(v, row, dir), None);
    }

    #[test]
    fn racing_walks_on_one_cold_scheme_match_the_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(5402);
        let g = generators::erdos_renyi_connected(120, 0.03, 1..=9, &mut rng);
        let scheme = build(&g, &BuildParams::new(2), &mut rng).scheme;
        let pairs = pairs(g.num_vertices(), 300, &mut rng);
        let start = Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (g, scheme, start) = (&g, &scheme, &start);
                let mut mine = pairs.clone();
                mine.rotate_left(t * pairs.len() / 4);
                s.spawn(move || {
                    start.wait();
                    assert_eq!(mismatch(&format!("thread {t}"), g, scheme, &mine), None);
                });
            }
        });
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        #[test]
        fn the_linked_walk_matches_the_reference_walk(
            shape in 0u8..3,
            size in 2usize..=200,
            k in 2usize..=4,
            centralized in 0u8..2,
            forged in 0u8..2,
            seed in 0u64..1 << 32,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let g = shaped(shape, size, &mut rng);
            let mode = if centralized == 1 { Mode::Centralized } else { Mode::DistributedLowMemory };
            let mut scheme = build(&g, &BuildParams::new(k).with_mode(mode), &mut rng).scheme;
            if forged == 1 {
                forge(&mut scheme, &mut rng);
            }
            let pairs = pairs(g.num_vertices(), 60, &mut rng);
            // Cold, warm, on a clone that starts without links, and with
            // wrong links planted.
            proptest::prop_assert_eq!(mismatch("cold", &g, &scheme, &pairs), None);
            proptest::prop_assert_eq!(mismatch("warm", &g, &scheme, &pairs), None);
            let copy = scheme.clone();
            proptest::prop_assert_eq!(mismatch("clone", &g, &copy, &pairs), None);
            mislead(&scheme, &mut rng);
            proptest::prop_assert_eq!(mismatch("misled", &g, &scheme, &pairs), None);
            proptest::prop_assert_eq!(mismatch("relearned", &g, &scheme, &pairs), None);
        }
    }
}
