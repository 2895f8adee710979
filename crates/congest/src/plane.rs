//! The zero-allocation message plane: a flat, reusable outbox and inbox arena.
//!
//! The engine used to materialise one `Vec<(VertexId, Msg)>` inbox per vertex
//! per round and a fresh outbox `Vec` per vertex execution — two allocations
//! per vertex per round on the hottest loop in the repository. This module
//! replaces both with buffers that are allocated once and reused:
//!
//! * **Outbox plane** — every message sent in a round is appended to one flat
//!   `Vec<OutMsg>`, in (source ascending, send order). It is drained — not
//!   dropped — when the round is scattered, so its capacity survives.
//! * **Inbox plane** — an [`InboxArena`] holds the messages *delivered* to
//!   every vertex as one flat slot buffer plus a `starts` offset table
//!   (CSR-style: vertex `v`'s inbox is `slots[starts[v]..starts[v+1]]`).
//!   Refilling is a stable counting sort by destination: count, prefix-sum,
//!   scatter. Stability keeps every inbox in (sender id, send sequence)
//!   order.
//!
//! Protocols read their messages through an [`Inbox`] view, which supports
//! zero-clone consumption: [`Inbox::drain`] moves messages out of the arena
//! slots, so store-and-forward protocols take ownership without copying.

use graphs::VertexId;

/// A queued message on the outbox plane: destination, source, payload.
#[derive(Clone, Debug)]
pub(crate) struct OutMsg<M> {
    pub(crate) to: VertexId,
    pub(crate) from: VertexId,
    pub(crate) msg: M,
}

/// The delivery-side arena for all `n` vertices: one flat slot buffer plus
/// CSR-style offsets, rebuilt (not reallocated) every round.
///
/// Slots hold `Option<M>` so an [`Inbox`] can hand messages out by move;
/// whatever a protocol leaves behind is dropped at the next refill.
#[derive(Debug)]
pub(crate) struct InboxArena<M> {
    /// `n + 1` offsets into `slots`; vertex `v`'s inbox is
    /// `slots[starts[v]..starts[v + 1]]`.
    starts: Vec<usize>,
    /// Scatter cursors, one per vertex (scratch, reused).
    cursors: Vec<usize>,
    slots: Vec<(VertexId, Option<M>)>,
}

impl<M> InboxArena<M> {
    pub(crate) fn new(n: usize) -> Self {
        InboxArena {
            starts: vec![0; n + 1],
            cursors: vec![0; n],
            slots: Vec::new(),
        }
    }

    /// Total messages currently delivered.
    pub(crate) fn total(&self) -> usize {
        *self.starts.last().expect("starts is never empty")
    }

    /// Number of messages delivered to vertex `v` this round.
    pub(crate) fn inbox_len(&self, v: usize) -> usize {
        self.starts[v + 1] - self.starts[v]
    }

    /// The inbox view for vertex `v`.
    pub(crate) fn inbox(&mut self, v: usize) -> Inbox<'_, M> {
        Inbox {
            slots: &mut self.slots[self.starts[v]..self.starts[v + 1]],
        }
    }

    /// Refill the arena from `outbox` by a stable counting sort on the
    /// destination, so each inbox keeps the outbox's (source, send) order.
    /// The outbox is drained (capacity retained) for reuse next round.
    pub(crate) fn fill(&mut self, outbox: &mut Vec<OutMsg<M>>) {
        self.starts.fill(0);
        for m in outbox.iter() {
            self.starts[m.to.index() + 1] += 1;
        }
        let n = self.cursors.len();
        for v in 0..n {
            self.starts[v + 1] += self.starts[v];
        }
        self.cursors.copy_from_slice(&self.starts[..n]);
        // Drop last round's leftovers and rebuild in place; `resize_with`
        // reuses the buffer's capacity, so steady state allocates nothing.
        self.slots.clear();
        self.slots.resize_with(self.total(), || (VertexId(0), None));
        for m in outbox.drain(..) {
            let c = &mut self.cursors[m.to.index()];
            self.slots[*c] = (m.from, Some(m.msg));
            *c += 1;
        }
    }
}

/// One vertex's messages for the current round, in deterministic delivery
/// order (ascending sender id, then send order).
///
/// Messages live in the engine's inbox arena. A protocol may inspect them by
/// reference ([`Inbox::iter`]) or take ownership without cloning
/// ([`Inbox::drain`]); anything not drained is dropped when the arena is
/// refilled for the next round.
pub struct Inbox<'a, M> {
    slots: &'a mut [(VertexId, Option<M>)],
}

impl<'a, M> Inbox<'a, M> {
    /// Number of messages delivered this round (drained or not).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether nothing was delivered this round.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Iterate the not-yet-drained messages by reference.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, &M)> {
        self.slots
            .iter()
            .filter_map(|(from, m)| m.as_ref().map(|m| (*from, m)))
    }

    /// The first not-yet-drained message, if any.
    pub fn first(&self) -> Option<(VertexId, &M)> {
        self.iter().next()
    }

    /// Move every remaining message out of the arena — zero clones.
    pub fn drain(&mut self) -> impl Iterator<Item = (VertexId, M)> + '_ {
        self.slots
            .iter_mut()
            .filter_map(|(from, m)| m.take().map(|m| (*from, m)))
    }

    #[cfg(test)]
    pub(crate) fn over(slots: &'a mut [(VertexId, Option<M>)]) -> Self {
        Inbox { slots }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(to: u32, from: u32, payload: u64) -> OutMsg<u64> {
        OutMsg {
            to: VertexId(to),
            from: VertexId(from),
            msg: payload,
        }
    }

    #[test]
    fn fill_scatters_in_source_then_seq_order() {
        let mut arena = InboxArena::new(4);
        let mut outbox = vec![
            msg(3, 0, 10),
            msg(3, 1, 11),
            msg(0, 1, 12),
            msg(3, 2, 13),
            msg(0, 3, 14),
        ];
        arena.fill(&mut outbox);
        assert_eq!(arena.total(), 5);
        assert_eq!(arena.inbox_len(3), 3);
        assert_eq!(arena.inbox_len(1), 0);
        let got: Vec<(VertexId, u64)> = arena.inbox(3).drain().collect();
        assert_eq!(
            got,
            vec![(VertexId(0), 10), (VertexId(1), 11), (VertexId(2), 13)]
        );
        let got0: Vec<(VertexId, u64)> = arena.inbox(0).drain().collect();
        assert_eq!(got0, vec![(VertexId(1), 12), (VertexId(3), 14)]);
        // The outbox was drained, not dropped.
        assert!(outbox.is_empty());
    }

    #[test]
    fn refill_clears_leftovers() {
        let mut arena = InboxArena::new(1);
        let mut outbox = vec![msg(0, 0, 7)];
        arena.fill(&mut outbox);
        assert_eq!(arena.inbox_len(0), 1);
        // Leave the message undrained; the next (empty) fill drops it.
        arena.fill(&mut outbox);
        assert_eq!(arena.total(), 0);
        assert_eq!(arena.inbox_len(0), 0);
    }

    #[test]
    fn inbox_iter_skips_drained() {
        let mut slots = vec![(VertexId(1), Some(5u64)), (VertexId(2), Some(6u64))];
        let mut inbox = Inbox::over(&mut slots);
        assert_eq!(inbox.len(), 2);
        assert_eq!(inbox.first(), Some((VertexId(1), &5)));
        let first = inbox.drain().next();
        assert_eq!(first, Some((VertexId(1), 5)));
        // len counts delivered slots; iter only the remaining one.
        assert_eq!(inbox.len(), 2);
        assert_eq!(inbox.iter().count(), 1);
        assert_eq!(inbox.first(), Some((VertexId(2), &6)));
    }
}
