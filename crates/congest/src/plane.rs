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
//!   every vertex as one flat slot buffer, a per-vertex `start` and `len`, and
//!   a **mail bitset** with one bit per vertex that has mail this round.
//!   Delivering costs the messages and the previous and next rounds' mail
//!   vertices plus `n / 64` bitset words, never `n`: reset the old mail
//!   vertices' lengths, count each message and set its destination's bit,
//!   hand out offsets by walking the set bits in ascending id, and scatter.
//!   The scatter is stable, so every inbox stays in (sender id, send
//!   sequence) order. A vertex without mail keeps a stale `start`, which is
//!   never read: its `len` of 0 gives it an empty inbox.
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

/// Set bit `v` of a bitset of one bit per vertex.
pub(crate) fn set_bit(words: &mut [u64], v: usize) {
    words[v / 64] |= 1 << (v % 64);
}

/// The delivery-side arena for all `n` vertices: one flat slot buffer,
/// per-vertex offsets and lengths, and the bitset of vertices with mail,
/// rebuilt (not reallocated) every round.
///
/// Slots hold `Option<M>` so an [`Inbox`] can hand messages out by move;
/// whatever a protocol leaves behind is dropped at the next refill.
#[derive(Debug)]
pub(crate) struct InboxArena<M> {
    /// Vertex `v`'s inbox is `slots[start[v]..start[v] + len[v]]` while it
    /// has mail; otherwise `start[v]` is stale and never read.
    start: Vec<usize>,
    len: Vec<usize>,
    /// Bit `v` is set iff `len[v] > 0`.
    mail: Vec<u64>,
    slots: Vec<(VertexId, Option<M>)>,
}

impl<M> InboxArena<M> {
    pub(crate) fn new(n: usize) -> Self {
        InboxArena {
            start: vec![0; n],
            len: vec![0; n],
            mail: vec![0; n.div_ceil(64)],
            slots: Vec::new(),
        }
    }

    /// Total messages currently delivered.
    pub(crate) fn total(&self) -> usize {
        self.slots.len()
    }

    /// One bit per vertex, set iff the vertex has mail this round.
    pub(crate) fn mail(&self) -> &[u64] {
        &self.mail
    }

    /// The inbox view for vertex `v`.
    pub(crate) fn inbox(&mut self, v: usize) -> Inbox<'_, M> {
        let len = self.len[v];
        if len == 0 {
            return Inbox { slots: &mut [] };
        }
        let start = self.start[v];
        Inbox {
            slots: &mut self.slots[start..start + len],
        }
    }

    /// Deliver `outbox` into the arena by a stable counting sort on the
    /// destination over the vertices with mail only, so each inbox keeps
    /// the outbox's (source, send) order. The outbox is drained (capacity
    /// retained) for reuse next round.
    pub(crate) fn deliver(&mut self, outbox: &mut Vec<OutMsg<M>>) {
        for (i, word) in self.mail.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                self.len[i * 64 + bits.trailing_zeros() as usize] = 0;
                bits &= bits - 1;
            }
        }
        for m in outbox.iter() {
            let v = m.to.index();
            self.len[v] += 1;
            set_bit(&mut self.mail, v);
        }
        // Each mail vertex's `start` is first its inbox's end; the reverse
        // scatter below walks it back to the beginning.
        let mut end = 0;
        for (i, &word) in self.mail.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let v = i * 64 + bits.trailing_zeros() as usize;
                end += self.len[v];
                self.start[v] = end;
                bits &= bits - 1;
            }
        }
        // Drop last round's leftovers and rebuild in place; `resize_with`
        // reuses the buffer's capacity, so steady state allocates nothing.
        self.slots.clear();
        self.slots.resize_with(outbox.len(), || (VertexId(0), None));
        for m in outbox.drain(..).rev() {
            let s = &mut self.start[m.to.index()];
            *s -= 1;
            self.slots[*s] = (m.from, Some(m.msg));
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
        arena.deliver(&mut outbox);
        assert_eq!(arena.total(), 5);
        assert_eq!(arena.inbox(3).len(), 3);
        assert_eq!(arena.inbox(1).len(), 0);
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
        arena.deliver(&mut outbox);
        assert_eq!(arena.inbox(0).len(), 1);
        // Leave the message undrained; the next (empty) delivery drops it.
        arena.deliver(&mut outbox);
        assert_eq!(arena.total(), 0);
        assert_eq!(arena.inbox(0).len(), 0);
    }

    #[test]
    fn a_mailless_vertex_with_a_stale_start_gets_an_empty_inbox() {
        // Round one puts vertex 2's inbox at offsets 3..5; round two
        // delivers a single message, so that stale start lies past the slots.
        let mut arena = InboxArena::new(3);
        let mut outbox = vec![
            msg(0, 1, 1),
            msg(1, 0, 2),
            msg(1, 2, 3),
            msg(2, 0, 4),
            msg(2, 1, 5),
        ];
        arena.deliver(&mut outbox);
        assert_eq!(arena.inbox(2).len(), 2);
        outbox.push(msg(0, 1, 6));
        arena.deliver(&mut outbox);
        assert_eq!(arena.total(), 1);
        for v in [1, 2] {
            assert!(arena.inbox(v).is_empty(), "vertex {v}");
            assert_eq!(arena.inbox(v).drain().count(), 0, "vertex {v}");
        }
        assert_eq!(arena.mail(), [0b001]);
        let got: Vec<(VertexId, u64)> = arena.inbox(0).drain().collect();
        assert_eq!(got, vec![(VertexId(1), 6)]);
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
