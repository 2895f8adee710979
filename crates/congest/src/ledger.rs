//! Round accounting for orchestrated (non-engine) protocol implementations.
//!
//! Stage-structured algorithms — the tree-routing stages of §3, the
//! Bellman–Ford explorations of Appendix B — have a round structure the model
//! prices exactly: a wave down a depth-`b` tree costs `b` rounds, a Lemma-1
//! broadcast of `M` words costs `O(M + D)` rounds. Implementations keep
//! genuine per-vertex state (metered by [`crate::MemoryMeter`]) and record
//! their round consumption here, so sweeps over thousands of vertices finish
//! in reasonable wall-clock time while reporting model-faithful costs.

/// An account of simulated CONGEST cost.
///
/// # Examples
///
/// ```
/// use congest::CostLedger;
/// let mut c = CostLedger::new();
/// c.charge_rounds(10);
/// c.charge_broadcast(100, 8); // Lemma 1: M + D rounds
/// assert_eq!(c.rounds(), 118);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CostLedger {
    rounds: u64,
    messages: u64,
    words: u64,
    broadcasts: u64,
}

impl CostLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        CostLedger::default()
    }

    /// Charge `r` synchronous rounds.
    pub fn charge_rounds(&mut self, r: u64) {
        self.rounds += r;
    }

    /// Charge `m` point-to-point messages of one word each (does not
    /// advance rounds; round cost is charged separately by the caller based
    /// on the schedule).
    pub fn charge_messages(&mut self, m: u64) {
        self.messages += m;
        self.words += m;
    }

    /// Charge a Lemma-1 broadcast/convergecast of `m` messages over a BFS
    /// tree of depth ≤ `d`: `m + d` rounds (the pipelined bound, constants
    /// elided exactly as the paper's Õ does).
    pub fn charge_broadcast(&mut self, m: u64, d: u64) {
        self.rounds += m + d;
        self.messages += m;
        self.words += m;
        self.broadcasts += 1;
    }

    /// [`CostLedger::charge_rounds`], also attributed to `rec`'s open spans.
    pub fn charge_rounds_span(&mut self, r: u64, rec: &mut obs::Recorder) {
        self.charge_rounds(r);
        rec.charge_rounds(r);
    }

    /// [`CostLedger::charge_messages`], also attributed to `rec`'s open spans.
    pub fn charge_messages_span(&mut self, m: u64, rec: &mut obs::Recorder) {
        self.charge_messages(m);
        rec.charge_messages(m, m);
    }

    /// [`CostLedger::charge_broadcast`], also attributed to `rec`'s open
    /// spans.
    pub fn charge_broadcast_span(&mut self, m: u64, d: u64, rec: &mut obs::Recorder) {
        self.charge_broadcast(m, d);
        rec.charge(&obs::Counters {
            rounds: m + d,
            messages: m,
            words: m,
            broadcasts: 1,
        });
    }

    /// Rounds consumed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Logical messages sent so far.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Words carried by those messages.
    pub fn words(&self) -> u64 {
        self.words
    }

    /// Number of Lemma-1 broadcast phases charged.
    pub fn broadcasts(&self) -> u64 {
        self.broadcasts
    }

    /// The ledger's totals as observability counters, for span attribution
    /// via [`obs::Counters::delta_since`] snapshots around a phase.
    pub fn counters(&self) -> obs::Counters {
        obs::Counters {
            rounds: self.rounds,
            messages: self.messages,
            words: self.words,
            broadcasts: self.broadcasts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let mut c = CostLedger::new();
        c.charge_rounds(5);
        c.charge_messages(3);
        c.charge_broadcast(10, 2);
        assert_eq!(c.rounds(), 17);
        assert_eq!(c.messages(), 13);
        assert_eq!(c.broadcasts(), 1);
    }

    #[test]
    fn default_is_zero() {
        let c = CostLedger::new();
        assert_eq!(c.rounds(), 0);
        assert_eq!(c.messages(), 0);
        assert_eq!(c.words(), 0);
        assert_eq!(c.broadcasts(), 0);
    }

    #[test]
    fn words_track_messages_plus_payload() {
        let mut c = CostLedger::new();
        // One word per message, point-to-point or broadcast.
        c.charge_messages(4);
        c.charge_broadcast(10, 1);
        assert_eq!(c.words(), 14);
        assert_eq!(c.counters().words, 14);
        assert_eq!(c.counters().rounds, c.rounds());
    }

    #[test]
    fn span_variants_mirror_into_recorder() {
        let mut c = CostLedger::new();
        let mut rec = obs::Recorder::new();
        let span = rec.begin("phase");
        c.charge_rounds_span(3, &mut rec);
        c.charge_messages_span(2, &mut rec);
        c.charge_broadcast_span(5, 1, &mut rec);
        rec.end(span);
        assert_eq!(rec.totals(), c.counters());
        assert_eq!(rec.spans()[0].delta, c.counters());
    }
}
