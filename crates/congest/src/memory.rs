//! Per-vertex memory metering.
//!
//! The paper's headline contribution is the *individual memory requirement*:
//! the number of words a vertex uses at any point during preprocessing,
//! including its eventual tables and labels. [`MemoryMeter`] tracks, for each
//! vertex, the current and peak word counts. Ledger-style algorithms call
//! [`MemoryMeter::set`]/[`MemoryMeter::add`] as their per-vertex state grows
//! and shrinks; engine-style protocols are polled automatically each round.

use graphs::VertexId;

/// Tracks current and peak memory words per vertex.
///
/// # Examples
///
/// ```
/// use congest::MemoryMeter;
/// use graphs::VertexId;
///
/// let mut m = MemoryMeter::new(2);
/// m.add(VertexId(0), 10);
/// m.sub(VertexId(0), 4);
/// m.add(VertexId(1), 3);
/// assert_eq!(m.current(VertexId(0)), 6);
/// assert_eq!(m.peak(VertexId(0)), 10);
/// assert_eq!(m.max_peak(), 10);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemoryMeter {
    current: Vec<usize>,
    peak: Vec<usize>,
}

impl MemoryMeter {
    /// A meter for `n` vertices, all at zero.
    pub fn new(n: usize) -> Self {
        MemoryMeter {
            current: vec![0; n],
            peak: vec![0; n],
        }
    }

    /// Number of vertices tracked.
    pub fn len(&self) -> usize {
        self.current.len()
    }

    /// Whether the meter tracks no vertices.
    pub fn is_empty(&self) -> bool {
        self.current.is_empty()
    }

    /// Charge `words` additional words to `v`.
    pub fn add(&mut self, v: VertexId, words: usize) {
        let c = &mut self.current[v.index()];
        *c += words;
        if *c > self.peak[v.index()] {
            self.peak[v.index()] = *c;
        }
    }

    /// Release `words` words from `v` (saturating at zero).
    pub fn sub(&mut self, v: VertexId, words: usize) {
        let c = &mut self.current[v.index()];
        *c = c.saturating_sub(words);
    }

    /// Set `v`'s current usage to exactly `words`, updating the peak.
    pub fn set(&mut self, v: VertexId, words: usize) {
        self.current[v.index()] = words;
        if words > self.peak[v.index()] {
            self.peak[v.index()] = words;
        }
    }

    /// Record that `v` *transiently* touched `words` words (peak is updated,
    /// current is unchanged). Use for one-round scratch space such as an
    /// incoming message being folded into an accumulator.
    pub fn touch(&mut self, v: VertexId, words: usize) {
        let transient = self.current[v.index()] + words;
        if transient > self.peak[v.index()] {
            self.peak[v.index()] = transient;
        }
    }

    /// Current words used by `v`.
    pub fn current(&self, v: VertexId) -> usize {
        self.current[v.index()]
    }

    /// Peak words ever used by `v`.
    pub fn peak(&self, v: VertexId) -> usize {
        self.peak[v.index()]
    }

    /// The maximum peak over all vertices — the paper's "memory per vertex".
    pub fn max_peak(&self) -> usize {
        self.peak.iter().copied().max().unwrap_or(0)
    }

    /// The per-vertex peak slice (index = vertex id), for distribution
    /// snapshots such as [`obs::MemoryDist::from_peaks`].
    pub fn peaks(&self) -> &[usize] {
        &self.peak
    }

    /// Cross-check a claimed per-vertex *resident* word count against the
    /// metered peaks: every word a vertex holds at the end of a run must
    /// have been charged, so `resident[v] > peak(v)` means the attribution
    /// and the meter disagree. Returns the first such vertex, or `None`
    /// when the meter dominates the claim everywhere (the healthy case).
    ///
    /// # Panics
    ///
    /// Panics if `resident` is not exactly one entry per metered vertex.
    pub fn first_undershoot(&self, resident: &[usize]) -> Option<VertexId> {
        assert_eq!(
            resident.len(),
            self.peak.len(),
            "resident slice must cover every metered vertex"
        );
        self.peak
            .iter()
            .zip(resident)
            .position(|(&peak, &claimed)| claimed > peak)
            .map(|i| VertexId(i as u32))
    }

    /// Fold a construction confined to `members` into this meter as if the
    /// two ran *concurrently*: currents and peaks add. Slot `r` of `other`
    /// holds the usage of `members[r]`; vertices outside `members` took no
    /// part and are left alone.
    ///
    /// # Panics
    ///
    /// Panics if `other` does not have exactly one slot per member.
    pub fn merge_concurrent(&mut self, members: &[VertexId], other: &MemoryMeter) {
        assert_eq!(members.len(), other.len(), "one meter slot per member");
        for (r, v) in members.iter().enumerate() {
            self.peak[v.index()] += other.peak[r];
            self.current[v.index()] += other.current[r];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut m = MemoryMeter::new(1);
        m.add(VertexId(0), 5);
        m.sub(VertexId(0), 5);
        m.add(VertexId(0), 3);
        assert_eq!(m.current(VertexId(0)), 3);
        assert_eq!(m.peak(VertexId(0)), 5);
    }

    #[test]
    fn sub_saturates() {
        let mut m = MemoryMeter::new(1);
        m.sub(VertexId(0), 10);
        assert_eq!(m.current(VertexId(0)), 0);
    }

    #[test]
    fn set_can_lower_current_but_not_peak() {
        let mut m = MemoryMeter::new(1);
        m.set(VertexId(0), 9);
        m.set(VertexId(0), 2);
        assert_eq!(m.current(VertexId(0)), 2);
        assert_eq!(m.peak(VertexId(0)), 9);
    }

    #[test]
    fn touch_is_transient() {
        let mut m = MemoryMeter::new(1);
        m.add(VertexId(0), 4);
        m.touch(VertexId(0), 3);
        assert_eq!(m.current(VertexId(0)), 4);
        assert_eq!(m.peak(VertexId(0)), 7);
    }

    #[test]
    fn max_peak_over_vertices() {
        let mut m = MemoryMeter::new(3);
        m.add(VertexId(0), 1);
        m.add(VertexId(1), 7);
        m.add(VertexId(2), 3);
        assert_eq!(m.max_peak(), 7);
    }

    #[test]
    fn empty_meter() {
        let m = MemoryMeter::new(0);
        assert_eq!(m.max_peak(), 0);
        assert!(m.is_empty());
    }

    #[test]
    fn merge_concurrent_adds() {
        let mut a = MemoryMeter::new(3);
        a.add(VertexId(2), 5);
        // A one-member construction at vertex 2: its only slot is slot 0.
        let mut b = MemoryMeter::new(1);
        b.add(VertexId(0), 3);
        a.merge_concurrent(&[VertexId(2)], &b);
        assert_eq!(a.peak(VertexId(2)), 8);
        assert_eq!(a.current(VertexId(2)), 8);
        assert_eq!(a.peak(VertexId(0)), 0);
    }
}
