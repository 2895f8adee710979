//! Message size accounting in the CONGEST RAM model.
//!
//! In CONGEST RAM a message may carry O(1) machine words, each word being a
//! vertex identity, an edge weight, a distance, "or anything else of no
//! larger size" (paper §2). Protocols define their own message enums and
//! report the word count through [`WordSized`]; the engine enforces the
//! per-edge-per-round word cap with it.

use graphs::VertexId;

/// Types whose CONGEST word footprint is known.
///
/// Implementations must return the number of machine words required to
/// transmit (for messages) or store (for state) the value.
///
/// # Examples
///
/// ```
/// use congest::WordSized;
/// assert_eq!(42u64.words(), 1);
/// assert_eq!((graphs::VertexId(1), 7u64).words(), 2);
/// assert_eq!(vec![1u64, 2, 3].words(), 3);
/// ```
pub trait WordSized {
    /// Number of machine words occupied by `self`.
    fn words(&self) -> usize;
}

impl WordSized for u64 {
    fn words(&self) -> usize {
        1
    }
}

impl WordSized for u32 {
    fn words(&self) -> usize {
        1
    }
}

impl WordSized for usize {
    fn words(&self) -> usize {
        1
    }
}

impl WordSized for VertexId {
    fn words(&self) -> usize {
        1
    }
}

impl WordSized for bool {
    fn words(&self) -> usize {
        1
    }
}

impl<T: WordSized> WordSized for Option<T> {
    fn words(&self) -> usize {
        // The discriminant shares a word with the payload's first word in
        // practice; we charge payload words, minimum one for the flag.
        match self {
            Some(t) => t.words(),
            None => 1,
        }
    }
}

impl<A: WordSized, B: WordSized> WordSized for (A, B) {
    fn words(&self) -> usize {
        self.0.words() + self.1.words()
    }
}

impl<A: WordSized, B: WordSized, C: WordSized> WordSized for (A, B, C) {
    fn words(&self) -> usize {
        self.0.words() + self.1.words() + self.2.words()
    }
}

impl<T: WordSized> WordSized for Vec<T> {
    fn words(&self) -> usize {
        self.iter().map(WordSized::words).sum()
    }
}

impl<T: WordSized> WordSized for [T] {
    fn words(&self) -> usize {
        self.iter().map(WordSized::words).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_sizes() {
        assert_eq!(5u64.words(), 1);
        assert_eq!(5u32.words(), 1);
        assert_eq!(5usize.words(), 1);
        assert_eq!(VertexId(9).words(), 1);
        assert_eq!(true.words(), 1);
    }

    #[test]
    fn compound_sizes() {
        assert_eq!((VertexId(0), 3u64).words(), 2);
        assert_eq!((VertexId(0), VertexId(1), 3u64).words(), 3);
        assert_eq!(Some(7u64).words(), 1);
        assert_eq!(Option::<u64>::None.words(), 1);
        let v: Vec<(VertexId, u64)> = vec![(VertexId(0), 1), (VertexId(1), 2)];
        assert_eq!(v.words(), 4);
    }

    #[test]
    fn slice_sizes() {
        let xs = [1u64, 2, 3];
        assert_eq!(xs[..].words(), 3);
        assert_eq!(xs[..0].words(), 0);
    }
}
