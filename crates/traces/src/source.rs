//! The word-stream trait.

/// An endless stream of 32-bit bus words.
///
/// The simulator pulls one word per clock cycle; consecutive words define
/// the per-wire transitions. Implementations must be deterministic for a
/// given construction seed.
pub trait TraceSource {
    /// Produces the next word driven onto the bus.
    fn next_word(&mut self) -> u32;

    /// Fills `out` with the next `out.len()` words, exactly the words
    /// that many [`TraceSource::next_word`] calls would produce, leaving
    /// the source where they would. Generators override it to emit
    /// whole runs per call; a boxed source then pays one dynamic call
    /// per block instead of one per word.
    fn fill(&mut self, out: &mut [u32]) {
        for word in out {
            *word = self.next_word();
        }
    }

    /// Collects the next `n` words into a vector (testing convenience).
    fn take_words(&mut self, n: usize) -> Vec<u32>
    where
        Self: Sized,
    {
        (0..n).map(|_| self.next_word()).collect()
    }
}

impl<T: TraceSource + ?Sized> TraceSource for Box<T> {
    fn next_word(&mut self) -> u32 {
        (**self).next_word()
    }

    fn fill(&mut self, out: &mut [u32]) {
        (**self).fill(out);
    }
}

impl<T: TraceSource + ?Sized> TraceSource for &mut T {
    fn next_word(&mut self) -> u32 {
        (**self).next_word()
    }

    fn fill(&mut self, out: &mut [u32]) {
        (**self).fill(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter(u32);
    impl TraceSource for Counter {
        fn next_word(&mut self) -> u32 {
            self.0 = self.0.wrapping_add(1);
            self.0
        }
    }

    #[test]
    fn take_words_advances_state() {
        let mut c = Counter(0);
        assert_eq!(c.take_words(3), vec![1, 2, 3]);
        assert_eq!(c.next_word(), 4);
    }

    #[test]
    fn boxed_and_borrowed_delegate() {
        let mut boxed: Box<dyn TraceSource> = Box::new(Counter(10));
        assert_eq!(boxed.next_word(), 11);
        let mut c = Counter(0);
        let mut r = &mut c;
        assert_eq!(TraceSource::next_word(&mut r), 1);
    }

    #[test]
    fn fill_equals_repeated_next_word_through_every_forwarder() {
        let mut out = [0; 3];
        Counter(0).fill(&mut out);
        assert_eq!(out, [1, 2, 3]);
        let mut boxed: Box<dyn TraceSource> = Box::new(Counter(10));
        boxed.fill(&mut out);
        assert_eq!((out, boxed.next_word()), ([11, 12, 13], 14));
        let mut c = Counter(0);
        let mut r = &mut c;
        TraceSource::fill(&mut r, &mut out);
        assert_eq!((out, c.next_word()), ([1, 2, 3], 4));
    }
}
