//! Collection strategies (`proptest::collection::vec`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::ops::{Range, RangeInclusive};

/// A length specification for [`vec()`].
pub trait SizeRange {
    /// Draws a length.
    fn draw_len(&self, rng: &mut TestRng) -> usize;
}

impl SizeRange for Range<usize> {
    fn draw_len(&self, rng: &mut TestRng) -> usize {
        assert!(self.start < self.end, "empty size range");
        self.start + rng.below((self.end - self.start) as u64) as usize
    }
}

impl SizeRange for RangeInclusive<usize> {
    fn draw_len(&self, rng: &mut TestRng) -> usize {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty size range");
        lo + rng.below((hi - lo + 1) as u64) as usize
    }
}

impl SizeRange for usize {
    fn draw_len(&self, _rng: &mut TestRng) -> usize {
        *self
    }
}

/// Strategy for `Vec`s whose length is drawn from `size` and whose
/// elements come from `element`.
pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
    VecStrategy { element, size }
}

/// See [`vec()`].
pub struct VecStrategy<S, R> {
    element: S,
    size: R,
}

impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = self.size.draw_len(rng);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}
