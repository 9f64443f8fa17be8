//! Collection strategies (`prop::collection::vec`).

use std::fmt;
use std::ops::Range;

use crate::{Strategy, TestRng};

/// The strategy returned by [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: Range<usize>,
}

/// A strategy for `Vec`s whose length is drawn from `size` and whose
/// elements are drawn from `element`.
pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
    assert!(size.start < size.end, "empty vec size range");
    VecStrategy { element, size }
}

impl<S: Strategy> Strategy for VecStrategy<S>
where
    S::Value: fmt::Debug,
{
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let span = (self.size.end - self.size.start) as u64;
        let len = self.size.start + rng.below(span) as usize;
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}
