//! Axis-aligned bounding rectangles.
//!
//! The bounding boxes of datasets and of the tree indexes' nodes (the
//! R*-tree's leaves, the kd-tree's splits). They are dimension-generic.

/// An axis-aligned, possibly degenerate, `d`-dimensional rectangle.
///
/// Invariant: `lo[i] <= hi[i]` for every dimension `i`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rect {
    lo: Box<[f64]>,
    hi: Box<[f64]>,
}

impl Rect {
    /// Creates a rectangle from lower and upper corners.
    ///
    /// # Panics
    /// Panics if the corners have different dimensionality, are empty, or if
    /// `lo[i] > hi[i]` for some `i`.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        assert_eq!(lo.len(), hi.len(), "corner dimensionality mismatch");
        assert!(!lo.is_empty(), "a rect must have at least 1 dimension");
        assert!(
            lo.iter().zip(hi.iter()).all(|(l, h)| l <= h),
            "lower corner must not exceed upper corner"
        );
        Self {
            lo: lo.into_boxed_slice(),
            hi: hi.into_boxed_slice(),
        }
    }

    /// The smallest rectangle containing every point yielded by `points`.
    /// Returns `None` if the iterator is empty.
    pub fn bounding<'a>(mut points: impl Iterator<Item = &'a [f64]>) -> Option<Self> {
        let first = points.next()?;
        let mut lo = first.to_vec();
        let mut hi = first.to_vec();
        for p in points {
            for (i, &c) in p.iter().enumerate() {
                if c < lo[i] {
                    lo[i] = c;
                }
                if c > hi[i] {
                    hi[i] = c;
                }
            }
        }
        Some(Self::new(lo, hi))
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Lower corner.
    #[inline]
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Upper corner.
    #[inline]
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(lo: [f64; 2], hi: [f64; 2]) -> Rect {
        Rect::new(lo.to_vec(), hi.to_vec())
    }

    #[test]
    #[should_panic(expected = "lower corner")]
    fn rejects_inverted_corners() {
        let _ = r([1.0, 0.0], [0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn rejects_mismatched_dims() {
        let _ = Rect::new(vec![0.0], vec![1.0, 1.0]);
    }

    #[test]
    fn bounding_of_points() {
        let pts: Vec<Vec<f64>> = vec![vec![1.0, 5.0], vec![-2.0, 0.0], vec![3.0, 2.0]];
        let b = Rect::bounding(pts.iter().map(|p| p.as_slice())).unwrap();
        assert_eq!(b, r([-2.0, 0.0], [3.0, 5.0]));
        assert!(Rect::bounding(std::iter::empty()).is_none());
    }
}
