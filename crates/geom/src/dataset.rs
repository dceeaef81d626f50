//! Flat-storage dataset container.
//!
//! All clustering algorithms in the workspace operate on a [`Dataset`]: a
//! dimensionality plus one contiguous `Vec<f64>` holding the coordinates of
//! all points row-major. Flat storage keeps the hot range-query loops cache
//! friendly and avoids one allocation per point.

use crate::point::Point;
use crate::rect::Rect;

/// A set of `n` points in `d` dimensions, stored row-major in one allocation.
///
/// Points are addressed by their `u32` row index; all clustering results
/// refer back to these indices. `u32` is deliberate: datasets in this
/// workspace are far below 4 billion points and the narrower index halves
/// the memory of the many index vectors the algorithms keep.
///
/// ```
/// use dbdc_geom::Dataset;
///
/// let mut d = Dataset::new(2);
/// d.push(&[0.0, 0.0]);
/// d.push(&[3.0, 4.0]);
/// assert_eq!(d.len(), 2);
/// assert_eq!(d.point(1), &[3.0, 4.0]);
/// let bbox = d.bounding_rect().unwrap();
/// assert_eq!(bbox.hi(), &[3.0, 4.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Dataset {
    dim: usize,
    data: Vec<f64>,
}

impl Dataset {
    /// Creates an empty dataset of the given dimensionality.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        Self {
            dim,
            data: Vec::new(),
        }
    }

    /// Creates an empty dataset with room for `n` points.
    pub fn with_capacity(dim: usize, n: usize) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        Self {
            dim,
            data: Vec::with_capacity(dim * n),
        }
    }

    /// Builds a dataset from raw row-major coordinates.
    ///
    /// # Panics
    /// Panics if `dim == 0`, `data.len()` is not a multiple of `dim`, or any
    /// coordinate is non-finite.
    pub fn from_flat(dim: usize, data: Vec<f64>) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        assert_eq!(
            data.len() % dim,
            0,
            "flat data length must be a multiple of dim"
        );
        assert!(
            data.iter().all(|c| c.is_finite()),
            "coordinates must be finite"
        );
        Self { dim, data }
    }

    /// Builds a dataset from owned points.
    ///
    /// # Panics
    /// Panics if the points disagree on dimensionality or `points` is empty
    /// (use [`Dataset::new`] for an empty dataset).
    pub fn from_points(points: &[Point]) -> Self {
        assert!(!points.is_empty(), "use Dataset::new for an empty dataset");
        let dim = points[0].dim();
        let mut data = Vec::with_capacity(dim * points.len());
        for p in points {
            assert_eq!(p.dim(), dim, "all points must share dimensionality");
            data.extend_from_slice(p.coords());
        }
        Self { dim, data }
    }

    /// Dimensionality of every point.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Whether the dataset holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The coordinates of point `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn point(&self, i: u32) -> &[f64] {
        let i = i as usize;
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Appends a point given as a coordinate slice and returns its index.
    ///
    /// # Panics
    /// Panics if the slice has the wrong dimensionality or non-finite
    /// coordinates, or if the dataset would exceed `u32::MAX` points.
    pub fn push(&mut self, coords: &[f64]) -> u32 {
        assert_eq!(coords.len(), self.dim, "wrong dimensionality");
        assert!(
            coords.iter().all(|c| c.is_finite()),
            "coordinates must be finite"
        );
        let idx = self.len();
        assert!(idx < u32::MAX as usize, "dataset exceeds u32 indexing");
        self.data.extend_from_slice(coords);
        idx as u32
    }

    /// Appends all points of `other` (which must share dimensionality) and
    /// returns the index offset at which they were inserted.
    pub fn extend_from(&mut self, other: &Dataset) -> u32 {
        assert_eq!(self.dim, other.dim, "dimensionality mismatch");
        let offset = self.len() as u32;
        self.data.extend_from_slice(&other.data);
        offset
    }

    /// Iterates over the points as coordinate slices.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[f64]> {
        self.data.chunks_exact(self.dim)
    }

    /// The raw row-major coordinate storage.
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }

    /// The smallest rectangle covering all points, or `None` if empty.
    pub fn bounding_rect(&self) -> Option<Rect> {
        Rect::bounding(self.iter())
    }

    /// Builds a new dataset containing the points at `indices`, in order.
    pub fn subset(&self, indices: &[u32]) -> Dataset {
        let mut out = Dataset::with_capacity(self.dim, indices.len());
        for &i in indices {
            out.push(self.point(i));
        }
        out
    }

    /// Splits the dataset into `k` datasets according to `assignment`
    /// (`assignment[i]` is the part of point `i`). Also returns, for each
    /// part, the original indices of its points, so results computed on the
    /// parts can be mapped back.
    ///
    /// # Panics
    /// Panics if `assignment.len() != self.len()` or any part id is `>= k`.
    pub fn partition(&self, k: usize, assignment: &[usize]) -> (Vec<Dataset>, Vec<Vec<u32>>) {
        assert_eq!(assignment.len(), self.len(), "assignment length mismatch");
        let mut parts = vec![Dataset::new(self.dim); k];
        let mut back = vec![Vec::new(); k];
        for (i, &part) in assignment.iter().enumerate() {
            assert!(part < k, "part id {part} out of range 0..{k}");
            parts[part].push(self.point(i as u32));
            back[part].push(i as u32);
        }
        (parts, back)
    }
}

/// FNV-1a over the dataset's shape and exact coordinate bit patterns, as
/// 16 hex digits. Two runs with equal checksums read exactly the same
/// input: reports stamp it so benchmarks and fleet sites can be compared.
pub fn dataset_checksum(data: &Dataset) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    eat(&(data.dim() as u64).to_le_bytes());
    eat(&(data.len() as u64).to_le_bytes());
    for p in data.iter() {
        for &c in p {
            eat(&c.to_bits().to_le_bytes());
        }
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_input_sensitive() {
        let a = Dataset::from_flat(2, vec![0.0, 1.0, 2.0, 3.0]);
        let b = Dataset::from_flat(2, vec![0.0, 1.0, 2.0, 3.5]);
        let c = Dataset::from_flat(1, vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(dataset_checksum(&a), dataset_checksum(&a));
        assert_ne!(dataset_checksum(&a), dataset_checksum(&b));
        assert_ne!(dataset_checksum(&a), dataset_checksum(&c));
        assert_eq!(dataset_checksum(&a).len(), 16);
    }

    fn sample() -> Dataset {
        Dataset::from_flat(2, vec![0.0, 0.0, 1.0, 1.0, 2.0, 4.0, -1.0, 3.0])
    }

    #[test]
    fn basic_accessors() {
        let d = sample();
        assert_eq!(d.dim(), 2);
        assert_eq!(d.len(), 4);
        assert!(!d.is_empty());
        assert_eq!(d.point(2), &[2.0, 4.0]);
        assert_eq!(d.iter().count(), 4);
        assert_eq!(d.iter().nth(3).unwrap(), &[-1.0, 3.0]);
    }

    #[test]
    fn push_and_extend() {
        let mut d = Dataset::new(2);
        assert!(d.is_empty());
        assert_eq!(d.push(&[1.0, 2.0]), 0);
        assert_eq!(d.push(&[3.0, 4.0]), 1);
        let offset = d.extend_from(&sample());
        assert_eq!(offset, 2);
        assert_eq!(d.len(), 6);
        assert_eq!(d.point(2), &[0.0, 0.0]);
    }

    #[test]
    fn from_points_round_trip() {
        let pts = vec![Point::xy(1.0, 2.0), Point::xy(3.0, 4.0)];
        let d = Dataset::from_points(&pts);
        assert_eq!(d.len(), 2);
        assert_eq!(d.point(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "share dimensionality")]
    fn from_points_rejects_mixed_dims() {
        let _ = Dataset::from_points(&[Point::xy(1.0, 2.0), Point::new(vec![1.0])]);
    }

    #[test]
    #[should_panic(expected = "multiple of dim")]
    fn from_flat_rejects_ragged() {
        let _ = Dataset::from_flat(2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn from_flat_rejects_nan() {
        let _ = Dataset::from_flat(1, vec![f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "wrong dimensionality")]
    fn push_rejects_wrong_dim() {
        sample().push(&[1.0]);
    }

    #[test]
    fn bounding_rect() {
        let d = sample();
        let r = d.bounding_rect().unwrap();
        assert_eq!(r.lo(), &[-1.0, 0.0]);
        assert_eq!(r.hi(), &[2.0, 4.0]);
        assert!(Dataset::new(3).bounding_rect().is_none());
    }

    #[test]
    fn subset_preserves_order() {
        let d = sample();
        let s = d.subset(&[3, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.point(0), &[-1.0, 3.0]);
        assert_eq!(s.point(1), &[0.0, 0.0]);
    }

    #[test]
    fn partition_with_back_mapping() {
        let d = sample();
        let (parts, back) = d.partition(2, &[0, 1, 0, 1]);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].len(), 2);
        assert_eq!(parts[0].point(1), &[2.0, 4.0]);
        assert_eq!(back[0], vec![0, 2]);
        assert_eq!(back[1], vec![1, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn partition_rejects_bad_part() {
        sample().partition(2, &[0, 1, 2, 0]);
    }
}

#[cfg(all(test, feature = "serde"))]
mod serde_tests {
    use super::*;

    #[test]
    fn dataset_serde_round_trip_via_debug_format() {
        // serde_json is not in the sanctioned dependency set, so exercise
        // the Serialize/Deserialize derives through a tiny hand-rolled
        // serializer-free check: the derives must at least compile and the
        // types implement the traits.
        fn assert_serde<T: serde::Serialize + for<'de> serde::Deserialize<'de>>() {}
        assert_serde::<Dataset>();
        assert_serde::<crate::point::Point>();
        assert_serde::<crate::clustering::Label>();
    }
}
