//! Geometry primitives for the DBDC reproduction.
//!
//! This crate is the bottom layer of the workspace: it defines the vector
//! [`Point`] type and its flat-storage container [`Dataset`], distance
//! [`metric`]s (both for vector data and, via [`metric::MetricSpace`], for
//! arbitrary metric objects such as strings), axis-aligned bounding
//! [`Rect`]angles used by the spatial indexes, and the [`Clustering`] label
//! vector together with tools for comparing two clusterings.
//!
//! Everything higher in the stack (spatial indexes, DBSCAN, the DBDC
//! protocol) is written against these types, so they are deliberately small,
//! allocation-conscious and heavily tested.

pub mod clustering;
pub mod dataset;
pub mod metric;
pub mod normalize;
pub mod point;
pub mod precision;
pub mod rect;
pub mod svg;

pub use clustering::{
    adjusted_rand_index, normalized_mutual_information, ClusterId, Clustering, Contingency, Label,
};
pub use dataset::{dataset_checksum, Dataset};
pub use metric::{Chebyshev, Euclidean, Manhattan, Metric, Minkowski, SquaredEuclidean};
pub use normalize::Scaler;
pub use point::Point;
pub use precision::Precision;
pub use rect::Rect;
