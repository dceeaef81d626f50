//! The scan precision of the index paths, which is `f64` only.
//!
//! `Precision` has one variant and nothing branches on it. It remains
//! because three names the repository benchmark (`perfbench`) builds
//! against still carry it: `DbdcParams::precision`,
//! `BuildOptions::precision` and the `precision` argument of
//! `partitioned_dbscan_with_scp_observed`. It goes with them.

/// Which representation the indexes scan coordinates in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Precision {
    /// Double precision, bit-exact with the scalar oracle.
    #[default]
    F64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_f64() {
        assert_eq!(Precision::default(), Precision::F64);
    }
}
