//! Quality of distributed clustering (Section 8 of the paper).
//!
//! The paper measures a distributed clustering `CL_distr` against a central
//! reference clustering `CL_central` by averaging a per-object quality
//! `P(x)` over all objects (Definition 9):
//!
//! `Q_DBDC = (Σ P(xᵢ)) / n`
//!
//! Two object quality functions are defined:
//!
//! * **P^I** (Definition 10, discrete): 1 if the object is noise in both
//!   clusterings, or clustered in both with
//!   `|C_d ∩ C_c| >= qp` (quality parameter, default `MinPts`); 0
//!   otherwise. *The published case list is garbled (two overlapping
//!   noise cases); we implement the interpretation dictated by the prose of
//!   Section 8.1 — see DESIGN.md.*
//! * **P^II** (Definition 11, continuous): noise in both → 1; noise in
//!   exactly one → 0; otherwise the Jaccard overlap
//!   `|C_d ∩ C_c| / |C_d ∪ C_c|` of the two clusters containing the
//!   object. *The published first case reads "1 if noise in distributed
//!   but clustered centrally", contradicting the prose ("the value of P(x)
//!   should be 0"); we follow the prose.*
//!
//! `C_d` and `C_c` are the clusters containing the object in the two
//! clusterings, so no cluster matching step is needed; the per-pair
//! intersections come from a [`Contingency`] table built once in `O(n)`.

use dbdc_geom::{Clustering, Contingency};

/// The paper's two object quality functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectQuality {
    /// Discrete `P^I` with quality parameter `qp`.
    PI {
        /// Minimum shared-cluster cardinality for an object to count as
        /// correctly clustered. The paper motivates `qp = MinPts`.
        qp: usize,
    },
    /// Continuous (Jaccard) `P^II`.
    PII,
}

/// Per-comparison report: the overall quality plus diagnostic breakdowns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityReport {
    /// `Q_DBDC` — mean object quality in `[0, 1]`.
    pub q: f64,
    /// Number of objects with quality exactly 1.
    pub perfect: usize,
    /// Number of objects with quality exactly 0.
    pub zero: usize,
    /// Objects that are noise in both clusterings.
    pub noise_both: usize,
    /// Objects noise in the distributed clustering only.
    pub noise_distr_only: usize,
    /// Objects noise in the central clustering only.
    pub noise_central_only: usize,
}

/// Computes `Q_DBDC` of a distributed clustering against a central
/// reference (Definition 9) under the chosen object quality function.
///
/// Both clusterings must label the same objects in the same order. An empty
/// comparison scores 1 (nothing was mis-clustered).
///
/// ```
/// use dbdc::{q_dbdc, ObjectQuality};
/// use dbdc_geom::{Clustering, Label};
///
/// let central = Clustering::from_labels(vec![
///     Label::Cluster(0), Label::Cluster(0), Label::Cluster(0), Label::Cluster(0),
/// ]);
/// // The distributed run split the cluster in half.
/// let distr = Clustering::from_labels(vec![
///     Label::Cluster(0), Label::Cluster(0), Label::Cluster(1), Label::Cluster(1),
/// ]);
/// let report = q_dbdc(&distr, &central, ObjectQuality::PII);
/// assert!((report.q - 0.5).abs() < 1e-12);   // Jaccard 2/4 per object
/// assert_eq!(q_dbdc(&distr, &central, ObjectQuality::PI { qp: 2 }).q, 1.0);
/// ```
pub fn q_dbdc(distr: &Clustering, central: &Clustering, p: ObjectQuality) -> QualityReport {
    assert_eq!(
        distr.len(),
        central.len(),
        "clusterings must cover the same objects"
    );
    let n = distr.len();
    if n == 0 {
        return QualityReport {
            q: 1.0,
            perfect: 0,
            zero: 0,
            noise_both: 0,
            noise_distr_only: 0,
            noise_central_only: 0,
        };
    }
    let table = Contingency::new(distr, central);
    let mut sum = 0.0f64;
    let mut perfect = 0usize;
    let mut zero = 0usize;
    for i in 0..n as u32 {
        let v = object_quality(&table, distr, central, i, p);
        sum += v;
        if v >= 1.0 {
            perfect += 1;
        } else if v <= 0.0 {
            zero += 1;
        }
    }
    QualityReport {
        q: sum / n as f64,
        perfect,
        zero,
        noise_both: table.noise_both(),
        noise_distr_only: table.noise_a_only(),
        noise_central_only: table.noise_b_only(),
    }
}

/// The per-object quality `P(x)` for object `i`.
pub fn object_quality(
    table: &Contingency,
    distr: &Clustering,
    central: &Clustering,
    i: u32,
    p: ObjectQuality,
) -> f64 {
    match (distr.label(i).cluster(), central.label(i).cluster()) {
        (None, None) => 1.0,
        (None, Some(_)) | (Some(_), None) => 0.0,
        (Some(cd), Some(cc)) => {
            let inter = table.intersection(cd, cc);
            match p {
                ObjectQuality::PI { qp } => {
                    if inter >= qp {
                        1.0
                    } else {
                        0.0
                    }
                }
                ObjectQuality::PII => inter as f64 / table.union(cd, cc) as f64,
            }
        }
    }
}

/// How one reference (central) cluster fared in the distributed clustering.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterMatch {
    /// The central cluster id.
    pub central: u32,
    /// Its size.
    pub size: usize,
    /// The distributed cluster with the largest overlap, if any member was
    /// clustered at all.
    pub best_distr: Option<u32>,
    /// Jaccard similarity of the best match.
    pub jaccard: f64,
    /// Number of distinct distributed clusters its members landed in
    /// (1 = kept intact, >1 = fragmented).
    pub fragments: usize,
    /// Members the distributed clustering calls noise.
    pub lost_to_noise: usize,
}

/// Per-cluster breakdown of a distributed-vs-central comparison: for every
/// central cluster, its best-matching distributed cluster, the Jaccard of
/// that match, its fragmentation, and how many members the distributed run
/// dropped to noise. Sorted by descending central cluster size.
pub fn cluster_report(distr: &Clustering, central: &Clustering) -> Vec<ClusterMatch> {
    assert_eq!(
        distr.len(),
        central.len(),
        "clusterings must cover the same objects"
    );
    let table = Contingency::new(distr, central);
    let mut report = Vec::with_capacity(central.n_clusters() as usize);
    for c in 0..central.n_clusters() {
        let size = table.size_b(c);
        let mut best: Option<(u32, usize)> = None;
        let mut fragments = 0usize;
        let mut clustered = 0usize;
        for d in 0..distr.n_clusters() {
            let inter = table.intersection(d, c);
            if inter > 0 {
                fragments += 1;
                clustered += inter;
                if best.map_or(true, |(_, b)| inter > b) {
                    best = Some((d, inter));
                }
            }
        }
        let jaccard = best
            .map(|(d, inter)| inter as f64 / table.union(d, c) as f64)
            .unwrap_or(0.0);
        report.push(ClusterMatch {
            central: c,
            size,
            best_distr: best.map(|(d, _)| d),
            jaccard,
            fragments,
            lost_to_noise: size - clustered,
        });
    }
    report.sort_by(|a, b| b.size.cmp(&a.size).then(a.central.cmp(&b.central)));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbdc_geom::Label;
    use proptest::prelude::*;

    fn c(ids: &[i64]) -> Clustering {
        Clustering::from_labels(
            ids.iter()
                .map(|&i| {
                    if i < 0 {
                        Label::Noise
                    } else {
                        Label::Cluster(i as u32)
                    }
                })
                .collect(),
        )
    }

    #[test]
    fn identical_clusterings_score_one() {
        let a = c(&[0, 0, 0, 1, 1, 1, -1, -1]);
        for p in [ObjectQuality::PI { qp: 3 }, ObjectQuality::PII] {
            let r = q_dbdc(&a, &a, p);
            assert_eq!(r.q, 1.0, "quality under {p:?}");
            assert_eq!(r.perfect, 8);
            assert_eq!(r.zero, 0);
            assert_eq!(r.noise_both, 2);
        }
    }

    #[test]
    fn permuted_ids_score_one() {
        let a = c(&[0, 0, 0, 1, 1, 1]);
        let b = c(&[4, 4, 4, 2, 2, 2]);
        assert_eq!(q_dbdc(&a, &b, ObjectQuality::PII).q, 1.0);
        assert_eq!(q_dbdc(&a, &b, ObjectQuality::PI { qp: 3 }).q, 1.0);
    }

    #[test]
    fn noise_mismatch_scores_zero() {
        // Object clustered in distr, noise in central -> 0 (prose of §8.1).
        let distr = c(&[0, 0, 0]);
        let central = c(&[-1, 0, 0]);
        let table = Contingency::new(&distr, &central);
        assert_eq!(
            object_quality(&table, &distr, &central, 0, ObjectQuality::PII),
            0.0
        );
        // And the symmetric case.
        let table2 = Contingency::new(&central, &distr);
        assert_eq!(
            object_quality(&table2, &central, &distr, 0, ObjectQuality::PII),
            0.0
        );
    }

    #[test]
    fn p2_is_jaccard() {
        // distr: {0,1,2,3} in one cluster; central: {0,1} + {2,3} split.
        let distr = c(&[0, 0, 0, 0]);
        let central = c(&[0, 0, 1, 1]);
        let r = q_dbdc(&distr, &central, ObjectQuality::PII);
        // For every object: |C_d ∩ C_c| = 2, |C_d ∪ C_c| = 4 -> 0.5.
        assert!((r.q - 0.5).abs() < 1e-12);
    }

    #[test]
    fn p1_thresholds_on_qp() {
        let distr = c(&[0, 0, 0, 0]);
        let central = c(&[0, 0, 1, 1]);
        // Intersections are size 2: qp=2 accepts, qp=3 rejects.
        assert_eq!(q_dbdc(&distr, &central, ObjectQuality::PI { qp: 2 }).q, 1.0);
        assert_eq!(q_dbdc(&distr, &central, ObjectQuality::PI { qp: 3 }).q, 0.0);
    }

    #[test]
    fn p1_is_coarser_than_p2() {
        // The paper's motivating observation (Figures 9/10): P^I saturates
        // where P^II still discriminates. Here P^I = 1 but P^II < 1.
        let distr = c(&[0, 0, 0, 0, 0, 0]);
        let central = c(&[0, 0, 0, 0, 1, 1]);
        let p1 = q_dbdc(&distr, &central, ObjectQuality::PI { qp: 2 }).q;
        let p2 = q_dbdc(&distr, &central, ObjectQuality::PII).q;
        assert_eq!(p1, 1.0);
        assert!(p2 < 1.0);
    }

    #[test]
    fn report_breakdown_counts() {
        let distr = c(&[0, -1, -1, 0]);
        let central = c(&[0, 0, -1, -1]);
        let r = q_dbdc(&distr, &central, ObjectQuality::PII);
        assert_eq!(r.noise_both, 1);
        assert_eq!(r.noise_distr_only, 1);
        assert_eq!(r.noise_central_only, 1);
    }

    #[test]
    fn empty_comparison_is_perfect() {
        let e = Clustering::all_noise(0);
        assert_eq!(q_dbdc(&e, &e, ObjectQuality::PII).q, 1.0);
    }

    fn arb_clustering(n: usize) -> impl Strategy<Value = Clustering> {
        prop::collection::vec(-1i64..4, n).prop_map(|v| c(&v))
    }

    proptest! {
        #[test]
        fn quality_is_bounded((a, b) in (arb_clustering(30), arb_clustering(30))) {
            for p in [ObjectQuality::PI { qp: 2 }, ObjectQuality::PII] {
                let r = q_dbdc(&a, &b, p);
                prop_assert!((0.0..=1.0).contains(&r.q));
            }
        }

        #[test]
        fn self_quality_is_one(a in arb_clustering(30)) {
            prop_assert_eq!(q_dbdc(&a, &a, ObjectQuality::PII).q, 1.0);
            prop_assert_eq!(q_dbdc(&a, &a, ObjectQuality::PI { qp: 1 }).q, 1.0);
        }

        #[test]
        fn p2_symmetric((a, b) in (arb_clustering(30), arb_clustering(30))) {
            // Jaccard and the noise cases are symmetric in the two roles.
            let ab = q_dbdc(&a, &b, ObjectQuality::PII).q;
            let ba = q_dbdc(&b, &a, ObjectQuality::PII).q;
            prop_assert!((ab - ba).abs() < 1e-12);
        }

        #[test]
        fn quality_is_invariant_under_label_permutation(
            (a, b) in (arb_clustering(30), arb_clustering(30)),
            shift in 1u32..7,
        ) {
            // Cluster ids are names, not positions: bijectively renaming
            // the ids of either clustering must not move Q_DBDC. The
            // renaming `id -> (id + shift) mod 7` is a cyclic permutation
            // of the id space used by `arb_clustering` (ids 0..4 fit in
            // 0..7 for every shift).
            let rename = |cl: &Clustering| {
                Clustering::from_labels(
                    cl.labels()
                        .iter()
                        .map(|l| match l.cluster() {
                            Some(id) => Label::Cluster((id + shift) % 7),
                            None => Label::Noise,
                        })
                        .collect(),
                )
            };
            let (ra, rb) = (rename(&a), rename(&b));
            for p in [ObjectQuality::PI { qp: 2 }, ObjectQuality::PII] {
                let orig = q_dbdc(&a, &b, p);
                prop_assert_eq!(q_dbdc(&ra, &b, p), orig);
                prop_assert_eq!(q_dbdc(&a, &rb, p), orig);
                prop_assert_eq!(q_dbdc(&ra, &rb, p), orig);
            }
        }

        #[test]
        fn p1_dominates_p2_when_qp_is_one((a, b) in (arb_clustering(30), arb_clustering(30))) {
            // With qp = 1, P^I(x) = 1 whenever the clusters intersect at
            // all, so it upper-bounds P^II pointwise.
            let p1 = q_dbdc(&a, &b, ObjectQuality::PI { qp: 1 }).q;
            let p2 = q_dbdc(&a, &b, ObjectQuality::PII).q;
            prop_assert!(p1 >= p2 - 1e-12);
        }
    }

    #[test]
    fn cluster_report_intact_match() {
        let distr = c(&[0, 0, 0, 1, 1, -1]);
        let central = c(&[0, 0, 0, 1, 1, -1]);
        let r = cluster_report(&distr, &central);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].size, 3);
        assert_eq!(r[0].jaccard, 1.0);
        assert_eq!(r[0].fragments, 1);
        assert_eq!(r[0].lost_to_noise, 0);
    }

    #[test]
    fn cluster_report_fragmentation_and_noise() {
        // Central cluster 0 = {0..5}; distributed splits it in two and
        // drops one member to noise.
        let central = c(&[0, 0, 0, 0, 0, 0]);
        let distr = c(&[0, 0, 0, 1, 1, -1]);
        let r = cluster_report(&distr, &central);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].fragments, 2);
        assert_eq!(r[0].lost_to_noise, 1);
        assert_eq!(r[0].best_distr, Some(0));
        // |best ∩ central| = 3, |best ∪ central| = 6.
        assert!((r[0].jaccard - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cluster_report_all_noise_match() {
        let central = c(&[0, 0, 0]);
        let distr = c(&[-1, -1, -1]);
        let r = cluster_report(&distr, &central);
        assert_eq!(r[0].best_distr, None);
        assert_eq!(r[0].jaccard, 0.0);
        assert_eq!(r[0].lost_to_noise, 3);
    }

    #[test]
    fn cluster_report_sorted_by_size() {
        let central = c(&[0, 1, 1, 1, 2, 2]);
        let distr = central.clone();
        let r = cluster_report(&distr, &central);
        assert_eq!(r[0].size, 3);
        assert_eq!(r[1].size, 2);
        assert_eq!(r[2].size, 1);
    }
}
