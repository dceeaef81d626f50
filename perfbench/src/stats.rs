//! Order statistics over repetition samples, and peak memory.
//!
//! No min-of-N anywhere: a stalled repetition must be able to move the
//! median and the tail.

/// The median (mean of the two middle samples for an even count).
///
/// # Panics
/// Panics on an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The position of the lower median in ascending order — the sample a
/// single-repetition breakdown is taken from.
///
/// # Panics
/// Panics on an empty sample.
pub fn lower_median_index(samples: &[f64]) -> usize {
    assert!(!samples.is_empty(), "no samples");
    let mut order: Vec<usize> = (0..samples.len()).collect();
    order.sort_by(|&a, &b| samples[a].total_cmp(&samples[b]));
    order[(samples.len() - 1) / 2]
}

/// A tail estimate with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value.
    pub value: f64,
    /// Its whole percentile in the sample.
    pub percentile: usize,
    /// Samples strictly beyond it in rank.
    pub beyond: usize,
    /// Total samples.
    pub n: usize,
}

/// Samples a tail percentile must have beyond it.
pub const TAIL_EVIDENCE: usize = 10;

/// The highest whole percentile that has at least [`TAIL_EVIDENCE`]
/// samples beyond it, by nearest rank: `p = ⌊100·(n − 10)/n⌋`, at most
/// 99, and the sample of rank `⌈p·n/100⌉`. With fewer than
/// `2·TAIL_EVIDENCE` samples that rank falls below the median, which is
/// no tail, so the median is reported instead (percentile 50) and
/// `beyond` says how thin it is.
///
/// # Panics
/// Panics on an empty sample.
pub fn tail(samples: &[f64]) -> Tail {
    let s = sorted(samples);
    let n = s.len();
    if n >= 2 * TAIL_EVIDENCE {
        let p = (100 * (n - TAIL_EVIDENCE) / n).min(99);
        let rank = (p * n).div_ceil(100); // 1-based
        Tail {
            value: s[rank - 1],
            percentile: p,
            beyond: n - rank,
            n,
        }
    } else {
        Tail {
            value: median(&s),
            percentile: 50,
            beyond: n / 2,
            n,
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The process's peak resident set so far, in MiB (`VmHWM` of
/// `/proc/self/status`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("parse {line:?}: {e}"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(lower_median_index(&[4.0, 1.0, 3.0, 2.0]), 3);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v).percentile, 99);
        assert_eq!(tail(&v).beyond, 10);
        // Whole percentiles stop at p99, which keeps more than ten
        // samples beyond it as the sample grows.
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!((tail(&v).percentile, tail(&v).beyond), (99, 20));
        let t = tail(&(1..=66).map(f64::from).collect::<Vec<_>>());
        assert_eq!((t.percentile, t.value, t.beyond), (84, 56.0, 10));
    }

    #[test]
    fn thin_samples_fall_back_to_the_median() {
        let t = tail(&[5.0, 1.0, 9.0]);
        assert_eq!((t.value, t.percentile, t.n), (5.0, 50, 3));
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().expect("linux procfs") > 0.0);
    }
}
