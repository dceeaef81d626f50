//! Minimal CSV reading/writing for point data and cluster labels.
//!
//! Format: one point per line, coordinates separated by commas. An optional
//! header line is detected (any non-numeric first field) and skipped on
//! read; labels are written as an extra final column where requested
//! (`noise` for unclustered points).

use dbdc_geom::{Clustering, Dataset, Label};
use std::io::{BufRead, Write};

/// Errors from CSV parsing.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line (1-based line number, message).
    Parse(usize, String),
    /// The file contained no data rows.
    Empty,
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "i/o error: {e}"),
            CsvError::Parse(line, msg) => write!(f, "line {line}: {msg}"),
            CsvError::Empty => write!(f, "no data rows"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Reads a dataset from CSV. All rows must have the same number of numeric
/// columns; a single leading header row is skipped automatically.
pub fn read_dataset(reader: impl BufRead) -> Result<Dataset, CsvError> {
    let mut data: Option<Dataset> = None;
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        let parsed: Result<Vec<f64>, _> = fields.iter().map(|f| f.parse::<f64>()).collect();
        match parsed {
            Err(_) if i == 0 && data.is_none() => continue, // header
            Err(e) => {
                return Err(CsvError::Parse(i + 1, format!("bad number: {e}")));
            }
            Ok(coords) => {
                if coords.is_empty() {
                    return Err(CsvError::Parse(i + 1, "empty row".into()));
                }
                if !coords.iter().all(|c| c.is_finite()) {
                    return Err(CsvError::Parse(i + 1, "non-finite coordinate".into()));
                }
                let d = data.get_or_insert_with(|| Dataset::new(coords.len()));
                if coords.len() != d.dim() {
                    return Err(CsvError::Parse(
                        i + 1,
                        format!("expected {} columns, got {}", d.dim(), coords.len()),
                    ));
                }
                d.push(&coords);
            }
        }
    }
    data.ok_or(CsvError::Empty)
}

/// Writes a dataset (optionally with labels) as CSV.
pub fn write_dataset(
    mut out: impl Write,
    data: &Dataset,
    labels: Option<&Clustering>,
) -> std::io::Result<()> {
    if let Some(l) = labels {
        assert_eq!(l.len(), data.len(), "labels must cover the dataset");
    }
    for (i, p) in data.iter().enumerate() {
        let coords: Vec<String> = p.iter().map(|c| format!("{c}")).collect();
        match labels.map(|l| l.label(i as u32)) {
            Some(Label::Cluster(c)) => writeln!(out, "{},{c}", coords.join(","))?,
            Some(Label::Noise) => writeln!(out, "{},noise", coords.join(","))?,
            None => writeln!(out, "{}", coords.join(","))?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbdc_geom::Label;
    use proptest::prelude::*;

    #[test]
    fn round_trip() {
        let d = Dataset::from_flat(2, vec![1.0, 2.0, 3.5, -4.25]);
        let mut buf = Vec::new();
        write_dataset(&mut buf, &d, None).unwrap();
        let back = read_dataset(&buf[..]).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn skips_header() {
        let input = "x,y\n1.0,2.0\n3.0,4.0\n";
        let d = read_dataset(input.as_bytes()).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.point(1), &[3.0, 4.0]);
    }

    #[test]
    fn rejects_ragged_rows() {
        let input = "1.0,2.0\n3.0\n";
        let err = read_dataset(input.as_bytes()).unwrap_err();
        assert!(matches!(err, CsvError::Parse(2, _)), "{err}");
    }

    #[test]
    fn rejects_bad_numbers_mid_file() {
        let input = "1.0,2.0\nfoo,4.0\n";
        let err = read_dataset(input.as_bytes()).unwrap_err();
        assert!(matches!(err, CsvError::Parse(2, _)), "{err}");
    }

    #[test]
    fn rejects_empty() {
        assert!(matches!(read_dataset("".as_bytes()), Err(CsvError::Empty)));
        assert!(matches!(
            read_dataset("x,y\n".as_bytes()),
            Err(CsvError::Empty)
        ));
    }

    #[test]
    fn writes_labels() {
        let d = Dataset::from_flat(2, vec![1.0, 2.0, 3.0, 4.0]);
        let labels = Clustering::from_labels(vec![Label::Cluster(0), Label::Noise]);
        let mut buf = Vec::new();
        write_dataset(&mut buf, &d, Some(&labels)).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text, "1,2,0\n3,4,noise\n");
    }

    #[test]
    fn blank_lines_are_skipped() {
        let input = "1.0,2.0\n\n3.0,4.0\n\n";
        let d = read_dataset(input.as_bytes()).unwrap();
        assert_eq!(d.len(), 2);
    }

    /// CSV-like bytes: rows of `width` cells, each a finite number or,
    /// more often the higher `noise`, a raw byte, a stray separator, or
    /// a non-finite or malformed field.
    fn csv_bytes() -> impl Strategy<Value = Vec<u8>> {
        const GOOD: &[&str] = &["1", "-2.5", "3e2", "0", ".5", "-0", " 7 "];
        const BAD: &[&str] = &["inf", "NaN", "1e999", "", "x", "\r", "\n", ",", "--1"];
        let cell = (0usize..64, any::<u8>());
        let shape = (1usize..4, 0usize..4);
        (shape, prop::collection::vec(cell, 0..30)).prop_map(|((width, noise), cells)| {
            let mut out = Vec::new();
            for (i, (roll, byte)) in cells.into_iter().enumerate() {
                match roll % 16 {
                    r if r >= noise => out.extend_from_slice(GOOD[roll % GOOD.len()].as_bytes()),
                    0 => out.push(byte),
                    _ => out.extend_from_slice(BAD[roll % BAD.len()].as_bytes()),
                }
                out.push(if (i + 1) % width == 0 { b'\n' } else { b',' });
            }
            out
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn read_never_panics_on_arbitrary_bytes(
            bytes in prop::collection::vec(any::<u8>(), 0..256),
        ) {
            let _ = read_dataset(&bytes[..]);
        }

        #[test]
        fn accepted_csv_is_a_finite_rectangle(bytes in csv_bytes()) {
            if let Ok(d) = read_dataset(&bytes[..]) {
                prop_assert!(!d.is_empty());
                prop_assert_eq!(d.as_flat().len(), d.len() * d.dim());
                prop_assert!(d.as_flat().iter().all(|c| c.is_finite()), "{:?}", d);
            }
        }

        #[test]
        fn write_then_read_is_bit_identical(
            dim in 1usize..5,
            bits in prop::collection::vec(any::<u64>(), 1..40),
        ) {
            // Any finite f64 at all: subnormals, -0.0, extreme exponents.
            let mut coords: Vec<f64> = bits
                .iter()
                .map(|&b| f64::from_bits(b))
                .map(|c| if c.is_finite() { c } else { -0.0 })
                .collect();
            coords.resize(coords.len().div_ceil(dim) * dim, 1.5);
            let d = Dataset::from_flat(dim, coords);
            let mut buf = Vec::new();
            write_dataset(&mut buf, &d, None).unwrap();
            let back = read_dataset(&buf[..]).unwrap();
            prop_assert_eq!(back.dim(), dim);
            let pattern = |d: &Dataset| d.as_flat().iter().map(|c| c.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(pattern(&back), pattern(&d), "{:?} read back as {:?}", d, back);
        }
    }
}
