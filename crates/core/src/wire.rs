//! Wire format for model transmission.
//!
//! DBDC's efficiency argument rests on transmitting *models* instead of
//! data, so the byte cost of a model is a first-class measurement in this
//! reproduction (the `abl-wire` ablation compares it against shipping the
//! raw points). This module defines a compact little-endian binary format
//! for local and global models with a magic header, a version byte, and an
//! FNV-1a checksum, and exposes exact byte counts.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! local model:   "DBDC" ver=1 kind=0x01 site:u32 dim:u16 count:u32
//!                ( coords:f64×dim  eps_range:f64  local_cluster:u32 )×count
//!                checksum:u64
//! global model:  "DBDC" ver=1 kind=0x02 n_clusters:u32 eps_global:f64
//!                dim:u16 count:u32
//!                ( coords:f64×dim eps:f64 site:u32 local:u32 global:u32 )×count
//!                checksum:u64
//! ```

use crate::global_model::{GlobalModel, GlobalRep};
use crate::local_model::{LocalModel, Representative};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use dbdc_geom::Point;

const MAGIC: &[u8; 4] = b"DBDC";
const VERSION: u8 = 1;
const KIND_LOCAL: u8 = 0x01;
const KIND_GLOBAL: u8 = 0x02;

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than the header/payload requires.
    Truncated,
    /// The magic bytes are not `DBDC`.
    BadMagic,
    /// Unknown format version.
    BadVersion(u8),
    /// The message kind does not match the requested decoder.
    BadKind(u8),
    /// Checksum mismatch — the payload was corrupted.
    BadChecksum,
    /// A coordinate or radius decoded to a non-finite value.
    NonFinite,
    /// The header declares an impossible dimensionality or entry count.
    BadHeader,
    /// A model field exceeds what the wire format can represent
    /// (encode-time): encoding would silently truncate it into a
    /// checksum-valid but wrong message.
    Oversize {
        /// Which field overflowed (`"dim"` or `"reps"`).
        field: &'static str,
        /// The offending value.
        value: u64,
        /// The largest value the format can carry.
        max: u64,
    },
    /// A representative's point dimensionality disagrees with the model
    /// header (encode-time): the fixed-stride payload would misalign.
    DimMismatch {
        /// The model's declared dimensionality.
        expected: usize,
        /// The representative's actual dimensionality.
        got: usize,
    },
    /// A non-empty global model's dimensionality differs from the
    /// relabeling site's data: its points cannot be compared.
    ModelDimMismatch {
        /// The broadcast model's dimensionality.
        model: usize,
        /// The site's data dimensionality.
        data: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadMagic => write!(f, "bad magic bytes"),
            WireError::BadVersion(v) => write!(f, "unsupported version {v}"),
            WireError::BadKind(k) => write!(f, "unexpected message kind {k:#04x}"),
            WireError::BadChecksum => write!(f, "checksum mismatch"),
            WireError::NonFinite => write!(f, "non-finite value in payload"),
            WireError::BadHeader => write!(f, "implausible header (dim or count)"),
            WireError::Oversize { field, value, max } => {
                write!(f, "{field} = {value} exceeds the wire maximum {max}")
            }
            WireError::DimMismatch { expected, got } => {
                write!(f, "representative has dim {got}, model declares {expected}")
            }
            WireError::ModelDimMismatch { model, data } => {
                write!(
                    f,
                    "global model has dim {model}, the site's data has dim {data}"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

fn finish(mut buf: BytesMut) -> Bytes {
    let sum = fnv1a(&buf);
    buf.put_u64_le(sum);
    buf.freeze()
}

/// The smallest valid message on the wire: an empty local model —
/// magic (4) + version (1) + kind (1) + site (4) + dim (2) + count (4) +
/// checksum (8). Anything shorter is rejected before the checksum is
/// even attempted, so framing layers can rely on this bound.
pub const MIN_MESSAGE_BYTES: usize = 24;

fn open(bytes: &[u8], kind: u8) -> Result<&[u8], WireError> {
    if bytes.len() < MIN_MESSAGE_BYTES {
        return Err(WireError::Truncated);
    }
    let (payload, sum_bytes) = bytes.split_at(bytes.len() - 8);
    let expect = u64::from_le_bytes(sum_bytes.try_into().expect("8 bytes"));
    if fnv1a(payload) != expect {
        return Err(WireError::BadChecksum);
    }
    if &payload[..4] != MAGIC {
        return Err(WireError::BadMagic);
    }
    if payload[4] != VERSION {
        return Err(WireError::BadVersion(payload[4]));
    }
    if payload[5] != kind {
        return Err(WireError::BadKind(payload[5]));
    }
    Ok(&payload[6..])
}

fn get_f64(buf: &mut &[u8]) -> Result<f64, WireError> {
    if buf.remaining() < 8 {
        return Err(WireError::Truncated);
    }
    let v = buf.get_f64_le();
    if v.is_finite() {
        Ok(v)
    } else {
        Err(WireError::NonFinite)
    }
}

fn get_u32(buf: &mut &[u8]) -> Result<u32, WireError> {
    if buf.remaining() < 4 {
        return Err(WireError::Truncated);
    }
    Ok(buf.get_u32_le())
}

fn get_u16(buf: &mut &[u8]) -> Result<u16, WireError> {
    if buf.remaining() < 2 {
        return Err(WireError::Truncated);
    }
    Ok(buf.get_u16_le())
}

/// Validates that `dim`/`count` fit their wire fields and that every
/// representative point matches the declared dimensionality. Encoding
/// without this check would truncate `dim as u16` / `len as u32` into a
/// checksum-valid but *wrong* message — the checksum is computed after
/// the truncation, so no decoder could ever notice.
fn check_header(
    dim: usize,
    count: usize,
    rep_dims: impl Iterator<Item = usize>,
) -> Result<(), WireError> {
    if dim > u16::MAX as usize {
        return Err(WireError::Oversize {
            field: "dim",
            value: dim as u64,
            max: u16::MAX as u64,
        });
    }
    if count > u32::MAX as usize {
        return Err(WireError::Oversize {
            field: "reps",
            value: count as u64,
            max: u32::MAX as u64,
        });
    }
    for got in rep_dims {
        if got != dim {
            return Err(WireError::DimMismatch { expected: dim, got });
        }
    }
    Ok(())
}

/// Encodes a local model for transmission to the server.
///
/// Fails with [`WireError::Oversize`] when `dim` or the representative
/// count overflow their wire fields, and [`WireError::DimMismatch`] when
/// a representative's point disagrees with the declared dimensionality.
///
/// ```
/// use dbdc::{wire, LocalModel, Representative};
/// use dbdc_geom::Point;
///
/// let model = LocalModel {
///     site: 3,
///     dim: 2,
///     reps: vec![Representative {
///         point: Point::xy(1.0, 2.0),
///         eps_range: 1.5,
///         local_cluster: 0,
///     }],
/// };
/// let bytes = wire::encode_local_model(&model).unwrap();
/// assert_eq!(wire::decode_local_model(&bytes).unwrap(), model);
/// // Corruption is detected by the checksum.
/// let mut bad = bytes.to_vec();
/// bad[20] ^= 0xFF;
/// assert!(wire::decode_local_model(&bad).is_err());
/// ```
pub fn encode_local_model(m: &LocalModel) -> Result<Bytes, WireError> {
    check_header(m.dim, m.reps.len(), m.reps.iter().map(|r| r.point.dim()))?;
    let mut buf = BytesMut::with_capacity(16 + m.reps.len() * (m.dim * 8 + 12));
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(KIND_LOCAL);
    buf.put_u32_le(m.site);
    buf.put_u16_le(m.dim as u16);
    buf.put_u32_le(m.reps.len() as u32);
    for r in &m.reps {
        for &c in r.point.coords() {
            buf.put_f64_le(c);
        }
        buf.put_f64_le(r.eps_range);
        buf.put_u32_le(r.local_cluster);
    }
    Ok(finish(buf))
}

/// Decodes a local model.
pub fn decode_local_model(bytes: &[u8]) -> Result<LocalModel, WireError> {
    let mut buf = open(bytes, KIND_LOCAL)?;
    let site = get_u32(&mut buf)?;
    let dim = get_u16(&mut buf)? as usize;
    let count = get_u32(&mut buf)? as usize;
    // Reject impossible headers before allocating: each entry needs
    // dim·8 + 12 bytes, and representative points need >= 1 dimension.
    if (dim == 0 && count > 0) || buf.len() < count.saturating_mul(dim * 8 + 12) {
        return Err(WireError::BadHeader);
    }
    let mut reps = Vec::with_capacity(count);
    for _ in 0..count {
        let mut coords = Vec::with_capacity(dim);
        for _ in 0..dim {
            coords.push(get_f64(&mut buf)?);
        }
        let eps_range = get_f64(&mut buf)?;
        let local_cluster = get_u32(&mut buf)?;
        reps.push(Representative {
            point: Point::new(coords),
            eps_range,
            local_cluster,
        });
    }
    if !buf.is_empty() {
        return Err(WireError::Truncated); // trailing garbage
    }
    Ok(LocalModel { site, dim, reps })
}

/// Encodes the global model for broadcast to the client sites.
///
/// Validates `dim`/`count` against their wire fields like
/// [`encode_local_model`].
pub fn encode_global_model(g: &GlobalModel) -> Result<Bytes, WireError> {
    check_header(g.dim, g.reps.len(), g.reps.iter().map(|r| r.point.dim()))?;
    let mut buf = BytesMut::with_capacity(24 + g.reps.len() * (g.dim * 8 + 20));
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(KIND_GLOBAL);
    buf.put_u32_le(g.n_clusters);
    buf.put_f64_le(g.eps_global);
    buf.put_u16_le(g.dim as u16);
    buf.put_u32_le(g.reps.len() as u32);
    for r in &g.reps {
        for &c in r.point.coords() {
            buf.put_f64_le(c);
        }
        buf.put_f64_le(r.eps_range);
        buf.put_u32_le(r.site);
        buf.put_u32_le(r.local_cluster);
        buf.put_u32_le(r.global_cluster);
    }
    Ok(finish(buf))
}

/// Decodes a global model.
pub fn decode_global_model(bytes: &[u8]) -> Result<GlobalModel, WireError> {
    let mut buf = open(bytes, KIND_GLOBAL)?;
    let n_clusters = get_u32(&mut buf)?;
    let eps_global = get_f64(&mut buf)?;
    let dim = get_u16(&mut buf)? as usize;
    let count = get_u32(&mut buf)? as usize;
    if (dim == 0 && count > 0) || buf.len() < count.saturating_mul(dim * 8 + 20) {
        return Err(WireError::BadHeader);
    }
    let mut reps = Vec::with_capacity(count);
    for _ in 0..count {
        let mut coords = Vec::with_capacity(dim);
        for _ in 0..dim {
            coords.push(get_f64(&mut buf)?);
        }
        let eps_range = get_f64(&mut buf)?;
        let site = get_u32(&mut buf)?;
        let local_cluster = get_u32(&mut buf)?;
        let global_cluster = get_u32(&mut buf)?;
        reps.push(GlobalRep {
            point: Point::new(coords),
            eps_range,
            site,
            local_cluster,
            global_cluster,
        });
    }
    if !buf.is_empty() {
        return Err(WireError::Truncated);
    }
    Ok(GlobalModel {
        dim,
        reps,
        n_clusters,
        eps_global,
    })
}

/// Bytes needed to ship `n` raw `dim`-dimensional points — the baseline the
/// paper's transmission-cost argument compares against.
pub fn raw_data_bytes(n: usize, dim: usize) -> usize {
    n * dim * 8
}

#[cfg(test)]
mod tests {
    use super::*;

    fn local() -> LocalModel {
        LocalModel {
            site: 7,
            dim: 2,
            reps: vec![
                Representative {
                    point: Point::xy(1.5, -2.25),
                    eps_range: 1.75,
                    local_cluster: 0,
                },
                Representative {
                    point: Point::xy(10.0, 20.0),
                    eps_range: 2.0,
                    local_cluster: 1,
                },
            ],
        }
    }

    fn global() -> GlobalModel {
        GlobalModel {
            dim: 2,
            reps: vec![GlobalRep {
                point: Point::xy(0.5, 0.5),
                eps_range: 1.9,
                site: 3,
                local_cluster: 2,
                global_cluster: 11,
            }],
            n_clusters: 12,
            eps_global: 2.4,
        }
    }

    #[test]
    fn local_round_trip() {
        let m = local();
        let bytes = encode_local_model(&m).unwrap();
        let back = decode_local_model(&bytes).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn global_round_trip() {
        let g = global();
        let bytes = encode_global_model(&g).unwrap();
        let back = decode_global_model(&bytes).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn empty_models_round_trip() {
        let m = LocalModel {
            site: 0,
            dim: 2,
            reps: vec![],
        };
        assert_eq!(
            decode_local_model(&encode_local_model(&m).unwrap()).unwrap(),
            m
        );
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = encode_local_model(&local()).unwrap().to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert_eq!(decode_local_model(&bytes), Err(WireError::BadChecksum));
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = encode_local_model(&local()).unwrap();
        assert_eq!(decode_local_model(&bytes[..4]), Err(WireError::Truncated));
        // Cutting the tail invalidates the checksum.
        let cut = &bytes[..bytes.len() - 3];
        assert!(decode_local_model(cut).is_err());
    }

    #[test]
    fn kind_confusion_is_detected() {
        let bytes = encode_global_model(&global()).unwrap();
        assert_eq!(decode_local_model(&bytes), Err(WireError::BadKind(0x02)));
        let bytes = encode_local_model(&local()).unwrap();
        assert_eq!(decode_global_model(&bytes), Err(WireError::BadKind(0x01)));
    }

    #[test]
    fn bad_magic_and_version() {
        let mut bytes = encode_local_model(&local()).unwrap().to_vec();
        bytes[0] = b'X';
        // Fix the checksum so magic is reached.
        let len = bytes.len();
        let sum = fnv1a(&bytes[..len - 8]);
        bytes[len - 8..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(decode_local_model(&bytes), Err(WireError::BadMagic));

        let mut bytes = encode_local_model(&local()).unwrap().to_vec();
        bytes[4] = 9;
        let len = bytes.len();
        let sum = fnv1a(&bytes[..len - 8]);
        bytes[len - 8..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(decode_local_model(&bytes), Err(WireError::BadVersion(9)));
    }

    #[test]
    fn model_is_much_smaller_than_raw_data() {
        // The transmission-cost claim: a model of 20 representatives for a
        // site of 10 000 2-d points is a tiny fraction of the raw bytes.
        let m = LocalModel {
            site: 0,
            dim: 2,
            reps: (0..20)
                .map(|i| Representative {
                    point: Point::xy(i as f64, 0.0),
                    eps_range: 1.0,
                    local_cluster: 0,
                })
                .collect(),
        };
        let model_bytes = encode_local_model(&m).unwrap().len();
        let raw = raw_data_bytes(10_000, 2);
        assert!(model_bytes * 100 < raw, "{model_bytes} vs {raw}");
    }

    #[test]
    fn error_messages_render() {
        assert_eq!(WireError::Truncated.to_string(), "message truncated");
        assert!(WireError::BadKind(2).to_string().contains("0x02"));
        assert!(WireError::Oversize {
            field: "dim",
            value: 70_000,
            max: 65_535
        }
        .to_string()
        .contains("70000"));
        assert!(WireError::DimMismatch {
            expected: 2,
            got: 3
        }
        .to_string()
        .contains("dim 3"));
    }

    #[test]
    fn oversize_dim_is_rejected_at_encode_time() {
        // Regression: `dim as u16` used to truncate 65 536 → 0 and produce
        // a checksum-valid message declaring the wrong dimensionality.
        let m = LocalModel {
            site: 0,
            dim: u16::MAX as usize + 1,
            reps: vec![],
        };
        assert_eq!(
            encode_local_model(&m),
            Err(WireError::Oversize {
                field: "dim",
                value: u16::MAX as u64 + 1,
                max: u16::MAX as u64,
            })
        );
        let g = GlobalModel {
            dim: u16::MAX as usize + 1,
            reps: vec![],
            n_clusters: 0,
            eps_global: 1.0,
        };
        assert!(matches!(
            encode_global_model(&g),
            Err(WireError::Oversize { field: "dim", .. })
        ));
    }

    #[test]
    fn oversize_dim_no_longer_round_trips_wrong() {
        // The exact silent-truncation scenario: dim = 65 537 would have
        // encoded as dim = 1. A model at the boundary (dim 65 535) still
        // encodes fine.
        let max_ok = LocalModel {
            site: 1,
            dim: u16::MAX as usize,
            reps: vec![],
        };
        let decoded = decode_local_model(&encode_local_model(&max_ok).unwrap()).unwrap();
        assert_eq!(decoded.dim, u16::MAX as usize);
    }

    #[test]
    fn rep_dim_mismatch_is_rejected_at_encode_time() {
        // A 3-d representative in a model declaring dim 2 would misalign
        // every subsequent entry of the fixed-stride payload.
        let m = LocalModel {
            site: 0,
            dim: 2,
            reps: vec![Representative {
                point: Point::new(vec![1.0, 2.0, 3.0]),
                eps_range: 1.0,
                local_cluster: 0,
            }],
        };
        assert_eq!(
            encode_local_model(&m),
            Err(WireError::DimMismatch {
                expected: 2,
                got: 3
            })
        );
    }

    #[test]
    fn minimum_frame_is_exactly_24_bytes() {
        // The smallest valid message — an empty local model — is exactly
        // MIN_MESSAGE_BYTES long and decodes.
        let m = LocalModel {
            site: 0,
            dim: 2,
            reps: vec![],
        };
        let bytes = encode_local_model(&m).unwrap();
        assert_eq!(bytes.len(), MIN_MESSAGE_BYTES);
        assert!(decode_local_model(&bytes).is_ok());
    }

    #[test]
    fn sub_minimum_frames_are_truncated_at_the_boundary() {
        // Regression: the old bound admitted 14..23-byte frames, which then
        // hit the checksum path and could mis-report the failure. Every
        // length below MIN_MESSAGE_BYTES must be `Truncated`, for both
        // decoders, even when the bytes themselves are a valid prefix.
        let m = LocalModel {
            site: 0,
            dim: 2,
            reps: vec![],
        };
        let bytes = encode_local_model(&m).unwrap();
        for len in 0..MIN_MESSAGE_BYTES {
            assert_eq!(
                decode_local_model(&bytes[..len]),
                Err(WireError::Truncated),
                "local prefix of {len} bytes"
            );
            assert_eq!(
                decode_global_model(&bytes[..len]),
                Err(WireError::Truncated),
                "global prefix of {len} bytes"
            );
        }
        // Exactly at the boundary the message is structurally complete.
        assert_eq!(decode_local_model(&bytes[..MIN_MESSAGE_BYTES]), Ok(m));
    }
}

#[cfg(test)]
mod fuzz_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Decoding must never panic, whatever the bytes.
        #[test]
        fn decode_arbitrary_bytes_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
            let _ = decode_local_model(&bytes);
            let _ = decode_global_model(&bytes);
        }

        /// Single-bit corruption of a valid message is always rejected (the
        /// checksum covers every payload byte) or decodes to the original.
        #[test]
        fn bit_flips_are_detected(flip_byte in 0usize..200, flip_bit in 0u8..8) {
            let m = LocalModel {
                site: 3,
                dim: 2,
                reps: (0..8)
                    .map(|i| Representative {
                        point: Point::xy(i as f64, -(i as f64)),
                        eps_range: 1.0 + i as f64 * 0.1,
                        local_cluster: i % 3,
                    })
                    .collect(),
            };
            let mut bytes = encode_local_model(&m).unwrap().to_vec();
            let idx = flip_byte % bytes.len();
            bytes[idx] ^= 1 << flip_bit;
            // Flips inside the checksum itself, or the astronomically
            // unlikely colliding payload, must at worst produce an
            // error — never a silently different model.
            if let Ok(decoded) = decode_local_model(&bytes) {
                prop_assert_eq!(decoded, m);
            }
        }

        /// Round trip holds for arbitrary generated models.
        #[test]
        fn round_trip_arbitrary_models(
            site in 0u32..1000,
            reps in prop::collection::vec(
                ((-1e6..1e6f64, -1e6..1e6f64), 0.0..1e3f64, 0u32..64),
                0..32
            )
        ) {
            let m = LocalModel {
                site,
                dim: 2,
                reps: reps
                    .into_iter()
                    .map(|((x, y), eps_range, local_cluster)| Representative {
                        point: Point::xy(x, y),
                        eps_range,
                        local_cluster,
                    })
                    .collect(),
            };
            let decoded = decode_local_model(&encode_local_model(&m).unwrap()).unwrap();
            prop_assert_eq!(decoded, m);
        }

        /// Every strict prefix of a valid encoded frame decodes to a clean
        /// `WireError` — never a panic, never a spurious success. This is
        /// the exact shape a truncated TCP read (or the fault proxy's
        /// truncate mode) hands the decoder.
        #[test]
        fn strict_prefixes_error_cleanly(
            site in 0u32..100,
            reps in prop::collection::vec(
                ((-1e3..1e3f64, -1e3..1e3f64), 0.0..10.0f64, 0u32..8),
                0..6
            )
        ) {
            let m = LocalModel {
                site,
                dim: 2,
                reps: reps
                    .into_iter()
                    .map(|((x, y), eps_range, local_cluster)| Representative {
                        point: Point::xy(x, y),
                        eps_range,
                        local_cluster,
                    })
                    .collect(),
            };
            let bytes = encode_local_model(&m).unwrap();
            for len in 0..bytes.len() {
                prop_assert!(
                    decode_local_model(&bytes[..len]).is_err(),
                    "prefix of {len}/{} bytes decoded",
                    bytes.len()
                );
                prop_assert!(decode_global_model(&bytes[..len]).is_err());
            }
            // And the same for a global frame built from the local reps.
            let g = GlobalModel {
                dim: 2,
                reps: m
                    .reps
                    .iter()
                    .map(|r| GlobalRep {
                        point: r.point.clone(),
                        eps_range: r.eps_range,
                        site: m.site,
                        local_cluster: r.local_cluster,
                        global_cluster: 0,
                    })
                    .collect(),
                n_clusters: 1,
                eps_global: 2.0,
            };
            let gb = encode_global_model(&g).unwrap();
            for len in 0..gb.len() {
                prop_assert!(decode_global_model(&gb[..len]).is_err());
            }
        }
    }
}

#[cfg(test)]
mod crafted_tests {
    use super::*;

    /// Re-checksum a tampered payload so the corruption reaches the parser.
    fn reseal(mut payload: Vec<u8>) -> Vec<u8> {
        let len = payload.len();
        let sum = fnv1a(&payload[..len - 8]);
        payload[len - 8..].copy_from_slice(&sum.to_le_bytes());
        payload
    }

    #[test]
    fn huge_count_is_rejected_without_allocation() {
        let m = LocalModel {
            site: 0,
            dim: 2,
            reps: vec![],
        };
        let mut bytes = encode_local_model(&m).unwrap().to_vec();
        // count field sits after magic(4)+ver(1)+kind(1)+site(4)+dim(2).
        bytes[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        let bytes = reseal(bytes);
        assert_eq!(decode_local_model(&bytes), Err(WireError::BadHeader));
    }

    #[test]
    fn zero_dim_with_entries_is_rejected() {
        let m = LocalModel {
            site: 0,
            dim: 2,
            reps: vec![Representative {
                point: Point::xy(1.0, 2.0),
                eps_range: 1.0,
                local_cluster: 0,
            }],
        };
        let mut bytes = encode_local_model(&m).unwrap().to_vec();
        bytes[10..12].copy_from_slice(&0u16.to_le_bytes()); // dim := 0
        let bytes = reseal(bytes);
        // Either BadHeader (dim 0) or Truncated (trailing bytes) — never a
        // panic.
        assert!(decode_local_model(&bytes).is_err());
    }

    #[test]
    fn global_huge_count_rejected() {
        let g = GlobalModel {
            dim: 2,
            reps: vec![],
            n_clusters: 0,
            eps_global: 1.0,
        };
        let mut bytes = encode_global_model(&g).unwrap().to_vec();
        // count sits after magic(4)+ver+kind(2)+n_clusters(4)+eps(8)+dim(2).
        bytes[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
        let bytes = reseal(bytes);
        assert_eq!(decode_global_model(&bytes), Err(WireError::BadHeader));
    }
}
