//! Length-prefixed frames over TCP.
//!
//! A TCP stream has no message boundaries, so every session message —
//! handshake, model upload, broadcast, acks — travels inside a frame:
//!
//! ```text
//! len:u32 LE | kind:u8 | payload | checksum:u64 LE
//!            `------ len bytes ------------------'
//! ```
//!
//! `len` counts everything after the prefix (kind + payload + checksum,
//! so `payload.len() + 9`). The checksum is FNV-1a over `kind` followed
//! by `payload`, computed independently from the wire codec's own
//! checksum: the frame layer detects transport corruption before any
//! payload is interpreted, and model payloads are *additionally*
//! protected end-to-end by [`dbdc::wire`].
//!
//! Reads are strict: a short read mid-frame is an error (the connection
//! died), a length prefix above the configured ceiling aborts before
//! any allocation, and a checksum mismatch rejects the frame without
//! looking at the payload.

use std::io::{Read, Write};

use crate::error::FrameError;

/// Frame overhead past the length prefix: kind byte + checksum.
pub const FRAME_OVERHEAD: usize = 1 + 8;

/// Default ceiling on `len`. Generous for models (a representative is
/// tens of bytes; 64 MiB holds millions) while bounding allocation from
/// a corrupt or hostile length prefix.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 64 << 20;

/// Lists every frame kind once — doc comment, variant, kind byte, wire
/// name — in discriminant order, generating the enum, [`FrameKind::ALL`]
/// and [`FrameKind::name`].
macro_rules! frame_kinds {
    ($($(#[doc = $doc:literal])+ $kind:ident = $byte:literal, $name:literal;)+) => {
        /// Every message kind of the session protocol.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum FrameKind {
            $($(#[doc = $doc])+ $kind = $byte,)+
        }

        impl FrameKind {
            /// Every kind, in discriminant order (discriminants start at
            /// 1, so `kind as usize - 1` indexes this array).
            pub const ALL: [FrameKind; [$($byte),+].len()] = [$(FrameKind::$kind),+];

            /// The kind's name, for protocol-error messages and per-kind
            /// metric scopes.
            pub fn name(self) -> &'static str {
                match self {
                    $(FrameKind::$kind => $name,)+
                }
            }
        }
    };
}

frame_kinds! {
    /// Site → server: protocol version + site id + expected site count.
    Hello = 1, "HELLO";
    /// Server → site: handshake accepted.
    HelloAck = 2, "HELLO_ACK";
    /// Site → server: a wire-encoded [`dbdc::LocalModel`].
    LocalModel = 3, "LOCAL_MODEL";
    /// Server → site: local model received and verified.
    ModelAck = 4, "MODEL_ACK";
    /// Server → site: a wire-encoded [`dbdc::GlobalModel`].
    GlobalModel = 5, "GLOBAL_MODEL";
    /// Site → server: global model received and verified.
    GlobalAck = 6, "GLOBAL_ACK";
    /// Either direction: fatal rejection, payload is a UTF-8 reason.
    Error = 7, "ERROR";
    /// Server → site: your GLOBAL_ACK was recorded, the session is
    /// over. Without this the site could not distinguish "server got my
    /// ack and closed" from "the link died as I acked" — it stops only
    /// on GOODBYE and otherwise replays the (idempotent) session.
    Goodbye = 8, "GOODBYE";
}

impl FrameKind {
    fn from_u8(b: u8) -> Result<Self, FrameError> {
        FrameKind::ALL
            .into_iter()
            .find(|&k| k as u8 == b)
            .ok_or(FrameError::BadKind(b))
    }
}

/// A decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The message kind.
    pub kind: FrameKind,
    /// The message body (a wire-encoded model, a handshake, a reason).
    pub payload: Vec<u8>,
}

impl Frame {
    /// A frame with no payload (acks).
    pub fn bare(kind: FrameKind) -> Self {
        Frame {
            kind,
            payload: Vec::new(),
        }
    }

    /// A frame carrying `payload`.
    pub fn new(kind: FrameKind, payload: Vec<u8>) -> Self {
        Frame { kind, payload }
    }
}

fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut hash = seed;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn frame_checksum(kind: u8, payload: &[u8]) -> u64 {
    fnv1a(fnv1a(FNV_OFFSET, &[kind]), payload)
}

/// Encodes a frame into its on-stream bytes (prefix included).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let len = frame.payload.len() + FRAME_OVERHEAD;
    let mut out = Vec::with_capacity(4 + len);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.push(frame.kind as u8);
    out.extend_from_slice(&frame.payload);
    out.extend_from_slice(&frame_checksum(frame.kind as u8, &frame.payload).to_le_bytes());
    out
}

/// Decodes the body of a frame (everything after the length prefix).
pub fn decode_frame_body(body: &[u8]) -> Result<Frame, FrameError> {
    if body.len() < FRAME_OVERHEAD {
        return Err(FrameError::TooShort(body.len() as u32));
    }
    let kind_byte = body[0];
    let payload = &body[1..body.len() - 8];
    let mut sum = [0u8; 8];
    sum.copy_from_slice(&body[body.len() - 8..]);
    if frame_checksum(kind_byte, payload) != u64::from_le_bytes(sum) {
        return Err(FrameError::BadChecksum);
    }
    // Kind is checked after the checksum: a corrupted kind byte should
    // read as transport corruption, not a protocol violation.
    let kind = FrameKind::from_u8(kind_byte)?;
    Ok(Frame {
        kind,
        payload: payload.to_vec(),
    })
}

/// Writes one frame to `w` and flushes.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    w.write_all(&encode_frame(frame))?;
    w.flush()
}

/// Reads exactly one frame from `r`, rejecting bodies above
/// `max_frame_bytes` before allocating.
///
/// I/O errors (including read timeouts) surface as `Err(Ok(io))` via
/// the outer [`std::io::Error`]; frame-level rejections surface as
/// [`FrameError`] wrapped in [`std::io::ErrorKind::InvalidData`] — use
/// [`read_frame`]'s typed sibling return instead when the caller needs
/// to distinguish.
pub fn read_frame(
    r: &mut impl Read,
    max_frame_bytes: usize,
) -> Result<Frame, crate::error::NetError> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix)?;
    let len = u32::from_le_bytes(prefix);
    if (len as usize) < FRAME_OVERHEAD {
        return Err(FrameError::TooShort(len).into());
    }
    if len as usize > max_frame_bytes {
        return Err(FrameError::TooLarge {
            len,
            max: max_frame_bytes,
        }
        .into());
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    Ok(decode_frame_body(&body)?)
}

/// The protocol version both ends must agree on during the handshake.
pub const PROTOCOL_VERSION: u16 = 1;

/// The HELLO payload: version, site id, expected site count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// Protocol version ([`PROTOCOL_VERSION`]).
    pub version: u16,
    /// The connecting site's id, `0 <= site < n_sites`.
    pub site: u32,
    /// How many sites the session expects in total.
    pub n_sites: u32,
}

impl Hello {
    /// The payload for a site introducing itself.
    pub fn new(site: u32, n_sites: u32) -> Self {
        Hello {
            version: PROTOCOL_VERSION,
            site,
            n_sites,
        }
    }

    /// Encodes into a HELLO frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(10);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.site.to_le_bytes());
        out.extend_from_slice(&self.n_sites.to_le_bytes());
        out
    }

    /// Decodes a HELLO frame payload.
    pub fn decode(payload: &[u8]) -> Option<Self> {
        if payload.len() != 10 {
            return None;
        }
        Some(Hello {
            version: u16::from_le_bytes([payload[0], payload[1]]),
            site: u32::from_le_bytes([payload[2], payload[3], payload[4], payload[5]]),
            n_sites: u32::from_le_bytes([payload[6], payload[7], payload[8], payload[9]]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        for frame in [
            Frame::bare(FrameKind::ModelAck),
            Frame::new(FrameKind::Hello, Hello::new(2, 4).encode()),
            Frame::new(FrameKind::LocalModel, vec![7u8; 1000]),
        ] {
            let bytes = encode_frame(&frame);
            let mut r = &bytes[..];
            let back = read_frame(&mut r, DEFAULT_MAX_FRAME_BYTES).expect("decodes");
            assert_eq!(back, frame);
            assert!(r.is_empty(), "frame consumed exactly");
        }
    }

    #[test]
    fn bitflips_are_rejected() {
        let frame = Frame::new(FrameKind::GlobalModel, (0u8..200).collect());
        let clean = encode_frame(&frame);
        // Flip one bit in every body byte position (skipping the length
        // prefix, which is covered by the TooShort/TooLarge guards).
        for pos in 4..clean.len() {
            let mut dirty = clean.clone();
            dirty[pos] ^= 1;
            let got = read_frame(&mut &dirty[..], DEFAULT_MAX_FRAME_BYTES);
            assert!(got.is_err(), "flip at byte {pos} accepted");
        }
    }

    #[test]
    fn oversize_prefix_rejected_before_allocation() {
        let mut bytes = (u32::MAX).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 16]);
        let err = read_frame(&mut &bytes[..], 1024).unwrap_err();
        assert!(matches!(
            err,
            crate::error::NetError::Frame(FrameError::TooLarge { .. })
        ));
    }

    #[test]
    fn undersize_prefix_rejected() {
        for len in 0..FRAME_OVERHEAD as u32 {
            let mut bytes = len.to_le_bytes().to_vec();
            bytes.extend_from_slice(&vec![0u8; len as usize]);
            let err = read_frame(&mut &bytes[..], 1024).unwrap_err();
            assert!(matches!(
                err,
                crate::error::NetError::Frame(FrameError::TooShort(_))
            ));
        }
    }

    #[test]
    fn unknown_kind_rejected_only_with_valid_checksum() {
        // A frame whose kind byte is unknown but checksum is consistent:
        // the error must be BadKind, proving checksum is checked first.
        let kind = 0xEEu8;
        let payload = b"zz";
        let mut body = vec![kind];
        body.extend_from_slice(payload);
        body.extend_from_slice(&frame_checksum(kind, payload).to_le_bytes());
        let err = decode_frame_body(&body).unwrap_err();
        assert_eq!(err, FrameError::BadKind(0xEE));
    }

    #[test]
    fn hello_round_trips_and_rejects_bad_lengths() {
        let h = Hello::new(3, 8);
        assert_eq!(Hello::decode(&h.encode()), Some(h));
        assert_eq!(Hello::decode(&[]), None);
        assert_eq!(Hello::decode(&[0u8; 9]), None);
        assert_eq!(Hello::decode(&[0u8; 11]), None);
    }

    #[test]
    fn short_stream_is_an_io_error() {
        let frame = Frame::new(FrameKind::LocalModel, vec![1, 2, 3]);
        let bytes = encode_frame(&frame);
        for cut in 0..bytes.len() {
            let got = read_frame(&mut &bytes[..cut], DEFAULT_MAX_FRAME_BYTES);
            assert!(got.is_err(), "prefix of {cut} bytes accepted");
        }
    }
}
