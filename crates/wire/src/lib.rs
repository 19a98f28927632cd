//! # txstat-wire — the versioned shard-frame codec
//!
//! The shard/merge contract of the measurement pipeline, as bytes. A
//! [`ShardFrame`] carries one shard's accumulator state — the interner key
//! table, the id-indexed counter vectors, and the block-range metadata —
//! from a shard worker process to a central reducer
//! (`txstat_ingest::ReduceSession`). Because every chain sweep is a
//! commutative monoid, reducing decoded frames is a remap-merge; the wire
//! format only has to move state faithfully and refuse anything it cannot
//! vouch for.
//!
//! ## Frame layout
//!
//! ```text
//!  offset  size  field
//!  ──────  ────  ─────────────────────────────────────────────────────────
//!       0     4  magic  "TXSF"
//!       4     4  envelope version (u32 LE)            — parse contract
//!       8     8  content hash (u64 LE, FNV-1a over header ∥ payload bytes)
//!      16     4  header length H (u32 LE)
//!      20     H  header section   (JSON: schema_version, chain, range,
//!                                  payload_format "bin", meta)
//!    20+H     4  payload length P (u32 LE)
//!    24+H     P  payload section  (binary column sections —
//!                                  `txstat_core::columnar::WireState`)
//! ```
//!
//! The envelope (magic, version, hash, section lengths) treats the payload
//! as opaque bytes. This decoder speaks exactly [`SCHEMA_VERSION`]: the
//! retired schema 1 (JSON accumulator state) and anything newer fail
//! cleanly with [`WireError::UnsupportedVersion`], and a header naming a
//! payload format other than `"bin"` is a [`WireError::Header`]. Frames
//! are self-delimiting, so a file or pipe can carry any number of them
//! back to back ([`decode_all`]).

use serde::Value;
use txstat_types::ids::{fnv1a64, fnv1a64_extend};

pub mod fleet;

/// The frame schema version: the header carries a [`PayloadFormat`] tag
/// and the payload is binary column sections. Any other version is
/// rejected.
pub const SCHEMA_VERSION: u32 = 2;

/// The envelope magic: "TXSF" (txstat shard frame).
pub(crate) const MAGIC: [u8; 4] = *b"TXSF";

/// Fixed-size envelope prefix: magic + version + hash + header length.
const PREFIX_LEN: usize = 4 + 4 + 8 + 4;

/// Largest header section a decoder will allocate for. Real headers are a
/// few hundred bytes of JSON; anything past this is a corrupt or hostile
/// length prefix, rejected *before* allocation.
pub(crate) const MAX_HEADER_LEN: usize = 1 << 20; // 1 MiB

/// Largest payload section a decoder will allocate for. Month-scale
/// columnar shard states are tens of MiB; this bound caps what one frame
/// from an untrusted peer can make the reducer allocate.
pub(crate) const MAX_PAYLOAD_LEN: usize = 1 << 29; // 512 MiB

/// Wire failures. Every variant names what the decoder could not vouch
/// for, so a reducer can distinguish "not a frame" from "a frame from the
/// future" from "a frame damaged in flight".
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The bytes do not start with the frame magic.
    BadMagic([u8; 4]),
    /// The buffer ends before the structure it promises.
    Truncated { needed: usize, have: usize },
    /// The envelope version is not one this decoder speaks.
    UnsupportedVersion { found: u32, supported: u32 },
    /// The content hash does not match the header + payload bytes.
    HashMismatch { expected: u64, found: u64 },
    /// The header section is not valid header JSON.
    Header(String),
    /// A section's length prefix exceeds the decoder's allocation cap —
    /// the frame is rejected before any allocation happens, so a hostile
    /// or bit-flipped length can never OOM the reducer.
    SectionTooLarge {
        section: &'static str,
        len: u64,
        max: u64,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:?}"),
            WireError::Truncated { needed, have } => {
                write!(f, "truncated frame: need {needed} bytes, have {have}")
            }
            WireError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported frame version {found} (decoder speaks {supported})"
                )
            }
            WireError::HashMismatch { expected, found } => {
                write!(f, "content hash mismatch: header says {expected:#018x}, bytes hash to {found:#018x}")
            }
            WireError::Header(m) => write!(f, "bad frame header: {m}"),
            WireError::SectionTooLarge { section, len, max } => {
                write!(f, "{section} section claims {len} bytes, cap is {max}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// How a frame's payload section is encoded. Single-valued: the tag still
/// travels in frame headers and fleet assignments, and decode refuses any
/// other spelling (the retired `"json"` included).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PayloadFormat {
    /// Binary column sections (`txstat_core::columnar::WireState`).
    #[default]
    Bin,
}

impl PayloadFormat {
    /// The header tag string.
    pub fn tag(self) -> &'static str {
        "bin"
    }

    /// Parse a tag string (header and assignment fields).
    pub fn parse(s: &str) -> Option<Self> {
        (s == "bin").then_some(PayloadFormat::Bin)
    }
}

/// The self-describing frame header: everything a reducer validates
/// *before* it touches the payload.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameHeader {
    /// Schema version of header + payload ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Which chain's accumulator this is ("eos", "tezos", "xrp").
    pub chain: String,
    /// Covered block-position range `[start, end)` in the shard
    /// coordinate space (0-based position in the chain, end-exclusive).
    pub start: u64,
    pub end: u64,
    /// Blocks actually observed into the accumulator (≤ `end - start`;
    /// smaller when the range was clamped to the chain head).
    pub blocks: u64,
    /// Payload section encoding, spelled out in every header.
    pub payload_format: PayloadFormat,
    /// Free-form provenance the reducer requires to be identical across
    /// frames of one session (scenario fingerprint, seed, …).
    pub meta: Value,
}

impl FrameHeader {
    fn to_value(&self) -> Value {
        serde_json::json!({
            "schema_version": self.schema_version,
            "chain": self.chain.clone(),
            "start": self.start,
            "end": self.end,
            "blocks": self.blocks,
            "meta": self.meta.clone(),
            "payload_format": self.payload_format.tag(),
        })
    }

    fn from_value(v: &Value) -> Result<Self, WireError> {
        let bad = |m: &str| WireError::Header(m.to_owned());
        let u = |k: &str| {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| bad(&format!("missing {k}")))
        };
        let schema_version = u32::try_from(u("schema_version")?)
            .map_err(|_| bad("schema_version out of u32 range"))?;
        let chain = v
            .get("chain")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("missing chain"))?
            .to_owned();
        let payload_format = match v.get("payload_format") {
            None => return Err(bad("missing payload_format")),
            Some(Value::String(s)) => PayloadFormat::parse(s)
                .ok_or_else(|| bad(&format!("unknown payload_format {s:?}")))?,
            Some(_) => return Err(bad("payload_format must be a string")),
        };
        Ok(FrameHeader {
            schema_version,
            chain,
            start: u("start")?,
            end: u("end")?,
            blocks: u("blocks")?,
            payload_format,
            meta: v.get("meta").cloned().unwrap_or(Value::Null),
        })
    }
}

/// One shard's serialized accumulator state plus the header describing it.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardFrame {
    pub header: FrameHeader,
    /// The payload section bytes — binary column sections; the envelope
    /// treats them as opaque.
    pub payload: Vec<u8>,
}

impl ShardFrame {
    /// Build a frame around binary column sections
    /// (`WireState::to_wire_bytes` output).
    pub fn from_columns(
        chain: &str,
        start: u64,
        end: u64,
        blocks: u64,
        meta: Value,
        payload: Vec<u8>,
    ) -> Self {
        ShardFrame {
            header: FrameHeader {
                schema_version: SCHEMA_VERSION,
                chain: chain.to_owned(),
                start,
                end,
                blocks,
                payload_format: PayloadFormat::Bin,
                meta,
            },
            payload,
        }
    }

    /// Encode the frame into its framed byte layout (see module docs).
    pub fn encode(&self) -> Vec<u8> {
        let header = serde_json::to_vec(&self.header.to_value()).expect("header serializes");
        let hash = content_hash(&header, &self.payload);
        let mut out = Vec::with_capacity(PREFIX_LEN + header.len() + 4 + self.payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&self.header.schema_version.to_le_bytes());
        out.extend_from_slice(&hash.to_le_bytes());
        out.extend_from_slice(&(header.len() as u32).to_le_bytes());
        out.extend_from_slice(&header);
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Decode one frame from the front of `bytes`; returns the frame and
    /// how many bytes it consumed (frames concatenate in files/pipes).
    pub fn decode(bytes: &[u8]) -> Result<(Self, usize), WireError> {
        let need = |needed: usize| -> Result<(), WireError> {
            if bytes.len() < needed {
                Err(WireError::Truncated {
                    needed,
                    have: bytes.len(),
                })
            } else {
                Ok(())
            }
        };
        need(PREFIX_LEN)?;
        let magic: [u8; 4] = bytes[0..4].try_into().expect("4 bytes");
        if magic != MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if version != SCHEMA_VERSION {
            return Err(WireError::UnsupportedVersion {
                found: version,
                supported: SCHEMA_VERSION,
            });
        }
        let expected = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        let hlen = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes")) as usize;
        // Length prefixes are untrusted input: cap them before committing
        // to read (or, on the streaming path, allocate) that many bytes.
        cap_section("header", hlen, MAX_HEADER_LEN)?;
        need(PREFIX_LEN + hlen + 4)?;
        let header_bytes = &bytes[PREFIX_LEN..PREFIX_LEN + hlen];
        let poff = PREFIX_LEN + hlen;
        let plen = u32::from_le_bytes(bytes[poff..poff + 4].try_into().expect("4 bytes")) as usize;
        cap_section("payload", plen, MAX_PAYLOAD_LEN)?;
        let total = poff + 4 + plen;
        need(total)?;
        let payload = &bytes[poff + 4..total];
        let found = content_hash(header_bytes, payload);
        if found != expected {
            return Err(WireError::HashMismatch { expected, found });
        }
        let header_value: Value =
            serde_json::from_slice(header_bytes).map_err(|e| WireError::Header(e.to_string()))?;
        let header = FrameHeader::from_value(&header_value)?;
        if header.schema_version != version {
            return Err(WireError::Header(format!(
                "header schema_version {} disagrees with envelope version {version}",
                header.schema_version
            )));
        }
        Ok((
            ShardFrame {
                header,
                payload: payload.to_vec(),
            },
            total,
        ))
    }
}

/// The frame content hash: FNV-1a over the header section bytes, extended
/// over the payload section bytes.
pub fn content_hash(header: &[u8], payload: &[u8]) -> u64 {
    fnv1a64_extend(fnv1a64(header), payload)
}

/// Reject a section length above its cap before anything is allocated.
fn cap_section(section: &'static str, len: usize, max: usize) -> Result<(), WireError> {
    if len > max {
        return Err(WireError::SectionTooLarge {
            section,
            len: len as u64,
            max: max as u64,
        });
    }
    Ok(())
}

/// Decode every concatenated frame in `bytes` (e.g. one `shard` output
/// file carrying the three chain frames). Trailing garbage is an error.
pub fn decode_all(bytes: &[u8]) -> Result<Vec<ShardFrame>, WireError> {
    let mut frames = Vec::new();
    let mut rest = bytes;
    while !rest.is_empty() {
        let (frame, used) = ShardFrame::decode(rest)?;
        frames.push(frame);
        rest = &rest[used..];
    }
    Ok(frames)
}

/// Encode frames back to back — the inverse of [`decode_all`].
pub fn encode_all(frames: &[ShardFrame]) -> Vec<u8> {
    let mut out = Vec::new();
    for f in frames {
        out.extend_from_slice(&f.encode());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn frame(chain: &str, start: u64, end: u64) -> ShardFrame {
        ShardFrame::from_columns(
            chain,
            start,
            end,
            end - start,
            json!({"scenario": "test"}),
            vec![0x02, b'e', 0x01, 0x7f, 0xAB],
        )
    }

    /// Frame bytes around an arbitrary header — what a retired or foreign
    /// encoder would put on the wire, content hash intact.
    fn raw_frame(version: u32, header: &Value, payload: &[u8]) -> Vec<u8> {
        let header = serde_json::to_vec(header).expect("header serializes");
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(&content_hash(&header, payload).to_le_bytes());
        out.extend_from_slice(&(header.len() as u32).to_le_bytes());
        out.extend_from_slice(&header);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn frames_round_trip() {
        let f = frame("xrp", 3, 9);
        assert_eq!(f.header.schema_version, SCHEMA_VERSION);
        assert_eq!(f.header.payload_format, PayloadFormat::Bin);
        let bytes = f.encode();
        let (back, used) = ShardFrame::decode(&bytes).expect("valid frame");
        assert_eq!(used, bytes.len());
        assert_eq!(back, f);
        assert_eq!(back.payload, f.payload, "binary payload moves verbatim");
        assert_eq!(
            (back.header.start, back.header.end, back.header.blocks),
            (3, 9, 6)
        );
        // The hand-built twin is the same bytes: `raw_frame` is the layout.
        assert_eq!(
            raw_frame(SCHEMA_VERSION, &f.header.to_value(), &f.payload),
            bytes
        );
    }

    #[test]
    fn concatenated_frames_round_trip() {
        let frames = vec![frame("eos", 0, 5), frame("tezos", 0, 5), frame("xrp", 5, 9)];
        let bytes = encode_all(&frames);
        let back = decode_all(&bytes).expect("all frames decode");
        assert_eq!(back, frames);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = frame("eos", 0, 1).encode();
        bytes[0] = b'X';
        assert!(matches!(
            ShardFrame::decode(&bytes),
            Err(WireError::BadMagic(_))
        ));
    }

    #[test]
    fn rejects_retired_and_future_versions() {
        let mut bytes = frame("eos", 0, 1).encode();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            ShardFrame::decode(&bytes),
            Err(WireError::UnsupportedVersion {
                found: 99,
                supported: SCHEMA_VERSION
            })
        );
        // A well-formed schema-1 frame (JSON state, no format tag), exactly
        // as the retired encoder laid it out.
        let v1 = raw_frame(
            1,
            &json!({
                "schema_version": 1, "chain": "eos", "start": 0, "end": 2,
                "blocks": 2, "meta": null,
            }),
            br#"{"names":["a","b"],"counts":[3,4]}"#,
        );
        assert_eq!(
            ShardFrame::decode(&v1),
            Err(WireError::UnsupportedVersion {
                found: 1,
                supported: SCHEMA_VERSION
            })
        );
    }

    #[test]
    fn rejects_every_payload_format_but_bin() {
        let header = |format: Value| {
            let mut v = frame("eos", 0, 2).header.to_value();
            if let Value::Object(m) = &mut v {
                match format {
                    Value::Null => m.remove("payload_format"),
                    tag => m.insert("payload_format".to_owned(), tag),
                };
            }
            v
        };
        for format in [json!("json"), json!("msgpack"), json!(2), Value::Null] {
            let bytes = raw_frame(SCHEMA_VERSION, &header(format.clone()), b"{}");
            assert!(
                matches!(ShardFrame::decode(&bytes), Err(WireError::Header(_))),
                "payload_format {format:?} must be a header error"
            );
        }
    }

    #[test]
    fn rejects_payload_corruption() {
        let f = frame("tezos", 0, 4);
        let bytes = f.encode();
        // Flip one bit in the payload section.
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x01;
        assert!(matches!(
            ShardFrame::decode(&corrupt),
            Err(WireError::HashMismatch { .. })
        ));
        // And one in the header section.
        let mut corrupt = bytes;
        corrupt[PREFIX_LEN] ^= 0x01;
        assert!(matches!(
            ShardFrame::decode(&corrupt),
            Err(WireError::HashMismatch { .. })
        ));
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        let mut bytes = frame("eos", 0, 1).encode();
        bytes.push(0xAB);
        assert!(decode_all(&bytes).is_err());
    }

    #[test]
    fn oversized_header_length_is_capped_before_allocation() {
        let mut bytes = frame("eos", 0, 1).encode();
        // Forge a header length just past the cap; the truncated buffer
        // must still produce SectionTooLarge, not Truncated, because the
        // cap check fires before the decoder commits to the read.
        bytes[16..20].copy_from_slice(&((MAX_HEADER_LEN as u32) + 1).to_le_bytes());
        assert_eq!(
            ShardFrame::decode(&bytes),
            Err(WireError::SectionTooLarge {
                section: "header",
                len: MAX_HEADER_LEN as u64 + 1,
                max: MAX_HEADER_LEN as u64,
            })
        );
    }

    #[test]
    fn oversized_payload_length_is_capped_before_allocation() {
        let whole = frame("eos", 0, 1);
        let mut bytes = whole.encode();
        let hlen = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
        let poff = PREFIX_LEN + hlen;
        bytes[poff..poff + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            ShardFrame::decode(&bytes),
            Err(WireError::SectionTooLarge {
                section: "payload",
                len: u32::MAX as u64,
                max: MAX_PAYLOAD_LEN as u64,
            })
        );
    }

    #[test]
    fn in_cap_lengths_on_short_buffers_stay_truncated() {
        // A plausible (sub-cap) length on a short buffer is still the
        // Truncated case — the cap must not misclassify honest short reads.
        let bytes = frame("eos", 0, 1).encode();
        let cut = &bytes[..PREFIX_LEN + 2];
        assert!(matches!(
            ShardFrame::decode(cut),
            Err(WireError::Truncated { .. })
        ));
    }
}
