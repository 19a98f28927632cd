//! The fleet control protocol: how a reducer asks a socket shard worker
//! for a block range and gets a [`ShardFrame`] bundle back.
//!
//! One TCP connection carries exactly one request/response exchange —
//! connection-per-request keeps per-request deadlines simple (both ends
//! give each stage of it one deadline) and makes reconnect-after-failure
//! the only recovery path, which is the one this protocol is built to
//! survive.
//!
//! ```text
//! request  (reducer → worker)
//!  offset  size  field
//!  ──────  ────  ───────────────────────────────────────────────
//!       0     4  magic  "TXSQ"
//!       4     4  protocol version (u32 LE)
//!       8     8  content hash (u64 LE, FNV-1a over the body)
//!      16     4  body length (u32 LE, capped MAX_ASSIGNMENT_LEN)
//!      20     …  body: assignment JSON (start, end, shards,
//!                payload format "bin", scenario meta)
//!
//! response (worker → reducer)
//!       0     4  magic  "TXSP"
//!       4     4  protocol version (u32 LE)
//!       8     8  seal (u64 LE, FNV-1a over bytes 16..21: the status
//!                and the body length)
//!      16     1  status (0 = frames follow, 1 = UTF-8 error follows)
//!      17     4  body length (u32 LE, capped MAX_BUNDLE_LEN)
//!      21     …  body: concatenated ShardFrames (status 0) or an
//!                error message (status 1)
//! ```
//!
//! Every length prefix is validated against a cap *before* allocation, so
//! a corrupt or hostile peer yields a typed [`ProtocolError`], never an
//! OOM, and a body is reserved as its bytes arrive, not as declared. The
//! request body is hash-protected (a bit-flipped range must not
//! silently reassign the sweep). The response's status and body length
//! are sealed and checked before the body is read (a flipped status must
//! not turn a frame bundle into a worker error); its frames carry their
//! own content hashes, so the bundle needs no second hash.

use crate::{content_hash, decode_all, encode_all, PayloadFormat, ShardFrame, WireError};
use serde::Value;
use std::io::{Read, Write};
use txstat_types::ids::fnv1a64;

/// Request magic: "TXSQ" (txstat shard reQuest).
pub(crate) const REQUEST_MAGIC: [u8; 4] = *b"TXSQ";

/// Response magic: "TXSP" (txstat shard resPonse).
pub(crate) const RESPONSE_MAGIC: [u8; 4] = *b"TXSP";

/// Fleet protocol version. Bumped independently of the frame schema.
/// Version 2 sealed the response's status byte.
pub(crate) const FLEET_VERSION: u32 = 2;

/// Largest assignment body a worker will allocate for (JSON of a range
/// plus scenario meta — a few hundred bytes in practice).
pub(crate) const MAX_ASSIGNMENT_LEN: usize = 1 << 20; // 1 MiB

/// Largest [`Assignment::shards`] a worker accepts. Workers ignore the
/// count (each range is folded in one piece), but it is a number a peer
/// sends, so a value outside `1..=MAX_SHARDS` is refused like any other
/// malformed body.
pub const MAX_SHARDS: usize = 64;

/// Largest response body a reducer will allocate for (a three-frame
/// bundle; each inner frame is additionally capped by the frame decoder).
pub(crate) const MAX_BUNDLE_LEN: usize = 1 << 29; // 512 MiB

/// Longest worker error message a reducer keeps, in bytes, after its
/// control characters are escaped; a longer one is cut and marked with `…`.
/// The error body itself may be as long as a frame bundle, and the message
/// ends up in the reducer's error output.
pub const MAX_REMOTE_MESSAGE: usize = 1 << 10;

/// Typed fleet-protocol failures. From the reducer's point of view every
/// variant is retryable (reconnect, backoff, possibly re-dispatch); none
/// of them can panic or over-allocate.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolError {
    /// Socket-level failure (connect, read, write, timeout), stringified.
    Io(String),
    /// The peer did not speak this protocol's magic.
    BadMagic { expected: [u8; 4], found: [u8; 4] },
    /// The peer speaks a fleet protocol version this side does not.
    UnsupportedVersion { found: u32, supported: u32 },
    /// A length prefix exceeds its allocation cap.
    SectionTooLarge {
        section: &'static str,
        len: u64,
        max: u64,
    },
    /// A hash does not match its bytes (damaged in flight): the request
    /// body's, or the response's seal over its status and body length.
    HashMismatch { expected: u64, found: u64 },
    /// The body bytes are not a valid assignment / error message.
    Body(String),
    /// The worker answered with a typed error of its own: its message,
    /// control characters escaped and cut to [`MAX_REMOTE_MESSAGE`] bytes.
    Remote(String),
    /// The frame bundle failed frame-level decoding.
    Frame(WireError),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Io(m) => write!(f, "fleet i/o: {m}"),
            ProtocolError::BadMagic { expected, found } => {
                write!(f, "bad fleet magic {found:?} (expected {expected:?})")
            }
            ProtocolError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported fleet protocol version {found} (this side speaks {supported})"
                )
            }
            ProtocolError::SectionTooLarge { section, len, max } => {
                write!(f, "fleet {section} claims {len} bytes, cap is {max}")
            }
            ProtocolError::HashMismatch { expected, found } => {
                write!(f, "fleet hash mismatch: envelope says {expected:#018x}, bytes hash to {found:#018x}")
            }
            ProtocolError::Body(m) => write!(f, "bad fleet body: {m}"),
            ProtocolError::Remote(m) => write!(f, "worker error: {m}"),
            ProtocolError::Frame(e) => write!(f, "bad frame in bundle: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<WireError> for ProtocolError {
    fn from(e: WireError) -> Self {
        ProtocolError::Frame(e)
    }
}

/// One range-sweep assignment: everything a worker needs to produce the
/// three chain frames for block positions `[start, end)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    pub start: u64,
    pub end: u64,
    /// Ignored by workers, and sent as 1; checked to lie in
    /// `1..=MAX_SHARDS`. It stays until the benchmark's layer harness stops
    /// reading it (ROADMAP 1(b)).
    pub shards: usize,
    pub payload: PayloadFormat,
    /// Scenario provenance — the worker refuses assignments whose meta
    /// does not describe the scenario it was started with.
    pub meta: Value,
}

impl Assignment {
    fn to_value(&self) -> Value {
        serde_json::json!({
            "start": self.start,
            "end": self.end,
            "shards": self.shards as u64,
            "payload": self.payload.tag(),
            "meta": self.meta.clone(),
        })
    }

    fn from_value(v: &Value) -> Result<Self, ProtocolError> {
        let bad = |m: &str| ProtocolError::Body(m.to_owned());
        let u = |k: &str| {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| bad(&format!("missing {k}")))
        };
        let payload = v
            .get("payload")
            .and_then(Value::as_str)
            .and_then(PayloadFormat::parse)
            .ok_or_else(|| bad("missing or unknown payload format"))?;
        let shards = u("shards")?;
        if !(1..=MAX_SHARDS as u64).contains(&shards) {
            return Err(bad(&format!("shards {shards} outside 1..={MAX_SHARDS}")));
        }
        Ok(Assignment {
            start: u("start")?,
            end: u("end")?,
            shards: shards as usize,
            payload,
            meta: v.get("meta").cloned().unwrap_or(Value::Null),
        })
    }
}

fn io_err(what: &'static str, e: std::io::Error) -> ProtocolError {
    ProtocolError::Io(format!("{what}: {e}"))
}

fn read_exact(r: &mut dyn Read, buf: &mut [u8], what: &'static str) -> Result<(), ProtocolError> {
    r.read_exact(buf).map_err(|e| io_err(what, e))
}

/// Most body bytes reserved before any has arrived: a declared length
/// under the cap is still only the peer's word, so past this the body
/// grows as its bytes arrive.
const BODY_RESERVE: usize = 64 << 10;

/// Read exactly the `len4` (u32 LE) body bytes — the only place fleet
/// bodies are allocated, after the cap check.
fn read_capped_body(
    r: &mut dyn Read,
    len4: &[u8],
    section: &'static str,
    max: usize,
) -> Result<Vec<u8>, ProtocolError> {
    let len = u32::from_le_bytes(len4.try_into().expect("4 bytes")) as usize;
    if len > max {
        return Err(ProtocolError::SectionTooLarge {
            section,
            len: len as u64,
            max: max as u64,
        });
    }
    let mut body = Vec::with_capacity(len.min(BODY_RESERVE));
    r.take(len as u64)
        .read_to_end(&mut body)
        .map_err(|e| io_err(section, e))?;
    if body.len() < len {
        return Err(io_err(section, std::io::ErrorKind::UnexpectedEof.into()));
    }
    Ok(body)
}

/// Write one assignment request.
pub fn write_assignment(w: &mut dyn Write, a: &Assignment) -> Result<(), ProtocolError> {
    let body = serde_json::to_vec(&a.to_value()).expect("assignment serializes");
    let hash = content_hash(&body, &[]);
    let mut out = Vec::with_capacity(20 + body.len());
    out.extend_from_slice(&REQUEST_MAGIC);
    out.extend_from_slice(&FLEET_VERSION.to_le_bytes());
    out.extend_from_slice(&hash.to_le_bytes());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    w.write_all(&out).map_err(|e| io_err("write request", e))?;
    w.flush().map_err(|e| io_err("flush request", e))
}

/// Read one assignment request (the worker side of the exchange).
pub fn read_assignment(r: &mut dyn Read) -> Result<Assignment, ProtocolError> {
    let mut prefix = [0u8; 20];
    read_exact(r, &mut prefix, "request prefix")?;
    let magic: [u8; 4] = prefix[0..4].try_into().expect("4 bytes");
    if magic != REQUEST_MAGIC {
        return Err(ProtocolError::BadMagic {
            expected: REQUEST_MAGIC,
            found: magic,
        });
    }
    let version = u32::from_le_bytes(prefix[4..8].try_into().expect("4 bytes"));
    if version != FLEET_VERSION {
        return Err(ProtocolError::UnsupportedVersion {
            found: version,
            supported: FLEET_VERSION,
        });
    }
    let expected = u64::from_le_bytes(prefix[8..16].try_into().expect("8 bytes"));
    let body = read_capped_body(r, &prefix[16..20], "request body", MAX_ASSIGNMENT_LEN)?;
    let found = content_hash(&body, &[]);
    if found != expected {
        return Err(ProtocolError::HashMismatch { expected, found });
    }
    let v: Value = serde_json::from_slice(&body).map_err(|e| ProtocolError::Body(e.to_string()))?;
    Assignment::from_value(&v)
}

fn write_response(w: &mut dyn Write, status: u8, body: &[u8]) -> Result<(), ProtocolError> {
    let mut sealed = [status, 0, 0, 0, 0];
    sealed[1..].copy_from_slice(&(body.len() as u32).to_le_bytes());
    let mut out = Vec::with_capacity(21 + body.len());
    out.extend_from_slice(&RESPONSE_MAGIC);
    out.extend_from_slice(&FLEET_VERSION.to_le_bytes());
    out.extend_from_slice(&fnv1a64(&sealed).to_le_bytes());
    out.extend_from_slice(&sealed);
    out.extend_from_slice(body);
    w.write_all(&out).map_err(|e| io_err("write response", e))?;
    w.flush().map_err(|e| io_err("flush response", e))
}

/// Write a success response carrying a frame bundle.
pub fn write_frames(w: &mut dyn Write, frames: &[ShardFrame]) -> Result<(), ProtocolError> {
    write_response(w, 0, &encode_all(frames))
}

/// Write an error response carrying a worker-side failure message.
pub fn write_error(w: &mut dyn Write, msg: &str) -> Result<(), ProtocolError> {
    write_response(w, 1, msg.as_bytes())
}

/// A worker's error body as the message a reducer keeps: lossy UTF-8 with
/// every control character escaped (`\n`, `\u{1b}`), cut at a character
/// boundary to at most [`MAX_REMOTE_MESSAGE`] bytes, `…` included.
fn remote_message(body: &[u8]) -> String {
    const CUT: &str = "…";
    let mut out = String::new();
    // The longest prefix so far that leaves room for the cut mark.
    let mut keep = 0;
    // A char takes at most 4 body bytes and at least 1 message byte, so
    // this prefix already holds more chars than the message can keep.
    let head = &body[..body.len().min(4 * (MAX_REMOTE_MESSAGE + 1))];
    for c in String::from_utf8_lossy(head).chars() {
        let width = if c.is_control() {
            c.escape_default().len()
        } else {
            c.len_utf8()
        };
        if out.len() + width > MAX_REMOTE_MESSAGE {
            out.truncate(keep);
            out.push_str(CUT);
            break;
        }
        if c.is_control() {
            out.extend(c.escape_default());
        } else {
            out.push(c);
        }
        if out.len() + CUT.len() <= MAX_REMOTE_MESSAGE {
            keep = out.len();
        }
    }
    out
}

/// Read one response (the reducer side): a decoded frame bundle on
/// success, [`ProtocolError::Remote`] when the worker reported a failure.
pub fn read_response(r: &mut dyn Read) -> Result<Vec<ShardFrame>, ProtocolError> {
    let mut prefix = [0u8; 21];
    read_exact(r, &mut prefix, "response prefix")?;
    let magic: [u8; 4] = prefix[0..4].try_into().expect("4 bytes");
    if magic != RESPONSE_MAGIC {
        return Err(ProtocolError::BadMagic {
            expected: RESPONSE_MAGIC,
            found: magic,
        });
    }
    let version = u32::from_le_bytes(prefix[4..8].try_into().expect("4 bytes"));
    if version != FLEET_VERSION {
        return Err(ProtocolError::UnsupportedVersion {
            found: version,
            supported: FLEET_VERSION,
        });
    }
    let expected = u64::from_le_bytes(prefix[8..16].try_into().expect("8 bytes"));
    let found = fnv1a64(&prefix[16..21]);
    if found != expected {
        return Err(ProtocolError::HashMismatch { expected, found });
    }
    let body = read_capped_body(r, &prefix[17..21], "response body", MAX_BUNDLE_LEN)?;
    match prefix[16] {
        0 => Ok(decode_all(&body)?),
        1 => Err(ProtocolError::Remote(remote_message(&body))),
        other => Err(ProtocolError::Body(format!(
            "unknown response status {other}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn assignment() -> Assignment {
        Assignment {
            start: 250,
            end: 400,
            shards: 3,
            payload: PayloadFormat::Bin,
            meta: json!({"mode": "small", "seed": 7}),
        }
    }

    #[test]
    fn request_round_trips() {
        for shards in [3, MAX_SHARDS] {
            let a = Assignment {
                shards,
                ..assignment()
            };
            let mut buf = Vec::new();
            write_assignment(&mut buf, &a).expect("writes");
            let back = read_assignment(&mut buf.as_slice()).expect("reads");
            assert_eq!(back, a);
        }
    }

    #[test]
    fn response_round_trips_frames_and_errors() {
        let frames = vec![ShardFrame::from_columns(
            "eos",
            0,
            5,
            5,
            json!({"mode": "small"}),
            vec![1, 2, 3],
        )];
        let mut buf = Vec::new();
        write_frames(&mut buf, &frames).expect("writes");
        assert_eq!(read_response(&mut buf.as_slice()).expect("reads"), frames);

        let mut buf = Vec::new();
        write_error(&mut buf, "meta mismatch").expect("writes");
        assert_eq!(
            read_response(&mut buf.as_slice()),
            Err(ProtocolError::Remote("meta mismatch".to_owned()))
        );
    }

    /// A worker's error keeps at most `MAX_REMOTE_MESSAGE` bytes, with its
    /// control characters escaped; a message that fits is kept whole.
    #[test]
    fn remote_messages_are_escaped_and_capped() {
        let remote = |msg: &[u8]| {
            let mut buf = Vec::new();
            write_response(&mut buf, 1, msg).expect("writes");
            match read_response(&mut buf.as_slice()) {
                Err(ProtocolError::Remote(m)) => m,
                other => panic!("expected Remote, got {other:?}"),
            }
        };
        assert_eq!(
            remote(b"bad\n\x1b[2Jmeta\x7f"),
            "bad\\n\\u{1b}[2Jmeta\\u{7f}"
        );
        let fits = "é".repeat(MAX_REMOTE_MESSAGE / 2);
        assert_eq!(remote(fits.as_bytes()), fits);
        for long in [
            vec![b'x'; MAX_REMOTE_MESSAGE + 1],
            "é".repeat(MAX_REMOTE_MESSAGE).into_bytes(),
            vec![b'\n'; MAX_REMOTE_MESSAGE],
            vec![0xff; 1 << 20],
        ] {
            let m = remote(&long);
            assert!(
                m.len() <= MAX_REMOTE_MESSAGE && m.ends_with('…'),
                "{}",
                m.len()
            );
            assert!(
                m.len() > MAX_REMOTE_MESSAGE - 8,
                "cut too short: {}",
                m.len()
            );
            assert!(!m.chars().any(char::is_control));
        }
    }

    #[test]
    fn corrupt_request_body_is_a_hash_mismatch() {
        let mut buf = Vec::new();
        write_assignment(&mut buf, &assignment()).expect("writes");
        // Flip a bit inside the JSON body (a range digit, say): the hash
        // check must refuse it — a silently altered range would make the
        // worker sweep the wrong blocks.
        let last = buf.len() - 2;
        buf[last] ^= 0x01;
        assert!(matches!(
            read_assignment(&mut buf.as_slice()),
            Err(ProtocolError::HashMismatch { .. })
        ));
    }

    /// A frame bundle whose status byte flipped to "error" is refused by
    /// the seal before its body is read, not reported as a worker error.
    #[test]
    fn a_flipped_response_status_is_a_hash_mismatch() {
        let frames = vec![ShardFrame::from_columns(
            "eos",
            0,
            5,
            5,
            json!({}),
            vec![1, 2, 3],
        )];
        let mut buf = Vec::new();
        write_frames(&mut buf, &frames).expect("writes");
        buf[16] ^= 1;
        assert!(matches!(
            read_response(&mut buf.as_slice()),
            Err(ProtocolError::HashMismatch { .. })
        ));
    }

    #[test]
    fn oversized_bodies_are_capped_before_allocation() {
        let mut buf = Vec::new();
        write_assignment(&mut buf, &assignment()).expect("writes");
        buf[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_assignment(&mut buf.as_slice()),
            Err(ProtocolError::SectionTooLarge {
                section: "request body",
                ..
            })
        ));

        // The response's length is sealed: re-seal it, as a peer would.
        let mut buf = Vec::new();
        write_frames(&mut buf, &[]).expect("writes");
        buf[17..21].copy_from_slice(&u32::MAX.to_le_bytes());
        let seal = fnv1a64(&buf[16..21]);
        buf[8..16].copy_from_slice(&seal.to_le_bytes());
        assert!(matches!(
            read_response(&mut buf.as_slice()),
            Err(ProtocolError::SectionTooLarge {
                section: "response body",
                ..
            })
        ));
    }

    #[test]
    fn wrong_magic_and_bad_bodies_are_typed() {
        let mut buf = Vec::new();
        write_assignment(&mut buf, &assignment()).expect("writes");
        let mut wrong = buf.clone();
        wrong[0] = b'X';
        assert!(matches!(
            read_assignment(&mut wrong.as_slice()),
            Err(ProtocolError::BadMagic { .. })
        ));
        // A frame-response magic sent where a request is expected (crossed
        // streams) is a typed magic error too.
        let bundle = vec![ShardFrame::from_columns(
            "eos",
            0,
            5,
            5,
            json!({}),
            vec![1, 2, 3],
        )];
        let mut resp = Vec::new();
        write_frames(&mut resp, &bundle).expect("writes");
        assert!(matches!(
            read_assignment(&mut resp.as_slice()),
            Err(ProtocolError::BadMagic { .. })
        ));
        // An intact request asking for the retired JSON payload (or none)
        // is a body error: the worker answers with nothing but `"bin"`. So
        // is a shard count of zero or past `MAX_SHARDS`.
        for fields in [
            r#""shards":1,"payload":"json","#,
            r#""shards":1,"#,
            r#""shards":0,"payload":"bin","#,
            r#""shards":1099511627776,"payload":"bin","#,
        ] {
            let body = format!(r#"{{"start":0,"end":5,{fields}"meta":null}}"#);
            let mut req = REQUEST_MAGIC.to_vec();
            req.extend_from_slice(&FLEET_VERSION.to_le_bytes());
            req.extend_from_slice(&content_hash(body.as_bytes(), &[]).to_le_bytes());
            req.extend_from_slice(&(body.len() as u32).to_le_bytes());
            req.extend_from_slice(body.as_bytes());
            assert!(
                matches!(
                    read_assignment(&mut req.as_slice()),
                    Err(ProtocolError::Body(_))
                ),
                "{body}"
            );
        }
    }
}
