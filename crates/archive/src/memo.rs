//! `archive.memo` — per-segment derived payloads, the archive's third file.
//!
//! Segments are immutable and hash-addressed, so anything that is a pure
//! function of one segment's bytes can be computed once and kept beside
//! the corpus instead of being re-derived by every process that opens it.
//! This module stores such payloads opaquely, keyed by the segment content
//! hash the index already records (the hash covers the segment's `start`,
//! so position-dependent derivations memoize correctly too). The caller
//! owns the payload encoding and names it with a *schema tag*; a memo
//! written under another tag is refused whole.
//!
//! ```text
//! DIR/archive.memo    rewritten atomically (per-process tmp + rename)
//!   magic "TXAM" · version · schema tag · entry count ·
//!   per entry {segment content hash, payload bytes} ·
//!   trailing fnv1a64 of everything above (8 raw LE bytes)
//! ```
//!
//! ## Trust rules
//!
//! The memo is a cache, never an authority. A missing file is an empty
//! memo. A file that is truncated, bit-damaged, of another version or of
//! another schema tag is rejected whole with a typed [`MemoError`] (same
//! damage discipline as `archive.idx`: trailer hash first, then structure)
//! and read as empty. An entry whose hash matches no live segment — a
//! reorg rewrote the suffix — is simply never looked up. Whatever was not
//! matched is recomputed by the caller from the verified segment bytes,
//! and the next [`SegmentMemo::store`] rewrites the file with exactly one
//! entry per live segment, which both heals damage and prunes stale
//! entries. Writes are best-effort: a failed store costs the next process
//! a recompute, nothing else.

use crate::{SegmentMeta, METRICS};
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use txstat_telemetry::Span;
use txstat_types::colcodec::{ColError, ColReader, ColWriter};
use txstat_types::ids::fnv1a64;

/// Memo file magic.
pub(crate) const MEMO_MAGIC: [u8; 4] = *b"TXAM";
/// Container format version (the payload encoding is versioned separately,
/// by the caller's schema tag).
pub(crate) const MEMO_VERSION: u32 = 1;
/// Memo file name inside an archive directory.
pub const MEMO_FILE: &str = "archive.memo";

/// Why a memo file was refused (or could not be written).
#[derive(Debug)]
pub enum MemoError {
    /// Filesystem failure, with the path and operation that hit it.
    Io {
        path: PathBuf,
        op: &'static str,
        err: std::io::Error,
    },
    /// The file cannot even hold the magic and its own trailer hash.
    TooShort { len: usize },
    /// The trailer hash does not match the bytes (truncation, bit damage).
    HashMismatch { expected: u64, found: u64 },
    /// The file does not start with `TXAM`.
    BadMagic,
    /// The container version is not the one this build reads.
    UnsupportedVersion { found: u32, expected: u32 },
    /// The payloads were encoded under another schema tag.
    SchemaMismatch { found: u32, expected: u32 },
    /// The bytes fail structural decoding (offset inside).
    Corrupt(ColError),
}

impl MemoError {
    /// Every value [`MemoError::reason`] can take, for eager-zero metric
    /// registration.
    pub const REASONS: [&'static str; 7] = [
        "io",
        "too_short",
        "hash_mismatch",
        "bad_magic",
        "version",
        "schema",
        "corrupt",
    ];

    /// The `reason` label this error counts under in
    /// `txstat_archive_memo_rejected_total`.
    pub fn reason(&self) -> &'static str {
        match self {
            MemoError::Io { .. } => "io",
            MemoError::TooShort { .. } => "too_short",
            MemoError::HashMismatch { .. } => "hash_mismatch",
            MemoError::BadMagic => "bad_magic",
            MemoError::UnsupportedVersion { .. } => "version",
            MemoError::SchemaMismatch { .. } => "schema",
            MemoError::Corrupt(_) => "corrupt",
        }
    }
}

impl fmt::Display for MemoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoError::Io { path, op, err } => write!(f, "cannot {op} {}: {err}", path.display()),
            MemoError::TooShort { len } => {
                write!(
                    f,
                    "memo truncated: {len} bytes cannot hold the trailer hash"
                )
            }
            MemoError::HashMismatch { expected, found } => write!(
                f,
                "memo hash mismatch: recorded {expected:#018x}, bytes hash to {found:#018x}"
            ),
            MemoError::BadMagic => write!(f, "not an archive memo (bad magic)"),
            MemoError::UnsupportedVersion { found, expected } => {
                write!(f, "memo format v{found} (this build reads v{expected})")
            }
            MemoError::SchemaMismatch { found, expected } => {
                write!(
                    f,
                    "memo payload schema {found} (this build reads schema {expected})"
                )
            }
            MemoError::Corrupt(e) => write!(f, "memo: {e}"),
        }
    }
}

impl std::error::Error for MemoError {}

impl From<ColError> for MemoError {
    fn from(e: ColError) -> Self {
        MemoError::Corrupt(e)
    }
}

fn io_err<'a>(path: &'a Path, op: &'static str) -> impl FnOnce(std::io::Error) -> MemoError + 'a {
    move |err| MemoError::Io {
        path: path.to_owned(),
        op,
        err,
    }
}

// ---- codec -----------------------------------------------------------------

/// Encode a memo file: `entries` are `(segment content hash, payload)`.
pub fn encode_memo<'a>(
    schema: u32,
    entries: impl ExactSizeIterator<Item = (u64, &'a [u8])>,
) -> Vec<u8> {
    let mut w = ColWriter::with_capacity(32 + entries.len() * 96);
    for b in MEMO_MAGIC {
        w.byte(b);
    }
    w.u32(MEMO_VERSION);
    w.u32(schema);
    w.u64(entries.len() as u64);
    for (hash, payload) in entries {
        w.u64(hash);
        w.bytes(payload);
    }
    let mut bytes = w.into_bytes();
    let hash = fnv1a64(&bytes);
    bytes.extend_from_slice(&hash.to_le_bytes());
    bytes
}

/// Decode a memo file into `hash -> payload`, refusing anything that is
/// not byte-for-byte what [`encode_memo`] wrote under `schema`.
pub fn decode_memo(bytes: &[u8], schema: u32) -> Result<HashMap<u64, &[u8]>, MemoError> {
    if bytes.len() < MEMO_MAGIC.len() + 8 {
        return Err(MemoError::TooShort { len: bytes.len() });
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let recorded = u64::from_le_bytes(trailer.try_into().expect("8 trailer bytes"));
    let actual = fnv1a64(body);
    if recorded != actual {
        return Err(MemoError::HashMismatch {
            expected: recorded,
            found: actual,
        });
    }
    let mut r = ColReader::new(body);
    for want in MEMO_MAGIC {
        if r.byte()? != want {
            return Err(MemoError::BadMagic);
        }
    }
    let version = r.u32()?;
    if version != MEMO_VERSION {
        return Err(MemoError::UnsupportedVersion {
            found: version,
            expected: MEMO_VERSION,
        });
    }
    let found = r.u32()?;
    if found != schema {
        return Err(MemoError::SchemaMismatch {
            found,
            expected: schema,
        });
    }
    // `len` bounds the count by the bytes left (≥ 2 per entry), but an
    // entry takes a dozen times that in the table, so past 1 024 entries
    // the table grows as entries actually decode.
    let count = r.len(2)?;
    let mut entries = HashMap::with_capacity(count.min(1024));
    for _ in 0..count {
        let hash = r.u64()?;
        entries.insert(hash, r.bytes()?);
    }
    r.finish()?;
    Ok(entries)
}

// ---- the handle ------------------------------------------------------------

/// The memo-facing identity of an opened archive: where it lives and which
/// segments are live. Detached from [`crate::Archive`] on purpose — a
/// dataset keeps this handle for facts it computes lazily without keeping
/// the archive's segment file open.
#[derive(Debug, Clone)]
pub struct SegmentMemo {
    pub(crate) dir: PathBuf,
    pub(crate) segments: Vec<SegmentMeta>,
}

impl SegmentMemo {
    /// The live segments (index order) the memo is keyed and pruned by.
    pub fn segments(&self) -> &[SegmentMeta] {
        &self.segments
    }

    /// One slot per live segment, in index order: the payload memoized
    /// under that segment's content hash, run through `decode` — or `None`
    /// where there is nothing usable (no file, a rejected file, no entry,
    /// or a payload `decode` refuses). Never fails: a rejected file counts
    /// in `txstat_archive_memo_rejected_total{reason}` and reads as empty.
    /// Every slot counts as exactly one hit or one miss.
    pub fn load<T>(&self, schema: u32, decode: impl Fn(&[u8]) -> Option<T>) -> Vec<Option<T>> {
        let _span = Span::enter("memo", "load");
        let reject = |e: MemoError| {
            let reason = e.reason();
            if let Some((_, rejected)) = METRICS.memo_rejected.iter().find(|(r, _)| *r == reason) {
                rejected.inc();
            }
        };
        let path = self.dir.join(MEMO_FILE);
        let file = match fs::read(&path) {
            Ok(bytes) => Some(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => {
                reject(io_err(&path, "read")(e));
                None
            }
        };
        let entries = file
            .as_deref()
            .and_then(|bytes| decode_memo(bytes, schema).map_err(reject).ok())
            .unwrap_or_default();
        let slots: Vec<Option<T>> = self
            .segments
            .iter()
            .map(|s| entries.get(&s.hash).and_then(|payload| decode(payload)))
            .collect();
        let hits = slots.iter().filter(|s| s.is_some()).count() as u64;
        METRICS.memo_hits.add(hits);
        METRICS.memo_misses.add(slots.len() as u64 - hits);
        slots
    }

    /// Rewrite `archive.memo` with exactly one entry per live segment
    /// (`payloads` in index order), atomically: the bytes go to a
    /// per-process tmp name and are renamed over the old file, so a
    /// concurrent reader sees the old memo or the new one, never a torn
    /// one. A failure counts in `txstat_archive_memo_write_failures_total`
    /// and is returned for the caller to report; the corpus is unaffected.
    pub fn store(&self, schema: u32, payloads: &[Vec<u8>]) -> Result<(), MemoError> {
        let _span = Span::enter("memo", "store");
        assert_eq!(
            payloads.len(),
            self.segments.len(),
            "one payload per live segment"
        );
        let bytes = encode_memo(
            schema,
            self.segments
                .iter()
                .zip(payloads)
                .map(|(s, p)| (s.hash, p.as_slice())),
        );
        // Unique per writer: concurrent processes (and datasets within one
        // process) never share a tmp file.
        static NEXT_TMP: AtomicU64 = AtomicU64::new(0);
        let n = NEXT_TMP.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!("{MEMO_FILE}.{}.{n}.tmp", std::process::id()));
        let path = self.dir.join(MEMO_FILE);
        let written = fs::write(&tmp, &bytes)
            .map_err(io_err(&tmp, "write"))
            .and_then(|()| fs::rename(&tmp, &path).map_err(io_err(&path, "rename")));
        if written.is_err() {
            let _ = fs::remove_file(&tmp);
            METRICS.memo_write_failures.inc();
        }
        written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let entries: [(u64, &[u8]); 3] = [(7, b"seven"), (u64::MAX, b""), (9, b"nine-nine")];
        encode_memo(5, entries.into_iter())
    }

    #[test]
    fn round_trip_and_schema_gate() {
        let bytes = sample();
        let back = decode_memo(&bytes, 5).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back[&7], b"seven");
        assert_eq!(back[&u64::MAX], b"");
        assert!(matches!(
            decode_memo(&bytes, 6),
            Err(MemoError::SchemaMismatch {
                found: 5,
                expected: 6
            })
        ));
    }

    /// Damage the trailer hash would catch is walked exhaustively over a
    /// real memo in `tests/archive_memo.rs`; here the forgeries re-hash, so
    /// the structural checks are what fire.
    #[test]
    fn forged_fields_behind_a_valid_hash_are_typed() {
        let forge = |mutate: &dyn Fn(&mut Vec<u8>)| {
            let mut body = sample();
            body.truncate(body.len() - 8);
            mutate(&mut body);
            let hash = fnv1a64(&body);
            body.extend_from_slice(&hash.to_le_bytes());
            decode_memo(&body, 5).expect_err("forged memo decoded")
        };
        assert!(matches!(forge(&|b| b[0] = b'X'), MemoError::BadMagic));
        assert!(matches!(
            forge(&|b| b[4] = 9),
            MemoError::UnsupportedVersion {
                found: 9,
                expected: MEMO_VERSION
            }
        ));
        // An entry count far beyond the bytes left must not allocate.
        assert!(matches!(forge(&|b| b[6] = 0x7f), MemoError::Corrupt(_)));
        assert!(matches!(forge(&|b| b.push(0)), MemoError::Corrupt(_)));
    }

    /// Store, reload, prune: entries follow the live index, a re-created
    /// corpus starts without a memo, and stale entries only ever miss.
    #[test]
    fn handle_loads_what_it_stored_and_prunes_to_the_live_index() {
        use crate::{Archive, ArchiveWriter, SegmentBlocks};
        let dir = std::env::temp_dir().join(format!("txstat-memo-unit-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let seg = |start: u64, salt: u8| SegmentBlocks {
            start,
            end: start + 4,
            eos: vec![salt; 9],
            tezos: Vec::new(),
            xrp: vec![salt ^ 0x55; 5],
        };
        let mut w = ArchiveWriter::create(&dir, "m", b"").unwrap();
        for start in [0, 4, 8] {
            w.append(&seg(start, start as u8)).unwrap();
        }
        w.seal().unwrap();
        let own = |b: &[u8]| Some(b.to_vec());

        let memo = Archive::open(&dir).unwrap().memo();
        assert_eq!(memo.load(1, own), vec![None, None, None]);
        let payloads = vec![b"a".to_vec(), b"bb".to_vec(), Vec::new()];
        memo.store(1, &payloads).unwrap();
        let stored: Vec<_> = payloads.iter().cloned().map(Some).collect();
        assert_eq!(memo.load(1, own), stored);
        // Another schema tag, or a caller that refuses a payload: misses.
        assert_eq!(memo.load(2, own), vec![None, None, None]);
        assert_eq!(
            memo.load(1, |b| (b.len() == 2).then(|| b.to_vec()))[0],
            None
        );
        // No tmp file is left behind.
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names.len(), 3, "{names:?}");

        // Rewrite the last segment: its entry goes stale, the rest hit.
        w.truncate_from(8).unwrap();
        w.append(&seg(8, 0xee)).unwrap();
        w.seal().unwrap();
        let reorged = Archive::open(&dir).unwrap().memo();
        let mut slots = reorged.load(1, own);
        assert_eq!(slots, vec![stored[0].clone(), stored[1].clone(), None]);
        slots[2] = Some(b"new".to_vec());
        let healed: Vec<Vec<u8>> = slots.into_iter().flatten().collect();
        reorged.store(1, &healed).unwrap();
        let on_disk = fs::read(dir.join(MEMO_FILE)).unwrap();
        assert_eq!(
            decode_memo(&on_disk, 1).unwrap().len(),
            3,
            "stale entry pruned"
        );

        // A corpus re-created in the same directory starts without a memo.
        drop(ArchiveWriter::create(&dir, "m2", b"").unwrap());
        assert!(!dir.join(MEMO_FILE).exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}
