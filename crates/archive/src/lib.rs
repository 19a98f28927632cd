//! Append-only segmented block archive — the persistent corpus layer.
//!
//! Every `report`/`shard`/`follow`/`serve` run used to re-generate (or
//! re-crawl) its chains; this crate gives the whole pipeline one on-disk
//! corpus to cold-start from instead. The model is binned append-only
//! account storage (jito-solana's accounts files) and subspace's archiving
//! crate: immutable, hash-addressed segments that only ever grow at the
//! tail, plus a small validated index on the side.
//!
//! ## Layout
//!
//! An archive directory holds exactly three files — two that *are* the
//! corpus, and one cache of what has been derived from it:
//!
//! ```text
//! DIR/archive.seg     append-only segment data
//!   ┌────────────┬────────────┬──────┐
//!   │ segment 0  │ segment 1  │  …   │   each an LZSS stream; inside:
//!   └────────────┴────────────┴──────┘
//!     tag 2,                            (colcodec varints)
//!       start, span,
//!       eos blob, tezos blob, xrp blob  (length-prefixed columnar runs,
//!                                        one per chain — the chain crates'
//!                                        `block_cols` encodings)
//!
//! DIR/archive.idx     sidecar index, rewritten atomically per seal
//!   magic "TXAR" · version · manifest str · sidecar bytes ·
//!   segment count · per segment {start, end, offset, comp_len,
//!   raw_len, fnv1a64(compressed bytes)} · trailing fnv1a64 of
//!   everything above (8 raw LE bytes)
//!
//! DIR/archive.memo    per-segment derived payloads ([`memo`]), filled
//!                     lazily by whichever process first needs them
//!   magic "TXAM" · version · caller's schema tag · entry count ·
//!   per entry {segment content hash, payload bytes} · trailing fnv1a64
//! ```
//!
//! The memo is never trusted: missing, stale, damaged or foreign-schema
//! entries are recomputed from the verified segment bytes and the file is
//! rewritten (see [`memo`] for the rules). [`ArchiveWriter::create`]
//! removes a memo left behind by a previous corpus in the same directory.
//!
//! Segments tile one global *block-position* space `[0, total)`: segment
//! `i` covers positions `[start, end)`, contiguous with its neighbours,
//! and stores — for each chain — the blocks whose position falls inside
//! the range (a chain shorter than the range simply contributes fewer
//! blocks). A segment stores one columnar run per chain (struct-of-arrays
//! columns with interned name/address tables, built by the chain crates'
//! `block_cols` codecs) whose decode equals the wire-JSON round trip, so
//! report output and the follow layer's reorg marks do not depend on
//! whether blocks came from the generator or the corpus. The retired
//! wire-JSON schema (index version 1, segment tag 1) is refused with a
//! typed error; re-seal such a corpus from its `(preset, seed)`.
//!
//! The manifest and sidecar are opaque to this crate (the reports layer
//! stores the scenario fingerprint and the non-block dataset — oracle
//! trades, account cluster, CPU-price history — in them); both are
//! covered by the index hash.
//!
//! ## Hardening
//!
//! [`Archive::open`] validates everything before returning: index magic,
//! version, index hash, range contiguity, offset arithmetic, and every
//! segment's content hash against the bytes actually on disk. Damaged or
//! truncated files surface as typed [`ArchiveError`]s naming the exact
//! segment and byte offset — never a panic, same discipline as the wire
//! codec (`txstat_wire`) and the column codec (`txstat_types::colcodec`).

use std::fmt;
use std::fs;
use std::io::{Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, LazyLock};
use txstat_telemetry::{par_map, registry, Counter, Span};
use txstat_types::colcodec::{ColError, ColReader, ColWriter};
use txstat_types::ids::fnv1a64;
use txstat_types::lzss;

pub mod cache;
pub mod memo;

pub use cache::{CacheStats, DecodedSegments};
pub use memo::{decode_memo, encode_memo, MemoError, SegmentMemo, MEMO_FILE};

/// Index file magic.
pub(crate) const ARCHIVE_MAGIC: [u8; 4] = *b"TXAR";
/// On-disk format version written by this build (columnar segment
/// payloads).
pub(crate) const ARCHIVE_VERSION: u32 = 2;
/// Oldest on-disk format version this build still reads.
pub(crate) const ARCHIVE_MIN_VERSION: u32 = 2;
/// Segment data file name inside an archive directory.
pub const SEG_FILE: &str = "archive.seg";
/// Index file name inside an archive directory.
pub const IDX_FILE: &str = "archive.idx";
/// Segment payload tag: per-chain columnar runs.
const SEGMENT_TAG: u8 = 2;

// ---- errors ----------------------------------------------------------------

/// A typed archive failure. Decode-side variants name the segment and the
/// byte offset the damage was detected at.
#[derive(Debug)]
pub enum ArchiveError {
    /// Filesystem failure, with the path and operation that hit it.
    Io {
        path: PathBuf,
        op: &'static str,
        err: std::io::Error,
    },
    /// The directory exists but holds no archive (or no index file).
    Missing { path: PathBuf },
    /// The index does not start with `TXAR`.
    BadMagic { path: PathBuf },
    /// The index declares a format version this build does not read.
    UnsupportedVersion { found: u32, expected: u32 },
    /// The index is too short to even hold its own trailer hash.
    IndexTooShort { len: usize },
    /// The index trailer hash does not match the index bytes.
    IndexHashMismatch { expected: u64, found: u64 },
    /// The index bytes fail structural decoding (offset inside).
    Index(ColError),
    /// Segment ranges do not tile the position space contiguously.
    NonContiguous {
        segment: usize,
        prev_end: u64,
        start: u64,
    },
    /// A segment declares an empty or inverted position range.
    BadRange {
        segment: usize,
        start: u64,
        end: u64,
    },
    /// A segment's recorded byte offset disagrees with its predecessors.
    BadOffset {
        segment: usize,
        expected: u64,
        found: u64,
    },
    /// The segment file ends before a segment the index promises — the
    /// classic torn-write truncation. Offsets are into `archive.seg`.
    SegTruncated {
        segment: usize,
        offset: u64,
        need: u64,
        have: u64,
    },
    /// The segment file is longer than the index accounts for.
    SegTrailingBytes { expected: u64, found: u64 },
    /// A segment's bytes do not hash to the index's record — bit damage
    /// at or after `offset` in `archive.seg`.
    SegHashMismatch {
        segment: usize,
        offset: u64,
        expected: u64,
        found: u64,
    },
    /// A segment's LZSS stream or decompressed payload is malformed.
    /// `offset` is the segment's base offset in `archive.seg`; `at` the
    /// offset inside the (decompressed) payload where decoding failed.
    SegCorrupt {
        segment: usize,
        offset: u64,
        at: usize,
        what: String,
    },
}

impl fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchiveError::Io { path, op, err } => {
                write!(f, "cannot {op} {}: {err}", path.display())
            }
            ArchiveError::Missing { path } => {
                write!(f, "no archive at {} (missing {IDX_FILE})", path.display())
            }
            ArchiveError::BadMagic { path } => {
                write!(f, "{} is not an archive index (bad magic)", path.display())
            }
            ArchiveError::UnsupportedVersion { found, expected } => write!(
                f,
                "archive format v{found} (this build reads v{ARCHIVE_MIN_VERSION}..=v{expected})"
            ),
            ArchiveError::IndexTooShort { len } => {
                write!(
                    f,
                    "index truncated: {len} bytes cannot hold the trailer hash"
                )
            }
            ArchiveError::IndexHashMismatch { expected, found } => write!(
                f,
                "index hash mismatch: recorded {expected:#018x}, bytes hash to {found:#018x}"
            ),
            ArchiveError::Index(e) => write!(f, "index: {e}"),
            ArchiveError::NonContiguous {
                segment,
                prev_end,
                start,
            } => write!(
                f,
                "segment {segment} starts at position {start}, expected {prev_end} (gap or overlap)"
            ),
            ArchiveError::BadRange {
                segment,
                start,
                end,
            } => {
                write!(f, "segment {segment} declares bad range [{start}, {end})")
            }
            ArchiveError::BadOffset {
                segment,
                expected,
                found,
            } => write!(
                f,
                "segment {segment} recorded at byte {found}, expected {expected}"
            ),
            ArchiveError::SegTruncated {
                segment,
                offset,
                need,
                have,
            } => write!(
                f,
                "segment file truncated at byte {have}: segment {segment} at byte {offset} \
                 needs {need} bytes"
            ),
            ArchiveError::SegTrailingBytes { expected, found } => write!(
                f,
                "segment file holds {found} bytes but the index accounts for {expected}"
            ),
            ArchiveError::SegHashMismatch {
                segment,
                offset,
                expected,
                found,
            } => write!(
                f,
                "segment {segment} at byte {offset} damaged: recorded hash {expected:#018x}, \
                 bytes hash to {found:#018x}"
            ),
            ArchiveError::SegCorrupt {
                segment,
                offset,
                at,
                what,
            } => write!(
                f,
                "segment {segment} at byte {offset} corrupt at payload byte {at}: {what}"
            ),
        }
    }
}

impl std::error::Error for ArchiveError {}

impl From<ColError> for ArchiveError {
    fn from(e: ColError) -> Self {
        ArchiveError::Index(e)
    }
}

fn io_err<'a>(
    path: &'a Path,
    op: &'static str,
) -> impl FnOnce(std::io::Error) -> ArchiveError + 'a {
    move |err| ArchiveError::Io {
        path: path.to_owned(),
        op,
        err,
    }
}

// ---- metrics ---------------------------------------------------------------

/// Every `txstat_archive_*` family: the writer's, the replay path's, the
/// decoded-segment [`cache`]'s and the summary [`memo`]'s. Built on first
/// use; building it registers every series at zero, so exposition carries
/// them all before the first segment moves.
struct ArchiveMetrics {
    written: Arc<Counter>,
    /// Seals that merged a trailing runt with fresh blocks instead of
    /// appending another tiny segment (follow's `{coalesced="true"}`).
    written_coalesced: Arc<Counter>,
    replayed: Arc<Counter>,
    raw_bytes: Arc<Counter>,
    comp_bytes: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    memo_hits: Arc<Counter>,
    memo_misses: Arc<Counter>,
    /// One series per [`MemoError::REASONS`] entry, in that order.
    memo_rejected: [(&'static str, Arc<Counter>); MemoError::REASONS.len()],
    memo_write_failures: Arc<Counter>,
}

static METRICS: LazyLock<ArchiveMetrics> = LazyLock::new(|| {
    let reg = registry();
    let written = |labels: &[(&str, &str)]| {
        reg.counter_with(
            "txstat_archive_segments_written_total",
            "Segments sealed into archives",
            labels,
        )
    };
    ArchiveMetrics {
        written: written(&[]),
        written_coalesced: written(&[("coalesced", "true")]),
        replayed: reg.counter(
            "txstat_archive_segments_replayed_total",
            "Segments decompressed and decoded from archives",
        ),
        raw_bytes: reg.counter(
            "txstat_archive_bytes_raw_total",
            "Segment payload bytes before LZSS compression",
        ),
        comp_bytes: reg.counter(
            "txstat_archive_bytes_compressed_total",
            "Segment payload bytes after LZSS compression",
        ),
        cache_hits: reg.counter(
            "txstat_archive_cache_hits_total",
            "Decoded-segment cache lookups served from memory",
        ),
        cache_misses: reg.counter(
            "txstat_archive_cache_misses_total",
            "Decoded-segment cache lookups that had to decode",
        ),
        memo_hits: reg.counter(
            "txstat_archive_memo_hits_total",
            "Live segments whose memoized payload was reused",
        ),
        memo_misses: reg.counter(
            "txstat_archive_memo_misses_total",
            "Live segments with no usable memo entry (recomputed)",
        ),
        memo_rejected: MemoError::REASONS.map(|reason| {
            let rejected = reg.counter_with(
                "txstat_archive_memo_rejected_total",
                "Memo files refused whole, by reason",
                &[("reason", reason)],
            );
            (reason, rejected)
        }),
        memo_write_failures: reg.counter(
            "txstat_archive_memo_write_failures_total",
            "Best-effort memo writes that failed",
        ),
    }
});

/// Register every `txstat_archive_*` family at zero, so exposition carries
/// them even before the first segment moves (the same eager-zero pattern
/// as the fleet and follow layers).
pub fn register_metrics() {
    LazyLock::force(&METRICS);
}

// ---- segments --------------------------------------------------------------

/// One segment's index entry: its position range, where its compressed
/// bytes sit in `archive.seg`, and their content hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Covered block positions `[start, end)`, end-exclusive.
    pub start: u64,
    pub end: u64,
    /// Byte offset of the compressed payload in `archive.seg`.
    pub offset: u64,
    /// Compressed payload length.
    pub comp_len: u64,
    /// Decompressed payload length (replay allocation hint + accounting).
    pub raw_len: u64,
    /// FNV-1a over the compressed payload bytes.
    pub hash: u64,
}

/// One segment's decoded content: the blocks whose position falls in
/// `[start, end)`, each chain as one opaque columnar run (encoded and
/// decoded by the chain crates' `block_cols` codecs — this crate never
/// interprets the blobs). Chains shorter than the range contribute an
/// empty run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SegmentBlocks {
    pub start: u64,
    pub end: u64,
    pub eos: Vec<u8>,
    pub tezos: Vec<u8>,
    pub xrp: Vec<u8>,
}

/// Encode a segment payload (the pre-compression bytes).
fn encode_segment(seg: &SegmentBlocks) -> Vec<u8> {
    let mut w = ColWriter::with_capacity(64 + seg.eos.len() + seg.tezos.len() + seg.xrp.len());
    w.byte(SEGMENT_TAG);
    w.u64(seg.start);
    w.u64(seg.end - seg.start);
    for blob in [&seg.eos, &seg.tezos, &seg.xrp] {
        w.bytes(blob);
    }
    w.into_bytes()
}

/// Decode a decompressed segment payload, validating it against its index
/// entry. Errors carry the in-payload offset.
fn decode_segment(
    meta: &SegmentMeta,
    idx: usize,
    bytes: &[u8],
) -> Result<SegmentBlocks, ArchiveError> {
    let corrupt = |at: usize, what: String| ArchiveError::SegCorrupt {
        segment: idx,
        offset: meta.offset,
        at,
        what,
    };
    let col = |e: ColError| corrupt(e.offset(), e.to_string());
    let mut r = ColReader::new(bytes);
    let tag = r.byte().map_err(col)?;
    if tag != SEGMENT_TAG {
        return Err(corrupt(
            0,
            format!("bad segment tag {tag} (want {SEGMENT_TAG})"),
        ));
    }
    let start = r.u64().map_err(col)?;
    let span = r.u64().map_err(col)?;
    let end = start
        .checked_add(span)
        .ok_or_else(|| r.invalid("range overflow"))
        .map_err(col)?;
    if (start, end) != (meta.start, meta.end) {
        return Err(corrupt(
            1,
            format!(
                "segment declares range [{start}, {end}) but the index records \
                 [{}, {})",
                meta.start, meta.end
            ),
        ));
    }
    let eos = r.bytes().map_err(col)?.to_vec();
    let tezos = r.bytes().map_err(col)?.to_vec();
    let xrp = r.bytes().map_err(col)?.to_vec();
    r.finish().map_err(col)?;
    Ok(SegmentBlocks {
        start,
        end,
        eos,
        tezos,
        xrp,
    })
}

// ---- index -----------------------------------------------------------------

fn encode_index(manifest: &str, sidecar: &[u8], segments: &[SegmentMeta]) -> Vec<u8> {
    let mut w = ColWriter::with_capacity(64 + sidecar.len() + manifest.len() + segments.len() * 24);
    for b in ARCHIVE_MAGIC {
        w.byte(b);
    }
    w.u32(ARCHIVE_VERSION);
    w.str(manifest);
    w.bytes(sidecar);
    w.u64(segments.len() as u64);
    for s in segments {
        w.u64(s.start);
        w.u64(s.end);
        w.u64(s.offset);
        w.u64(s.comp_len);
        w.u64(s.raw_len);
        w.u64(s.hash);
    }
    let mut bytes = w.into_bytes();
    let hash = fnv1a64(&bytes);
    bytes.extend_from_slice(&hash.to_le_bytes());
    bytes
}

fn decode_index(
    path: &Path,
    bytes: &[u8],
) -> Result<(String, Vec<u8>, Vec<SegmentMeta>), ArchiveError> {
    if bytes.len() < ARCHIVE_MAGIC.len() + 8 {
        return Err(ArchiveError::IndexTooShort { len: bytes.len() });
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let recorded = u64::from_le_bytes(trailer.try_into().expect("8 trailer bytes"));
    let actual = fnv1a64(body);
    if recorded != actual {
        return Err(ArchiveError::IndexHashMismatch {
            expected: recorded,
            found: actual,
        });
    }
    let mut r = ColReader::new(body);
    for want in ARCHIVE_MAGIC {
        if r.byte()? != want {
            return Err(ArchiveError::BadMagic {
                path: path.to_owned(),
            });
        }
    }
    let version = r.u32()?;
    if !(ARCHIVE_MIN_VERSION..=ARCHIVE_VERSION).contains(&version) {
        return Err(ArchiveError::UnsupportedVersion {
            found: version,
            expected: ARCHIVE_VERSION,
        });
    }
    let manifest = r.str()?.to_owned();
    let sidecar = r.bytes()?.to_vec();
    let count = r.len(6)?;
    let mut segments = Vec::with_capacity(count);
    let mut next_pos = 0u64;
    let mut next_off = 0u64;
    for i in 0..count {
        let s = SegmentMeta {
            start: r.u64()?,
            end: r.u64()?,
            offset: r.u64()?,
            comp_len: r.u64()?,
            raw_len: r.u64()?,
            hash: r.u64()?,
        };
        if s.start >= s.end {
            return Err(ArchiveError::BadRange {
                segment: i,
                start: s.start,
                end: s.end,
            });
        }
        if s.start != next_pos {
            return Err(ArchiveError::NonContiguous {
                segment: i,
                prev_end: next_pos,
                start: s.start,
            });
        }
        if s.offset != next_off {
            return Err(ArchiveError::BadOffset {
                segment: i,
                expected: next_off,
                found: s.offset,
            });
        }
        next_pos = s.end;
        next_off = s
            .offset
            .checked_add(s.comp_len)
            .ok_or(ArchiveError::BadOffset {
                segment: i,
                expected: s.offset,
                found: u64::MAX,
            })?;
        segments.push(s);
    }
    r.finish()?;
    Ok((manifest, sidecar, segments))
}

// ---- reading ---------------------------------------------------------------

/// A verified, opened archive. Compressed segment bytes stay mapped in
/// memory; decoding (decompress + column decode) happens per segment on
/// demand, so a shard worker cold-starting from disk pays replay cost only
/// for the ranges it is actually assigned.
#[derive(Debug, Clone)]
pub struct Archive {
    dir: PathBuf,
    manifest: String,
    sidecar: Vec<u8>,
    segments: Vec<SegmentMeta>,
    seg_bytes: Vec<u8>,
}

impl Archive {
    /// Open and fully verify the archive at `dir`: index hash, range and
    /// offset arithmetic, segment-file length, and every segment's content
    /// hash. Nothing is decompressed yet.
    pub fn open(dir: &Path) -> Result<Archive, ArchiveError> {
        let _span = Span::enter("archive_open", &dir.display().to_string());
        let idx_path = dir.join(IDX_FILE);
        let idx_bytes = match fs::read(&idx_path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(ArchiveError::Missing {
                    path: dir.to_owned(),
                })
            }
            Err(e) => return Err(io_err(&idx_path, "read")(e)),
        };
        let (manifest, sidecar, segments) = decode_index(&idx_path, &idx_bytes)?;
        let seg_path = dir.join(SEG_FILE);
        let seg_bytes = if segments.is_empty() {
            fs::read(&seg_path).unwrap_or_default()
        } else {
            fs::read(&seg_path).map_err(io_err(&seg_path, "read"))?
        };
        let archive = Archive {
            dir: dir.to_owned(),
            manifest,
            sidecar,
            segments,
            seg_bytes,
        };
        archive.verify()?;
        Ok(archive)
    }

    /// Re-check every segment's bounds and content hash against the
    /// in-memory segment bytes.
    fn verify(&self) -> Result<(), ArchiveError> {
        let _span = Span::enter("archive_verify", "");
        let file_len = self.seg_bytes.len() as u64;
        let mut accounted = 0u64;
        for (i, s) in self.segments.iter().enumerate() {
            let need = s.offset + s.comp_len;
            if need > file_len {
                return Err(ArchiveError::SegTruncated {
                    segment: i,
                    offset: s.offset,
                    need,
                    have: file_len,
                });
            }
            let bytes = &self.seg_bytes[s.offset as usize..need as usize];
            let found = fnv1a64(bytes);
            if found != s.hash {
                return Err(ArchiveError::SegHashMismatch {
                    segment: i,
                    offset: s.offset,
                    expected: s.hash,
                    found,
                });
            }
            accounted = need;
        }
        if accounted != file_len {
            return Err(ArchiveError::SegTrailingBytes {
                expected: accounted,
                found: file_len,
            });
        }
        Ok(())
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The opaque manifest string recorded at creation (the reports layer
    /// stores the scenario fingerprint here).
    pub fn manifest(&self) -> &str {
        &self.manifest
    }

    /// The opaque sidecar bytes (non-block dataset state).
    pub fn sidecar(&self) -> &[u8] {
        &self.sidecar
    }

    pub fn segments(&self) -> &[SegmentMeta] {
        &self.segments
    }

    /// The handle this corpus's `archive.memo` is read and healed through,
    /// keyed by the segments live at open.
    pub fn memo(&self) -> SegmentMemo {
        SegmentMemo {
            dir: self.dir.clone(),
            segments: self.segments.clone(),
        }
    }

    /// One past the highest archived block position.
    pub fn total_positions(&self) -> u64 {
        self.segments.last().map_or(0, |s| s.end)
    }

    /// Indices `[lo, hi)` of the segments overlapping positions
    /// `[start, end)`.
    pub fn covering(&self, start: u64, end: u64) -> (usize, usize) {
        let lo = self.segments.partition_point(|s| s.end <= start);
        let hi = self.segments.partition_point(|s| s.start < end);
        (lo, hi.max(lo))
    }

    /// Decompress and decode one segment (counted in
    /// `txstat_archive_segments_replayed_total`).
    pub fn decode_segment(&self, i: usize) -> Result<SegmentBlocks, ArchiveError> {
        let _span = Span::enter("archive_replay", "segment");
        let meta = self.segments[i];
        let bytes = &self.seg_bytes[meta.offset as usize..(meta.offset + meta.comp_len) as usize];
        // `raw_len` comes from the index: the decoder allocates it once
        // and fails the moment the stream would decode past it.
        let raw_len = usize::try_from(meta.raw_len).unwrap_or(usize::MAX);
        let raw = lzss::decompress(bytes, raw_len).map_err(|e| ArchiveError::SegCorrupt {
            segment: i,
            offset: meta.offset,
            at: match e {
                lzss::LzssError::TooShort { got, .. } => got,
                lzss::LzssError::TooLong { expected } => expected,
                _ => 0,
            },
            what: e.to_string(),
        })?;
        let seg = decode_segment(&meta, i, &raw)?;
        METRICS.replayed.inc();
        Ok(seg)
    }

    /// Decode exactly the segments overlapping `[start, end)`, in position
    /// order — the cold-start fast path for range assignments. Segments
    /// decompress and decode through [`par_map`] (they are independent LZSS
    /// streams); results come back in segment order.
    pub(crate) fn replay_range(
        &self,
        start: u64,
        end: u64,
    ) -> Result<Vec<SegmentBlocks>, ArchiveError> {
        let (lo, hi) = self.covering(start, end);
        let indices: Vec<usize> = (lo..hi).collect();
        par_map(&indices, |&i| self.decode_segment(i))
            .into_iter()
            .collect()
    }

    /// Decode every segment in order.
    pub fn replay_all(&self) -> Result<Vec<SegmentBlocks>, ArchiveError> {
        self.replay_range(0, u64::MAX)
    }

    /// Turn this verified archive into a writer that appends after the
    /// last sealed segment (the follow path's live tail).
    pub fn into_writer(self) -> Result<ArchiveWriter, ArchiveError> {
        let seg_path = self.dir.join(SEG_FILE);
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&seg_path)
            .map_err(io_err(&seg_path, "open"))?;
        Ok(ArchiveWriter {
            dir: self.dir,
            manifest: self.manifest,
            sidecar: self.sidecar,
            segments: self.segments,
            seg_file: file,
            seg_len: self.seg_bytes.len() as u64,
        })
    }
}

// ---- writing ---------------------------------------------------------------

/// Appends segments to an archive directory. Segment bytes go to
/// `archive.seg` immediately; the index is rewritten atomically
/// (tmp + rename) on every [`ArchiveWriter::seal`], so readers opening
/// concurrently always see a consistent prefix.
#[derive(Debug)]
pub struct ArchiveWriter {
    dir: PathBuf,
    manifest: String,
    sidecar: Vec<u8>,
    segments: Vec<SegmentMeta>,
    seg_file: fs::File,
    seg_len: u64,
}

impl ArchiveWriter {
    /// Create (or truncate) the archive at `dir` with the given opaque
    /// manifest and sidecar. The directory is created if missing; a memo
    /// left by a previous corpus there is removed (its entries could only
    /// ever miss, but the directory should hold nothing stale).
    pub fn create(
        dir: &Path,
        manifest: &str,
        sidecar: &[u8],
    ) -> Result<ArchiveWriter, ArchiveError> {
        fs::create_dir_all(dir).map_err(io_err(dir, "create"))?;
        let memo_path = dir.join(MEMO_FILE);
        match fs::remove_file(&memo_path) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                return Err(io_err(&memo_path, "remove")(e))
            }
            _ => {}
        }
        let seg_path = dir.join(SEG_FILE);
        let file = fs::File::create(&seg_path).map_err(io_err(&seg_path, "create"))?;
        let w = ArchiveWriter {
            dir: dir.to_owned(),
            manifest: manifest.to_owned(),
            sidecar: sidecar.to_vec(),
            segments: Vec::new(),
            seg_file: file,
            seg_len: 0,
        };
        w.seal()?;
        Ok(w)
    }

    /// The archive directory being written.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn segments(&self) -> &[SegmentMeta] {
        &self.segments
    }

    /// One past the highest archived block position.
    pub fn total_positions(&self) -> u64 {
        self.segments.last().map_or(0, |s| s.end)
    }

    /// Drop a trailing runt — a newest segment spanning fewer than
    /// `seg_blocks` positions — so the caller re-appends its blocks merged
    /// with the next batch instead of letting one tiny segment pile up per
    /// batch (counted under `txstat_archive_segments_written_total
    /// {coalesced="true"}`). Returns the position to append from.
    pub fn reopen_tail_runt(&mut self, seg_blocks: u64) -> Result<u64, ArchiveError> {
        if let Some(&SegmentMeta { start, end, .. }) = self.segments.last() {
            if end - start < seg_blocks {
                self.truncate_from(start)?;
                METRICS.written_coalesced.inc();
            }
        }
        Ok(self.total_positions())
    }

    /// Compress and append one segment. Its range must continue exactly
    /// where the previous segment ended.
    pub fn append(&mut self, seg: &SegmentBlocks) -> Result<SegmentMeta, ArchiveError> {
        let _span = Span::enter("archive_seal", "segment");
        let next = self.total_positions();
        if seg.start != next || seg.end <= seg.start {
            return Err(ArchiveError::NonContiguous {
                segment: self.segments.len(),
                prev_end: next,
                start: seg.start,
            });
        }
        let raw = encode_segment(seg);
        let comp = lzss::compress(&raw);
        let seg_path = self.dir.join(SEG_FILE);
        self.seg_file
            .write_all(&comp)
            .map_err(io_err(&seg_path, "append"))?;
        let meta = SegmentMeta {
            start: seg.start,
            end: seg.end,
            offset: self.seg_len,
            comp_len: comp.len() as u64,
            raw_len: raw.len() as u64,
            hash: fnv1a64(&comp),
        };
        self.seg_len += meta.comp_len;
        self.segments.push(meta);
        METRICS.written.inc();
        METRICS.raw_bytes.add(meta.raw_len);
        METRICS.comp_bytes.add(meta.comp_len);
        Ok(meta)
    }

    /// Drop every segment whose range reaches past `position` (a reorg
    /// invalidating the suffix): the segment file is cut back to the first
    /// dropped segment's offset. Returns how many segments were dropped.
    /// The caller re-appends the rebuilt history afterwards and seals.
    pub fn truncate_from(&mut self, position: u64) -> Result<usize, ArchiveError> {
        let keep = self.segments.partition_point(|s| s.end <= position);
        let dropped = self.segments.len() - keep;
        if dropped == 0 {
            return Ok(0);
        }
        self.seg_len = self.segments[keep].offset;
        self.segments.truncate(keep);
        let seg_path = self.dir.join(SEG_FILE);
        self.seg_file.flush().map_err(io_err(&seg_path, "flush"))?;
        self.seg_file
            .set_len(self.seg_len)
            .map_err(io_err(&seg_path, "truncate"))?;
        // `set_len` leaves the write cursor where it was (past the new
        // end); the next append must land exactly at the cut. (No-op for
        // the O_APPEND handles `into_writer` hands out.)
        self.seg_file
            .seek(SeekFrom::Start(self.seg_len))
            .map_err(io_err(&seg_path, "seek"))?;
        Ok(dropped)
    }

    /// Write the index (atomically: tmp file + rename) so the segments
    /// appended so far become visible to readers.
    pub fn seal(&self) -> Result<(), ArchiveError> {
        let bytes = encode_index(&self.manifest, &self.sidecar, &self.segments);
        let tmp = self.dir.join(format!("{IDX_FILE}.tmp"));
        fs::write(&tmp, &bytes).map_err(io_err(&tmp, "write"))?;
        let idx = self.dir.join(IDX_FILE);
        fs::rename(&tmp, &idx).map_err(io_err(&idx, "rename"))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Opaque per-chain blobs — the archive layer never interprets them.
    /// The Tezos run is empty for odd starts, like a chain that ended.
    fn seg(start: u64, end: u64) -> SegmentBlocks {
        SegmentBlocks {
            start,
            end,
            eos: format!("eos-cols-{start}..{end}").into_bytes(),
            tezos: if start.is_multiple_of(2) {
                format!("tz-cols-{start}").into_bytes()
            } else {
                Vec::new()
            },
            xrp: format!("xrp-cols-{start}").into_bytes(),
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("txstat-archive-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_and_range_replay() {
        let dir = tmpdir("roundtrip");
        let mut w = ArchiveWriter::create(&dir, "{\"m\":1}", b"side").unwrap();
        let segs: Vec<_> = [(0, 10), (10, 20), (20, 25)]
            .iter()
            .map(|&(a, b)| seg(a, b))
            .collect();
        for s in &segs {
            w.append(s).unwrap();
        }
        w.seal().unwrap();

        let a = Archive::open(&dir).unwrap();
        assert_eq!(a.manifest(), "{\"m\":1}");
        assert_eq!(a.sidecar(), b"side");
        assert_eq!(a.total_positions(), 25);
        assert_eq!(a.replay_all().unwrap(), segs);
        // Range replay touches only the overlapping segments.
        let mid = a.replay_range(12, 15).unwrap();
        assert_eq!(mid.len(), 1);
        assert_eq!((mid[0].start, mid[0].end), (10, 20));
        assert_eq!(a.covering(0, 25), (0, 3));
        assert_eq!(a.covering(10, 11), (1, 2));
        assert_eq!(a.covering(30, 40), (3, 3));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn only_a_tail_below_the_segment_size_is_reopened() {
        let dir = tmpdir("runt");
        let mut w = ArchiveWriter::create(&dir, "m", b"").unwrap();
        w.append(&seg(0, 16)).unwrap();
        w.append(&seg(16, 20)).unwrap();
        assert_eq!(w.reopen_tail_runt(2).unwrap(), 20);
        assert_eq!(w.reopen_tail_runt(4).unwrap(), 20); // tail exactly at target size
        assert_eq!(w.reopen_tail_runt(16).unwrap(), 16);
        // The cut is where the next append lands.
        w.append(&seg(16, 32)).unwrap();
        w.seal().unwrap();
        let a = Archive::open(&dir).unwrap();
        assert_eq!(a.replay_all().unwrap(), vec![seg(0, 16), seg(16, 32)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_contiguous_append_rejected() {
        let dir = tmpdir("gap");
        let mut w = ArchiveWriter::create(&dir, "m", b"").unwrap();
        w.append(&seg(0, 5)).unwrap();
        assert!(matches!(
            w.append(&seg(7, 9)),
            Err(ArchiveError::NonContiguous { .. })
        ));
        assert!(matches!(
            w.append(&seg(5, 5)),
            Err(ArchiveError::NonContiguous { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncate_from_drops_suffix() {
        let dir = tmpdir("trunc");
        let mut w = ArchiveWriter::create(&dir, "m", b"").unwrap();
        for &(a, b) in &[(0, 10), (10, 20), (20, 30)] {
            w.append(&seg(a, b)).unwrap();
        }
        // Reorg at position 15: the segment containing 15 and everything
        // after it go; the [0, 10) prefix stays.
        assert_eq!(w.truncate_from(15).unwrap(), 2);
        assert_eq!(w.total_positions(), 10);
        let reorged = seg(10, 30);
        w.append(&reorged).unwrap();
        w.seal().unwrap();
        let a = Archive::open(&dir).unwrap();
        assert_eq!(a.segments().len(), 2);
        assert_eq!(a.replay_range(10, 30).unwrap(), vec![reorged]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damage_is_typed_not_panicked() {
        let dir = tmpdir("damage");
        let mut w = ArchiveWriter::create(&dir, "m", b"sidecar").unwrap();
        for &(a, b) in &[(0, 8), (8, 16)] {
            w.append(&seg(a, b)).unwrap();
        }
        w.seal().unwrap();

        // Truncate the segment file mid-segment: the open names the
        // segment and the byte it needed.
        let seg_path = dir.join(SEG_FILE);
        let full = fs::read(&seg_path).unwrap();
        fs::write(&seg_path, &full[..full.len() - 3]).unwrap();
        match Archive::open(&dir) {
            Err(ArchiveError::SegTruncated {
                segment: 1,
                need,
                have,
                ..
            }) => {
                assert_eq!(need as usize, full.len());
                assert_eq!(have as usize, full.len() - 3);
            }
            other => panic!("expected SegTruncated, got {other:?}"),
        }

        // Flip one bit inside a segment: hash mismatch naming it.
        let mut flipped = full.clone();
        flipped[2] ^= 0x10;
        fs::write(&seg_path, &flipped).unwrap();
        match Archive::open(&dir) {
            Err(ArchiveError::SegHashMismatch {
                segment: 0,
                offset: 0,
                ..
            }) => {}
            other => panic!("expected SegHashMismatch, got {other:?}"),
        }
        fs::write(&seg_path, &full).unwrap();

        // Flip one bit in the index: trailer hash catches it.
        let idx_path = dir.join(IDX_FILE);
        let idx = fs::read(&idx_path).unwrap();
        let mut bad = idx.clone();
        bad[6] ^= 0x01;
        fs::write(&idx_path, &bad).unwrap();
        assert!(matches!(
            Archive::open(&dir),
            Err(ArchiveError::IndexHashMismatch { .. })
        ));

        // Truncate the index below the trailer.
        fs::write(&idx_path, &idx[..4]).unwrap();
        assert!(matches!(
            Archive::open(&dir),
            Err(ArchiveError::IndexTooShort { len: 4 })
        ));

        // Missing index entirely.
        fs::remove_file(&idx_path).unwrap();
        assert!(matches!(
            Archive::open(&dir),
            Err(ArchiveError::Missing { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_after_reopen() {
        let dir = tmpdir("reopen");
        let mut w = ArchiveWriter::create(&dir, "m", b"s").unwrap();
        w.append(&seg(0, 6)).unwrap();
        w.seal().unwrap();
        let mut w2 = Archive::open(&dir).unwrap().into_writer().unwrap();
        w2.append(&seg(6, 12)).unwrap();
        w2.seal().unwrap();
        let a = Archive::open(&dir).unwrap();
        assert_eq!(a.total_positions(), 12);
        assert_eq!(a.segments().len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_archive_opens() {
        let dir = tmpdir("empty");
        let w = ArchiveWriter::create(&dir, "m", b"").unwrap();
        drop(w);
        let a = Archive::open(&dir).unwrap();
        assert_eq!(a.total_positions(), 0);
        assert!(a.replay_all().unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }
}
