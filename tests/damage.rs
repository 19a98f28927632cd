//! The damage table: one row per byte decoder a report's bytes travel
//! through, each walked by `support::walk` under every mutator: truncations,
//! bit flips, huge counts and forged counts. No mutation may panic a
//! decoder, make it ask for more than its row's cap at once or slip a
//! strict prefix through, and every outcome must pass the row's verdict.
//! Each hash-sealed row (`TXSF` frames, `TXSQ` requests, `TXSP` responses,
//! `archive.idx`, `archive.memo`) is walked raw, where every mutation must be refused, and
//! re-sealed, where the hash is recomputed over the mutated body so the
//! damage reaches the structural decoder. The column decoders' rows are
//! built in `support::rows`, where the named walks of `archive_v2.rs` and
//! `wire_reduce.rs` build them too. This binary installs the
//! [`support::Watch`] global allocator, as those two do.

mod support;

use std::mem::size_of;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use support::rows::{all_payload_rows, block_rows, cut, payloads, window, RESERVE_CAP, WINDOWS};
use support::{walk, Count, Mutation, Mutator, Row};
use txstat::archive::{decode_memo, encode_memo, Archive, MemoError, IDX_FILE};
use txstat::reports::{generate, scenario_meta, summarize, PipelineData};
use txstat::reports::{SegmentSummary, SUMMARY_SCHEMA};
use txstat::types::colcodec::{ColReader, ColWriter};
use txstat::types::ids::fnv1a64;
use txstat::types::lzss::{self, LzssError};
use txstat::wire::fleet::{self, Assignment, ProtocolError};
use txstat::wire::{content_hash, encode_all, PayloadFormat, ShardFrame, WireError};
use txstat::workload::Scenario;

#[global_allocator]
static WATCH: support::Watch = support::Watch;

/// The cap of the rows that copy their input (envelopes, files, streams):
/// twice the forged count's padding, so one copy of the longest input fits.
const COPY_CAP: usize = 1 << 19;

/// The shared dataset (generation is paid once per process).
fn direct() -> &'static PipelineData {
    static DIRECT: OnceLock<PipelineData> = OnceLock::new();
    DIRECT.get_or_init(|| generate(&Scenario::small(23)))
}

/// The u32-LE-length-prefixed section at `at`, if the bytes hold it whole.
fn section(bytes: &[u8], at: usize) -> Option<&[u8]> {
    let len = u32::from_le_bytes(bytes.get(at..at.checked_add(4)?)?.try_into().ok()?);
    bytes.get(at + 4..(at + 4).checked_add(len as usize)?)
}

/// A `TXSF` frame with its content hash (bytes 8..16) recomputed over the
/// header and payload its lengths locate, where both are there.
fn seal_frame(bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    if let Some(header) = section(bytes, 16) {
        if let Some(payload) = section(bytes, 20 + header.len()) {
            out[8..16].copy_from_slice(&content_hash(header, payload).to_le_bytes());
        }
    }
    out
}

/// A `TXSQ` request with its body hash (bytes 8..16) recomputed.
fn seal_request(bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    if let Some(body) = section(bytes, 16) {
        out[8..16].copy_from_slice(&content_hash(body, &[]).to_le_bytes());
    }
    out
}

/// A `TXSP` response with its seal (bytes 8..16) recomputed over the status
/// byte and the body length (bytes 16..21).
fn seal_response(bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    if let Some(sealed) = bytes.get(16..21) {
        out[8..16].copy_from_slice(&fnv1a64(sealed).to_le_bytes());
    }
    out
}

/// A file sealed by an fnv1a64 trailer (`archive.idx`, `archive.memo`):
/// its body, and a body sealed again.
fn strip_trailer(bytes: &[u8]) -> Vec<u8> {
    bytes[..bytes.len() - 8].to_vec()
}

fn seal_trailer(body: &[u8]) -> Vec<u8> {
    [body, &fnv1a64(body).to_le_bytes()].concat()
}

/// Every row of the table; the `archive.idx` row plants its inputs in a
/// corpus at `idx_dir`.
fn table(idx_dir: &Path) -> Vec<Row<'_>> {
    let data = direct();
    let mut rows = block_rows(data, &WINDOWS);

    // The frame payload a worker encodes for every assignment.
    let payloads = payloads(data, &WINDOWS);
    let meta = scenario_meta(&data.scenario, "small");
    let frames: Vec<ShardFrame> = ["eos", "tezos", "xrp"]
        .iter()
        .zip(&payloads)
        .map(|(chain, p)| ShardFrame::from_columns(chain, 0, 2, 2, meta.clone(), p[0].1.clone()))
        .collect();
    rows.extend(all_payload_rows(payloads));

    // A frame: whatever decodes re-encodes to a frame that decodes to
    // itself. A strict prefix is `Truncated`.
    let verdict =
        |m: Option<&Mutation>, _: &[u8], r: Result<(ShardFrame, usize), WireError>| match r {
            Ok((frame, _)) => {
                ShardFrame::decode(&frame.encode()).is_ok_and(|(again, _)| again == frame)
            }
            Err(e) => !cut(m) || matches!(e, WireError::Truncated { .. }),
        };
    rows.push(Row {
        count: Count::U32Le,
        cap: COPY_CAP,
        seal: Some((<[u8]>::to_vec, seal_frame)),
        ..Row::new(
            "ShardFrame::decode",
            frames[2].encode(),
            ShardFrame::decode,
            verdict,
        )
    });

    // The fleet messages, read from a peer that sends the bytes and closes;
    // a strict prefix is a typed `Io` error. Each is also walked with a
    // length of 64 MiB and a few bytes after it: a body is reserved as it
    // arrives, never as it is declared. A request re-encodes to a fixpoint;
    // a response can only be the frames it was, or, re-sealed, a worker
    // error (a flipped status byte) whose message is escaped and capped,
    // however long the body. Under its own seal a flipped status byte is a
    // `HashMismatch`, never a worker error.
    let request = Assignment {
        start: 300,
        end: 600,
        shards: 2,
        payload: PayloadFormat::Bin,
        meta,
    };
    let mut healthy = Vec::new();
    fleet::write_assignment(&mut healthy, &request).expect("write the request");
    let verdict = |m: Option<&Mutation>, _: &[u8], r: Result<Assignment, ProtocolError>| match r {
        Ok(a) => {
            let mut again = Vec::new();
            fleet::write_assignment(&mut again, &a).expect("write the request");
            fleet::read_assignment(&mut again.as_slice()) == Ok(a)
        }
        Err(e) => !cut(m) || matches!(e, ProtocolError::Io(_)),
    };
    let read = |mut bytes: &[u8]| fleet::read_assignment(&mut bytes);
    rows.push(Row {
        count: Count::U32Le,
        cap: COPY_CAP,
        forges: vec![(64 << 20, 8)],
        seal: Some((<[u8]>::to_vec, seal_request)),
        ..Row::new("fleet::read_assignment", healthy, read, verdict)
    });
    let mut healthy = Vec::new();
    fleet::write_frames(&mut healthy, &frames).expect("write the response");
    // The status byte comes just before the body length, which comes just
    // before the body.
    let status_at = healthy.len() - encode_all(&frames).len() - 5;
    let head = healthy[..status_at].to_vec();
    let verdict = move |m: Option<&Mutation>,
                        bytes: &[u8],
                        r: Result<Vec<ShardFrame>, ProtocolError>| {
        let status_flip =
            m.is_some_and(|m| m.at == status_at && matches!(m.mutator, Mutator::BitFlip(_)));
        match r {
            _ if status_flip && bytes.starts_with(&head) => {
                matches!(r, Err(ProtocolError::HashMismatch { .. }))
            }
            Ok(got) => got == frames,
            Err(ProtocolError::Remote(msg)) => {
                !cut(m) && msg.len() <= fleet::MAX_REMOTE_MESSAGE && !msg.contains(char::is_control)
            }
            Err(e) => !cut(m) || matches!(e, ProtocolError::Io(_)),
        }
    };
    let read = |mut bytes: &[u8]| fleet::read_response(&mut bytes);
    rows.push(Row {
        count: Count::U32Le,
        cap: COPY_CAP,
        forges: vec![(64 << 20, 8)],
        seal: Some((<[u8]>::to_vec, seal_response)),
        ..Row::new("fleet::read_response", healthy, read, verdict)
    });

    // The memo of three real segment summaries: whatever decodes is a table
    // that re-encodes to one that decodes to itself.
    let summaries: Vec<(u64, Vec<u8>)> = (0..3usize)
        .map(|i| {
            let run = i * 48..i * 48 + 48;
            let (eos, tezos, xrp) = (&data.eos_blocks, &data.tezos_blocks, &data.xrp_blocks);
            let summary = summarize(
                run.start as u64,
                &eos[run.clone()],
                &tezos[run.clone()],
                &xrp[run],
                &data.eos_cpu_price,
            );
            (fnv1a64(&i.to_le_bytes()), summary.encode())
        })
        .collect();
    let encode = |table: &[(u64, Vec<u8>)]| {
        encode_memo(SUMMARY_SCHEMA, table.iter().map(|(h, p)| (*h, &p[..])))
    };
    let decode = |bytes: &[u8]| {
        decode_memo(bytes, SUMMARY_SCHEMA).map(|table| {
            let mut entries: Vec<(u64, Vec<u8>)> =
                table.into_iter().map(|(h, p)| (h, p.to_vec())).collect();
            entries.sort_unstable();
            entries
        })
    };
    let verdict = move |_: Option<&Mutation>, _: &[u8], r: Result<Vec<_>, MemoError>| {
        r.map_or(true, |table| {
            decode(&encode(&table)).is_ok_and(|t| t == table)
        })
    };
    rows.push(Row {
        cap: COPY_CAP,
        seal: Some((strip_trailer, seal_trailer)),
        ..Row::new("decode_memo", encode(&summaries), decode, verdict)
    });

    // `archive.idx` of a tiny synthetic corpus, planted beside its healthy
    // segment file: whatever opens replays the healthy segments, each
    // hash-checked against the index. (`replay_all` decompresses some
    // segments on a `par_map` worker thread, outside the watch.)
    support::synthetic_corpus(idx_dir, 3, 0x5eed_0003);
    let replay = move |bytes: &[u8]| {
        std::fs::write(idx_dir.join(IDX_FILE), bytes).expect("plant archive.idx");
        Archive::open(idx_dir)?.replay_all()
    };
    let healthy = std::fs::read(idx_dir.join(IDX_FILE)).expect("read archive.idx");
    let want = replay(&healthy).expect("the healthy corpus replays");
    rows.push(Row {
        cap: COPY_CAP,
        seal: Some((strip_trailer, seal_trailer)),
        ..Row::new("archive.idx", healthy, replay, move |_, _, r| {
            r.map_or(true, |s| s == want)
        })
    });

    // A segment summary is a strict inverse: whatever decodes re-encodes to
    // exactly its bytes, without a table to reserve.
    let decode = |bytes: &[u8]| SegmentSummary::decode(bytes).ok_or(());
    let verdict = |_: Option<&Mutation>, bytes: &[u8], r: Result<SegmentSummary, ()>| {
        r.map_or(true, |s| s.encode() == bytes)
    };
    rows.push(Row {
        cap: size_of::<SegmentSummary>(),
        ..Row::new(
            "SegmentSummary::decode",
            summaries[0].1.clone(),
            decode,
            verdict,
        )
    });

    // LZSS over the wire JSON of two EOS blocks: the output is reserved once,
    // never past the expected length, and is that long (the healthy one is
    // the JSON). A strict prefix ends early: `Truncated` or `TooShort`.
    let raw: Vec<u8> = window(&data.eos_blocks, WINDOWS[0])
        .iter()
        .flat_map(txstat::eos::rpc_model::block_bytes)
        .collect();
    let (len, healthy) = (raw.len(), lzss::compress(&raw));
    let verdict = move |m: Option<&Mutation>, _: &[u8], r: Result<Vec<u8>, LzssError>| match r {
        Ok(out) => out.len() == len && (m.is_some() || out == raw),
        Err(LzssError::TooShort { expected, got }) => expected == len && got < len,
        Err(e) => !cut(m) || e == LzssError::Truncated,
    };
    rows.push(Row {
        cap: len,
        ..Row::new(
            "lzss::decompress",
            healthy,
            move |b| lzss::decompress(b, len),
            verdict,
        )
    });
    rows
}

/// Every row survives every mutator (walked on up to four threads).
#[test]
fn every_row_survives_every_mutator() {
    let dir = support::tempdir("damage", "idx");
    let rows = table(&dir);
    let next = AtomicUsize::new(0);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                while let Some(row) = rows.get(next.fetch_add(1, Ordering::Relaxed)) {
                    walk(row);
                }
            });
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// A decoder that accepts any prefix fails the walk: the table cannot pass
/// by walking nothing.
#[test]
#[should_panic(expected = "accepts-prefixes (raw: Truncation at 0): accepted")]
fn a_row_accepting_a_prefix_fails_the_walk() {
    let decode = |bytes: &[u8]| Ok::<_, ()>(bytes.len());
    walk(&Row::new(
        "accepts-prefixes",
        b"healthy".to_vec(),
        decode,
        |_, _, _| true,
    ));
}

/// A decoder that reserves its whole declared count fails the walk.
#[test]
#[should_panic(expected = "reserves-its-count (raw: ForgedCount(65536) at 0): asked for")]
fn a_row_reserving_its_declared_count_fails_the_walk() {
    let decode = |bytes: &[u8]| {
        let mut r = ColReader::new(bytes);
        let n = r.len(1)?;
        let mut values = Vec::<u64>::with_capacity(n);
        for _ in 0..n {
            values.push(r.u64()?);
        }
        r.finish().map(|()| values)
    };
    let mut w = ColWriter::new();
    [3, 10, 20, 30].into_iter().for_each(|v| w.u64(v));
    let row = Row::new("reserves-its-count", w.into_bytes(), decode, |_, _, _| true);
    walk(&Row {
        cap: RESERVE_CAP * size_of::<u64>(),
        ..row
    });
}
