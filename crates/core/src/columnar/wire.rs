//! The wire payload: the binary column form of every mergeable columnar
//! state.
//!
//! [`WireState`] is the encode/decode contract `txstat_wire` frames carry
//! under their envelope. The layout rules:
//!
//! - **Column sections in fixed field order.** Each accumulator writes its
//!   mergeable fields in the order its struct declares them, each field as
//!   one column section (varint scalars, interner key columns, sorted
//!   sparse tables). No self-description per field — the section order
//!   *is* the schema, pinned by the payload prefix below and the frame
//!   header's schema version.
//! - **Canonical bytes.** Sparse tables encode in sorted key order,
//!   varints are minimal-length, and interner columns are the id-ordered
//!   key table — so two logically equal accumulators encode byte-identically
//!   regardless of insertion/probe history.
//! - **Typed failure, never a panic.** Truncation, bit flips, forged
//!   counts, out-of-range ids, and arity skew all surface as
//!   [`ColError`]s with byte offsets; the decode path runs every
//!   accumulator's `validate()` id-bounds/arity checks.
//!
//! Each top-level payload starts with a two-byte prefix: the payload
//! schema byte `PAYLOAD_SCHEMA_BIN` and a struct tag naming the
//! accumulator, so a payload routed to the wrong chain decoder fails on
//! byte 1 instead of misreading columns.

use txstat_types::colcodec::{ColError, ColReader, ColWriter};

/// The payload schema byte every binary column payload starts with.
/// (`2`: the retired schema-1 payloads were JSON and started with `{`.)
pub(crate) const PAYLOAD_SCHEMA_BIN: u8 = 2;

/// Most elements a decoder reserves room for up front. A count is only
/// checked against the bytes left, and a forged one those bytes can carry
/// would otherwise reserve up to 16× their size; past the cap, a
/// collection grows as its elements actually decode.
pub(crate) const RESERVE_CAP: usize = 1024;

/// Struct tags for the top-level payloads (the second prefix byte).
pub(crate) const TAG_EOS: u8 = b'e';
pub(crate) const TAG_TEZOS: u8 = b't';
pub(crate) const TAG_XRP: u8 = b'x';

/// A mergeable state that encodes itself as binary column sections — the
/// payload side of a `ShardFrame`.
pub trait WireState: Sized {
    /// Append this state's column sections to `w`.
    fn encode_columns(&self, w: &mut ColWriter);

    /// Decode column sections from `r`, running the accumulator's
    /// id-bounds/arity validation. Must never panic on any byte input.
    fn decode_columns(r: &mut ColReader<'_>) -> Result<Self, ColError>;

    /// Encode into a standalone byte payload.
    fn to_wire_bytes(&self) -> Vec<u8> {
        let mut w = ColWriter::with_capacity(256);
        self.encode_columns(&mut w);
        w.into_bytes()
    }

    /// Decode a standalone byte payload; trailing bytes are an error.
    fn from_wire_bytes(bytes: &[u8]) -> Result<Self, ColError> {
        let mut r = ColReader::new(bytes);
        let out = Self::decode_columns(&mut r)?;
        r.finish()?;
        Ok(out)
    }
}

/// Write the two-byte payload prefix of a top-level accumulator.
pub(crate) fn write_prefix(w: &mut ColWriter, tag: u8) {
    w.byte(PAYLOAD_SCHEMA_BIN);
    w.byte(tag);
}

/// Check the two-byte payload prefix of a top-level accumulator.
pub(crate) fn read_prefix(r: &mut ColReader<'_>, tag: u8) -> Result<(), ColError> {
    let schema = r.byte()?;
    if schema != PAYLOAD_SCHEMA_BIN {
        return Err(r.invalid(format!(
            "payload schema byte {schema:#04x}, expected {PAYLOAD_SCHEMA_BIN:#04x}"
        )));
    }
    let found = r.byte()?;
    if found != tag {
        return Err(r.invalid(format!(
            "payload struct tag {:?}, expected {:?}",
            found as char, tag as char
        )));
    }
    Ok(())
}

impl WireState for crate::xrp_analysis::Funnel {
    fn encode_columns(&self, w: &mut ColWriter) {
        // Destructured so a new funnel stage cannot silently skip the wire.
        let crate::xrp_analysis::Funnel {
            total,
            failed,
            successful,
            payments,
            payments_with_value,
            payments_no_value,
            offers,
            offers_exchanged,
            offers_no_exchange,
            others,
        } = self;
        for v in [
            total,
            failed,
            successful,
            payments,
            payments_with_value,
            payments_no_value,
            offers,
            offers_exchanged,
            offers_no_exchange,
            others,
        ] {
            w.u64(*v);
        }
    }

    fn decode_columns(r: &mut ColReader<'_>) -> Result<Self, ColError> {
        Ok(crate::xrp_analysis::Funnel {
            total: r.u64()?,
            failed: r.u64()?,
            successful: r.u64()?,
            payments: r.u64()?,
            payments_with_value: r.u64()?,
            payments_no_value: r.u64()?,
            offers: r.u64()?,
            offers_exchanged: r.u64()?,
            offers_no_exchange: r.u64()?,
            others: r.u64()?,
        })
    }
}

/// Encode a `Period` as two zigzag varint instants.
pub(crate) fn write_period(w: &mut ColWriter, p: txstat_types::time::Period) {
    w.i64(p.start.0);
    w.i64(p.end.0);
}

pub(crate) fn read_period(r: &mut ColReader<'_>) -> Result<txstat_types::time::Period, ColError> {
    let start = txstat_types::time::ChainTime(r.i64()?);
    let end = txstat_types::time::ChainTime(r.i64()?);
    Ok(txstat_types::time::Period::new(start, end))
}

/// Encode a dense fixed-width row series (`Vec<[u64; N]>`).
pub(crate) fn write_rows<const N: usize>(w: &mut ColWriter, rows: &[[u64; N]]) {
    w.u64(rows.len() as u64);
    for row in rows {
        for v in row {
            w.u64(*v);
        }
    }
}

pub(crate) fn read_rows<const N: usize>(r: &mut ColReader<'_>) -> Result<Vec<[u64; N]>, ColError> {
    let n = r.len(N)?;
    let mut rows = Vec::with_capacity(n.min(RESERVE_CAP));
    for _ in 0..n {
        let mut row = [0u64; N];
        for v in &mut row {
            *v = r.u64()?;
        }
        rows.push(row);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn funnel_round_trips() {
        let f = crate::xrp_analysis::Funnel {
            total: 10,
            failed: 1,
            successful: 9,
            payments: 5,
            payments_with_value: 4,
            payments_no_value: 1,
            offers: 3,
            offers_exchanged: 2,
            offers_no_exchange: 1,
            others: 1,
        };
        let bytes = f.to_wire_bytes();
        let back = crate::xrp_analysis::Funnel::from_wire_bytes(&bytes).expect("valid");
        assert_eq!(back.total, f.total);
        assert_eq!(back.payments_with_value, f.payments_with_value);
        assert_eq!(back.others, f.others);
    }

    #[test]
    fn prefix_mismatch_is_typed() {
        let mut w = ColWriter::new();
        write_prefix(&mut w, TAG_EOS);
        let bytes = w.into_bytes();
        let mut r = ColReader::new(&bytes);
        assert!(matches!(
            read_prefix(&mut r, TAG_TEZOS),
            Err(ColError::Invalid { .. })
        ));
        let mut r = ColReader::new(&bytes);
        read_prefix(&mut r, TAG_EOS).expect("matching tag");
    }
}
