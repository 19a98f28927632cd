//! JSON wire model of the XRP `ledger` method (with expanded transactions),
//! the websocket surface the paper's crawler consumed (§3.1).
//!
//! Amounts follow the production convention: native XRP as a decimal string
//! of drops; issued amounts as `{currency, issuer, value}` objects. Each
//! transaction carries `metaData.TransactionResult`. Two simplifications
//! against the production API: escrows/channels are referenced by a numeric id
//! rather than (Owner, OfferSequence), and `metaData.crossed` distills the
//! AffectedNodes order-book analysis the paper performed on full metadata.
//!
//! A ledger has one encoder, [`ledger_bytes_into`], and one decoder,
//! [`ledger_from_json`] over a parsed `Value` ([`ledger_parse`] from bytes).

use crate::address::AccountId;
use crate::amount::{Amount, Asset, IssuedCurrency, IOU_DECIMALS, IOU_UNIT};
use crate::dex::OfferId;
use crate::ledger::LedgerBlock;
use crate::tx::{AppliedTx, Transaction, TxPayload, TxResult, TxType};
use serde_json::Value;
use txstat_types::amount::SymCode;
use txstat_types::time::ChainTime;
use txstat_types::{JsonOut, JsonWriter};

/// Parse an amount from the wire.
pub(crate) fn amount_from_json(v: &Value) -> Option<Amount> {
    match v {
        Value::String(s) => Some(Amount::xrp_drops(s.parse().ok()?)),
        Value::Object(m) => {
            let currency = SymCode::try_new(m.get("currency")?.as_str()?).ok()?;
            let issuer: AccountId = m.get("issuer")?.as_str()?.parse().ok()?;
            let value = parse_iou_decimal(m.get("value")?.as_str()?)?;
            Some(Amount {
                asset: Asset::Iou(IssuedCurrency { currency, issuer }),
                value,
            })
        }
        _ => None,
    }
}

/// Parse a decimal string into raw IOU units (6 decimals).
fn parse_iou_decimal(s: &str) -> Option<i128> {
    let neg = s.starts_with('-');
    let s = s.trim_start_matches('-');
    let (ip, fp) = match s.split_once('.') {
        Some((i, f)) => (i, f),
        None => (s, ""),
    };
    if fp.len() > IOU_DECIMALS as usize {
        return None;
    }
    let ip: i128 = if ip.is_empty() { 0 } else { ip.parse().ok()? };
    let mut frac: i128 = 0;
    if !fp.is_empty() {
        frac = fp.parse().ok()?;
        frac *= 10i128.pow(IOU_DECIMALS - fp.len() as u32);
    }
    let raw = ip * IOU_UNIT + frac;
    Some(if neg { -raw } else { raw })
}

/// Decode errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    MissingField(&'static str),
    BadField(&'static str),
    BadType(String),
    BadTimestamp(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::MissingField(s) => write!(f, "missing field {s}"),
            DecodeError::BadField(s) => write!(f, "bad field {s}"),
            DecodeError::BadType(t) => write!(f, "unknown TransactionType {t:?}"),
            DecodeError::BadTimestamp(t) => write!(f, "bad timestamp {t:?}"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn get_str<'a>(m: &'a Value, key: &'static str) -> Result<&'a str, DecodeError> {
    m.get(key)
        .and_then(Value::as_str)
        .ok_or(DecodeError::MissingField(key))
}

fn get_account(m: &Value, key: &'static str) -> Result<AccountId, DecodeError> {
    get_str(m, key)?
        .parse()
        .map_err(|_| DecodeError::BadField(key))
}

fn get_amount(m: &Value, key: &'static str) -> Result<Amount, DecodeError> {
    amount_from_json(m.get(key).ok_or(DecodeError::MissingField(key))?)
        .ok_or(DecodeError::BadField(key))
}

fn get_u64(m: &Value, key: &'static str) -> Result<u64, DecodeError> {
    m.get(key)
        .and_then(Value::as_u64)
        .ok_or(DecodeError::MissingField(key))
}

fn get_drops(m: &Value, key: &'static str) -> Result<i64, DecodeError> {
    get_str(m, key)?
        .parse()
        .map_err(|_| DecodeError::BadField(key))
}

fn get_time(m: &Value, key: &'static str) -> Result<ChainTime, DecodeError> {
    let s = get_str(m, key)?;
    ChainTime::parse_iso(s).ok_or_else(|| DecodeError::BadTimestamp(s.to_owned()))
}

fn tx_from_json(v: &Value) -> Result<AppliedTx, DecodeError> {
    let account = get_account(v, "Account")?;
    let type_str = get_str(v, "TransactionType")?;
    let tx_type =
        TxType::from_wire(type_str).ok_or_else(|| DecodeError::BadType(type_str.to_owned()))?;
    let fee_drops = get_drops(v, "Fee")?;
    let destination_tag = v
        .get("DestinationTag")
        .and_then(Value::as_u64)
        .map(|t| t as u32);

    let payload = match tx_type {
        TxType::Payment => TxPayload::Payment {
            destination: get_account(v, "Destination")?,
            amount: get_amount(v, "Amount")?,
            send_max: match v.get("SendMax") {
                Some(sm) => Some(amount_from_json(sm).ok_or(DecodeError::BadField("SendMax"))?),
                None => None,
            },
        },
        TxType::OfferCreate => TxPayload::OfferCreate {
            gets: get_amount(v, "TakerGets")?,
            pays: get_amount(v, "TakerPays")?,
        },
        TxType::OfferCancel => TxPayload::OfferCancel {
            offer: OfferId(get_u64(v, "OfferSequence")?),
        },
        TxType::TrustSet => {
            let la = v
                .get("LimitAmount")
                .ok_or(DecodeError::MissingField("LimitAmount"))?;
            let amt = amount_from_json(la).ok_or(DecodeError::BadField("LimitAmount"))?;
            match amt.asset {
                Asset::Iou(ic) => TxPayload::TrustSet {
                    currency: ic,
                    limit: amt.value,
                },
                Asset::Xrp => return Err(DecodeError::BadField("LimitAmount")),
            }
        }
        TxType::AccountSet => TxPayload::AccountSet {
            flags: v.get("SetFlag").and_then(Value::as_u64).unwrap_or(0) as u32,
        },
        TxType::SignerListSet => TxPayload::SignerListSet {
            quorum: get_u64(v, "SignerQuorum")? as u8,
            signer_count: get_u64(v, "SignerCount")? as u8,
        },
        TxType::SetRegularKey => TxPayload::SetRegularKey,
        TxType::EscrowCreate => TxPayload::EscrowCreate {
            destination: get_account(v, "Destination")?,
            drops: get_drops(v, "Amount")?,
            finish_after: get_time(v, "FinishAfter")?,
            cancel_after: match v.get("CancelAfter") {
                Some(_) => Some(get_time(v, "CancelAfter")?),
                None => None,
            },
        },
        TxType::EscrowFinish => TxPayload::EscrowFinish {
            escrow_id: get_u64(v, "EscrowId")?,
        },
        TxType::EscrowCancel => TxPayload::EscrowCancel {
            escrow_id: get_u64(v, "EscrowId")?,
        },
        TxType::PaymentChannelCreate => TxPayload::PaymentChannelCreate {
            destination: get_account(v, "Destination")?,
            drops: get_drops(v, "Amount")?,
        },
        TxType::PaymentChannelClaim => TxPayload::PaymentChannelClaim {
            channel_id: get_u64(v, "Channel")?,
            drops: get_drops(v, "Balance")?,
        },
        TxType::EnableAmendment => TxPayload::EnableAmendment {
            amendment: get_str(v, "Amendment")?.to_owned(),
        },
    };

    let meta = v
        .get("metaData")
        .ok_or(DecodeError::MissingField("metaData"))?;
    let result = TxResult::from_wire(get_str(meta, "TransactionResult")?)
        .ok_or(DecodeError::BadField("TransactionResult"))?;
    let delivered = match meta.get("delivered_amount") {
        Some(d) => Some(amount_from_json(d).ok_or(DecodeError::BadField("delivered_amount"))?),
        None => None,
    };
    let crossed = meta
        .get("crossed")
        .and_then(Value::as_bool)
        .unwrap_or(false);

    let mut tx = Transaction::new(account, payload, fee_drops);
    tx.destination_tag = destination_tag;
    Ok(AppliedTx {
        tx,
        result,
        delivered,
        crossed,
    })
}

/// Parse a `ledger` response back (crawler side).
pub fn ledger_from_json(v: &Value) -> Result<LedgerBlock, DecodeError> {
    let ledger = v.get("ledger").ok_or(DecodeError::MissingField("ledger"))?;
    let index = get_u64(ledger, "ledger_index")?;
    let close_time = get_time(ledger, "close_time_iso")?;
    let txs = ledger
        .get("transactions")
        .and_then(Value::as_array)
        .ok_or(DecodeError::MissingField("transactions"))?;
    let mut transactions = Vec::with_capacity(txs.len());
    for t in txs {
        transactions.push(tx_from_json(t)?);
    }
    Ok(LedgerBlock {
        index,
        close_time,
        transactions,
    })
}

/// Append an IOU amount object (`LimitAmount` shares the shape).
fn write_iou<O: JsonOut>(w: &mut JsonWriter<'_, O>, ic: &IssuedCurrency, value: i128) {
    w.raw("{\"currency\":")
        .str(ic.currency.as_str())
        .raw(",\"issuer\":")
        .ident(ic.issuer);
    w.raw(",\"value\":\"")
        .scaled(value, IOU_DECIMALS)
        .raw("\"}");
}

/// Append an amount: native XRP as a drops string, an issued amount as
/// an IOU object. [`amount_from_json`] reads either back.
fn write_amount<O: JsonOut>(w: &mut JsonWriter<'_, O>, a: &Amount) {
    match &a.asset {
        Asset::Xrp => {
            w.raw("\"").scaled(a.value, 0).raw("\"");
        }
        Asset::Iou(ic) => write_iou(w, ic, a.value),
    }
}

/// Append one applied transaction: the common fields, the fields its
/// type carries, then `metaData`. `tx_from_json` reads them back.
fn write_tx<O: JsonOut>(w: &mut JsonWriter<'_, O>, applied: &AppliedTx) {
    let tx = &applied.tx;
    w.raw("{\"Account\":").ident(tx.account);
    w.raw(",\"TransactionType\":").quoted(tx.tx_type().wire());
    w.raw(",\"Fee\":\"").int(tx.fee_drops).raw("\"");
    if let Some(tag) = tx.destination_tag {
        w.raw(",\"DestinationTag\":").uint(tag);
    }
    match &tx.payload {
        TxPayload::Payment {
            destination,
            amount,
            send_max,
        } => {
            w.raw(",\"Destination\":")
                .ident(*destination)
                .raw(",\"Amount\":");
            write_amount(w, amount);
            if let Some(sm) = send_max {
                w.raw(",\"SendMax\":");
                write_amount(w, sm);
            }
        }
        TxPayload::OfferCreate { gets, pays } => {
            w.raw(",\"TakerGets\":");
            write_amount(w, gets);
            w.raw(",\"TakerPays\":");
            write_amount(w, pays);
        }
        TxPayload::OfferCancel { offer } => {
            w.raw(",\"OfferSequence\":").uint(offer.0);
        }
        TxPayload::TrustSet { currency, limit } => {
            w.raw(",\"LimitAmount\":");
            write_iou(w, currency, *limit);
        }
        TxPayload::AccountSet { flags } => {
            w.raw(",\"SetFlag\":").uint(*flags);
        }
        TxPayload::SignerListSet {
            quorum,
            signer_count,
        } => {
            w.raw(",\"SignerQuorum\":").uint(*quorum);
            w.raw(",\"SignerCount\":").uint(*signer_count);
        }
        TxPayload::SetRegularKey => {}
        TxPayload::EscrowCreate {
            destination,
            drops,
            finish_after,
            cancel_after,
        } => {
            w.raw(",\"Destination\":").ident(*destination);
            w.raw(",\"Amount\":\"")
                .int(*drops)
                .raw("\",\"FinishAfter\":")
                .iso(*finish_after);
            if let Some(ca) = cancel_after {
                w.raw(",\"CancelAfter\":").iso(*ca);
            }
        }
        TxPayload::EscrowFinish { escrow_id } | TxPayload::EscrowCancel { escrow_id } => {
            w.raw(",\"EscrowId\":").uint(*escrow_id);
        }
        TxPayload::PaymentChannelCreate { destination, drops } => {
            w.raw(",\"Destination\":").ident(*destination);
            w.raw(",\"Amount\":\"").int(*drops).raw("\"");
        }
        TxPayload::PaymentChannelClaim { channel_id, drops } => {
            w.raw(",\"Channel\":").uint(*channel_id);
            w.raw(",\"Balance\":\"").int(*drops).raw("\"");
        }
        TxPayload::EnableAmendment { amendment } => {
            w.raw(",\"Amendment\":").str(amendment);
        }
    }
    w.raw(",\"metaData\":{\"TransactionResult\":")
        .quoted(applied.result.wire());
    if let Some(d) = &applied.delivered {
        w.raw(",\"delivered_amount\":");
        write_amount(w, d);
    }
    w.raw(if applied.crossed {
        ",\"crossed\":true}}"
    } else {
        "}}"
    });
}

/// Append the canonical wire bytes of one closed ledger to `out` (or, into
/// a [`txstat_types::JsonLen`], count them): the compact `ledger` method
/// result with expanded transactions, written straight from the chain
/// model. The simulated endpoint's `ledger` frames, crawl replay, wire-JSON
/// archive segments, reorg content hashes and the Figure 2 storage sweep
/// all share this one writer.
pub fn ledger_bytes_into(b: &LedgerBlock, out: &mut impl JsonOut) {
    let w = &mut JsonWriter::new(out);
    w.raw("{\"ledger\":{\"ledger_index\":").uint(b.index);
    w.raw(",\"close_time_iso\":")
        .iso(b.close_time)
        .raw(",\"closed\":true,\"transactions\":");
    w.array(&b.transactions, write_tx)
        .raw("},\"validated\":true}");
}

/// [`ledger_bytes_into`] a fresh buffer.
pub fn ledger_bytes(b: &LedgerBlock) -> Vec<u8> {
    let mut out = Vec::new();
    ledger_bytes_into(b, &mut out);
    out
}

/// Inverse of [`ledger_bytes`].
pub fn ledger_parse(bytes: &[u8]) -> Result<LedgerBlock, String> {
    let v: Value = serde_json::from_slice(bytes).map_err(|e| format!("xrp wire ledger: {e}"))?;
    ledger_from_json(&v).map_err(|e| format!("xrp wire ledger: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn amount_json(a: &Amount) -> Value {
        let mut bytes = Vec::new();
        write_amount(&mut JsonWriter::new(&mut bytes), a);
        serde_json::from_slice(&bytes).unwrap()
    }

    fn applied(tx: Transaction, result: TxResult) -> AppliedTx {
        AppliedTx {
            tx,
            result,
            delivered: None,
            crossed: false,
        }
    }

    #[test]
    fn amount_json_roundtrip() {
        let x = Amount::xrp_drops(123_456);
        assert_eq!(amount_from_json(&amount_json(&x)).unwrap(), x);
        let u = Amount::iou("USD", AccountId(7), 1_234_560);
        let j = amount_json(&u);
        assert_eq!(j["value"], "1.234560");
        assert_eq!(amount_from_json(&j).unwrap(), u);
    }

    #[test]
    fn iou_decimal_parsing() {
        assert_eq!(parse_iou_decimal("1.5"), Some(1_500_000));
        assert_eq!(parse_iou_decimal("0.000001"), Some(1));
        assert_eq!(parse_iou_decimal("-2"), Some(-2_000_000));
        assert_eq!(parse_iou_decimal("1.0000001"), None, "too many decimals");
        assert_eq!(parse_iou_decimal("abc"), None);
    }

    #[test]
    fn full_ledger_roundtrip() {
        let issuer = AccountId(7);
        let block = LedgerBlock {
            index: 50_400_777,
            close_time: ChainTime::from_ymd_hms(2019, 11, 2, 3, 4, 5),
            transactions: vec![
                applied(
                    Transaction::new(
                        AccountId(1),
                        TxPayload::Payment {
                            destination: AccountId(2),
                            amount: Amount::xrp(100),
                            send_max: None,
                        },
                        10,
                    )
                    .with_tag(104_398),
                    TxResult::Success,
                ),
                applied(
                    Transaction::new(
                        AccountId(3),
                        TxPayload::OfferCreate {
                            gets: Amount::iou_whole("CNY", issuer, 1000),
                            pays: Amount::xrp(200),
                        },
                        10,
                    ),
                    TxResult::UnfundedOffer,
                ),
                applied(
                    Transaction::new(
                        AccountId(4),
                        TxPayload::TrustSet {
                            currency: IssuedCurrency::new("BTC", issuer),
                            limit: 5 * IOU_UNIT,
                        },
                        10,
                    ),
                    TxResult::Success,
                ),
                applied(
                    Transaction::new(
                        AccountId(5),
                        TxPayload::Payment {
                            destination: AccountId(6),
                            amount: Amount::iou_whole("BTC", issuer, 2),
                            send_max: Some(Amount::xrp(70_000)),
                        },
                        10,
                    ),
                    TxResult::PathDry,
                ),
                applied(
                    Transaction::new(
                        AccountId(8),
                        TxPayload::EscrowCreate {
                            destination: AccountId(9),
                            drops: 1_000_000_000,
                            finish_after: ChainTime::from_ymd(2019, 12, 1),
                            cancel_after: Some(ChainTime::from_ymd(2020, 1, 1)),
                        },
                        10,
                    ),
                    TxResult::Success,
                ),
            ],
        };
        let back = ledger_parse(&ledger_bytes(&block)).unwrap();
        assert_eq!(back.index, block.index);
        assert_eq!(back.close_time, block.close_time);
        assert_eq!(back.transactions, block.transactions);
    }

    #[test]
    fn delivered_amount_and_crossed_survive() {
        let block = LedgerBlock {
            index: 1,
            close_time: ChainTime::from_ymd(2019, 10, 1),
            transactions: vec![AppliedTx {
                tx: Transaction::new(
                    AccountId(1),
                    TxPayload::OfferCreate {
                        gets: Amount::xrp(5),
                        pays: Amount::iou_whole("USD", AccountId(9), 1),
                    },
                    10,
                ),
                result: TxResult::Success,
                delivered: Some(Amount::xrp(5)),
                crossed: true,
            }],
        };
        let back = ledger_parse(&ledger_bytes(&block)).unwrap();
        assert!(back.transactions[0].crossed);
        assert_eq!(back.transactions[0].delivered, Some(Amount::xrp(5)));
    }

    #[test]
    fn wire_uses_production_conventions() {
        let block = LedgerBlock {
            index: 1,
            close_time: ChainTime::from_ymd(2019, 10, 1),
            transactions: vec![applied(
                Transaction::new(
                    AccountId(1),
                    TxPayload::Payment {
                        destination: AccountId(2),
                        amount: Amount::xrp(1),
                        send_max: None,
                    },
                    10,
                ),
                TxResult::Success,
            )],
        };
        let text = String::from_utf8(ledger_bytes(&block)).unwrap();
        assert!(
            text.contains("\"Amount\":\"1000000\""),
            "drops as string: {text}"
        );
        assert!(text.contains("tesSUCCESS"));
        assert!(text.contains("\"TransactionType\":\"Payment\""));
    }

    #[test]
    fn rejects_unknown_type() {
        let v = json!({"ledger": {"ledger_index": 1, "close_time_iso": "2019-10-01T00:00:00",
            "transactions": [{"Account": AccountId(1).to_string(), "TransactionType": "Mystery",
                              "Fee": "10", "metaData": {"TransactionResult": "tesSUCCESS"}}]}});
        assert!(matches!(ledger_from_json(&v), Err(DecodeError::BadType(_))));
    }
}
