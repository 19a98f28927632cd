//! Columnar ledger codec — archive segment payload schema v2.
//!
//! Encodes a run of closed XRP ledgers as struct-of-arrays columns over
//! [`txstat_types::colcodec`]: an interned account table (via [`ColKey`]),
//! an interned issued-currency table (ticker + issuer ref), then per-ledger
//! header columns and a flattened applied-transaction stream. Canonical
//! LEB128/zigzag throughout; decoding is strict and typed — every failure
//! is a [`ColError`] with a byte offset, never a panic.
//!
//! The XRP wire-JSON round trip is struct-exact, so the decode of an encode
//! equals `ledger_parse(&ledger_bytes(b))` with no normalization step.

use crate::address::AccountId;
use crate::amount::{Amount, Asset, IssuedCurrency};
use crate::dex::OfferId;
use crate::ledger::LedgerBlock;
use crate::tx::{AppliedTx, Transaction, TxPayload, TxResult};
use std::collections::HashMap;
use txstat_types::amount::SymCode;
use txstat_types::colcodec::{ColError, ColKey, ColReader, ColWriter};
use txstat_types::time::ChainTime;

/// Leading schema tag of an XRP column blob.
const SCHEMA_TAG: u8 = 1;

/// Payload tags (order fixed by the on-disk format).
const P_PAYMENT: u8 = 0;
const P_OFFER_CREATE: u8 = 1;
const P_OFFER_CANCEL: u8 = 2;
const P_TRUST_SET: u8 = 3;
const P_ACCOUNT_SET: u8 = 4;
const P_SIGNER_LIST_SET: u8 = 5;
const P_SET_REGULAR_KEY: u8 = 6;
const P_ESCROW_CREATE: u8 = 7;
const P_ESCROW_FINISH: u8 = 8;
const P_ESCROW_CANCEL: u8 = 9;
const P_PAYCHAN_CREATE: u8 = 10;
const P_PAYCHAN_CLAIM: u8 = 11;
const P_ENABLE_AMENDMENT: u8 = 12;

/// Amount tags.
const AMT_XRP: u8 = 0;
const AMT_IOU: u8 = 1;

fn result_tag(r: TxResult) -> u8 {
    match r {
        TxResult::Success => 0,
        TxResult::PathDry => 1,
        TxResult::UnfundedOffer => 2,
        TxResult::UnfundedPayment => 3,
        TxResult::NoDestination => 4,
        TxResult::NoLine => 5,
        TxResult::NoPermission => 6,
        TxResult::NoEntry => 7,
        TxResult::Malformed => 8,
    }
}

fn result_from_tag(r: &ColReader<'_>, tag: u8) -> Result<TxResult, ColError> {
    Ok(match tag {
        0 => TxResult::Success,
        1 => TxResult::PathDry,
        2 => TxResult::UnfundedOffer,
        3 => TxResult::UnfundedPayment,
        4 => TxResult::NoDestination,
        5 => TxResult::NoLine,
        6 => TxResult::NoPermission,
        7 => TxResult::NoEntry,
        8 => TxResult::Malformed,
        other => return Err(r.invalid(format!("bad tx result tag {other}"))),
    })
}

#[derive(Default)]
struct Tables {
    accounts: Vec<AccountId>,
    account_ids: HashMap<AccountId, u32>,
    currencies: Vec<IssuedCurrency>,
    currency_ids: HashMap<IssuedCurrency, u32>,
}

impl Tables {
    fn account(&mut self, a: AccountId) -> u32 {
        *self.account_ids.entry(a).or_insert_with(|| {
            self.accounts.push(a);
            (self.accounts.len() - 1) as u32
        })
    }

    fn currency(&mut self, c: IssuedCurrency) -> u32 {
        if let Some(&i) = self.currency_ids.get(&c) {
            return i;
        }
        // Issuers must be interned before the currency table is emitted.
        self.account(c.issuer);
        let i = self.currencies.len() as u32;
        self.currencies.push(c);
        self.currency_ids.insert(c, i);
        i
    }
}

fn encode_amount(w: &mut ColWriter, t: &mut Tables, a: &Amount) {
    match a.asset {
        Asset::Xrp => w.byte(AMT_XRP),
        Asset::Iou(ic) => {
            w.byte(AMT_IOU);
            w.u32(t.currency(ic));
        }
    }
    w.i128(a.value);
}

fn encode_opt_amount(w: &mut ColWriter, t: &mut Tables, a: &Option<Amount>) {
    match a {
        Some(a) => {
            w.byte(1);
            encode_amount(w, t, a);
        }
        None => w.byte(0),
    }
}

fn encode_payload(w: &mut ColWriter, t: &mut Tables, p: &TxPayload) {
    match p {
        TxPayload::Payment {
            destination,
            amount,
            send_max,
        } => {
            w.byte(P_PAYMENT);
            w.u32(t.account(*destination));
            encode_amount(w, t, amount);
            encode_opt_amount(w, t, send_max);
        }
        TxPayload::OfferCreate { gets, pays } => {
            w.byte(P_OFFER_CREATE);
            encode_amount(w, t, gets);
            encode_amount(w, t, pays);
        }
        TxPayload::OfferCancel { offer } => {
            w.byte(P_OFFER_CANCEL);
            w.u64(offer.0);
        }
        TxPayload::TrustSet { currency, limit } => {
            w.byte(P_TRUST_SET);
            w.u32(t.currency(*currency));
            w.i128(*limit);
        }
        TxPayload::AccountSet { flags } => {
            w.byte(P_ACCOUNT_SET);
            w.u32(*flags);
        }
        TxPayload::SignerListSet {
            quorum,
            signer_count,
        } => {
            w.byte(P_SIGNER_LIST_SET);
            w.byte(*quorum);
            w.byte(*signer_count);
        }
        TxPayload::SetRegularKey => w.byte(P_SET_REGULAR_KEY),
        TxPayload::EscrowCreate {
            destination,
            drops,
            finish_after,
            cancel_after,
        } => {
            w.byte(P_ESCROW_CREATE);
            w.u32(t.account(*destination));
            w.i64(*drops);
            w.i64(finish_after.0);
            match cancel_after {
                Some(c) => {
                    w.byte(1);
                    w.i64(c.0);
                }
                None => w.byte(0),
            }
        }
        TxPayload::EscrowFinish { escrow_id } => {
            w.byte(P_ESCROW_FINISH);
            w.u64(*escrow_id);
        }
        TxPayload::EscrowCancel { escrow_id } => {
            w.byte(P_ESCROW_CANCEL);
            w.u64(*escrow_id);
        }
        TxPayload::PaymentChannelCreate { destination, drops } => {
            w.byte(P_PAYCHAN_CREATE);
            w.u32(t.account(*destination));
            w.i64(*drops);
        }
        TxPayload::PaymentChannelClaim { channel_id, drops } => {
            w.byte(P_PAYCHAN_CLAIM);
            w.u64(*channel_id);
            w.i64(*drops);
        }
        TxPayload::EnableAmendment { amendment } => {
            w.byte(P_ENABLE_AMENDMENT);
            w.str(amendment);
        }
    }
}

/// Encode a contiguous run of closed ledgers into one column blob.
pub fn encode_blocks(blocks: &[LedgerBlock]) -> Vec<u8> {
    let mut t = Tables::default();
    let mut body = ColWriter::with_capacity(blocks.len() * 64);
    body.u64(blocks.len() as u64);
    for b in blocks {
        body.u64(b.index);
        body.i64(b.close_time.0);
        body.u64(b.transactions.len() as u64);
        for applied in &b.transactions {
            let tx = &applied.tx;
            body.u32(t.account(tx.account));
            body.i64(tx.fee_drops);
            match tx.destination_tag {
                Some(tag) => {
                    body.byte(1);
                    body.u32(tag);
                }
                None => body.byte(0),
            }
            encode_payload(&mut body, &mut t, &tx.payload);
            body.byte(result_tag(applied.result));
            encode_opt_amount(&mut body, &mut t, &applied.delivered);
            body.byte(u8::from(applied.crossed));
        }
    }
    let body = body.into_bytes();
    let mut w = ColWriter::with_capacity(16 + t.accounts.len() * 4 + body.len());
    w.byte(SCHEMA_TAG);
    w.u64(t.accounts.len() as u64);
    for a in &t.accounts {
        a.encode_key(&mut w);
    }
    w.u64(t.currencies.len() as u64);
    for c in &t.currencies {
        w.str(c.currency.as_str());
        // Issuer as a ref into the account table (always interned first).
        w.u32(*t.account_ids.get(&c.issuer).expect("issuer interned"));
    }
    let mut out = w.into_bytes();
    out.extend_from_slice(&body);
    out
}

fn read_account(r: &mut ColReader<'_>, accounts: &[AccountId]) -> Result<AccountId, ColError> {
    let i = r.u32()? as usize;
    accounts.get(i).copied().ok_or_else(|| {
        r.invalid(format!(
            "account ref {i} out of table (len {})",
            accounts.len()
        ))
    })
}

fn read_currency(
    r: &mut ColReader<'_>,
    currencies: &[IssuedCurrency],
) -> Result<IssuedCurrency, ColError> {
    let i = r.u32()? as usize;
    currencies.get(i).copied().ok_or_else(|| {
        r.invalid(format!(
            "currency ref {i} out of table (len {})",
            currencies.len()
        ))
    })
}

fn decode_amount(r: &mut ColReader<'_>, currencies: &[IssuedCurrency]) -> Result<Amount, ColError> {
    let asset = match r.byte()? {
        AMT_XRP => Asset::Xrp,
        AMT_IOU => Asset::Iou(read_currency(r, currencies)?),
        other => return Err(r.invalid(format!("bad amount tag {other}"))),
    };
    Ok(Amount {
        asset,
        value: r.i128()?,
    })
}

fn decode_opt_amount(
    r: &mut ColReader<'_>,
    currencies: &[IssuedCurrency],
) -> Result<Option<Amount>, ColError> {
    match r.byte()? {
        0 => Ok(None),
        1 => Ok(Some(decode_amount(r, currencies)?)),
        other => Err(r.invalid(format!("bad optional-amount presence byte {other}"))),
    }
}

fn decode_payload(
    r: &mut ColReader<'_>,
    accounts: &[AccountId],
    currencies: &[IssuedCurrency],
) -> Result<TxPayload, ColError> {
    let tag = r.byte()?;
    Ok(match tag {
        P_PAYMENT => TxPayload::Payment {
            destination: read_account(r, accounts)?,
            amount: decode_amount(r, currencies)?,
            send_max: decode_opt_amount(r, currencies)?,
        },
        P_OFFER_CREATE => TxPayload::OfferCreate {
            gets: decode_amount(r, currencies)?,
            pays: decode_amount(r, currencies)?,
        },
        P_OFFER_CANCEL => TxPayload::OfferCancel {
            offer: OfferId(r.u64()?),
        },
        P_TRUST_SET => TxPayload::TrustSet {
            currency: read_currency(r, currencies)?,
            limit: r.i128()?,
        },
        P_ACCOUNT_SET => TxPayload::AccountSet { flags: r.u32()? },
        P_SIGNER_LIST_SET => TxPayload::SignerListSet {
            quorum: r.byte()?,
            signer_count: r.byte()?,
        },
        P_SET_REGULAR_KEY => TxPayload::SetRegularKey,
        P_ESCROW_CREATE => TxPayload::EscrowCreate {
            destination: read_account(r, accounts)?,
            drops: r.i64()?,
            finish_after: ChainTime(r.i64()?),
            cancel_after: match r.byte()? {
                0 => None,
                1 => Some(ChainTime(r.i64()?)),
                other => return Err(r.invalid(format!("bad cancel_after presence byte {other}"))),
            },
        },
        P_ESCROW_FINISH => TxPayload::EscrowFinish {
            escrow_id: r.u64()?,
        },
        P_ESCROW_CANCEL => TxPayload::EscrowCancel {
            escrow_id: r.u64()?,
        },
        P_PAYCHAN_CREATE => TxPayload::PaymentChannelCreate {
            destination: read_account(r, accounts)?,
            drops: r.i64()?,
        },
        P_PAYCHAN_CLAIM => TxPayload::PaymentChannelClaim {
            channel_id: r.u64()?,
            drops: r.i64()?,
        },
        P_ENABLE_AMENDMENT => TxPayload::EnableAmendment {
            amendment: r.str()?.to_owned(),
        },
        other => return Err(r.invalid(format!("bad tx payload tag {other}"))),
    })
}

/// Decode a column blob back into closed ledgers. Strict and typed
/// throughout — all table refs bounds-checked.
pub fn decode_blocks(bytes: &[u8]) -> Result<Vec<LedgerBlock>, ColError> {
    let mut r = ColReader::new(bytes);
    let tag = r.byte()?;
    if tag != SCHEMA_TAG {
        return Err(r.invalid(format!(
            "bad xrp column schema tag {tag} (want {SCHEMA_TAG})"
        )));
    }
    let mut accounts = Vec::new();
    for _ in 0..r.len(1)? {
        accounts.push(AccountId::decode_key(&mut r)?);
    }
    let mut currencies = Vec::new();
    for _ in 0..r.len(2)? {
        let sym = r.str()?.to_owned();
        let currency =
            SymCode::try_new(&sym).map_err(|e| r.invalid(format!("currency table: {e}")))?;
        let issuer = read_account(&mut r, &accounts)?;
        currencies.push(IssuedCurrency { currency, issuer });
    }
    let mut blocks = Vec::new();
    for _ in 0..r.len(3)? {
        let index = r.u64()?;
        let close_time = ChainTime(r.i64()?);
        let mut transactions = Vec::new();
        for _ in 0..r.len(4)? {
            let account = read_account(&mut r, &accounts)?;
            let fee_drops = r.i64()?;
            let destination_tag = match r.byte()? {
                0 => None,
                1 => Some(r.u32()?),
                other => {
                    return Err(r.invalid(format!("bad destination_tag presence byte {other}")))
                }
            };
            let payload = decode_payload(&mut r, &accounts, &currencies)?;
            let result_byte = r.byte()?;
            let result = result_from_tag(&r, result_byte)?;
            let delivered = decode_opt_amount(&mut r, &currencies)?;
            let crossed = match r.byte()? {
                0 => false,
                1 => true,
                other => return Err(r.invalid(format!("bad crossed byte {other}"))),
            };
            transactions.push(AppliedTx {
                tx: Transaction {
                    account,
                    payload,
                    fee_drops,
                    destination_tag,
                },
                result,
                delivered,
                crossed,
            });
        }
        blocks.push(LedgerBlock {
            index,
            close_time,
            transactions,
        });
    }
    r.finish()?;
    Ok(blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpc_model::{ledger_bytes, ledger_parse};

    fn sample() -> Vec<LedgerBlock> {
        let alice = AccountId(1);
        let bob = AccountId(2);
        let gate = AccountId(3);
        vec![LedgerBlock {
            index: 50_000_000,
            close_time: ChainTime::from_ymd_hms(2019, 10, 1, 8, 30, 0),
            transactions: vec![
                AppliedTx {
                    tx: Transaction::new(
                        alice,
                        TxPayload::Payment {
                            destination: bob,
                            amount: Amount::xrp_drops(2_000_000),
                            send_max: Some(Amount::iou("USD", gate, 2_100_000)),
                        },
                        10,
                    )
                    .with_tag(104_398),
                    result: TxResult::Success,
                    delivered: Some(Amount::xrp_drops(2_000_000)),
                    crossed: false,
                },
                AppliedTx {
                    tx: Transaction::new(
                        bob,
                        TxPayload::OfferCreate {
                            gets: Amount::iou("USD", gate, 5_000_000),
                            pays: Amount::xrp_drops(4_800_000),
                        },
                        12,
                    ),
                    result: TxResult::UnfundedOffer,
                    delivered: None,
                    crossed: true,
                },
                AppliedTx {
                    tx: Transaction::new(
                        alice,
                        TxPayload::TrustSet {
                            currency: IssuedCurrency::new("USD", gate),
                            limit: 1_000_000_000,
                        },
                        10,
                    ),
                    result: TxResult::Success,
                    delivered: None,
                    crossed: false,
                },
                AppliedTx {
                    tx: Transaction::new(
                        bob,
                        TxPayload::EscrowCreate {
                            destination: alice,
                            drops: 9_000_000,
                            finish_after: ChainTime::from_ymd_hms(2019, 10, 2, 0, 0, 0),
                            cancel_after: Some(ChainTime::from_ymd_hms(2019, 10, 3, 0, 0, 0)),
                        },
                        10,
                    ),
                    result: TxResult::NoPermission,
                    delivered: None,
                    crossed: false,
                },
                AppliedTx {
                    tx: Transaction::new(gate, TxPayload::SetRegularKey, 10),
                    result: TxResult::Success,
                    delivered: None,
                    crossed: false,
                },
                AppliedTx {
                    tx: Transaction::new(
                        gate,
                        TxPayload::EnableAmendment {
                            amendment: "MultiSignReserve".into(),
                        },
                        0,
                    ),
                    result: TxResult::Success,
                    delivered: None,
                    crossed: false,
                },
            ],
        }]
    }

    fn assert_blocks_eq(a: &[LedgerBlock], b: &[LedgerBlock]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.index, y.index);
            assert_eq!(x.close_time, y.close_time);
            assert_eq!(x.transactions, y.transactions);
        }
    }

    #[test]
    fn roundtrip_matches_wire_json_oracle() {
        let blocks = sample();
        let bytes = encode_blocks(&blocks);
        let decoded = decode_blocks(&bytes).unwrap();
        let oracle: Vec<LedgerBlock> = blocks
            .iter()
            .map(|b| ledger_parse(&ledger_bytes(b)).unwrap())
            .collect();
        assert_blocks_eq(&decoded, &oracle);
        assert_eq!(encode_blocks(&decoded), bytes);
    }

    #[test]
    fn truncation_and_damage_are_typed() {
        let bytes = encode_blocks(&sample());
        for cut in 0..bytes.len() {
            assert!(
                decode_blocks(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(matches!(decode_blocks(&bad), Err(ColError::Invalid { .. })));
    }

    #[test]
    fn empty_run_roundtrips() {
        let bytes = encode_blocks(&[]);
        assert!(decode_blocks(&bytes).unwrap().is_empty());
    }
}
