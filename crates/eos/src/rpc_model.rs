//! JSON wire model of the EOS node RPC block reply (`/v1/chain/get_block`)
//! — the surface the paper's crawler consumed (§3.1).
//!
//! The shapes mirror nodeos responses closely enough that the crawler-side
//! parser faces the same structure (wrapped `trx`, asset strings like
//! `"1.0000 EOS"`, ISO timestamps). A block has one encoder,
//! [`block_bytes_into`], and one decoder, [`block_parse`], which reads the
//! `Deserialize`-only models below.

use crate::name::Name;
use crate::types::{Action, ActionData, AssetRaw, Block, Transaction};
use serde::Deserialize;
use serde_json::Value;
use txstat_types::amount::SymCode;
use txstat_types::time::ChainTime;
use txstat_types::{JsonOut, JsonWriter};

/// Parse an EOS asset string back to `(amount, symbol)`.
pub(crate) fn parse_asset(s: &str) -> Option<(AssetRaw, SymCode)> {
    let (num, sym) = s.split_once(' ')?;
    let symbol = SymCode::try_new(sym).ok()?;
    let neg = num.starts_with('-');
    let num = num.trim_start_matches('-');
    let (ip, fp) = num.split_once('.')?;
    if fp.len() != 4 {
        return None;
    }
    let ip: u64 = ip.parse().ok()?;
    let fp: u64 = fp.parse().ok()?;
    let raw = (ip * 10_000 + fp) as i64;
    Some((if neg { -raw } else { raw }, symbol))
}

#[derive(Debug, Deserialize)]
pub(crate) struct AuthJson {
    pub actor: String,
}

#[derive(Debug, Deserialize)]
pub(crate) struct ActionJson {
    pub account: String,
    pub name: String,
    pub authorization: Vec<AuthJson>,
    pub data: Value,
}

#[derive(Debug, Deserialize)]
pub(crate) struct TxBodyJson {
    pub actions: Vec<ActionJson>,
}

#[derive(Debug, Deserialize)]
pub(crate) struct TrxJson {
    pub id: String,
    pub transaction: TxBodyJson,
}

#[derive(Debug, Deserialize)]
pub(crate) struct TxWrapperJson {
    pub cpu_usage_us: u32,
    pub net_usage_words: u32,
    pub trx: TrxJson,
}

#[derive(Debug, Deserialize)]
pub(crate) struct BlockJson {
    pub block_num: u64,
    pub timestamp: String,
    pub producer: String,
    pub(crate) transactions: Vec<TxWrapperJson>,
}

fn name_field(v: &Value, key: &str) -> Option<Name> {
    Name::parse(v.get(key)?.as_str()?).ok()
}

fn asset_field(v: &Value, key: &str) -> Option<(AssetRaw, SymCode)> {
    parse_asset(v.get(key)?.as_str()?)
}

/// Reconstruct structured action data from the wire JSON. Unknown shapes
/// degrade to `Generic` — exactly how the paper treats "user-defined"
/// actions it cannot interpret.
pub(crate) fn action_data_from_json(action_name: &str, v: &Value) -> ActionData {
    match action_name {
        "transfer" => {
            if let (Some(from), Some(to), Some((amount, symbol))) = (
                name_field(v, "from"),
                name_field(v, "to"),
                asset_field(v, "quantity"),
            ) {
                return ActionData::Transfer { from, to, symbol, amount };
            }
            ActionData::Generic
        }
        "verifytrade2" | "trade" => {
            if let (Some(buyer), Some(seller), Some((ba, bs)), Some((qa, qs))) = (
                name_field(v, "buyer"),
                name_field(v, "seller"),
                asset_field(v, "base"),
                asset_field(v, "quote"),
            ) {
                return ActionData::Trade {
                    buyer,
                    seller,
                    base_symbol: bs,
                    base_amount: ba,
                    quote_symbol: qs,
                    quote_amount: qa,
                };
            }
            ActionData::Generic
        }
        "newaccount" => {
            if let (Some(creator), Some(name)) = (name_field(v, "creator"), name_field(v, "name")) {
                return ActionData::NewAccount { creator, name };
            }
            ActionData::Generic
        }
        "delegatebw" => {
            if let (Some(from), Some(receiver), Some((net, _)), Some((cpu, _))) = (
                name_field(v, "from"),
                name_field(v, "receiver"),
                asset_field(v, "stake_net_quantity"),
                asset_field(v, "stake_cpu_quantity"),
            ) {
                return ActionData::DelegateBw { from, receiver, net, cpu };
            }
            ActionData::Generic
        }
        "undelegatebw" => {
            if let (Some(from), Some(receiver), Some((net, _)), Some((cpu, _))) = (
                name_field(v, "from"),
                name_field(v, "receiver"),
                asset_field(v, "unstake_net_quantity"),
                asset_field(v, "unstake_cpu_quantity"),
            ) {
                return ActionData::UndelegateBw { from, receiver, net, cpu };
            }
            ActionData::Generic
        }
        "buyram" => {
            if let (Some(payer), Some(receiver), Some((quant, _))) = (
                name_field(v, "payer"),
                name_field(v, "receiver"),
                asset_field(v, "quant"),
            ) {
                return ActionData::BuyRam { payer, receiver, quant };
            }
            ActionData::Generic
        }
        "buyrambytes" => {
            if let (Some(payer), Some(receiver), Some(bytes)) = (
                name_field(v, "payer"),
                name_field(v, "receiver"),
                v.get("bytes").and_then(Value::as_u64),
            ) {
                return ActionData::BuyRamBytes { payer, receiver, bytes };
            }
            ActionData::Generic
        }
        "bidname" => {
            if let (Some(bidder), Some(newname), Some((bid, _))) = (
                name_field(v, "bidder"),
                name_field(v, "newname"),
                asset_field(v, "bid"),
            ) {
                return ActionData::BidName { bidder, newname, bid };
            }
            ActionData::Generic
        }
        "voteproducer" => {
            if let (Some(voter), Some(n)) = (
                name_field(v, "voter"),
                v.get("producer_count").and_then(Value::as_u64),
            ) {
                return ActionData::VoteProducer { voter, producer_count: n as u8 };
            }
            ActionData::Generic
        }
        "rentcpu" => {
            if let (Some(from), Some(receiver), Some((payment, _))) = (
                name_field(v, "from"),
                name_field(v, "receiver"),
                asset_field(v, "loan_payment"),
            ) {
                return ActionData::RentCpu { from, receiver, payment };
            }
            ActionData::Generic
        }
        _ => ActionData::Generic,
    }
}

/// Parse a wire block back into the chain model (crawler side). An error
/// names the value that did not parse.
pub(crate) fn block_from_json(json: &BlockJson) -> Result<Block, String> {
    let parse_name = |s: &str| Name::parse(s).map_err(|_| format!("bad name {s:?}"));
    let time = ChainTime::parse_iso(&json.timestamp)
        .ok_or_else(|| format!("bad timestamp {:?}", json.timestamp))?;
    let producer = parse_name(&json.producer)?;
    let mut transactions = Vec::with_capacity(json.transactions.len());
    for w in &json.transactions {
        let id = u64::from_str_radix(&w.trx.id, 16)
            .map_err(|_| format!("bad tx id {:?}", w.trx.id))?;
        let mut actions = Vec::with_capacity(w.trx.transaction.actions.len());
        for aj in &w.trx.transaction.actions {
            let contract = parse_name(&aj.account)?;
            let name = parse_name(&aj.name)?;
            let actor = aj
                .authorization
                .first()
                .map(|auth| parse_name(&auth.actor))
                .transpose()?
                .unwrap_or_default();
            let data = action_data_from_json(&aj.name, &aj.data);
            actions.push(Action { contract, name, actor, data });
        }
        transactions.push(Transaction {
            id,
            actions,
            cpu_us: w.cpu_usage_us,
            net_bytes: w.net_usage_words * 8,
        });
    }
    Ok(Block { num: json.block_num, time, producer, transactions })
}

/// Append an EOS asset string literal: `"12.3456 EOS"` (4 decimals).
/// [`parse_asset`] reads it back.
fn write_asset<O: JsonOut>(w: &mut JsonWriter<'_, O>, amount: AssetRaw, symbol: &str) {
    let mag = amount.unsigned_abs();
    w.raw(if amount < 0 { "\"-" } else { "\"" });
    w.uint(mag / 10_000).raw(".").uint_padded(mag % 10_000, 4);
    w.raw(" ").escaped(symbol).raw("\"");
}

/// Append an action's `data` object: the fields nodeos reports for the
/// system and token actions the paper classifies, `{}` for any other.
/// [`action_data_from_json`] reads the same keys back.
fn write_action_data<O: JsonOut>(w: &mut JsonWriter<'_, O>, data: &ActionData) {
    /// `{"k1":name1,"k2":name2` — how all but two shapes open.
    fn names<O: JsonOut>(w: &mut JsonWriter<'_, O>, k1: &str, n1: &Name, k2: &str, n2: &Name) {
        w.raw("{\"").raw(k1).raw("\":").ident(*n1);
        w.raw(",\"").raw(k2).raw("\":").ident(*n2);
    }
    match data {
        ActionData::Transfer { from, to, symbol, amount } => {
            names(w, "from", from, "to", to);
            w.raw(",\"quantity\":");
            write_asset(w, *amount, symbol.as_str());
            w.raw(",\"memo\":\"\"}");
        }
        ActionData::Trade { buyer, seller, base_symbol, base_amount, quote_symbol, quote_amount } => {
            names(w, "buyer", buyer, "seller", seller);
            w.raw(",\"base\":");
            write_asset(w, *base_amount, base_symbol.as_str());
            w.raw(",\"quote\":");
            write_asset(w, *quote_amount, quote_symbol.as_str());
            w.raw("}");
        }
        ActionData::NewAccount { creator, name } => {
            names(w, "creator", creator, "name", name);
            w.raw("}");
        }
        ActionData::DelegateBw { from, receiver, net, cpu } => {
            names(w, "from", from, "receiver", receiver);
            w.raw(",\"stake_net_quantity\":");
            write_asset(w, *net, "EOS");
            w.raw(",\"stake_cpu_quantity\":");
            write_asset(w, *cpu, "EOS");
            w.raw("}");
        }
        ActionData::UndelegateBw { from, receiver, net, cpu } => {
            names(w, "from", from, "receiver", receiver);
            w.raw(",\"unstake_net_quantity\":");
            write_asset(w, *net, "EOS");
            w.raw(",\"unstake_cpu_quantity\":");
            write_asset(w, *cpu, "EOS");
            w.raw("}");
        }
        ActionData::BuyRam { payer, receiver, quant } => {
            names(w, "payer", payer, "receiver", receiver);
            w.raw(",\"quant\":");
            write_asset(w, *quant, "EOS");
            w.raw("}");
        }
        ActionData::BuyRamBytes { payer, receiver, bytes } => {
            names(w, "payer", payer, "receiver", receiver);
            w.raw(",\"bytes\":").uint(*bytes).raw("}");
        }
        ActionData::BidName { bidder, newname, bid } => {
            names(w, "bidder", bidder, "newname", newname);
            w.raw(",\"bid\":");
            write_asset(w, *bid, "EOS");
            w.raw("}");
        }
        ActionData::VoteProducer { voter, producer_count } => {
            w.raw("{\"voter\":").ident(*voter);
            w.raw(",\"producer_count\":").uint(*producer_count).raw("}");
        }
        ActionData::RentCpu { from, receiver, payment } => {
            names(w, "from", from, "receiver", receiver);
            w.raw(",\"loan_payment\":");
            write_asset(w, *payment, "EOS");
            w.raw("}");
        }
        ActionData::Generic => {
            w.raw("{}");
        }
    }
}

/// Append the canonical wire bytes of one block to `out` (or, into a
/// [`txstat_types::JsonLen`], count them): the compact `get_block` JSON,
/// written straight from the chain model. The simulated endpoint's replies,
/// the NDJSON crawl replay, the archive's wire-JSON segments, the follow
/// layer's reorg content hashes and the Figure 2 storage sweep all move
/// exactly these bytes — this is their one writer.
pub fn block_bytes_into(b: &Block, out: &mut impl JsonOut) {
    let w = &mut JsonWriter::new(out);
    w.raw("{\"block_num\":").uint(b.num).raw(",\"timestamp\":").iso(b.time);
    w.raw(",\"producer\":").ident(b.producer).raw(",\"transactions\":");
    w.array(&b.transactions, |w, tx| {
        w.raw("{\"status\":\"executed\",\"cpu_usage_us\":").uint(tx.cpu_us);
        w.raw(",\"net_usage_words\":").uint(tx.net_bytes / 8);
        w.raw(",\"trx\":{\"id\":\"").hex16(tx.id).raw("\",\"transaction\":{\"actions\":");
        w.array(&tx.actions, |w, a| {
            w.raw("{\"account\":").ident(a.contract).raw(",\"name\":").ident(a.name);
            w.raw(",\"authorization\":[{\"actor\":").ident(a.actor);
            w.raw(",\"permission\":\"active\"}],\"data\":");
            write_action_data(w, &a.data);
            w.raw("}");
        });
        w.raw("}}}");
    });
    w.raw("}");
}

/// [`block_bytes_into`] a fresh buffer.
pub fn block_bytes(b: &Block) -> Vec<u8> {
    let mut out = Vec::new();
    block_bytes_into(b, &mut out);
    out
}

/// Inverse of [`block_bytes`].
pub fn block_parse(bytes: &[u8]) -> Result<Block, String> {
    let wire: BlockJson =
        serde_json::from_slice(bytes).map_err(|e| format!("eos wire block: {e}"))?;
    block_from_json(&wire).map_err(|e| format!("eos wire block: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    /// [`write_asset`]'s string, unquoted.
    fn asset_text(raw: AssetRaw, sym: &str) -> String {
        let mut bytes = Vec::new();
        write_asset(&mut JsonWriter::new(&mut bytes), raw, sym);
        serde_json::from_slice::<Value>(&bytes).unwrap().as_str().unwrap().to_owned()
    }

    #[test]
    fn asset_roundtrip() {
        for (raw, sym) in [(12_3456i64, "EOS"), (0, "EIDOS"), (-5_0001, "DICE"), (1, "EOS")] {
            let s = asset_text(raw, sym);
            let (r2, s2) = parse_asset(&s).unwrap();
            assert_eq!((r2, s2.as_str()), (raw, sym), "via {s}");
        }
        assert_eq!(asset_text(1_0000, "EOS"), "1.0000 EOS");
        assert!(parse_asset("1.00 EOS").is_none(), "wrong precision");
        assert!(parse_asset("junk").is_none());
    }

    #[test]
    fn block_json_roundtrip() {
        let block = Block {
            num: 82_024_737,
            time: ChainTime::from_ymd_hms(2019, 10, 1, 0, 0, 30),
            producer: Name::new("eosbpone1111"),
            transactions: vec![Transaction {
                id: 0xdeadbeef,
                actions: vec![
                    Action::token_transfer(
                        Name::new("eosio.token"),
                        Name::new("alice"),
                        Name::new("bob"),
                        SymCode::new("EOS"),
                        9_5000,
                    ),
                    Action::new(
                        Name::new("betdicetasks"),
                        Name::new("removetask"),
                        Name::new("betdicegroup"),
                        ActionData::Generic,
                    ),
                ],
                cpu_us: 250,
                net_bytes: 160,
            }],
        };
        let bytes = block_bytes(&block);
        let text = String::from_utf8_lossy(&bytes);
        assert!(text.contains("\"9.5000 EOS\""));
        assert!(text.contains("2019-10-01T00:00:30"));
        assert_eq!(block_parse(&bytes), Ok(block));
    }

    #[test]
    fn unknown_action_data_degrades_to_generic() {
        let v = json!({"weird": true});
        assert_eq!(action_data_from_json("whaleextrust", &v), ActionData::Generic);
        // Known name but missing fields also degrades.
        assert_eq!(action_data_from_json("transfer", &v), ActionData::Generic);
    }

    #[test]
    fn trade_roundtrip() {
        let data = ActionData::Trade {
            buyer: Name::new("whale1"),
            seller: Name::new("whale1"),
            base_symbol: SymCode::new("PLA"),
            base_amount: 100_0000,
            quote_symbol: SymCode::new("EOS"),
            quote_amount: 3_0000,
        };
        let mut bytes = Vec::new();
        write_action_data(&mut JsonWriter::new(&mut bytes), &data);
        let v: Value = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(action_data_from_json("verifytrade2", &v), data);
    }

    #[test]
    fn bad_wire_data_is_rejected() {
        let text = r#"{"block_num":1,"timestamp":"not-a-time","producer":"p","transactions":[]}"#;
        let wire: BlockJson = serde_json::from_str(text).unwrap();
        assert!(matches!(block_from_json(&wire), Err(e) if e.starts_with("bad timestamp")));
    }
}
