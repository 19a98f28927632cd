//! Chain RPC handlers: the node APIs the paper crawled, served from
//! simulated chains.
//!
//! - EOS: `POST /v1/chain/get_info`, `POST /v1/chain/get_block` (§3.1).
//! - Tezos: `GET /chains/main/blocks/head`, `GET /chains/main/blocks/{level}`.
//! - XRP: NDJSON `server_info` / `ledger` commands, plus two extension
//!   commands standing in for out-of-band services the paper used:
//!   `account_info` (XRP Scan usernames/parents) and `exchange_rates`
//!   (the Ripple Data API).
//!
//! A block reply is its chain's canonical wire bytes (`block_bytes` /
//! `ledger_bytes` in each `rpc_model`), the same bytes the archive and
//! Figure 2 count; the small replies are `json!` values.

use crate::http::{HttpRequest, HttpResponse};
use crate::server::{HttpHandler, JsonHandler};
use serde_json::{json, Value};
use std::collections::HashMap;
use std::sync::Arc;
use txstat_eos::chain::EosChain;
use txstat_eos::rpc_model as eos_rpc;
use txstat_tezos::chain::TezosChain;
use txstat_tezos::rpc_model as tezos_rpc;
use txstat_types::time::ChainTime;
use txstat_xrp::amount::IssuedCurrency;
use txstat_xrp::ledger::XrpLedger;
use txstat_xrp::rates::RateOracle;
use txstat_xrp::rpc_model as xrp_rpc;
use txstat_xrp::AccountId;

fn json_ok(v: &Value) -> HttpResponse {
    HttpResponse::ok(serde_json::to_vec(v).expect("serializable"))
}

fn json_error(status: u16, reason: &str, message: &str) -> HttpResponse {
    HttpResponse::status(
        status,
        reason,
        serde_json::to_vec(&json!({"error": message})).expect("serializable"),
    )
}

// ---- EOS --------------------------------------------------------------------

/// Serves the EOS node RPC from a generated chain.
pub struct EosRpcHandler {
    chain: Arc<EosChain>,
}

impl EosRpcHandler {
    pub fn new(chain: Arc<EosChain>) -> Self {
        EosRpcHandler { chain }
    }
}

impl HttpHandler for EosRpcHandler {
    fn handle(&self, req: &HttpRequest) -> HttpResponse {
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/v1/chain/get_info") => {
                let head = self.chain.head_block_num();
                let head_time = self.chain.block_by_num(head).map(|b| b.time.iso_string());
                json_ok(&json!({
                    "chain_id": "aca376f206b8fc25a6ed44dbdc66547c36c6c33e3a119ffbeaef943642f0e906",
                    "head_block_num": head,
                    "head_block_time": head_time.unwrap_or_default(),
                    "last_irreversible_block_num": head.saturating_sub(325),
                    "server_version_string": "v1.8.txstat-sim",
                }))
            }
            ("POST", "/v1/chain/get_block") => {
                let body: Value = match serde_json::from_slice(&req.body) {
                    Ok(v) => v,
                    Err(_) => return json_error(400, "Bad Request", "invalid json body"),
                };
                let num = match body.get("block_num_or_id").and_then(Value::as_u64) {
                    Some(n) => n,
                    None => return json_error(400, "Bad Request", "missing block_num_or_id"),
                };
                match self.chain.block_by_num(num) {
                    Some(block) => HttpResponse::ok(eos_rpc::block_bytes(block)),
                    None => json_error(404, "Not Found", "unknown block"),
                }
            }
            _ => json_error(404, "Not Found", "unknown endpoint"),
        }
    }
}

// ---- Tezos ------------------------------------------------------------------

/// Serves the Tezos node RPC from a generated chain.
pub struct TezosRpcHandler {
    chain: Arc<TezosChain>,
}

impl TezosRpcHandler {
    pub fn new(chain: Arc<TezosChain>) -> Self {
        TezosRpcHandler { chain }
    }
}

impl HttpHandler for TezosRpcHandler {
    fn handle(&self, req: &HttpRequest) -> HttpResponse {
        if req.method != "GET" {
            return json_error(405, "Method Not Allowed", "GET only");
        }
        let suffix = match req.path.strip_prefix("/chains/main/blocks/") {
            Some(s) => s,
            None => return json_error(404, "Not Found", "unknown endpoint"),
        };
        let level = if suffix == "head" {
            self.chain.head_level()
        } else {
            match suffix.parse::<u64>() {
                Ok(l) => l,
                Err(_) => return json_error(400, "Bad Request", "bad level"),
            }
        };
        match self.chain.block_by_level(level) {
            Some(block) => HttpResponse::ok(tezos_rpc::block_bytes(block)),
            None => json_error(404, "Not Found", "unknown level"),
        }
    }
}

// ---- XRP --------------------------------------------------------------------

/// Serves the XRP websocket-equivalent (NDJSON) from a generated ledger,
/// including the Data-API and XRP-Scan substitute commands.
pub struct XrpRpcHandler {
    ledger: Arc<XrpLedger>,
    usernames: HashMap<AccountId, String>,
}

impl XrpRpcHandler {
    pub fn new(ledger: Arc<XrpLedger>, usernames: HashMap<AccountId, String>) -> Self {
        XrpRpcHandler { ledger, usernames }
    }

    fn reply(&self, id: Value, result: Value) -> Value {
        json!({"id": id, "status": "success", "type": "response", "result": result})
    }

    fn error(&self, id: Value, message: &str) -> Value {
        json!({"id": id, "status": "error", "error": message})
    }
}

impl JsonHandler for XrpRpcHandler {
    fn handle(&self, request: &Value) -> Value {
        let id = request.get("id").cloned().unwrap_or(Value::Null);
        match request.get("command").and_then(Value::as_str) {
            Some("server_info") => self.reply(
                id,
                json!({
                    "info": {
                        "validated_ledger": { "seq": self.ledger.head_index() },
                        "complete_ledgers": format!(
                            "{}-{}",
                            self.ledger.config.start_index,
                            self.ledger.head_index()
                        ),
                    }
                }),
            ),
            Some("ledger") => {
                let index = match request.get("ledger_index").and_then(Value::as_u64) {
                    Some(i) => i,
                    None => return self.error(id, "invalidParams"),
                };
                match self.ledger.ledger_by_index(index) {
                    Some(block) => {
                        let ledger = serde_json::from_slice(&xrp_rpc::ledger_bytes(block))
                            .expect("ledger_bytes writes valid JSON");
                        self.reply(id, ledger)
                    }
                    None => self.error(id, "lgrNotFound"),
                }
            }
            Some("account_info") => {
                let account: AccountId = match request
                    .get("account")
                    .and_then(Value::as_str)
                    .and_then(|s| s.parse().ok())
                {
                    Some(a) => a,
                    None => return self.error(id, "actMalformed"),
                };
                match self.ledger.account(account) {
                    Some(root) => self.reply(
                        id,
                        json!({
                            "account": account.to_string(),
                            "username": self.usernames.get(&account),
                            "parent": root.activated_by.map(|p| p.to_string()),
                            "activated_at": root.activated_at.iso_string(),
                            "balance_drops": root.balance_drops.to_string(),
                        }),
                    ),
                    None => self.error(id, "actNotFound"),
                }
            }
            // Data-API `exchanges` equivalent: the individual exchange
            // events of one issued currency (Figure 11b's source).
            Some("exchanges") => {
                let (currency, issuer) = match (
                    request.get("currency").and_then(Value::as_str),
                    request
                        .get("issuer")
                        .and_then(Value::as_str)
                        .and_then(|s| s.parse::<AccountId>().ok()),
                ) {
                    (Some(c), Some(i)) => (c, i),
                    _ => return self.error(id, "invalidParams"),
                };
                let ic = IssuedCurrency::new(currency, issuer);
                let events: Vec<Value> = self
                    .ledger
                    .trades
                    .iter()
                    .filter(|t| t.currency == ic)
                    .map(|t| {
                        json!({
                            "time": t.time.iso_string(),
                            "maker": t.maker.to_string(),
                            "rate": t.rate(),
                            "iou_value": t.iou_value.to_string(),
                            "drops": t.drops.to_string(),
                        })
                    })
                    .collect();
                self.reply(id, json!({"exchanges": events}))
            }
            Some("exchange_rates") => {
                let (currency, issuer, date) = match (
                    request.get("currency").and_then(Value::as_str),
                    request
                        .get("issuer")
                        .and_then(Value::as_str)
                        .and_then(|s| s.parse::<AccountId>().ok()),
                    request
                        .get("date")
                        .and_then(Value::as_str)
                        .and_then(ChainTime::parse_iso),
                ) {
                    (Some(c), Some(i), Some(d)) => (c, i, d),
                    _ => return self.error(id, "invalidParams"),
                };
                let window = request
                    .get("period_days")
                    .and_then(Value::as_i64)
                    .unwrap_or(30);
                let oracle = RateOracle::from_trades(&self.ledger.trades, date, window);
                let ic = IssuedCurrency::new(currency, issuer);
                self.reply(
                    id,
                    json!({
                        "currency": currency,
                        "issuer": issuer.to_string(),
                        "rate": oracle.rate(ic).unwrap_or(0.0),
                        "traded": oracle.rate(ic).is_some(),
                    }),
                )
            }
            _ => self.error(id, "unknownCmd"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txstat_eos::chain::ChainConfig;
    use txstat_tezos::chain::TezosConfig;
    use txstat_tezos::MUTEZ_PER_TEZ;
    use txstat_xrp::ledger::LedgerConfig;

    #[test]
    fn eos_handler_serves_info_and_blocks() {
        let mut chain = EosChain::new(ChainConfig::default());
        chain.produce_block(vec![]);
        chain.produce_block(vec![]);
        let h = EosRpcHandler::new(Arc::new(chain));
        let resp = h.handle(&HttpRequest::post("/v1/chain/get_info", b"{}".to_vec()));
        assert!(resp.is_ok());
        let v: Value = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(v["head_block_num"], 82_024_738);

        let resp = h.handle(&HttpRequest::post(
            "/v1/chain/get_block",
            br#"{"block_num_or_id": 82024737}"#.to_vec(),
        ));
        assert!(resp.is_ok());
        let v: Value = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(v["block_num"], 82_024_737);

        let resp = h.handle(&HttpRequest::post(
            "/v1/chain/get_block",
            br#"{"block_num_or_id": 1}"#.to_vec(),
        ));
        assert_eq!(resp.status, 404);
        let resp = h.handle(&HttpRequest::post(
            "/v1/chain/get_block",
            b"not json".to_vec(),
        ));
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn tezos_handler_serves_levels() {
        let mut chain = TezosChain::new(TezosConfig::default());
        chain
            .register_baker(txstat_tezos::Address::implicit(1), 50_000 * MUTEZ_PER_TEZ)
            .unwrap();
        chain.produce_block(vec![]);
        chain.produce_block(vec![]);
        let h = TezosRpcHandler::new(Arc::new(chain));
        let resp = h.handle(&HttpRequest::get("/chains/main/blocks/head"));
        assert!(resp.is_ok());
        let v: Value = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(v["header"]["level"], 628_952);
        let resp = h.handle(&HttpRequest::get("/chains/main/blocks/628951"));
        assert!(resp.is_ok());
        let resp = h.handle(&HttpRequest::get("/chains/main/blocks/999999999"));
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn xrp_handler_serves_ledgers_and_metadata() {
        let mut ledger = XrpLedger::new(LedgerConfig::default());
        ledger.bootstrap_account(AccountId(500), 100 * 1_000_000, Some(AccountId(100)));
        ledger.close_ledger();
        let mut names = HashMap::new();
        names.insert(AccountId(100), "Genesis".to_owned());
        let h = XrpRpcHandler::new(Arc::new(ledger), names);

        let resp = h.handle(&json!({"id": 1, "command": "server_info"}));
        assert_eq!(resp["status"], "success");
        assert_eq!(
            resp["result"]["info"]["validated_ledger"]["seq"],
            50_400_001
        );

        let resp = h.handle(&json!({"id": 2, "command": "ledger", "ledger_index": 50_400_001}));
        assert_eq!(resp["status"], "success");
        assert_eq!(resp["result"]["ledger"]["ledger_index"], 50_400_001);

        let resp = h.handle(&json!({"id": 3, "command": "ledger", "ledger_index": 1}));
        assert_eq!(resp["status"], "error");
        assert_eq!(resp["error"], "lgrNotFound");

        let acct = AccountId(500).to_string();
        let resp = h.handle(&json!({"id": 4, "command": "account_info", "account": acct}));
        assert_eq!(resp["status"], "success");
        assert_eq!(resp["result"]["parent"], AccountId(100).to_string());

        let resp = h.handle(&json!({
            "id": 5, "command": "exchange_rates",
            "currency": "BTC", "issuer": AccountId(100).to_string(),
            "date": "2020-01-01T00:00:00"
        }));
        assert_eq!(resp["status"], "success");
        assert_eq!(resp["result"]["traded"], false);

        let resp = h.handle(&json!({"id": 6, "command": "nonsense"}));
        assert_eq!(resp["error"], "unknownCmd");
    }
}
