//! # txstat-netsim — the network substrate
//!
//! The paper's measurements were taken over real node RPC interfaces: EOS
//! HTTP endpoints run by block producers (6 shortlisted of 32 advertised,
//! by rate limit and latency), a self-hosted Tezos node RPC, and the XRP
//! community websocket endpoint (§3.1). This crate reproduces that surface
//! over loopback TCP:
//!
//! - [`http`] — a minimal HTTP/1.1 implementation (requests, responses,
//!   keep-alive, Content-Length bodies) on blocking `std::net` sockets.
//! - [`ndjson`] — newline-delimited JSON framing standing in for the XRP
//!   websocket (request/response semantics preserved).
//! - [`framing`] — those two framings behind one trait, the type
//!   parameter of the server's connection loop and the crawler's exchange.
//! - [`deadline`] — [`Timed`], the one socket type with a deadline: every
//!   connection of the substrate, the crawler and the shard fleet reads
//!   and writes through it.
//! - [`endpoint`] — per-endpoint behaviour: latency + jitter, token-bucket
//!   rate limiting (HTTP 429 / `slowDown`), fault injection.
//! - [`server`] — the one connection loop (an accept thread, a thread per
//!   connection, keep-alive, request and byte accounting, `431`), and the
//!   endpoints serving a handler through the behaviour model on it.
//! - [`handlers`] — the chain RPC handlers (EOS `get_block`, Tezos block
//!   RPC, XRP `ledger`), plus substitutes for the Ripple Data API
//!   (`exchange_rates`) and XRP Scan (`account_info`).
//! - [`serve`] — the serving layer: the same connection loop promoted from
//!   test scaffolding into our own long-lived query service, with
//!   token-bucket admission, explicit 429 load shedding, per-route-class
//!   latency/shed counters, and the load generator that drives it.
//! - [`chaos`] — the endpoint fault vocabulary promoted to a standalone
//!   fault-injecting TCP proxy (resets, truncation, bit-flips, latency)
//!   between real processes, for exercising the wire layer's typed damage
//!   rejection over a live transport.

pub mod chaos;
pub mod deadline;
pub mod endpoint;
pub mod framing;
pub mod handlers;
pub mod http;
pub mod ndjson;
pub mod serve;
pub mod server;

pub use chaos::{spawn_chaos_proxy, ChaosHandle, ChaosProfile, ChaosStats};
pub use deadline::Timed;
pub use endpoint::{EndpointProfile, EndpointStats};
pub use framing::{Framing, Http, Ndjson};
pub use handlers::{EosRpcHandler, TezosRpcHandler, XrpRpcHandler};
pub use http::{HttpRequest, HttpResponse};
pub use serve::{
    run_load, spawn_query_server, start_query_server, LoadPlan, LoadReport, QueryServerConfig,
    QueryServerHandle, RouteStats,
};
pub use server::{spawn_http, spawn_ndjson, EndpointHandle, HttpHandler, JsonHandler};
