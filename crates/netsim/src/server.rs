//! The one connection loop of the substrate, and the simulated endpoints
//! built on it: HTTP (EOS, Tezos) and NDJSON (XRP) over loopback TCP, each
//! behind an [`EndpointSim`] behaviour model with shared stats.
//!
//! `serve_connections` owns everything that does not depend on who is
//! serving: accept, one task per connection, keep-alive, the in-flight
//! guard, request and byte accounting, the refusal owed to an unreadable
//! request (`431`) and hanging up on a failed write. It is generic over the
//! [`Framing`] and over a `Gatekeeper`, which names the counters a
//! request is booked under and decides it: reply with this, or hang up.
//! [`spawn_http`] / [`spawn_ndjson`] gate through [`EndpointSim::gate`] and
//! its artificial delay; [`crate::serve::spawn_query_server`] through its
//! admission bucket. Deadlines, a connection cap or per-stage spans have
//! this one loop to go into.

use crate::endpoint::{EndpointProfile, EndpointSim, EndpointStats, Gate};
use crate::framing::{Framing, Http, Ndjson};
use crate::http::{HttpRequest, HttpResponse};
use serde_json::Value;
use std::future::Future;
use std::net::SocketAddr;
use std::sync::Arc;
use tokio::io::BufStream;
use tokio::net::TcpListener;
use tokio::task::JoinHandle;

/// An HTTP request handler (sync — chain lookups are in-memory).
pub trait HttpHandler: Send + Sync + 'static {
    fn handle(&self, req: &HttpRequest) -> HttpResponse;
}

/// An NDJSON command handler.
pub trait JsonHandler: Send + Sync + 'static {
    fn handle(&self, request: &Value) -> Value;
}

/// The per-request policy of one server.
pub(crate) trait Gatekeeper<F: Framing>: Send + Sync + 'static {
    /// The counters `request` is booked under.
    fn stats(&self, request: &F::Request) -> &EndpointStats;

    /// The reply to `request`, or `None` to hang up on the peer.
    fn decide(
        &self,
        request: &F::Request,
        stats: &EndpointStats,
    ) -> impl Future<Output = Option<F::Reply>> + Send;
}

/// Serve every connection `listener` accepts until it fails.
pub(crate) fn serve_connections<F: Framing, G: Gatekeeper<F>>(
    listener: TcpListener,
    gatekeeper: G,
) -> JoinHandle<()> {
    let gatekeeper = Arc::new(gatekeeper);
    tokio::spawn(async move {
        while let Ok((sock, _)) = listener.accept().await {
            let gatekeeper = gatekeeper.clone();
            tokio::spawn(async move {
                let mut conn = BufStream::new(sock);
                loop {
                    let (request, size) = match F::read_request(&mut conn).await {
                        Ok(Some(read)) => read,
                        Ok(None) => break,
                        Err(e) => {
                            if let Some(refusal) = F::refusal(&e) {
                                let _ = F::write_reply(&mut conn, &refusal).await;
                            }
                            break;
                        }
                    };
                    let stats = gatekeeper.stats(&request);
                    let _in_flight = stats.enter();
                    stats.requests.inc();
                    stats.bytes_in.add(size as u64);
                    let Some(reply) = gatekeeper.decide(&request, stats).await else {
                        break;
                    };
                    match F::write_reply(&mut conn, &reply).await {
                        Ok(written) => stats.bytes_out.add(written as u64),
                        Err(_) => break,
                    }
                }
            });
        }
    })
}

/// A running endpoint: address, behaviour stats, and its accept-loop task.
pub struct EndpointHandle {
    pub name: String,
    pub addr: SocketAddr,
    pub stats: Arc<EndpointStats>,
    task: JoinHandle<()>,
}

impl Drop for EndpointHandle {
    fn drop(&mut self) {
        self.task.abort();
    }
}

/// A simulated remote node: every request passes the behaviour model
/// before `handle` sees it.
struct SimGate<H> {
    sim: EndpointSim,
    stats: Arc<EndpointStats>,
    handle: H,
}

impl<F, H> Gatekeeper<F> for SimGate<H>
where
    F: Framing,
    H: Fn(&F::Request) -> F::Reply + Send + Sync + 'static,
{
    fn stats(&self, _: &F::Request) -> &EndpointStats {
        &self.stats
    }

    async fn decide(&self, request: &F::Request, stats: &EndpointStats) -> Option<F::Reply> {
        let (gate, delay) = self.sim.gate();
        if !delay.is_zero() {
            tokio::time::sleep(delay).await;
        }
        match gate {
            Gate::Fault => {
                stats.faults.inc();
                None // connection reset
            }
            Gate::RateLimited => {
                stats.rate_limited.inc();
                Some(F::throttled(request))
            }
            Gate::Proceed => {
                stats.served.inc();
                Some((self.handle)(request))
            }
        }
    }
}

async fn spawn_sim<F: Framing>(
    profile: EndpointProfile,
    handle: impl Fn(&F::Request) -> F::Reply + Send + Sync + 'static,
) -> std::io::Result<EndpointHandle> {
    let listener = TcpListener::bind("127.0.0.1:0").await?;
    let addr = listener.local_addr()?;
    let stats = Arc::new(EndpointStats::default());
    let name = profile.name.clone();
    let gate = SimGate { sim: EndpointSim::new(profile), stats: stats.clone(), handle };
    let task = serve_connections::<F, _>(listener, gate);
    Ok(EndpointHandle { name, addr, stats, task })
}

/// Spawn an HTTP endpoint with the given behaviour profile.
pub async fn spawn_http(
    handler: Arc<dyn HttpHandler>,
    profile: EndpointProfile,
) -> std::io::Result<EndpointHandle> {
    spawn_sim::<Http>(profile, move |req| handler.handle(req)).await
}

/// Spawn an NDJSON endpoint (the XRP websocket-equivalent).
pub async fn spawn_ndjson(
    handler: Arc<dyn JsonHandler>,
    profile: EndpointProfile,
) -> std::io::Result<EndpointHandle> {
    spawn_sim::<Ndjson>(profile, move |req| handler.handle(req)).await
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{read_response, write_request};
    use crate::ndjson::{read_frame, write_frame};
    use serde_json::json;
    use tokio::net::TcpStream;

    struct Echo;
    impl HttpHandler for Echo {
        fn handle(&self, req: &HttpRequest) -> HttpResponse {
            HttpResponse::ok(req.body.clone())
        }
    }

    struct Pong;
    impl JsonHandler for Pong {
        fn handle(&self, request: &Value) -> Value {
            json!({"id": request["id"].clone(), "status": "success", "pong": true})
        }
    }

    #[tokio::test]
    async fn http_endpoint_serves_and_counts() {
        let h = spawn_http(Arc::new(Echo), EndpointProfile::generous("e", 1)).await.unwrap();
        let sock = TcpStream::connect(h.addr).await.unwrap();
        let mut stream = BufStream::new(sock);
        write_request(&mut stream, &HttpRequest::post("/x", b"hello".to_vec())).await.unwrap();
        let resp = read_response(&mut stream).await.unwrap();
        assert_eq!(resp.body, b"hello");
        let s = &h.stats;
        assert_eq!((s.requests.get(), s.served.get(), s.rate_limited.get()), (1, 1, 0));
        assert!(s.bytes_in.get() > 5 && s.bytes_out.get() > 5);
    }

    #[tokio::test]
    async fn http_endpoint_rate_limits() {
        let mut p = EndpointProfile::generous("tight", 2);
        p.rate_limit_per_sec = 1.0;
        p.burst = 2.0;
        p.latency_ms = 0.0;
        p.jitter_ms = 0.0;
        let h = spawn_http(Arc::new(Echo), p).await.unwrap();
        let sock = TcpStream::connect(h.addr).await.unwrap();
        let mut stream = BufStream::new(sock);
        let mut codes = Vec::new();
        for _ in 0..6 {
            write_request(&mut stream, &HttpRequest::get("/")).await.unwrap();
            codes.push(read_response(&mut stream).await.unwrap().status);
        }
        assert!(codes.iter().filter(|c| **c == 429).count() >= 3, "{codes:?}");
        assert!(codes.iter().filter(|c| **c == 200).count() >= 2, "{codes:?}");
    }

    #[tokio::test]
    async fn ndjson_endpoint_serves() {
        let h = spawn_ndjson(Arc::new(Pong), EndpointProfile::generous("x", 3)).await.unwrap();
        let sock = TcpStream::connect(h.addr).await.unwrap();
        let mut stream = BufStream::new(sock);
        write_frame(&mut stream, &json!({"id": 7, "command": "ping"})).await.unwrap();
        let (resp, _) = read_frame(&mut stream).await.unwrap().unwrap();
        assert_eq!(resp["id"], 7);
        assert_eq!(resp["pong"], true);
    }

    #[tokio::test]
    async fn faulty_endpoint_drops_connections() {
        let mut p = EndpointProfile::generous("flaky", 4);
        p.fault_rate = 1.0;
        p.latency_ms = 0.0;
        let h = spawn_http(Arc::new(Echo), p).await.unwrap();
        let sock = TcpStream::connect(h.addr).await.unwrap();
        let mut stream = BufStream::new(sock);
        write_request(&mut stream, &HttpRequest::get("/")).await.unwrap();
        assert!(read_response(&mut stream).await.is_err(), "connection dropped");
        assert_eq!(h.stats.faults.get(), 1);
    }
}
