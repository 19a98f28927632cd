//! The one connection loop of the substrate, and the simulated endpoints
//! built on it: HTTP (EOS, Tezos) and NDJSON (XRP) over loopback TCP, each
//! behind an `EndpointSim` behaviour model with shared stats.
//!
//! `serve_connections` owns everything that does not depend on who is
//! serving: accept, one thread per connection, keep-alive, the in-flight
//! guard, request and byte accounting, the refusal owed to an unreadable
//! request (`431`) and hanging up on a failed write. It is generic over the
//! [`Framing`] and over a `Gatekeeper`, which names the counters a
//! request is booked under and decides it: reply with this, or hang up;
//! the gatekeeper also hears when the connection is done with a reply.
//! [`spawn_http`] / [`spawn_ndjson`] gate through `EndpointSim::gate` and
//! its artificial delay; [`crate::serve::start_query_server`] through its
//! admission bucket. Every connection is a [`Timed`] socket with one
//! 60 s deadline per stage: waiting for and reading a whole
//! request, then writing its reply (or refusal). A peer that trickles its
//! bytes is cut when the stage ends, not when it stops sending. A
//! connection cap or per-stage spans have this one loop to go into.

use crate::deadline::Timed;
use crate::endpoint::{EndpointProfile, EndpointSim, EndpointStats, Gate};
use crate::framing::{Framing, Http, Ndjson};
use crate::http::{HttpRequest, HttpResponse};
use serde_json::Value;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// The deadline of one stage of a server-side or load-generator
/// connection: a request read (the keep-alive wait for it included) or a
/// reply write.
pub(crate) const STAGE_LIMIT: Duration = Duration::from_secs(60);

/// An HTTP request handler (sync — chain lookups are in-memory).
pub trait HttpHandler: Send + Sync + 'static {
    fn handle(&self, req: &HttpRequest) -> HttpResponse;

    /// Called by the query server ([`crate::serve::start_query_server`])
    /// once the connection is done with `reply` to `req`: written to the
    /// peer, or its write failed. Whatever must not happen before the peer
    /// has its answer (a process exit) waits for this. Default: nothing.
    fn replied(&self, _req: &HttpRequest, _reply: &HttpResponse) {}
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
    fn decide(&self, request: &F::Request, stats: &EndpointStats) -> Option<F::Reply>;

    /// The connection is done with `reply`: written, or its write failed.
    fn replied(&self, _request: &F::Request, _reply: &F::Reply) {}
}

/// Serve every connection `listener` accepts, on one accept thread and
/// one thread per connection, until accepting fails. Nothing stops the
/// accept thread: it lives until the process exits.
pub(crate) fn serve_connections<F: Framing, G: Gatekeeper<F>>(
    listener: TcpListener,
    gatekeeper: G,
) {
    let gatekeeper = Arc::new(gatekeeper);
    std::thread::spawn(move || {
        while let Ok((sock, _)) = listener.accept() {
            let gatekeeper = gatekeeper.clone();
            std::thread::spawn(move || serve_connection::<F, G>(sock, &gatekeeper));
        }
    });
}

/// One connection's keep-alive loop. A socket that cannot be set up is
/// dropped unserved.
fn serve_connection<F: Framing, G: Gatekeeper<F>>(sock: TcpStream, gatekeeper: &G) {
    let Ok(timed) = Timed::new(sock, STAGE_LIMIT) else {
        return;
    };
    let mut conn = BufReader::new(timed);
    loop {
        conn.get_mut().restart(STAGE_LIMIT);
        let (request, size) = match F::read_request(&mut conn) {
            Ok(Some(read)) => read,
            Ok(None) => break,
            Err(e) => {
                if let Some(refusal) = F::refusal(&e) {
                    conn.get_mut().restart(STAGE_LIMIT);
                    let _ = F::write_reply(&mut conn, &refusal);
                }
                break;
            }
        };
        let stats = gatekeeper.stats(&request);
        let _in_flight = stats.enter();
        stats.requests.inc();
        stats.bytes_in.add(size as u64);
        let Some(reply) = gatekeeper.decide(&request, stats) else {
            break;
        };
        conn.get_mut().restart(STAGE_LIMIT);
        let written = F::write_reply(&mut conn, &reply);
        gatekeeper.replied(&request, &reply);
        match written {
            Ok(written) => stats.bytes_out.add(written as u64),
            Err(_) => break,
        }
    }
}

/// A running endpoint: address and behaviour stats. Its accept thread
/// lives until the process exits; dropping the handle does not stop it
/// (the chaos proxy's [`crate::ChaosHandle::stop`] is the only listener
/// that can be stopped).
pub struct EndpointHandle {
    pub name: String,
    pub addr: SocketAddr,
    pub stats: Arc<EndpointStats>,
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

    fn decide(&self, request: &F::Request, stats: &EndpointStats) -> Option<F::Reply> {
        let (gate, delay) = self.sim.gate();
        if !delay.is_zero() {
            std::thread::sleep(delay);
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

fn spawn_sim<F: Framing>(
    profile: EndpointProfile,
    handle: impl Fn(&F::Request) -> F::Reply + Send + Sync + 'static,
) -> std::io::Result<EndpointHandle> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let stats = Arc::new(EndpointStats::default());
    let name = profile.name.clone();
    let gate = SimGate {
        sim: EndpointSim::new(profile),
        stats: stats.clone(),
        handle,
    };
    serve_connections::<F, _>(listener, gate);
    Ok(EndpointHandle { name, addr, stats })
}

/// Spawn an HTTP endpoint with the given behaviour profile.
pub fn spawn_http(
    handler: Arc<dyn HttpHandler>,
    profile: EndpointProfile,
) -> std::io::Result<EndpointHandle> {
    spawn_sim::<Http>(profile, move |req| handler.handle(req))
}

/// Spawn an NDJSON endpoint (the XRP websocket-equivalent).
pub fn spawn_ndjson(
    handler: Arc<dyn JsonHandler>,
    profile: EndpointProfile,
) -> std::io::Result<EndpointHandle> {
    spawn_sim::<Ndjson>(profile, move |req| handler.handle(req))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::connect;
    use crate::http::{read_response, write_request};
    use crate::ndjson::{read_frame, write_frame};
    use serde_json::json;
    use std::io::{Read, Write};

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

    #[test]
    fn http_endpoint_serves_and_counts() {
        let h = spawn_http(Arc::new(Echo), EndpointProfile::generous("e", 1)).unwrap();
        let mut stream = connect(h.addr);
        // Two requests on one connection: a reply's bytes are booked after
        // it is written, so only the second reply proves the first booked.
        for _ in 0..2 {
            write_request(
                stream.get_mut(),
                &HttpRequest::post("/x", b"hello".to_vec()),
            )
            .unwrap();
            let resp = read_response(&mut stream).unwrap();
            assert_eq!(resp.body, b"hello");
        }
        let s = &h.stats;
        assert_eq!(
            (s.requests.get(), s.served.get(), s.rate_limited.get()),
            (2, 2, 0)
        );
        assert!(s.bytes_in.get() > 10 && s.bytes_out.get() > 5);
    }

    #[test]
    fn a_peer_that_oversells_its_body_costs_one_connection() {
        use crate::http::MAX_BODY;
        let h = spawn_http(Arc::new(Echo), EndpointProfile::generous("e", 5)).unwrap();
        // Announce the largest body accepted, send ten bytes of it, hang up.
        let mut liar = TcpStream::connect(h.addr).unwrap();
        let head = format!("POST /x HTTP/1.1\r\ncontent-length: {MAX_BODY}\r\n\r\n0123456789");
        liar.write_all(head.as_bytes()).unwrap();
        drop(liar);
        // The next connection is served, a 1 MiB body intact both ways.
        let payload: Vec<u8> = (0..=255u8).cycle().take(1 << 20).collect();
        let mut stream = connect(h.addr);
        write_request(stream.get_mut(), &HttpRequest::post("/x", payload.clone())).unwrap();
        let resp = read_response(&mut stream).unwrap();
        assert!(
            resp.is_ok() && resp.body == payload,
            "status {}",
            resp.status
        );
        assert_eq!(
            h.stats.served.get(),
            1,
            "the short body was never a request"
        );
    }

    #[test]
    fn two_content_lengths_are_hung_up_on_unserved() {
        let h = spawn_http(Arc::new(Echo), EndpointProfile::generous("e", 6)).unwrap();
        // Framed by the last header, the body would be read as a next request.
        let mut peer = TcpStream::connect(h.addr).unwrap();
        let head = b"POST /x HTTP/1.1\r\ncontent-length: 5\r\ncontent-length: 0\r\n\r\nhello";
        peer.write_all(head).unwrap();
        peer.shutdown(std::net::Shutdown::Write).unwrap();
        // A reset is a hang-up too: only bytes that did arrive count.
        let mut reply = Vec::new();
        let _ = peer.read_to_end(&mut reply);
        assert_eq!(
            String::from_utf8_lossy(&reply),
            "",
            "no reply to an ambiguous request"
        );
        assert_eq!(h.stats.requests.get(), 0);
    }

    #[test]
    fn http_endpoint_rate_limits() {
        let mut p = EndpointProfile::generous("tight", 2);
        p.rate_limit_per_sec = 1.0;
        p.burst = 2.0;
        p.latency_ms = 0.0;
        p.jitter_ms = 0.0;
        let h = spawn_http(Arc::new(Echo), p).unwrap();
        let mut stream = connect(h.addr);
        let mut codes = Vec::new();
        for _ in 0..6 {
            write_request(stream.get_mut(), &HttpRequest::get("/")).unwrap();
            codes.push(read_response(&mut stream).unwrap().status);
        }
        assert!(
            codes.iter().filter(|c| **c == 429).count() >= 3,
            "{codes:?}"
        );
        assert!(
            codes.iter().filter(|c| **c == 200).count() >= 2,
            "{codes:?}"
        );
    }

    #[test]
    fn ndjson_endpoint_serves() {
        let h = spawn_ndjson(Arc::new(Pong), EndpointProfile::generous("x", 3)).unwrap();
        let mut stream = connect(h.addr);
        write_frame(stream.get_mut(), &json!({"id": 7, "command": "ping"})).unwrap();
        let (resp, _) = read_frame(&mut stream).unwrap().unwrap();
        assert_eq!(resp["id"], 7);
        assert_eq!(resp["pong"], true);
    }

    #[test]
    fn faulty_endpoint_drops_connections() {
        let mut p = EndpointProfile::generous("flaky", 4);
        p.fault_rate = 1.0;
        p.latency_ms = 0.0;
        let h = spawn_http(Arc::new(Echo), p).unwrap();
        let mut stream = connect(h.addr);
        write_request(stream.get_mut(), &HttpRequest::get("/")).unwrap();
        assert!(read_response(&mut stream).is_err(), "connection dropped");
        assert_eq!(h.stats.faults.get(), 1);
    }
}
