//! One deadline per stage of a socket's life. A per-read timeout is no
//! deadline: a peer that sends one byte just inside it keeps a read going
//! for ever. [`Timed`] arms the socket before every read and write with the
//! time left before its deadline instead, so a stage (a connect and a
//! whole exchange, one request read, one reply write) ends when its limit
//! says, however the peer paces its bytes.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A `TcpStream` with Nagle off (every message is written whole, so nothing
/// waits to coalesce) and a deadline. Once the deadline has passed, every
/// read and write fails with [`ErrorKind::TimedOut`], and so does one whose
/// socket ran out of time (which the kernel may report a hair early, as
/// `WouldBlock`); [`Timed::expired`] then says so.
pub struct Timed {
    sock: TcpStream,
    deadline: Instant,
    expired: bool,
}

impl Timed {
    /// Connect to `addr` and start a stage of `limit`; the connect is
    /// part of it.
    pub fn connect(addr: SocketAddr, limit: Duration) -> io::Result<Timed> {
        let deadline = Instant::now() + limit;
        let sock = TcpStream::connect_timeout(&addr, limit)?;
        Ok(Timed {
            deadline,
            ..Timed::new(sock, limit)?
        })
    }

    /// `sock` (an accepted connection) with a stage of `limit` from now.
    pub fn new(sock: TcpStream, limit: Duration) -> io::Result<Timed> {
        sock.set_nodelay(true)?;
        Ok(Timed {
            sock,
            deadline: Instant::now() + limit,
            expired: false,
        })
    }

    /// Start the next stage: `limit` from now.
    pub fn restart(&mut self, limit: Duration) {
        self.deadline = Instant::now() + limit;
        self.expired = false;
    }

    /// Whether a read or write of this stage failed for lack of time.
    pub fn expired(&self) -> bool {
        self.expired
    }

    /// `op` on the socket armed by `set` (the read or the write timeout)
    /// with the time left. With none left, fail without a syscall: std
    /// refuses a zero timeout as `InvalidInput`.
    fn within<T>(
        &mut self,
        set: fn(&TcpStream, Option<Duration>) -> io::Result<()>,
        op: impl FnOnce(&mut TcpStream) -> io::Result<T>,
    ) -> io::Result<T> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        let result = if left.is_zero() {
            Err(ErrorKind::TimedOut.into())
        } else {
            set(&self.sock, Some(left)).and_then(|()| op(&mut self.sock))
        };
        result.map_err(|e| match e.kind() {
            ErrorKind::WouldBlock | ErrorKind::TimedOut => {
                self.expired = true;
                ErrorKind::TimedOut.into()
            }
            _ => e,
        })
    }
}

impl Read for Timed {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.within(TcpStream::set_read_timeout, |sock| sock.read(buf))
    }
}

impl Write for Timed {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.within(TcpStream::set_write_timeout, |sock| sock.write(buf))
    }

    fn flush(&mut self) -> io::Result<()> {
        self.sock.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A connected pair: (client, accepted server side), both with a
    /// 60 s stage.
    fn pair() -> (Timed, Timed) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = Timed::connect(listener.local_addr().unwrap(), Duration::from_secs(60));
        let (server, _) = listener.accept().unwrap();
        (
            client.unwrap(),
            Timed::new(server, Duration::from_secs(60)).unwrap(),
        )
    }

    /// A spent stage is `TimedOut` for reads and writes alike, never the
    /// `InvalidInput` std gives a zero timeout, whether no time is left
    /// when the socket is armed (zero) or the socket runs out (1 ns, armed
    /// as std's shortest timeout); a restarted stage works again.
    #[test]
    fn a_spent_stage_is_timed_out_never_invalid_input() {
        let (mut client, mut server) = pair();
        for limit in [Duration::ZERO, Duration::from_nanos(1)] {
            client.restart(limit);
            server.restart(limit);
            let read = server.read(&mut [0u8; 8]).unwrap_err();
            assert_eq!(read.kind(), ErrorKind::TimedOut, "read, {limit:?}");
            assert!(server.expired());
            let mut write = Ok(0);
            // Until the socket's buffer fills, a 1 ns stage may still write.
            while write.is_ok() {
                write = client.write(&[0u8; 1 << 16]);
            }
            assert_eq!(
                write.unwrap_err().kind(),
                ErrorKind::TimedOut,
                "write, {limit:?}"
            );
            assert!(client.expired());
        }
        let (mut client, mut server) = pair();
        server.restart(Duration::ZERO);
        assert!(server.read(&mut [0u8; 1]).is_err());
        server.restart(Duration::from_secs(5));
        assert!(!server.expired());
        client.write_all(b"x").unwrap();
        assert_eq!(server.read(&mut [0u8; 1]).unwrap(), 1);
    }

    /// The server's read path: a request line trickled one byte every
    /// 100 ms, so no single read waits long, still ends at its 300 ms stage.
    #[test]
    fn a_trickled_request_read_ends_at_the_stage_deadline() {
        use crate::framing::{loopback_pair, Framing, Http};
        use crate::http::HttpError;
        let (mut client, mut server) = loopback_pair();
        std::thread::spawn(move || {
            for byte in b"GET /a-path-that-takes-seconds-to-arrive HTTP/1.1\r\n" {
                if client.get_mut().write_all(&[*byte]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        });
        server.get_mut().restart(Duration::from_millis(300));
        let started = Instant::now();
        let read = Http::read_request(&mut server);
        let took = started.elapsed();
        assert!(
            matches!(&read, Err(HttpError::Io(e)) if e.kind() == ErrorKind::TimedOut),
            "{read:?}"
        );
        assert!(server.get_ref().expired());
        assert!(took < Duration::from_millis(600), "the read took {took:?}");
    }
}
