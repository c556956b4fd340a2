//! A minimal std-only HTTP/1.1 client — the fabric's outbound half,
//! mirroring the hand-rolled server in `sigcomp-serve`.
//!
//! The client keeps **one pooled keep-alive connection per peer address**:
//! requests send `Connection: keep-alive`, and a [`ResponseParser`] reads
//! each response by the shared [`crate::framing`] rules, so a response is
//! framed by its `Content-Length` exactly as the server frames a request. A
//! missing or garbled `Content-Length` is a named `InvalidData` error, never
//! a read to EOF. A worker heartbeating every couple of seconds therefore
//! costs one TCP connection for its whole life. When a pooled connection
//! turns out to be stale (the server idle-closed it between exchanges), the
//! exchange is retried once on a fresh connection; errors on that fresh
//! connection propagate. A connect timeout, per-operation read/write
//! timeouts, and the framing's head and body caps bound every exchange.

use crate::framing::{Framer, HttpError, Message, StatusLine};
use std::collections::HashMap;
use std::io::{self, Read, Write as _};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A parsed HTTP response.
#[derive(Debug)]
pub struct HttpResponse {
    /// Status code from the response line.
    pub status: u16,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body, decoded as (lossy) UTF-8 — every fleet payload is text.
    pub body: String,
}

impl HttpResponse {
    /// The first header named `name` (case-insensitive), if any.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

impl From<Message<StatusLine>> for HttpResponse {
    fn from(message: Message<StatusLine>) -> Self {
        HttpResponse {
            status: message.start.status,
            headers: message.headers,
            body: String::from_utf8(message.body)
                .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned()),
        }
    }
}

/// An incremental HTTP/1.1 response parser over one connection. Bytes read
/// past a response stay buffered for the next call, so a pipelining client
/// reads its responses back in order through one parser.
#[derive(Debug, Default)]
pub struct ResponseParser {
    framer: Framer<StatusLine>,
}

impl ResponseParser {
    /// A fresh parser with an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        ResponseParser::default()
    }

    /// Bytes buffered past the last response returned.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.framer.buffered()
    }

    /// Reads from `reader` until one whole response is framed.
    ///
    /// # Errors
    ///
    /// The reader's own I/O error; `UnexpectedEof` when the peer closed
    /// before sending a byte of the response; `InvalidData` naming the
    /// framing rule a malformed, oversized or truncated response broke.
    pub fn read_response(&mut self, reader: &mut impl Read) -> io::Result<HttpResponse> {
        let invalid =
            |e: &HttpError| io::Error::new(io::ErrorKind::InvalidData, format!("response: {e}"));
        let mut chunk = [0_u8; 16 * 1024];
        loop {
            match self.framer.next_message() {
                Ok(Some(message)) => return Ok(message.into()),
                Ok(None) => {}
                Err(e) => return Err(invalid(&e)),
            }
            let n = match reader.read(&mut chunk) {
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if n == 0 {
                return Err(match self.framer.closed() {
                    HttpError::Closed => io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed before the response",
                    ),
                    e => invalid(&e),
                });
            }
            self.framer.push(&chunk[..n]);
        }
    }
}

/// A pooling keep-alive client with one timeout governing connect and every
/// read/write operation of a request.
///
/// Clones share the connection pool, so handing copies to helper threads
/// still keeps one connection per peer.
#[derive(Debug, Clone)]
pub struct HttpClient {
    timeout: Duration,
    pool: Arc<Mutex<HashMap<String, TcpStream>>>,
}

impl HttpClient {
    /// A client whose connect/read/write operations each time out after
    /// `timeout` (clamped to at least 1 ms — a zero `Duration` means
    /// "no timeout" to the socket API, the opposite of the intent).
    #[must_use]
    pub fn new(timeout: Duration) -> Self {
        HttpClient {
            timeout: timeout.max(Duration::from_millis(1)),
            pool: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// Issues `GET path` against `addr` (a `host:port` authority).
    ///
    /// # Errors
    ///
    /// Any I/O failure (unresolvable address, refused connection, timeout)
    /// or a response that does not frame as HTTP/1.x.
    pub fn get(&self, addr: &str, path: &str) -> io::Result<HttpResponse> {
        self.request("GET", addr, path, "")
    }

    /// Issues `POST path` with the given body against `addr`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`HttpClient::get`].
    pub fn post(&self, addr: &str, path: &str, body: &str) -> io::Result<HttpResponse> {
        self.request("POST", addr, path, body)
    }

    fn request(
        &self,
        method: &str,
        addr: &str,
        path: &str,
        body: &str,
    ) -> io::Result<HttpResponse> {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
            body.len()
        );
        // Try the pooled connection first. Every fleet exchange is
        // idempotent (register/heartbeat/dispatch all converge on repeat),
        // so a failure on a *reused* connection — the server idle-closed it
        // between exchanges — is retried once on a fresh one. Fresh-
        // connection failures propagate: the peer is genuinely unwell.
        if let Some(stream) = self.take_pooled(addr) {
            if let Ok(response) = self.exchange(addr, stream, request.as_bytes()) {
                return Ok(response);
            }
        }
        let stream = self.connect(addr)?;
        self.exchange(addr, stream, request.as_bytes())
    }

    /// Writes one request, reads one framed response, and pools the
    /// connection again when the server left it open with nothing stray
    /// buffered past the response.
    fn exchange(
        &self,
        addr: &str,
        mut stream: TcpStream,
        request: &[u8],
    ) -> io::Result<HttpResponse> {
        stream.write_all(request)?;
        let mut parser = ResponseParser::new();
        let response = parser.read_response(&mut stream)?;
        let closing = response
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"));
        if parser.buffered() == 0 && !closing {
            self.pool_back(addr, stream);
        }
        Ok(response)
    }

    fn connect(&self, addr: &str) -> io::Result<TcpStream> {
        let sock = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("'{addr}' resolves to no address"),
            )
        })?;
        let stream = TcpStream::connect_timeout(&sock, self.timeout)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        let _ = stream.set_nodelay(true);
        Ok(stream)
    }

    fn take_pooled(&self, addr: &str) -> Option<TcpStream> {
        self.pool.lock().expect("client pool poisoned").remove(addr)
    }

    fn pool_back(&self, addr: &str, stream: TcpStream) {
        self.pool
            .lock()
            .expect("client pool poisoned")
            .insert(addr.to_owned(), stream);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::RequestLine;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Serves `script` verbatim to one client over loopback, then closes or
    /// (with `hold_open`) keeps the connection open until the client hangs
    /// up, and returns what [`ResponseParser::read_response`] made of it.
    /// Held open, a mis-framed body read blocks until the read timeout
    /// instead of being rescued by EOF.
    fn read_scripted(script: &'static [u8], hold_open: bool) -> io::Result<HttpResponse> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            stream.write_all(script).expect("write");
            if hold_open {
                let _ = stream.read(&mut [0_u8; 1]);
            }
        });
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        let response = ResponseParser::new().read_response(&mut stream);
        drop(stream);
        peer.join().expect("peer thread");
        response
    }

    #[test]
    fn responses_parse_with_status_headers_and_body() {
        // CRLF head with a Content-Length body, then the close.
        let resp = read_scripted(
            b"HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
              Retry-After: 2\r\nContent-Length: 17\r\n\r\n{\"error\": \"full\"}",
            false,
        )
        .expect("parses");
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("retry-after"), Some("2"));
        assert_eq!(resp.header("Retry-After"), Some("2"));
        assert_eq!(resp.header("x-missing"), None);
        assert_eq!(resp.body, "{\"error\": \"full\"}");

        // CRLF head with a Content-Length body on a connection left open.
        let resp =
            read_scripted(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok", true).expect("parses");
        assert_eq!((resp.status, resp.body.as_str()), (200, "ok"));
    }

    #[test]
    fn bare_lf_heads_frame_the_body_exactly() {
        // The bare-LF blank line is shorter than CRLF's: the body starts
        // right after it, not one byte later.
        let resp =
            read_scripted(b"HTTP/1.1 200 OK\nContent-Length: 2\n\nok", true).expect("parses");
        assert_eq!((resp.status, resp.body.as_str()), (200, "ok"));
        assert_eq!(resp.header("content-length"), Some("2"));
    }

    #[test]
    fn malformed_responses_are_named_errors() {
        for (raw, needle) in [
            (&b"not http at all\r\n\r\n"[..], "not HTTP/1.x"),
            (&b"HTTP/1.1\r\n\r\n"[..], "no status code"),
            (&b"HTTP/1.1 200 OK"[..], "closed inside headers"),
            // Unframed: the close no longer frames the body.
            (
                &b"HTTP/1.1 503 Service Unavailable\r\n\r\n{}"[..],
                "content-length required",
            ),
            // A garbled length names the header instead of reading to EOF.
            (
                &b"HTTP/1.1 200 OK\r\nContent-Length: +2\r\n\r\nok"[..],
                "invalid content-length",
            ),
            (
                &b"HTTP/1.1 200 OK\r\nContent-Length: two\r\n\r\nok"[..],
                "invalid content-length",
            ),
        ] {
            let err = read_scripted(raw, false).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn dead_addresses_fail_fast_with_io_errors() {
        // Bind then drop: the port is (almost certainly) unreachable, and a
        // connection attempt must come back as an error, not a hang.
        let port = {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr").port()
        };
        let client = HttpClient::new(Duration::from_millis(500));
        assert!(client
            .get(&format!("127.0.0.1:{port}"), "/healthz")
            .is_err());
        assert!(client.get("definitely-not-a-host.invalid:1", "/").is_err());
    }

    /// A tiny keep-alive server: accepts connections (counting them), and on
    /// each serves `responses_per_conn` framed 200s before dropping the
    /// socket without warning.
    fn keepalive_server(responses_per_conn: usize) -> (String, Arc<AtomicUsize>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let accepts = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&accepts);
        std::thread::spawn(move || {
            while let Ok((mut stream, _)) = listener.accept() {
                counter.fetch_add(1, Ordering::SeqCst);
                let mut requests = Framer::<RequestLine>::new();
                let mut chunk = [0_u8; 1024];
                let mut served = 0;
                while served < responses_per_conn {
                    match requests.next_message() {
                        Ok(Some(_)) => {
                            served += 1;
                            let _ = stream.write_all(
                                b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\nok",
                            );
                        }
                        Ok(None) => match stream.read(&mut chunk) {
                            Ok(n) if n > 0 => requests.push(&chunk[..n]),
                            _ => break,
                        },
                        Err(_) => break,
                    }
                }
                // Drop the socket: an unannounced close, as an idle
                // timeout would produce.
            }
        });
        (addr, accepts)
    }

    #[test]
    fn n_heartbeats_ride_one_pooled_connection() {
        let (addr, accepts) = keepalive_server(usize::MAX);
        let client = HttpClient::new(Duration::from_secs(5));
        for i in 0..5 {
            let resp = client
                .post(&addr, "/heartbeat", &format!("beat {i}"))
                .expect("heartbeat");
            assert_eq!(resp.status, 200);
            assert_eq!(resp.body, "ok");
        }
        assert_eq!(
            accepts.load(Ordering::SeqCst),
            1,
            "five exchanges must share one connection"
        );
    }

    #[test]
    fn a_stale_pooled_connection_reconnects_transparently() {
        // The server hangs up (unannounced) after each response, exactly
        // like an idle-deadline close between heartbeats. Every request
        // must still succeed; the client just redials.
        let (addr, accepts) = keepalive_server(1);
        let client = HttpClient::new(Duration::from_secs(5));
        for _ in 0..3 {
            let resp = client.get(&addr, "/healthz").expect("get");
            assert_eq!(resp.status, 200);
        }
        assert_eq!(accepts.load(Ordering::SeqCst), 3);
    }
}
