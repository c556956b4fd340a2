//! A minimal std-only HTTP/1.1 client — the fabric's outbound half,
//! mirroring the hand-rolled server in `sigcomp-serve`.
//!
//! The client keeps **one pooled keep-alive connection per peer address**:
//! requests send `Connection: keep-alive`, responses are read framed by
//! their `Content-Length` (not to EOF), and the connection goes back into
//! the pool for the next exchange. A worker heartbeating every couple of
//! seconds therefore costs one TCP connection for its whole life, not one
//! per beat. Reconnection is transparent: when a pooled connection turns
//! out to be stale (the server idle-closed it between exchanges), the
//! exchange is retried once on a fresh connection; errors on that fresh
//! connection propagate. A connect timeout, per-operation read/write
//! timeouts, and a hard response-size cap bound every exchange: a stuck or
//! dead peer must turn into a timely named error, never a hang.

use std::collections::HashMap;
use std::io::{self, Read as _, Write as _};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Hard cap on response bodies: a dispatch report for a large sweep runs to
/// a few hundred KiB of cache-entry text, so 64 MiB is comfortably above
/// any legitimate exchange while still bounding a misbehaving peer.
const MAX_RESPONSE_BYTES: usize = 64 * 1024 * 1024;

/// Hard cap on response heads (status line + headers).
const MAX_HEAD_BYTES: usize = 64 * 1024;

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
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the server committed to keeping the connection open: the
    /// response is framed (`Content-Length`) and does not say
    /// `Connection: close`.
    fn reusable(&self) -> bool {
        self.header("content-length").is_some()
            && !self
                .header("connection")
                .is_some_and(|v| v.eq_ignore_ascii_case("close"))
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
    /// or a response that does not parse as HTTP/1.x.
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
        if let Some(mut stream) = self.take_pooled(addr) {
            if let Ok(response) = exchange(&mut stream, request.as_bytes()) {
                if response.reusable() {
                    self.pool_back(addr, stream);
                }
                return Ok(response);
            }
        }
        let mut stream = self.connect(addr)?;
        let response = exchange(&mut stream, request.as_bytes())?;
        if response.reusable() {
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

/// Writes one request and reads one framed response off the stream.
fn exchange(stream: &mut TcpStream, request: &[u8]) -> io::Result<HttpResponse> {
    stream.write_all(request)?;
    read_response(stream)
}

/// Reads exactly one response: head until the blank line, then a body of
/// exactly `Content-Length` bytes (or to EOF when the server did not frame
/// it — such a response is terminal for the connection and never pooled).
fn read_response(stream: &mut TcpStream) -> io::Result<HttpResponse> {
    let bad = |reason: &str| io::Error::new(io::ErrorKind::InvalidData, reason.to_owned());
    let mut raw = Vec::new();
    let mut buf = [0_u8; 16 * 1024];
    let (head_end, body_start) = loop {
        if let Some(found) = find_blank_line(&raw) {
            break found;
        }
        if raw.len() > MAX_HEAD_BYTES {
            return Err(bad("response head exceeds the size cap"));
        }
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(if raw.is_empty() {
                io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before the response",
                )
            } else {
                bad("connection closed inside the response head")
            });
        }
        raw.extend_from_slice(&buf[..n]);
    };
    let head = String::from_utf8_lossy(&raw[..head_end]).into_owned();
    let (status, headers) = parse_head(&head)?;
    let content_length: Option<usize> = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse().ok());
    let mut body = raw.split_off(body_start);
    match content_length {
        Some(len) => {
            if len > MAX_RESPONSE_BYTES {
                return Err(bad("response body exceeds the size cap"));
            }
            while body.len() < len {
                let n = stream.read(&mut buf)?;
                if n == 0 {
                    return Err(bad("connection closed inside the response body"));
                }
                body.extend_from_slice(&buf[..n]);
            }
            body.truncate(len);
        }
        None => {
            // Unframed: the close is the frame. Read to EOF (bounded).
            loop {
                if body.len() > MAX_RESPONSE_BYTES {
                    return Err(bad("response body exceeds the size cap"));
                }
                let n = stream.read(&mut buf)?;
                if n == 0 {
                    break;
                }
                body.extend_from_slice(&buf[..n]);
            }
        }
    }
    Ok(HttpResponse {
        status,
        headers,
        body: String::from_utf8_lossy(&body).into_owned(),
    })
}

/// Where the head ends and the body starts: the first line break followed
/// by an empty line, accepting both CRLF and bare-LF framing. The head runs
/// through that line break; the body starts after the empty line.
fn find_blank_line(raw: &[u8]) -> Option<(usize, usize)> {
    raw.iter().enumerate().find_map(|(i, &byte)| {
        if byte != b'\n' {
            return None;
        }
        match &raw[i + 1..] {
            [b'\n', ..] => Some((i + 1, i + 2)),
            [b'\r', b'\n', ..] => Some((i + 1, i + 3)),
            _ => None,
        }
    })
}

fn parse_head(head: &str) -> io::Result<(u16, Vec<(String, String)>)> {
    let bad = |reason: &str| io::Error::new(io::ErrorKind::InvalidData, reason.to_owned());
    let mut lines = head.lines();
    let status_line = lines.next().ok_or_else(|| bad("empty response"))?;
    if !status_line.starts_with("HTTP/1.") {
        return Err(bad("response is not HTTP/1.x"));
    }
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("response line carries no status code"))?;
    let headers = lines
        .filter_map(|line| {
            line.split_once(':')
                .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_owned()))
        })
        .collect();
    Ok((status, headers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead as _, BufReader};
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Serves `script` verbatim to one client over loopback, then closes or
    /// (with `hold_open`) keeps the connection open until the client hangs
    /// up, and returns what [`read_response`] made of it. Held open, a
    /// mis-framed body read blocks until the read timeout instead of being
    /// rescued by EOF.
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
        let response = read_response(&mut stream);
        drop(stream);
        peer.join().expect("peer thread");
        response
    }

    #[test]
    fn responses_parse_with_status_headers_and_body() {
        // CRLF head; no Content-Length, so the close frames the body.
        let resp = read_scripted(
            b"HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
              Retry-After: 2\r\n\r\n{\"error\": \"full\"}",
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
            (&b"HTTP/1.1 200 OK"[..], "closed inside the response head"),
        ] {
            let err = read_scripted(raw, false).unwrap_err();
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
            while let Ok((stream, _)) = listener.accept() {
                counter.fetch_add(1, Ordering::SeqCst);
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut stream = stream;
                for _ in 0..responses_per_conn {
                    // Read one request: head lines until blank, then the
                    // Content-Length'd body.
                    let mut body_len = 0_usize;
                    let mut saw_request_line = false;
                    loop {
                        let mut line = String::new();
                        match reader.read_line(&mut line) {
                            Ok(0) => return,
                            Ok(_) => {}
                            Err(_) => return,
                        }
                        if !saw_request_line {
                            saw_request_line = true;
                            continue;
                        }
                        let trimmed = line.trim();
                        if trimmed.is_empty() {
                            break;
                        }
                        if let Some(v) =
                            trimmed.to_ascii_lowercase().strip_prefix("content-length:")
                        {
                            body_len = v.trim().parse().unwrap_or(0);
                        }
                    }
                    let mut body = vec![0_u8; body_len];
                    if body_len > 0 && std::io::Read::read_exact(&mut reader, &mut body).is_err() {
                        return;
                    }
                    let _ = stream.write_all(
                        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\nok",
                    );
                }
                // Drop both halves: an unannounced close, as an idle
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
