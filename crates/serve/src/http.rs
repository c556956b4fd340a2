//! HTTP/1.1 requests in, responses out.
//!
//! Framing is not written here: [`RequestParser`] is a thin wrapper over the
//! shared push framer in [`sigcomp_fabric::framing`], the same rules the
//! fabric client reads responses with — one head scanner (CRLF or bare LF,
//! one head-byte cap, `name: value` validation) and one strict
//! `Content-Length` body framer (`1*DIGIT`, repeats must agree, chunked
//! transfer encoding refused, 1 MiB request-body cap). Every failure is an
//! [`HttpError`] with the 4xx status the reactor answers it with. The
//! parser accepts raw socket bytes in whatever fragments the kernel
//! delivers, tolerates a request split at any byte boundary, and yields
//! multiple pipelined requests buffered in one read — exactly what the
//! nonblocking reactor ([`crate::reactor`]) needs.
//!
//! Keep-alive is **opt-in**: [`Response::to_bytes`] emits
//! `Connection: keep-alive` only when the server decided to hold the
//! connection open, and `Connection: close` otherwise, so a client that
//! never asked for reuse (and reads to EOF) still sees the stream end.

use sigcomp_fabric::framing::{Framer, RequestLine};
use sigcomp_obs::json::{Layout, Writer};
use std::fmt::Write as _;

pub use sigcomp_fabric::framing::HttpError;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), as sent.
    pub method: String,
    /// Request target, e.g. `/simulate`. Query strings are not split off.
    pub path: String,
    /// Header name/value pairs in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The value of header `name` (ASCII case-insensitive), if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// True when the client explicitly asked to keep the connection open
    /// (`Connection: keep-alive`, possibly in a comma-separated list).
    ///
    /// The server's reuse policy is opt-in rather than the HTTP/1.1
    /// default-on: a client that reads responses to EOF would hang on a
    /// silently persistent connection. Clients that speak `Content-Length`
    /// framing (the fabric client, `load_gen`'s keep-alive mode) send the
    /// header and get reuse.
    #[must_use]
    pub fn wants_keep_alive(&self) -> bool {
        self.header("connection").is_some_and(|v| {
            v.split(',')
                .any(|token| token.trim().eq_ignore_ascii_case("keep-alive"))
        })
    }
}

/// An incremental (push) HTTP/1.1 request parser.
///
/// Feed raw socket bytes with [`RequestParser::push`]; drain complete
/// requests with [`RequestParser::next_request`]. After an `Err` the
/// connection's framing is lost and unrecoverable: the caller must answer
/// with the error's status and close.
#[derive(Debug, Default)]
pub struct RequestParser {
    framer: Framer<RequestLine>,
}

impl RequestParser {
    /// A fresh parser with an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        RequestParser::default()
    }

    /// Appends raw bytes received from the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        self.framer.push(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete request — nonzero
    /// means the peer is mid-request (the reactor's slowloris signal).
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.framer.buffered()
    }

    /// Tries to parse one complete request off the front of the buffer.
    ///
    /// `Ok(None)` means the buffered bytes are a valid prefix — push more.
    /// Pipelined requests are returned one per call, in arrival order.
    ///
    /// # Errors
    ///
    /// Any [`HttpError`] other than [`HttpError::Closed`]: malformed or
    /// oversized framing, detected as soon as the offending line completes.
    pub fn next_request(&mut self) -> Result<Option<Request>, HttpError> {
        Ok(self.framer.next_message()?.map(|message| Request {
            method: message.start.method,
            path: message.start.target,
            headers: message.headers,
            body: message.body,
        }))
    }

    /// The error to report when the peer hangs up after
    /// [`RequestParser::next_request`] returned `Ok(None)`: a clean EOF
    /// between requests is [`HttpError::Closed`]; EOF mid-head or mid-body
    /// names what was truncated.
    pub fn closed(&mut self) -> HttpError {
        self.framer.closed()
    }
}

/// An outgoing response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes (always JSON in this server).
    pub body: String,
    /// When set, emitted as a `Retry-After: <seconds>` header — the
    /// load-shedding contract: a shed client learns *when* to come back
    /// instead of guessing.
    pub retry_after: Option<u64>,
}

impl Response {
    /// A JSON response with the given status.
    #[must_use]
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            body: body.into(),
            retry_after: None,
        }
    }

    /// Adds a `Retry-After: <seconds>` header to the response.
    #[must_use]
    pub fn with_retry_after(mut self, seconds: u64) -> Self {
        self.retry_after = Some(seconds);
        self
    }

    /// A JSON error response: `{"error": "<message>"}` with the message
    /// escaped.
    #[must_use]
    pub fn error(status: u16, message: &str) -> Self {
        let mut body = String::new();
        let mut w = Writer::new(&mut body);
        w.object(Layout::Inline).key("error").str(message).end();
        body.push('\n');
        Response::json(status, body)
    }

    /// The reactor's read-deadline answer: a connection sat past its
    /// deadline with a partial request buffered (the slowloris shape), so it
    /// gets `408 Request Timeout` and the connection closes.
    #[must_use]
    pub fn request_timeout() -> Self {
        Response::error(408, "request read deadline exceeded")
    }

    /// The accept-gate's shed answer at the connection cap: a fast `503`
    /// telling the client when to retry, written before the socket closes —
    /// the batch queue's load-shedding contract extended to the socket
    /// layer.
    #[must_use]
    pub fn connection_cap(retry_after_secs: u64) -> Self {
        Response::error(503, "connection limit reached").with_retry_after(retry_after_secs)
    }

    /// The full serialized response — status line, `Content-Type`,
    /// `Content-Length`, the connection disposition, any `Retry-After`,
    /// body — as the reactor's write buffer. `keep_alive` says
    /// `Connection: keep-alive` (the server keeps serving this connection)
    /// rather than `Connection: close` (it hangs up after the body).
    #[must_use]
    pub fn to_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let mut out = String::with_capacity(self.body.len() + 128);
        let _ = write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            status_text(self.status),
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        if let Some(seconds) = self.retry_after {
            let _ = write!(out, "Retry-After: {seconds}\r\n");
        }
        out.push_str("\r\n");
        out.push_str(&self.body);
        out.into_bytes()
    }
}

/// The canonical reason phrase for the status codes this server emits.
#[must_use]
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigcomp_fabric::framing::{MAX_HEAD_BYTES, MAX_REQUEST_BODY_BYTES};

    /// One request from a closed stream holding exactly `input`.
    fn parse(input: &[u8]) -> Result<Request, HttpError> {
        let mut parser = RequestParser::new();
        parser.push(input);
        match parser.next_request()? {
            Some(request) => Ok(request),
            None => Err(parser.closed()),
        }
    }

    #[test]
    fn parses_a_post_with_body() {
        let req =
            parse(b"POST /simulate HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/simulate");
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn parses_a_get_without_body_and_bare_lf() {
        let req = parse(b"GET /healthz HTTP/1.1\nHost: x\n\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn clean_eof_reads_as_closed() {
        assert_eq!(parse(b"").unwrap_err(), HttpError::Closed);
    }

    #[test]
    fn truncated_headers_are_rejected() {
        for truncated in [
            &b"GET /x HTTP/1.1"[..],           // EOF mid request line
            b"GET /x HTTP/1.1\r\nHost: x",     // EOF mid header
            b"GET /x HTTP/1.1\r\nHost: x\r\n", // EOF before blank line
        ] {
            let err = parse(truncated).unwrap_err();
            assert!(
                matches!(err, HttpError::Malformed(_)),
                "{truncated:?} gave {err:?}"
            );
            assert_eq!(err.status(), 400);
        }
    }

    #[test]
    fn malformed_request_lines_are_rejected() {
        for bad in [
            &b"\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET /x\r\n\r\n",
            b"GET /x HTTP/2 extra\r\n\r\n",
            b"GET x HTTP/1.1\r\n\r\n",
            b"GET /x FTP/1.1\r\n\r\n",
        ] {
            let err = parse(bad).unwrap_err();
            assert!(
                matches!(err, HttpError::Malformed(_)),
                "{bad:?} gave {err:?}"
            );
        }
    }

    #[test]
    fn malformed_headers_are_rejected() {
        let err = parse(b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n").unwrap_err();
        assert_eq!(err, HttpError::Malformed("header line without ':'"));
        let err = parse(b"GET /x HTTP/1.1\r\nbad name: v\r\n\r\n").unwrap_err();
        assert_eq!(err, HttpError::Malformed("malformed header name"));
        let err = parse(b"GET /x HTTP/1.1\r\nHost: \xff\xfe\r\n\r\n").unwrap_err();
        assert_eq!(err, HttpError::Malformed("header line is not UTF-8"));
    }

    #[test]
    fn bad_content_length_is_rejected() {
        let err = parse(b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n").unwrap_err();
        assert_eq!(err, HttpError::Malformed("invalid content-length"));
        assert_eq!(err.status(), 400);
        let err = parse(b"POST /x HTTP/1.1\r\nContent-Length: -1\r\n\r\n").unwrap_err();
        assert_eq!(err, HttpError::Malformed("invalid content-length"));
        // `1*DIGIT` only: a sign is not part of the grammar.
        let err = parse(b"POST /x HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello").unwrap_err();
        assert_eq!(err, HttpError::Malformed("invalid content-length"));
        // The request-smuggling shape: repeats that disagree on where the
        // body ends.
        let err =
            parse(b"POST /x HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 10\r\n\r\nabcdefghij")
                .unwrap_err();
        assert_eq!(
            err,
            HttpError::Malformed("conflicting content-length headers")
        );
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn missing_content_length_on_post_is_rejected() {
        let err = parse(b"POST /x HTTP/1.1\r\n\r\n").unwrap_err();
        assert_eq!(err, HttpError::LengthRequired);
        assert_eq!(err.status(), 411);
    }

    #[test]
    fn oversized_bodies_are_rejected_without_reading_them() {
        let request = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_REQUEST_BODY_BYTES + 1
        );
        let err = parse(request.as_bytes()).unwrap_err();
        assert_eq!(err, HttpError::BodyTooLarge);
        assert_eq!(err.status(), 413);
    }

    #[test]
    fn short_bodies_are_rejected() {
        let err = parse(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nonly4").unwrap_err();
        assert_eq!(
            err,
            HttpError::Malformed("body shorter than content-length")
        );
    }

    #[test]
    fn oversized_headers_are_rejected() {
        let huge = format!(
            "GET /x HTTP/1.1\r\nX-Fill: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES)
        );
        let err = parse(huge.as_bytes()).unwrap_err();
        assert_eq!(err, HttpError::HeadTooLarge);
        assert_eq!(err.status(), 431);
        // An endless single line (no terminator at all) must also hit the
        // limit rather than buffering forever.
        let endless = format!("GET /x{}", "a".repeat(MAX_HEAD_BYTES * 2));
        let err = parse(endless.as_bytes()).unwrap_err();
        assert_eq!(err, HttpError::HeadTooLarge);
    }

    #[test]
    fn chunked_encoding_is_rejected() {
        let err = parse(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err();
        assert_eq!(
            err,
            HttpError::Malformed("chunked transfer encoding is not supported")
        );
    }

    // ---- incremental-parser hardening ------------------------------------

    #[test]
    fn requests_split_at_every_byte_boundary_parse_identically() {
        let wire = b"POST /simulate HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody";
        let whole = parse(wire).unwrap();
        for split in 0..=wire.len() {
            let mut parser = RequestParser::new();
            parser.push(&wire[..split]);
            if split < wire.len() {
                // A valid prefix must never error or yield a request early.
                assert_eq!(
                    parser.next_request().expect("prefix is valid"),
                    None,
                    "split at {split} yielded a request early"
                );
            }
            parser.push(&wire[split..]);
            let req = parser
                .next_request()
                .unwrap_or_else(|e| panic!("split at {split}: {e}"))
                .unwrap_or_else(|| panic!("split at {split}: incomplete"));
            assert_eq!(req, whole, "split at {split}");
            assert_eq!(parser.buffered(), 0);
        }
    }

    #[test]
    fn two_pipelined_requests_in_one_push_parse_in_order() {
        let mut parser = RequestParser::new();
        parser.push(
            b"POST /simulate HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc\
              GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
        );
        let first = parser.next_request().unwrap().expect("first request");
        assert_eq!(first.method, "POST");
        assert_eq!(first.body, b"abc");
        let second = parser.next_request().unwrap().expect("second request");
        assert_eq!(second.method, "GET");
        assert_eq!(second.path, "/healthz");
        assert_eq!(parser.next_request().unwrap(), None);
        assert_eq!(parser.buffered(), 0);
    }

    #[test]
    fn pipelined_lf_only_requests_parse() {
        // CRLF-only robustness: a peer that terminates every line with a
        // bare LF still frames correctly, including across pipelining.
        let mut parser = RequestParser::new();
        parser.push(b"GET /healthz HTTP/1.1\nHost: a\n\nGET /metrics HTTP/1.1\n\n");
        assert_eq!(parser.next_request().unwrap().unwrap().path, "/healthz");
        assert_eq!(parser.next_request().unwrap().unwrap().path, "/metrics");
        assert_eq!(parser.next_request().unwrap(), None);
    }

    #[test]
    fn partial_bytes_report_truncation_on_close() {
        let mut parser = RequestParser::new();
        assert_eq!(parser.closed(), HttpError::Closed);
        parser.push(b"GET /x HT");
        assert_eq!(parser.next_request().unwrap(), None);
        assert_eq!(
            parser.closed(),
            HttpError::Malformed("connection closed inside headers")
        );
        let mut parser = RequestParser::new();
        parser.push(b"POST /x HTTP/1.1\r\nContent-Length: 8\r\n\r\nhalf");
        assert_eq!(parser.next_request().unwrap(), None);
        assert_eq!(
            parser.closed(),
            HttpError::Malformed("body shorter than content-length")
        );
    }

    #[test]
    fn connection_header_negotiates_keep_alive() {
        let keep = parse(b"GET /x HTTP/1.1\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(keep.wants_keep_alive());
        let mixed = parse(b"GET /x HTTP/1.1\r\nConnection: TE, Keep-Alive\r\n\r\n").unwrap();
        assert!(mixed.wants_keep_alive());
        let close = parse(b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!close.wants_keep_alive());
        let none = parse(b"GET /x HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert!(!none.wants_keep_alive(), "keep-alive must be opt-in");
    }

    // ---- responses -------------------------------------------------------

    #[test]
    fn responses_serialize_with_framing() {
        let out = Response::json(200, "{\"ok\": true}").to_bytes(false);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 12\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\": true}"));

        let out = Response::error(400, "broke \"here\"").to_bytes(false);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("400 Bad Request"));
        assert!(text.contains("{\"error\": \"broke \\\"here\\\"\"}"));
    }

    #[test]
    fn keep_alive_responses_say_so() {
        let text = String::from_utf8(Response::json(200, "{}").to_bytes(true)).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        let text = String::from_utf8(Response::json(200, "{}").to_bytes(false)).unwrap();
        assert!(text.contains("Connection: close\r\n"), "{text}");
    }

    #[test]
    fn named_timeout_and_cap_responses_serialize() {
        // 408: the slowloris verdict.
        let text = String::from_utf8(Response::request_timeout().to_bytes(false)).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 408 Request Timeout\r\n"),
            "{text}"
        );
        assert!(text.contains("read deadline"), "{text}");
        // 503 at the connection cap carries the retry hint.
        let text = String::from_utf8(Response::connection_cap(3).to_bytes(false)).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{text}"
        );
        assert!(text.contains("Retry-After: 3\r\n"), "{text}");
        // 431: the oversized-head verdict, with its full reason phrase.
        let oversized = Response::error(
            HttpError::HeadTooLarge.status(),
            &HttpError::HeadTooLarge.to_string(),
        );
        let text = String::from_utf8(oversized.to_bytes(false)).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"),
            "{text}"
        );
    }

    #[test]
    fn retry_after_is_emitted_as_a_header() {
        let out = Response::error(503, "overloaded")
            .with_retry_after(2)
            .to_bytes(false);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"), "{text}");
        // The header block still terminates correctly before the body.
        assert!(text.contains("\r\n\r\n{\"error\""), "{text}");

        let text = String::from_utf8(Response::json(200, "{}").to_bytes(false)).unwrap();
        assert!(!text.contains("Retry-After"), "{text}");
    }
}
