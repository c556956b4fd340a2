//! HTTP/1.1 message framing — the one set of rules both directions share.
//!
//! The serve front door reads requests and the fabric client reads
//! responses through the same push-style [`Framer`]: raw socket bytes go in
//! through [`Framer::push`] in whatever fragments the kernel delivers, and
//! complete messages come out of [`Framer::next_message`], including
//! several pipelined messages buffered in one read. Only the start line
//! differs by direction ([`RequestLine`] or [`StatusLine`]); everything
//! else is enforced once, here:
//!
//! * lines end in CRLF, bare LF tolerated;
//! * the head (start line, headers and the blank line) is at most
//!   [`MAX_HEAD_BYTES`], checked as bytes arrive, so an endless line hits
//!   the cap rather than memory;
//! * every header line is UTF-8 `name: value` with a non-empty,
//!   whitespace-free name;
//! * bodies are framed by `Content-Length` only: `1*DIGIT`, repeats must
//!   agree, `Transfer-Encoding` is refused, and the length is capped per
//!   direction ([`StartLine::MAX_BODY_BYTES`]) before a byte of body is
//!   buffered.
//!
//! Every failure is a named [`HttpError`]. After one, the stream's framing
//! is lost: the reader must stop and close.

use std::fmt;

/// Upper bound on a message head: start line, headers and blank line.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Upper bound on a request body (a sweep spec is a few hundred bytes; a
/// megabyte is already hostile).
pub const MAX_REQUEST_BODY_BYTES: usize = 1024 * 1024;

/// Upper bound on a response body: a dispatch report for a large sweep runs
/// past a megabyte of cache-entry text, so 64 MiB is comfortably above any
/// legitimate exchange while still bounding a misbehaving peer.
pub const MAX_RESPONSE_BODY_BYTES: usize = 64 * 1024 * 1024;

/// Why a message could not be framed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The peer closed the connection between messages — not a protocol
    /// error, just the end of the conversation.
    Closed,
    /// A malformed start line, header, or body framing, or a message cut
    /// short by the peer's close.
    Malformed(&'static str),
    /// The head exceeded [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// The declared body length exceeded the direction's cap.
    BodyTooLarge,
    /// A message that carries a body arrived without `Content-Length`.
    LengthRequired,
}

impl HttpError {
    /// The HTTP status a server answers a request that failed this way with.
    #[must_use]
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Closed | HttpError::Malformed(_) => 400,
            HttpError::HeadTooLarge => 431,
            HttpError::BodyTooLarge => 413,
            HttpError::LengthRequired => 411,
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed"),
            HttpError::Malformed(why) => write!(f, "malformed message: {why}"),
            HttpError::HeadTooLarge => write!(f, "message head exceeds {MAX_HEAD_BYTES} bytes"),
            HttpError::BodyTooLarge => write!(f, "message body exceeds its size cap"),
            HttpError::LengthRequired => write!(f, "content-length required"),
        }
    }
}

impl std::error::Error for HttpError {}

/// The direction-specific half of framing: how a start line parses, how
/// large a body may be, and what a missing `Content-Length` means.
pub trait StartLine: Sized + fmt::Debug {
    /// Upper bound on a declared body length.
    const MAX_BODY_BYTES: usize;

    /// Parses the start line (terminator stripped), or names what is wrong
    /// with it.
    fn parse(line: &str) -> Result<Self, HttpError>;

    /// The body length of a message that sent no `Content-Length`, or
    /// [`HttpError::LengthRequired`] when such a message must carry one.
    fn unframed_body_len(&self) -> Result<usize, HttpError>;
}

/// A request's start line: `METHOD /target HTTP/1.x`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestLine {
    /// Request method (`GET`, `POST`, ...), as sent.
    pub method: String,
    /// Request target, e.g. `/simulate`. Query strings are not split off.
    pub target: String,
}

impl StartLine for RequestLine {
    const MAX_BODY_BYTES: usize = MAX_REQUEST_BODY_BYTES;

    fn parse(line: &str) -> Result<Self, HttpError> {
        let mut parts = line.split(' ');
        let method = parts.next().unwrap_or_default();
        let target = parts
            .next()
            .ok_or(HttpError::Malformed("request line is missing the target"))?;
        let version = parts
            .next()
            .ok_or(HttpError::Malformed("request line is missing the version"))?;
        if parts.next().is_some() || !version.starts_with("HTTP/1.") {
            return Err(HttpError::Malformed("malformed request line"));
        }
        if method.is_empty() || !target.starts_with('/') {
            return Err(HttpError::Malformed("malformed request target"));
        }
        Ok(RequestLine {
            method: method.to_owned(),
            target: target.to_owned(),
        })
    }

    /// Body-carrying methods must declare their length; the rest have none.
    fn unframed_body_len(&self) -> Result<usize, HttpError> {
        match self.method.as_str() {
            "POST" | "PUT" | "PATCH" => Err(HttpError::LengthRequired),
            _ => Ok(0),
        }
    }
}

/// A response's start line: `HTTP/1.x STATUS reason`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatusLine {
    /// The status code.
    pub status: u16,
}

impl StartLine for StatusLine {
    const MAX_BODY_BYTES: usize = MAX_RESPONSE_BODY_BYTES;

    fn parse(line: &str) -> Result<Self, HttpError> {
        if !line.starts_with("HTTP/1.") {
            return Err(HttpError::Malformed("response is not HTTP/1.x"));
        }
        let status = line
            .split(' ')
            .nth(1)
            .and_then(|code| code.parse().ok())
            .ok_or(HttpError::Malformed("response line carries no status code"))?;
        Ok(StatusLine { status })
    }

    /// Every server in this workspace frames its responses, so an
    /// unframed one is an error rather than a read to EOF.
    fn unframed_body_len(&self) -> Result<usize, HttpError> {
        Err(HttpError::LengthRequired)
    }
}

/// One complete framed message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message<S> {
    /// The parsed start line.
    pub start: S,
    /// Header name/value pairs in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Exactly `Content-Length` body bytes.
    pub body: Vec<u8>,
}

/// An incremental (push) HTTP/1.1 message framer for one direction.
///
/// Head lines are validated as soon as their terminator arrives, and a
/// completed line is never scanned again.
#[derive(Debug)]
pub struct Framer<S> {
    buf: Vec<u8>,
    /// Where the current message starts in `buf`.
    start: usize,
    /// Where the next unscanned head line starts; the body start once the
    /// head is complete.
    line: usize,
    start_line: Option<S>,
    headers: Vec<(String, String)>,
    content_length: Option<usize>,
    /// The body length, set once the head's blank line has been seen.
    body_len: Option<usize>,
}

impl<S> Default for Framer<S> {
    fn default() -> Self {
        Framer {
            buf: Vec::new(),
            start: 0,
            line: 0,
            start_line: None,
            headers: Vec::new(),
            content_length: None,
            body_len: None,
        }
    }
}

impl<S: StartLine> Framer<S> {
    /// A fresh framer with an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Framer::default()
    }

    /// Appends raw bytes received from the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.start > 0 {
            // Drop consumed messages before growing, so pipelined traffic
            // moves each leftover byte once per push, not once per message.
            self.buf.drain(..self.start);
            self.line -= self.start;
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete message — nonzero
    /// means the peer is mid-message.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Takes one complete message off the front of the buffer.
    ///
    /// `Ok(None)` means the buffered bytes are a valid prefix — push more.
    /// Pipelined messages are returned one per call, in arrival order.
    ///
    /// # Errors
    ///
    /// Any [`HttpError`] other than [`HttpError::Closed`], detected as soon
    /// as the offending line completes.
    pub fn next_message(&mut self) -> Result<Option<Message<S>>, HttpError> {
        let Some(body_len) = self.scan_head()? else {
            return Ok(None);
        };
        let end = self.line + body_len;
        if self.buf.len() < end {
            return Ok(None);
        }
        let message = Message {
            start: self
                .start_line
                .take()
                .expect("a scanned head has a start line"),
            headers: std::mem::take(&mut self.headers),
            body: self.buf[self.line..end].to_vec(),
        };
        self.content_length = None;
        self.body_len = None;
        if end == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else {
            self.start = end;
        }
        self.line = self.start;
        Ok(Some(message))
    }

    /// The error to report when the peer hangs up after
    /// [`Framer::next_message`] returned `Ok(None)`: a clean close between
    /// messages is [`HttpError::Closed`]; a close mid-head or mid-body names
    /// what was truncated.
    pub fn closed(&mut self) -> HttpError {
        if self.buffered() == 0 {
            return HttpError::Closed;
        }
        match self.scan_head() {
            Ok(Some(_)) => HttpError::Malformed("body shorter than content-length"),
            Ok(None) => HttpError::Malformed("connection closed inside headers"),
            Err(e) => e,
        }
    }

    /// Scans head lines from where the last call stopped. Returns the body
    /// length once the blank line has arrived, `None` while the head is
    /// still incomplete.
    fn scan_head(&mut self) -> Result<Option<usize>, HttpError> {
        if self.body_len.is_some() {
            return Ok(self.body_len);
        }
        loop {
            let Some(nl) = self.buf[self.line..].iter().position(|&b| b == b'\n') else {
                return if self.buf.len() - self.start > MAX_HEAD_BYTES {
                    Err(HttpError::HeadTooLarge)
                } else {
                    Ok(None)
                };
            };
            let next = self.line + nl + 1;
            if next - self.start > MAX_HEAD_BYTES {
                return Err(HttpError::HeadTooLarge);
            }
            let raw = &self.buf[self.line..next - 1];
            let raw = raw.strip_suffix(b"\r").unwrap_or(raw);
            let text = std::str::from_utf8(raw)
                .map_err(|_| HttpError::Malformed("header line is not UTF-8"))?;
            self.line = next;
            let Some(start_line) = &self.start_line else {
                if text.is_empty() {
                    return Err(HttpError::Malformed("empty start line"));
                }
                self.start_line = Some(S::parse(text)?);
                continue;
            };
            if text.is_empty() {
                let len = match self.content_length {
                    Some(len) => len,
                    None => start_line.unframed_body_len()?,
                };
                self.body_len = Some(len);
                return Ok(Some(len));
            }
            let (name, value) = text
                .split_once(':')
                .ok_or(HttpError::Malformed("header line without ':'"))?;
            if name.is_empty() || name.bytes().any(|b| b.is_ascii_whitespace()) {
                return Err(HttpError::Malformed("malformed header name"));
            }
            let value = value.trim();
            if name.eq_ignore_ascii_case("transfer-encoding") {
                return Err(HttpError::Malformed(
                    "chunked transfer encoding is not supported",
                ));
            }
            if name.eq_ignore_ascii_case("content-length") {
                let len = content_length(value)?;
                if self.content_length.is_some_and(|seen| seen != len) {
                    return Err(HttpError::Malformed("conflicting content-length headers"));
                }
                if len > S::MAX_BODY_BYTES {
                    return Err(HttpError::BodyTooLarge);
                }
                self.content_length = Some(len);
            }
            self.headers
                .push((name.to_ascii_lowercase(), value.to_owned()));
        }
    }
}

/// `Content-Length = 1*DIGIT`: no sign, no spaces inside, no list.
fn content_length(value: &str) -> Result<usize, HttpError> {
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return Err(HttpError::Malformed("invalid content-length"));
    }
    // All digits: the only parse failure left is overflow, which is a
    // length past any cap.
    value.parse().map_err(|_| HttpError::BodyTooLarge)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds `wire` in two pushes split at `split`, draining after each,
    /// then closes the stream: the messages framed, and how the stream ended
    /// (`Closed` for a clean end between messages).
    fn frame<S: StartLine>(wire: &[u8], split: usize) -> (Vec<Message<S>>, HttpError) {
        let mut framer = Framer::<S>::new();
        let mut messages = Vec::new();
        for part in [&wire[..split], &wire[split..]] {
            framer.push(part);
            loop {
                match framer.next_message() {
                    Ok(Some(message)) => messages.push(message),
                    Ok(None) => break,
                    Err(e) => return (messages, e),
                }
            }
        }
        (messages, framer.closed())
    }

    /// Asserts that every split of `wire` frames exactly like the unsplit
    /// buffer, and returns that outcome as one line per message plus the
    /// end. Heads near the 16 KiB cap are split at every boundary of their
    /// first and last 512 bytes (start line, cap-crossing terminator, body)
    /// and every 61st byte of the filler between, which keeps the quadratic
    /// sweep fast in debug builds.
    fn frame_at_every_split<S: StartLine + PartialEq>(
        wire: &[u8],
        describe: fn(&Message<S>) -> String,
    ) -> (Vec<String>, HttpError) {
        let whole = frame::<S>(wire, wire.len());
        let edge = 512;
        for split in 0..wire.len() {
            let in_filler = split > edge && split + edge < wire.len();
            if in_filler && split % 61 != 0 {
                continue;
            }
            assert_eq!(frame::<S>(wire, split), whole, "split at {split}");
        }
        (whole.0.iter().map(describe).collect(), whole.1)
    }

    /// A head of exactly `total` bytes: `start`, one filler header, and the
    /// blank line.
    fn head_of_len(start: &str, total: usize) -> Vec<u8> {
        let fill = total - start.len() - "X-Fill: \r\n\r\n".len();
        format!("{start}X-Fill: {}\r\n\r\n", "a".repeat(fill)).into_bytes()
    }

    #[test]
    fn requests_and_responses_frame_identically_at_every_split() {
        use HttpError::{BodyTooLarge, Closed, HeadTooLarge, LengthRequired, Malformed};
        let cap = MAX_HEAD_BYTES;
        let inside_head = Malformed("connection closed inside headers");
        let short_body = Malformed("body shorter than content-length");
        let bad_length = Malformed("invalid content-length");
        let conflict = Malformed("conflicting content-length headers");

        let get_cap = "GET /cap HTTP/1.1\r\n";
        let requests: [(Vec<u8>, &[&str], HttpError); 11] = [
            (
                b"POST /simulate HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody".to_vec(),
                &["POST /simulate body"],
                Closed,
            ),
            (
                b"GET /a HTTP/1.1\nHost: x\n\nPOST /b HTTP/1.1\nContent-Length: 2\n\nok\
                  GET /c HTTP/1.1\r\n\r\n"
                    .to_vec(),
                &["GET /a ", "POST /b ok", "GET /c "],
                Closed,
            ),
            (head_of_len(get_cap, cap), &["GET /cap "], Closed),
            (head_of_len(get_cap, cap + 1), &[], HeadTooLarge),
            (
                format!(
                    "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                    MAX_REQUEST_BODY_BYTES + 1
                )
                .into_bytes(),
                &[],
                BodyTooLarge,
            ),
            (
                b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nHost".to_vec(),
                &["GET /a "],
                inside_head.clone(),
            ),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: 9\r\n\r\nshort".to_vec(),
                &[],
                short_body.clone(),
            ),
            // Content-Length is 1*DIGIT, and repeats must agree.
            (
                b"POST /x HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello".to_vec(),
                &[],
                bad_length.clone(),
            ),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 10\r\n\r\nabcdefghij"
                    .to_vec(),
                &[],
                conflict.clone(),
            ),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: 3\r\ncontent-length: 3\r\n\r\nabc".to_vec(),
                &["POST /x abc"],
                Closed,
            ),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n".to_vec(),
                &[],
                BodyTooLarge,
            ),
        ];
        for (wire, messages, end) in requests {
            let (got, got_end) = frame_at_every_split::<RequestLine>(&wire, |m| {
                let body = String::from_utf8_lossy(&m.body);
                format!("{} {} {body}", m.start.method, m.start.target)
            });
            assert_eq!(got, messages);
            assert_eq!(got_end, end);
        }

        let no_content = "HTTP/1.1 204 No Content\r\nContent-Length: 0\r\n";
        let responses: [(Vec<u8>, &[&str], HttpError); 10] = [
            (
                b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok".to_vec(),
                &["200 ok"],
                Closed,
            ),
            (
                b"HTTP/1.1 200 OK\nContent-Length: 1\n\na\
                  HTTP/1.1 503 Busy\r\nRetry-After: 1\r\nContent-Length: 0\r\n\r\n"
                    .to_vec(),
                &["200 a", "503 "],
                Closed,
            ),
            (head_of_len(no_content, cap), &["204 "], Closed),
            (head_of_len(no_content, cap + 1), &[], HeadTooLarge),
            (
                format!(
                    "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n",
                    MAX_RESPONSE_BODY_BYTES + 1
                )
                .into_bytes(),
                &[],
                BodyTooLarge,
            ),
            (
                b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nok".to_vec(),
                &[],
                short_body,
            ),
            (b"HTTP/1.1 200 OK\r\nContent-Le".to_vec(), &[], inside_head),
            (
                b"HTTP/1.1 200 OK\r\n\r\nunframed".to_vec(),
                &[],
                LengthRequired,
            ),
            (
                b"HTTP/1.1 200 OK\r\nContent-Length: +2\r\n\r\nok".to_vec(),
                &[],
                bad_length,
            ),
            (
                b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nContent-Length: 10\r\n\r\nabc".to_vec(),
                &[],
                conflict,
            ),
        ];
        for (wire, messages, end) in responses {
            let (got, got_end) = frame_at_every_split::<StatusLine>(&wire, |m| {
                format!("{} {}", m.start.status, String::from_utf8_lossy(&m.body))
            });
            assert_eq!(got, messages);
            assert_eq!(got_end, end);
        }
    }
}
