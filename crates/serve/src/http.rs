//! A minimal hand-rolled HTTP/1.1 layer: just enough of RFC 9112 for a
//! loopback JSON service — request parsing with size limits, keep-alive,
//! and fixed-length responses. No chunked transfer encoding, no TLS, no
//! pipelining on the server side (each request is answered before the next
//! is read; bytes read past the current request are carried over).
//!
//! Parsing is a *resumable continuation* ([`RequestParser`]): a pure
//! function of the bytes accumulated so far that either yields a complete
//! [`Request`] or asks for more. The reactor feeds it each connection's
//! receive buffer as bytes arrive; the loopback client reuses the blocking
//! accumulation helpers (`fill_until`, `fill_exact`) to read responses.

use std::io::{ErrorKind, Read};

/// The interim response sent when a client declares `Expect: 100-continue`
/// and the body has not arrived yet (curl does this for bodies over 1 KB
/// and stalls ~1s waiting for it otherwise).
pub(crate) const CONTINUE: &[u8] = b"HTTP/1.1 100 Continue\r\n\r\n";

/// Request methods the service routes. Anything else is a 400 — the
/// surface is closed-world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `GET`
    Get,
    /// `POST`
    Post,
}

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Request target as sent, query string included (the router splits
    /// path from query at dispatch time).
    pub path: String,
    /// The request body (exactly `Content-Length` bytes).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open (HTTP/1.1
    /// default, overridden by `Connection: close`).
    pub keep_alive: bool,
}

/// Why a request could not be parsed. Both are protocol errors: the
/// server answers them with an HTTP error response and closes the
/// connection.
#[derive(Debug)]
pub enum RequestError {
    /// The request head was malformed or unsupported → `400`.
    Bad(String),
    /// The declared body exceeds the configured cap → `413`. The body was
    /// not read; the connection must be closed after responding.
    TooLarge {
        /// The `Content-Length` the client declared.
        declared: u64,
        /// The configured [`Limits::max_body_bytes`].
        max: usize,
    },
}

/// Size caps enforced while reading a request.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum request-head size (request line + headers).
    pub max_header_bytes: usize,
    /// Maximum declared body size.
    pub max_body_bytes: usize,
}

/// Outcome of an accumulation read ([`fill_until`] / [`fill_exact`]).
pub(crate) enum Fill<T> {
    /// The predicate/target was satisfied.
    Done(T),
    /// The peer closed the connection before it was.
    Eof,
    /// The `on_timeout` callback asked to abandon the read.
    Aborted,
}

/// Read chunks from `stream` into `buf` until `done(buf)` yields a value.
/// `on_timeout` runs on every read-timeout tick (`WouldBlock`/`TimedOut`);
/// returning `true` abandons the read. The loopback client reads response
/// heads with it.
pub(crate) fn fill_until<T>(
    stream: &mut impl Read,
    buf: &mut Vec<u8>,
    mut done: impl FnMut(&[u8]) -> Option<T>,
    mut on_timeout: impl FnMut() -> bool,
) -> std::io::Result<Fill<T>> {
    let mut tmp = [0u8; 4096];
    loop {
        if let Some(t) = done(buf) {
            return Ok(Fill::Done(t));
        }
        match stream.read(&mut tmp) {
            Ok(0) => return Ok(Fill::Eof),
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if on_timeout() {
                    return Ok(Fill::Aborted);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Grow `buf` to exactly `target_len` bytes, reading directly into the
/// final buffer — the length is known (declared `Content-Length`), so
/// there is no scratch-buffer bounce and no incremental reallocation. On
/// `Eof`/`Aborted` the buffer is truncated back to the bytes actually
/// received.
pub(crate) fn fill_exact(
    stream: &mut impl Read,
    buf: &mut Vec<u8>,
    target_len: usize,
    mut on_timeout: impl FnMut() -> bool,
) -> std::io::Result<Fill<()>> {
    let mut filled = buf.len();
    if filled >= target_len {
        return Ok(Fill::Done(()));
    }
    buf.resize(target_len, 0);
    loop {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                buf.truncate(filled);
                return Ok(Fill::Eof);
            }
            Ok(n) => {
                filled += n;
                if filled == target_len {
                    return Ok(Fill::Done(()));
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if on_timeout() {
                    buf.truncate(filled);
                    return Ok(Fill::Aborted);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => {
                buf.truncate(filled);
                return Err(e);
            }
        }
    }
}

/// Head facts of a partially received request: everything the parser
/// learned from the request line and headers, kept as the continuation
/// state while the body is still arriving.
#[derive(Debug, Clone)]
struct ParsedHead {
    method: Method,
    path: String,
    keep_alive: bool,
    expect_continue: bool,
    /// Byte offset where the body starts (head end + `\r\n\r\n`).
    body_start: usize,
    /// Byte offset one past the body (`body_start + Content-Length`).
    body_end: usize,
}

/// What a [`RequestParser::advance`] call concluded from the bytes
/// accumulated so far.
#[derive(Debug)]
pub enum ParseStatus {
    /// The buffer does not hold a complete request yet — read more bytes
    /// and call [`RequestParser::advance`] again. When `send_continue` is
    /// set the client declared `Expect: 100-continue` and is holding the
    /// body back: write the interim `HTTP/1.1 100 Continue` response
    /// before the next read. The flag fires exactly once per request.
    NeedMore {
        /// Write the interim `100 Continue` response before reading on.
        send_continue: bool,
    },
    /// A complete request: `consumed` bytes of the buffer belong to it
    /// (head + body); everything after is pipelined surplus for the next
    /// request. The parser has reset itself for that next request.
    Ready {
        /// The parsed request.
        request: Request,
        /// How many buffer bytes this request consumed.
        consumed: usize,
    },
}

/// A resumable HTTP/1.1 request parser: feed it the connection's
/// accumulated byte buffer as often as you like ([`RequestParser::advance`]
/// is a pure function of that buffer plus the parser's continuation state)
/// and it yields a [`Request`] once the bytes are complete. The reactor's
/// per-connection state machines drive it as bytes arrive, in whatever
/// chunks the socket delivers them.
#[derive(Debug, Default)]
pub struct RequestParser {
    head: Option<ParsedHead>,
    continue_signalled: bool,
}

impl RequestParser {
    /// A parser at the start of a request.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether any part of a request head has been parsed — distinguishes
    /// "peer closed between requests" (a clean keep-alive end) from "peer
    /// closed mid-request" when EOF arrives. (An empty buffer with no
    /// parsed head is the clean case.)
    pub fn mid_body(&self) -> bool {
        self.head.is_some()
    }

    /// Inspect `buf` (the bytes received so far on this connection) and
    /// either yield a complete request or ask for more bytes.
    ///
    /// # Errors
    /// [`RequestError::Bad`] for a malformed or unsupported head,
    /// [`RequestError::TooLarge`] for a declared body over the cap; the
    /// parser is not usable for this connection afterwards (protocol
    /// errors close the connection).
    pub fn advance(&mut self, buf: &[u8], limits: &Limits) -> Result<ParseStatus, RequestError> {
        if self.head.is_none() {
            let max_head = limits.max_header_bytes;
            let head_end = match find_head_end(buf) {
                Some(pos) if pos <= max_head => pos,
                Some(_) => {
                    return Err(RequestError::Bad(format!(
                        "request head exceeds {max_head} bytes"
                    )))
                }
                None if buf.len() > max_head => {
                    return Err(RequestError::Bad(format!(
                        "request head exceeds {max_head} bytes"
                    )))
                }
                None => return Ok(ParseStatus::NeedMore { send_continue: false }),
            };
            self.head = Some(parse_head(&buf[..head_end], head_end, limits)?);
        }
        let head = self.head.as_ref().expect("head parsed above");
        if buf.len() < head.body_end {
            // an expecting client holds the body back until the interim
            // response; signal it exactly once
            let send_continue = head.expect_continue && !self.continue_signalled;
            self.continue_signalled |= send_continue;
            return Ok(ParseStatus::NeedMore { send_continue });
        }
        let head = self.head.take().expect("head parsed above");
        self.continue_signalled = false;
        let request = Request {
            method: head.method,
            path: head.path,
            body: buf[head.body_start..head.body_end].to_vec(),
            keep_alive: head.keep_alive,
        };
        Ok(ParseStatus::Ready { request, consumed: head.body_end })
    }
}

/// Parse the request line and headers (`head` is the bytes before the
/// `\r\n\r\n` terminator at offset `head_end`).
fn parse_head(head: &[u8], head_end: usize, limits: &Limits) -> Result<ParsedHead, RequestError> {
    let head = std::str::from_utf8(head)
        .map_err(|_| RequestError::Bad("request head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = match parts.next() {
        Some("GET") => Method::Get,
        Some("POST") => Method::Post,
        other => {
            return Err(RequestError::Bad(format!(
                "unsupported method {:?}",
                other.unwrap_or("")
            )))
        }
    };
    let path = parts
        .next()
        .filter(|p| !p.is_empty())
        .ok_or_else(|| RequestError::Bad("missing request target".into()))?
        .to_owned();
    let version = parts
        .next()
        .ok_or_else(|| RequestError::Bad("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(RequestError::Bad(format!("unsupported version {version:?}")));
    }
    let mut keep_alive = version != "HTTP/1.0";
    let mut content_length: Option<u64> = None;
    let mut expect_continue = false;
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| RequestError::Bad(format!("malformed header line {line:?}")))?;
        // RFC 9112 §5.1: no whitespace between field name and colon (a
        // space-tolerant intermediary would frame "Content-Length : N"
        // differently than a strict one — another smuggling vector), and no
        // leading whitespace (obsolete line folding is not supported)
        if name.is_empty() || name.trim() != name {
            return Err(RequestError::Bad(format!("malformed header name {name:?}")));
        }
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            // RFC 9112 §6.3: conflicting/duplicate Content-Length headers
            // must be rejected — honoring one of them while an intermediary
            // honors the other desynchronizes request boundaries
            if content_length.is_some() {
                return Err(RequestError::Bad("duplicate Content-Length header".into()));
            }
            // RFC 9110 `1*DIGIT` exactly: `u64::from_str` would also accept
            // a leading `+`, which a conforming intermediary rejects — the
            // same framing-disagreement class as duplicate headers
            if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                return Err(RequestError::Bad(format!("invalid Content-Length {value:?}")));
            }
            content_length = Some(
                value
                    .parse()
                    .map_err(|_| RequestError::Bad(format!("invalid Content-Length {value:?}")))?,
            );
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(RequestError::Bad("Transfer-Encoding is not supported".into()));
        } else if name.eq_ignore_ascii_case("expect") {
            if !value.eq_ignore_ascii_case("100-continue") {
                return Err(RequestError::Bad(format!("unsupported Expect {value:?}")));
            }
            expect_continue = true;
        } else if name.eq_ignore_ascii_case("connection") {
            let value = value.to_ascii_lowercase();
            if value.split(',').any(|t| t.trim() == "close") {
                keep_alive = false;
            } else if value.split(',').any(|t| t.trim() == "keep-alive") {
                keep_alive = true;
            }
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > limits.max_body_bytes as u64 {
        return Err(RequestError::TooLarge {
            declared: content_length,
            max: limits.max_body_bytes,
        });
    }
    let body_start = head_end + 4;
    Ok(ParsedHead {
        method,
        path,
        keep_alive,
        expect_continue,
        body_start,
        body_end: body_start + content_length as usize,
    })
}

/// Index of the `\r\n\r\n` head terminator, if present.
pub(crate) fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Encode one fixed-length response with an explicit content type and
/// extra headers (the log-shipping endpoints answer raw frame bytes with
/// `application/octet-stream` plus offset/generation metadata headers).
/// The reactor queues these bytes on the connection's write buffer and
/// drains them as the socket reports writability (partial writes resume
/// where they left off).
pub fn encode_response_with(
    status: u16,
    content_type: &str,
    extra_headers: &[(String, String)],
    body: &[u8],
    keep_alive: bool,
) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        status,
        reason(status),
        content_type,
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

/// Canonical reason phrase for the statuses this service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits() -> Limits {
        Limits { max_header_bytes: 1024, max_body_bytes: 64 }
    }

    /// Parse `raw` in one [`RequestParser::advance`] call, as if every byte
    /// had arrived at once; panics when the parser asks for more.
    fn read(raw: &[u8]) -> Result<Request, RequestError> {
        match RequestParser::new().advance(raw, &limits())? {
            ParseStatus::Ready { request, .. } => Ok(request),
            other => panic!("expected a complete request, got {other:?}"),
        }
    }

    /// Feed a raw request to [`RequestParser`] one byte at a time and
    /// return the request plus how many bytes it consumed — the reactor's
    /// drip-fed view of a slow client.
    fn parse_incremental(raw: &[u8]) -> Result<(Request, usize), RequestError> {
        let mut parser = RequestParser::new();
        let mut continues = 0usize;
        for end in 0..=raw.len() {
            match parser.advance(&raw[..end], &limits())? {
                ParseStatus::Ready { request, consumed } => {
                    assert!(continues <= 1, "100-continue must be signalled at most once");
                    return Ok((request, consumed));
                }
                ParseStatus::NeedMore { send_continue } => {
                    if send_continue {
                        continues += 1;
                    }
                }
            }
        }
        panic!("parser never completed on {} bytes", raw.len());
    }

    /// Raw request bytes and the expected method, path, body, keep-alive.
    type Case = (&'static [u8], Method, &'static str, &'static [u8], bool);

    #[test]
    fn incremental_parse_yields_the_expected_requests() {
        let cases: &[Case] = &[
            (b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n", Method::Get, "/healthz", b"", true),
            (
                b"POST /solve HTTP/1.1\r\nContent-Length: 4\r\n\r\n{\"a\"",
                Method::Post,
                "/solve",
                b"{\"a\"",
                true,
            ),
            (b"GET / HTTP/1.0\r\n\r\n", Method::Get, "/", b"", false),
            (
                b"POST /ingest HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\n[]",
                Method::Post,
                "/ingest",
                b"[]",
                true,
            ),
            (b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", Method::Get, "/", b"", false),
        ];
        for &(raw, method, path, body, keep_alive) in cases {
            for (request, consumed) in [
                parse_incremental(raw).expect("incremental parse"),
                (read(raw).expect("one-shot parse"), raw.len()),
            ] {
                assert_eq!(request.method, method);
                assert_eq!(request.path, path);
                assert_eq!(request.body, body);
                assert_eq!(request.keep_alive, keep_alive);
                assert_eq!(consumed, raw.len(), "whole request consumed, no surplus");
            }
        }
    }

    #[test]
    fn incremental_parse_leaves_pipelined_surplus() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let mut parser = RequestParser::new();
        let first = parser.advance(raw, &limits()).unwrap();
        let consumed = match first {
            ParseStatus::Ready { request, consumed } => {
                assert_eq!(request.path, "/a");
                consumed
            }
            other => panic!("expected Ready, got {other:?}"),
        };
        // the parser reset itself: the surplus parses as the next request
        match parser.advance(&raw[consumed..], &limits()).unwrap() {
            ParseStatus::Ready { request, consumed } => {
                assert_eq!(request.path, "/b");
                assert_eq!(consumed, raw.len() - consumed);
            }
            other => panic!("expected Ready, got {other:?}"),
        }
    }

    #[test]
    fn incremental_parse_rejects_the_same_bad_heads() {
        let bad: &[&[u8]] = &[
            b"PUT / HTTP/1.1\r\n\r\n",
            b"GET / HTTP/2.0\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nab",
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length : 2\r\n\r\nab",
        ];
        for raw in bad {
            let one_shot = RequestParser::new().advance(raw, &limits()).map(|_| ());
            let incremental = (|| -> Result<(), RequestError> {
                let mut parser = RequestParser::new();
                for end in 0..=raw.len() {
                    parser.advance(&raw[..end], &limits())?;
                }
                Ok(())
            })();
            match (&one_shot, &incremental) {
                (Err(RequestError::Bad(a)), Err(RequestError::Bad(b))) => assert_eq!(a, b),
                other => panic!("expected matching Bad errors, got {other:?}"),
            }
        }
    }

    #[test]
    fn encode_response_writes_the_expected_bytes() {
        let encoded = encode_response_with(
            200,
            "application/json",
            &[("X-Morer-Epoch".into(), "7".into())],
            b"{\"ok\":true}",
            true,
        );
        assert_eq!(
            encoded,
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 11\r\n\
              Connection: keep-alive\r\nX-Morer-Epoch: 7\r\n\r\n{\"ok\":true}"
        );
    }

    #[test]
    fn parses_get_without_body() {
        let r = read(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, Method::Get);
        assert_eq!(r.path, "/healthz");
        assert!(r.body.is_empty());
        assert!(r.keep_alive);
    }

    #[test]
    fn parses_post_with_exact_body() {
        let r = read(b"POST /solve HTTP/1.1\r\nContent-Length: 4\r\n\r\n{\"a\"").unwrap();
        assert_eq!(r.method, Method::Post);
        assert_eq!(r.body, b"{\"a\"");
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let r = read(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!r.keep_alive);
        let r = read(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!r.keep_alive);
        let r = read(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(r.keep_alive);
    }

    #[test]
    fn oversized_body_is_too_large_before_reading_it() {
        match read(b"POST /ingest HTTP/1.1\r\nContent-Length: 100000\r\n\r\n") {
            Err(RequestError::TooLarge { declared, max }) => {
                assert_eq!(declared, 100000);
                assert_eq!(max, 64);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // a Content-Length beyond u64 parsing is malformed, not a panic
        assert!(matches!(
            read(b"POST / HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n"),
            Err(RequestError::Bad(_))
        ));
    }

    #[test]
    fn malformed_heads_are_bad_requests() {
        for raw in [
            &b"FLY / HTTP/1.1\r\n\r\n"[..],
            &b"GET  HTTP/1.1\r\n\r\n"[..],
            &b"GET /x SPDY/3\r\n\r\n"[..],
            &b"GET /x HTTP/1.1\r\nbroken header\r\n\r\n"[..],
            &b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"[..],
            &b"POST /x HTTP/1.1\r\nContent-Length: ten\r\n\r\n"[..],
            // RFC 9110 1*DIGIT: a leading sign is a framing disagreement
            // with conforming intermediaries
            &b"POST /x HTTP/1.1\r\nContent-Length: +2\r\n\r\nhi"[..],
            // RFC 9112 §5.1: whitespace around the field name would be
            // dropped as an unknown header, silently un-framing the body
            &b"POST /x HTTP/1.1\r\nContent-Length : 5\r\n\r\nhello"[..],
            &b"POST /x HTTP/1.1\r\n Content-Length: 5\r\n\r\nhello"[..],
            // RFC 9112 SS6.3: conflicting/duplicate Content-Length headers
            // are a request-smuggling vector and must be rejected
            &b"POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 0\r\n\r\nhello"[..],
            &b"POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nhi"[..],
        ] {
            assert!(matches!(read(raw), Err(RequestError::Bad(_))), "{raw:?}");
        }
        // a head larger than the cap is rejected rather than buffered forever
        let mut big = b"GET /x HTTP/1.1\r\nX-Pad: ".to_vec();
        big.extend(std::iter::repeat_n(b'a', 2048));
        big.extend(b"\r\n\r\n");
        assert!(matches!(read(&big), Err(RequestError::Bad(_))));
        // …even before its terminator arrives
        assert!(matches!(
            RequestParser::new().advance(&big[..1500], &limits()),
            Err(RequestError::Bad(_))
        ));
    }

    #[test]
    fn incomplete_input_needs_more_and_reports_mid_body() {
        // the reactor's EOF taxonomy keys off these: an empty buffer with no
        // parsed head is a clean close, anything else is a 400
        for (raw, mid_body) in [
            (&b""[..], false),
            (&b"GET /x HT"[..], false),
            (&b"POST /x HTTP/1.1\r\nContent-Length: 9\r\n\r\nshort"[..], true),
        ] {
            let mut parser = RequestParser::new();
            assert!(matches!(
                parser.advance(raw, &limits()),
                Ok(ParseStatus::NeedMore { send_continue: false })
            ));
            assert_eq!(parser.mid_body(), mid_body, "{raw:?}");
        }
    }

    #[test]
    fn pipelined_surplus_is_carried_to_the_next_request() {
        let mut buf =
            b"POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nxxGET /b HTTP/1.1\r\n\r\n".to_vec();
        let mut parser = RequestParser::new();
        let mut next = || match parser.advance(&buf, &limits()).unwrap() {
            ParseStatus::Ready { request, consumed } => {
                buf.drain(..consumed);
                request
            }
            other => panic!("expected Ready, got {other:?}"),
        };
        let first = next();
        assert_eq!(first.path, "/a");
        assert_eq!(first.body, b"xx");
        let second = next();
        assert_eq!(second.path, "/b");
        assert_eq!(second.method, Method::Get);
    }

    #[test]
    fn expect_100_continue_is_signalled_once_before_the_body() {
        let head = b"POST /ingest HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 5000\r\n\r\n";
        let mut raw = head.to_vec();
        raw.extend(std::iter::repeat_n(b'x', 5000));
        let big = Limits { max_header_bytes: 1024, max_body_bytes: 10_000 };
        let mut parser = RequestParser::new();
        // the head alone: the client holds its body back for the interim line
        assert!(matches!(
            parser.advance(head, &big),
            Ok(ParseStatus::NeedMore { send_continue: true })
        ));
        // a partial body: the interim line was already signalled
        assert!(matches!(
            parser.advance(&raw[..head.len() + 100], &big),
            Ok(ParseStatus::NeedMore { send_continue: false })
        ));
        match parser.advance(&raw, &big).unwrap() {
            ParseStatus::Ready { request, consumed } => {
                assert_eq!(request.body.len(), 5000);
                assert_eq!(consumed, raw.len());
            }
            other => panic!("expected Ready, got {other:?}"),
        }

        // a body already in the buffer needs no interim response
        let r = read(b"POST /x HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\nhi");
        assert_eq!(r.unwrap().body, b"hi");

        // unknown expectations are rejected, not silently ignored
        assert!(matches!(
            read(b"POST /x HTTP/1.1\r\nExpect: minotaur\r\nContent-Length: 0\r\n\r\n"),
            Err(RequestError::Bad(_))
        ));
        assert_eq!(CONTINUE, b"HTTP/1.1 100 Continue\r\n\r\n");
    }

    #[test]
    fn responses_have_fixed_length_and_connection_header() {
        let out = encode_response_with(200, "application/json", &[], b"{\"ok\":true}", true);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
        let out = encode_response_with(413, "application/json", &[], b"{}", false);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 413 Payload Too Large\r\n"));
        assert!(text.contains("Connection: close\r\n"));
    }

    #[test]
    fn responses_can_carry_binary_bodies_and_extra_headers() {
        let extra = vec![("x-morer-generation".to_owned(), "3".to_owned())];
        let out = encode_response_with(200, "application/octet-stream", &extra, &[0, 159, 7], true);
        let head_end = find_head_end(&out).unwrap();
        let head = std::str::from_utf8(&out[..head_end]).unwrap();
        assert!(head.contains("Content-Type: application/octet-stream\r\n"));
        // the extra header is the last line: its CRLF is the terminator's
        assert!(head.ends_with("x-morer-generation: 3"));
        assert!(head.contains("Content-Length: 3\r\n"));
        assert_eq!(&out[head_end + 4..], &[0, 159, 7]);
        assert_eq!(reason(409), "Conflict");
        assert_eq!(reason(503), "Service Unavailable");
    }
}
