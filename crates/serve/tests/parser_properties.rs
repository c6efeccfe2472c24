//! Property tests of the resumable HTTP request parser
//! ([`RequestParser`]), the framing core every served connection runs
//! through: chunking must never change what is parsed, and no input —
//! valid, mutated or random — may panic it.

use morer_serve::http::{Limits, Method, ParseStatus, Request, RequestError, RequestParser};
use proptest::prelude::*;

const LIMITS: Limits = Limits { max_header_bytes: 256, max_body_bytes: 64 };

/// The observable content of one parsed request plus its `consumed`
/// offset (`Request` itself has no `PartialEq`).
type Parsed = (Method, String, Vec<u8>, bool, usize);

/// One valid request: `(method, path, body, connection header, expect)`
/// selectors rendered into bytes that stay within [`LIMITS`].
fn request() -> impl Strategy<Value = Vec<u8>> {
    let body = proptest::collection::vec(any::<u8>(), 0..48);
    (0u8..2, "/[a-z_]{0,12}", body, 0u8..3, any::<bool>()).prop_map(
        |(method, path, body, connection, expect)| {
            let method = if method == 0 { "GET" } else { "POST" };
            let mut raw = format!("{method} {path} HTTP/1.1\r\nHost: x\r\n");
            match connection {
                1 => raw.push_str("Connection: close\r\n"),
                2 => raw.push_str("Connection: keep-alive\r\n"),
                _ => {}
            }
            if expect && !body.is_empty() {
                raw.push_str("Expect: 100-continue\r\n");
            }
            raw.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
            let mut raw = raw.into_bytes();
            raw.extend_from_slice(&body);
            raw
        },
    )
}

/// A keep-alive connection's worth of pipelined requests, concatenated.
fn stream() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(request(), 1..6).prop_map(|reqs| reqs.concat())
}

/// Chunk sizes the bytes arrive in (cycled until the stream is consumed).
fn chunks() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(1usize..40, 1..16)
}

/// Drive a parser the way the reactor does: append each arriving chunk to
/// the receive buffer, then take every complete request off its front.
/// Returns the requests and the first parse error, if any; checks that
/// `100 Continue` is signalled at most once per request.
fn parse_chunked(raw: &[u8], chunks: &[usize]) -> (Vec<Parsed>, Option<RequestError>) {
    let mut parser = RequestParser::new();
    let mut buf = Vec::new();
    let mut parsed = Vec::new();
    let mut continues = 0;
    let mut sizes = chunks.iter().cycle();
    let mut sent = 0;
    while sent < raw.len() {
        let n = (*sizes.next().expect("cycled")).min(raw.len() - sent);
        buf.extend_from_slice(&raw[sent..sent + n]);
        sent += n;
        loop {
            match parser.advance(&buf, &LIMITS) {
                Ok(ParseStatus::Ready { request, consumed }) => {
                    assert!(consumed <= buf.len(), "consumed past the buffer");
                    buf.drain(..consumed);
                    let Request { method, path, body, keep_alive } = request;
                    parsed.push((method, path, body, keep_alive, consumed));
                    continues = 0;
                }
                Ok(ParseStatus::NeedMore { send_continue }) => {
                    continues += usize::from(send_continue);
                    assert!(continues <= 1, "100 Continue signalled twice for one request");
                    break;
                }
                Err(e) => return (parsed, Some(e)),
            }
        }
    }
    (parsed, None)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any split of a valid pipelined stream into chunks yields the same
    /// requests, with the same `consumed` offsets, as parsing it in one
    /// shot — and every byte is accounted for.
    #[test]
    fn chunking_never_changes_the_parsed_requests(raw in stream(), sizes in chunks()) {
        let (one_shot, err) = parse_chunked(&raw, &[raw.len()]);
        prop_assert!(err.is_none(), "valid stream rejected: {err:?}");
        let total: usize = one_shot.iter().map(|p| p.4).sum();
        prop_assert_eq!(total, raw.len());
        let (chunked, err) = parse_chunked(&raw, &sizes);
        prop_assert!(err.is_none(), "chunked stream rejected: {err:?}");
        prop_assert_eq!(chunked, one_shot);
    }

    /// Random bytes never panic the parser: every call answers `Ready`,
    /// `NeedMore` or a typed `Bad`/`TooLarge`, one shot or chunked.
    #[test]
    fn random_bytes_never_panic(
        raw in proptest::collection::vec(any::<u8>(), 0..400),
        sizes in chunks(),
    ) {
        let _ = parse_chunked(&raw, &[raw.len().max(1)]);
        let _ = parse_chunked(&raw, &sizes);
    }

    /// Valid streams with a few bytes overwritten — the near-miss inputs
    /// most likely to reach deep parser states — never panic either, and
    /// a `TooLarge` always names a declaration over the cap.
    #[test]
    fn mutated_requests_never_panic(
        raw in stream(),
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..6),
        sizes in chunks(),
    ) {
        let mut raw = raw;
        for (at, byte) in edits {
            let i = at % raw.len();
            raw[i] = byte;
        }
        for sizes in [vec![raw.len()], sizes] {
            match parse_chunked(&raw, &sizes).1 {
                Some(RequestError::TooLarge { declared, max }) => {
                    prop_assert_eq!(max, LIMITS.max_body_bytes);
                    prop_assert!(declared > max as u64);
                }
                Some(RequestError::Bad(msg)) => prop_assert!(!msg.is_empty()),
                None => {}
            }
        }
    }
}
