//! HTTP request fuzzing: arbitrary bytes, byte-level mutations of the
//! server's own requests and heads of every length go through
//! `rig_server::http::read_request` with a small body cap. Every input
//! ends in a request or a typed error, never a panic, and the reader never
//! reads more than `MAX_HEAD_BYTES` of head or the cap of body.

use std::io::Cursor;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rigmatch::server::http::{read_request, RequestError, MAX_HEAD_BYTES};

/// The body cap every read runs under.
const MAX_BODY: usize = 64;

/// Requests the server answers, with their bodies.
const REQUESTS: [&[u8]; 4] = [
    b"POST /query?mode=count&limit=10 HTTP/1.1\r\nHost: x\r\nContent-Length: 18\r\n\r\nMATCH (a:0)->(b:1)",
    b"POST /update HTTP/1.1\r\ncontent-length: 13\r\n\r\na v 0\na e 0 1",
    b"GET /metrics HTTP/1.0\r\n\r\n",
    b"GET /q%2Fx?a=%41+b&c&=d HTTP/1.1\nX: y\n\n",
];

/// Byte strings the mutations insert: line ends, header syntax, lengths
/// past the cap and past `usize`, percent escapes good and bad, other
/// protocols, a NUL and bytes that are not UTF-8.
const POOL: [&[u8]; 24] = [
    b"\r\n",
    b"\n",
    b"\r",
    b":",
    b" ",
    b"Content-Length: ",
    b"content-length:",
    b"0",
    b"64",
    b"65",
    b"-1",
    b"99999999999999999999999",
    b"%",
    b"%4",
    b"%zz",
    b"+",
    b"?",
    b"&",
    b"=",
    b"HTTP/1.1",
    b"HTTP/2",
    b"\0",
    b"\xff\xfe",
    b"\xc3",
];

/// `bytes` with `edits` random insertions from [`POOL`] and deletions.
fn mangle(bytes: &[u8], edits: usize, rng: &mut StdRng) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for _ in 0..edits {
        let at = rng.gen_range(0..=out.len());
        if rng.gen_bool(0.3) && at < out.len() {
            let end = (at + rng.gen_range(1..4usize)).min(out.len());
            out.drain(at..end);
        } else {
            let tok = POOL[rng.gen_range(0..POOL.len())];
            out.splice(at..at, tok.iter().copied());
        }
    }
    out
}

/// Reads one request off `bytes`: it ends in a request or a typed error
/// with an HTTP status, and the reader consumed at most `MAX_HEAD_BYTES`
/// of head and `MAX_BODY` of body.
fn reads_cleanly(bytes: &[u8]) -> Result<(), TestCaseError> {
    let mut stream = Cursor::new(bytes);
    let read = read_request(&mut stream, MAX_BODY);
    let consumed = stream.position() as usize;
    match read {
        Ok(request) => {
            prop_assert!(request.body.len() <= MAX_BODY, "{:?}", bytes);
            let head = consumed - request.body.len();
            prop_assert!(head <= MAX_HEAD_BYTES, "{} head bytes read", head);
        }
        Err(e) => {
            prop_assert!([400, 408, 413, 431].contains(&e.status()), "{}", e);
            prop_assert!(consumed <= MAX_HEAD_BYTES + MAX_BODY, "{} bytes read: {}", consumed, e);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_the_request_reader(
        bytes in prop::collection::vec(prop::num::u8::ANY, 0..300),
    ) {
        reads_cleanly(&bytes)?;
    }

    #[test]
    fn mutated_requests_never_panic_the_request_reader(seed in 0u64..1 << 32, edits in 1usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let request = REQUESTS[rng.gen_range(0..REQUESTS.len())];
        reads_cleanly(&mangle(request, edits, &mut rng))?;
    }

    /// A head of any length around the cap, as one long request line or
    /// as many headers: within the cap it is read, past it the reader
    /// stops at the cap.
    #[test]
    fn heads_past_the_cap_are_refused_at_the_cap(
        len in (MAX_HEAD_BYTES - 64)..(MAX_HEAD_BYTES + 64),
        many_headers in prop::bool::ANY,
    ) {
        let mut bytes = b"GET /".to_vec();
        if many_headers {
            bytes.extend_from_slice(b" HTTP/1.1\r\n");
            while bytes.len() + 2 < len {
                bytes.extend_from_slice(b"X: y\r\n");
            }
        } else {
            bytes.resize(len.saturating_sub(2), b'a');
        }
        bytes.extend_from_slice(b"\r\n\r\n");
        // a body follows the head, so a reader that overran would eat it
        bytes.extend_from_slice(&[b'b'; 4 * MAX_HEAD_BYTES]);
        reads_cleanly(&bytes)?;
        let mut stream = Cursor::new(&bytes[..]);
        let refused = matches!(read_request(&mut stream, MAX_BODY), Err(RequestError::HeadTooLarge));
        let head = bytes.iter().position(|&b| b == b'b').unwrap_or(bytes.len());
        prop_assert_eq!(refused, head > MAX_HEAD_BYTES, "head of {} bytes", head);
    }
}
