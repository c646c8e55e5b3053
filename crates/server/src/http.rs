//! A deliberately small HTTP/1.1 subset — just enough wire protocol for
//! the rigmatch serving endpoints, with zero dependencies beyond `std`.
//!
//! Every connection carries exactly one request and is closed after the
//! response (`Connection: close`): streamed NDJSON bodies are delimited
//! by the close, so no chunked framing is needed. Requests larger than
//! the configured body cap are rejected before the body is read, and a
//! request line plus headers longer than [`MAX_HEAD_BYTES`] before the
//! rest of the head is read.

use std::io::{BufRead, Read, Write};

/// Cap on the request line plus headers. The server's requests carry
/// their payload in the body, so a head this long is hostile or broken.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed request: method, decoded path, query parameters and body.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Path without the query string (e.g. `/query`).
    pub path: String,
    /// Query parameters in order of appearance, percent-decoded.
    pub query: Vec<(String, String)>,
    pub body: String,
}

impl Request {
    /// First value of query parameter `name`, if present.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read. Each variant maps to the HTTP status
/// the server should answer with (when the socket is still writable).
#[derive(Debug)]
pub enum RequestError {
    /// Malformed request line / headers / body → 400.
    Bad(String),
    /// Declared body exceeds the configured cap → 413.
    TooLarge { declared: usize, cap: usize },
    /// Request line plus headers exceed [`MAX_HEAD_BYTES`] → 431.
    HeadTooLarge,
    /// The socket failed mid-read (timeout, reset) — nothing to answer.
    Io(std::io::Error),
}

impl RequestError {
    pub fn status(&self) -> u16 {
        match self {
            RequestError::Bad(_) => 400,
            RequestError::TooLarge { .. } => 413,
            RequestError::HeadTooLarge => 431,
            RequestError::Io(_) => 408,
        }
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Bad(msg) => write!(f, "bad request: {msg}"),
            RequestError::TooLarge { declared, cap } => {
                write!(f, "body of {declared} bytes exceeds the {cap} byte cap")
            }
            RequestError::HeadTooLarge => {
                write!(f, "request head exceeds the {MAX_HEAD_BYTES} byte cap")
            }
            RequestError::Io(e) => write!(f, "read failed: {e}"),
        }
    }
}

fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 3 <= bytes.len()
                && bytes[i + 1].is_ascii_hexdigit()
                && bytes[i + 2].is_ascii_hexdigit() =>
            {
                // the guard makes this parse infallible, but degrade to
                // a literal '%' rather than panic all the same
                match u8::from_str_radix(&s[i + 1..i + 3], 16) {
                    Ok(b) => {
                        out.push(b);
                        i += 3;
                    }
                    Err(_) => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn parse_query_string(qs: &str) -> Vec<(String, String)> {
    qs.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect()
}

/// Reads one line of the request head, charging it to `budget` (the head
/// bytes left): a line that runs past the budget is
/// [`RequestError::HeadTooLarge`], read no further than the budget.
fn read_head_line(stream: &mut impl BufRead, budget: &mut usize) -> Result<String, RequestError> {
    let mut line = String::new();
    let read = stream.take(*budget as u64).read_line(&mut line).map_err(RequestError::Io)?;
    *budget -= read;
    if *budget == 0 && !line.ends_with('\n') {
        return Err(RequestError::HeadTooLarge);
    }
    Ok(line)
}

/// Reads one request off `stream`. `max_body` caps the accepted
/// Content-Length; a request with no body is fine (empty string).
pub fn read_request(stream: &mut impl BufRead, max_body: usize) -> Result<Request, RequestError> {
    let mut budget = MAX_HEAD_BYTES;
    let line = read_head_line(stream, &mut budget)?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or_else(|| RequestError::Bad("empty request line".into()))?;
    let target = parts.next().ok_or_else(|| RequestError::Bad("missing request target".into()))?;
    let version = parts.next().unwrap_or("HTTP/1.0");
    if !version.starts_with("HTTP/1.") {
        return Err(RequestError::Bad(format!("unsupported protocol {version}")));
    }
    let (path, qs) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let request = Request {
        method: method.to_string(),
        path: percent_decode(path),
        query: parse_query_string(qs),
        body: String::new(),
    };

    // headers: only Content-Length matters to this server
    let mut content_length: usize = 0;
    loop {
        let header = read_head_line(stream, &mut budget)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| RequestError::Bad(format!("bad content-length {value:?}")))?;
            }
        }
    }
    if content_length > max_body {
        return Err(RequestError::TooLarge { declared: content_length, cap: max_body });
    }
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).map_err(RequestError::Io)?;
    let body = String::from_utf8(body)
        .map_err(|_| RequestError::Bad("request body is not valid UTF-8".into()))?;
    Ok(Request { body, ..request })
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "",
    }
}

/// Response headers for a streamed body: the connection close delimits
/// it (no Content-Length).
pub fn stream_head(status: u16, content_type: &str) -> String {
    format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nConnection: close\r\n\r\n",
        reason(status)
    )
}

/// Writes a complete response with a known body, head and body in one
/// `write_all`.
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let mut out = Vec::with_capacity(128 + content_type.len() + body.len());
    write!(
        out,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        reason(status),
        body.len()
    )?;
    w.write_all(&out)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_strings_decode() {
        let q = parse_query_string("limit=10&mode=count&q=a%20b+c&flag");
        assert_eq!(
            q,
            vec![
                ("limit".into(), "10".into()),
                ("mode".into(), "count".into()),
                ("q".into(), "a b c".into()),
                ("flag".into(), String::new()),
            ]
        );
    }

    /// A 1 MiB header line is an error after reading at most the cap (plus
    /// one buffer fill), not a 1 MiB string.
    #[test]
    fn an_oversized_head_is_rejected_at_the_cap() {
        let mut raw = b"GET / HTTP/1.1\r\nX-Junk: ".to_vec();
        raw.resize(raw.len() + (1 << 20), b'a');
        let mut reader = std::io::BufReader::new(std::io::Cursor::new(raw));
        let e = read_request(&mut reader, 16).unwrap_err();
        assert!(matches!(e, RequestError::HeadTooLarge), "{e}");
        assert_eq!(e.status(), 431);
        let consumed = reader.get_ref().position() as usize;
        assert!(consumed <= MAX_HEAD_BYTES + reader.capacity(), "read {consumed} bytes");
        // a head of many short lines is charged as a whole
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        while raw.len() <= MAX_HEAD_BYTES {
            raw.extend_from_slice(b"X: y\r\n");
        }
        raw.extend_from_slice(b"\r\n");
        assert!(matches!(read_request(&mut &raw[..], 16), Err(RequestError::HeadTooLarge)));
    }

    /// A non-streamed response reaches the socket in one write.
    #[test]
    fn a_response_is_one_write() {
        #[derive(Default)]
        struct Counting {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = Counting::default();
        write_response(&mut w, 200, "text/plain", "ok\n").unwrap();
        assert_eq!(w.writes, 1);
        let text = String::from_utf8(w.bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.ends_with("Content-Length: 3\r\nConnection: close\r\n\r\nok\n"), "{text}");
    }
}
