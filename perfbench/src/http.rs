//! Minimal blocking HTTP/1.1 client for the in-process server: one
//! request per connection (the server answers `Connection: close`).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Response {
    pub status: u16,
    pub body: String,
    /// Every byte received, head included.
    pub bytes: usize,
}

pub fn request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &str,
) -> std::io::Result<Response> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(60)))?;
    s.set_nodelay(true)?;
    let req = format!(
        "{method} {target} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes())?;
    let mut raw = Vec::with_capacity(4096);
    s.read_to_end(&mut raw)?;
    let text = String::from_utf8(raw)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let status =
        text.split_whitespace().nth(1).and_then(|v| v.parse().ok()).ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line")
        })?;
    let bytes = text.len();
    let body = text.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    Ok(Response { status, body, bytes })
}

/// `"name":value` of a flat JSON object (the server's summaries never
/// nest).
pub fn field<'a>(obj: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\"{name}\":");
    let rest = &obj[obj.find(&key)? + key.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// The trailing summary object of an NDJSON stream (or the single
/// object of a count response).
pub fn summary(body: &str) -> &str {
    body.lines().rev().find(|l| l.starts_with('{')).unwrap_or("")
}
