//! A minimal HTTP/1.1 server- and client-side codec over std TCP.
//!
//! The workspace builds offline (DESIGN.md §8), so there is no hyper or
//! reqwest here — just enough of RFC 9112 for the daemon's needs: one
//! request per connection (`Connection: close` both ways), `Content-Length`
//! framing only (no chunked encoding), a capped header block and a capped
//! body. The same codec serves the daemon (`router`), the hammer harness
//! and the integration tests, so client and server cannot drift apart.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Upper bound on the request-line + header block, in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request or response body, in bytes. Scenario documents
/// are a few KiB; reports for large matrices reach tens of KiB.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// A parsed HTTP request (or response, on the client side).
#[derive(Debug)]
pub struct Message {
    /// `GET` / `POST` / `DELETE` for requests; empty for responses.
    pub method: String,
    /// The request target (path + optional query); empty for responses.
    pub target: String,
    /// Response status code; 0 for requests.
    pub status: u16,
    /// Header names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

impl Message {
    /// First value of header `name` (lowercase), if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body decoded as UTF-8 (lossy — the daemon only ever produces
    /// UTF-8, so lossiness can only surface a client's own bad bytes).
    #[must_use]
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Reads one HTTP/1.1 message from `stream`.
///
/// `expect_response` selects the start-line grammar (status line vs request
/// line). Returns a human-readable error on malformed input or when a cap
/// is exceeded; the caller maps that to `400 Bad Request` (server side) or
/// a harness failure (client side).
///
/// Every read is bounded: the header block is read through a
/// [`Read::take`] of one byte past [`MAX_HEAD_BYTES`], so a peer that never
/// sends a newline costs at most that much memory, and the body through a
/// limit of exactly its `Content-Length`.
pub fn read_message<R: Read>(stream: &mut R, expect_response: bool) -> Result<Message, String> {
    let mut reader = BufReader::new(stream.take(MAX_HEAD_BYTES as u64 + 1));
    let mut head = String::new();
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("connection closed before the header block ended".into());
        }
        if head.len() + line.len() > MAX_HEAD_BYTES {
            return Err(format!("header block exceeds {MAX_HEAD_BYTES} bytes"));
        }
        if line == "\r\n" || line == "\n" {
            break;
        }
        head.push_str(&line);
    }
    let mut lines = head.lines();
    let start = lines.next().ok_or("empty header block")?;
    let mut message = Message {
        method: String::new(),
        target: String::new(),
        status: 0,
        headers: Vec::new(),
        body: Vec::new(),
    };
    if expect_response {
        // e.g. `HTTP/1.1 200 OK`
        let mut parts = start.splitn(3, ' ');
        let version = parts.next().unwrap_or("");
        if !version.starts_with("HTTP/1.") {
            return Err(format!("not an HTTP/1.x status line: {start:?}"));
        }
        message.status = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line: {start:?}"))?;
    } else {
        // e.g. `POST /v1/jobs HTTP/1.1`
        let mut parts = start.split_whitespace();
        message.method = parts.next().unwrap_or("").to_string();
        message.target = parts.next().unwrap_or("").to_string();
        let version = parts.next().unwrap_or("");
        if message.method.is_empty() || message.target.is_empty() || !version.starts_with("HTTP/1.")
        {
            return Err(format!("bad request line: {start:?}"));
        }
    }
    for raw in lines {
        let (name, value) = raw
            .split_once(':')
            .ok_or_else(|| format!("bad header line: {raw:?}"))?;
        message
            .headers
            .push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let length: usize = match message.header("content-length") {
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad content-length: {v:?}"))?,
        None => 0,
    };
    if length > MAX_BODY_BYTES {
        return Err(format!("body of {length} bytes exceeds {MAX_BODY_BYTES}"));
    }
    if length > 0 {
        // Part of the body may already sit in the buffer; allow only the
        // rest through the limit.
        let buffered = reader.buffer().len() as u64;
        reader
            .get_mut()
            .set_limit((length as u64).saturating_sub(buffered));
        let mut body = vec![0u8; length];
        reader
            .read_exact(&mut body)
            .map_err(|e| format!("read body: {e}"))?;
        message.body = body;
    }
    Ok(message)
}

/// Writes an HTTP/1.1 response with the given status, extra headers and
/// body, always `Connection: close`.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Performs one client request against `addr` and returns the response.
///
/// `timeout` bounds connect, read and write individually — the hammer
/// harness uses this as its no-deadlock detector: a healthy daemon always
/// answers (even if the answer is 429) well inside the timeout.
pub fn request(
    addr: &str,
    method: &str,
    target: &str,
    body: &[u8],
    timeout: Duration,
) -> Result<Message, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    let head = format!(
        "{method} {target} HTTP/1.1\r\nhost: {addr}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    stream.write_all(body).map_err(|e| format!("write: {e}"))?;
    stream.flush().map_err(|e| format!("flush: {e}"))?;
    read_message(&mut stream, true)
}

/// Standard reason phrase for the handful of statuses the daemon emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    #[test]
    fn round_trips_a_request_and_response_over_a_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let req = read_message(&mut stream, false).expect("parse request");
            assert_eq!(req.method, "POST");
            assert_eq!(req.target, "/v1/jobs?priority=2");
            assert_eq!(req.text(), "{\"x\":1}");
            write_response(
                &mut stream,
                429,
                reason(429),
                "application/json",
                &[("retry-after", "1")],
                b"{\"error\":\"queue full\"}",
            )
            .expect("respond");
        });
        let resp = request(
            &addr,
            "POST",
            "/v1/jobs?priority=2",
            b"{\"x\":1}",
            Duration::from_secs(5),
        )
        .expect("request");
        server.join().expect("server thread");
        assert_eq!(resp.status, 429);
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert_eq!(resp.text(), "{\"error\":\"queue full\"}");
    }

    #[test]
    fn rejects_an_oversized_content_length_before_reading_the_body() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let client = thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            let head = format!(
                "POST /v1/jobs HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
                MAX_BODY_BYTES + 1
            );
            stream.write_all(head.as_bytes()).expect("write");
        });
        let (mut stream, _) = listener.accept().expect("accept");
        let err = read_message(&mut stream, false).expect_err("must reject");
        assert!(err.contains("exceeds"), "got: {err}");
        client.join().expect("client thread");
    }

    /// A reader that counts the bytes it hands out.
    struct Counting<R> {
        inner: R,
        read: usize,
    }

    impl<R: Read> Read for Counting<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.read += n;
            Ok(n)
        }
    }

    #[test]
    fn a_header_line_without_a_newline_is_rejected_at_the_cap() {
        let flood = vec![b'a'; 1024 * 1024];
        let mut stream = Counting {
            inner: flood.as_slice(),
            read: 0,
        };
        let err = read_message(&mut stream, false).expect_err("must reject");
        assert!(err.contains("exceeds"), "got: {err}");
        assert!(
            stream.read <= MAX_HEAD_BYTES + 1,
            "read {} bytes of an endless line",
            stream.read
        );
    }

    #[test]
    fn a_body_is_read_exactly_whether_or_not_it_was_buffered_with_the_head() {
        let mut raw = b"POST /v1/jobs HTTP/1.1\r\ncontent-length: 5\r\n\r\nhello".to_vec();
        raw.extend(std::iter::repeat_n(b'x', 3 * MAX_HEAD_BYTES));
        let mut stream = Counting {
            inner: raw.as_slice(),
            read: 0,
        };
        let message = read_message(&mut stream, false).expect("parses");
        assert_eq!(message.body, b"hello");
        assert!(
            stream.read <= MAX_HEAD_BYTES + 1,
            "read {} bytes",
            stream.read
        );

        let mut head = format!(
            "POST /x HTTP/1.1\r\ncontent-length: {}\r\n",
            3 * MAX_HEAD_BYTES
        );
        head.push_str("\r\n");
        let mut raw = head.into_bytes();
        raw.extend(std::iter::repeat_n(b'y', 3 * MAX_HEAD_BYTES));
        let message = read_message(&mut raw.as_slice(), false).expect("parses");
        assert_eq!(message.body.len(), 3 * MAX_HEAD_BYTES);
        assert!(message.body.iter().all(|&b| b == b'y'));
    }
}
