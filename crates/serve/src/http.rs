//! Minimal HTTP/1.1 framing over `std::net::TcpStream`.
//!
//! Implements exactly the subset the serve protocol needs, on both the
//! server side ([`parse_request_bytes`] / [`Response::encode_into`]) and
//! the client side (`write_request` / `read_response`, used by `loadgen`
//! and the integration tests):
//!
//! - request/status line + headers, terminated by a blank line,
//! - bodies framed by `Content-Length` (the server never sends chunked),
//! - keep-alive by default (HTTP/1.1), `Connection: close` honored,
//! - hard limits on header and body size,
//! - client-side deadlines: the blocking response reader runs its socket
//!   with a short read timeout and checks the idle and read deadlines
//!   at that cadence.
//!
//! Parsing is *incremental*: [`parse_request_bytes`] inspects a receive
//! buffer and either yields one complete request plus the byte count it
//! consumed, or asks for more bytes — it never loses data. That is what
//! makes HTTP/1.1 pipelining work: bytes past one complete request stay
//! in the buffer and frame the next one. The reactor feeds it whatever
//! each nonblocking read delivered.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Read-side limits and deadlines for one connection.
#[derive(Debug, Clone)]
pub struct Limits {
    /// Maximum bytes of request line + headers.
    pub max_head_bytes: usize,
    /// Maximum bytes of declared body.
    pub max_body_bytes: usize,
    /// Deadline for receiving a complete request once its first byte
    /// arrived.
    pub read_deadline: Duration,
    /// How long a keep-alive connection may sit idle between requests.
    pub idle_deadline: Duration,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 1024 * 1024,
            read_deadline: Duration::from_secs(10),
            idle_deadline: Duration::from_secs(30),
        }
    }
}

/// Why reading a request (or response) stopped.
#[derive(Debug)]
pub enum ReadOutcome {
    /// Peer closed the connection cleanly before sending anything.
    Closed,
    /// No bytes arrived within the idle deadline.
    IdleTimeout,
    /// A request started arriving but did not complete in time.
    Timeout,
    /// Head (request line + headers) exceeded `max_head_bytes`.
    HeadTooLarge,
    /// Declared body exceeds `max_body_bytes`.
    BodyTooLarge {
        /// The declared `Content-Length`.
        declared: usize,
    },
    /// The bytes are not parseable HTTP.
    Malformed(&'static str),
    /// Transport error.
    Io(io::Error),
}

impl std::fmt::Display for ReadOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadOutcome::Closed => write!(f, "connection closed"),
            ReadOutcome::IdleTimeout => write!(f, "idle timeout"),
            ReadOutcome::Timeout => write!(f, "request read timed out"),
            ReadOutcome::HeadTooLarge => write!(f, "request head too large"),
            ReadOutcome::BodyTooLarge { declared } => {
                write!(f, "request body too large ({declared} bytes declared)")
            }
            ReadOutcome::Malformed(what) => write!(f, "malformed request: {what}"),
            ReadOutcome::Io(err) => write!(f, "I/O error: {err}"),
        }
    }
}

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …) as sent.
    pub method: String,
    /// The request target (path + optional query), as sent.
    pub target: String,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (lowercase).
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Whether the connection should be kept open after responding.
    #[must_use]
    pub fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(value) => !value.eq_ignore_ascii_case("close"),
            None => true, // HTTP/1.1 default
        }
    }

    /// The path portion of the target (query string stripped).
    #[must_use]
    pub fn path(&self) -> &str {
        match self.target.split_once('?') {
            Some((path, _)) => path,
            None => &self.target,
        }
    }
}

/// Granularity of the client read loop: the socket read timeout.
/// Deadline checks happen at this cadence.
const POLL_TICK: Duration = Duration::from_millis(50);

/// True when the error is the platform's "read timed out" signal.
fn is_timeout(err: &io::Error) -> bool {
    matches!(err.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Reads bytes until `buffer` contains a full head (`\r\n\r\n`),
/// returning the index just past the terminator.
fn read_head(
    stream: &mut TcpStream,
    buffer: &mut Vec<u8>,
    limits: &Limits,
) -> Result<usize, ReadOutcome> {
    if stream.set_read_timeout(Some(POLL_TICK)).is_err() {
        return Err(ReadOutcome::Malformed("cannot set read timeout"));
    }
    let idle_start = Instant::now();
    let mut first_byte_at: Option<Instant> = None;
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(done) = find_head_end(buffer) {
            return Ok(done);
        }
        if buffer.len() > limits.max_head_bytes {
            return Err(ReadOutcome::HeadTooLarge);
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(if buffer.is_empty() {
                    ReadOutcome::Closed
                } else {
                    ReadOutcome::Malformed("connection closed mid-head")
                });
            }
            Ok(n) => {
                if first_byte_at.is_none() {
                    first_byte_at = Some(Instant::now());
                }
                // A sane `Read` never returns more than the buffer
                // holds; map a broken impl to an error, not a panic.
                match chunk.get(..n) {
                    Some(filled) => buffer.extend_from_slice(filled),
                    None => return Err(ReadOutcome::Malformed("read length out of range")),
                }
            }
            Err(err) if is_timeout(&err) => match first_byte_at {
                Some(started) => {
                    if started.elapsed() > limits.read_deadline {
                        return Err(ReadOutcome::Timeout);
                    }
                }
                None => {
                    if idle_start.elapsed() > limits.idle_deadline {
                        return Err(ReadOutcome::IdleTimeout);
                    }
                }
            },
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(err) => return Err(ReadOutcome::Io(err)),
        }
    }
}

fn find_head_end(buffer: &[u8]) -> Option<usize> {
    buffer.windows(4).position(|w| w == b"\r\n\r\n").map(|at| at + 4)
}

/// Whether `buffer` already holds a complete request head (used to
/// distinguish mid-head from mid-body EOF in the reactor).
pub(crate) fn head_complete(buffer: &[u8]) -> bool {
    find_head_end(buffer).is_some()
}

/// Reads body bytes until `buffer` holds `head_end + length` bytes.
fn read_body(
    stream: &mut TcpStream,
    buffer: &mut Vec<u8>,
    head_end: usize,
    length: usize,
    limits: &Limits,
) -> Result<(), ReadOutcome> {
    // `length` is the peer's own content-length claim; unchecked addition
    // here once wrapped on a hostile declaration (the PR 3 overflow bug).
    let want =
        head_end.checked_add(length).ok_or(ReadOutcome::Malformed("content-length overflow"))?;
    let started = Instant::now();
    let mut chunk = [0u8; 16 * 1024];
    while buffer.len() < want {
        match stream.read(&mut chunk) {
            Ok(0) => return Err(ReadOutcome::Malformed("connection closed mid-body")),
            Ok(n) => match chunk.get(..n) {
                Some(filled) => buffer.extend_from_slice(filled),
                None => return Err(ReadOutcome::Malformed("read length out of range")),
            },
            Err(err) if is_timeout(&err) => {
                if started.elapsed() > limits.read_deadline {
                    return Err(ReadOutcome::Timeout);
                }
            }
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(err) => return Err(ReadOutcome::Io(err)),
        }
    }
    Ok(())
}

/// Outcome of one [`parse_request_bytes`] pass over a receive buffer.
#[derive(Debug)]
pub enum Parsed {
    /// The buffer does not yet hold one complete request.
    NeedMore,
    /// One complete request; the first `consumed` buffer bytes framed it
    /// (the caller drains them and re-parses — pipelined requests queue
    /// behind them untouched).
    Request {
        /// The parsed request.
        request: Request,
        /// Bytes of the buffer this request consumed (head + body).
        consumed: usize,
    },
}

/// Parses at most one request from the front of `buffer`.
///
/// Incremental: safe to call after every partial read. Limit violations
/// (`HeadTooLarge`, `BodyTooLarge`) are detected as early as the bytes
/// allow — an oversized declared body is rejected from its head alone,
/// before any body byte arrives.
pub fn parse_request_bytes(buffer: &[u8], limits: &Limits) -> Result<Parsed, ReadOutcome> {
    let Some(head_end) = find_head_end(buffer) else {
        if buffer.len() > limits.max_head_bytes {
            return Err(ReadOutcome::HeadTooLarge);
        }
        return Ok(Parsed::NeedMore);
    };
    let head_bytes = buffer
        .get(..head_end.saturating_sub(4))
        .ok_or(ReadOutcome::Malformed("head boundary out of range"))?;
    let head =
        std::str::from_utf8(head_bytes).map_err(|_| ReadOutcome::Malformed("head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(ReadOutcome::Malformed("bad request line")),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ReadOutcome::Malformed("unsupported HTTP version"));
    }
    let mut headers = Vec::new();
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(ReadOutcome::Malformed("bad header line"));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }
    let mut request =
        Request { method: method.to_owned(), target: target.to_owned(), headers, body: Vec::new() };
    let length = match request.header("content-length") {
        None => 0,
        Some(text) => match text.parse::<usize>() {
            Ok(length) => length,
            Err(_) => return Err(ReadOutcome::Malformed("bad content-length")),
        },
    };
    if length > limits.max_body_bytes {
        return Err(ReadOutcome::BodyTooLarge { declared: length });
    }
    if request.header("transfer-encoding").is_some() {
        return Err(ReadOutcome::Malformed("transfer-encoding not supported"));
    }
    let body_end =
        head_end.checked_add(length).ok_or(ReadOutcome::Malformed("content-length overflow"))?;
    if buffer.len() < body_end {
        return Ok(Parsed::NeedMore);
    }
    request.body = buffer
        .get(head_end..body_end)
        .ok_or(ReadOutcome::Malformed("body shorter than content-length"))?
        .to_vec();
    Ok(Parsed::Request { request, consumed: body_end })
}

/// A response under construction.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers (`Content-Type`, `Content-Length` and `Connection`
    /// are emitted automatically).
    pub headers: Vec<(&'static str, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
    /// MIME type of the body.
    pub content_type: &'static str,
}

impl Response {
    /// A JSON response.
    #[must_use]
    pub fn json(status: u16, value: &crate::json::Json) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: value.render().into_bytes(),
            content_type: "application/json",
        }
    }

    /// A plain-text response.
    #[must_use]
    pub fn text(status: u16, body: &str) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
            content_type: "text/plain; charset=utf-8",
        }
    }

    /// Adds a header.
    #[must_use]
    pub fn with_header(mut self, name: &'static str, value: String) -> Response {
        self.headers.push((name, value));
        self
    }

    /// Renders the head (status line through blank line) as a string.
    fn head_string(&self, close: bool) -> String {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            if close { "close" } else { "keep-alive" },
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        head
    }

    /// Appends just the head's wire form to `out` (the reactor's write
    /// queue splices large bodies in as their own vectored segment).
    pub(crate) fn encode_head_into(&self, out: &mut Vec<u8>, close: bool) {
        out.extend_from_slice(self.head_string(close).as_bytes());
    }

    /// Appends the full wire form (head + body) to `out`.
    ///
    /// The reactor serializes every response into a reusable
    /// per-connection write buffer and flushes on writability; pipelined
    /// responses simply append in order.
    pub fn encode_into(&self, out: &mut Vec<u8>, close: bool) {
        out.extend_from_slice(self.head_string(close).as_bytes());
        out.extend_from_slice(&self.body);
    }

    /// Serializes the response to `stream`. `close` controls the
    /// `Connection` header.
    pub fn write_to(&self, stream: &mut TcpStream, close: bool) -> io::Result<()> {
        let head = self.head_string(close);
        if let Some(fault) = twig_util::failpoint!("http.write") {
            if let twig_util::failpoint::Fault::Partial(keep_percent) = fault {
                // Write a prefix of the head, then fail: the client
                // sees a torn response on a closed socket.
                let bytes = head.as_bytes();
                let cap = usize::try_from(keep_percent).unwrap_or(100).min(100);
                if let Some((torn, _rest)) = bytes.split_at_checked(bytes.len() * cap / 100) {
                    let _ = stream.write_all(torn);
                }
            }
            return Err(injected("http.write"));
        }
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// The error value injected by `http.*` failpoints; compiled in default
/// builds too (the failpoint arms fold to unreachable code there).
fn injected(point: &str) -> io::Error {
    io::Error::other(format!("injected fault at {point}"))
}

/// Reason phrase for the status codes the server emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

// ---------------------------------------------------------------------
// Client side (loadgen, tests)
// ---------------------------------------------------------------------

/// Appends one encoded client request (head + body) to `out` without
/// touching the socket — callers batch several into one write when
/// pipelining.
pub fn encode_request(out: &mut Vec<u8>, method: &str, target: &str, body: &[u8]) {
    use std::io::Write as _;
    // Writing into a Vec cannot fail.
    let _ = write!(
        out,
        "{method} {target} HTTP/1.1\r\nhost: twig-serve\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    out.extend_from_slice(body);
}

/// Writes one client request with an optional body (a single syscall:
/// head and body go out together).
pub fn write_request(
    stream: &mut TcpStream,
    method: &str,
    target: &str,
    body: &[u8],
) -> io::Result<()> {
    let mut wire = Vec::with_capacity(96 + body.len());
    encode_request(&mut wire, method, target, body);
    stream.write_all(&wire)?;
    stream.flush()
}

/// A parsed client-side response.
#[derive(Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Headers with lowercased names.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First value of header `name` (lowercase).
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 (lossy).
    #[must_use]
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Reads one response from `stream` (client side). Any bytes read past
/// the response are discarded with the internal buffer, so this is only
/// correct when at most one response is in flight on the connection;
/// pipelined clients must use [`read_response_pipelined`].
pub fn read_response(
    stream: &mut TcpStream,
    limits: &Limits,
) -> Result<ClientResponse, ReadOutcome> {
    read_response_pipelined(stream, &mut Vec::new(), limits)
}

/// Reads one response from a connection that may carry several
/// (HTTP/1.1 pipelining): a single socket read can deliver the tail of
/// response N together with the head of response N+1, so the caller
/// owns `buffer` for the connection's lifetime and exactly one
/// response's bytes are drained from it per call. Reset the buffer on
/// reconnect.
pub fn read_response_pipelined(
    stream: &mut TcpStream,
    buffer: &mut Vec<u8>,
    limits: &Limits,
) -> Result<ClientResponse, ReadOutcome> {
    let head_end = read_head(stream, buffer, limits)?;
    // Same discipline as the server side: the response bytes are peer
    // input, so the head boundary is checked rather than trusted.
    let head_bytes = buffer
        .get(..head_end.saturating_sub(4))
        .ok_or(ReadOutcome::Malformed("head boundary out of range"))?;
    let head =
        std::str::from_utf8(head_bytes).map_err(|_| ReadOutcome::Malformed("head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let mut parts = status_line.split(' ');
    let status = match (parts.next(), parts.next()) {
        (Some(version), Some(code)) if version.starts_with("HTTP/1.") => {
            code.parse::<u16>().map_err(|_| ReadOutcome::Malformed("bad status code"))?
        }
        _ => return Err(ReadOutcome::Malformed("bad status line")),
    };
    let mut headers = Vec::new();
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(ReadOutcome::Malformed("bad header line"));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }
    let length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok())
        .unwrap_or(0);
    if length > limits.max_body_bytes {
        return Err(ReadOutcome::BodyTooLarge { declared: length });
    }
    read_body(stream, buffer, head_end, length, limits)?;
    let body_end =
        head_end.checked_add(length).ok_or(ReadOutcome::Malformed("content-length overflow"))?;
    let body = buffer
        .get(head_end..body_end)
        .ok_or(ReadOutcome::Malformed("body shorter than content-length"))?
        .to_vec();
    // Consume exactly this response; pipelined successors stay queued.
    buffer.drain(..body_end);
    Ok(ClientResponse { status, headers, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Loopback pair: returns (client, server) connected streams.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    fn tight_limits() -> Limits {
        Limits {
            max_head_bytes: 1024,
            max_body_bytes: 64,
            read_deadline: Duration::from_millis(400),
            idle_deadline: Duration::from_millis(400),
        }
    }

    #[test]
    fn parses_request_with_body_and_keepalive() {
        let mut wire = Vec::new();
        encode_request(&mut wire, "POST", "/estimate?x=1", b"{\"a\":1}");
        let Ok(Parsed::Request { request, consumed }) = parse_request_bytes(&wire, &tight_limits())
        else {
            panic!("complete request must parse");
        };
        assert_eq!(consumed, wire.len());
        assert_eq!(request.method, "POST");
        assert_eq!(request.target, "/estimate?x=1");
        assert_eq!(request.path(), "/estimate");
        assert_eq!(request.body, b"{\"a\":1}");
        assert!(request.keep_alive());
        assert_eq!(request.header("host"), Some("twig-serve"));
    }

    #[test]
    fn response_roundtrips_through_client_reader() {
        let (mut client, mut server) = pair();
        let response = Response::text(200, "hello").with_header("retry-after", "1".into());
        response.write_to(&mut server, false).unwrap();
        let parsed = read_response(&mut client, &tight_limits()).unwrap();
        assert_eq!(parsed.status, 200);
        assert_eq!(parsed.body_text(), "hello");
        assert_eq!(parsed.header("retry-after"), Some("1"));
        assert_eq!(parsed.header("connection"), Some("keep-alive"));
    }
}
