//! Shared hand-rolled HTTP/1.1 plumbing for the hand-rolled servers.
//!
//! Both the metrics exporter ([`crate::server`]) and the
//! `prefall-fleet` ingest listener speak the same ten lines of HTTP:
//! a request line, a bounded header block, an optional
//! `Content-Length`-framed body, a `Content-Length`-framed response.
//! This module is that dialect, and the accept loop under it, written
//! once:
//!
//! * [`Acceptor`] — a thread blocked in `accept()` hands each stream,
//!   armed with the connection deadline as read and write timeout, to
//!   the server's closure (obsd serves it inline, the fleet queues
//!   it). Shutdown wakes the `accept` by connecting to the listener's
//!   own address.
//! * [`read_request`] — parses one request off a [`BufReader`] under a
//!   hard wall-clock *deadline*: every blocking read is armed with the
//!   time remaining, so a client that trickles one byte per second (the
//!   slowloris pattern) is cut off when the budget runs out instead of
//!   pinning the serving thread for minutes.
//! * [`respond_with`] — a `Content-Length`-framed response with
//!   keep-alive and extra headers (the fleet's `Retry-After` hint).
//!   Head and body go out in two writes on a socket without
//!   `TCP_NODELAY`, so on a busy keep-alive connection the body waits
//!   out the peer's delayed ACK (~40 ms); ROADMAP.md item 1 tracks it.
//! * [`is_timeout`] — the deadline shows up as `TimedOut` *or*
//!   `WouldBlock` depending on platform; callers count either as a
//!   connection timeout.
//!
//! The dialect is deliberately small: no chunked encoding, no TLS, no
//! multiline headers. Both servers bind loopback in every shipped
//! configuration. Anything outside it that could desynchronise the
//! framing of a keep-alive connection is refused rather than guessed
//! at: an over-long line, a header block without its blank line, a
//! repeated `Content-Length`.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Cap on any single header or request line.
const MAX_LINE: u64 = 4096;
/// Cap on the header block: its blank line must come within this many
/// lines.
const MAX_HEADERS: usize = 64;

/// One parsed request: the start line, the two headers the servers
/// care about, and the (possibly empty) body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method, e.g. `GET` or `POST`.
    pub method: String,
    /// Request target, query string included.
    pub path: String,
    /// The `Content-Length`-framed body (empty when none was sent).
    pub body: Vec<u8>,
    /// Whether the client may send another request on this connection
    /// (`HTTP/1.1` default, overridden by `Connection:` headers).
    pub keep_alive: bool,
}

/// `true` when an I/O error is a read/write timeout — the deadline in
/// [`read_request`] surfaces as `TimedOut` on some platforms and
/// `WouldBlock` on others.
pub fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
    )
}

/// Arms the stream's read timeout with the time left until `deadline`,
/// failing with `TimedOut` when the budget is already spent.
fn arm_read(stream: &TcpStream, deadline: Instant) -> io::Result<()> {
    let remaining = deadline
        .checked_duration_since(Instant::now())
        .filter(|d| !d.is_zero())
        .ok_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "connection deadline exceeded"))?;
    stream.set_read_timeout(Some(remaining))
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Reads one line of at most `MAX_LINE` bytes into `line` under the
/// deadline. A line that fills the cap without its newline is refused:
/// splitting it would serve the rest as a fresh header or request.
fn read_line(
    reader: &mut BufReader<TcpStream>,
    deadline: Instant,
    line: &mut String,
) -> io::Result<usize> {
    arm_read(reader.get_ref(), deadline)?;
    line.clear();
    let n = reader.by_ref().take(MAX_LINE).read_line(line)?;
    if n as u64 == MAX_LINE && !line.ends_with('\n') {
        return Err(invalid("line exceeds cap"));
    }
    Ok(n)
}

/// Reads and parses one HTTP request, enforcing `deadline` on every
/// blocking read. Returns `Ok(None)` on a clean end-of-stream before
/// any bytes (the peer closed an idle keep-alive connection).
///
/// The reader is caller-owned so keep-alive loops retain buffered
/// pipelined bytes between calls.
///
/// # Errors
///
/// * [`io::ErrorKind::TimedOut`] / `WouldBlock` when the deadline cuts
///   a read short (see [`is_timeout`]);
/// * [`io::ErrorKind::InvalidData`] for malformed framing — a line of
///   `MAX_LINE` bytes without a newline, no blank line within
///   `MAX_HEADERS` header lines, a repeated or unparsable
///   `Content-Length` — or a body larger than `max_body`; callers
///   should answer 400/413 and close;
/// * any underlying socket error, including `UnexpectedEof` when the
///   peer closes before the announced body arrives.
pub fn read_request(
    reader: &mut BufReader<TcpStream>,
    deadline: Instant,
    max_body: usize,
) -> io::Result<Option<HttpRequest>> {
    let mut request_line = String::new();
    if read_line(reader, deadline, &mut request_line)? == 0 {
        return Ok(None);
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("HTTP/1.1");
    if method.is_empty() || path.is_empty() {
        return Err(invalid("malformed request line"));
    }

    let mut keep_alive = version != "HTTP/1.0";
    let mut content_length: Option<usize> = None;
    let mut header = String::new();
    for lines in 1.. {
        if read_line(reader, deadline, &mut header)? == 0 || header == "\r\n" || header == "\n" {
            break;
        }
        if lines == MAX_HEADERS {
            return Err(invalid("header block exceeds cap"));
        }
        let Some((name, value)) = header.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            if content_length.is_some() {
                return Err(invalid("repeated content-length"));
            }
            content_length = Some(value.parse().map_err(|_| invalid("bad content-length"))?);
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
    }

    let content_length = content_length.unwrap_or(0);
    if content_length > max_body {
        return Err(invalid("request body exceeds cap"));
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        arm_read(reader.get_ref(), deadline)?;
        reader.read_exact(&mut body)?;
    }
    Ok(Some(HttpRequest {
        method,
        path,
        body,
        keep_alive,
    }))
}

/// Writes a `Content-Length`-framed response with keep-alive control
/// and extra headers (the fleet's `Retry-After` hint rides here).
#[allow(clippy::too_many_arguments)]
pub fn respond_with(
    stream: &mut impl Write,
    code: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
    head_only: bool,
    keep_alive: bool,
    extra: &[(&str, String)],
) -> io::Result<()> {
    let mut header = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        body.len()
    );
    for (name, value) in extra {
        header.push_str(name);
        header.push_str(": ");
        header.push_str(value);
        header.push_str("\r\n");
    }
    header.push_str(if keep_alive {
        "Connection: keep-alive\r\n\r\n"
    } else {
        "Connection: close\r\n\r\n"
    });
    stream.write_all(header.as_bytes())?;
    if !head_only {
        stream.write_all(body)?;
    }
    stream.flush()
}

/// Pause after a failed `accept`, the accept loop's only sleep.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(20);
/// Bound on one shutdown wake-up connect.
const WAKE_TIMEOUT: Duration = Duration::from_millis(100);

/// A listener served by one blocking-accept thread. Dropping it is
/// [`Acceptor::shutdown`].
#[derive(Debug)]
pub struct Acceptor {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Acceptor {
    /// Starts the thread `name`, which accepts on `listener` until
    /// shutdown and passes each stream to `on_accept` on that thread,
    /// armed with `deadline` as its read and write timeout (one that
    /// cannot be armed is dropped). A failed `accept`
    /// is passed as `Err` and followed by the loop's only sleep, a
    /// short back-off, so a lasting failure (`EMFILE`) cannot spin.
    ///
    /// # Errors
    ///
    /// An unreadable local address or a failed thread spawn.
    pub fn spawn<F>(
        listener: TcpListener,
        name: &str,
        deadline: Duration,
        mut on_accept: F,
    ) -> io::Result<Self>
    where
        F: FnMut(io::Result<TcpStream>) + Send + 'static,
    {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || loop {
                let accepted = listener.accept();
                // Whatever woke us after the stop flag (Acquire pairs
                // with `shutdown`'s Release) is dropped unserved.
                if thread_stop.load(Ordering::Acquire) {
                    return;
                }
                match accepted {
                    Ok((stream, _)) => {
                        if arm(&stream, deadline).is_ok() {
                            on_accept(Ok(stream));
                        }
                    }
                    Err(e) => {
                        on_accept(Err(e));
                        std::thread::sleep(ACCEPT_BACKOFF);
                    }
                }
            })?;
        Ok(Self {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (resolves port `0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept thread and joins it: raises the stop flag, then
    /// connects to the listener to wake its blocked `accept`, retrying
    /// until a connect lands or the thread has ended. Idempotent.
    pub fn shutdown(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        let wake = wake_addr(self.addr);
        while !thread.is_finished() {
            if TcpStream::connect_timeout(&wake, WAKE_TIMEOUT).is_ok() {
                break;
            }
            std::thread::sleep(ACCEPT_BACKOFF);
        }
        let _ = thread.join();
    }
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Arms an accepted stream: no read or write may block longer than the
/// connection deadline.
fn arm(stream: &TcpStream, deadline: Duration) -> io::Result<()> {
    stream.set_read_timeout(Some(deadline))?;
    stream.set_write_timeout(Some(deadline))
}

/// Where a connect reaches `addr`: an unspecified bind address
/// (`0.0.0.0`, `[::]`) maps to loopback.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Duration;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn parses_a_request_with_body_and_keep_alive() {
        let (mut client, server) = pair();
        write!(
            client,
            "POST /ingest HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello"
        )
        .unwrap();
        let mut reader = BufReader::new(server);
        let req = read_request(
            &mut reader,
            Instant::now() + Duration::from_secs(1),
            1 << 20,
        )
        .unwrap()
        .expect("one request");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/ingest");
        assert_eq!(req.body, b"hello");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let (mut client, server) = pair();
        write!(client, "GET /a HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        write!(client, "GET /b HTTP/1.0\r\n\r\n").unwrap();
        let mut reader = BufReader::new(server);
        let deadline = Instant::now() + Duration::from_secs(1);
        let a = read_request(&mut reader, deadline, 0).unwrap().unwrap();
        assert!(!a.keep_alive);
        let b = read_request(&mut reader, deadline, 0).unwrap().unwrap();
        assert!(!b.keep_alive);
    }

    #[test]
    fn clean_eof_is_none_not_an_error() {
        let (client, server) = pair();
        drop(client);
        let mut reader = BufReader::new(server);
        let got = read_request(&mut reader, Instant::now() + Duration::from_secs(1), 0).unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn stalled_request_times_out_at_the_deadline() {
        let (mut client, server) = pair();
        // A slowloris: the request line never finishes.
        write!(client, "GET /metr").unwrap();
        client.flush().unwrap();
        let mut reader = BufReader::new(server);
        let start = Instant::now();
        let err = read_request(&mut reader, start + Duration::from_millis(120), 0)
            .expect_err("must time out");
        assert!(is_timeout(&err), "unexpected error kind: {err:?}");
        assert!(start.elapsed() < Duration::from_secs(2), "bounded wait");
    }

    #[test]
    fn oversized_bodies_are_refused_before_allocation() {
        let (mut client, server) = pair();
        write!(
            client,
            "POST /ingest HTTP/1.1\r\nContent-Length: 999999\r\n\r\n"
        )
        .unwrap();
        let mut reader = BufReader::new(server);
        let err = read_request(&mut reader, Instant::now() + Duration::from_secs(1), 1024)
            .expect_err("must refuse");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// Reads one request off `wire` written whole and closed.
    fn parse_one(wire: &[u8]) -> io::Result<Option<HttpRequest>> {
        let (mut client, server) = pair();
        client.write_all(wire).unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let mut reader = BufReader::new(server);
        read_request(&mut reader, Instant::now() + Duration::from_secs(1), 1024)
    }

    #[test]
    fn over_long_header_lines_are_refused_not_split() {
        // The cap falls inside the `X-Pad` value; a split line would
        // obey the `Content-Length` smuggled in after it.
        let pad = "a".repeat(MAX_LINE as usize - "X-Pad: ".len());
        let wire = format!("POST /ingest HTTP/1.1\r\nX-Pad: {pad}Content-Length: 5\r\n\r\nhello");
        let err = parse_one(wire.as_bytes()).expect_err("must refuse");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let long_target = format!("GET /{} HTTP/1.1\r\n\r\n", "p".repeat(MAX_LINE as usize));
        let err = parse_one(long_target.as_bytes()).expect_err("must refuse");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn header_floods_are_refused_not_served_as_the_next_request() {
        let mut wire = String::from("GET /a HTTP/1.1\r\n");
        for i in 0..MAX_HEADERS {
            wire.push_str(&format!("X-{i}: v\r\n"));
        }
        wire.push_str("GET /smuggled HTTP/1.1\r\n\r\n");
        let err = parse_one(wire.as_bytes()).expect_err("must refuse");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // One header short of the cap still parses.
        let mut wire = String::from("GET /a HTTP/1.1\r\n");
        for i in 0..MAX_HEADERS - 1 {
            wire.push_str(&format!("X-{i}: v\r\n"));
        }
        wire.push_str("\r\n");
        assert_eq!(parse_one(wire.as_bytes()).unwrap().unwrap().path, "/a");
    }

    #[test]
    fn repeated_content_length_is_refused() {
        let wire = b"POST /ingest HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 0\r\n\r\nhello";
        let err = parse_one(wire).expect_err("must refuse");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn respond_with_carries_extra_headers() {
        let mut out = Vec::new();
        respond_with(
            &mut out,
            429,
            "Too Many Requests",
            "text/plain",
            b"backoff\n",
            false,
            true,
            &[("Retry-After", "2".to_string())],
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{text}"
        );
        assert!(text.contains("Retry-After: 2\r\n"), "{text}");
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\nbackoff\n"), "{text}");
    }

    #[test]
    fn acceptor_on_an_unspecified_address_serves_and_shuts_down() {
        let listener = TcpListener::bind("0.0.0.0:0").unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let mut acceptor = Acceptor::spawn(
            listener,
            "test-accept",
            Duration::from_secs(1),
            move |accepted| {
                let stream = accepted.unwrap();
                tx.send(stream.write_timeout().unwrap()).unwrap();
            },
        )
        .unwrap();
        let _client = TcpStream::connect(wake_addr(acceptor.addr())).unwrap();
        let write_timeout = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(write_timeout, Some(Duration::from_secs(1)));

        // The wake-up connect reaches the listener through loopback and
        // is never handed to the closure.
        let start = Instant::now();
        acceptor.shutdown();
        assert!(start.elapsed() < Duration::from_millis(100));
        assert!(rx.try_recv().is_err());
    }
}
