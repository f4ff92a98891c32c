//! A hand-rolled HTTP/1.1 server over [`std::net::TcpListener`].
//!
//! This environment has no network access to a crate registry, so the
//! serving layer is **std-only**: request parsing, response framing and
//! the fixed worker thread pool are implemented here from scratch. The
//! subset of HTTP/1.1 supported is exactly what the wire protocol of
//! `docs/PROTOCOL.md` needs:
//!
//! * methods with an optional `Content-Length` body (no chunked
//!   transfer-encoding, no trailers);
//! * query strings with percent-decoding;
//! * persistent connections (`keep-alive` by default, honoring a
//!   `close` token in the `Connection` list), with an idle read timeout
//!   so worker threads re-check the shutdown flag;
//! * bounded request sizes (64 KiB of head, 16 MiB of body) — oversized
//!   requests get `413` instead of unbounded buffering;
//! * an optional per-request *receive deadline*
//!   ([`ServerOptions::read_deadline`]): the socket's idle timeout is
//!   per-`read(2)`, so a client trickling one byte per poll interval
//!   could otherwise hold a worker forever; with a deadline armed at a
//!   request's first byte, such a request is answered
//!   `503 E-RESOURCE` and the connection closed.
//!
//! Requests with conflicting duplicate `Content-Length` headers are
//! rejected with `400` (request-smuggling hygiene; equal duplicates are
//! tolerated).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use triq_common::json::Json;

/// Maximum size of the request line + headers.
const MAX_HEAD: usize = 64 * 1024;
/// Maximum accepted `Content-Length`.
const MAX_BODY: usize = 16 * 1024 * 1024;
/// Idle-connection read timeout; workers poll the shutdown flag at this
/// granularity.
const IDLE_TIMEOUT: Duration = Duration::from_millis(500);

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// The method verb, upper-cased as received (`GET`, `POST`, …).
    pub method: String,
    /// The path, percent-decoded, without the query string.
    pub path: String,
    /// Query-string parameters, percent-decoded, in order of appearance.
    pub query: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    keep_alive: bool,
}

impl Request {
    /// The last value of query parameter `name`, if present.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text (`Err` is the ready-to-send 400 response).
    pub fn body_str(&self) -> Result<&str, Response> {
        std::str::from_utf8(&self.body)
            .map_err(|_| Response::error(400, "E-HTTP-BAD-REQUEST", "request body is not UTF-8"))
    }
}

/// An HTTP response ready to be framed onto the wire.
#[derive(Debug, Clone)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// The `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra response headers (name, value), written after the framing
    /// headers. Names must be valid header tokens; values must not
    /// contain CR/LF.
    pub headers: Vec<(&'static str, String)>,
    /// The response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: &Json) -> Response {
        Response::json_body(status, body.to_string().into_bytes())
    }

    /// A JSON response whose body is already rendered.
    pub(crate) fn json_body(status: u16, body: Vec<u8>) -> Response {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body,
        }
    }

    /// A plain-text response (the `/metrics` exposition).
    pub fn text(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "text/plain; version=0.0.4",
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// Adds one extra response header.
    pub fn with_header(mut self, name: &'static str, value: String) -> Response {
        self.headers.push((name, value));
        self
    }

    /// The protocol's error shape: `{"error": code, "message": …}`.
    pub fn error(status: u16, code: &str, message: &str) -> Response {
        Response::json(
            status,
            &Json::obj([("error", Json::str(code)), ("message", Json::str(message))]),
        )
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            403 => "Forbidden",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            503 => "Service Unavailable",
            _ => "Internal Server Error",
        }
    }

    /// Frames the response onto the wire: status line, headers and body
    /// are assembled first and handed to the stream as one buffer, so an
    /// unbuffered `TCP_NODELAY` socket sees one `write(2)` and one
    /// segment train per response instead of one per fragment.
    fn write_to(&self, stream: &mut impl Write, keep_alive: bool) -> std::io::Result<()> {
        // 256 bytes hold the status line and headers without a regrow.
        let mut wire = Vec::with_capacity(256 + self.body.len());
        write!(
            wire,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        )?;
        for (name, value) in &self.headers {
            write!(wire, "{name}: {value}\r\n")?;
        }
        wire.extend_from_slice(b"\r\n");
        wire.extend_from_slice(&self.body);
        stream.write_all(&wire)?;
        stream.flush()
    }
}

/// Percent-decodes a URL component (`+` is a space in query strings).
fn percent_decode(s: &str, plus_is_space: bool) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|h| {
                    std::str::from_utf8(h)
                        .ok()
                        .and_then(|h| u8::from_str_radix(h, 16).ok())
                });
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' if plus_is_space => {
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

/// Splits and decodes a query string into ordered key/value pairs.
fn parse_query(qs: &str) -> Vec<(String, String)> {
    qs.split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (percent_decode(k, true), percent_decode(v, true))
        })
        .collect()
}

/// Tuning knobs beyond the compiled-in size bounds, passed to
/// [`Server::serve_with`]. The [`Default`] (`read_deadline: None`)
/// reproduces [`Server::serve`]'s behavior exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerOptions {
    /// Wall-clock budget for *receiving* one request, armed at its first
    /// byte. The socket's idle timeout is per-`read(2)`, so without this
    /// a client trickling bytes just under the idle interval holds a
    /// worker thread indefinitely; past the deadline the request is
    /// answered `503 E-RESOURCE` and the connection closed. `None`
    /// disables the bound.
    pub read_deadline: Option<Duration>,
}

/// The outcome of reading one request off a connection.
enum Read1 {
    /// A complete request.
    Ok(Request),
    /// Clean EOF or idle timeout before any bytes — stop serving.
    Closed,
    /// Malformed input: send this response and close.
    Bad(Response),
}

/// The outcome of reading one head line.
enum LineRead {
    /// A line (possibly unterminated at EOF or the head budget) is in
    /// the buffer.
    Line,
    /// EOF with nothing buffered.
    Eof,
    /// The per-read idle timeout fired.
    Idle,
    /// The request's receive deadline passed.
    Deadline,
}

/// Reads one `\n`-terminated line into `line`, stopping at `budget`
/// bytes. Works on the `BufReader`'s own buffer (`fill_buf`/`consume`)
/// so the receive deadline can be polled between socket reads; the first
/// byte that arrives arms the deadline via `limit`.
fn read_head_line(
    reader: &mut BufReader<TcpStream>,
    line: &mut Vec<u8>,
    budget: usize,
    deadline: &mut Option<Instant>,
    limit: Option<Duration>,
) -> LineRead {
    loop {
        if line.len() >= budget {
            // Budget ran out mid-line: the caller answers 413.
            return LineRead::Line;
        }
        let available = match reader.fill_buf() {
            Ok([]) => {
                return if line.is_empty() {
                    LineRead::Eof
                } else {
                    LineRead::Line
                }
            }
            Ok(buf) => buf,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return if deadline.is_some_and(|at| Instant::now() >= at) {
                    LineRead::Deadline
                } else {
                    LineRead::Idle
                };
            }
            Err(_) => return LineRead::Eof,
        };
        if deadline.is_none() {
            // First byte of the request: arm the receive deadline.
            *deadline = limit.map(|d| Instant::now() + d);
        }
        let take = available.len().min(budget - line.len());
        let (consumed, done) = match available[..take].iter().position(|&b| b == b'\n') {
            Some(nl) => (nl + 1, true),
            None => (take, false),
        };
        line.extend_from_slice(&available[..consumed]);
        reader.consume(consumed);
        if done {
            return LineRead::Line;
        }
        if deadline.is_some_and(|at| Instant::now() >= at) {
            return LineRead::Deadline;
        }
    }
}

fn read_request(reader: &mut BufReader<TcpStream>, options: &ServerOptions) -> Read1 {
    // Request line + headers, bounded: each line read is capped at the
    // remaining head budget, so a client streaming bytes without a
    // newline hits the 413 instead of growing the line buffer without
    // limit.
    let mut head = String::new();
    let mut line: Vec<u8> = Vec::new();
    // Incremental header-line count — the accumulated head is never
    // rescanned (a 64 KiB head of short lines used to cost O(n²)).
    let mut header_lines = 0usize;
    let mut deadline: Option<Instant> = None;
    loop {
        line.clear();
        let budget = (MAX_HEAD + 2).saturating_sub(head.len());
        match read_head_line(
            reader,
            &mut line,
            budget,
            &mut deadline,
            options.read_deadline,
        ) {
            LineRead::Line => {}
            LineRead::Eof => return Read1::Closed,
            LineRead::Idle => {
                // Idle between requests (nothing received) is a clean
                // close; mid-request it is a client error.
                return if head.is_empty() && line.is_empty() {
                    Read1::Closed
                } else {
                    Read1::Bad(Response::error(
                        400,
                        "E-HTTP-BAD-REQUEST",
                        "timed out mid-request",
                    ))
                };
            }
            LineRead::Deadline => {
                return Read1::Bad(Response::error(
                    503,
                    "E-RESOURCE",
                    "read deadline exceeded while receiving the request",
                ));
            }
        }
        let Ok(text) = std::str::from_utf8(&line) else {
            return Read1::Closed;
        };
        if text == "\r\n" || text == "\n" {
            break;
        }
        if !text.ends_with('\n') && line.len() == budget {
            // The budget ran out mid-line: an oversized (or never
            // newline-terminated) head.
            return Read1::Bad(Response::error(
                413,
                "E-HTTP-TOO-LARGE",
                "request head exceeds 64 KiB",
            ));
        }
        head.push_str(text);
        header_lines += 1;
        if head.len() > MAX_HEAD {
            return Read1::Bad(Response::error(
                413,
                "E-HTTP-TOO-LARGE",
                "request head exceeds 64 KiB",
            ));
        }
        if header_lines == 1 && !head.contains("HTTP/") {
            return Read1::Bad(Response::error(
                400,
                "E-HTTP-BAD-REQUEST",
                "malformed request line",
            ));
        }
    }
    let mut lines = head.lines();
    let Some(request_line) = lines.next() else {
        return Read1::Bad(Response::error(400, "E-HTTP-BAD-REQUEST", "empty request"));
    };
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Read1::Bad(Response::error(
            400,
            "E-HTTP-BAD-REQUEST",
            "malformed request line",
        ));
    };
    // Headers we care about: Content-Length, Connection.
    let mut content_length: Option<usize> = None;
    let mut keep_alive = true; // HTTP/1.1 default
    for h in lines {
        let Some((name, value)) = h.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            match value.parse::<usize>() {
                Ok(n) => {
                    // Conflicting duplicates are a request-smuggling
                    // vector — never pick one silently. Equal duplicates
                    // are tolerated (RFC 9110 §8.6).
                    if content_length.is_some_and(|prev| prev != n) {
                        return Read1::Bad(Response::error(
                            400,
                            "E-HTTP-BAD-REQUEST",
                            "conflicting Content-Length headers",
                        ));
                    }
                    content_length = Some(n);
                }
                Err(_) => {
                    return Read1::Bad(Response::error(
                        400,
                        "E-HTTP-BAD-REQUEST",
                        "bad Content-Length",
                    ))
                }
            }
        } else if name.eq_ignore_ascii_case("connection") {
            // `Connection` is a comma-separated token list (e.g.
            // `close, te`); a `close` token anywhere wins.
            if value
                .split(',')
                .any(|t| t.trim().eq_ignore_ascii_case("close"))
            {
                keep_alive = false;
            }
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY {
        return Read1::Bad(Response::error(
            413,
            "E-HTTP-TOO-LARGE",
            "request body exceeds 16 MiB",
        ));
    }
    let mut body = vec![0u8; content_length];
    let mut got = 0usize;
    while got < content_length {
        if deadline.is_some_and(|at| Instant::now() >= at) {
            return Read1::Bad(Response::error(
                503,
                "E-RESOURCE",
                "read deadline exceeded while receiving the request body",
            ));
        }
        match reader.read(&mut body[got..]) {
            Ok(0) => {
                return Read1::Bad(Response::error(
                    400,
                    "E-HTTP-BAD-REQUEST",
                    "body shorter than Content-Length",
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if deadline.is_some_and(|at| Instant::now() >= at) {
                    return Read1::Bad(Response::error(
                        503,
                        "E-RESOURCE",
                        "read deadline exceeded while receiving the request body",
                    ));
                }
                return Read1::Bad(Response::error(
                    400,
                    "E-HTTP-BAD-REQUEST",
                    "body shorter than Content-Length",
                ));
            }
            Err(_) => {
                return Read1::Bad(Response::error(
                    400,
                    "E-HTTP-BAD-REQUEST",
                    "body shorter than Content-Length",
                ))
            }
        }
    }
    let (path, qs) = target.split_once('?').unwrap_or((target, ""));
    Read1::Ok(Request {
        method: method.to_ascii_uppercase(),
        path: percent_decode(path, false),
        query: parse_query(qs),
        body,
        keep_alive,
    })
}

/// Lets a handler ask the server to stop accepting and drain.
pub struct ServerControl {
    stop: Arc<AtomicBool>,
}

impl ServerControl {
    /// Requests a graceful shutdown: the accept loop stops, workers
    /// finish their in-flight requests and exit.
    pub fn request_shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }
}

/// A request handler: the bridge between the HTTP layer and the query
/// service.
pub trait Handler: Send + Sync + 'static {
    /// Produces the response for one request. `ctl` allows the handler
    /// to request a graceful server shutdown (the response is still
    /// delivered first).
    fn handle(&self, req: &Request, ctl: &ServerControl) -> Response;
}

/// A running HTTP server: a bound listener, one accept thread and a
/// fixed pool of worker threads.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts serving `handler` on `threads` worker threads with the
    /// default [`ServerOptions`].
    pub fn serve(handler: Arc<dyn Handler>, addr: &str, threads: usize) -> std::io::Result<Server> {
        Server::serve_with(handler, addr, threads, ServerOptions::default())
    }

    /// [`Server::serve`] with explicit [`ServerOptions`].
    pub fn serve_with(
        handler: Arc<dyn Handler>,
        addr: &str,
        threads: usize,
        options: ServerOptions,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let workers: Vec<JoinHandle<()>> = (0..threads.max(1))
            .map(|_| {
                let rx = rx.clone();
                let handler = handler.clone();
                let stop = stop.clone();
                std::thread::spawn(move || loop {
                    let stream = {
                        let guard = rx.lock().expect("worker queue poisoned");
                        guard.recv()
                    };
                    match stream {
                        Ok(stream) => serve_connection(stream, &*handler, &stop, &options),
                        Err(_) => break, // accept loop gone: drain done
                    }
                })
            })
            .collect();
        let accept = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        let _ = stream.set_read_timeout(Some(IDLE_TIMEOUT));
                        let _ = stream.set_nodelay(true);
                        if tx.send(stream).is_err() {
                            break;
                        }
                    }
                }
                // Dropping `tx` here closes the worker queue.
            })
        };
        Ok(Server {
            addr: local,
            stop,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once a shutdown has been requested (by [`Server::shutdown`]
    /// or a handler via [`ServerControl`]).
    pub fn shutdown_requested(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Requests a graceful stop and waits for the accept thread and all
    /// workers to drain.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.join_threads();
    }

    /// Blocks until a shutdown is requested (e.g. by a handler serving
    /// `POST /shutdown`), then drains. This is what `triq-cli serve`
    /// parks on.
    pub fn join(mut self) {
        while !self.stop.load(Ordering::SeqCst) {
            std::thread::sleep(IDLE_TIMEOUT);
        }
        self.join_threads();
    }

    fn join_threads(&mut self) {
        // Unblock the accept loop with a dummy connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.join_threads();
    }
}

/// Serves one connection until EOF, `Connection: close`, a protocol
/// error, or server shutdown.
fn serve_connection(
    stream: TcpStream,
    handler: &dyn Handler,
    stop: &Arc<AtomicBool>,
    options: &ServerOptions,
) {
    let ctl = ServerControl { stop: stop.clone() };
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match read_request(&mut reader, options) {
            Read1::Ok(req) => {
                let resp = handler.handle(&req, &ctl);
                let keep = req.keep_alive && !stop.load(Ordering::SeqCst);
                if resp.write_to(&mut writer, keep).is_err() || !keep {
                    return;
                }
            }
            Read1::Closed => return,
            Read1::Bad(resp) => {
                let _ = resp.write_to(&mut writer, false);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b+c", true), "a b c");
        assert_eq!(percent_decode("a%20b+c", false), "a b+c");
        assert_eq!(percent_decode("%zz%4", true), "%zz%4");
        assert_eq!(percent_decode("%E2%8A%A4", false), "⊤");
    }

    #[test]
    fn query_parsing_keeps_order_and_last_wins_via_param() {
        let q = parse_query("a=1&b=x%26y&a=2&flag");
        assert_eq!(q.len(), 4);
        let req = Request {
            method: "GET".into(),
            path: "/".into(),
            query: q,
            body: vec![],
            keep_alive: true,
        };
        assert_eq!(req.param("a"), Some("2"));
        assert_eq!(req.param("b"), Some("x&y"));
        assert_eq!(req.param("flag"), Some(""));
        assert_eq!(req.param("missing"), None);
    }

    /// A sink that takes at most `accept` bytes per call and counts the
    /// calls, like a socket with a small send buffer.
    struct Sink {
        accept: usize,
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.accept);
            self.writes += 1;
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_is_one_write_and_survives_partial_writes() {
        let resp = Response::json(200, &Json::obj([("ok", Json::Bool(true))]))
            .with_header("X-Request-Id", "7".into());
        let wire = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                    Content-Length: 11\r\nConnection: keep-alive\r\n\
                    X-Request-Id: 7\r\n\r\n{\"ok\":true}";
        let mut whole = Sink {
            accept: usize::MAX,
            writes: 0,
            bytes: Vec::new(),
        };
        resp.write_to(&mut whole, true).unwrap();
        assert_eq!(whole.writes, 1, "head and body go out in one write");
        assert_eq!(String::from_utf8(whole.bytes).unwrap(), wire);

        let mut trickle = Sink {
            accept: 1,
            writes: 0,
            bytes: Vec::new(),
        };
        resp.write_to(&mut trickle, true).unwrap();
        assert_eq!(trickle.writes, wire.len());
        assert_eq!(String::from_utf8(trickle.bytes).unwrap(), wire);
    }
}
