//! The outside of the system under test: the `triq-cli serve` child
//! process and the keep-alive loopback connections that drive it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::json::{self, Value};
use crate::measure::proc_status_kb;

/// A decoded response. `elapsed` runs from the first request byte
/// written to the last response byte read.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: String,
    pub elapsed: Duration,
}

/// A response that takes longer than this is a failed request (the
/// slowest operation of any workload answers in well under a second).
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// One keep-alive connection.
#[derive(Debug)]
pub struct Conn {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn { addr, stream: None }
    }

    pub fn post(&mut self, path: &str, body: &str) -> Result<Response, String> {
        self.request("POST", path, body)
    }

    pub fn get(&mut self, path: &str) -> Result<Response, String> {
        self.request("GET", path, "")
    }

    /// `GET path`, parsed as JSON; any non-200 is an error.
    pub fn get_json(&mut self, path: &str) -> Result<Value, String> {
        let r = self.get(path)?;
        if r.status != 200 {
            return Err(format!("GET {path}: status {}: {}", r.status, r.body));
        }
        json::parse(&r.body)
    }

    /// One request. The server drops connections idle for ~0.5 s, so a
    /// reused connection that yields no response byte at all is replaced
    /// once: the server closed it before reading, nothing was executed.
    fn request(&mut self, method: &str, path: &str, body: &str) -> Result<Response, String> {
        let reused = self.stream.is_some();
        match self.try_request(method, path, body) {
            Err(Failure::NoResponse(_)) if reused => self
                .try_request(method, path, body)
                .map_err(|f| f.message()),
            other => other.map_err(|f| f.message()),
        }
    }

    fn try_request(&mut self, method: &str, path: &str, body: &str) -> Result<Response, Failure> {
        let started = Instant::now();
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)
                .map_err(|e| Failure::Broken(format!("connect {}: {e}", self.addr)))?;
            stream
                .set_nodelay(true)
                .and_then(|()| stream.set_read_timeout(Some(RESPONSE_TIMEOUT)))
                .map_err(|e| Failure::Broken(format!("socket options: {e}")))?;
            self.stream = Some(BufReader::new(stream));
        }
        let reader = self.stream.as_mut().expect("connected above");
        let result = exchange(reader, method, path, body);
        match result {
            Ok((status, body, close)) => {
                if close {
                    self.stream = None;
                }
                Ok(Response {
                    status,
                    body,
                    elapsed: started.elapsed(),
                })
            }
            Err(f) => {
                self.stream = None;
                Err(f)
            }
        }
    }
}

enum Failure {
    /// The connection ended before a single response byte arrived.
    NoResponse(String),
    Broken(String),
}

impl Failure {
    fn message(self) -> String {
        match self {
            Failure::NoResponse(m) | Failure::Broken(m) => m,
        }
    }
}

fn exchange(
    reader: &mut BufReader<TcpStream>,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String, bool), Failure> {
    // Head and body go out in one write: with TCP_NODELAY two writes
    // would be two segments and the server would parse the head alone.
    let mut request = format!(
        "{method} {path} HTTP/1.1\r\nHost: triq\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body.as_bytes());
    let stream = reader.get_mut();
    stream
        .write_all(&request)
        .and_then(|()| stream.flush())
        .map_err(|e| Failure::NoResponse(format!("write: {e}")))?;
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => return Err(Failure::NoResponse("connection closed".into())),
        Ok(_) => {}
        // A reset before any byte is the idle close racing the request.
        // A timeout is not: the server may still be working on it.
        Err(e) if line.is_empty() && e.kind() == std::io::ErrorKind::ConnectionReset => {
            return Err(Failure::NoResponse(format!("read: {e}")))
        }
        Err(e) => return Err(Failure::Broken(format!("read: {e}"))),
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| Failure::Broken(format!("bad status line {line:?}")))?;
    let mut length = 0usize;
    let mut close = false;
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| Failure::Broken(format!("read header: {e}")))?;
        if n == 0 {
            return Err(Failure::Broken("connection closed in headers".into()));
        }
        let header = line.trim();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value
                    .parse()
                    .map_err(|_| Failure::Broken("bad Content-Length".into()))?;
            } else if name.eq_ignore_ascii_case("connection") {
                close = value
                    .split(',')
                    .any(|t| t.trim().eq_ignore_ascii_case("close"));
            }
        }
    }
    let mut body = vec![0u8; length];
    reader
        .read_exact(&mut body)
        .map_err(|e| Failure::Broken(format!("read body: {e}")))?;
    let body = String::from_utf8(body).map_err(|_| Failure::Broken("body is not UTF-8".into()))?;
    Ok((status, body, close))
}

/// A running `triq-cli serve` child. Dropping it kills the child and
/// waits for it, so no run leaves a process behind.
#[derive(Debug)]
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
}

/// How to start the server: everything but the binary is generated.
#[derive(Clone, Debug)]
pub struct ServerSpec {
    pub cli: PathBuf,
    pub graph: PathBuf,
    pub rules: PathBuf,
    /// `--data-dir`, `--fsync`, `--checkpoint-ops` for the durable
    /// workload; empty otherwise.
    pub extra: Vec<String>,
    /// Where the child's stderr goes (a file: an unread pipe could fill).
    pub stderr: PathBuf,
}

impl Server {
    /// Spawns the child and waits for its `listening on` line, which it
    /// prints once the graph is loaded (or the data directory recovered)
    /// and the socket is bound.
    pub fn spawn(spec: &ServerSpec) -> Result<Server, String> {
        let stderr = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&spec.stderr)
            .map_err(|e| format!("open {}: {e}", spec.stderr.display()))?;
        let mut child = Command::new(&spec.cli)
            .arg("serve")
            .arg(&spec.graph)
            .arg(&spec.rules)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--threads",
                "2",
                "--enable-shutdown",
            ])
            .args(&spec.extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", spec.cli.display()))?;
        let mut line = String::new();
        let read =
            BufReader::new(child.stdout.take().expect("stdout is piped")).read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on http://")
            .and_then(|a| a.parse::<SocketAddr>().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server { child, addr }),
            (read, _) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "server did not announce its address (read {read:?}, line {line:?}); see {}",
                    spec.stderr.display()
                ))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The child's `VmHWM` / `VmRSS` in MB.
    pub fn mem_mb(&self, field: &str) -> Result<f64, String> {
        proc_status_kb(self.pid(), field)
            .map(|kb| kb as f64 / 1024.0)
            .ok_or_else(|| format!("no {field} for pid {}", self.pid()))
    }

    /// `POST /shutdown`, then waits for the child to exit on its own.
    pub fn shutdown(mut self) -> Result<(), String> {
        let r = Conn::new(self.addr).post("/shutdown", "")?;
        if r.status != 200 {
            return Err(format!("shutdown: status {}", r.status));
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(None) => return Err("server did not exit after /shutdown".into()),
                Err(e) => return Err(format!("wait: {e}")),
            }
        }
    }

    /// `kill -9`: the crash of the durability check.
    pub fn kill9(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A fake server: answers each accepted connection's first request
    /// with the next response, then closes the connection.
    fn fake(responses: Vec<&'static str>) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for response in responses {
                let (mut s, _) = listener.accept().unwrap();
                let mut buf = [0u8; 1024];
                let _ = s.read(&mut buf);
                s.write_all(response.as_bytes()).unwrap();
            }
        });
        addr
    }

    #[test]
    fn reads_a_framed_response_and_reconnects_after_an_idle_close() {
        let addr = fake(vec![
            "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
            "HTTP/1.1 503 Busy\r\nConnection: close, te\r\nContent-Length: 0\r\n\r\n",
        ]);
        let mut c = Conn::new(addr);
        let r = c.post("/query", "x").unwrap();
        assert_eq!((r.status, r.body.as_str()), (200, "ok"));
        // The fake closed the first connection; the second request finds
        // it dead, reconnects and is answered by the second accept.
        let r = c.get("/stats").unwrap();
        assert_eq!(r.status, 503);
        assert!(c.stream.is_none(), "Connection: close must drop the stream");
    }
}
