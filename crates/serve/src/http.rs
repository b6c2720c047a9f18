//! A zero-dependency HTTP/1.1 listener over [`TelescopeService`].
//!
//! `std::net::TcpListener` + a thread per connection with keep-alive:
//! no async runtime, no external crates, same discipline as
//! `iotscope-obs`'s exporters. Handlers only ever clone the current
//! snapshot `Arc`, so slow clients never block ingest.

use crate::{error_body, TelescopeService};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long an idle keep-alive connection may sit between requests
/// before the handler thread gives up on it.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Longest request line or header line accepted, terminator included.
const MAX_LINE_BYTES: u64 = 8 * 1024;

/// Most header lines accepted in one request.
const MAX_HEADER_LINES: usize = 64;

/// Input drained after a 431 before the connection closes (see
/// [`reject_head`]).
const DRAIN_BYTES: u64 = 64 * 1024;

/// The listener: an accept-loop thread spawning one handler thread per
/// connection. Dropping (or [`shutdown`](Self::shutdown)) stops the
/// accept loop and refuses further connections; in-flight handlers
/// drain on their own read timeouts.
#[derive(Debug)]
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start serving `service`.
    ///
    /// # Errors
    ///
    /// Propagates bind failures (port in use, permission).
    pub fn bind(addr: &str, service: Arc<TelescopeService>) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_accept = Arc::clone(&stop);
        let accept = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if stop_accept.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let service = Arc::clone(&service);
                let stop = Arc::clone(&stop_accept);
                std::thread::spawn(move || {
                    let _ = handle_connection(stream, &service, &stop);
                });
            }
        });
        Ok(HttpServer {
            addr: local,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (with the actual port when bound ephemeral).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting connections and join the accept thread.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the accept loop with one throwaway connection.
        if let Ok(s) = TcpStream::connect(self.addr) {
            let _ = s.shutdown(Shutdown::Both);
        }
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serve one keep-alive connection until the peer closes, a request
/// times out, or the server stops.
fn handle_connection(
    stream: TcpStream,
    service: &TelescopeService,
    stop: &AtomicBool,
) -> io::Result<()> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream);
    loop {
        if stop.load(Ordering::Acquire) {
            return Ok(());
        }
        let request_line = match read_head_line(&mut reader)? {
            HeadLine::Text(line) => line,
            HeadLine::Closed => return Ok(()),
            HeadLine::TooLong => return reject_head(&mut reader),
        };
        let mut parts = request_line.split_whitespace();
        let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(t), v) => (m.to_owned(), t.to_owned(), v.unwrap_or("").to_owned()),
            _ => return Ok(()), // malformed; drop the connection
        };
        // The request target may carry a query string; routing is on
        // the path alone.
        let path = target.split('?').next().unwrap_or(&target).to_owned();
        // Drain headers; GET requests carry no body. Persistence
        // defaults per protocol version — HTTP/1.1 keeps alive,
        // HTTP/1.0 (and anything unrecognized) closes — and an explicit
        // `Connection` header overrides either way.
        let mut keep_alive = version == "HTTP/1.1";
        let mut header_lines = 0;
        loop {
            let header = match read_head_line(&mut reader)? {
                HeadLine::Text(line) => line,
                HeadLine::Closed => return Ok(()),
                HeadLine::TooLong => return reject_head(&mut reader),
            };
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            header_lines += 1;
            if header_lines > MAX_HEADER_LINES {
                return reject_head(&mut reader);
            }
            if let Some(v) = header
                .to_ascii_lowercase()
                .strip_prefix("connection:")
                .map(str::trim)
            {
                match v {
                    "close" => keep_alive = false,
                    "keep-alive" => keep_alive = true,
                    _ => {}
                }
            }
        }
        let (status, body) = if method == "GET" {
            service.respond(&path)
        } else {
            (405, error_body("only GET is served"))
        };
        write_response(reader.get_mut(), status, &body, keep_alive)?;
        if !keep_alive {
            return Ok(());
        }
    }
}

/// One line of a request head.
enum HeadLine {
    /// A complete line, terminator included.
    Text(String),
    /// The peer closed before completing a line.
    Closed,
    /// [`MAX_LINE_BYTES`] arrived without a line terminator.
    TooLong,
}

/// Read one `\n`-terminated line, buffering at most
/// [`MAX_LINE_BYTES`] of it, so a peer that never ends its line cannot
/// grow server memory.
fn read_head_line(reader: &mut BufReader<TcpStream>) -> io::Result<HeadLine> {
    let mut line = Vec::new();
    let n = reader
        .by_ref()
        .take(MAX_LINE_BYTES)
        .read_until(b'\n', &mut line)?;
    Ok(if line.last() == Some(&b'\n') {
        HeadLine::Text(String::from_utf8_lossy(&line).into_owned())
    } else if n as u64 == MAX_LINE_BYTES {
        HeadLine::TooLong
    } else {
        HeadLine::Closed
    })
}

/// Answer `431 Request Header Fields Too Large` and close. The peer may
/// still be sending the rest of its oversized head, and closing a
/// socket with unread input resets the connection, which can destroy
/// the response before the peer reads it; so the write side shuts
/// first and up to [`DRAIN_BYTES`] of input are discarded.
fn reject_head(reader: &mut BufReader<TcpStream>) -> io::Result<()> {
    let body = error_body("request header fields too large");
    write_response(reader.get_mut(), 431, &body, false)?;
    reader.get_ref().shutdown(Shutdown::Write)?;
    // A drain error only means the peer is already gone.
    let _ = io::copy(&mut reader.by_ref().take(DRAIN_BYTES), &mut io::sink());
    Ok(())
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        431 => "Request Header Fields Too Large",
        _ => "Internal Server Error",
    };
    let header = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}
