//! The benchmark's own HTTP/1.1 client: each request goes out in one
//! write on a `TCP_NODELAY` socket, and responses are parsed off a
//! keep-alive connection in order, so requests may be pipelined.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A request's bytes, built once before the clock starts.
pub fn request_bytes(method: &str, target: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {target} HTTP/1.1\r\nHost: psbbench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One parsed response.
#[derive(Clone, Debug)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    pub fn send(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Switches the socket to non-blocking reads and writes.
    pub fn nonblocking(&self) -> std::io::Result<()> {
        self.stream.set_nonblocking(true)
    }

    /// Writes what the socket takes now (non-blocking sockets only).
    pub fn write_some(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        match self.stream.write(bytes) {
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(0),
            other => other,
        }
    }

    /// Reads everything already arrived (non-blocking sockets only).
    /// Returns whether anything was read; an error when the peer closed
    /// or failed.
    pub fn read_available(&mut self) -> Result<bool, String> {
        let mut chunk = [0u8; 1 << 16];
        let mut got = false;
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("connection closed".to_string()),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    got = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(got),
                Err(e) => return Err(e.to_string()),
            }
        }
    }

    /// Takes one complete response off the buffer, if one has arrived.
    pub fn take_response(&mut self) -> Result<Option<Response>, String> {
        let Some(head_end) = find(&self.buf, b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| "non-UTF-8 head")?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| format!("bad status line in {head:?}"))?;
        let mut len = 0usize;
        for l in lines {
            if let Some((k, v)) = l.split_once(':') {
                if k.trim().eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse().map_err(|_| format!("bad length {v:?}"))?;
                }
            }
        }
        let total = head_end + 4 + len;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(Response { status, body }))
    }

    /// Reads whatever arrives within `timeout` into the buffer.  Returns
    /// false on timeout; an error when the peer closed or failed.
    pub fn fill(&mut self, timeout: Duration) -> Result<bool, String> {
        self.stream
            .set_read_timeout(Some(timeout.max(Duration::from_micros(1))))
            .map_err(|e| e.to_string())?;
        let mut chunk = [0u8; 1 << 16];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(true)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Ok(false)
            }
            Err(e) => Err(e.to_string()),
        }
    }

    /// Sends one request and waits for its response.
    pub fn call(&mut self, bytes: &[u8], timeout: Duration) -> Result<Response, String> {
        self.send(bytes).map_err(|e| e.to_string())?;
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if let Some(r) = self.take_response()? {
                return Ok(r);
            }
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return Err("response timed out".to_string());
            }
            self.fill(left)?;
        }
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    /// `ppoll(2)` from the C library std already links (Linux, 64-bit).
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

const POLLIN: i16 = 1;

/// Blocks until one of `conns` has data to read or `timeout` passes,
/// with the kernel's high-resolution timer (a socket read timeout only
/// has scheduler-tick resolution).  An interrupted wait just returns.
pub fn wait_readable(conns: &[&Conn], timeout: Duration) {
    use std::os::fd::AsRawFd;
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| PollFd {
            fd: c.stream.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // `struct pollfd`-layout entries holding open descriptors; `ts` is a
    // valid `struct timespec` that outlives the call; a null signal
    // mask means "leave the mask unchanged".  The kernel only writes
    // the `revents` fields.
    let _ = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn pipelined_responses_come_back_in_order() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut seen = Vec::new();
            let mut chunk = [0u8; 1024];
            while seen.windows(4).filter(|w| w == b"\r\n\r\n").count() < 2 {
                let n = s.read(&mut chunk).unwrap();
                seen.extend_from_slice(&chunk[..n]);
            }
            for body in ["one", "two"] {
                let r = format!(
                    "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                );
                s.write_all(r.as_bytes()).unwrap();
            }
        });
        let mut c = Conn::open(addr).unwrap();
        c.send(&request_bytes("GET", "/a", "")).unwrap();
        let second = c
            .call(&request_bytes("GET", "/b", ""), Duration::from_secs(5))
            .unwrap();
        assert_eq!(second.body, b"one");
        let third = loop {
            if let Some(r) = c.take_response().unwrap() {
                break r;
            }
            c.fill(Duration::from_secs(5)).unwrap();
        };
        assert_eq!((third.status, third.body.as_slice()), (200, &b"two"[..]));
        server.join().unwrap();
    }
}
