//! A pipelined HTTP/1.1 keep-alive client over a non-blocking socket,
//! just large enough to drive `serve`: requests are queued at their
//! due instant and written as the socket accepts them; responses are
//! matched to requests in order (the server answers a connection's
//! pipeline in order).

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::time::Instant;

/// One request in flight.
#[derive(Clone, Copy, Debug)]
pub struct Req {
    /// Caller's request class.
    pub kind: u8,
    /// When the schedule wanted it sent.
    pub due: Instant,
    /// When its last byte reached the kernel.
    pub written: Option<Instant>,
    end_off: u64,
}

/// One parsed response, handed to the caller's callback.
pub struct Reply<'a> {
    /// The request it answers.
    pub req: Req,
    /// HTTP status code.
    pub status: u16,
    /// The `ETag` (publish epoch), when present.
    pub etag: Option<u64>,
    /// Response body.
    pub body: &'a [u8],
    /// Head plus body, bytes.
    pub bytes: usize,
    /// When the response was complete.
    pub received: Instant,
}

/// One keep-alive connection.
pub struct Client {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    queued: u64,
    written: u64,
    inbuf: Vec<u8>,
    pending: VecDeque<Req>,
}

impl Client {
    /// Connects and switches the socket to non-blocking.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Client {
            stream,
            out: Vec::with_capacity(4096),
            out_pos: 0,
            queued: 0,
            written: 0,
            inbuf: Vec::with_capacity(1 << 16),
            pending: VecDeque::new(),
        })
    }

    /// The socket descriptor, for `poll(2)`.
    pub fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// Queues `GET target`, optionally revalidating against `etag`.
    pub fn get(&mut self, target: &str, etag: Option<u64>, kind: u8, due: Instant) {
        let start = self.out.len();
        self.out.extend_from_slice(b"GET ");
        self.out.extend_from_slice(target.as_bytes());
        self.out.extend_from_slice(b" HTTP/1.1\r\nHost: bench\r\n");
        if let Some(tag) = etag {
            self.out
                .extend_from_slice(format!("If-None-Match: \"{tag}\"\r\n").as_bytes());
        }
        self.out.extend_from_slice(b"\r\n");
        self.queued += (self.out.len() - start) as u64;
        self.pending.push_back(Req {
            kind,
            due,
            written: None,
            end_off: self.queued,
        });
    }

    /// Requests sent or queued but not yet answered.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// Whether queued bytes still wait for the socket.
    pub fn wants_write(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// Writes as much queued output as the socket takes, stamping each
    /// request whose last byte went out.
    pub fn flush(&mut self) -> io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out_pos += n;
                    self.written += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        let now = Instant::now();
        for req in self.pending.iter_mut().rev() {
            if req.written.is_some() {
                break;
            }
            if req.end_off <= self.written {
                req.written = Some(now);
            }
        }
        Ok(())
    }

    /// Reads what the socket has and hands every complete response to
    /// `on`. Returns `false` once the peer closed.
    pub fn pump(&mut self, on: &mut impl FnMut(Reply<'_>)) -> io::Result<bool> {
        let mut open = true;
        let mut chunk = [0u8; 1 << 16];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    open = false;
                    break;
                }
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let mut pos = 0;
        while let Some((status, etag, head, body_len)) = parse_head(&self.inbuf[pos..])? {
            let total = head + body_len;
            if self.inbuf.len() - pos < total {
                break;
            }
            let req = self.pending.pop_front().ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "response without a request")
            })?;
            on(Reply {
                req,
                status,
                etag,
                body: &self.inbuf[pos + head..pos + total],
                bytes: total,
                received: Instant::now(),
            });
            pos += total;
        }
        self.inbuf.drain(..pos);
        Ok(open)
    }
}

/// `(status, etag, head length, body length)` of a response.
type Head = (u16, Option<u64>, usize, usize);

/// Parses a response head, or `None` while it is incomplete.
fn parse_head(buf: &[u8]) -> io::Result<Option<Head>> {
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let head = std::str::from_utf8(&buf[..end]).map_err(|_| bad("non-utf8 head"))?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut etag = None;
    let mut len = 0usize;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("etag") {
            etag = value.trim_matches('"').parse().ok();
        } else if name.eq_ignore_ascii_case("content-length") {
            len = value.parse().map_err(|_| bad("bad content-length"))?;
        }
    }
    Ok(Some((status, etag, end + 4, len)))
}

/// The first `"seq":N` in a body: the publish epoch every `serve` body
/// leads with.
pub fn body_seq(body: &[u8]) -> Option<u64> {
    let key = b"\"seq\":";
    let at = body.windows(key.len()).position(|w| w == key)? + key.len();
    let digits = body[at..].iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&body[at..at + digits])
        .ok()?
        .parse()
        .ok()
}

/// The objects of the JSON array under `"key":[`, each with its
/// whitespace removed, so a person renders identically whichever
/// endpoint wrote it. `None` when the key is absent.
pub fn array_objects(body: &[u8], key: &str) -> Option<Vec<String>> {
    let pat = format!("\"{key}\":[");
    let text = std::str::from_utf8(body).ok()?;
    let mut rest = &text[text.find(&pat)? + pat.len()..];
    let mut out = Vec::new();
    loop {
        rest = rest.trim_start_matches([',', ' ']);
        if !rest.starts_with('{') {
            return Some(out);
        }
        let close = rest.find('}')?;
        out.push(
            rest[..=close]
                .chars()
                .filter(|c| !c.is_whitespace())
                .collect(),
        );
        rest = &rest[close + 1..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heads_bodies_and_people() {
        let resp = b"HTTP/1.1 200 OK\r\nETag: \"7\"\r\nContent-Type: application/json\r\nContent-Length: 5\r\n\r\nhello";
        let (status, etag, head, len) = parse_head(resp).unwrap().unwrap();
        assert_eq!((status, etag, len), (200, Some(7), 5));
        assert_eq!(&resp[head..head + len], b"hello");
        assert!(parse_head(b"HTTP/1.1 304 Not Modified\r\nETag:")
            .unwrap()
            .is_none());
        let body = br#"{"seq":12,"campus":{"people":[{"x":1.000,"y":2.000,"confidence":0.900,"observers":[1, 2]},{"x":3.000,"y":0.000,"confidence":0.900,"observers":[3]}],"poles":[{"seq":4}]}}"#;
        assert_eq!(body_seq(body), Some(12));
        let people = array_objects(body, "people").unwrap();
        assert_eq!(people.len(), 2);
        assert_eq!(
            people[0],
            r#"{"x":1.000,"y":2.000,"confidence":0.900,"observers":[1,2]}"#
        );
        assert_eq!(array_objects(br#"{"added":[]}"#, "added"), Some(vec![]));
        assert_eq!(array_objects(b"{}", "added"), None);
    }
}
