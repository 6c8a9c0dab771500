//! A minimal keep-alive HTTP/1.1 client for the daemons under test.
//!
//! The benchmark keeps its own client so that the code it times on the
//! client side never changes with the program: requests are written in
//! one `write_all`, responses are framed by `Content-Length` (the only
//! framing the daemons emit).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// No single response may take longer than this; a stuck daemon turns
/// into a transport error (a failed op) instead of a hung benchmark.
const IO_TIMEOUT: Duration = Duration::from_secs(120);

/// Largest response body accepted (plan responses are under 1 MiB).
const MAX_BODY: usize = 64 << 20;

/// One response: status code and body text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub body: String,
}

/// Framing state of a buffer that holds the start of a response.
#[derive(Debug, PartialEq, Eq)]
pub enum Frame {
    /// More bytes are needed.
    Partial,
    /// A whole response: status, body byte range, bytes consumed.
    Complete {
        status: u16,
        body: std::ops::Range<usize>,
        consumed: usize,
    },
}

/// Frame one response at the start of `buf`.
pub fn frame(buf: &[u8]) -> io::Result<Frame> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(Frame::Partial);
    };
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let length: usize = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .ok_or_else(|| bad("response without Content-Length"))?;
    if length > MAX_BODY {
        return Err(bad("implausible Content-Length"));
    }
    let start = head_end + 4;
    if buf.len() < start + length {
        return Ok(Frame::Partial);
    }
    Ok(Frame::Complete {
        status,
        body: start..start + length,
        consumed: start + length,
    })
}

/// Read one framed response from `reader`, keeping bytes that belong to
/// the next response in `buf`.
pub fn read_response(reader: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<Response> {
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        if let Frame::Complete {
            status,
            body,
            consumed,
        } = frame(buf)?
        {
            let text = String::from_utf8(buf[body].to_vec())
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 body"))?;
            buf.drain(..consumed);
            return Ok(Response { status, body: text });
        }
        match reader.read(&mut chunk)? {
            0 => return Err(io::ErrorKind::UnexpectedEof.into()),
            n => buf.extend_from_slice(&chunk[..n]),
        }
    }
}

/// One keep-alive connection.
pub struct Client {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Client {
            addr,
            stream,
            buf: Vec::new(),
        })
    }

    /// Replace a connection a transport error left unusable.
    pub fn reconnect(&mut self) -> io::Result<()> {
        *self = Client::connect(self.addr)?;
        Ok(())
    }

    pub fn post(&mut self, path: &str, body: &str) -> io::Result<Response> {
        self.send("POST", path, body)
    }

    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        self.send("GET", path, "")
    }

    fn send(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        let mut request = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        request.extend_from_slice(body.as_bytes());
        self.stream.write_all(&request)?;
        read_response(&mut self.stream, &mut self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hands out at most `step` bytes per `read`.
    struct Trickle<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(self.data.len()).min(out.len());
            out[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    const FIRST: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 12\r\nConnection: keep-alive\r\n\r\n{\"a\": [1,2]}";
    const SECOND: &[u8] =
        b"HTTP/1.1 404 Not Found\r\ncontent-length: 2\r\nConnection: close\r\n\r\n{}";

    fn two_responses() -> Vec<u8> {
        [FIRST, SECOND].concat()
    }

    #[test]
    fn content_length_framing_survives_every_read_size() {
        let wire = two_responses();
        for step in 1..=wire.len() {
            let mut reader = Trickle { data: &wire, step };
            let mut buf = Vec::new();
            let first = read_response(&mut reader, &mut buf).unwrap();
            assert_eq!(first.status, 200, "step {step}");
            assert_eq!(first.body, "{\"a\": [1,2]}", "step {step}");
            let second = read_response(&mut reader, &mut buf).unwrap();
            assert_eq!(second.status, 404, "step {step}");
            assert_eq!(second.body, "{}", "step {step}");
            assert!(buf.is_empty());
        }
    }

    #[test]
    fn every_split_point_is_partial_until_complete() {
        for cut in 0..FIRST.len() {
            assert_eq!(frame(&FIRST[..cut]).unwrap(), Frame::Partial, "cut {cut}");
        }
        match frame(&two_responses()).unwrap() {
            Frame::Complete { consumed, .. } => assert_eq!(consumed, FIRST.len()),
            Frame::Partial => panic!("complete response reported partial"),
        }
    }

    #[test]
    fn truncated_stream_and_bad_heads_are_errors() {
        let wire = two_responses();
        let mut reader = Trickle {
            data: &wire[..40],
            step: 7,
        };
        let err = read_response(&mut reader, &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(frame(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
        assert!(frame(b"garbage\r\nContent-Length: 0\r\n\r\n").is_err());
    }
}
