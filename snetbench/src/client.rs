//! The load generator's HTTP/1.1 client: keep-alive connections for
//! search streams and job lookups, one-shot `connection: close`
//! exchanges the way `snetctl query` sends them, and chunked ND-JSON
//! streams.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A fully read response.
pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

/// The bytes of one request, as the generator puts them on the wire.
pub fn request_bytes(
    method: &str,
    path: &str,
    body: Option<&[u8]>,
    close: bool,
    trace: Option<&str>,
) -> Vec<u8> {
    let mut head = format!("{method} {path} HTTP/1.1\r\nhost: snetbench\r\n");
    if close {
        head.push_str("connection: close\r\n");
    }
    if let Some(t) = trace {
        head.push_str(&format!("x-snet-trace: {t}\r\n"));
    }
    match body {
        Some(b) => {
            head.push_str(&format!(
                "content-type: application/json\r\ncontent-length: {}\r\n\r\n",
                b.len()
            ));
            let mut v = head.into_bytes();
            v.extend_from_slice(b);
            v
        }
        None => {
            head.push_str("\r\n");
            head.into_bytes()
        }
    }
}

/// Receives each `\n`-terminated line of a chunked body as it arrives.
pub type LineSink<'a> = Option<&'a mut dyn FnMut(&[u8])>;

/// One connection; reused for as many exchanges as the server allows.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let writer = stream.try_clone()?;
        Ok(Conn { reader: BufReader::new(stream), writer })
    }

    /// Sends `raw` and reads the whole response (de-chunked). `on_line`
    /// sees every ND-JSON line of a chunked body as it arrives.
    pub fn exchange(&mut self, raw: &[u8], on_line: LineSink) -> std::io::Result<Response> {
        self.writer.write_all(raw)?;
        read_response(&mut self.reader, on_line)
    }
}

/// A fresh connection for exactly one exchange.
pub fn one_shot(addr: SocketAddr, raw: &[u8]) -> std::io::Result<Response> {
    Conn::open(addr)?.exchange(raw, None)
}

fn bad(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

fn read_response(r: &mut BufReader<TcpStream>, mut on_line: LineSink) -> std::io::Result<Response> {
    let mut line = String::new();
    r.read_line(&mut line)?;
    let status: u16 = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("malformed status line {line:?}")))?;
    let mut headers = Vec::new();
    loop {
        line.clear();
        r.read_line(&mut line)?;
        let l = line.trim_end();
        if l.is_empty() {
            break;
        }
        if let Some((k, v)) = l.split_once(':') {
            headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
        }
    }
    let find = |name: &str| headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone());
    let mut body = Vec::new();
    if find("transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked")) {
        let mut start = 0;
        loop {
            line.clear();
            r.read_line(&mut line)?;
            let size = usize::from_str_radix(line.trim(), 16)
                .map_err(|_| bad(format!("bad chunk size {line:?}")))?;
            let at = body.len();
            body.resize(at + size, 0);
            r.read_exact(&mut body[at..])?;
            let mut crlf = [0u8; 2];
            r.read_exact(&mut crlf)?;
            if let Some(cb) = on_line.as_deref_mut() {
                while let Some(pos) = body[start..].iter().position(|&b| b == b'\n') {
                    cb(&body[start..start + pos]);
                    start += pos + 1;
                }
            }
            if size == 0 {
                break;
            }
        }
    } else if let Some(len) = find("content-length") {
        let len: usize = len.parse().map_err(|_| bad(format!("bad content-length {len:?}")))?;
        body.resize(len, 0);
        r.read_exact(&mut body)?;
    } else {
        r.read_to_end(&mut body)?;
    }
    Ok(Response { status, headers, body })
}
