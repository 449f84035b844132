//! The benchmark's serve client: one connection per request, like
//! `armada client`, with each protocol call timed on its own.

use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use armada::proto::{read_frame, write_frame, Request, Response, VerifyRequest};

use crate::corpus::Module;
use crate::expected::Verdict;

/// Long enough for the slowest cold verification plus the daemon's
/// deadline grace; a structured response always arrives before it.
const TIMEOUT: Duration = Duration::from_secs(60);

/// Where one exchange spent its time.
#[derive(Debug, Clone, Copy)]
pub struct Timings {
    pub connect_us: f64,
    pub write_us: f64,
    /// From the end of the request write to the whole response frame.
    pub wait_ms: f64,
    pub decode_us: f64,
}

/// A verify request for `module`; `nonce` appends a comment line, which
/// gives the request a new cert key and so a cold verification.
pub fn verify_request(module: &Module, nonce: Option<&str>) -> Request {
    let source = match nonce {
        Some(nonce) => format!("{}\n// nonce {nonce}\n", module.source),
        None => module.source.to_string(),
    };
    Request::Verify(VerifyRequest {
        source: Some(source),
        name: Some(module.name.to_string()),
        ..VerifyRequest::default()
    })
}

/// Sends `request` to the daemon at `addr` and waits for its response.
pub fn exchange(addr: SocketAddr, request: &Request) -> Result<(Response, Timings), String> {
    let payload = request.encode();
    let started = Instant::now();
    let mut stream =
        TcpStream::connect_timeout(&addr, TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(TIMEOUT))
        .map_err(|e| format!("set timeout: {e}"))?;
    let connected = Instant::now();
    write_frame(&mut stream, &payload).map_err(|e| format!("send: {e}"))?;
    let written = Instant::now();
    let frame = read_frame(&mut stream).map_err(|e| format!("receive: {e}"))?;
    let received = Instant::now();
    let response = Response::decode(&frame)?;
    let decoded = Instant::now();
    let micros = |from: Instant, to: Instant| (to - from).as_secs_f64() * 1e6;
    Ok((
        response,
        Timings {
            connect_us: micros(started, connected),
            write_us: micros(connected, written),
            wait_ms: micros(written, received) / 1e3,
            decode_us: micros(received, decoded),
        },
    ))
}

/// The verdict a `result` response carries; any other response kind
/// (deadline, overloaded, error) is a failed request.
pub fn verdict(response: &Response) -> Result<Verdict, String> {
    match response {
        Response::Result {
            exit_code: 0,
            verified: true,
            render,
            ..
        } => Ok(Verdict::Verified(
            render
                .lines()
                .find_map(|l| l.strip_prefix("VERIFIED: "))
                .unwrap_or_default()
                .to_string(),
        )),
        Response::Result { exit_code: 1, .. } => Ok(Verdict::Refuted),
        Response::Result { .. } => Ok(Verdict::Inconclusive),
        other => Err(format!("{} response", other.encode())),
    }
}
