//! The `armada serve` wire protocol: length-prefixed JSON frames.
//!
//! A connection carries exactly one request and one response. Each frame is
//! a 4-byte big-endian length followed by that many bytes of UTF-8 JSON.
//! The JSON dialect is deliberately tiny — objects, arrays, strings,
//! integers, booleans, null — parsed and emitted by the workspace's one
//! codec, [`armada_runtime::json`] (the hermetic-build policy rules out
//! serde; see DESIGN.md, "Dependencies").
//!
//! Requests:
//!
//! ```json
//! {"cmd": "verify", "source": "level Impl { ... }", "name": "counter.arm",
//!  "deadline_ms": 2000, "jobs": 4}
//! {"cmd": "verify", "path": "specs/counter.arm"}
//! {"cmd": "stats"}
//! {"cmd": "shutdown"}
//! ```
//!
//! Responses (`kind` discriminates):
//!
//! * `result` — the verification ran (or was served coalesced/cached):
//!   `exit_code` (the CLI's 0–4 taxonomy), `verified`, the report `render`,
//!   and `coalesced` (true when this response rode another request's run);
//! * `deadline` — the request's deadline plus grace elapsed before a
//!   result was available; the verification may still complete in the
//!   background and populate the cache. Maps to exit code 3;
//! * `overloaded` — the admission queue was full; the request was *shed*,
//!   not queued, and `retry_after_ms` advises when to retry. Maps to exit
//!   code 3. The daemon always answers overload with this structured
//!   response — never a dropped connection;
//! * `error` — the request could not be processed (malformed frame,
//!   unreadable path, front-end failure); `message` says why;
//! * `ok` — acknowledgment (shutdown);
//! * `stats` — counter name/value pairs from the daemon's telemetry.

use std::io::{Read, Write};

pub use armada_runtime::json::Json;

/// Frames larger than this are rejected before allocation (a corrupt or
/// hostile length prefix must not look like an allocation request).
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates the underlying IO error; oversized payloads are an
/// `InvalidInput` error before any byte is written.
pub fn write_frame(stream: &mut impl Write, payload: &str) -> std::io::Result<()> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "frame exceeds MAX_FRAME",
        ));
    }
    stream.write_all(&(bytes.len() as u32).to_be_bytes())?;
    stream.write_all(bytes)?;
    stream.flush()
}

/// Reads one length-prefixed frame.
///
/// # Errors
///
/// Propagates the underlying IO error; a length over [`MAX_FRAME`] or a
/// non-UTF-8 payload is `InvalidData`.
pub fn read_frame(stream: &mut impl Read) -> std::io::Result<String> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame length exceeds MAX_FRAME",
        ));
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    String::from_utf8(payload)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "frame is not UTF-8"))
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Verify a module: the full pipeline against the daemon's shared
    /// cache hierarchy.
    Verify(VerifyRequest),
    /// Snapshot the daemon's counters.
    Stats,
    /// Drain and stop the daemon.
    Shutdown,
}

/// The payload of a `verify` request.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VerifyRequest {
    /// Module source text (inline). Exactly one of `source`/`path` must be
    /// set.
    pub source: Option<String>,
    /// Server-side path to read the module from.
    pub path: Option<String>,
    /// Display name (defaults to the path, or `<inline>`).
    pub name: Option<String>,
    /// Per-request wall-clock deadline in milliseconds; the daemon's
    /// default applies when absent.
    pub deadline_ms: Option<u64>,
    /// Engine worker threads for this request (clamped by the daemon).
    pub jobs: Option<usize>,
}

impl Request {
    /// Parses a request frame.
    ///
    /// # Errors
    ///
    /// Returns a message suitable for an `error` response.
    pub fn decode(text: &str) -> Result<Request, String> {
        let json = Json::parse(text).map_err(|e| format!("malformed request JSON: {e}"))?;
        let cmd = json
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or("request missing `cmd`")?;
        match cmd {
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            "verify" => {
                let field = |k: &str| json.get(k).and_then(Json::as_str).map(str::to_string);
                let req = VerifyRequest {
                    source: field("source"),
                    path: field("path"),
                    name: field("name"),
                    deadline_ms: json
                        .get("deadline_ms")
                        .and_then(Json::as_int)
                        .map(|n| n.max(0) as u64),
                    jobs: json
                        .get("jobs")
                        .and_then(Json::as_int)
                        .map(|n| n.max(1) as usize),
                };
                if req.source.is_none() == req.path.is_none() {
                    return Err("verify wants exactly one of `source` or `path`".to_string());
                }
                Ok(Request::Verify(req))
            }
            other => Err(format!("unknown cmd `{other}`")),
        }
    }

    /// Serializes for the wire.
    pub fn encode(&self) -> String {
        match self {
            Request::Stats => Json::Obj(vec![("cmd".into(), Json::Str("stats".into()))]).encode(),
            Request::Shutdown => {
                Json::Obj(vec![("cmd".into(), Json::Str("shutdown".into()))]).encode()
            }
            Request::Verify(req) => {
                let mut fields = vec![("cmd".to_string(), Json::Str("verify".into()))];
                if let Some(source) = &req.source {
                    fields.push(("source".into(), Json::Str(source.clone())));
                }
                if let Some(path) = &req.path {
                    fields.push(("path".into(), Json::Str(path.clone())));
                }
                if let Some(name) = &req.name {
                    fields.push(("name".into(), Json::Str(name.clone())));
                }
                if let Some(ms) = req.deadline_ms {
                    fields.push(("deadline_ms".into(), Json::Int(ms as i64)));
                }
                if let Some(jobs) = req.jobs {
                    fields.push(("jobs".into(), Json::Int(jobs as i64)));
                }
                Json::Obj(fields).encode()
            }
        }
    }
}

/// A server response (see the module docs for the contract).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    Result {
        /// Worst-outcome exit code in the CLI's 0–4 vocabulary.
        exit_code: u8,
        /// True when every recipe verified.
        verified: bool,
        /// The pipeline report's rendering (byte-identical for coalesced
        /// waiters of the same run).
        render: String,
        /// True when this response rode another in-flight request's run.
        coalesced: bool,
        /// Combined witness digest of the run's certificates (16 hex
        /// digits), or empty when the run produced none. Coalesced
        /// waiters of one run all see the same digest.
        witness: String,
    },
    Deadline {
        /// The deadline that elapsed, in milliseconds.
        deadline_ms: u64,
    },
    Overloaded {
        /// Advised retry delay.
        retry_after_ms: u64,
    },
    Error {
        message: String,
    },
    Ok,
    Stats {
        counters: Vec<(String, u64)>,
    },
}

impl Response {
    /// The CLI exit code this response maps to: results carry their own
    /// taxonomy code; deadline and overload are inconclusive (3); errors
    /// are usage/IO (2); acknowledgments are success.
    pub fn exit_code(&self) -> u8 {
        match self {
            Response::Result { exit_code, .. } => *exit_code,
            Response::Deadline { .. } | Response::Overloaded { .. } => 3,
            Response::Error { .. } => 2,
            Response::Ok | Response::Stats { .. } => 0,
        }
    }

    /// Serializes for the wire.
    pub fn encode(&self) -> String {
        let kind = |k: &str| ("kind".to_string(), Json::Str(k.to_string()));
        match self {
            Response::Result {
                exit_code,
                verified,
                render,
                coalesced,
                witness,
            } => Json::Obj(vec![
                kind("result"),
                ("exit_code".into(), Json::Int(*exit_code as i64)),
                ("verified".into(), Json::Bool(*verified)),
                ("render".into(), Json::Str(render.clone())),
                ("coalesced".into(), Json::Bool(*coalesced)),
                ("witness".into(), Json::Str(witness.clone())),
            ])
            .encode(),
            Response::Deadline { deadline_ms } => Json::Obj(vec![
                kind("deadline"),
                ("deadline_ms".into(), Json::Int(*deadline_ms as i64)),
            ])
            .encode(),
            Response::Overloaded { retry_after_ms } => Json::Obj(vec![
                kind("overloaded"),
                ("retry_after_ms".into(), Json::Int(*retry_after_ms as i64)),
            ])
            .encode(),
            Response::Error { message } => Json::Obj(vec![
                kind("error"),
                ("message".into(), Json::Str(message.clone())),
            ])
            .encode(),
            Response::Ok => Json::Obj(vec![kind("ok")]).encode(),
            Response::Stats { counters } => Json::Obj(vec![
                kind("stats"),
                (
                    "counters".into(),
                    Json::Obj(
                        counters
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::Int(*v as i64)))
                            .collect(),
                    ),
                ),
            ])
            .encode(),
        }
    }

    /// Parses a response frame.
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformation.
    pub fn decode(text: &str) -> Result<Response, String> {
        let json = Json::parse(text).map_err(|e| format!("malformed response JSON: {e}"))?;
        let kind = json
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("response missing `kind`")?;
        let int = |k: &str| {
            json.get(k)
                .and_then(Json::as_int)
                .ok_or_else(|| format!("response missing `{k}`"))
        };
        match kind {
            "result" => Ok(Response::Result {
                exit_code: int("exit_code")?.clamp(0, 255) as u8,
                verified: json
                    .get("verified")
                    .and_then(Json::as_bool)
                    .ok_or("response missing `verified`")?,
                render: json
                    .get("render")
                    .and_then(Json::as_str)
                    .ok_or("response missing `render`")?
                    .to_string(),
                coalesced: json
                    .get("coalesced")
                    .and_then(Json::as_bool)
                    .unwrap_or(false),
                witness: json
                    .get("witness")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            }),
            "deadline" => Ok(Response::Deadline {
                deadline_ms: int("deadline_ms")?.max(0) as u64,
            }),
            "overloaded" => Ok(Response::Overloaded {
                retry_after_ms: int("retry_after_ms")?.max(0) as u64,
            }),
            "error" => Ok(Response::Error {
                message: json
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            }),
            "ok" => Ok(Response::Ok),
            "stats" => {
                let counters = match json.get("counters") {
                    Some(Json::Obj(fields)) => fields
                        .iter()
                        .map(|(k, v)| (k.clone(), v.as_int().unwrap_or(0).max(0) as u64))
                        .collect(),
                    _ => Vec::new(),
                };
                Ok(Response::Stats { counters })
            }
            other => Err(format!("unknown response kind `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_and_bound_length() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello ⊑ world").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), "hello ⊑ world");
        // A hostile length prefix is rejected without allocation.
        let mut bad = std::io::Cursor::new(vec![0xff, 0xff, 0xff, 0xff]);
        assert!(read_frame(&mut bad).is_err());
    }

    #[test]
    fn requests_round_trip() {
        let cases = [
            Request::Stats,
            Request::Shutdown,
            Request::Verify(VerifyRequest {
                source: Some("level A {}".into()),
                name: Some("a.arm".into()),
                deadline_ms: Some(1500),
                jobs: Some(4),
                ..VerifyRequest::default()
            }),
            Request::Verify(VerifyRequest {
                path: Some("specs/counter.arm".into()),
                ..VerifyRequest::default()
            }),
        ];
        for request in cases {
            assert_eq!(Request::decode(&request.encode()).unwrap(), request);
        }
        // Exactly one of source/path.
        assert!(Request::decode(r#"{"cmd":"verify"}"#).is_err());
        assert!(Request::decode(r#"{"cmd":"verify","source":"x","path":"y"}"#).is_err());
        assert!(Request::decode(r#"{"cmd":"nonsense"}"#).is_err());
        assert!(Request::decode("not json").is_err());
    }

    #[test]
    fn responses_round_trip_and_map_exit_codes() {
        let cases = [
            (
                Response::Result {
                    exit_code: 0,
                    verified: true,
                    render: "recipe P: verified\nVERIFIED: A ⊑ B\n".into(),
                    coalesced: true,
                    witness: "00ff00ff00ff00ff".into(),
                },
                0,
            ),
            (Response::Deadline { deadline_ms: 250 }, 3),
            (Response::Overloaded { retry_after_ms: 50 }, 3),
            (
                Response::Error {
                    message: "boom".into(),
                },
                2,
            ),
            (Response::Ok, 0),
            (
                Response::Stats {
                    counters: vec![("cache.mem_hits".into(), 3)],
                },
                0,
            ),
        ];
        for (response, code) in cases {
            assert_eq!(response.exit_code(), code);
            assert_eq!(Response::decode(&response.encode()).unwrap(), response);
        }
    }
}
