//! The wire protocol: requests, responses, and frame transport.
//!
//! One request/response pair is one JSON object. Two transports carry
//! them:
//!
//! - **stdin-jsonl** — one object per line; the `serve` binary reads
//!   requests from stdin and writes responses to stdout, which is what
//!   the CI smoke and shell pipelines use.
//! - **length-prefixed TCP** — each frame is a 4-byte big-endian payload
//!   length followed by that many bytes of JSON. The length cap rejects
//!   hostile frames before allocating.
//!
//! A malformed frame never kills the connection: the server answers with
//! a typed `status:"error", kind:"malformed"` response (echoing the `id`
//! when one could be salvaged) and keeps reading.

use crate::json::{self, Json};
use std::fmt::Write as _;
use std::io::{self, Read, Write};

/// Upper bound on a TCP frame payload: OpenCL sources are small; 4 MiB
/// leaves two orders of magnitude of headroom.
pub const MAX_FRAME_LEN: usize = 4 << 20;

/// Fault classes a request may arm (testhook deployments only): one
/// poisoned request must be rejected with a typed error while concurrent
/// clean requests finish unharmed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestFault {
    /// Panic inside every family analysis of this request's sweep.
    Panic,
    /// Panic inside the estimate of candidate 0.
    EstimatePanic,
    /// Run profiling with a starvation fuel budget (typed
    /// `resource-limit` degradation).
    Fuel,
    /// Complete normally, then corrupt this request's persisted cache
    /// entry in place (exercises checksum quarantine on the next read).
    CorruptCache,
}

impl RequestFault {
    fn parse(s: &str) -> Option<RequestFault> {
        match s {
            "panic" => Some(RequestFault::Panic),
            "estimate-panic" => Some(RequestFault::EstimatePanic),
            "fuel" => Some(RequestFault::Fuel),
            "corrupt-cache" => Some(RequestFault::CorruptCache),
            _ => None,
        }
    }
}

/// One sweep request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: String,
    /// OpenCL source text.
    pub src: String,
    /// Kernel name; `None` means "the only kernel in the file".
    pub kernel: Option<String>,
    /// NDRange global size.
    pub global: (u64, u64),
    /// Requested sweep grid preset (`standard` | `fine` | `ultra`). The
    /// server may substitute a coarser grid under load — see the
    /// `degraded` response field.
    pub grid: String,
    /// Per-request deadline in milliseconds; `None` uses the server
    /// default.
    pub deadline_ms: Option<u64>,
    /// Sweep thread count (clamped by the server).
    pub threads: usize,
    /// Enable branch-and-bound pruning.
    pub prune: bool,
    /// Workload synthesis knobs.
    pub synthesis: crate::workload::SynthesisSpec,
    /// Armed fault (ignored unless the server enables testhooks).
    pub fault: Option<RequestFault>,
}

/// A protocol-level parse failure, carrying whatever id could be
/// salvaged from the broken frame so the client can still correlate the
/// rejection.
#[derive(Debug, Clone)]
pub struct ParseError {
    /// The request id, if the frame got far enough to carry one.
    pub id: Option<String>,
    /// What was wrong.
    pub message: String,
}

/// Ceiling on the NDRange product accepted over the wire: bounds both
/// profiling work and synthesized buffer memory per request.
pub const MAX_GLOBAL_WORK: u64 = 1 << 24;

impl Request {
    /// Parses one request frame.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] (malformed JSON, missing/invalid fields,
    /// out-of-range geometry), salvaging `id` when present.
    pub fn parse(frame: &str) -> Result<Request, ParseError> {
        let v = json::parse(frame)
            .map_err(|message| ParseError { id: None, message: format!("bad json: {message}") })?;
        let id = v.get("id").and_then(Json::as_str).map(str::to_string);
        let fail = |message: String| ParseError { id: id.clone(), message };

        let id_val = id.clone().ok_or_else(|| fail("missing string field `id`".into()))?;
        let src = v
            .get("src")
            .and_then(Json::as_str)
            .ok_or_else(|| fail("missing string field `src`".into()))?
            .to_string();

        let global = match v.get("global") {
            Some(Json::Arr(xs)) if xs.len() == 2 => {
                let x = xs[0].as_u64().ok_or_else(|| fail("bad `global[0]`".into()))?;
                let y = xs[1].as_u64().ok_or_else(|| fail("bad `global[1]`".into()))?;
                (x, y)
            }
            Some(n) => (n.as_u64().ok_or_else(|| fail("bad `global`".into()))?, 1),
            None => return Err(fail("missing field `global`".into())),
        };
        if global.0 == 0 || global.1 == 0 {
            return Err(fail("`global` dimensions must be positive".into()));
        }
        if global.0.saturating_mul(global.1) > MAX_GLOBAL_WORK {
            return Err(fail(format!(
                "`global` work {}x{} exceeds the {MAX_GLOBAL_WORK}-item service ceiling",
                global.0, global.1
            )));
        }

        let grid = match v.get("grid") {
            None => "standard".to_string(),
            Some(g) => {
                let name = g.as_str().ok_or_else(|| fail("bad `grid`".into()))?;
                if flexcl_core::config::SweepGrid::by_name(name).is_none() {
                    return Err(fail(format!(
                        "unknown grid `{name}` (use standard, fine or ultra)"
                    )));
                }
                name.to_string()
            }
        };

        let u64_field = |key: &str| -> Result<Option<u64>, ParseError> {
            match v.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(n) => n.as_u64().map(Some).ok_or_else(|| fail(format!("bad `{key}`"))),
            }
        };

        let deadline_ms = u64_field("deadline_ms")?;
        let threads = u64_field("threads")?.unwrap_or(1) as usize;
        let prune = match v.get("prune") {
            None => false,
            Some(Json::Bool(b)) => *b,
            Some(_) => return Err(fail("bad `prune`".into())),
        };
        let buf_elems = u64_field("buf_elems")?;
        let scalar_int = match v.get("scalar_int") {
            None => 16,
            Some(n) => {
                let f = n.as_f64().ok_or_else(|| fail("bad `scalar_int`".into()))?;
                if f.fract() != 0.0 {
                    return Err(fail("bad `scalar_int`".into()));
                }
                f as i64
            }
        };
        let scalar_float = match v.get("scalar_float") {
            None => 1.0,
            Some(n) => n.as_f64().ok_or_else(|| fail("bad `scalar_float`".into()))?,
        };
        let fault = match v.get("fault") {
            None | Some(Json::Null) => None,
            Some(f) => {
                let s = f.as_str().ok_or_else(|| fail("bad `fault`".into()))?;
                Some(RequestFault::parse(s).ok_or_else(|| {
                    fail(format!(
                        "unknown fault `{s}` (use panic, estimate-panic, fuel or corrupt-cache)"
                    ))
                })?)
            }
        };

        Ok(Request {
            id: id_val,
            src,
            kernel: v.get("kernel").and_then(Json::as_str).map(str::to_string),
            global,
            grid,
            deadline_ms,
            threads,
            prune,
            synthesis: crate::workload::SynthesisSpec { buf_elems, scalar_int, scalar_float },
            fault,
        })
    }
}

/// The result digest of a completed sweep — the portion of a
/// [`flexcl_core::DseResult`] that crosses the wire and the persistent
/// cache. Cycle counts serialize through Rust's shortest-roundtrip `f64`
/// formatting, so equality of the serialized form is equality of the
/// bits.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSummary {
    /// Design points evaluated (after pruning).
    pub points: u64,
    /// Feasible design points.
    pub feasible: u64,
    /// Candidates skipped with per-point diagnostics.
    pub skipped: u64,
    /// Display form of the best feasible configuration, empty if none.
    pub best_config: String,
    /// Estimated cycles of the best feasible point; `None` if none.
    pub best_cycles: Option<f64>,
}

impl SweepSummary {
    /// Digests a sweep result.
    pub fn of(result: &flexcl_core::DseResult) -> SweepSummary {
        let best = result.best();
        SweepSummary {
            points: result.points.len() as u64,
            feasible: result.feasible_count() as u64,
            skipped: result.diagnostics.failed.len() as u64,
            best_config: best.map(|p| p.config.to_string()).unwrap_or_default(),
            best_cycles: best.map(|p| p.estimate.cycles),
        }
    }

    /// Serializes to the JSON object body used both on the wire and as
    /// the persistent cache payload.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            r#"{{"points":{},"feasible":{},"skipped":{},"best_config":"#,
            self.points, self.feasible, self.skipped
        );
        json::push_escaped(&mut s, &self.best_config);
        match self.best_cycles {
            Some(c) => {
                let _ = write!(s, r#","best_cycles":{c}}}"#);
            }
            None => s.push_str(r#","best_cycles":null}"#),
        }
        s
    }

    /// Parses a payload produced by [`SweepSummary::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field — the cache
    /// layer treats any error as a corrupt entry.
    pub fn from_json(payload: &str) -> Result<SweepSummary, String> {
        let v = json::parse(payload)?;
        let field = |k: &str| v.get(k).and_then(Json::as_u64).ok_or(format!("bad `{k}`"));
        Ok(SweepSummary {
            points: field("points")?,
            feasible: field("feasible")?,
            skipped: field("skipped")?,
            best_config: v
                .get("best_config")
                .and_then(Json::as_str)
                .ok_or("bad `best_config`")?
                .to_string(),
            best_cycles: match v.get("best_cycles") {
                Some(Json::Null) => None,
                Some(n) => Some(n.as_f64().ok_or("bad `best_cycles`")?),
                None => return Err("missing `best_cycles`".into()),
            },
        })
    }
}

/// Where a served answer came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDisposition {
    /// Served from the persistent cache.
    Hit,
    /// Computed and persisted.
    Miss,
    /// Computed; the server runs without a cache.
    Off,
}

impl CacheDisposition {
    fn as_str(self) -> &'static str {
        match self {
            CacheDisposition::Hit => "hit",
            CacheDisposition::Miss => "miss",
            CacheDisposition::Off => "off",
        }
    }
}

/// One response frame.
#[derive(Debug, Clone)]
pub enum Response {
    /// The sweep completed.
    Ok {
        /// Echoed request id.
        id: String,
        /// Result digest.
        summary: SweepSummary,
        /// How many degradation-ladder rungs were applied (0 = the grid
        /// the client asked for).
        degraded: u32,
        /// The grid actually swept.
        grid_used: String,
        /// Cache hit/miss/off.
        cache: CacheDisposition,
        /// Service time (queue wait + compute), milliseconds.
        elapsed_ms: u64,
        /// True when this answer was fanned out from another request's
        /// in-flight sweep instead of executing its own. Omitted from
        /// the wire form when false, so a coalesced waiter's frame
        /// differs from the leader's only by this marker and the
        /// identity fields — the result bytes are identical.
        coalesced: bool,
        /// Server-assigned request id (stable per frame, generated at
        /// admission). Empty until the server stamps it; omitted from
        /// the wire form when empty.
        request_id: String,
    },
    /// The request was rejected with a typed error.
    Err {
        /// Echoed request id ("?" when unsalvageable).
        id: String,
        /// Stable error kind string (an [`flexcl_core::ErrorKind`]
        /// rendering, or `malformed` for protocol errors).
        kind: String,
        /// Human-readable diagnosis.
        message: String,
        /// Back-off hint for `overloaded` rejections.
        retry_after_ms: Option<u64>,
        /// Server-assigned request id, stamped even on rejections (and
        /// on malformed frames) so every answer is traceable.
        request_id: String,
    },
}

impl Response {
    /// The echoed request id.
    pub fn id(&self) -> &str {
        match self {
            Response::Ok { id, .. } | Response::Err { id, .. } => id,
        }
    }

    /// The response's status/kind discriminator: `"ok"` or the error
    /// kind string.
    pub fn kind(&self) -> &str {
        match self {
            Response::Ok { .. } => "ok",
            Response::Err { kind, .. } => kind,
        }
    }

    /// Builds a typed error response from a pipeline error.
    pub fn from_error(id: &str, e: &flexcl_core::FlexclError) -> Response {
        Response::Err {
            id: id.to_string(),
            kind: e.kind().to_string(),
            message: e.to_string(),
            retry_after_ms: match e {
                flexcl_core::FlexclError::Overloaded { retry_after_ms, .. } => {
                    Some(*retry_after_ms)
                }
                _ => None,
            },
            request_id: String::new(),
        }
    }

    /// Builds the `malformed` rejection for a frame that failed to parse.
    pub fn malformed(e: &ParseError) -> Response {
        Response::Err {
            id: e.id.clone().unwrap_or_else(|| "?".to_string()),
            kind: "malformed".to_string(),
            message: e.message.clone(),
            retry_after_ms: None,
            request_id: String::new(),
        }
    }

    /// Stamps the server-assigned request id onto the response.
    pub fn set_request_id(&mut self, rid: &str) {
        match self {
            Response::Ok { request_id, .. } | Response::Err { request_id, .. } => {
                rid.clone_into(request_id);
            }
        }
    }

    /// The server-assigned request id, empty when never stamped.
    pub fn request_id(&self) -> &str {
        match self {
            Response::Ok { request_id, .. } | Response::Err { request_id, .. } => request_id,
        }
    }

    /// The back-off hint attached to `overloaded` rejections, if any.
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            Response::Ok { .. } => None,
            Response::Err { retry_after_ms, .. } => *retry_after_ms,
        }
    }

    /// Serializes the response to its single-line JSON frame. The
    /// server-assigned `request_id` (when stamped) is always the last
    /// field, so the leading field layout stays grep-stable.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        match self {
            Response::Ok {
                id, summary, degraded, grid_used, cache, elapsed_ms, coalesced, ..
            } => {
                s.push_str(r#"{"id":"#);
                json::push_escaped(&mut s, id);
                s.push_str(r#","status":"ok","result":"#);
                s.push_str(&summary.to_json());
                let _ = write!(
                    s,
                    r#","degraded":{degraded},"grid_used":"{grid_used}","cache":"{}","elapsed_ms":{elapsed_ms}"#,
                    cache.as_str()
                );
                if *coalesced {
                    s.push_str(r#","coalesced":true"#);
                }
            }
            Response::Err { id, kind, message, retry_after_ms, .. } => {
                s.push_str(r#"{"id":"#);
                json::push_escaped(&mut s, id);
                s.push_str(r#","status":"error","kind":"#);
                json::push_escaped(&mut s, kind);
                s.push_str(r#","message":"#);
                json::push_escaped(&mut s, message);
                if let Some(ms) = retry_after_ms {
                    let _ = write!(s, r#","retry_after_ms":{ms}"#);
                }
            }
        }
        let rid = self.request_id();
        if !rid.is_empty() {
            s.push_str(r#","request_id":"#);
            json::push_escaped(&mut s, rid);
        }
        s.push('}');
        s
    }
}

/// Reads one length-prefixed frame; `Ok(None)` is a clean EOF at a frame
/// boundary.
///
/// # Errors
///
/// I/O errors, a truncated frame, an oversized length prefix, or
/// non-UTF-8 payload bytes.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let n = u32::from_be_bytes(len) as usize;
    if n > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {n} bytes exceeds the {MAX_FRAME_LEN}-byte cap"),
        ));
    }
    let mut buf = vec![0u8; n];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not utf-8"))
}

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// I/O errors; a payload larger than [`MAX_FRAME_LEN`] is rejected
/// before any bytes are written.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame too large"));
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload.as_bytes())?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_request() {
        let r = Request::parse(
            r#"{"id":"r1","src":"__kernel void k(){}","kernel":"k","global":[256,2],
               "grid":"fine","deadline_ms":50,"threads":2,"prune":true,
               "buf_elems":64,"scalar_int":3,"scalar_float":2.5,"fault":"panic"}"#,
        )
        .expect("parse");
        assert_eq!(r.id, "r1");
        assert_eq!(r.global, (256, 2));
        assert_eq!(r.grid, "fine");
        assert_eq!(r.deadline_ms, Some(50));
        assert!(r.prune);
        assert_eq!(r.synthesis.buf_elems, Some(64));
        assert_eq!(r.fault, Some(RequestFault::Panic));
    }

    #[test]
    fn defaults_and_scalar_global() {
        let r = Request::parse(r#"{"id":"a","src":"s","global":4096}"#).expect("parse");
        assert_eq!(r.global, (4096, 1));
        assert_eq!(r.grid, "standard");
        assert_eq!(r.threads, 1);
        assert!(!r.prune && r.fault.is_none() && r.deadline_ms.is_none());
    }

    #[test]
    fn salvages_id_from_malformed_requests() {
        let e = Request::parse(r#"{"id":"x","global":[0,1],"src":"s"}"#).unwrap_err();
        assert_eq!(e.id.as_deref(), Some("x"));
        let e = Request::parse(r#"{"id":"y","src":"s"}"#).unwrap_err();
        assert_eq!(e.id.as_deref(), Some("y"));
        let e = Request::parse(r#"{"id":"z","#).unwrap_err();
        assert_eq!(e.id, None);
        assert_eq!(Response::malformed(&e).id(), "?");
    }

    #[test]
    fn rejects_oversized_geometry_and_unknown_enums() {
        for frame in [
            format!(r#"{{"id":"a","src":"s","global":[{},2]}}"#, MAX_GLOBAL_WORK),
            r#"{"id":"a","src":"s","global":64,"grid":"mega"}"#.to_string(),
            r#"{"id":"a","src":"s","global":64,"fault":"rm-rf"}"#.to_string(),
        ] {
            assert!(Request::parse(&frame).is_err(), "accepted {frame}");
        }
    }

    #[test]
    fn summary_round_trips_exactly() {
        let s = SweepSummary {
            points: 330,
            feasible: 200,
            skipped: 1,
            best_config: "wg=64x1 pipe pes=8".to_string(),
            best_cycles: Some(123456.789012345),
        };
        let back = SweepSummary::from_json(&s.to_json()).expect("round trip");
        assert_eq!(back, s);
        assert_eq!(back.best_cycles.unwrap().to_bits(), s.best_cycles.unwrap().to_bits());
        let none = SweepSummary { best_cycles: None, best_config: String::new(), ..s };
        assert_eq!(SweepSummary::from_json(&none.to_json()).expect("round trip"), none);
    }

    #[test]
    fn request_id_is_stamped_last_and_absent_until_stamped() {
        let e = Request::parse(r#"{"id":"z","#).unwrap_err();
        let mut r = Response::malformed(&e);
        assert_eq!(r.request_id(), "");
        assert!(!r.to_json().contains("request_id"));
        r.set_request_id("ab12cd34-000007");
        let j = r.to_json();
        assert!(j.ends_with(r#","request_id":"ab12cd34-000007"}"#), "{j}");
        // The leading field layout the CI greps match is unchanged.
        assert!(j.contains(r#""status":"error","kind":"malformed""#), "{j}");
    }

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, r#"{"id":"a"}"#).expect("write");
        write_frame(&mut buf, "second").expect("write");
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).expect("read").as_deref(), Some(r#"{"id":"a"}"#));
        assert_eq!(read_frame(&mut r).expect("read").as_deref(), Some("second"));
        assert_eq!(read_frame(&mut r).expect("read"), None);

        let huge = (MAX_FRAME_LEN as u32 + 1).to_be_bytes();
        assert!(read_frame(&mut &huge[..]).is_err());
        let truncated = [0u8, 0, 0, 9, b'x'];
        assert!(read_frame(&mut &truncated[..]).is_err());
    }
}
