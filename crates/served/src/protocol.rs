//! The daemon's wire protocol: line-delimited flat JSON objects, one
//! request per line, one response line per request, in order.
//!
//! Requests (`op` selects the verb):
//!
//! ```text
//! {"op":"submit","job":0,"count":2}     admit 2 jobs of class 0
//! {"op":"advance"}                      execute one slot (manual clock)
//! {"op":"advance","slots":5}            execute five slots
//! {"op":"status"}                       current slot, queue, counters
//! {"op":"drain"}                        graceful shutdown
//! ```
//!
//! Responses always carry `"ok"`; rejections add a machine-readable
//! `"error"` reason (see [`RejectReason`]) and a human `"detail"`:
//!
//! ```text
//! {"ok":true,"op":"submit","seq":3,"slot":7,"job":0,"count":2}
//! {"ok":false,"op":"submit","error":"queue_full","detail":"..."}
//! ```
//!
//! The flat shape is deliberate: it reuses the workspace's own
//! [`grefar_obs::json`] parser (the same one the telemetry tooling trusts)
//! instead of growing a second, nested JSON dialect.

use grefar_obs::json::{parse_object, write_string, JsonValue};

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Admit `count` jobs of class `job` into the next unexecuted slot.
    Submit {
        /// Job class index.
        job: usize,
        /// Number of jobs. Must be a whole number: the simulator's job
        /// tracker follows discrete jobs through the fluid queues, and
        /// fractional admissions would desynchronize the two.
        count: f64,
    },
    /// Execute `slots` slots now (manual clock only).
    Advance {
        /// How many slots to execute.
        slots: u64,
    },
    /// Report the daemon's current position and counters.
    Status,
    /// Stop admitting, finish the current slot, flush everything and exit.
    Drain,
}

/// Machine-readable rejection reasons (the `"error"` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The line was not a valid flat JSON object.
    Parse,
    /// The object was valid JSON but not a valid request.
    BadRequest,
    /// The admission queue is full — backpressure shed the request.
    QueueFull,
    /// The daemon is draining and no longer admits work.
    Draining,
    /// Supervision has ended: the daemon is shutting down and the state
    /// keeper's inbox is gone. (A request sent while the state keeper
    /// restarts waits in its inbox and is answered by the replacement.)
    Unavailable,
    /// The submission itself is invalid (job class range, horizon, count).
    Invalid,
    /// The request line exceeded the wire-protocol length cap. The rest
    /// of the oversized line is discarded (through its terminating
    /// newline); well-framed requests after it proceed normally.
    LineTooLong,
}

impl RejectReason {
    /// The wire label.
    pub fn as_str(self) -> &'static str {
        match self {
            RejectReason::Parse => "parse",
            RejectReason::BadRequest => "bad_request",
            RejectReason::QueueFull => "queue_full",
            RejectReason::Draining => "draining",
            RejectReason::Unavailable => "unavailable",
            RejectReason::Invalid => "invalid",
            RejectReason::LineTooLong => "line_too_long",
        }
    }
}

/// Parses one request line.
///
/// # Errors
/// `(reason, detail)` suitable for [`reject`] — `Parse` for malformed
/// JSON, `BadRequest` for a well-formed object that is not a request.
pub fn parse_request(line: &str) -> Result<Request, (RejectReason, String)> {
    let object =
        parse_object(line.trim()).map_err(|e| (RejectReason::Parse, format!("bad json: {e}")))?;
    let op = match object.get("op").and_then(JsonValue::as_str) {
        Some(op) => op,
        None => {
            return Err((
                RejectReason::BadRequest,
                "missing string field \"op\"".to_string(),
            ))
        }
    };
    let number = |key: &str| object.get(key).and_then(JsonValue::as_f64);
    match op {
        "submit" => {
            let job = match number("job") {
                // verify: allow(float-eq): fract() == 0 is the exact JSON-integer test
                Some(v) if v >= 0.0 && v.fract() == 0.0 => v as usize,
                Some(_) => {
                    return Err((
                        RejectReason::BadRequest,
                        "\"job\" must be a non-negative integer".to_string(),
                    ))
                }
                None => {
                    return Err((
                        RejectReason::BadRequest,
                        "submit requires a numeric \"job\"".to_string(),
                    ))
                }
            };
            let count = match number("count") {
                None => 1.0,
                // verify: allow(float-eq): fract() == 0 is the exact integrality test
                Some(v) if v.is_finite() && v > 0.0 && v.fract() == 0.0 => v,
                Some(_) => {
                    return Err((
                        RejectReason::BadRequest,
                        "\"count\" must be a positive whole number of jobs".to_string(),
                    ))
                }
            };
            Ok(Request::Submit { job, count })
        }
        "advance" => {
            let slots = match number("slots") {
                None => 1,
                // verify: allow(float-eq): fract() == 0 is the exact JSON-integer test
                Some(v) if v >= 1.0 && v.fract() == 0.0 => v as u64,
                Some(_) => {
                    return Err((
                        RejectReason::BadRequest,
                        "\"slots\" must be a positive integer".to_string(),
                    ))
                }
            };
            Ok(Request::Advance { slots })
        }
        "status" => Ok(Request::Status),
        "drain" => Ok(Request::Drain),
        other => Err((
            RejectReason::BadRequest,
            format!("unknown op {other:?} (expected submit/advance/status/drain)"),
        )),
    }
}

/// The acceptance response for a submission: its journal sequence number
/// and the slot it will arrive in.
pub fn accept(seq: u64, slot: u64, job: usize, count: f64) -> String {
    format!("{{\"ok\":true,\"op\":\"submit\",\"seq\":{seq},\"slot\":{slot},\"job\":{job},\"count\":{count}}}")
}

/// A rejection response for any verb.
pub fn reject(op: &str, reason: RejectReason, detail: &str) -> String {
    let mut out = String::from("{\"ok\":false,\"op\":");
    write_string(&mut out, op);
    out.push_str(",\"error\":\"");
    out.push_str(reason.as_str());
    out.push_str("\",\"detail\":");
    write_string(&mut out, detail);
    out.push('}');
    out
}

/// The response to a completed `advance`.
pub fn advanced(slot: u64, done: bool) -> String {
    format!("{{\"ok\":true,\"op\":\"advance\",\"slot\":{slot},\"done\":{done}}}")
}

/// The response to `status`.
#[allow(clippy::too_many_arguments)]
pub fn status(
    slot: u64,
    horizon: u64,
    queue: f64,
    admitted: u64,
    rejected: u64,
    draining: bool,
) -> String {
    format!(
        "{{\"ok\":true,\"op\":\"status\",\"slot\":{slot},\"horizon\":{horizon},\
         \"queue\":{queue},\"admitted\":{admitted},\"rejected\":{rejected},\
         \"draining\":{draining}}}"
    )
}

/// The acknowledgement of a `drain` request.
pub fn draining() -> String {
    "{\"ok\":true,\"op\":\"drain\",\"draining\":true}".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_parse() {
        assert_eq!(
            parse_request("{\"op\":\"submit\",\"job\":2,\"count\":3}"),
            Ok(Request::Submit { job: 2, count: 3.0 })
        );
        assert_eq!(
            parse_request("{\"op\":\"submit\",\"job\":0}"),
            Ok(Request::Submit { job: 0, count: 1.0 })
        );
        assert_eq!(
            parse_request(" {\"op\":\"advance\",\"slots\":3} "),
            Ok(Request::Advance { slots: 3 })
        );
        assert_eq!(
            parse_request("{\"op\":\"advance\"}"),
            Ok(Request::Advance { slots: 1 })
        );
        assert_eq!(parse_request("{\"op\":\"status\"}"), Ok(Request::Status));
        assert_eq!(parse_request("{\"op\":\"drain\"}"), Ok(Request::Drain));
    }

    #[test]
    fn bad_lines_yield_typed_reasons() {
        assert_eq!(
            parse_request("not json").unwrap_err().0,
            RejectReason::Parse
        );
        assert_eq!(
            parse_request("{\"verb\":\"submit\"}").unwrap_err().0,
            RejectReason::BadRequest
        );
        assert_eq!(
            parse_request("{\"op\":\"submit\"}").unwrap_err().0,
            RejectReason::BadRequest
        );
        assert_eq!(
            parse_request("{\"op\":\"submit\",\"job\":-1}")
                .unwrap_err()
                .0,
            RejectReason::BadRequest
        );
        assert_eq!(
            parse_request("{\"op\":\"submit\",\"job\":0,\"count\":0}")
                .unwrap_err()
                .0,
            RejectReason::BadRequest
        );
        assert_eq!(
            parse_request("{\"op\":\"submit\",\"job\":0,\"count\":1.5}")
                .unwrap_err()
                .0,
            RejectReason::BadRequest
        );
        assert_eq!(
            parse_request("{\"op\":\"advance\",\"slots\":0}")
                .unwrap_err()
                .0,
            RejectReason::BadRequest
        );
        assert_eq!(
            parse_request("{\"op\":\"fly\"}").unwrap_err().0,
            RejectReason::BadRequest
        );
    }

    #[test]
    fn responses_are_flat_parsable_json() {
        for line in [
            accept(3, 7, 0, 2.0),
            reject("submit", RejectReason::QueueFull, "queue at 64/64"),
            advanced(8, false),
            status(8, 72, 12.5, 3, 1, false),
            draining(),
        ] {
            let object = parse_object(&line).expect("response parses");
            assert!(object.contains_key("ok"), "{line}");
        }
    }

    #[test]
    fn reject_escapes_detail() {
        let line = reject("submit", RejectReason::Invalid, "bad \"count\"\nline");
        let object = parse_object(&line).expect("escaped response parses");
        assert_eq!(
            object.get("detail").and_then(JsonValue::as_str),
            Some("bad \"count\"\nline")
        );
    }
}
