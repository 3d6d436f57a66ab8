//! The wire protocol: newline-delimited JSON, one request per line, one
//! response per line, responses in request order.
//!
//! ## Requests
//!
//! Every request is a single-line JSON object with an `op` and a
//! caller-chosen `id` (echoed back verbatim):
//!
//! ```json
//! {"op":"explain","id":"r1","metric":"sp","support":[0.05,0.15],"max_literals":2,"top_k":5}
//! {"op":"stats","id":"r2"}
//! {"op":"ping","id":"r3"}
//! {"op":"shutdown","id":"r4"}
//! ```
//!
//! All `explain` fields besides `id` are optional overrides of the
//! engine's base configuration. `metric` accepts the CLI shorthands
//! (`sp`/`eo`/`pp`) and the report-schema tags
//! (`statistical_parity`, ...).
//!
//! ## Responses
//!
//! `{"schema":1,"id":...,"ok":true,...payload...}` on success,
//! `{"schema":1,"id":...,"ok":false,"error":{"kind":...,"message":...}}`
//! on failure. An explain response carries the full versioned report
//! (`FumeReport::to_json`) as its **last** field, so the canonical
//! report encoding appears as a contiguous byte range of the line:
//!
//! ```json
//! {"schema":1,"id":"r1","ok":true,"timing_ns":12345,"report":{"schema":1,...}}
//! ```

use fume_core::report_json::metric_from_tag;
use fume_core::FumeReport;
use fume_fairness::FairnessMetric;
use fume_obs::json::{self, Json};

use crate::engine::{EngineStats, ExplainOverrides, ServeError};

/// The protocol's envelope version.
pub const PROTOCOL_SCHEMA: u64 = 1;

/// A decoded request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run an explain job.
    Explain {
        /// Echo id.
        id: String,
        /// Overrides of the engine's base config.
        overrides: ExplainOverrides,
    },
    /// Snapshot engine counters.
    Stats {
        /// Echo id.
        id: String,
    },
    /// Liveness check, answered inline without queueing.
    Ping {
        /// Echo id.
        id: String,
    },
    /// Acknowledge, then drain and stop serving.
    Shutdown {
        /// Echo id.
        id: String,
    },
}

impl Request {
    /// The request's echo id.
    pub fn id(&self) -> &str {
        match self {
            Self::Explain { id, .. } | Self::Stats { id } | Self::Ping { id } | Self::Shutdown { id } => id,
        }
    }
}

/// Why a request line could not be decoded. Carries the `id` when one
/// was recoverable so the error response can still be correlated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// The request id, if the line parsed far enough to contain one.
    pub id: Option<String>,
    /// What went wrong.
    pub message: String,
}

fn bad(id: Option<String>, message: impl Into<String>) -> RequestError {
    RequestError { id, message: message.into() }
}

/// Parses a metric tag: a CLI shorthand (`sp`, `eo`, `pp`) or a
/// report-schema tag ([`metric_tag`](fume_core::report_json::metric_tag)).
/// `fume-cli` and `fume-serve` parse `--metric` with it too, so the flag
/// and the wire accept one tag set.
pub fn parse_metric(tag: &str) -> Option<FairnessMetric> {
    match tag {
        "sp" => Some(FairnessMetric::StatisticalParity),
        "eo" => Some(FairnessMetric::EqualizedOdds),
        "pp" => Some(FairnessMetric::PredictiveParity),
        other => metric_from_tag(other),
    }
}

fn parse_usize(obj: &Json, key: &str, id: &str) -> Result<Option<usize>, RequestError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => match v.as_u64() {
            Some(n) => Ok(Some(n as usize)),
            None => Err(bad(
                Some(id.to_string()),
                format!("field `{key}` must be a non-negative integer"),
            )),
        },
    }
}

/// Decodes one request line.
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let obj = json::parse(line).map_err(|e| bad(None, format!("malformed JSON: {} at byte {}", e.msg, e.at)))?;
    if !matches!(obj, Json::Obj(_)) {
        return Err(bad(None, "request must be a JSON object"));
    }
    let id = obj
        .get("id")
        .and_then(Json::as_str)
        .map(str::to_string);
    let Some(op) = obj.get("op").and_then(Json::as_str) else {
        return Err(bad(id, "missing string field `op`"));
    };
    let Some(id) = id else {
        return Err(bad(None, "missing string field `id`"));
    };
    match op {
        "ping" => Ok(Request::Ping { id }),
        "stats" => Ok(Request::Stats { id }),
        "shutdown" => Ok(Request::Shutdown { id }),
        "explain" => {
            let mut overrides = ExplainOverrides::default();
            if let Some(tag) = obj.get("metric") {
                let Some(tag) = tag.as_str() else {
                    return Err(bad(Some(id), "field `metric` must be a string"));
                };
                let Some(metric) = parse_metric(tag) else {
                    return Err(bad(Some(id), format!("unknown metric `{tag}`")));
                };
                overrides.metric = Some(metric);
            }
            match obj.get("support") {
                None | Some(Json::Null) => {}
                Some(Json::Arr(bounds)) => {
                    let pair = match bounds.as_slice() {
                        [lo, hi] => lo.as_f64().zip(hi.as_f64()),
                        _ => None,
                    };
                    let Some((lo, hi)) = pair else {
                        return Err(bad(Some(id), "field `support` must be [min, max] numbers"));
                    };
                    overrides.support = Some((lo, hi));
                }
                Some(_) => {
                    return Err(bad(Some(id), "field `support` must be [min, max] numbers"));
                }
            }
            overrides.max_literals = parse_usize(&obj, "max_literals", &id)?;
            overrides.top_k = parse_usize(&obj, "top_k", &id)?;
            if let Some(ms) = parse_usize(&obj, "sleep_ms", &id)? {
                overrides.sleep_ms = ms as u64;
            }
            Ok(Request::Explain { id, overrides })
        }
        other => Err(bad(Some(id), format!("unknown op `{other}`"))),
    }
}

fn envelope(id: &str, ok: bool) -> String {
    let mut out = String::with_capacity(64);
    out.push_str("{\"schema\":");
    out.push_str(&PROTOCOL_SCHEMA.to_string());
    out.push_str(",\"id\":");
    json::write_str(&mut out, id);
    out.push_str(",\"ok\":");
    out.push_str(if ok { "true" } else { "false" });
    out
}

/// Encodes a successful explain response (single line; the canonical
/// report is the last field).
pub fn render_report(id: &str, timing_ns: u64, report: &FumeReport) -> String {
    let mut out = envelope(id, true);
    out.push_str(",\"timing_ns\":");
    out.push_str(&timing_ns.to_string());
    out.push_str(",\"report\":");
    out.push_str(&report.to_json());
    out.push('}');
    out
}

/// Encodes a stats response.
pub fn render_stats(id: &str, stats: &EngineStats) -> String {
    let mut out = envelope(id, true);
    out.push_str(",\"stats\":{");
    let fields: [(&str, u64); 7] = [
        ("jobs", stats.jobs),
        ("jobs_failed", stats.jobs_failed),
        ("busy_rejections", stats.busy_rejections),
        ("cache_hits", stats.cache.hits),
        ("cache_misses", stats.cache.misses),
        ("cache_evictions", stats.cache.evictions),
        ("cache_entries", stats.cache.entries),
    ];
    let mut first = true;
    for (key, value) in fields {
        json::write_key(&mut out, &mut first, key);
        out.push_str(&value.to_string());
    }
    out.push_str("}}");
    out
}

/// Encodes a ping response.
pub fn render_pong(id: &str) -> String {
    let mut out = envelope(id, true);
    out.push_str(",\"pong\":true}");
    out
}

/// Encodes the shutdown acknowledgement.
pub fn render_shutdown_ack(id: &str) -> String {
    let mut out = envelope(id, true);
    out.push_str(",\"shutdown\":true}");
    out
}

/// Encodes an error response. `id` is `null` when the request line was
/// too malformed to recover one.
pub fn render_error(id: Option<&str>, kind: &str, message: &str) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"schema\":");
    out.push_str(&PROTOCOL_SCHEMA.to_string());
    out.push_str(",\"id\":");
    match id {
        Some(id) => json::write_str(&mut out, id),
        None => out.push_str("null"),
    }
    out.push_str(",\"ok\":false,\"error\":{\"kind\":");
    json::write_str(&mut out, kind);
    out.push_str(",\"message\":");
    json::write_str(&mut out, message);
    out.push_str("}}");
    out
}

/// Encodes a [`ServeError`] as an error response.
pub fn render_serve_error(id: &str, error: &ServeError) -> String {
    render_error(Some(id), error.kind(), &error.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_op() {
        assert_eq!(parse_request(r#"{"op":"ping","id":"a"}"#), Ok(Request::Ping { id: "a".into() }));
        assert_eq!(parse_request(r#"{"op":"stats","id":"b"}"#), Ok(Request::Stats { id: "b".into() }));
        assert_eq!(
            parse_request(r#"{"op":"shutdown","id":"c"}"#),
            Ok(Request::Shutdown { id: "c".into() })
        );
        let req = parse_request(
            r#"{"op":"explain","id":"d","metric":"pp","support":[0.02,0.3],"max_literals":3,"top_k":7}"#,
        )
        .unwrap();
        let Request::Explain { id, overrides } = req else { panic!("expected explain") };
        assert_eq!(id, "d");
        assert_eq!(overrides.metric, Some(FairnessMetric::PredictiveParity));
        assert_eq!(overrides.support, Some((0.02, 0.3)));
        assert_eq!(overrides.max_literals, Some(3));
        assert_eq!(overrides.top_k, Some(7));
    }

    #[test]
    fn metric_accepts_shorthand_and_schema_tags() {
        for (tag, metric) in [
            ("sp", FairnessMetric::StatisticalParity),
            ("eo", FairnessMetric::EqualizedOdds),
            ("pp", FairnessMetric::PredictiveParity),
            ("statistical_parity", FairnessMetric::StatisticalParity),
            ("equal_opportunity", FairnessMetric::EqualOpportunity),
        ] {
            assert_eq!(parse_metric(tag), Some(metric), "tag {tag}");
        }
        assert_eq!(parse_metric("nope"), None);
    }

    #[test]
    fn bad_lines_keep_the_id_when_recoverable() {
        let err = parse_request(r#"{"op":"warp","id":"x"}"#).unwrap_err();
        assert_eq!(err.id.as_deref(), Some("x"));
        let err = parse_request("not json").unwrap_err();
        assert_eq!(err.id, None);
        let err = parse_request(r#"{"op":"explain","id":"y","support":"wide"}"#).unwrap_err();
        assert_eq!(err.id.as_deref(), Some("y"));
        let err = parse_request(r#"{"op":"explain"}"#).unwrap_err();
        assert_eq!(err.id, None);
    }

    #[test]
    fn responses_are_single_canonical_lines() {
        let pong = render_pong("r1");
        assert_eq!(pong, r#"{"schema":1,"id":"r1","ok":true,"pong":true}"#);
        assert!(!pong.contains('\n'));
        let err = render_error(None, "bad_request", "nope \"quoted\"");
        assert_eq!(
            err,
            r#"{"schema":1,"id":null,"ok":false,"error":{"kind":"bad_request","message":"nope \"quoted\""}}"#
        );
        let stats = render_stats(
            "s",
            &EngineStats {
                jobs: 2,
                jobs_failed: 0,
                busy_rejections: 1,
                cache: crate::cache::CacheStats { hits: 5, misses: 3, evictions: 0, entries: 3 },
            },
        );
        assert_eq!(
            stats,
            r#"{"schema":1,"id":"s","ok":true,"stats":{"jobs":2,"jobs_failed":0,"busy_rejections":1,"cache_hits":5,"cache_misses":3,"cache_evictions":0,"cache_entries":3}}"#
        );
    }

    #[test]
    fn report_is_the_last_field_of_an_explain_response() {
        let report = FumeReport {
            top_k: Vec::new(),
            evaluated: Vec::new(),
            levels: Vec::new(),
            metric: FairnessMetric::StatisticalParity,
            original_bias: 0.0,
            original_fairness: 0.0,
            original_accuracy: 0.0,
            unlearning_operations: 0,
            search_time: std::time::Duration::ZERO,
            training_time: std::time::Duration::ZERO,
            unlearn_time: std::time::Duration::ZERO,
        };
        let line = render_report("r9", 42, &report);
        let inner = report.to_json();
        assert!(line.ends_with(&format!("{inner}}}")));
        assert!(line.starts_with(r#"{"schema":1,"id":"r9","ok":true,"timing_ns":42,"report":{"#));
    }
}
