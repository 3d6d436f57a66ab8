//! Versioned JSON codec for [`FumeReport`] — the `fume-serve` wire
//! format (schema 1).
//!
//! The encoding is **canonical**: fixed key order, compact (no
//! whitespace), floats in Rust's shortest round-trip representation via
//! [`fume_obs::json::write_f64`]. Two runs that computed identical
//! results therefore serialize to identical bytes, which is what lets
//! the serve smoke gate diff a server response against a `fume-cli
//! --json` run, and lets tests assert concurrent engine output is
//! byte-identical to serial output.
//!
//! Wall-clock timings (`search_time`, `training_time`, `unlearn_time`)
//! are deliberately **excluded**: they vary run to run and would break
//! canonical comparison. [`FumeReport::from_json`] restores them as
//! zero; transports that want timings ship them outside the report
//! object (as `fume-serve` does in its response envelope).

use fume_fairness::FairnessMetric;
use fume_lattice::{EvaluatedSubset, LevelStats, Literal, Op, Predicate};
use fume_obs::clock::Duration;
use fume_obs::json::{self, Json};

use crate::algorithm::{ExplainedSubset, FumeError, FumeReport};

/// The schema version this codec writes (and the only one it reads).
pub const REPORT_SCHEMA: u64 = 1;

fn op_tag(op: Op) -> &'static str {
    match op {
        Op::Eq => "eq",
        Op::Ne => "ne",
        Op::Lt => "lt",
        Op::Le => "le",
        Op::Gt => "gt",
        Op::Ge => "ge",
    }
}

fn op_from_tag(tag: &str) -> Option<Op> {
    Some(match tag {
        "eq" => Op::Eq,
        "ne" => Op::Ne,
        "lt" => Op::Lt,
        "le" => Op::Le,
        "gt" => Op::Gt,
        "ge" => Op::Ge,
        _ => return None,
    })
}

/// The wire tag of a fairness metric (`"statistical_parity"`, …) — also
/// what `fume-serve` accepts as a request's `metric` member.
pub fn metric_tag(metric: FairnessMetric) -> &'static str {
    match metric {
        FairnessMetric::StatisticalParity => "statistical_parity",
        FairnessMetric::EqualizedOdds => "equalized_odds",
        FairnessMetric::PredictiveParity => "predictive_parity",
        FairnessMetric::EqualOpportunity => "equal_opportunity",
    }
}

/// Parses a [`metric_tag`] back; `None` for unknown tags.
pub fn metric_from_tag(tag: &str) -> Option<FairnessMetric> {
    Some(match tag {
        "statistical_parity" => FairnessMetric::StatisticalParity,
        "equalized_odds" => FairnessMetric::EqualizedOdds,
        "predictive_parity" => FairnessMetric::PredictiveParity,
        "equal_opportunity" => FairnessMetric::EqualOpportunity,
        _ => return None,
    })
}

fn write_usize(out: &mut String, v: usize) {
    out.push_str(&v.to_string());
}

fn write_rows(out: &mut String, rows: &[u32]) {
    out.push('[');
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&r.to_string());
    }
    out.push(']');
}

fn write_predicate(out: &mut String, predicate: &Predicate) {
    out.push('[');
    for (i, lit) in predicate.literals().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut first = true;
        out.push('{');
        json::write_key(out, &mut first, "attr");
        write_usize(out, lit.attr as usize);
        json::write_key(out, &mut first, "op");
        json::write_str(out, op_tag(lit.op));
        json::write_key(out, &mut first, "value");
        write_usize(out, lit.value as usize);
        out.push('}');
    }
    out.push(']');
}

impl FumeReport {
    /// Serializes the report as one line of canonical schema-1 JSON
    /// (see the module docs for what "canonical" buys and why timings
    /// are excluded).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        let mut first = true;
        out.push('{');
        json::write_key(&mut out, &mut first, "schema");
        out.push_str(&REPORT_SCHEMA.to_string());
        json::write_key(&mut out, &mut first, "metric");
        json::write_str(&mut out, metric_tag(self.metric));
        json::write_key(&mut out, &mut first, "original_bias");
        json::write_f64(&mut out, self.original_bias);
        json::write_key(&mut out, &mut first, "original_fairness");
        json::write_f64(&mut out, self.original_fairness);
        json::write_key(&mut out, &mut first, "original_accuracy");
        json::write_f64(&mut out, self.original_accuracy);
        json::write_key(&mut out, &mut first, "unlearning_operations");
        write_usize(&mut out, self.unlearning_operations);

        json::write_key(&mut out, &mut first, "top_k");
        out.push('[');
        for (i, s) in self.top_k.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let mut f = true;
            out.push('{');
            json::write_key(&mut out, &mut f, "pattern");
            json::write_str(&mut out, &s.pattern);
            json::write_key(&mut out, &mut f, "predicate");
            write_predicate(&mut out, &s.predicate);
            json::write_key(&mut out, &mut f, "support");
            json::write_f64(&mut out, s.support);
            json::write_key(&mut out, &mut f, "parity_reduction");
            json::write_f64(&mut out, s.parity_reduction);
            json::write_key(&mut out, &mut f, "phi");
            json::write_f64(&mut out, s.phi);
            json::write_key(&mut out, &mut f, "rows");
            write_rows(&mut out, &s.rows);
            out.push('}');
        }
        out.push(']');

        json::write_key(&mut out, &mut first, "evaluated");
        out.push('[');
        for (i, s) in self.evaluated.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let mut f = true;
            out.push('{');
            json::write_key(&mut out, &mut f, "predicate");
            write_predicate(&mut out, &s.predicate);
            json::write_key(&mut out, &mut f, "support");
            json::write_f64(&mut out, s.support);
            json::write_key(&mut out, &mut f, "rho");
            json::write_f64(&mut out, s.rho);
            json::write_key(&mut out, &mut f, "level");
            write_usize(&mut out, s.level);
            json::write_key(&mut out, &mut f, "rows");
            write_rows(&mut out, &s.rows);
            out.push('}');
        }
        out.push(']');

        json::write_key(&mut out, &mut first, "levels");
        out.push('[');
        for (i, l) in self.levels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let fields: [(&str, usize); 11] = [
                ("level", l.level),
                ("possible", l.possible),
                ("generated", l.generated),
                ("pruned_rule1", l.pruned_rule1),
                ("pruned_redundant", l.pruned_redundant),
                ("pruned_support_low", l.pruned_support_low),
                ("oversized", l.oversized),
                ("pruned_rule3", l.pruned_rule3),
                ("explored", l.explored),
                ("pruned_rule4", l.pruned_rule4),
                ("pruned_rule5", l.pruned_rule5),
            ];
            let mut f = true;
            out.push('{');
            for (key, v) in fields {
                json::write_key(&mut out, &mut f, key);
                write_usize(&mut out, v);
            }
            out.push('}');
        }
        out.push(']');
        out.push('}');
        out
    }

    /// Parses a schema-1 report produced by [`FumeReport::to_json`].
    /// Timing fields come back as zero (they are not part of the wire
    /// format). Any structural problem — wrong schema, missing member,
    /// wrong type — yields [`FumeError::Codec`].
    pub fn from_json(s: &str) -> Result<Self, FumeError> {
        let root = json::parse(s).map_err(|e| FumeError::Codec(e.to_string()))?;
        let schema = field_u64(&root, "schema")?;
        if schema != REPORT_SCHEMA {
            return Err(FumeError::Codec(format!(
                "unsupported report schema {schema} (this build reads {REPORT_SCHEMA})"
            )));
        }
        let metric_str = field_str(&root, "metric")?;
        let metric = metric_from_tag(metric_str)
            .ok_or_else(|| FumeError::Codec(format!("unknown metric tag {metric_str:?}")))?;
        let top_k = field_arr(&root, "top_k")?
            .iter()
            .map(explained_from)
            .collect::<Result<Vec<_>, _>>()?;
        let evaluated = field_arr(&root, "evaluated")?
            .iter()
            .map(evaluated_from)
            .collect::<Result<Vec<_>, _>>()?;
        let levels = field_arr(&root, "levels")?
            .iter()
            .map(level_from)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FumeReport {
            top_k,
            evaluated,
            levels,
            metric,
            original_bias: field_f64(&root, "original_bias")?,
            original_fairness: field_f64(&root, "original_fairness")?,
            original_accuracy: field_f64(&root, "original_accuracy")?,
            unlearning_operations: field_usize(&root, "unlearning_operations")?,
            search_time: Duration::ZERO,
            training_time: Duration::ZERO,
            unlearn_time: Duration::ZERO,
        })
    }
}

fn missing(key: &str) -> FumeError {
    FumeError::Codec(format!("missing or mistyped member {key:?}"))
}

fn field_u64(obj: &Json, key: &str) -> Result<u64, FumeError> {
    obj.get(key).and_then(Json::as_u64).ok_or_else(|| missing(key))
}

fn field_usize(obj: &Json, key: &str) -> Result<usize, FumeError> {
    Ok(field_u64(obj, key)? as usize)
}

fn field_f64(obj: &Json, key: &str) -> Result<f64, FumeError> {
    obj.get(key).and_then(Json::as_f64).ok_or_else(|| missing(key))
}

fn field_str<'a>(obj: &'a Json, key: &str) -> Result<&'a str, FumeError> {
    obj.get(key).and_then(Json::as_str).ok_or_else(|| missing(key))
}

fn field_arr<'a>(obj: &'a Json, key: &str) -> Result<&'a [Json], FumeError> {
    match obj.get(key) {
        Some(Json::Arr(items)) => Ok(items),
        _ => Err(missing(key)),
    }
}

fn rows_from(obj: &Json, key: &str) -> Result<Vec<u32>, FumeError> {
    field_arr(obj, key)?
        .iter()
        .map(|v| {
            v.as_u64()
                .filter(|&r| r <= u64::from(u32::MAX))
                .map(|r| r as u32)
                .ok_or_else(|| FumeError::Codec("row id out of u32 range".into()))
        })
        .collect()
}

fn predicate_from(obj: &Json, key: &str) -> Result<Predicate, FumeError> {
    let literals = field_arr(obj, key)?
        .iter()
        .map(|lit| {
            let attr = field_u64(lit, "attr")?;
            let value = field_u64(lit, "value")?;
            if attr > u64::from(u16::MAX) || value > u64::from(u16::MAX) {
                return Err(FumeError::Codec("literal attr/value out of u16 range".into()));
            }
            let tag = field_str(lit, "op")?;
            let op = op_from_tag(tag)
                .ok_or_else(|| FumeError::Codec(format!("unknown op tag {tag:?}")))?;
            Ok(Literal { attr: attr as u16, op, value: value as u16 })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Predicate::new(literals))
}

fn explained_from(obj: &Json) -> Result<ExplainedSubset, FumeError> {
    Ok(ExplainedSubset {
        pattern: field_str(obj, "pattern")?.to_string(),
        predicate: predicate_from(obj, "predicate")?,
        support: field_f64(obj, "support")?,
        parity_reduction: field_f64(obj, "parity_reduction")?,
        phi: field_f64(obj, "phi")?,
        rows: rows_from(obj, "rows")?,
    })
}

fn evaluated_from(obj: &Json) -> Result<EvaluatedSubset, FumeError> {
    Ok(EvaluatedSubset {
        predicate: predicate_from(obj, "predicate")?,
        rows: rows_from(obj, "rows")?.into(),
        support: field_f64(obj, "support")?,
        rho: field_f64(obj, "rho")?,
        level: field_usize(obj, "level")?,
    })
}

fn level_from(obj: &Json) -> Result<LevelStats, FumeError> {
    Ok(LevelStats {
        level: field_usize(obj, "level")?,
        possible: field_usize(obj, "possible")?,
        generated: field_usize(obj, "generated")?,
        pruned_rule1: field_usize(obj, "pruned_rule1")?,
        pruned_redundant: field_usize(obj, "pruned_redundant")?,
        pruned_support_low: field_usize(obj, "pruned_support_low")?,
        oversized: field_usize(obj, "oversized")?,
        pruned_rule3: field_usize(obj, "pruned_rule3")?,
        explored: field_usize(obj, "explored")?,
        pruned_rule4: field_usize(obj, "pruned_rule4")?,
        pruned_rule5: field_usize(obj, "pruned_rule5")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic(seed: u64) -> FumeReport {
        // A structurally rich report with awkward floats: denormal-ish
        // magnitudes, negatives, long fractions — everything the
        // shortest-repr writer must round-trip exactly.
        let mut rng = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let mut float = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % 2_000_003) as f64 / 999_983.0 - 1.0
        };
        let predicate = Predicate::new(vec![
            Literal::eq(3, 7),
            Literal { attr: 1, op: Op::Le, value: 2 },
        ]);
        let top_k = vec![ExplainedSubset {
            pattern: "a = b AND c ≤ \"d\"".to_string(),
            predicate: predicate.clone(),
            support: float().abs(),
            parity_reduction: float(),
            phi: float(),
            rows: vec![0, 5, 17, u32::MAX],
        }];
        let evaluated = (0..4usize)
            .map(|i| EvaluatedSubset {
                predicate: Predicate::single(Literal::eq(i as u16, 1)),
                rows: (0..(i * 3) as u32).collect(),
                support: float().abs(),
                rho: float(),
                level: 1 + i % 2,
            })
            .collect();
        let levels = vec![LevelStats {
            level: 1,
            possible: 40,
            generated: 30,
            pruned_rule1: 1,
            pruned_redundant: 2,
            pruned_support_low: 3,
            oversized: 4,
            pruned_rule3: 5,
            explored: 20,
            pruned_rule4: 6,
            pruned_rule5: 7,
        }];
        FumeReport {
            top_k,
            evaluated,
            levels,
            metric: FairnessMetric::EqualOpportunity,
            original_bias: float().abs() + 1e-17,
            original_fairness: float(),
            original_accuracy: float().abs(),
            unlearning_operations: 24,
            search_time: Duration::from_nanos(123),
            training_time: Duration::from_nanos(456),
            unlearn_time: Duration::from_nanos(789),
        }
    }

    fn zero_timings(mut r: FumeReport) -> FumeReport {
        r.search_time = Duration::ZERO;
        r.training_time = Duration::ZERO;
        r.unlearn_time = Duration::ZERO;
        r
    }

    #[test]
    fn round_trip_is_exact_over_seeds() {
        for seed in 1..=20u64 {
            let report = synthetic(seed);
            let encoded = report.to_json();
            assert!(encoded.starts_with("{\"schema\":1,"), "schema leads: {encoded}");
            assert!(!encoded.contains('\n'), "one line");
            let decoded = FumeReport::from_json(&encoded).unwrap();
            assert_eq!(decoded, zero_timings(report), "seed {seed}");
            // Canonicality: re-encoding the decoded report is
            // byte-identical.
            assert_eq!(decoded.to_json(), encoded, "seed {seed}");
        }
    }

    #[test]
    fn all_metrics_and_ops_round_trip() {
        for metric in [
            FairnessMetric::StatisticalParity,
            FairnessMetric::EqualizedOdds,
            FairnessMetric::PredictiveParity,
            FairnessMetric::EqualOpportunity,
        ] {
            let mut report = synthetic(9);
            report.metric = metric;
            report.top_k[0].predicate = Predicate::new(
                [Op::Eq, Op::Ne, Op::Lt, Op::Le, Op::Gt, Op::Ge]
                    .into_iter()
                    .enumerate()
                    .map(|(i, op)| Literal { attr: i as u16, op, value: i as u16 })
                    .collect(),
            );
            let decoded = FumeReport::from_json(&report.to_json()).unwrap();
            assert_eq!(decoded, zero_timings(report));
        }
    }

    #[test]
    fn empty_report_round_trips() {
        let report = FumeReport {
            top_k: Vec::new(),
            evaluated: Vec::new(),
            levels: Vec::new(),
            metric: FairnessMetric::StatisticalParity,
            original_bias: 0.25,
            original_fairness: -0.25,
            original_accuracy: 0.875,
            unlearning_operations: 0,
            search_time: Duration::ZERO,
            training_time: Duration::ZERO,
            unlearn_time: Duration::ZERO,
        };
        let decoded = FumeReport::from_json(&report.to_json()).unwrap();
        assert_eq!(decoded, report);
    }

    #[test]
    fn wrong_schema_and_garbage_are_codec_errors() {
        let report = synthetic(4);
        let good = report.to_json();
        let bad_schema = good.replacen("\"schema\":1", "\"schema\":2", 1);
        assert!(matches!(
            FumeReport::from_json(&bad_schema),
            Err(FumeError::Codec(msg)) if msg.contains("schema 2")
        ));
        assert!(matches!(FumeReport::from_json("not json"), Err(FumeError::Codec(_))));
        assert!(matches!(FumeReport::from_json("{}"), Err(FumeError::Codec(_))));
        let bad_op = good.replacen("\"op\":\"eq\"", "\"op\":\"??\"", 1);
        if bad_op != good {
            assert!(matches!(FumeReport::from_json(&bad_op), Err(FumeError::Codec(_))));
        }
    }
}
