//! Reads the tracer's span records back: durations per span name and
//! each layer's self time (span time not covered by its child spans).

use std::collections::{BTreeMap, HashMap};

use crate::json::{field, num};

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name, e.g. `train.fit`.
    pub name: String,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// The `exit` record, which carries the span's recorded fields.
    pub exit_line: String,
}

/// Pairs `enter`/`exit` records into closed spans, keyed by span id.
/// Spans still open when the lines were taken are dropped.
pub fn closed_spans(lines: &[String]) -> BTreeMap<u64, Span> {
    let mut parents: HashMap<u64, u64> = HashMap::new();
    let mut spans = BTreeMap::new();
    for line in lines {
        let Some(id) = num(line, "span").map(|v| v as u64) else {
            continue;
        };
        match field(line, "ev") {
            Some("enter") => {
                parents.insert(id, num(line, "parent").unwrap_or(0.0) as u64);
            }
            Some("exit") => {
                let Some(parent) = parents.get(&id).copied() else {
                    continue;
                };
                spans.insert(
                    id,
                    Span {
                        name: field(line, "name").unwrap_or("").to_string(),
                        parent,
                        dur_ns: num(line, "dur_ns").unwrap_or(0.0) as u64,
                        exit_line: line.clone(),
                    },
                );
            }
            _ => {}
        }
    }
    spans
}

/// The layer a span belongs to: its name up to the first dot
/// (`train.epoch` → `train`).
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time per layer in seconds: each span's duration minus the
/// durations of its direct children, summed by [`layer_of`].
pub fn self_seconds_by_layer(spans: &BTreeMap<u64, Span>) -> BTreeMap<String, f64> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for span in spans.values() {
        *child_ns.entry(span.parent).or_insert(0) += span.dur_ns;
    }
    let mut out = BTreeMap::new();
    for (id, span) in spans {
        let own = span
            .dur_ns
            .saturating_sub(child_ns.get(id).copied().unwrap_or(0));
        *out.entry(layer_of(&span.name).to_string()).or_insert(0.0) += own as f64 / 1e9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ev: &str, span: u64, parent: u64, name: &str, dur: u64) -> String {
        match ev {
            "enter" => format!(
                r#"{{"ev":"enter","span":{span},"parent":{parent},"name":"{name}","thread":1,"t_ns":0}}"#
            ),
            _ => format!(
                r#"{{"ev":"exit","span":{span},"name":"{name}","thread":1,"t_ns":0,"dur_ns":{dur}}}"#
            ),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let lines = vec![
            rec("enter", 1, 0, "train.fit", 0),
            rec("enter", 2, 1, "train.epoch", 0),
            rec("exit", 2, 0, "train.epoch", 300),
            rec("enter", 3, 1, "train.epoch", 0),
            rec("exit", 3, 0, "train.epoch", 500),
            rec("exit", 1, 0, "train.fit", 1_000),
            rec("enter", 4, 0, "bench.setup", 0),
        ];
        let spans = closed_spans(&lines);
        assert_eq!(spans.len(), 3, "the open span is dropped");
        let by_layer = self_seconds_by_layer(&spans);
        // fit: 1000 - 800 of children; epochs: 800 of their own.
        assert!((by_layer["train"] - 1_000e-9).abs() < 1e-15);
        assert!(!by_layer.contains_key("bench"));
    }
}
