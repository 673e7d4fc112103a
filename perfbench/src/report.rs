//! Metric collection, the declared metric lists, provenance and the
//! result line.

use std::fmt::Write as _;

/// The benchmark definition this binary was built against; the metric
/// names and units it emits must match the lists declared there.
const DEFINITION: &str = include_str!("../../BENCHMARK.json");

/// Named metric values in emission order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: String, value: f64, unit: &'static str) {
        self.entries.push((name, value, unit));
    }

    /// The metrics as `(name, value, unit)`.
    pub fn entries(&self) -> &[(String, f64, &'static str)] {
        &self.entries
    }

    /// Checks that every value is finite and that the names and units are
    /// exactly the `section` list of the benchmark definition.
    pub fn validate(&self, section: &str) -> Result<(), String> {
        if let Some((name, value, _)) = self.entries.iter().find(|(_, v, _)| !v.is_finite()) {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        let mut emitted: Vec<(String, String)> = self
            .entries
            .iter()
            .map(|(n, _, u)| (n.clone(), (*u).to_string()))
            .collect();
        let mut declared = declared_metrics(section);
        emitted.sort();
        declared.sort();
        if emitted == declared {
            Ok(())
        } else {
            let missing: Vec<_> = declared.iter().filter(|d| !emitted.contains(d)).collect();
            let extra: Vec<_> = emitted.iter().filter(|e| !declared.contains(e)).collect();
            Err(format!(
                "emitted {section} metrics differ from BENCHMARK.json: missing {missing:?}, undeclared {extra:?}"
            ))
        }
    }

    /// Renders the `metrics` object of the result line.
    fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String");
        }
        out.push('}');
        out
    }
}

/// `(name, unit)` pairs of one metric list (`end_to_end` or `per_layer`)
/// in the benchmark definition.
fn declared_metrics(section: &str) -> Vec<(String, String)> {
    let key = format!("\"{section}\"");
    let Some(at) = DEFINITION.find(&key) else {
        return Vec::new();
    };
    let body = &DEFINITION[at..];
    let end = body.find(']').unwrap_or(body.len());
    body[..end]
        .split('{')
        .skip(1)
        .filter_map(|object| Some((string_field(object, "name")?, string_field(object, "unit")?)))
        .collect()
}

/// The string value of `"field": "..."` inside one flat JSON object.
fn string_field(object: &str, field: &str) -> Option<String> {
    let key = format!("\"{field}\"");
    let rest = &object[object.find(&key)? + key.len()..];
    let rest = &rest[rest.find('"')? + 1..];
    Some(rest[..rest.find('"')?].to_string())
}

/// The one-line JSON result the benchmark ends its output with.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Where and with what the numbers were measured.
pub fn provenance() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "# provenance nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\" commit={} source_digest={}",
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_COMMIT"),
        env!("PERFBENCH_SOURCE_DIGEST"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_definition_declares_both_metric_lists() {
        let end_to_end = declared_metrics("end_to_end");
        assert!(end_to_end.contains(&("setup_s".into(), "s".into())));
        assert!(end_to_end.contains(&("roi_s".into(), "s".into())));
        assert!(declared_metrics("per_layer").len() > 50);
        assert!(declared_metrics("no_such_list").is_empty());
    }

    #[test]
    fn validate_names_what_is_missing() {
        let mut metrics = Metrics::default();
        metrics.push("setup_s".into(), 1.0, "s");
        let err = metrics.validate("end_to_end").unwrap_err();
        assert!(err.contains("roi_s"), "{err}");
        metrics.push("roi_s".into(), f64::NAN, "s");
        assert!(metrics
            .validate("end_to_end")
            .unwrap_err()
            .contains("not finite"));
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut metrics = Metrics::default();
        metrics.push("roi_s".into(), 0.25, "s");
        assert_eq!(
            result_line(true, 3, 0, &metrics),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"roi_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
