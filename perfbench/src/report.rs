//! Metric names, units and the result line.

use spechpc::prelude::BENCHMARK_NAMES;

/// End-to-end metrics: every untraced run reports each of these.
/// Latency and throughput are printed beside them, not gated: on a
/// shared 2-core host they follow hypervisor steal from run to run.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs) whose name does not vary by benchmark.
const PER_LAYER_FIXED: [(&str, &str); 43] = [
    ("kernels.model_ms", "ms"),
    ("kernels.programs_ms", "ms"),
    ("simmpi.prepass_ms", "ms"),
    ("simmpi.engine_ms", "ms"),
    ("simmpi.sim_ops", "count"),
    ("simmpi.sim_ops_per_s", "1/s"),
    ("simmpi.trace_ms", "ms"),
    ("simmpi.program_mb_max", "MB"),
    ("power.model_ms", "ms"),
    ("runner.self_ms", "ms"),
    ("exec.busy_share", "ratio"),
    ("exec.point_ms.p50", "ms"),
    ("exec.point_ms.p95", "ms"),
    ("exec.hit_ms.p50", "ms"),
    ("exec.hit_ms.p90", "ms"),
    ("exec.points_timed", "count"),
    ("cache.put_ms.p50", "ms"),
    ("cache.put_ms.p95", "ms"),
    ("cache.encode_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("experiments.self_ms", "ms"),
    ("api.decode_ms.p50", "ms"),
    ("api.encode_ms.p50", "ms"),
    ("api.encode_ms.p90", "ms"),
    ("api.response_kb.mean", "KB"),
    ("api.plan_decode_ms", "ms"),
    ("serve.self_ms.p50", "ms"),
    ("serve.self_ms.p90", "ms"),
    ("fleet.self_ms.p50", "ms"),
    ("fleet.self_ms.p90", "ms"),
    ("fleet.vet_ms.p50", "ms"),
    ("fleet.routed_share", "ratio"),
    ("fleet.failovers", "count"),
    ("fleet.retries_spent", "count"),
    ("plan.shape_ms", "ms"),
    ("plan.shapes", "count"),
    ("plan.schedule_ms", "ms"),
    ("plan.self_ms", "ms"),
    ("plan.encode_ms", "ms"),
    ("plan.response_kb", "KB"),
    ("plan.jobs", "count"),
    ("plan.queue_max", "count"),
    ("host.steal_share", "ratio"),
];

/// Every per-layer metric, in report order: the fixed ones plus engine
/// time and simulated-op rate per benchmark.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for b in BENCHMARK_NAMES {
        all.push((format!("simmpi.engine_ms.{b}"), "ms"));
    }
    for b in BENCHMARK_NAMES {
        all.push((format!("simmpi.sim_ops_per_s.{b}"), "1/s"));
    }
    all
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)`; units come from the metric tables.
    pub values: Vec<(String, f64)>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The result line. End-to-end runs must have measured every
    /// end-to-end metric; a traced run reports every per-layer metric,
    /// with 0 for a layer the workload never calls.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let table: Vec<(String, &str)> = if traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        let mut fields = Vec::with_capacity(table.len());
        for (name, unit) in &table {
            let value = match self.get(name) {
                Some(v) => v,
                None if traced => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spechpc::harness::json::{parse_json, Json};

    /// `BENCHMARK.json` (repository root) names exactly these metrics.
    #[test]
    fn benchmark_json_declares_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = parse_json(&text).expect("valid JSON");
        let declared = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::arr)
                .expect("metric list")
                .iter()
                .map(|m| (m.str_of("name").unwrap(), m.str_of("unit").unwrap()))
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            o.set(name, 1.25);
        }
        let line = o.result_line(false).unwrap();
        let v = parse_json(&line).unwrap();
        assert_eq!(v.bool_of("correct"), Some(true));
        assert_eq!(
            v.get("metrics")
                .unwrap()
                .get("peak_rss_mb")
                .unwrap()
                .f64_of("value"),
            Some(1.25)
        );
        o.values.pop();
        assert!(o.result_line(false).is_err());
        let traced = parse_json(&o.result_line(true).unwrap()).unwrap();
        let metrics = traced.get("metrics").unwrap();
        assert_eq!(
            metrics.get("fleet.failovers").unwrap().f64_of("value"),
            Some(0.0)
        );
    }
}
