//! `BENCHMARK.json`: reading it and checking it against the benchmark
//! contract, so the runner prints exactly the metrics the file declares.

use crate::json::Json;

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// The metric's name.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// `"higher"` or `"lower"`.
    pub better: String,
    /// Allowed relative worsening (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the runner uses.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// Metrics of an untraced run.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics of a traced run.
    pub per_layer: Vec<MetricSpec>,
}

const TOP_KEYS: [&str; 6] = [
    "command",
    "paths",
    "run_seconds",
    "workloads",
    "end_to_end",
    "per_layer",
];

/// Whether `name` is a valid metric or workload name: a letter or digit
/// first, then at most 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1–16 letters, digits, `_`, `/`, `%`,
/// `.` or `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn valid_path(path: &str) -> bool {
    !path.is_empty()
        && path.len() <= 200
        && !path.starts_with('/')
        && path.split('/').all(|part| part != "..")
        && path
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-' | '/'))
}

impl Spec {
    /// Parses and checks a `BENCHMARK.json` document.
    pub fn parse(text: &str) -> Result<Spec, String> {
        if text.len() > 64 * 1024 {
            return Err("BENCHMARK.json is larger than 64 KiB".into());
        }
        let doc = Json::parse(text)?;
        let keys = doc.keys();
        if keys.len() != TOP_KEYS.len() || TOP_KEYS.iter().any(|k| !keys.contains(k)) {
            return Err(format!(
                "top-level keys must be exactly {TOP_KEYS:?}, got {keys:?}"
            ));
        }

        let command = doc
            .get("command")
            .and_then(Json::as_array)
            .ok_or("command")?;
        if command.is_empty() || command.len() > 32 {
            return Err("command must hold 1 to 32 strings".into());
        }
        for part in command {
            let part = part.as_str().ok_or("command entries must be strings")?;
            if part.len() > 200 || part.starts_with('/') || part.split('/').any(|p| p == "..") {
                return Err(format!("command entry `{part}` breaks the contract"));
            }
        }
        let paths = doc.get("paths").and_then(Json::as_array).ok_or("paths")?;
        if paths.is_empty() || paths.len() > 16 {
            return Err("paths must hold 1 to 16 directories".into());
        }
        for path in paths {
            let path = path.as_str().ok_or("paths must be strings")?;
            if !valid_path(path) {
                return Err(format!("path `{path}` breaks the contract"));
            }
        }

        let run_seconds =
            doc.get("run_seconds")
                .and_then(Json::as_f64)
                .filter(|s| s.fract() == 0.0 && (1.0..=60.0).contains(s))
                .ok_or("run_seconds must be a whole number from 1 to 60")? as u64;

        let workloads = doc
            .get("workloads")
            .and_then(Json::as_array)
            .ok_or("workloads")?;
        if !(2..=8).contains(&workloads.len()) {
            return Err("there must be 2 to 8 workloads".into());
        }
        let mut names: Vec<String> = Vec::new();
        for workload in workloads {
            if workload.keys() != ["name", "why"] {
                return Err("a workload has exactly `name` and `why`".into());
            }
            let name = workload
                .get("name")
                .and_then(Json::as_str)
                .ok_or("workload name")?;
            let why = workload
                .get("why")
                .and_then(Json::as_str)
                .ok_or("workload why")?;
            if !valid_name(name) || why.is_empty() || why.len() > 200 || why.contains('\n') {
                return Err(format!("workload `{name}` breaks the contract"));
            }
            names.push(name.to_string());
        }

        let end_to_end = Self::metrics(&doc, "end_to_end", 16, true)?;
        let per_layer = Self::metrics(&doc, "per_layer", 128, false)?;
        let setup = end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .ok_or("end_to_end must include setup_s")?;
        if setup.unit != "s" || setup.better != "lower" {
            return Err("setup_s is in `s` and lower is better".into());
        }
        for metric in end_to_end.iter().chain(&per_layer) {
            names.push(metric.name.clone());
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        if sorted.len() != names.len() {
            return Err("every name is used once".into());
        }

        Ok(Spec {
            run_seconds,
            workloads: workloads
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(String::from))
                .collect(),
            end_to_end,
            per_layer,
        })
    }

    fn metrics(
        doc: &Json,
        key: &str,
        max: usize,
        bounded: bool,
    ) -> Result<Vec<MetricSpec>, String> {
        let list = doc.get(key).and_then(Json::as_array).ok_or(key)?;
        if list.is_empty() || list.len() > max {
            return Err(format!("{key} must hold 1 to {max} metrics"));
        }
        let expected: &[&str] = if bounded {
            &["name", "unit", "better", "bound"]
        } else {
            &["name", "unit", "better"]
        };
        list.iter()
            .map(|metric| {
                if metric.keys() != expected {
                    return Err(format!("{key} entries have exactly the keys {expected:?}"));
                }
                let field = |k: &str| metric.get(k).and_then(Json::as_str).unwrap_or_default();
                let spec = MetricSpec {
                    name: field("name").to_string(),
                    unit: field("unit").to_string(),
                    better: field("better").to_string(),
                    bound: metric.get("bound").and_then(Json::as_f64),
                };
                let bound_ok = match spec.bound {
                    Some(bound) => bounded && bound > 0.0 && bound <= 0.25,
                    None => !bounded,
                };
                if !valid_name(&spec.name)
                    || !valid_unit(&spec.unit)
                    || !matches!(spec.better.as_str(), "higher" | "lower")
                    || !bound_ok
                {
                    return Err(format!("metric `{}` breaks the contract", spec.name));
                }
                Ok(spec)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    #[test]
    fn metric_names_are_validated() {
        for good in [
            "allocations_per_s",
            "sim.route.ns_per_query",
            "p-99",
            "9lives",
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in [
            "",
            ".hidden",
            "_x",
            "a b",
            "a/b",
            "é",
            "a:b",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("ns"));
        assert!(!valid_unit("") && !valid_unit("a b") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn benchmark_json_round_trips_and_meets_the_contract() {
        let text = benchmark_json();
        let doc = Json::parse(&text).unwrap();
        let rendered = doc.render();
        assert_eq!(Json::parse(&rendered).unwrap(), doc);
        let spec = Spec::parse(&text).unwrap();
        assert_eq!(Spec::parse(&rendered).unwrap(), spec);
        assert_eq!(spec.workloads, crate::workloads::NAMES);
    }

    #[test]
    fn contract_breaches_are_refused() {
        let text = benchmark_json();
        let breaches = [
            ("\"run_seconds\": 20", "\"run_seconds\": 61"),
            ("\"bound\": 0.25", "\"bound\": 0.5"),
            ("\"setup_s\"", "\"setup.s\""),
            ("\"paths\": [", "\"paths\": [\"../up\", "),
            ("\"name\": \"paper-k1\"", "\"name\": \"_paper\""),
        ];
        for (from, to) in breaches {
            assert!(text.contains(from), "BENCHMARK.json no longer has {from}");
            let broken = text.replacen(from, to, 1);
            assert!(Spec::parse(&broken).is_err(), "accepted {to}");
        }
    }
}
