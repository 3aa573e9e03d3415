//! The metric lists. `BENCHMARK.json` at the repo root is the one place
//! that names every metric with its unit, its direction and (end to end)
//! its bound; a run reads the lists from it to know what to print, and
//! `check` reads the bounds from it.

use std::fs;
use std::path::Path;

use crate::json::Json;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// End-to-end metrics only: the share of the baseline's median by
    /// which the metric may worsen before `check` says `worse`.
    pub bound: Option<f64>,
}

/// What `BENCHMARK.json` lists.
#[derive(Debug)]
pub struct Contract {
    /// Measured with `--trace 0`.
    pub end_to_end: Vec<Metric>,
    /// Measured with `--trace 1`: these explain a movement, they do not
    /// gate one.
    pub per_layer: Vec<Metric>,
}

fn metric(m: &Json, bounded: bool) -> Result<Metric, String> {
    let text = |field: &str| {
        m.get(field)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("a metric without {field}: {m:?}"))
    };
    let name = text("name")?.to_string();
    let better = match text("better")? {
        "lower" => Better::Lower,
        "higher" => Better::Higher,
        other => return Err(format!("{name}: better = {other:?}")),
    };
    let bound = m.get("bound").and_then(Json::as_f64);
    if bounded != bound.is_some() {
        return Err(format!("{name}: bound = {bound:?}"));
    }
    Ok(Metric {
        name,
        unit: text("unit")?.to_string(),
        better,
        bound,
    })
}

impl Contract {
    pub fn load(benchmark_json: &Path) -> Result<Contract, String> {
        let text = fs::read_to_string(benchmark_json)
            .map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
        Contract::parse(&text)
    }

    pub fn parse(text: &str) -> Result<Contract, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str, bounded: bool| -> Result<Vec<Metric>, String> {
            let listed = doc
                .get(key)
                .ok_or_else(|| format!("BENCHMARK.json has no {key}"))?;
            listed.as_arr().iter().map(|m| metric(m, bounded)).collect()
        };
        Ok(Contract {
            end_to_end: list("end_to_end", true)?,
            per_layer: list("per_layer", false)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_contract_at_the_repo_root_loads() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let c = Contract::load(&path).expect("BENCHMARK.json loads");
        assert!(c.end_to_end.iter().any(|m| m.name == "setup_s"));
        assert!(c
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(!c.per_layer.is_empty());
    }

    #[test]
    fn a_malformed_metric_is_refused() {
        let doc = r#"{"end_to_end": [{"name": "x", "unit": "s", "better": "sideways", "bound": 0.1}], "per_layer": []}"#;
        assert!(Contract::parse(doc).is_err());
        let doc =
            r#"{"end_to_end": [{"name": "x", "unit": "s", "better": "lower"}], "per_layer": []}"#;
        assert!(Contract::parse(doc).is_err());
    }
}
