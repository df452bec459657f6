//! SARIF 2.1.0 emitter, so CI can annotate pull requests with
//! analyzer findings.
//!
//! Only the minimal subset of the (large) SARIF schema is produced:
//! one run, one tool driver with the rule catalogue, one result per
//! finding with a physical location. Like the `miv-findings-v2` JSON,
//! the output is deterministic — fixed field order, rules sorted by
//! id, no timestamps, workspace-relative URIs — so two runs over the
//! same tree are byte-identical (CI `cmp`s them).

use miv_obs::json::JsonValue;

use crate::engine::WorkspaceReport;
use crate::rules::CATALOGUE;

/// Renders the workspace report as a SARIF 2.1.0 log.
pub fn sarif_json(report: &WorkspaceReport) -> JsonValue {
    let mut driver = JsonValue::obj();
    driver.push("name", "miv-analyze");
    driver.push("informationUri", "https://example.invalid/miv-analyze");
    driver.push("version", "2.0.0");

    let mut sorted: Vec<&crate::rules::Rule> = CATALOGUE.iter().collect();
    sorted.sort_by_key(|r| r.id);
    let mut rules = Vec::new();
    for rule in sorted {
        let mut short = JsonValue::obj();
        short.push("text", rule.summary);
        let mut r = JsonValue::obj();
        r.push("id", rule.id);
        r.push("shortDescription", short);
        rules.push(r);
    }
    driver.push("rules", JsonValue::Array(rules));

    let mut tool = JsonValue::obj();
    tool.push("driver", driver);

    let mut results = Vec::new();
    for f in &report.findings {
        let mut message = JsonValue::obj();
        message.push("text", f.message.as_str());

        let mut artifact = JsonValue::obj();
        artifact.push("uri", f.path.as_str());
        let mut region = JsonValue::obj();
        region.push("startLine", f.line as u64);
        region.push("startColumn", f.col as u64);
        let mut physical = JsonValue::obj();
        physical.push("artifactLocation", artifact);
        physical.push("region", region);
        let mut location = JsonValue::obj();
        location.push("physicalLocation", physical);

        let mut result = JsonValue::obj();
        result.push("ruleId", f.rule.as_str());
        result.push("level", "error");
        result.push("message", message);
        result.push("locations", JsonValue::Array(vec![location]));
        results.push(result);
    }

    let mut run = JsonValue::obj();
    run.push("tool", tool);
    run.push("results", JsonValue::Array(results));

    let mut root = JsonValue::obj();
    root.push("$schema", "https://json.schemastore.org/sarif-2.1.0.json");
    root.push("version", "2.1.0");
    root.push("runs", JsonValue::Array(vec![run]));
    root
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Finding;

    #[test]
    fn sarif_is_deterministic_and_minimal() {
        let mut report = WorkspaceReport::default();
        report.findings.push(Finding {
            rule: "span-balance".to_string(),
            path: "crates/x/src/lib.rs".to_string(),
            line: 3,
            col: 9,
            message: "m".to_string(),
            snippet: "s".to_string(),
        });
        let a = sarif_json(&report).render_pretty();
        let b = sarif_json(&report).render_pretty();
        assert_eq!(a, b);
        assert!(a.contains("\"version\": \"2.1.0\""));
        assert!(a.contains("span-balance"));
        assert!(a.contains("startLine"));
    }
}
