//! Wire formats: decoding request bodies into job and sweep specifications,
//! and encoding result documents.
//!
//! Decoding is strict — unknown fields, unknown axis values and
//! wrongly-typed values are all rejected with a message naming the culprit —
//! so a typo in a client request becomes a 400 with an explanation instead
//! of a silently-default simulation. Everything a spec needs is validated
//! here, which is what lets the batcher promise its simulation calls cannot
//! panic on bad input.
//!
//! These codecs also run on the server's hottest path: the reactor decodes
//! `/simulate` bodies *inline on its event-loop workers* to answer memoized
//! repeats without a thread handoff, so everything in this module must stay
//! pure string work — no I/O, no locks, no unbounded recursion.

use crate::batch::BatchedResult;
use sigcomp::{ExtScheme, ProcessNode};
use sigcomp_explore::{
    column_slug, config_points, pareto_frontier, to_json, write_job_fields, JobOutcome, JobSpec,
    MemProfile, SweepSpec,
};
use sigcomp_obs::json::{Json, Layout, Writer};
use sigcomp_pipeline::OrgKind;
use sigcomp_workloads::{suite_names, WorkloadSize};

/// Decodes a `POST /simulate` body into a [`JobSpec`] plus the process-node
/// energy model the response should be evaluated under.
///
/// Only `workload` is required; the remaining axes default to the paper's
/// flagship configuration (`scheme` `3bit`, `org` `byte-serial`, `mem`
/// `paper`, `size` `default`, `energy_model` `paper-180nm` — the dynamic-
/// only accounting). The energy model is pure post-processing: it changes
/// the derived savings figures in the response, never the simulation (or
/// its cache identity).
///
/// # Errors
///
/// A human-readable message naming the offending field or value.
pub fn job_spec_from_json(doc: &Json) -> Result<(JobSpec, ProcessNode), String> {
    if !matches!(doc, Json::Obj(_)) {
        return Err("request body must be a JSON object".to_owned());
    }
    check_fields(
        doc,
        &["workload", "size", "scheme", "org", "mem", "energy_model"],
    )?;
    let workload = required_str(doc, "workload")?;
    let workload = resolve_workload(workload)?;
    let node = parse_energy_model(doc)?;
    let spec = JobSpec {
        scheme: parse_field(doc, "scheme", "3bit", ExtScheme::parse, "extension scheme")?,
        org: parse_field(doc, "org", "byte-serial", OrgKind::parse, "organization")?,
        workload,
        size: parse_field(doc, "size", "default", WorkloadSize::parse, "workload size")?,
        mem: parse_field(doc, "mem", "paper", MemProfile::parse, "memory profile")?,
        // The HTTP surface names built-in kernels only; recorded traces are
        // a CLI/sweep axis (they would need an upload channel here).
        source: sigcomp_explore::TraceSource::Kernel,
    };
    Ok((spec, node))
}

fn parse_energy_model(doc: &Json) -> Result<ProcessNode, String> {
    parse_field(
        doc,
        "energy_model",
        ProcessNode::Paper180nm.id(),
        ProcessNode::parse,
        "energy model",
    )
    .map_err(|e| {
        if e.starts_with("unknown energy model") {
            let known: Vec<&str> = ProcessNode::ALL.iter().map(|n| n.id()).collect();
            format!("{e} (known: {})", known.join(", "))
        } else {
            e
        }
    })
}

/// Decodes a `POST /sweep` body into a [`SweepSpec`] plus the `sync` flag.
///
/// Every axis is an optional array of strings; the defaults are the paper's
/// primary slice (scheme `3bit`, every organization, the full workload
/// suite, size `default`, the paper memory hierarchy). An optional
/// `energy_model` string selects the process-node preset the result's
/// frontier and savings are evaluated under (default `paper-180nm`; pure
/// post-processing, so it never changes which jobs run or their cache
/// identities). `"sync": true` asks for the result inline instead of a poll
/// ticket.
///
/// # Errors
///
/// A human-readable message naming the offending field or value.
pub fn sweep_spec_from_json(doc: &Json) -> Result<(SweepSpec, bool), String> {
    if !matches!(doc, Json::Obj(_)) {
        return Err("request body must be a JSON object".to_owned());
    }
    check_fields(
        doc,
        &[
            "workloads",
            "schemes",
            "orgs",
            "mems",
            "sizes",
            "energy_model",
            "sync",
        ],
    )?;
    let mut spec = SweepSpec::paper(WorkloadSize::Default);
    spec = spec.energy_models(&[parse_energy_model(doc)?]);
    if let Some(items) = axis_items(doc, "schemes")? {
        spec = spec.schemes(&parse_axis(&items, ExtScheme::parse, "extension scheme")?);
    }
    if let Some(items) = axis_items(doc, "orgs")? {
        spec = spec.orgs(&parse_axis(&items, OrgKind::parse, "organization")?);
    }
    if let Some(items) = axis_items(doc, "mems")? {
        spec = spec.mems(&parse_axis(&items, MemProfile::parse, "memory profile")?);
    }
    if let Some(items) = axis_items(doc, "sizes")? {
        spec = spec.sizes(&parse_axis(&items, WorkloadSize::parse, "workload size")?);
    }
    if let Some(items) = axis_items(doc, "workloads")? {
        let resolved: Vec<&'static str> = items
            .iter()
            .map(|name| resolve_workload(name))
            .collect::<Result<_, _>>()?;
        spec = spec.workloads(&resolved);
    }
    if spec.is_empty() {
        return Err("the requested design space is empty".to_owned());
    }
    let sync = match doc.get("sync") {
        None => false,
        Some(v) => v
            .as_bool()
            .ok_or_else(|| "field 'sync' must be a boolean".to_owned())?,
    };
    Ok((spec, sync))
}

/// Encodes a `POST /simulate` response: the job's identity, every integer
/// counter, the derived CPI/energy-saving figures under the requested
/// energy model (named in `energy_model`; a leaky preset adds
/// `total_energy_saving` and `leakage_saving`), and the per-stage activity
/// including the gated-byte-cycle occupancy — bit-exact integers
/// throughout, so clients can compare responses across replicas.
#[must_use]
pub fn simulate_response(spec: &JobSpec, result: &BatchedResult, node: ProcessNode) -> String {
    let outcome = JobOutcome {
        spec: *spec,
        metrics: result.metrics,
        from_cache: result.from_cache,
    };
    let mut out = String::with_capacity(1024);
    let mut w = Writer::new(&mut out);
    w.object(Layout::Inline);
    write_job_fields(&mut w, &outcome, &node.model(), ("energy_model", node.id()));
    w.key("activity").object(Layout::Inline);
    for (name, stage) in result.metrics.activity.columns() {
        w.key(&column_slug(name)).object(Layout::Inline);
        w.key("compressed").raw(stage.compressed_bits);
        w.key("baseline").raw(stage.baseline_bits);
        w.key("gated_byte_cycles").raw(stage.gated_byte_cycles);
        w.key("total_byte_cycles").raw(stage.total_byte_cycles);
        w.end();
    }
    w.end().end();
    out.push('\n');
    out
}

/// Encodes a finished sweep: job count, cache statistics, the energy model
/// the figures were evaluated under, the Pareto frontier labels, and the
/// full per-job outcome array (the same document `repro sweep --json`
/// writes).
#[must_use]
pub fn sweep_result_json(outcomes: &[JobOutcome], node: ProcessNode) -> String {
    let model = node.model();
    let served_from_cache = outcomes.iter().filter(|o| o.from_cache).count();
    let points = config_points(outcomes);
    let mut out = String::new();
    let mut w = Writer::new(&mut out);
    w.object(Layout::Inline);
    w.key("status").str("done").key("jobs").raw(outcomes.len());
    w.key("served_from_cache").raw(served_from_cache);
    w.key("energy_model").str(node.id());
    w.key("frontier").array(Layout::Inline);
    for point in pareto_frontier(&points, &model) {
        w.str(&point.label());
    }
    w.end();
    w.key("outcomes").raw(to_json(outcomes, &model).trim_end());
    w.end();
    out.push('\n');
    out
}

fn check_fields(doc: &Json, allowed: &[&str]) -> Result<(), String> {
    for key in doc.keys() {
        if !allowed.contains(&key) {
            return Err(format!(
                "unknown field '{key}' (expected one of: {})",
                allowed.join(", ")
            ));
        }
    }
    Ok(())
}

fn required_str<'a>(doc: &'a Json, field: &str) -> Result<&'a str, String> {
    doc.get(field)
        .ok_or_else(|| format!("missing required field '{field}'"))?
        .as_str()
        .ok_or_else(|| format!("field '{field}' must be a string"))
}

fn resolve_workload(name: &str) -> Result<&'static str, String> {
    suite_names()
        .iter()
        .find(|&&n| n == name)
        .copied()
        .ok_or_else(|| {
            format!(
                "unknown workload '{name}' (known: {})",
                suite_names().join(", ")
            )
        })
}

fn parse_field<T>(
    doc: &Json,
    field: &str,
    default: &str,
    parse: impl Fn(&str) -> Option<T>,
    what: &str,
) -> Result<T, String> {
    let value = match doc.get(field) {
        None => default,
        Some(v) => v
            .as_str()
            .ok_or_else(|| format!("field '{field}' must be a string"))?,
    };
    parse(value).ok_or_else(|| format!("unknown {what} '{value}'"))
}

fn axis_items<'a>(doc: &'a Json, field: &str) -> Result<Option<Vec<&'a str>>, String> {
    match doc.get(field) {
        None => Ok(None),
        Some(v) => v
            .str_items()
            .map(Some)
            .ok_or_else(|| format!("field '{field}' must be an array of strings")),
    }
}

fn parse_axis<T>(
    items: &[&str],
    parse: impl Fn(&str) -> Option<T>,
    what: &str,
) -> Result<Vec<T>, String> {
    items
        .iter()
        .map(|&item| parse(item).ok_or_else(|| format!("unknown {what} '{item}'")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigcomp_explore::JobMetrics;

    #[test]
    fn job_spec_defaults_and_overrides() {
        let doc = Json::parse(r#"{"workload": "rawcaudio"}"#).unwrap();
        let (spec, node) = job_spec_from_json(&doc).unwrap();
        assert_eq!(spec.workload, "rawcaudio");
        assert_eq!(spec.scheme, ExtScheme::ThreeBit);
        assert_eq!(spec.org, OrgKind::ByteSerial);
        assert_eq!(spec.size, WorkloadSize::Default);
        assert_eq!(spec.mem, MemProfile::Paper);
        assert_eq!(node, ProcessNode::Paper180nm);

        let doc = Json::parse(
            r#"{"workload": "pgp", "size": "tiny", "scheme": "halfword",
                "org": "baseline32", "mem": "slow-memory",
                "energy_model": "modern-7nm"}"#,
        )
        .unwrap();
        let (spec, node) = job_spec_from_json(&doc).unwrap();
        assert_eq!(spec.scheme, ExtScheme::Halfword);
        assert_eq!(spec.org, OrgKind::Baseline32);
        assert_eq!(spec.size, WorkloadSize::Tiny);
        assert_eq!(spec.mem, MemProfile::SlowMemory);
        assert_eq!(node, ProcessNode::Modern7nm);
    }

    #[test]
    fn job_spec_rejects_bad_input_with_named_culprits() {
        for (body, needle) in [
            (r"[1]", "must be a JSON object"),
            (r"{}", "missing required field 'workload'"),
            (r#"{"workload": 3}"#, "field 'workload' must be a string"),
            (r#"{"workload": "nope"}"#, "unknown workload 'nope'"),
            (
                r#"{"workload": "pgp", "org": "x"}"#,
                "unknown organization 'x'",
            ),
            (r#"{"workload": "pgp", "typo": 1}"#, "unknown field 'typo'"),
            (
                r#"{"workload": "pgp", "size": "huge"}"#,
                "unknown workload size 'huge'",
            ),
            (
                r#"{"workload": "pgp", "energy_model": "3nm"}"#,
                "unknown energy model '3nm' (known: paper-180nm, generic-45nm, modern-7nm)",
            ),
            (
                r#"{"workload": "pgp", "energy_model": 7}"#,
                "field 'energy_model' must be a string",
            ),
        ] {
            let doc = Json::parse(body).unwrap();
            let err = job_spec_from_json(&doc).unwrap_err();
            assert!(err.contains(needle), "{body}: {err}");
        }
    }

    #[test]
    fn sweep_spec_defaults_to_the_paper_slice() {
        let doc = Json::parse(r"{}").unwrap();
        let (spec, sync) = sweep_spec_from_json(&doc).unwrap();
        assert!(!sync);
        assert_eq!(spec.len(), OrgKind::ALL.len() * suite_names().len());
        assert_eq!(spec.energy_model_axis(), &[ProcessNode::Paper180nm]);
    }

    #[test]
    fn sweep_spec_carries_the_requested_energy_model_without_multiplying_jobs() {
        let doc = Json::parse(
            r#"{"workloads": ["rawcaudio"], "orgs": ["baseline32"],
                "energy_model": "generic-45nm"}"#,
        )
        .unwrap();
        let (spec, _) = sweep_spec_from_json(&doc).unwrap();
        assert_eq!(spec.energy_model_axis(), &[ProcessNode::Generic45nm]);
        assert_eq!(spec.len(), 1, "the model axis must not multiply jobs");

        let doc = Json::parse(r#"{"energy_model": "3nm"}"#).unwrap();
        let err = sweep_spec_from_json(&doc).unwrap_err();
        assert!(err.contains("unknown energy model '3nm'"), "{err}");
    }

    #[test]
    fn sweep_spec_applies_every_axis() {
        let doc = Json::parse(
            r#"{"workloads": ["rawcaudio", "pgp"], "schemes": ["2bit", "3bit"],
                "orgs": ["baseline32"], "mems": ["paper", "wide-l2"],
                "sizes": ["tiny"], "sync": true}"#,
        )
        .unwrap();
        let (spec, sync) = sweep_spec_from_json(&doc).unwrap();
        assert!(sync);
        // 2 workloads × 2 schemes × 1 org × 2 mems × 1 size.
        assert_eq!(spec.len(), 8);
    }

    #[test]
    fn sweep_spec_rejects_bad_axes() {
        for (body, needle) in [
            (r#"{"orgs": "baseline32"}"#, "must be an array of strings"),
            (r#"{"orgs": ["warp-drive"]}"#, "unknown organization"),
            (r#"{"workloads": []}"#, "design space is empty"),
            (r#"{"sync": "yes"}"#, "must be a boolean"),
            (r#"{"size": ["tiny"]}"#, "unknown field 'size'"),
        ] {
            let doc = Json::parse(body).unwrap();
            let err = sweep_spec_from_json(&doc).unwrap_err();
            assert!(err.contains(needle), "{body}: {err}");
        }
    }

    #[test]
    fn responses_are_valid_json() {
        let doc = Json::parse(r#"{"workload": "rawcaudio", "size": "tiny"}"#).unwrap();
        let (spec, node) = job_spec_from_json(&doc).unwrap();
        let result = BatchedResult {
            metrics: JobMetrics {
                instructions: 10,
                cycles: 17,
                ..JobMetrics::default()
            },
            from_cache: false,
        };
        let body = simulate_response(&spec, &result, node);
        let parsed = Json::parse(&body).unwrap();
        assert_eq!(parsed.get("cycles").and_then(Json::as_u64), Some(17));
        assert_eq!(parsed.get("from_cache"), Some(&Json::Bool(false)));
        assert_eq!(
            parsed.get("energy_model").and_then(Json::as_str),
            Some("paper-180nm")
        );
        // The dynamic-only preset carries no leakage figures.
        assert_eq!(parsed.get("total_energy_saving"), None);
        let fetch = parsed.get("activity").and_then(|a| a.get("fetch")).unwrap();
        assert!(fetch.get("gated_byte_cycles").is_some());
        assert!(fetch.get("total_byte_cycles").is_some());

        let outcome = JobOutcome {
            spec,
            metrics: result.metrics,
            from_cache: true,
        };
        let body = sweep_result_json(&[outcome], node);
        let parsed = Json::parse(&body).unwrap();
        assert_eq!(parsed.get("jobs").and_then(Json::as_u64), Some(1));
        assert_eq!(
            parsed.get("served_from_cache").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            parsed.get("energy_model").and_then(Json::as_str),
            Some("paper-180nm")
        );
        assert_eq!(
            parsed
                .get("outcomes")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(1)
        );
    }

    #[test]
    fn leaky_presets_add_savings_fields_to_simulate_responses() {
        let doc = Json::parse(
            r#"{"workload": "rawcaudio", "size": "tiny", "energy_model": "modern-7nm"}"#,
        )
        .unwrap();
        let (spec, node) = job_spec_from_json(&doc).unwrap();
        assert_eq!(node, ProcessNode::Modern7nm);
        let result = BatchedResult {
            metrics: JobMetrics {
                instructions: 10,
                cycles: 17,
                ..JobMetrics::default()
            },
            from_cache: false,
        };
        let body = simulate_response(&spec, &result, node);
        let parsed = Json::parse(&body).unwrap();
        assert_eq!(
            parsed.get("energy_model").and_then(Json::as_str),
            Some("modern-7nm")
        );
        assert!(parsed.get("total_energy_saving").is_some());
        assert!(parsed.get("leakage_saving").is_some());
    }
}
