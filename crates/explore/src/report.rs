//! Sweep reporting: aggregation into configuration points, Pareto-frontier
//! extraction (total-energy saving vs CPI), and CSV/JSON export.
//!
//! Exports are energy-model aware: with a dynamic-only model (every leakage
//! weight zero, e.g. [`sigcomp::ProcessNode::Paper180nm`]) the emitted bytes
//! are exactly the paper-era format; a model with nonzero leakage weights
//! adds `total_energy_saving` and `leakage_saving` columns alongside the
//! dynamic `energy_saving` figure.

use crate::spec::MemProfile;
use crate::sweep::JobOutcome;
use sigcomp::{ActivityReport, EnergyModel, ExtScheme};
use sigcomp_obs::json::{Layout, Writer};
use sigcomp_pipeline::OrgKind;
use sigcomp_workloads::WorkloadSize;
use std::fmt::Write as _;

/// One hardware configuration (scheme × organization × memory × size) with
/// its metrics aggregated over every workload of the sweep, the way the
/// paper reports suite-level numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfigPoint {
    /// Extension-bit scheme.
    pub scheme: ExtScheme,
    /// Pipeline organization.
    pub org: OrgKind,
    /// Memory-hierarchy profile.
    pub mem: MemProfile,
    /// Workload scale.
    pub size: WorkloadSize,
    /// Workloads aggregated into this point.
    pub workloads: u64,
    /// Total retired instructions.
    pub instructions: u64,
    /// Total cycles.
    pub cycles: u64,
    /// Merged activity across the aggregated workloads.
    pub activity: ActivityReport,
}

impl ConfigPoint {
    /// Suite-level cycles per instruction. A point that retired no
    /// instructions (e.g. an aggregation of empty replayed traces) has
    /// *infinite* CPI — not zero, which would let it Pareto-dominate every
    /// real configuration.
    #[must_use]
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            f64::INFINITY
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }

    /// Suite-level fractional total-energy saving under `model` (zero for
    /// the baseline organization, which carries no extension bits). With a
    /// dynamic-only model this is exactly the dynamic saving.
    #[must_use]
    pub fn energy_saving(&self, model: &EnergyModel) -> f64 {
        if self.org == OrgKind::Baseline32 {
            0.0
        } else {
            model.saving(&self.activity)
        }
    }

    /// Fractional saving of the dynamic (switching) term alone — the
    /// paper's number, independent of the model's leakage weights.
    #[must_use]
    pub fn dynamic_energy_saving(&self, model: &EnergyModel) -> f64 {
        if self.org == OrgKind::Baseline32 {
            0.0
        } else {
            model.dynamic_saving(&self.activity)
        }
    }

    /// Fractional saving of the static (leakage) term alone; zero under a
    /// dynamic-only model.
    #[must_use]
    pub fn leakage_saving(&self, model: &EnergyModel) -> f64 {
        if self.org == OrgKind::Baseline32 {
            0.0
        } else {
            model.leakage_saving(&self.activity)
        }
    }

    /// `scheme/org/mem/size` label for reports.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}/{}",
            self.scheme.id(),
            self.org.id(),
            self.mem.id(),
            self.size.name()
        )
    }
}

/// Aggregates per-job outcomes into configuration points, in first-seen
/// (job-enumeration) order — deterministic because the outcome list is.
#[must_use]
pub fn config_points(outcomes: &[JobOutcome]) -> Vec<ConfigPoint> {
    let mut points: Vec<ConfigPoint> = Vec::new();
    for outcome in outcomes {
        let spec = outcome.spec;
        let point = points.iter_mut().find(|p| {
            p.scheme == spec.scheme && p.org == spec.org && p.mem == spec.mem && p.size == spec.size
        });
        let point = if let Some(p) = point {
            p
        } else {
            points.push(ConfigPoint {
                scheme: spec.scheme,
                org: spec.org,
                mem: spec.mem,
                size: spec.size,
                workloads: 0,
                instructions: 0,
                cycles: 0,
                activity: ActivityReport::default(),
            });
            points.last_mut().expect("just pushed")
        };
        point.workloads += 1;
        point.instructions += outcome.metrics.instructions;
        point.cycles += outcome.metrics.cycles;
        point.activity.merge(&outcome.metrics.activity);
    }
    points
}

/// Per-point figures computed once per report: the O(n²) dominance scan and
/// the table/sort paths compare these cached values instead of re-deriving
/// CPI, energy savings and label strings on every comparison.
struct PointMetrics {
    cpi: f64,
    saving: f64,
    dynamic_saving: f64,
    leakage_saving: f64,
    label: String,
}

fn point_metrics(points: &[ConfigPoint], model: &EnergyModel) -> Vec<PointMetrics> {
    points
        .iter()
        .map(|p| PointMetrics {
            cpi: p.cpi(),
            saving: p.energy_saving(model),
            dynamic_saving: p.dynamic_energy_saving(model),
            leakage_saving: p.leakage_saving(model),
            label: p.label(),
        })
        .collect()
}

/// Frontier membership over cached metrics: `true` for every point no other
/// point dominates. Zero-instruction points (infinite CPI) measured nothing
/// and can neither dominate nor join the frontier.
fn frontier_membership(metrics: &[PointMetrics]) -> Vec<bool> {
    metrics
        .iter()
        .map(|p| {
            p.cpi.is_finite()
                && !metrics.iter().any(|q| {
                    q.cpi.is_finite()
                        && q.cpi <= p.cpi
                        && q.saving >= p.saving
                        && (q.cpi < p.cpi || q.saving > p.saving)
                })
        })
        .collect()
}

/// Extracts the Pareto frontier of the energy/performance trade-off: a point
/// survives if no other point has both lower-or-equal CPI and
/// higher-or-equal total-energy saving (with at least one strict). The
/// frontier is returned sorted by CPI ascending. Points that retired no
/// instructions are excluded — an empty replayed trace measures nothing and
/// must not outrank real configurations.
#[must_use]
pub fn pareto_frontier(points: &[ConfigPoint], model: &EnergyModel) -> Vec<ConfigPoint> {
    let metrics = point_metrics(points, model);
    let membership = frontier_membership(&metrics);
    let mut frontier: Vec<usize> = (0..points.len()).filter(|&i| membership[i]).collect();
    frontier.sort_by(|&a, &b| {
        metrics[a]
            .cpi
            .partial_cmp(&metrics[b].cpi)
            .expect("CPI is never NaN")
            .then_with(|| metrics[a].label.cmp(&metrics[b].label))
    });
    frontier.dedup_by(|&mut a, &mut b| metrics[a].label == metrics[b].label);
    frontier.into_iter().map(|i| points[i]).collect()
}

/// Formats the configuration points (frontier members starred) in the same
/// fixed-width style as the paper tables in `sigcomp-bench`. Under a
/// dynamic-only model the columns are exactly the paper-era table; a model
/// with leakage weights adds the total and leakage savings.
#[must_use]
pub fn frontier_table(points: &[ConfigPoint], model: &EnergyModel) -> String {
    let metrics = point_metrics(points, model);
    let membership = frontier_membership(&metrics);
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by(|&a, &b| {
        metrics[a]
            .cpi
            .partial_cmp(&metrics[b].cpi)
            .expect("CPI is never NaN")
            .then_with(|| metrics[a].label.cmp(&metrics[b].label))
    });
    let leaky = model.has_leakage();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Energy/performance frontier ({}-energy saving vs CPI; * = Pareto-optimal)",
        if leaky { "total" } else { "dynamic" }
    );
    if leaky {
        let _ = writeln!(
            out,
            "{:<44} {:>8} {:>15} {:>15} {:>15} {:>9}",
            "configuration", "CPI", "dynamic saving", "leakage saving", "total saving", "frontier"
        );
    } else {
        let _ = writeln!(
            out,
            "{:<44} {:>8} {:>15} {:>9}",
            "configuration", "CPI", "energy saving", "frontier"
        );
    }
    for &i in &order {
        let m = &metrics[i];
        let star = if membership[i] { "*" } else { "" };
        if leaky {
            let _ = writeln!(
                out,
                "{:<44} {:>8.3} {:>14.1}% {:>14.1}% {:>14.1}% {:>9}",
                m.label,
                m.cpi,
                m.dynamic_saving * 100.0,
                m.leakage_saving * 100.0,
                m.saving * 100.0,
                star
            );
        } else {
            let _ = writeln!(
                out,
                "{:<44} {:>8.3} {:>14.1}% {:>9}",
                m.label,
                m.cpi,
                m.saving * 100.0,
                star
            );
        }
    }
    let _ = writeln!(
        out,
        "{} of {} configurations are Pareto-optimal",
        membership.iter().filter(|&&m| m).count(),
        points.len()
    );
    out
}

/// Escapes one CSV field per RFC 4180: fields containing a quote, comma, or
/// line break are wrapped in quotes with embedded quotes doubled; clean
/// fields (every built-in kernel and axis id) pass through byte-identically.
fn csv_field(s: &str) -> String {
    if s.contains(['"', ',', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

/// Serializes per-job outcomes as CSV (header + one row per job), in job
/// order. Numeric formatting is fixed, so equal outcomes give byte-equal
/// files. Workload display names come from user-controlled trace file stems
/// and are RFC 4180-escaped; every other emitted string is a `[a-z0-9/_-]`
/// identifier. A model with leakage weights appends `total_energy_saving`
/// and `leakage_saving` columns; a dynamic-only model reproduces the
/// paper-era format bit for bit.
#[must_use]
pub fn to_csv(outcomes: &[JobOutcome], model: &EnergyModel) -> String {
    let leaky = model.has_leakage();
    let mut out = String::new();
    out.push_str(
        "job_id,workload,size,scheme,org,mem,source,from_cache,instructions,cycles,branches,\
         stall_structural,stall_data_hazard,stall_control,cpi,energy_saving",
    );
    if leaky {
        out.push_str(",total_energy_saving,leakage_saving");
    }
    out.push('\n');
    for o in outcomes {
        let m = &o.metrics;
        let _ = write!(
            out,
            "{:016x},{},{},{},{},{},{},{},{},{},{},{},{},{},{:.6},{:.6}",
            o.spec.job_id(),
            csv_field(o.spec.workload),
            o.spec.size_label(),
            o.spec.scheme.id(),
            o.spec.org.id(),
            o.spec.mem.id(),
            o.spec.source_id(),
            u8::from(o.from_cache),
            m.instructions,
            m.cycles,
            m.branches,
            m.stall_structural,
            m.stall_data_hazard,
            m.stall_control,
            o.cpi(),
            o.dynamic_energy_saving(model),
        );
        if leaky {
            let _ = write!(
                out,
                ",{:.6},{:.6}",
                o.energy_saving(model),
                o.leakage_saving(model)
            );
        }
        out.push('\n');
    }
    out
}

/// Serializes per-job outcomes as a JSON array, in job order, one job per
/// line. Workload display names come from user-controlled trace file stems
/// and are escaped; every other emitted value is a number or a
/// `[a-z0-9/_-]` string. The infinite CPI of a zero-instruction job is
/// `null` (the CSV export prints `inf`; either way a consumer sorting by
/// CPI no longer sees the empty job as fastest). A model with leakage
/// weights appends `total_energy_saving` and `leakage_saving` fields; a
/// dynamic-only model reproduces the paper-era format bit for bit.
#[must_use]
pub fn to_json(outcomes: &[JobOutcome], model: &EnergyModel) -> String {
    let mut out = String::new();
    let mut w = Writer::new(&mut out);
    w.array(Layout::Lines);
    for o in outcomes {
        w.object(Layout::Inline);
        write_job_fields(&mut w, o, model, ("source", o.spec.source_id()));
        w.end();
    }
    w.end();
    out.push('\n');
    out
}

/// Writes one job's identity, counters and derived figures as members of
/// the open object: the fields `repro sweep --json` rows and `/simulate`
/// responses share. `tag` is the one member that differs between them,
/// placed after `mem`: `source` in the export, `energy_model` in
/// `/simulate`.
pub fn write_job_fields(
    w: &mut Writer<'_>,
    o: &JobOutcome,
    model: &EnergyModel,
    tag: (&str, &str),
) {
    let m = &o.metrics;
    w.key("job_id")
        .raw(format_args!("\"{:016x}\"", o.spec.job_id()));
    w.key("workload").str(o.spec.workload);
    w.key("size").str(o.spec.size_label());
    w.key("scheme").str(o.spec.scheme.id());
    w.key("org").str(o.spec.org.id());
    w.key("mem").str(o.spec.mem.id());
    w.key(tag.0).str(tag.1);
    w.key("from_cache").raw(o.from_cache);
    w.key("instructions").raw(m.instructions);
    w.key("cycles").raw(m.cycles);
    w.key("branches").raw(m.branches);
    w.key("stall_structural").raw(m.stall_structural);
    w.key("stall_data_hazard").raw(m.stall_data_hazard);
    w.key("stall_control").raw(m.stall_control);
    w.key("cpi").float(o.cpi(), 6);
    w.key("energy_saving")
        .float(o.dynamic_energy_saving(model), 6);
    if model.has_leakage() {
        w.key("total_energy_saving")
            .float(o.energy_saving(model), 6);
        w.key("leakage_saving").float(o.leakage_saving(model), 6);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::JobSpec;
    use crate::sweep::JobMetrics;
    use sigcomp::{ProcessNode, StageActivity};

    fn outcome(org: OrgKind, workload: &'static str, cycles: u64, saving_bits: u64) -> JobOutcome {
        let activity = ActivityReport {
            alu: StageActivity::with_gating(1000 - saving_bits, 1000, 300, 1000),
            ..ActivityReport::default()
        };
        JobOutcome {
            spec: JobSpec {
                scheme: ExtScheme::ThreeBit,
                org,
                workload,
                size: WorkloadSize::Tiny,
                mem: MemProfile::Paper,
                source: crate::TraceSource::Kernel,
            },
            metrics: JobMetrics {
                instructions: 1000,
                cycles,
                branches: 10,
                stall_structural: 1,
                stall_data_hazard: 2,
                stall_control: 3,
                activity,
            },
            from_cache: false,
        }
    }

    /// An outcome from an empty replayed trace: no instructions, no cycles,
    /// no activity.
    fn empty_outcome(org: OrgKind) -> JobOutcome {
        JobOutcome {
            spec: JobSpec {
                scheme: ExtScheme::ThreeBit,
                org,
                workload: "empty",
                size: WorkloadSize::Default,
                mem: MemProfile::Paper,
                source: crate::TraceSource::File { digest: 0 },
            },
            metrics: JobMetrics::default(),
            from_cache: false,
        }
    }

    #[test]
    fn points_aggregate_workloads_per_configuration() {
        let outcomes = vec![
            outcome(OrgKind::Baseline32, "a", 1100, 300),
            outcome(OrgKind::Baseline32, "b", 1300, 300),
            outcome(OrgKind::ByteSerial, "a", 1900, 300),
        ];
        let points = config_points(&outcomes);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].workloads, 2);
        assert_eq!(points[0].instructions, 2000);
        assert!((points[0].cpi() - 1.2).abs() < 1e-9);
    }

    #[test]
    fn frontier_keeps_only_undominated_points() {
        // baseline: cpi 1.1, saving 0 (by definition).
        // byte-serial: cpi 1.9, saving 30 % — on the frontier.
        // semi-parallel: cpi 1.3, saving 30 % — dominates byte-serial? No:
        // byte-serial has equal saving and worse cpi → byte-serial is off.
        let outcomes = vec![
            outcome(OrgKind::Baseline32, "a", 1100, 300),
            outcome(OrgKind::ByteSerial, "a", 1900, 300),
            outcome(OrgKind::SemiParallel, "a", 1300, 300),
        ];
        let model = EnergyModel::default();
        let frontier = pareto_frontier(&config_points(&outcomes), &model);
        let labels: Vec<String> = frontier.iter().map(ConfigPoint::label).collect();
        assert_eq!(labels.len(), 2, "{labels:?}");
        assert!(labels[0].contains("baseline32"));
        assert!(labels[1].contains("semi-parallel"));

        let table = frontier_table(&config_points(&outcomes), &model);
        assert!(table.contains("Pareto-optimal"));
        assert!(table.contains('*'));
        assert!(table.contains("dynamic-energy saving"));
        assert!(!table.contains("total saving"));
    }

    #[test]
    fn zero_instruction_points_never_dominate_or_join_the_frontier() {
        // Regression: `ConfigPoint::cpi()` used to report 0.0 for a point
        // with no instructions, which Pareto-dominated every real
        // configuration. An empty replayed trace must be excluded instead.
        let outcomes = vec![
            outcome(OrgKind::Baseline32, "a", 1100, 300),
            outcome(OrgKind::SemiParallel, "a", 1300, 300),
            empty_outcome(OrgKind::ByteSerial),
        ];
        let points = config_points(&outcomes);
        let empty = points
            .iter()
            .find(|p| p.instructions == 0)
            .expect("the empty point aggregates");
        assert_eq!(empty.cpi(), f64::INFINITY);

        let model = EnergyModel::default();
        let frontier = pareto_frontier(&points, &model);
        let labels: Vec<String> = frontier.iter().map(ConfigPoint::label).collect();
        assert_eq!(labels.len(), 2, "{labels:?}");
        assert!(labels[0].contains("baseline32"), "{labels:?}");
        assert!(labels[1].contains("semi-parallel"), "{labels:?}");
        assert!(
            !labels.iter().any(|l| l.contains("byte-serial")),
            "an empty point must never reach the frontier: {labels:?}"
        );
        // The real points must survive: the old 0.0-CPI bug made the empty
        // point dominate both of them.
        let table = frontier_table(&points, &model);
        assert!(table.contains("2 of 3 configurations"), "{table}");

        // The per-job exports must not rank the empty job best either: its
        // CPI exports as `null` (JSON has no inf) / `inf` (CSV), never 0.
        let json = to_json(&outcomes, &model);
        assert!(json.contains("\"cpi\": null"), "{json}");
        assert!(!json.contains("\"cpi\": 0.000000"), "{json}");
        let csv = to_csv(&outcomes, &model);
        assert!(csv.contains(",inf,"), "{csv}");
    }

    #[test]
    fn leaky_models_add_columns_and_can_shift_the_frontier() {
        // byte-serial: poor dynamic saving, heavy gating. semi-parallel:
        // better dynamic saving, no gating. Under the dynamic-only model
        // byte-serial is dominated; a leakage-heavy model rewards its gated
        // lanes and pulls it onto the frontier.
        let mut serial = outcome(OrgKind::ByteSerial, "a", 1900, 100);
        serial.metrics.activity.alu = StageActivity::with_gating(900, 1000, 900, 1000);
        let mut semi = outcome(OrgKind::SemiParallel, "a", 1300, 300);
        semi.metrics.activity.alu = StageActivity::with_gating(700, 1000, 0, 1000);
        let outcomes = vec![outcome(OrgKind::Baseline32, "a", 1100, 0), serial, semi];
        let points = config_points(&outcomes);

        let dynamic_only = ProcessNode::Paper180nm.model();
        let leaky = ProcessNode::Modern7nm.model();
        let dyn_labels: Vec<String> = pareto_frontier(&points, &dynamic_only)
            .iter()
            .map(ConfigPoint::label)
            .collect();
        let leaky_labels: Vec<String> = pareto_frontier(&points, &leaky)
            .iter()
            .map(ConfigPoint::label)
            .collect();
        assert!(!dyn_labels.iter().any(|l| l.contains("byte-serial")));
        assert!(
            leaky_labels.iter().any(|l| l.contains("byte-serial")),
            "{leaky_labels:?}"
        );

        let table = frontier_table(&points, &leaky);
        assert!(table.contains("total-energy saving"), "{table}");
        assert!(table.contains("leakage saving"), "{table}");

        let csv = to_csv(&outcomes, &leaky);
        assert!(csv
            .lines()
            .next()
            .unwrap()
            .ends_with("energy_saving,total_energy_saving,leakage_saving"));
        let json = to_json(&outcomes, &leaky);
        assert!(json.contains("\"total_energy_saving\": "));
        assert!(json.contains("\"leakage_saving\": "));
    }

    #[test]
    fn zero_leakage_exports_are_bit_identical_to_the_dynamic_only_format() {
        let outcomes = vec![
            outcome(OrgKind::Baseline32, "a", 1100, 300),
            outcome(OrgKind::ByteSerial, "a", 1900, 300),
        ];
        let default = EnergyModel::default();
        let paper = ProcessNode::Paper180nm.model();
        assert_eq!(to_csv(&outcomes, &default), to_csv(&outcomes, &paper));
        assert_eq!(to_json(&outcomes, &default), to_json(&outcomes, &paper));
        assert!(!to_csv(&outcomes, &paper).contains("total_energy_saving"));
        assert!(!to_json(&outcomes, &paper).contains("total_energy_saving"));
        let points = config_points(&outcomes);
        assert_eq!(
            frontier_table(&points, &default),
            frontier_table(&points, &paper)
        );
    }

    #[test]
    fn csv_and_json_are_deterministic() {
        let outcomes = vec![
            outcome(OrgKind::Baseline32, "a", 1100, 300),
            outcome(OrgKind::ByteSerial, "a", 1900, 300),
        ];
        let model = EnergyModel::default();
        let csv = to_csv(&outcomes, &model);
        assert_eq!(csv, to_csv(&outcomes, &model));
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.lines().nth(1).unwrap().contains("baseline32"));
        let json = to_json(&outcomes, &model);
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert_eq!(json.matches("\"workload\"").count(), 2);
    }

    #[test]
    fn hostile_workload_names_are_escaped_in_csv_and_json() {
        // Trace display names come from user-controlled file stems: a stem
        // with quotes, commas or newlines must not corrupt the export
        // structure. (The name is &'static str; leak to build one, exactly
        // as spec interning does.)
        let nasty: &'static str = Box::leak("evil\",\ntrace,\"name\tx".to_owned().into_boxed_str());
        let mut o = outcome(OrgKind::ByteSerial, "placeholder", 1900, 300);
        o.spec.workload = nasty;
        o.spec.source = crate::TraceSource::File { digest: 7 };
        let outcomes = vec![o];
        let model = EnergyModel::default();

        let csv = to_csv(&outcomes, &model);
        // Header + exactly one record: the embedded newline must be quoted,
        // not a row break — so unquoting field 2 restores the raw name.
        let body = &csv[csv.find('\n').unwrap() + 1..];
        let quoted_start = body.find('"').expect("hostile field is quoted");
        let mut rest = &body[quoted_start + 1..];
        let mut recovered = String::new();
        loop {
            let q = rest.find('"').expect("quoted field terminates");
            recovered.push_str(&rest[..q]);
            if rest[q + 1..].starts_with('"') {
                recovered.push('"');
                rest = &rest[q + 2..];
            } else {
                break;
            }
        }
        assert_eq!(recovered, nasty);
        // Every other comma-separated field stays intact around it.
        assert!(body.starts_with(&format!("{:016x},", outcomes[0].spec.job_id())));
        assert!(body.contains(",trace,")); // the size/source columns survive

        let json = to_json(&outcomes, &model);
        // The document must stay parseable; round-trip the name through the
        // serve-side JSON parser idiom: find the workload field and check
        // the escapes are present.
        assert!(json.contains("evil\\\",\\ntrace,\\\"name\\tx"), "{json}");
        assert_eq!(json.matches("\"workload\"").count(), 1);
    }
}
