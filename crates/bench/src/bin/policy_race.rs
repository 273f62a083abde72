//! `policy_race` — race the data-plane routing policies and the
//! traffic-aware wiring, emitting the deterministic `egoist-traffic/v1`
//! report.
//!
//! Three scenarios, all driven through `egoist_traffic::sweep_offered`
//! (the same code path `traffic_workloads --sweep` uses):
//!
//! * `uniform_knee` — offered-load sweep, spf vs backpressure vs
//!   delay-aware on a uniform workload. Verdict: at the highest offered
//!   load, backpressure delivers strictly more than shortest-path —
//!   differential-backlog forwarding finds the capacity path-committed
//!   routing leaves on the table (arXiv:1612.05537).
//! * `saturated_link` — a hot-spot gravity workload far past the knee,
//!   delay-aware with hysteresis vs the same policy with hysteresis
//!   disabled. Verdict: the hysteretic run's route-change count stays
//!   under both the flap budget and the hysteresis-free count
//!   (arXiv:1403.3488).
//! * `wiring_race` — plain BR wiring vs demand-blended BR
//!   (`PolicyKind::TrafficAware`), same closed-loop workload. Verdict:
//!   wiring toward the observed demand matrix keeps delivered
//!   throughput within tolerance of plain BR (it re-aims links, it must
//!   not break transport).
//!
//! Every scenario is executed TWICE and the serializations must be
//! byte-identical — the determinism gate runs on every invocation.
//! `--check` additionally rejects any report with a failed verdict, so
//! CI holds the acceptance claims, not just the shape.
//!
//! Usage: policy_race [--quick] [--out PATH] [--schema PATH] [--check PATH]
//!   --quick        small profiles (CI scale)
//!   --out PATH     write the report (default: stdout)
//!   --schema PATH  schema to validate against (default: schemas/traffic.schema.json)
//!   --check PATH   validate an existing report file and exit (no run)

use egoist_core::policies::PolicyKind;
use egoist_core::sim::Metric;
use egoist_traffic::demand::WorkloadKind;
use egoist_traffic::engine::{sweep_offered, SweepPoint, TrafficConfig};
use egoist_traffic::json::{array, JsonObject};
use egoist_traffic::policy::DataPolicyKind;

const SCHEMA_TAG: &str = "\"schema\":\"egoist-traffic/v1\"";

/// Pull the JSON string array keyed `key` out of `doc` at or after
/// `from` — only used on our own checked-in schema file.
fn extract_list(doc: &str, key: &str, from: usize) -> Result<Vec<String>, String> {
    let tag = format!("\"{key}\"");
    let at = doc[from..]
        .find(&tag)
        .ok_or_else(|| format!("schema: no {key} list"))?
        + from
        + tag.len();
    let open = doc[at..]
        .find('[')
        .ok_or_else(|| format!("schema: {key} is not a list"))?
        + at
        + 1;
    let end = doc[open..]
        .find(']')
        .ok_or_else(|| format!("schema: unterminated {key} list"))?
        + open;
    Ok(doc[open..end]
        .split('"')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect())
}

/// Validate the load-bearing subset of `schemas/traffic.schema.json`:
/// the schema tag, the scenarios array, one occurrence of every
/// x-required-keys field per scenario, and all-passing verdicts.
fn check(report: &str, schema: &str) -> Result<usize, String> {
    if !report.contains(SCHEMA_TAG) {
        return Err(format!("report lacks the {SCHEMA_TAG} tag"));
    }
    if !report.contains("\"scenarios\":[") {
        return Err("report lacks the \"scenarios\" array".to_string());
    }
    let scenarios = report.matches("\"scenario\":\"").count();
    if scenarios == 0 {
        return Err("report has an empty scenarios array".to_string());
    }
    let marker = schema
        .find("\"x-required-keys\"")
        .ok_or("schema: no x-required-keys section")?;
    let required = extract_list(schema, "x-required-keys", marker)?;
    for key in &required {
        let n = report.matches(&format!("\"{key}\":")).count();
        if n != scenarios {
            return Err(format!(
                "expected one \"{key}\" per scenario ({scenarios} scenarios, found {n})"
            ));
        }
    }
    // The verdicts are the acceptance claims — a shipped report must
    // not contain a failed one.
    if has_failed_verdict(report) {
        return Err("report contains a failed verdict".to_string());
    }
    Ok(required.len())
}

/// Whether any `"pass"` key holds `false`, with any whitespace around
/// the colon — a pretty-printed `"pass": false` is as failed as the
/// compact form.
fn has_failed_verdict(report: &str) -> bool {
    report.match_indices("\"pass\"").any(|(at, key)| {
        report[at + key.len()..]
            .trim_start()
            .strip_prefix(':')
            .is_some_and(|value| value.trim_start().starts_with("false"))
    })
}

/// One measured point of a sweep.
fn point_json(policy_label: &str, p: &SweepPoint) -> String {
    let s = &p.report.summary;
    JsonObject::new()
        .str("config", &p.report.config_label)
        .str("data_policy", policy_label)
        .f64("offered_mbps", p.offered_mbps)
        .f64("delivered_mbps", s.delivered_mbps)
        .f64("delivery_ratio", s.delivery_ratio)
        .f64("p50_latency_ms", s.p50_latency_ms)
        .f64("p99_latency_ms", s.p99_latency_ms)
        .f64("mean_stretch", s.mean_stretch)
        .u64("route_changes", s.route_changes as u64)
        .finish()
}

fn verdict_json(name: &str, lhs: f64, op: &str, rhs: f64, pass: bool) -> String {
    JsonObject::new()
        .str("name", name)
        .f64("lhs", lhs)
        .str("op", op)
        .f64("rhs", rhs)
        .bool("pass", pass)
        .finish()
}

fn scenario_json(name: &str, cfg: &TrafficConfig, points: Vec<String>, verdict: String) -> String {
    JsonObject::new()
        .str("scenario", name)
        .u64("n", cfg.sim.n as u64)
        .u64("k", cfg.sim.k as u64)
        .u64("seed", cfg.sim.seed)
        .str("workload", cfg.workload.label())
        .raw("points", array(points))
        .raw("verdict", verdict)
        .finish()
}

/// The shared control-plane base: closed loop on the Load metric, so
/// carried traffic feeds back into the announcements the wiring sees.
fn base(policy: PolicyKind, workload: WorkloadKind, seed: u64, quick: bool) -> TrafficConfig {
    let n = if quick { 20 } else { 24 };
    let mut cfg = TrafficConfig::new(n, 3, policy, Metric::Load, seed);
    cfg.sim.epochs = if quick { 8 } else { 12 };
    cfg.sim.warmup_epochs = if quick { 3 } else { 4 };
    cfg.workload = workload;
    cfg.flows_per_epoch = if quick { 32 } else { 48 };
    cfg
}

/// Offered-load sweep: the throughput knee, all three data policies.
fn uniform_knee(quick: bool) -> String {
    let cfg = base(PolicyKind::BestResponse, WorkloadKind::Uniform, 11, quick);
    let loads: &[f64] = if quick {
        &[500.0, 3000.0]
    } else {
        &[250.0, 500.0, 1000.0, 2000.0, 3000.0]
    };
    let policies = DataPolicyKind::all();
    let pts = sweep_offered(&cfg, loads, &policies);
    let peak = *loads.last().unwrap();
    let at_peak = |kind: DataPolicyKind| {
        pts.iter()
            .find(|p| p.data_policy == kind && p.offered_mbps == peak)
            .map(|p| p.report.summary.delivered_mbps)
            .unwrap_or(0.0)
    };
    let spf = at_peak(DataPolicyKind::ShortestPath);
    let bp = at_peak(DataPolicyKind::Backpressure);
    let verdict = verdict_json("backpressure_beats_spf_at_peak", bp, ">", spf, bp > spf);
    let points = pts
        .iter()
        .map(|p| point_json(p.data_policy.label(), p))
        .collect();
    scenario_json("uniform_knee", &cfg, points, verdict)
}

/// Saturated hot-spot workload: hysteresis vs none on route flapping.
fn saturated_link(quick: bool) -> String {
    let workload = WorkloadKind::Gravity { exponent: 1.5 };
    let mut hyst = base(PolicyKind::BestResponse, workload, 27, quick);
    hyst.delay_aware.hysteresis = 0.25;
    let mut nohyst = hyst.clone();
    nohyst.delay_aware.hysteresis = 0.0;
    let loads = [2500.0];
    let policies = [DataPolicyKind::DelayAware];
    let p_hyst = &sweep_offered(&hyst, &loads, &policies)[0];
    let p_nohyst = &sweep_offered(&nohyst, &loads, &policies)[0];
    let changes = p_hyst.report.summary.route_changes as f64;
    let rivals = p_nohyst.report.summary.route_changes as f64;
    // Flap budget: a quarter of one switch per flow per steady epoch.
    let steady = (hyst.sim.epochs - hyst.sim.warmup_epochs) as f64;
    let budget = hyst.flows_per_epoch as f64 * steady / 4.0;
    let bound = budget.min(rivals);
    let verdict = verdict_json(
        "delay_aware_route_changes_bounded",
        changes,
        "<=",
        bound,
        changes <= bound,
    );
    let points = vec![
        point_json("delay-aware", p_hyst),
        point_json("delay-aware-nohyst", p_nohyst),
    ];
    scenario_json("saturated_link", &hyst, points, verdict)
}

/// Plain BR vs demand-blended BR wiring, same closed-loop traffic.
fn wiring_race(quick: bool) -> String {
    let workload = WorkloadKind::Gravity { exponent: 1.2 };
    let br = base(PolicyKind::BestResponse, workload, 33, quick);
    let ta = base(PolicyKind::TrafficAware { bias: 0.8 }, workload, 33, quick);
    let loads = [800.0];
    let policies = [DataPolicyKind::ShortestPath];
    let p_br = &sweep_offered(&br, &loads, &policies)[0];
    let p_ta = &sweep_offered(&ta, &loads, &policies)[0];
    let br_del = p_br.report.summary.delivered_mbps;
    let ta_del = p_ta.report.summary.delivered_mbps;
    let floor = 0.95 * br_del;
    let verdict = verdict_json(
        "traffic_aware_within_tolerance",
        ta_del,
        ">=",
        floor,
        ta_del >= floor,
    );
    let points = vec![point_json("spf", p_br), point_json("spf", p_ta)];
    scenario_json("wiring_race", &ta, points, verdict)
}

/// Build one scenario twice and insist the serializations agree.
fn run_deterministic(name: &str, f: impl Fn() -> String) -> String {
    eprintln!("policy_race: scenario {name} ...");
    let a = f();
    let b = f();
    assert_eq!(
        a, b,
        "scenario {name} produced two different same-seed reports"
    );
    a
}

fn build_report(quick: bool) -> String {
    let scenarios = vec![
        run_deterministic("uniform_knee", || uniform_knee(quick)),
        run_deterministic("saturated_link", || saturated_link(quick)),
        run_deterministic("wiring_race", || wiring_race(quick)),
    ];
    let doc = JsonObject::new()
        .str("schema", "egoist-traffic/v1")
        .bool("quick", quick)
        .raw("scenarios", array(scenarios))
        .finish();
    format!("{doc}\n")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out: Option<String> = None;
    let mut schema_path = "schemas/traffic.schema.json".to_string();
    let mut check_path: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out = Some(it.next().expect("--out needs a path")),
            "--schema" => schema_path = it.next().expect("--schema needs a path"),
            "--check" => check_path = Some(it.next().expect("--check needs a path")),
            other => panic!("unknown flag {other}"),
        }
    }

    let schema =
        std::fs::read_to_string(&schema_path).unwrap_or_else(|e| panic!("read {schema_path}: {e}"));

    if let Some(path) = check_path {
        let report = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        match check(&report, &schema) {
            Ok(required) => {
                println!(
                    "{path}: valid egoist-traffic/v1 report, {required} required keys per scenario, all verdicts pass"
                );
            }
            Err(e) => {
                eprintln!("{path}: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let doc = build_report(quick);
    // Never ship a document the checker would reject.
    if let Err(e) = check(&doc, &schema) {
        eprintln!("policy_race: generated report fails its own schema: {e}");
        std::process::exit(1);
    }
    match out {
        Some(path) => {
            std::fs::write(&path, &doc).unwrap_or_else(|e| panic!("write {path}: {e}"));
            eprintln!("policy_race: wrote {path} ({} bytes)", doc.len());
        }
        None => print!("{doc}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> String {
        std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../schemas/traffic.schema.json"
        ))
        .unwrap()
    }

    #[test]
    fn quick_report_validates_and_mutations_fail() {
        let schema = schema();
        let doc = build_report(true);
        assert!(check(&doc, &schema).is_ok(), "{:?}", check(&doc, &schema));
        // Dropping a required key must fail.
        let broken = doc.replacen("\"workload\":", "\"renamed\":", 1);
        assert!(check(&broken, &schema).is_err());
        // A wrong schema tag must fail.
        let wrong = doc.replace("egoist-traffic/v1", "egoist-traffic/v0");
        assert!(check(&wrong, &schema).is_err());
        // A failed verdict must fail.
        let failed = doc.replacen("\"pass\":true", "\"pass\":false", 1);
        assert!(check(&failed, &schema).is_err());
    }

    #[test]
    fn failed_verdict_is_found_at_any_spacing() {
        for failed in [
            r#"{"pass":false}"#,
            r#"{"pass": false}"#,
            "{\"pass\" :\n\t false}",
        ] {
            assert!(has_failed_verdict(failed), "{failed}");
        }
        for passed in [
            r#"{"pass":true}"#,
            r#"{"pass": true}"#,
            r#"{"bypass":false,"pass":true}"#,
            r#"{"name":"pass","lhs":false}"#,
        ] {
            assert!(!has_failed_verdict(passed), "{passed}");
        }
    }

    #[test]
    fn whole_report_is_deterministic() {
        assert_eq!(build_report(true), build_report(true));
    }
}
