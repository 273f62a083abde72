//! `perf_baseline` — the tracked performance trajectory of the epoch
//! route-state engine.
//!
//! Times best-response epoch stepping (delay metric, n ∈ {50, 200, 800})
//! and the closed-loop traffic engine under both route-state engines:
//!
//! * `baseline_wall_ms` — [`EngineMode::Recompute`]: announced matrix +
//!   from-scratch residual APSP every turn, pre-optimization BR
//!   greedy/local-search loops. A *conservative* stand-in for the
//!   pre-change implementation: it shares the (cheaper) epoch-granular
//!   underlay sampling and the current data-plane code, so it
//!   understates what the previous commit actually cost — the true
//!   pre-change binary measured ~28% slower than the oracle on the
//!   n=200 scenario on the same host (see EXPERIMENTS.md);
//! * `wall_ms` — [`EngineMode::Epoch`], shared snapshots + zero-copy
//!   residual views.
//!
//! Both engines are run on identical seeds in the same process and their
//! simulation outputs are fingerprinted; `outputs_identical` asserts the
//! speedup is a pure optimization. Results land in `BENCH_perf.json`
//! (schema `egoist-perf-baseline/v2`, insertion-ordered keys, so the
//! document layout is byte-deterministic; timings naturally vary).
//!
//! Schema v2 keeps every v1 field (the trajectory stays comparable) and
//! adds, per epoch-stepping scenario: `prev_wall_ms` (the prior PR's
//! committed `wall_ms`), per-phase wall time (`residual_ms` /
//! `solver_ms` / `absorb_ms`), and the engine's copy-vs-sweep ratios
//! from `RouteStats`.
//!
//! Per-phase timings are no longer private plumbing: the engine reports
//! into the `egoist-obs` registry (spans `core.epoch.turn.{residual,
//! solver,absorb}`) and this bench reads them back, so BENCH_perf.json
//! is a *view over the registry*. The registry is reset before each
//! timed run, making span totals absolute per scenario.
//!
//! Usage:
//!   perf_baseline [--quick] [--out PATH]      # measure and write
//!     [--metrics-out PATH]  # also dump the obs registry (egoist-obs/v1)
//!                           # as observed by the final scenario's run
//!     [--trace]             # flight recorder on; events JSON to stderr
//!   perf_baseline --overhead-gate             # instrumented-vs-disabled
//!     wall-time gate on the n=200 scenario (<3% or exit 1)
//!   perf_baseline --check PATH                # validate schema
//!   perf_baseline --check PATH --against GOLD # + fingerprint gate:
//!     every scenario of PATH whose (name, n, k, epochs) also appears in
//!     GOLD must carry an identical fingerprint — the CI regression gate
//!     against the committed BENCH_perf.json.

use egoist_core::policies::PolicyKind;
use egoist_core::sim::{EngineMode, Metric, SimConfig, SimResult, Simulator};
use egoist_core::snapshot::RouteStats;
use egoist_traffic::engine::{TrafficConfig, TrafficEngine};
use egoist_traffic::json::{array, num, JsonObject};
use std::time::Instant;

const SCHEMA: &str = "egoist-perf-baseline/v2";

/// Registry spans the per-phase breakdown is sourced from.
const RESIDUAL_SPAN: &str = "core.epoch.turn.residual";
const SOLVER_SPAN: &str = "core.epoch.turn.solver";
const ABSORB_SPAN: &str = "core.epoch.turn.absorb";

/// Total milliseconds accumulated in a registry span.
fn span_ms(name: &str) -> f64 {
    let (_count, ns) = egoist_obs::registry().span_value(name);
    ns as f64 / 1e6
}

/// `wall_ms` per scenario as committed by the previous baseline — the
/// anchor the new numbers are compared against. Host-specific by
/// nature (like every timing in BENCH_perf.json): a PR that lands a new
/// baseline bumps these to the values it replaces, keeping the anchors
/// reviewable in-diff rather than mutated by every regeneration.
fn prev_wall_ms(name: &str) -> f64 {
    match name {
        "br_delay_n50" => 27.358241,
        "br_delay_n200" => 525.724614,
        "br_delay_n800" => 17776.348013,
        "br_traffic_n200" => 546.623248,
        _ => 0.0,
    }
}

/// FNV-1a over the bit patterns of a sample series — a cheap output
/// fingerprint that any divergence between engines will flip.
fn fingerprint_sim(r: &SimResult) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for s in &r.samples {
        eat(s.epoch as u64);
        eat(s.rewirings as u64);
        eat(s.alive as u64);
        for series in [&s.individual_cost, &s.efficiency, &s.bandwidth_utility] {
            for x in series.iter() {
                eat(x.to_bits());
            }
        }
    }
    h
}

fn fingerprint_str(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Per-phase breakdown of the epoch engine's wall time plus its
/// incremental-work counters (epoch-stepping scenarios only).
struct PhaseBreakdown {
    residual_ms: f64,
    solver_ms: f64,
    absorb_ms: f64,
    stats: RouteStats,
}

struct ScenarioResult {
    name: String,
    n: usize,
    k: usize,
    epochs: usize,
    baseline_wall_ms: f64,
    wall_ms: f64,
    rewirings: usize,
    outputs_identical: bool,
    fingerprint: u64,
    phases: Option<PhaseBreakdown>,
}

fn ratio(a: usize, b: usize) -> f64 {
    if a + b == 0 {
        0.0
    } else {
        a as f64 / (a + b) as f64
    }
}

impl ScenarioResult {
    fn to_json(&self) -> String {
        let mut obj = JsonObject::new()
            .u64("n", self.n as u64)
            .u64("k", self.k as u64)
            .u64("epochs", self.epochs as u64)
            .f64("baseline_wall_ms", self.baseline_wall_ms)
            .f64("wall_ms", self.wall_ms)
            .f64("speedup", self.baseline_wall_ms / self.wall_ms)
            .u64("rewirings", self.rewirings as u64)
            .bool("outputs_identical", self.outputs_identical)
            .str("fingerprint", &format!("{:016x}", self.fingerprint))
            .f64("prev_wall_ms", prev_wall_ms(&self.name));
        if let Some(ph) = &self.phases {
            obj = obj
                .f64("residual_ms", ph.residual_ms)
                .f64("solver_ms", ph.solver_ms)
                .f64("absorb_ms", ph.absorb_ms)
                .f64(
                    "residual_borrow_ratio",
                    ratio(ph.stats.residual_borrowed, ph.stats.residual_swept),
                )
                .f64(
                    "rewire_repair_ratio",
                    ratio(ph.stats.rewire_repaired, ph.stats.rewire_swept),
                );
        }
        obj.finish()
    }
}

fn sim_cfg(n: usize, k: usize, epochs: usize, engine: EngineMode) -> SimConfig {
    let mut c = SimConfig::baseline(k, PolicyKind::BestResponse, Metric::DelayPing, 42);
    c.n = n;
    c.epochs = epochs;
    c.warmup_epochs = epochs / 3;
    c.engine = engine;
    c
}

/// Time one full BR epoch-stepping run under `engine`, collecting the
/// per-phase breakdown from the obs registry (the residual/absorb spans
/// only fire under `Epoch`, so they read zero for `Recompute`). The
/// outer wall clock stays an `Instant`: it must keep ticking when the
/// `--overhead-gate` runs with instrumentation disabled.
fn time_sim(
    n: usize,
    k: usize,
    epochs: usize,
    engine: EngineMode,
) -> (f64, SimResult, PhaseBreakdown) {
    let cfg = sim_cfg(n, k, epochs, engine);
    egoist_obs::registry().reset();
    let t = Instant::now();
    let mut sim = Simulator::new(cfg.clone());
    let mut samples = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        let rewirings = sim.run_epoch(epoch);
        samples.push(sim.measure(epoch, rewirings));
    }
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let phases = PhaseBreakdown {
        residual_ms: span_ms(RESIDUAL_SPAN),
        solver_ms: span_ms(SOLVER_SPAN),
        absorb_ms: span_ms(ABSORB_SPAN),
        stats: sim.route_stats(),
    };
    let result = SimResult {
        config_label: sim.config_label(),
        samples,
    };
    (wall_ms, result, phases)
}

fn epoch_stepping_scenario(n: usize, k: usize, epochs: usize) -> ScenarioResult {
    eprintln!("# br_delay_n{n}: oracle (Recompute) ...");
    let (baseline_ms, oracle, _) = time_sim(n, k, epochs, EngineMode::Recompute);
    eprintln!("#   {baseline_ms:.0} ms; epoch engine ...");
    let (wall_ms, fast, phases) = time_sim(n, k, epochs, EngineMode::Epoch);
    eprintln!("#   {wall_ms:.0} ms ({:.1}x)", baseline_ms / wall_ms);
    let rewirings: usize = fast.samples.iter().map(|s| s.rewirings).sum();
    let (fa, fo) = (fingerprint_sim(&fast), fingerprint_sim(&oracle));
    ScenarioResult {
        name: format!("br_delay_n{n}"),
        n,
        k,
        epochs,
        baseline_wall_ms: baseline_ms,
        wall_ms,
        rewirings,
        outputs_identical: fa == fo,
        fingerprint: fa,
        phases: Some(phases),
    }
}

fn traffic_scenario(n: usize, k: usize, epochs: usize) -> ScenarioResult {
    let base = |engine: EngineMode| {
        let mut cfg = TrafficConfig::new(n, k, PolicyKind::BestResponse, Metric::DelayPing, 42);
        cfg.sim.epochs = epochs;
        cfg.sim.warmup_epochs = epochs / 3;
        cfg.sim.engine = engine;
        cfg.flows_per_epoch = 2 * n;
        cfg
    };
    eprintln!("# br_traffic_n{n}: oracle (Recompute) ...");
    egoist_obs::registry().reset();
    let t = Instant::now();
    let oracle = TrafficEngine::run(&base(EngineMode::Recompute)).to_json();
    let baseline_ms = t.elapsed().as_secs_f64() * 1e3;
    eprintln!("#   {baseline_ms:.0} ms; epoch engine ...");
    egoist_obs::registry().reset();
    let t = Instant::now();
    let fast_report = TrafficEngine::run(&base(EngineMode::Epoch));
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    eprintln!("#   {wall_ms:.0} ms ({:.1}x)", baseline_ms / wall_ms);
    let fast = fast_report.to_json();
    ScenarioResult {
        name: format!("br_traffic_n{n}"),
        n,
        k,
        epochs,
        baseline_wall_ms: baseline_ms,
        wall_ms,
        rewirings: 0,
        outputs_identical: fast == oracle,
        fingerprint: fingerprint_str(&fast),
        phases: None,
    }
}

fn measure(quick: bool) -> String {
    let scenarios: Vec<ScenarioResult> = if quick {
        // The n=50 scenario runs the *full-mode* parameters so its
        // fingerprint is comparable against the committed
        // BENCH_perf.json (the CI regression gate); it is cheap enough.
        vec![
            epoch_stepping_scenario(50, 5, 8),
            epoch_stepping_scenario(200, 8, 2),
            traffic_scenario(50, 5, 4),
        ]
    } else {
        vec![
            epoch_stepping_scenario(50, 5, 8),
            epoch_stepping_scenario(200, 8, 4),
            epoch_stepping_scenario(800, 10, 2),
            traffic_scenario(200, 8, 4),
        ]
    };
    let mut body = JsonObject::new()
        .str("schema", SCHEMA)
        .str("mode", if quick { "quick" } else { "full" });
    let mut obj = JsonObject::new();
    for s in &scenarios {
        obj = obj.raw(&s.name, s.to_json());
    }
    body = body.raw("scenarios", obj.finish());
    let speedups: Vec<String> = scenarios
        .iter()
        .map(|s| num(s.baseline_wall_ms / s.wall_ms))
        .collect();
    body = body.raw("speedups", array(speedups));
    body.finish()
}

/// Fields every scenario entry must carry; `--check` fails when any
/// disappears (schema drift) or the schema tag changes. The per-phase
/// fields are epoch-stepping-only and therefore not counted here.
const REQUIRED_FIELDS: &[&str] = &[
    "\"n\":",
    "\"k\":",
    "\"epochs\":",
    "\"baseline_wall_ms\":",
    "\"wall_ms\":",
    "\"speedup\":",
    "\"rewirings\":",
    "\"outputs_identical\":",
    "\"fingerprint\":",
    "\"prev_wall_ms\":",
];

/// One scenario entry pulled back out of a written document.
struct ParsedScenario {
    name: String,
    n: u64,
    k: u64,
    epochs: u64,
    fingerprint: String,
}

fn field_u64(body: &str, key: &str) -> Option<u64> {
    let tag = format!("\"{key}\":");
    let at = body.find(&tag)? + tag.len();
    let digits: String = body[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

fn field_str(body: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\":\"");
    let at = body.find(&tag)? + tag.len();
    let end = body[at..].find('"')?;
    Some(body[at..at + end].to_string())
}

/// Pull the scenario entries out of a perf document. The document is
/// our own writer's output: the `scenarios` object nests exactly one
/// level of flat objects, so a brace scan is enough.
fn parse_scenarios(doc: &str) -> Result<Vec<ParsedScenario>, String> {
    let tag = "\"scenarios\":{";
    let start = doc.find(tag).ok_or("no scenarios object")? + tag.len();
    let mut rest = &doc[start..];
    let mut out = Vec::new();
    while rest.starts_with('"') {
        let name_end = rest[1..].find('"').ok_or("unterminated scenario name")? + 1;
        let name = rest[1..name_end].to_string();
        let body_start = name_end + 2; // skip `":`
        if !rest[body_start..].starts_with('{') {
            return Err(format!("scenario {name}: expected object"));
        }
        let body_end = rest[body_start..]
            .find('}')
            .ok_or("unterminated scenario object")?
            + body_start;
        let body = &rest[body_start..=body_end];
        out.push(ParsedScenario {
            n: field_u64(body, "n").ok_or(format!("scenario {name}: no n"))?,
            k: field_u64(body, "k").ok_or(format!("scenario {name}: no k"))?,
            epochs: field_u64(body, "epochs").ok_or(format!("scenario {name}: no epochs"))?,
            fingerprint: field_str(body, "fingerprint")
                .ok_or(format!("scenario {name}: no fingerprint"))?,
            name,
        });
        rest = &rest[body_end + 1..];
        match rest.chars().next() {
            Some(',') => rest = &rest[1..],
            _ => break,
        }
    }
    if out.is_empty() {
        return Err("no scenario entries".into());
    }
    Ok(out)
}

fn check(path: &str) -> Result<(), String> {
    let doc = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    if !doc.contains(&format!("\"schema\":{:?}", SCHEMA)) {
        return Err(format!("schema tag is not {SCHEMA}"));
    }
    if !doc.contains("\"scenarios\":{") {
        return Err("no scenarios object".into());
    }
    // Every scenario entry must carry every required field — a
    // document-wide substring test would let one drifted scenario hide
    // behind another, so fields are counted against the scenario count
    // (one `fingerprint` per scenario entry, by construction).
    let scenario_count = doc.matches("\"fingerprint\":").count();
    if scenario_count == 0 {
        return Err("no scenario entries".into());
    }
    for field in REQUIRED_FIELDS {
        let found = doc.matches(field).count();
        if found != scenario_count {
            return Err(format!(
                "field {field} appears {found}x for {scenario_count} scenarios"
            ));
        }
    }
    if doc.contains("\"outputs_identical\":false") {
        return Err("an engine comparison diverged (outputs_identical=false)".into());
    }
    Ok(())
}

/// The regression gate: every scenario of `path` whose
/// `(name, n, k, epochs)` also appears in `golden` must carry an
/// identical fingerprint — a drift means the engines' *outputs* changed,
/// not just their timing.
fn check_against(path: &str, golden: &str) -> Result<usize, String> {
    let new_doc = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let gold_doc = std::fs::read_to_string(golden).map_err(|e| format!("read {golden}: {e}"))?;
    let new = parse_scenarios(&new_doc)?;
    let gold = parse_scenarios(&gold_doc)?;
    let mut compared = 0;
    for s in &new {
        let Some(g) = gold
            .iter()
            .find(|g| g.name == s.name && g.n == s.n && g.k == s.k && g.epochs == s.epochs)
        else {
            continue;
        };
        if g.fingerprint != s.fingerprint {
            return Err(format!(
                "{}: fingerprint drifted from {} ({} vs {})",
                s.name, golden, s.fingerprint, g.fingerprint
            ));
        }
        compared += 1;
    }
    if compared == 0 {
        return Err(format!(
            "no comparable scenarios between {path} and {golden} — the gate checked nothing"
        ));
    }
    Ok(compared)
}

/// The CI overhead gate: the epoch engine's n=200 scenario, wall-timed
/// with instrumentation off and on (min of `reps` each, one warmup),
/// must agree within 3%. Guards the "zero cost when disabled" claim —
/// every instrument's fast path is one relaxed load, so the enabled run
/// is the only one paying `Instant::now()` and atomic adds.
fn overhead_gate() -> Result<String, String> {
    let reps = 3;
    let run = || {
        let cfg = sim_cfg(200, 8, 2, EngineMode::Epoch);
        let t = Instant::now();
        let mut sim = Simulator::new(cfg.clone());
        for epoch in 0..cfg.epochs {
            let rewirings = sim.run_epoch(epoch);
            std::hint::black_box(sim.measure(epoch, rewirings));
        }
        t.elapsed().as_secs_f64() * 1e3
    };
    // Interleave the arms so clock-frequency drift, page-cache warmup
    // and allocator state hit both equally; min-of-reps per arm.
    egoist_obs::disable();
    run(); // warmup
    let (mut off, mut on) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        egoist_obs::disable();
        off = off.min(run());
        egoist_obs::enable();
        egoist_obs::registry().reset();
        on = on.min(run());
    }
    egoist_obs::disable();
    let rel = (on - off) / off;
    let line = format!(
        "overhead gate: disabled {off:.1} ms, instrumented {on:.1} ms ({:+.2}%)",
        rel * 100.0
    );
    if rel > 0.03 {
        Err(format!("{line} — exceeds the 3% budget"))
    } else {
        Ok(line)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--overhead-gate") {
        match overhead_gate() {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if let Some(pos) = args.iter().position(|a| a == "--check") {
        let path = args
            .get(pos + 1)
            .map(String::as_str)
            .unwrap_or("BENCH_perf.json");
        match check(path) {
            Ok(()) => {
                println!("{path}: schema ok");
            }
            Err(e) => {
                eprintln!("{path}: schema drift: {e}");
                std::process::exit(1);
            }
        }
        if let Some(gpos) = args.iter().position(|a| a == "--against") {
            let golden = args
                .get(gpos + 1)
                .map(String::as_str)
                .unwrap_or("BENCH_perf.json");
            match check_against(path, golden) {
                Ok(compared) => {
                    println!("{path}: {compared} fingerprint(s) match {golden}");
                }
                Err(e) => {
                    eprintln!("{path}: regression gate failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        return;
    }
    if args.iter().any(|a| a == "--against") {
        eprintln!("--against only applies with --check NEW --against GOLD; refusing to measure");
        std::process::exit(2);
    }
    let quick = args.iter().any(|a| a == "--quick");
    let trace = args.iter().any(|a| a == "--trace");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|p| args.get(p + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_perf.json".to_string());
    let metrics_out = args
        .iter()
        .position(|a| a == "--metrics-out")
        .and_then(|p| args.get(p + 1))
        .cloned();
    egoist_obs::enable();
    if trace {
        egoist_obs::enable_trace();
    }
    let doc = measure(quick);
    std::fs::write(&out, format!("{doc}\n")).expect("write BENCH_perf.json");
    println!("{doc}");
    if let Some(mpath) = metrics_out {
        let snapshot = egoist_obs::registry().to_json();
        std::fs::write(&mpath, format!("{snapshot}\n")).expect("write metrics");
        eprintln!("# metrics -> {mpath}");
    }
    if trace {
        eprintln!("{}", egoist_obs::registry().events_to_json());
    }
    check(&out).expect("self-written document must validate");
}
