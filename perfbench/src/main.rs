//! `perfbench` — the repository benchmark.
//!
//! One process runs one workload as a closed batch: one caller, no
//! arrivals, the next operation starts when the previous one returns.
//! An operation is one full run of the workload through the crates'
//! public entry points (`Simulator::{new, run_epoch, measure}`,
//! `sweep_offered` / `TrafficEngine::run`, `run_fleet`); its output is
//! fingerprinted and checked.
//!
//! ```text
//! perfbench --workload W --seed S --seconds T --trace 0|1
//!           [--expect HEX] [--spans-out PATH]
//! ```
//!
//! * `--trace 0` keeps `egoist_obs` off (its default) and prints the
//!   end-to-end metrics: `setup_s`, `virtual_s_per_s`, `peak_rss_mb`.
//! * `--trace 1` alternates untraced and traced operations. Before each
//!   traced operation the obs registry is reset; after it the registry
//!   is read back, so every number belongs to this workload alone. It
//!   prints the per-layer metrics and `obs.trace_overhead`.
//! * `--expect HEX` is the recorded output fingerprint for this
//!   workload and seed. Without it, every operation must reproduce the
//!   first one's fingerprint.
//!
//! Times are scaled to a reference host speed (see [`REF_PROBE_S`]).
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.

use egoist_core::policies::PolicyKind;
use egoist_core::sim::{EngineMode, Metric, SimConfig, SimResult, Simulator};
use egoist_graph::{DistanceMatrix, NodeId};
use egoist_netsim::FaultPlan;
use egoist_proto::bootstrap::{BootstrapServer, Registry};
use egoist_proto::{run_fleet, EgoistNode, FleetConfig, NodeConfig, SimNet};
use egoist_traffic::demand::{DemandGenerator, WorkloadKind};
use egoist_traffic::engine::{sweep_offered, TrafficConfig};
use egoist_traffic::policy::DataPolicyKind;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// A fleet that ends below this route reachability fails the operation.
const MIN_REACHABILITY: f64 = 0.95;

// ---------------------------------------------------------------- spans

/// One benchmark-side span: a timed call into a layer.
struct SpanRec {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span log, written out when the run ends.
struct Spans {
    origin: Instant,
    recs: Vec<SpanRec>,
}

impl Spans {
    fn new() -> Self {
        Spans {
            origin: Instant::now(),
            recs: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.recs.push(SpanRec {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.recs.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.recs[id].end_ns = self.now_ns();
    }

    fn secs(&self, id: usize) -> f64 {
        let r = &self.recs[id];
        (r.end_ns - r.start_ns) as f64 / 1e9
    }

    /// Total seconds of the direct children of `parent` whose name
    /// starts with `prefix`.
    fn child_secs(&self, parent: usize, prefix: &str) -> f64 {
        (0..self.recs.len())
            .filter(|&i| {
                self.recs[i].parent == Some(parent) && self.recs[i].name.starts_with(prefix)
            })
            .map(|i| self.secs(i))
            .fold(0.0, |a, b| a + b)
    }

    fn to_json(&self) -> String {
        let mut s = String::from("{\"spans\":[");
        for (i, r) in self.recs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                r.name, r.start_ns, r.end_ns
            );
        }
        s.push_str("]}\n");
        s
    }
}

// ------------------------------------------------------------ workloads

/// FNV-1a, fed 8 bytes at a time or byte-wise.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// The same FNV over `SimResult` samples that `perf_baseline` computes.
fn fingerprint_sim(r: &SimResult) -> u64 {
    let mut h = Fnv::new();
    for s in &r.samples {
        h.u64(s.epoch as u64);
        h.u64(s.rewirings as u64);
        h.u64(s.alive as u64);
        for series in [&s.individual_cost, &s.efficiency, &s.bandwidth_utility] {
            for x in series.iter() {
                h.u64(x.to_bits());
            }
        }
    }
    h.0
}

/// What one operation produced.
struct OpOut {
    fingerprint: u64,
    /// Virtual seconds simulated.
    virtual_s: f64,
    /// Wiring turns run by the simulator (0 for the fleets).
    turns: u64,
    /// Flows offered to the data plane (0 outside `traffic_race`).
    flows: u64,
    /// LSAs originated (fleets only), the base of frames per announce.
    announces: u64,
    /// Why the output is wrong, if it is.
    invalid: Option<String>,
}

enum Workload {
    BrEpochs(SimConfig),
    TrafficRace { base: TrafficConfig, load: f64 },
    Fleet(FleetConfig),
}

const WORKLOADS: [&str; 4] = ["br_epochs", "traffic_race", "fleet_gossip", "fleet_br"];

fn br_epochs(seed: u64) -> Workload {
    let mut c = SimConfig::baseline(10, PolicyKind::BestResponse, Metric::DelayPing, seed);
    c.n = 400;
    c.epochs = 2;
    c.warmup_epochs = 1;
    c.engine = EngineMode::Epoch;
    Workload::BrEpochs(c)
}

fn traffic_race(seed: u64) -> Workload {
    let mut base = TrafficConfig::new(
        64,
        4,
        PolicyKind::TrafficAware { bias: 0.8 },
        Metric::Load,
        seed,
    );
    base.sim.epochs = 48;
    base.sim.warmup_epochs = 16;
    base.workload = WorkloadKind::Gravity { exponent: 1.5 };
    base.flows_per_epoch = 16384;
    Workload::TrafficRace { base, load: 3000.0 }
}

/// The `chaos_n1000` timers, gossip and anti-entropy at n=250 with
/// k-Random wiring: the live protocol without route computation.
fn fleet_gossip(seed: u64) -> Workload {
    let mut cfg = egoist_proto::fleet::chaos_n1000_profile(true);
    let (n, h) = (250, 200.0);
    cfg.scenario = "fleet_gossip".to_string();
    cfg.n = n;
    cfg.seed = seed;
    cfg.horizon = Duration::from_secs_f64(h);
    let storm: Vec<NodeId> = (0..n / 4).map(NodeId::from_index).collect();
    let minority: Vec<NodeId> = (n - n / 8..n).map(NodeId::from_index).collect();
    cfg.plan = FaultPlan::new()
        .churn_storm(0.25 * h, 0.48 * h, storm, 30.0, 0.3)
        .partition(0.54 * h, 0.66 * h, vec![vec![], minority]);
    Workload::Fleet(cfg)
}

/// The `storm_partition` timers and 30% loss at n=80 with best-response
/// wiring: the live protocol including in-node route computation.
fn fleet_br(seed: u64) -> Workload {
    let mut cfg = egoist_proto::fleet::storm_partition_profile(false);
    let (n, h) = (80, 120.0);
    cfg.scenario = "fleet_br".to_string();
    cfg.n = n;
    cfg.seed = seed;
    cfg.horizon = Duration::from_secs_f64(h);
    let storm: Vec<NodeId> = (0..n / 3).map(NodeId::from_index).collect();
    let minority: Vec<NodeId> = (n - n / 4..n).map(NodeId::from_index).collect();
    cfg.plan = FaultPlan::new()
        .churn_storm(0.25 * h, 0.5 * h, storm, 30.0, 0.4)
        .partition(0.55 * h, 0.7 * h, vec![vec![], minority]);
    Workload::Fleet(cfg)
}

impl Workload {
    fn from_name(name: &str, seed: u64) -> Option<Workload> {
        Some(match name {
            "br_epochs" => br_epochs(seed),
            "traffic_race" => traffic_race(seed),
            "fleet_gossip" => fleet_gossip(seed),
            "fleet_br" => fleet_br(seed),
            _ => return None,
        })
    }

    /// Seconds spent in the public constructors that build this
    /// workload's state, called standalone (the entry points that build
    /// their own state give no hook before their first step).
    fn setup_once(&self) -> f64 {
        match self {
            Workload::BrEpochs(cfg) => {
                let t = Instant::now();
                let sim = std::hint::black_box(Simulator::new(cfg.clone()));
                let s = t.elapsed().as_secs_f64();
                drop(sim);
                s
            }
            Workload::TrafficRace { base, load } => {
                let mut total = 0.0;
                for policy in DataPolicyKind::all() {
                    let t = Instant::now();
                    let sim = Simulator::new(base.sim.clone());
                    let demand = DemandGenerator::new(
                        base.workload,
                        base.sim.n,
                        *load,
                        base.flows_per_epoch,
                        base.sim.seed,
                        sim.delays().base(),
                    );
                    let routing = policy.instantiate(
                        base.sim.n,
                        base.router,
                        base.backpressure,
                        base.delay_aware,
                    );
                    total += t.elapsed().as_secs_f64();
                    std::hint::black_box((&sim, &demand, &routing));
                }
                total
            }
            Workload::Fleet(cfg) => tokio::runtime::block_on_paused(fleet_setup(cfg)),
        }
    }

    /// One operation: the whole workload, spans recorded under `op`.
    fn run(&self, spans: &mut Spans, op: usize) -> OpOut {
        match self {
            Workload::BrEpochs(cfg) => {
                let s = spans.open("core.new", Some(op));
                let mut sim = Simulator::new(cfg.clone());
                spans.close(s);
                let mut samples = Vec::with_capacity(cfg.epochs);
                for epoch in 0..cfg.epochs {
                    let s = spans.open("core.run_epoch", Some(op));
                    let rewirings = sim.run_epoch(epoch);
                    spans.close(s);
                    let s = spans.open("core.measure", Some(op));
                    samples.push(sim.measure(epoch, rewirings));
                    spans.close(s);
                }
                let turns = samples.iter().map(|s| s.alive as u64).sum();
                let invalid = samples
                    .iter()
                    .find(|s| s.alive != cfg.n || s.individual_cost.iter().any(|c| !c.is_finite()))
                    .map(|s| format!("epoch {}: alive {} or non-finite cost", s.epoch, s.alive));
                let result = SimResult {
                    config_label: sim.config_label(),
                    samples,
                };
                OpOut {
                    fingerprint: fingerprint_sim(&result),
                    virtual_s: cfg.epochs as f64 * cfg.epoch_secs,
                    turns,
                    flows: 0,
                    announces: 0,
                    invalid,
                }
            }
            Workload::TrafficRace { base, load } => {
                let mut h = Fnv::new();
                let mut invalid = None;
                let mut turns = 0;
                for policy in DataPolicyKind::all() {
                    let s = spans.open(&format!("traffic.run.{}", layer_label(policy)), Some(op));
                    let points = sweep_offered(base, &[*load], &[policy]);
                    spans.close(s);
                    for p in &points {
                        h.bytes(p.report.to_json().as_bytes());
                        turns += p.report.epochs.iter().map(|e| e.alive as u64).sum::<u64>();
                        let sum = &p.report.summary;
                        let carried = sum.delivered_mbps <= sum.offered_mbps * (1.0 + 1e-9);
                        if p.report.epochs.len() != base.sim.epochs || !carried {
                            invalid = Some(format!(
                                "{}: {} epochs, delivered {} of {} Mbps",
                                policy.label(),
                                p.report.epochs.len(),
                                sum.delivered_mbps,
                                sum.offered_mbps
                            ));
                        }
                    }
                }
                let runs = DataPolicyKind::all().len() as f64;
                OpOut {
                    fingerprint: h.0,
                    virtual_s: runs * base.sim.epochs as f64 * base.sim.epoch_secs,
                    turns,
                    flows: runs as u64 * (base.sim.epochs * base.flows_per_epoch) as u64,
                    announces: 0,
                    invalid,
                }
            }
            Workload::Fleet(cfg) => {
                let s = spans.open("proto.run_fleet", Some(op));
                let report = run_fleet(cfg);
                spans.close(s);
                let mut h = Fnv::new();
                h.bytes(report.to_json().as_bytes());
                let reconverged = report.final_reachability >= MIN_REACHABILITY;
                let invalid = (!reconverged).then(|| {
                    format!(
                        "final reachability {} < {MIN_REACHABILITY}",
                        report.final_reachability
                    )
                });
                OpOut {
                    fingerprint: h.0,
                    virtual_s: cfg.horizon.as_secs_f64(),
                    turns: 0,
                    flows: 0,
                    announces: report.announces,
                    invalid,
                }
            }
        }
    }
}

/// The state `run_fleet` builds: the fleet's delay matrix, the simulated
/// network with its fault plan, the bootstrap server, and one started
/// node per honest id, configured field by field as the fleet configures
/// it. The delay matrix and the node configs are private to the fleet,
/// so both are rebuilt here with the same formulas.
async fn fleet_setup(cfg: &FleetConfig) -> f64 {
    let total = cfg.n + cfg.sybils;
    let boot = NodeId::from_index(total);
    let t = Instant::now();
    let net = SimNet::with_plan(
        fleet_delays(total + 1, cfg.seed),
        cfg.fault,
        Some(cfg.plan.clone()),
        cfg.seed,
    );
    let server = BootstrapServer::new(net.endpoint(boot), Registry::default());
    let mut nodes = Vec::with_capacity(cfg.n);
    for i in 0..cfg.n {
        let id = NodeId::from_index(i);
        let mut nc = NodeConfig::new(id, total, cfg.k);
        nc.policy = cfg.policy;
        nc.epoch = cfg.epoch;
        nc.announce_interval = cfg.announce_interval;
        nc.ping_interval = cfg.ping_interval;
        nc.liveness_timeout = cfg.liveness_timeout;
        nc.bootstrap = Some(boot);
        nc.seed = cfg.seed.wrapping_mul(1031).wrapping_add(i as u64);
        nc.inline_rewire = true;
        nc.gossip_fanout = cfg.gossip_fanout;
        nc.gossip_ttl = cfg.gossip_ttl;
        nc.sync_interval = cfg.sync_interval;
        nc.ping_sample = cfg.ping_sample;
        nc.announce_refresh = cfg.announce_refresh;
        nc.lsdb_max_age = cfg.lsdb_max_age;
        nc.claims = cfg.claims;
        nc.expose_route_edges = cfg.expose_route_edges;
        let mut node = EgoistNode::new(nc, net.endpoint(id));
        node.start().await;
        nodes.push(node);
    }
    let s = t.elapsed().as_secs_f64();
    std::hint::black_box((&server, &nodes));
    s
}

/// The fleet's planar delay matrix: seeded positions in a 20 ms square,
/// `d(i,j) = 4 + |p_i - p_j|` ms.
fn fleet_delays(total: usize, seed: u64) -> DistanceMatrix {
    let mix64 = |mut z: u64| {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let coord = |i: usize, axis: u64| {
        let z = mix64(
            seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ axis.wrapping_mul(0xD1B5_4A32_D192_ED03),
        );
        (z >> 11) as f64 / (1u64 << 53) as f64 * 20.0
    };
    let pos: Vec<(f64, f64)> = (0..total).map(|i| (coord(i, 1), coord(i, 2))).collect();
    DistanceMatrix::from_fn(total, |i, j| {
        if i == j {
            0.0
        } else {
            let (dx, dy) = (pos[i].0 - pos[j].0, pos[i].1 - pos[j].1);
            4.0 + (dx * dx + dy * dy).sqrt()
        }
    })
}

/// Metric-name segment for a data policy.
fn layer_label(p: DataPolicyKind) -> &'static str {
    match p {
        DataPolicyKind::ShortestPath => "spf",
        DataPolicyKind::Backpressure => "backpressure",
        DataPolicyKind::DelayAware => "delay_aware",
    }
}

// ------------------------------------------------------- per-layer view

/// One per-layer metric: name, unit, value.
type LayerMetric = (String, &'static str, f64);

/// The per-layer metrics of one traced operation, read back from the
/// obs registry and from the benchmark's own spans under `op`.
/// Span-derived times are shares of the traced operation's wall time,
/// so a layer the workload never enters reads 0 rather than a time.
/// The turn phases have no child spans, so their self time is their
/// total; the data plane's is `traffic.epoch` minus the `core.epoch`
/// and `core.measure` spans nested in it.
fn layer_metrics(spans: &Spans, op: usize, out: &OpOut) -> Vec<LayerMetric> {
    let r = egoist_obs::registry();
    let c = |name: &str| r.counter_value(name) as f64;
    let span_s = |name: &str| r.span_value(name).1 as f64 / 1e9;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let p99 = |name: &str| {
        let q = r.histogram_snapshot(name).quantile(0.99);
        if q.is_finite() {
            q
        } else {
            0.0
        }
    };
    let op_s = spans.secs(op);
    let share = |secs: f64| ratio(secs, op_s);
    let mut m: Vec<LayerMetric> = Vec::new();
    let mut put = |name: &str, unit: &'static str, v: f64| m.push((name.to_string(), unit, v));

    put(
        "bench.op.coverage",
        "ratio",
        share(spans.child_secs(op, "")),
    );

    // core
    let run_epoch = spans.child_secs(op, "core.run_epoch");
    let (residual, solver, absorb) = (
        span_s("core.epoch.turn.residual"),
        span_s("core.epoch.turn.solver"),
        span_s("core.epoch.turn.absorb"),
    );
    put("core.run_epoch_share", "ratio", share(run_epoch));
    put(
        "core.measure_share",
        "ratio",
        share(spans.child_secs(op, "core.measure")),
    );
    put(
        "core.run_epoch.coverage",
        "ratio",
        ratio(residual + solver + absorb, run_epoch),
    );
    put("core.solver_self_share", "ratio", share(solver));
    put("core.residual_self_share", "ratio", share(residual));
    put("core.absorb_self_share", "ratio", share(absorb));
    put("core.turns", "count", c("core.turns"));
    put("core.rewirings", "count", c("core.rewirings"));
    put(
        "core.rewire_ratio",
        "ratio",
        ratio(c("core.rewirings"), c("core.turns")),
    );
    for k in [
        "candidates_scanned",
        "exact_evals",
        "gain_bound_rejects",
        "prefilter_rejects",
        "rounds",
    ] {
        put(
            &format!("core.solver.{k}"),
            "count",
            c(&format!("core.solver.{k}")),
        );
    }
    put(
        "core.solver.exact_eval_ratio",
        "ratio",
        ratio(
            c("core.solver.exact_evals"),
            c("core.solver.candidates_scanned"),
        ),
    );
    let (borrowed, swept) = (
        c("core.route.residual_borrowed"),
        c("core.route.residual_swept"),
    );
    put(
        "core.route.residual_borrow_ratio",
        "ratio",
        ratio(borrowed, borrowed + swept),
    );

    // graph
    put(
        "graph.apsp_build_share",
        "ratio",
        share(span_s("graph.apsp.build")),
    );
    for k in [
        "graph.apsp.sources",
        "graph.repair.insertion",
        "graph.repair.removal",
    ] {
        put(k, "count", c(k));
    }

    // traffic
    let runs = spans.child_secs(op, "traffic.run.");
    for p in DataPolicyKind::all() {
        let l = layer_label(p);
        put(
            &format!("traffic.run_share.{l}"),
            "ratio",
            share(spans.child_secs(op, &format!("traffic.run.{l}"))),
        );
    }
    let traffic_epoch = span_s("traffic.epoch");
    put("traffic.run.coverage", "ratio", ratio(traffic_epoch, runs));
    let data_plane = if traffic_epoch > 0.0 {
        (traffic_epoch - span_s("core.epoch") - span_s("core.measure")).max(0.0)
    } else {
        0.0
    };
    put("traffic.data_plane_self_share", "ratio", share(data_plane));
    put(
        "traffic.route_share",
        "ratio",
        share(span_s("traffic.route")),
    );
    put("traffic.flows.offered", "count", c("traffic.flows.offered"));
    put(
        "traffic.flows.admitted",
        "count",
        c("traffic.flows.admitted"),
    );
    put(
        "traffic.admit_ratio",
        "ratio",
        ratio(c("traffic.flows.admitted"), c("traffic.flows.offered")),
    );
    put("traffic.queue.depth.p99", "Mb", p99("traffic.queue.depth"));
    put(
        "traffic.backpressure.backlog.p99",
        "Mb",
        p99("traffic.backpressure.backlog"),
    );

    // proto
    put(
        "proto.run_fleet_share",
        "ratio",
        share(spans.child_secs(op, "proto.run_fleet")),
    );
    const CLASSES: [&str; 6] = [
        "bootstrap",
        "sync",
        "link_state",
        "measurement",
        "heartbeat",
        "control",
    ];
    let total = |dir: &str, what: &str| -> f64 {
        CLASSES
            .iter()
            .map(|class| c(&format!("proto.{dir}.{class}.{what}")))
            .sum()
    };
    let (sent, recv, bytes) = (
        total("send", "frames"),
        total("recv", "frames"),
        total("send", "bytes"),
    );
    for (what, unit) in [("frames", "count"), ("bytes", "bytes")] {
        for class in CLASSES {
            let v = c(&format!("proto.send.{class}.{what}"));
            put(&format!("proto.send.{what}.{class}"), unit, v);
        }
    }
    put("proto.recv_send_ratio", "ratio", ratio(recv, sent));
    put(
        "proto.sync_byte_share",
        "ratio",
        ratio(c("proto.send.sync.bytes"), bytes),
    );
    put("proto.gossip.forwards", "count", c("proto.gossip.forwards"));
    put(
        "proto.gossip.frames_per_announce",
        "ratio",
        ratio(c("proto.send.link_state.frames"), out.announces as f64),
    );
    for k in ["proto.ae.digests", "proto.ae.pulls", "proto.ae.pushed_lsas"] {
        put(k, "count", c(k));
    }
    put(
        "proto.ae.pull_ratio",
        "ratio",
        ratio(c("proto.ae.pulls"), c("proto.ae.digests")),
    );
    put(
        "proto.claims.corroborated",
        "count",
        c("proto.claims.corroborated"),
    );
    put(
        "proto.claims.contradicted",
        "count",
        c("proto.claims.contradicted"),
    );
    put("proto.decode_errors", "count", c("proto.decode_errors"));
    let (reach, miss) = (c("fleet.routes.reachable"), c("fleet.routes.missing"));
    put("fleet.reachability", "ratio", ratio(reach, reach + miss));

    // netsim
    for k in [
        "netsim.fault.dropped",
        "netsim.fault.cut",
        "netsim.fault.window_open",
    ] {
        put(k, "count", c(k));
    }
    m
}

// ----------------------------------------------------------------- main

/// What the command line asked for.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Recorded output fingerprint for this workload and seed.
    expect: Option<u64>,
    /// Where the traced run writes its spans.
    spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: Vec<(String, String)> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.push((flag, v));
    }
    let take = |name: &str| {
        flags
            .iter()
            .find(|(f, _)| f == name)
            .map(|(_, v)| v.clone())
    };
    if let Some((f, _)) = flags.iter().find(|(f, _)| {
        ![
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--expect",
            "--spans-out",
        ]
        .contains(&f.as_str())
    }) {
        return Err(format!("unknown flag {f}"));
    }
    let workload = take("--workload").ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seed = take("--seed").ok_or("--seed is required")?;
    let seed = seed
        .parse::<u64>()
        .map_err(|e| format!("--seed {seed}: {e}"))?;
    let seconds = take("--seconds").ok_or("--seconds is required")?;
    let seconds = match seconds.parse::<f64>() {
        Ok(s) if s > 0.0 && s <= 3600.0 => s,
        _ => return Err(format!("--seconds {seconds}: expected 0 < s <= 3600")),
    };
    let trace = match take("--trace").as_deref() {
        Some("0") => false,
        Some("1") => true,
        _ => return Err("--trace must be 0 or 1".to_string()),
    };
    let expect = match take("--expect") {
        Some(v) => Some(u64::from_str_radix(&v, 16).map_err(|e| format!("--expect {v}: {e}"))?),
        None => None,
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        expect,
        spans_out: take("--spans-out"),
    })
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Peak resident set of this process, from `VmHWM`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Seconds one host-speed probe takes on a quiet 2-core 2.1 GHz Xeon
/// host. The speed of a shared host drifts by up to ±25% over minutes,
/// so the probe runs before the first timed call and after each one,
/// and every reported time is scaled by `REF_PROBE_S` over the run's
/// median probe, raised to [`PROBE_EXPONENT`]: drift between runs does
/// not read as a change in the program.
const REF_PROBE_S: f64 = 0.02;

/// The workloads slow down more than the probe when the host is busy:
/// across runs on a 2-core Xeon host, log operation time rose 1.1 to 1.7
/// times as fast as log probe time, depending on the workload. Over five
/// ten-seed sets of all four workloads taken within two hours, the
/// medians of the sets agreed within 12% on every workload with this
/// exponent; with exponent 1 they differed by up to 22%, and unscaled by
/// up to 58%.
const PROBE_EXPONENT: f64 = 1.5;

/// Host-speed probe: a fixed number of dependent loads over a 4 MiB
/// table, then a fixed number of independent fused multiply-adds.
/// Memory-bound and compute-bound code slow down differently when the
/// host is busy, and the workloads have both. Returns the median wall
/// seconds of five passes.
fn probe_secs() -> f64 {
    static TABLE: std::sync::OnceLock<Vec<u32>> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let n = 1u32 << 20;
        (0..n).map(|i| i.wrapping_mul(2_654_435_761) % n).collect()
    });
    let pass = || {
        let t = Instant::now();
        let mut idx = 1u32;
        for _ in 0..750_000 {
            idx = (table[idx as usize] ^ (idx >> 3)) % table.len() as u32;
        }
        let mut acc = [1.0f64; 8];
        for i in 0..PROBE_FMA_ROUNDS {
            let x = (i & 1023) as f64 * 1e-9;
            for a in acc.iter_mut() {
                *a = a.mul_add(0.999_999_9, x);
            }
        }
        std::hint::black_box((idx, acc));
        t.elapsed().as_secs_f64()
    };
    median(&[pass(), pass(), pass(), pass(), pass()])
}

const PROBE_FMA_ROUNDS: u64 = 300_000;

/// The host-speed probes of one run.
struct HostSpeed {
    probes: Vec<f64>,
}

impl HostSpeed {
    fn new() -> Self {
        HostSpeed {
            probes: vec![probe_secs()],
        }
    }

    /// Run `f` and probe after it; return its value and wall seconds.
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let t = Instant::now();
        let v = f();
        let wall = t.elapsed().as_secs_f64();
        self.probes.push(probe_secs());
        (v, wall)
    }

    /// Factor from wall seconds to seconds at the reference speed.
    fn scale(&self) -> f64 {
        (REF_PROBE_S / median(&self.probes)).powf(PROBE_EXPONENT)
    }
}

/// Call `step` at least once and again while less than `budget` has
/// passed. Returns what each call returned.
fn repeat_for<T>(budget: Duration, mut step: impl FnMut() -> T) -> Vec<T> {
    let t0 = Instant::now();
    let mut out = vec![step()];
    while t0.elapsed() < budget {
        out.push(step());
    }
    out
}

/// Constructions timed for `setup_s` after each operation; the metric
/// is their median over the run. They are spread over the run like the
/// operations, so a brief host slowdown does not set the median, and the
/// heap is warm from an operation when they run. Timed back to back
/// before the operations instead, glibc returned the freed heap top to
/// the OS after the constructions of some seeds and not others, and
/// `fleet_gossip`'s set-up read 0.9 ms on some seeds and 3 ms on others.
const SETUPS_PER_OP: usize = 4;

/// Checks one operation's output against the reference fingerprint (or
/// the run's first operation) and its invariants.
struct Checker {
    expect: Option<u64>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn check(&mut self, out: &OpOut) {
        self.attempted += 1;
        let expect = *self.expect.get_or_insert(out.fingerprint);
        let problem = if out.fingerprint != expect {
            Some(format!(
                "fingerprint {:016x} != reference {expect:016x}",
                out.fingerprint
            ))
        } else {
            out.invalid.clone()
        };
        if let Some(p) = problem {
            self.failed += 1;
            eprintln!("perfbench: operation {} failed: {p}", self.attempted);
        }
    }
}

fn metric_json(name: &str, unit: &str, v: f64) -> String {
    let v = if v.is_finite() { v } else { 0.0 };
    format!("\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}")
}

/// The end-to-end metrics, `egoist_obs` off.
fn run_untraced(args: &Args, workload: &Workload, checker: &mut Checker) -> Vec<String> {
    let mut host = HostSpeed::new();
    let mut spans = Spans::new();
    let mut setup = Vec::new();
    let ops = repeat_for(Duration::from_secs_f64(args.seconds), || {
        let (out, wall) = host.time(|| {
            let op = spans.open("op", None);
            let out = workload.run(&mut spans, op);
            spans.close(op);
            out
        });
        checker.check(&out);
        setup.extend((0..SETUPS_PER_OP).map(|_| workload.setup_once()));
        (out, wall)
    });
    let scale = host.scale();
    let setup_s = median(&setup) * scale;
    let op_wall = median(&ops.iter().map(|(_, s)| *s).collect::<Vec<_>>());
    let op_s = op_wall * scale;
    let out = &ops[0].0;
    let rate = out.virtual_s / op_s;
    let rss = peak_rss_mb();

    // For readers: the unscaled wall time and the workload's own work
    // rates. The gated metrics are the JSON line.
    let mut summary = format!(
        "# {} seed={} ops={} fingerprint={:016x} wall_op_s={op_wall:.4}s scale={scale:.4} \
         setup_s={setup_s:.6}s virtual_s_per_s={rate:.3}s/s peak_rss_mb={rss:.1}MB",
        args.workload,
        args.seed,
        ops.len(),
        out.fingerprint,
    );
    if out.turns > 0 {
        let _ = write!(summary, " turns_per_s={:.1}/s", out.turns as f64 / op_s);
    }
    if out.flows > 0 {
        let _ = write!(summary, " flows_per_s={:.1}/s", out.flows as f64 / op_s);
    }
    println!("{summary}");
    vec![
        metric_json("setup_s", "s", setup_s),
        metric_json("virtual_s_per_s", "s/s", rate),
        metric_json("peak_rss_mb", "MB", rss),
    ]
}

/// The per-layer metrics: untraced and traced operations alternate;
/// the registry is reset before each traced one and read after it.
fn run_traced(
    args: &Args,
    workload: &Workload,
    checker: &mut Checker,
) -> Result<Vec<String>, String> {
    let mut host = HostSpeed::new();
    let mut spans = Spans::new();
    let pairs = repeat_for(Duration::from_secs_f64(args.seconds), || {
        let (out, untraced) = host.time(|| {
            let op = spans.open("op", None);
            let out = workload.run(&mut spans, op);
            spans.close(op);
            out
        });
        checker.check(&out);

        egoist_obs::registry().reset();
        egoist_obs::enable();
        let ((op, out), traced) = host.time(|| {
            let op = spans.open("op.traced", None);
            let out = workload.run(&mut spans, op);
            spans.close(op);
            (op, out)
        });
        egoist_obs::disable();
        checker.check(&out);
        let layers = layer_metrics(&spans, op, &out);
        (untraced, traced, layers)
    });
    let untraced = median(&pairs.iter().map(|p| p.0).collect::<Vec<_>>());
    let traced = median(&pairs.iter().map(|p| p.1).collect::<Vec<_>>());
    let mut metrics = vec![
        metric_json("obs.trace_overhead", "ratio", traced / untraced),
        metric_json("obs.traced_op_s", "s", traced * host.scale()),
    ];
    for (i, (name, unit, _)) in pairs[0].2.iter().enumerate() {
        let vals: Vec<f64> = pairs.iter().map(|p| p.2[i].2).collect();
        metrics.push(metric_json(name, unit, median(&vals)));
    }
    if let Some(path) = &args.spans_out {
        std::fs::write(path, spans.to_json()).map_err(|e| format!("write {path}: {e}"))?;
    }
    Ok(metrics)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let workload = Workload::from_name(&args.workload, args.seed).expect("validated name");
    let mut checker = Checker {
        expect: args.expect,
        attempted: 0,
        failed: 0,
    };
    let metrics = if args.trace {
        run_traced(&args, &workload, &mut checker).unwrap_or_else(|e| {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        })
    } else {
        run_untraced(&args, &workload, &mut checker)
    };
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        checker.failed == 0,
        checker.attempted,
        checker.failed,
        metrics.join(",")
    );
}
