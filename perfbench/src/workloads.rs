//! The two workloads and the runs the benchmark makes of them.
//!
//! Every run is closed loop: one simulation at a time, back to back.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use tcc_bench::{fig6_sizes, fig7_sizes, iters_for, prototype};
use tccluster::engine::{pattern_pairs, DEFAULT_DRAIN};
use tccluster::firmware::topology::ClusterTopology;
use tccluster::ht::link::LinkConfig;
use tccluster::msglib::{SendMode, MAX_EAGER};
use tccluster::opteron::UarchParams;
use tccluster::{
    EngineKind, EngineOptions, EventEngine, SimCluster, StageProfile, TcclusterBuilder,
    TrafficPattern, WorkloadReport,
};

use crate::alloc;
use crate::checks::{
    anchor_err_pct, check_report, Digest, Expect, ANCHOR_TOL_PCT, PAPER_BW64_MBPS, PAPER_LAT64_NS,
};
use crate::clock::{self, Clock, RawTrace};
use crate::stats::median;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    A2a,
    A2aT2,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::A2a, Workload::A2aT2];

    pub fn name(self) -> &'static str {
        match self {
            Workload::A2a => "a2a-8x8",
            Workload::A2aT2 => "a2a-8x8-t2",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// 8×8 mesh of two-socket supernodes.
const MESH: ClusterTopology = ClusterTopology::Mesh { x: 8, y: 8 };
pub const MESH_SUPERNODES: usize = 64;
/// 4 KB per all-to-all flow: 4032 flows, about 8M events per run.
const A2A_FLOW_BYTES: u64 = 4 << 10;
/// Report digests recorded with the benchmark. The threaded all-to-all
/// must reproduce the single-thread digest bit for bit.
const A2A_DIGEST: u64 = 0x9ec7_c4be_2335_8917;
/// Digest of every value the prototype sweep ([`sweep`]) produces.
const SWEEP_DIGEST: u64 = 0xc707_c8b4_64a1_8ad4;

/// One event-engine workload, fully specified.
#[derive(Debug, Clone, Copy)]
pub struct EventSpec {
    pub threads: usize,
    pub pattern: TrafficPattern,
    pub expect: Expect,
}

impl EventSpec {
    pub fn of(w: Workload) -> EventSpec {
        let threads = match w {
            Workload::A2a => 1,
            Workload::A2aT2 => 2,
        };
        EventSpec {
            threads,
            pattern: TrafficPattern::AllToAll,
            expect: Expect {
                bytes_per_flow: A2A_FLOW_BYTES,
                flows: MESH_SUPERNODES * (MESH_SUPERNODES - 1),
                digest: A2A_DIGEST,
            },
        }
    }

    pub fn builder(&self) -> TcclusterBuilder {
        TcclusterBuilder::new()
            .topology(MESH)
            .processors_per_supernode(2)
            .engine(EngineKind::EventDriven)
            .event_threads(self.threads)
    }

    /// Check a report, with the recorded digest and the first report of
    /// this process as references.
    fn check(&self, r: &WorkloadReport, first: &mut Option<WorkloadReport>) -> Vec<String> {
        let mut bad = check_report(r, &self.expect);
        match first {
            Some(f) if f != r => bad.push("report differs from this process's first run".into()),
            Some(_) => {}
            None => *first = Some(r.clone()),
        }
        bad
    }
}

/// Samples of the timed runs and their check results.
#[derive(Debug, Default)]
pub struct Timed {
    pub setup_s: Vec<f64>,
    pub run_s: Vec<f64>,
    pub peak_mib: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Simulated goodput of the first run's report.
    pub goodput_mbps: f64,
    pub lat64_ns: f64,
    pub bw64_mbps: f64,
    /// The first run's report.
    pub report: Option<WorkloadReport>,
}

impl Timed {
    pub fn record(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems);
        }
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Whether another repeat as long as the one begun at `start` still ends
/// by `end`: a run stops before it would overrun its time.
fn another_fits(start: Instant, end: Instant) -> bool {
    Instant::now() + start.elapsed() <= end
}

fn panic_text(e: &(dyn std::any::Any + Send)) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".into())
}

/// The paper's 64 B anchors on the 2-node prototype built by `b`.
fn anchors(b: &TcclusterBuilder) -> (f64, f64) {
    let mut c = b.build_sim();
    (
        c.pingpong(0, 1, 64, 100).nanos(),
        c.stream_bandwidth(0, 1, 64, SendMode::WeaklyOrdered, 50),
    )
}

fn anchor_problems(lat: f64, bw: f64) -> Vec<String> {
    let mut bad = Vec::new();
    for (name, got, paper) in [
        ("64 B half-RTT", lat, PAPER_LAT64_NS),
        ("64 B stream", bw, PAPER_BW64_MBPS),
    ] {
        let err = anchor_err_pct(got, paper);
        if err.is_nan() || err > ANCHOR_TOL_PCT {
            bad.push(format!(
                "{name} {got:.1} drifted beyond {ANCHOR_TOL_PCT} % of the paper's {paper}"
            ));
        }
    }
    bad
}

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 30;

/// Time [`SETUPS`] back-to-back set-ups; each is dropped, untimed,
/// before the next.
fn time_setups(t: &mut Timed, setup: impl Fn() -> SimCluster) {
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let c = setup();
        t.setup_s.push(secs(t0));
        drop(c);
    }
}

/// Time the set-ups, then build-and-run repeats within `seconds`: each
/// repeat times `run_workload` and checks the report. The paper's anchors
/// are measured on the event engine with the same thread count.
pub fn timed_event(spec: &EventSpec, seconds: f64) -> Timed {
    let mut t = Timed::default();
    let b = spec.builder();
    let (lat, bw) = anchors(
        &TcclusterBuilder::new()
            .engine(EngineKind::EventDriven)
            .event_threads(spec.threads),
    );
    (t.lat64_ns, t.bw64_mbps) = (lat, bw);
    let anchor_bad = anchor_problems(lat, bw);
    time_setups(&mut t, || b.build_sim());
    let mut first = None;
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    loop {
        let repeat = Instant::now();
        alloc::reset_peak();
        let mut c = b.build_sim();
        let t0 = Instant::now();
        let r = catch_unwind(AssertUnwindSafe(|| {
            c.run_workload(spec.pattern, spec.expect.bytes_per_flow)
        }));
        t.run_s.push(secs(t0));
        t.peak_mib.push(alloc::peak_mib());
        drop(c);
        let mut bad = anchor_bad.clone();
        match r {
            Ok(r) => bad.extend(spec.check(&r, &mut first)),
            Err(e) => bad.push(format!("run panicked: {}", panic_text(&*e))),
        }
        t.record(bad);
        if !another_fits(repeat, end) {
            break;
        }
    }
    if let Some(r) = &first {
        t.goodput_mbps = r.aggregate_goodput_mbps();
    }
    t.report = first;
    t
}

/// Per-call spans of one prototype sweep, seconds, and its values.
#[derive(Debug, Clone, Default)]
pub struct Sweep {
    pub values: Vec<f64>,
    pub eager_s: f64,
    pub rdvz_s: f64,
    pub pingpong_s: f64,
    pub wall_s: f64,
    pub lat64_ns: f64,
    pub bw64_mbps: f64,
}

impl Sweep {
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        self.values.iter().for_each(|&v| d.f64(v));
        d.value()
    }

    pub fn span_sum_s(&self) -> f64 {
        self.eager_s + self.rdvz_s + self.pingpong_s
    }
}

/// The 2-node prototype's sweep on one thread: Fig. 6 (weak and strict
/// ordering) over `fig6`, Fig. 7 over `fig7`, then the 64 B headline
/// ping-pong and stream. Each simulation call is timed on its own.
pub fn sweep(c: &mut SimCluster, fig6: &[usize], fig7: &[usize]) -> Sweep {
    let mut s = Sweep::default();
    let all = Instant::now();
    let stream = |c: &mut SimCluster, s: &mut Sweep, size, mode, iters| {
        let t0 = Instant::now();
        let v = c.stream_bandwidth(0, 1, size, mode, iters);
        let dt = secs(t0);
        if size <= MAX_EAGER {
            s.eager_s += dt;
        } else {
            s.rdvz_s += dt;
        }
        s.values.push(v);
        v
    };
    let pingpong = |c: &mut SimCluster, s: &mut Sweep, size, iters| {
        let t0 = Instant::now();
        let v = c.pingpong(0, 1, size, iters).nanos();
        s.pingpong_s += secs(t0);
        s.values.push(v);
        v
    };
    for &size in fig6 {
        for mode in [SendMode::WeaklyOrdered, SendMode::StrictlyOrdered] {
            stream(c, &mut s, size, mode, iters_for(size));
        }
    }
    for &size in fig7 {
        pingpong(c, &mut s, size, 50);
    }
    s.lat64_ns = pingpong(c, &mut s, 64, 100);
    s.bw64_mbps = stream(c, &mut s, 64, SendMode::WeaklyOrdered, 50);
    s.wall_s = secs(all);
    s
}

/// `n` sweeps, each on a freshly booted prototype, checked against the
/// recorded digest and the paper's anchors.
pub fn prototype_sweeps(n: usize, t: &mut Timed) -> Vec<Sweep> {
    let (fig6, fig7) = (fig6_sizes(), fig7_sizes());
    (0..n)
        .map(|_| {
            let s = sweep(&mut prototype(), &fig6, &fig7);
            let mut bad = anchor_problems(s.lat64_ns, s.bw64_mbps);
            if s.digest() != SWEEP_DIGEST {
                bad.push(format!(
                    "sweep digest {:#018x} differs from the recorded {SWEEP_DIGEST:#018x}",
                    s.digest()
                ));
            }
            t.record(bad);
            s
        })
        .collect()
}

/// Counters and spans of one untimed, untraced event run, driven through
/// the engine's public calls in the order `run_workload` makes them.
#[derive(Debug, Default)]
pub struct Counts {
    pub boot_s: f64,
    pub build_s: f64,
    pub events: u64,
    pub packets: u64,
    pub payload_bytes: u64,
    pub allocs_in_loop: u64,
    pub stalls: u64,
    pub nops: u64,
    pub forwards: u64,
    pub wire_bytes: u64,
    pub max_port_busy_pct: f64,
}

/// Spans of one manual drive of the engine (see [`drive`]), seconds.
#[derive(Debug, Default)]
pub struct Drive {
    pub build_s: f64,
    pub add_flows_s: f64,
    pub loop_s: f64,
    pub audit_s: f64,
    pub reports_s: f64,
    pub allocs_in_loop: u64,
    pub reads_in_loop: u64,
    pub profile: StageProfile,
}

impl Drive {
    pub fn wall_s(&self) -> f64 {
        self.build_s + self.add_flows_s + self.loop_s + self.audit_s + self.reports_s
    }
}

/// `SimCluster::run_workload` replayed call by call from outside, each
/// public call timed: reset the nodes and build the engine
/// (`EventEngine::with_options`), register the flows, run to quiescence,
/// audit credits, collect the flow reports. Returns the engine too, for
/// its counters.
fn drive(
    c: &mut SimCluster,
    spec: &EventSpec,
    profile_clock: Option<Clock>,
) -> (Drive, Result<WorkloadReport, String>, EventEngine) {
    let mut d = Drive::default();
    let mut opts = c.engine_options();
    opts.profile_clock = profile_clock;
    let t0 = Instant::now();
    for node in &mut c.platform.nodes {
        node.quiesce();
        node.raw_egress = true;
    }
    let mut e = EventEngine::with_options(&mut c.platform, DEFAULT_DRAIN, opts);
    d.build_s = secs(t0);
    let t0 = Instant::now();
    for (src, dst) in pattern_pairs(&c.spec(), spec.pattern) {
        e.add_flow(&mut c.platform, src, dst, spec.expect.bytes_per_flow);
    }
    d.add_flows_s = secs(t0);
    let (a0, r0) = (alloc::allocs(), clock::reads());
    let t0 = Instant::now();
    let looped = catch_unwind(AssertUnwindSafe(|| e.run_quiescent(&mut c.platform)));
    d.loop_s = secs(t0);
    (d.allocs_in_loop, d.reads_in_loop) = (alloc::allocs() - a0, clock::reads() - r0);
    if let Err(p) = looped {
        return (d, Err(format!("run panicked: {}", panic_text(&*p))), e);
    }
    let t0 = Instant::now();
    let audit = catch_unwind(AssertUnwindSafe(|| e.assert_quiescent_credits()));
    d.audit_s = secs(t0);
    if let Err(p) = audit {
        return (d, Err(format!("credit audit: {}", panic_text(&*p))), e);
    }
    let t0 = Instant::now();
    let flows = e.flow_reports();
    d.reports_s = secs(t0);
    d.profile = e.stage_profile();
    let report = WorkloadReport {
        stalls_no_credit: e.stalls_no_credit(),
        events: e.events_handled(),
        elapsed: e.now(),
        injected_packets: flows.iter().map(|f| f.injected_packets).sum(),
        delivered_packets: e.commits().len() as u64,
        flows,
    };
    (d, Ok(report), e)
}

fn forwards(c: &SimCluster) -> u64 {
    c.platform
        .nodes
        .iter()
        .map(|n| n.nb.packets_forwarded)
        .sum()
}

/// The workload's cluster booted on the chained engine with the
/// workload's executive options: `SimCluster::boot` with the thread count
/// carried, ready for [`drive`] to mount an event engine.
fn boot_for(spec: &EventSpec) -> SimCluster {
    SimCluster::boot_engine_opts(
        spec.builder().spec(),
        UarchParams::shanghai(),
        LinkConfig::PROTOTYPE,
        EngineKind::Chained,
        EngineOptions {
            threads: spec.threads,
            ..EngineOptions::default()
        },
    )
}

/// The untimed count run: boot spans, engine counters, allocations in
/// the event loop, per-port wire occupancy.
pub fn count_run(spec: &EventSpec, t: &mut Timed) -> Counts {
    let mut boots = Vec::new();
    let mut cluster = None;
    for _ in 0..3 {
        drop(cluster.take());
        let t0 = Instant::now();
        cluster = Some(boot_for(spec));
        boots.push(secs(t0));
    }
    let mut c = cluster.expect("booted three times");
    let fwd0 = forwards(&c);
    let (d, r, e) = drive(&mut c, spec, None);
    let mut k = Counts {
        boot_s: median(&boots),
        build_s: d.build_s,
        allocs_in_loop: d.allocs_in_loop,
        events: e.events_handled(),
        stalls: e.stalls_no_credit(),
        nops: e.nops_sent(),
        forwards: forwards(&c) - fwd0,
        ..Counts::default()
    };
    let elapsed_s = e.now().picos() as f64 / 1e12;
    for (node, link) in e.port_ids() {
        let Some(port) = e.port(node, link) else {
            continue;
        };
        let wire = port.tx().stats.wire_bytes_sent;
        k.wire_bytes += wire;
        let rate = port.tx().config.effective_bytes_per_sec() as f64;
        k.max_port_busy_pct = k
            .max_port_busy_pct
            .max(100.0 * wire as f64 / rate / elapsed_s);
    }
    match r {
        Ok(r) => {
            k.packets = r.delivered_packets;
            k.payload_bytes = r.flows.iter().map(|f| f.delivered_bytes).sum();
            t.record(spec.check(&r, &mut None));
        }
        Err(p) => t.record(vec![p]),
    }
    k
}

/// The traced run: the same drive with the calibrated clock injected.
pub fn traced_run(spec: &EventSpec, clock: Clock, t: &mut Timed) -> (Drive, RawTrace) {
    let mut c = boot_for(spec);
    let (d, r, e) = drive(&mut c, spec, Some(clock));
    match r {
        Ok(r) => t.record(spec.check(&r, &mut None)),
        Err(p) => t.record(vec![p]),
    }
    let p = d.profile;
    let raw = RawTrace {
        queue_ns: p.queue_ns,
        mailbox_ns: p.mailbox_ns,
        exec_ns: p.exec_ns,
        route_ns: p.route_ns,
        credit_ns: p.credit_ns,
        deliver_ns: p.deliver_ns,
        events: e.events_handled(),
        sampled: p.sampled_events,
        reads: d.reads_in_loop,
        wall_ns: d.wall_s() * 1e9,
        outer_ns: (d.wall_s() - d.loop_s) * 1e9,
        threads: spec.threads as u32,
    };
    (d, raw)
}

/// The recording run: `run_workload` with the recorder mounted.
pub fn recording_run(spec: &EventSpec, t: &mut Timed) -> crate::replay::Recording {
    let mut c = spec.builder().build_sim();
    let rec = crate::replay::mount(&mut c);
    let r = catch_unwind(AssertUnwindSafe(|| {
        c.run_workload(spec.pattern, spec.expect.bytes_per_flow)
    }));
    c.platform.clear_monitors();
    match r {
        Ok(r) => t.record(spec.check(&r, &mut None)),
        Err(p) => t.record(vec![format!("recording run panicked: {}", panic_text(&*p))]),
    }
    std::rc::Rc::try_unwrap(rec)
        .expect("monitor dropped")
        .into_inner()
}

/// Issue `n` 64 B write-combined stores on node 0 of the prototype and
/// propagate each (`Node::store` + `Platform::propagate`). Returns
/// (ns per store, allocations per store) after a warm-up.
pub fn store_span(n: u64) -> (f64, f64) {
    use tccluster::fabric::time::SimTime;
    let mut c = prototype();
    let dst = c.spec().node_base(1, 0);
    let mut sink = tccluster::opteron::ActionSink::new();
    let mut commits = Vec::new();
    let mut run = |c: &mut SimCluster, n: u64| {
        c.reset_timebase();
        let mut now = SimTime::ZERO;
        for i in 0..n {
            let addr = dst + (i * 64) % (256 << 10);
            let out = c.platform.nodes[0].store(now, addr, &[0u8; 64], &mut sink);
            now = out.issued;
            commits.clear();
            c.platform.propagate(0, &mut sink, &mut commits);
        }
    };
    run(&mut c, n / 10);
    let a0 = alloc::allocs();
    let t0 = Instant::now();
    run(&mut c, n);
    let ns = t0.elapsed().as_nanos() as f64 / n as f64;
    (ns, (alloc::allocs() - a0) as f64 / n as f64)
}
