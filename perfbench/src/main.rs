//! `tcc-perfbench`: the repository benchmark.
//!
//! ```text
//! tcc-perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload back to back within `--seconds`, checks every output,
//! and prints a metric table followed by one JSON result line; `all` runs
//! every workload in turn, each with its own table and result line. With
//! `--trace 0` the metrics are the end-to-end ones, from untraced runs;
//! with `--trace 1` they are the per-layer ones, from the same timed runs
//! plus a count run, a recording run with its layer replays, a separate
//! traced run, and sweeps of the 2-node prototype for the store path. See
//! README.md for every metric.

// A benchmark is the legitimate consumer of wall-clock time.
#![allow(clippy::disallowed_methods)]

mod alloc;
mod checks;
mod clock;
mod replay;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;

use stats::{fastest, median};
use workloads::{EventSpec, Timed, Workload};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// End-to-end metrics: (name, unit). Printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_heap_mib", "MiB"),
    ("pass_pct", "%"),
    ("goodput_mbps", "MB/s"),
    ("lat64_err_pct", "%"),
    ("bw64_err_pct", "%"),
];

/// Per-layer metrics: (name, unit). Printed with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("event.queue_ns_per_event", "ns"),
    ("engine.exec_ns_per_event", "ns"),
    ("engine.other_exec_ns_per_event", "ns"),
    ("handoff.ns_per_event", "ns"),
    ("link.credit_ns_per_event", "ns"),
    ("nb.route_ns_per_event", "ns"),
    ("node.deliver_ns_per_event", "ns"),
    ("engine.outer_ns_per_event", "ns"),
    ("engine.flow_reports_ns_per_event", "ns"),
    ("engine.traced_ns_per_event", "ns"),
    ("engine.unattributed_pct", "%"),
    ("engine.split_out_of_band", "count"),
    ("engine.trace_overhead_pct", "%"),
    ("engine.clock_ns_per_read", "ns"),
    ("engine.clock_reads_per_event", "count"),
    ("engine.shard_visits", "count"),
    ("engine.events_per_visit", "count"),
    ("engine.events_per_s", "1/s"),
    ("engine.events", "count"),
    ("engine.events_per_packet", "count"),
    ("engine.allocs_per_event", "count"),
    ("firmware.boot_s", "s"),
    ("engine.build_s", "s"),
    ("link.stalls_per_packet", "count"),
    ("link.nops_per_packet", "count"),
    ("link.arrivals_per_packet", "count"),
    ("link.max_port_busy_pct", "%"),
    ("link.wire_bytes_per_payload_byte", "count"),
    ("link.rx_ns", "ns"),
    ("nb.forwards_per_packet", "count"),
    ("nb.dispose_ns", "ns"),
    ("nb.flat_lookup_ns", "ns"),
    ("nb.flat_hit_pct", "%"),
    ("node.deliver_routed_ns", "ns"),
    ("node.deliver_flat_ns", "ns"),
    ("node.store_ns", "ns"),
    ("node.allocs_per_store", "count"),
    ("sim.stream_eager_s", "s"),
    ("sim.stream_rdvz_s", "s"),
    ("sim.pingpong_s", "s"),
    ("sim.span_cover_pct", "%"),
];

/// Sub-stages whose region count cannot be seen from outside the engine:
/// reported as read, clock cost included.
const RAW: [&str; 3] = [
    "link.credit_ns_per_event",
    "nb.route_ns_per_event",
    "node.deliver_ns_per_event",
];

/// Out-of-band limit for the stage split (ROADMAP item 1b).
const UNATTRIBUTED_LIMIT_PCT: f64 = 10.0;

/// Replay passes per layer; the median pass is reported.
const REPLAY_PASSES: usize = 5;

/// Stores timed by the `node.store_ns` span.
const STORE_SPAN_STORES: u64 = 200_000;

/// Prototype sweeps behind the `sim.*` spans; the median sweep is reported.
const SWEEPS: usize = 5;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workloads, mut seed, mut seconds, mut trace) = (None, 0, None, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workloads = Some(if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&value).ok_or_else(|| bad("workload name or all"))?]
                });
            }
            "--seed" => seed = value.parse().map_err(|_| bad("unsigned integer"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("positive number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    Ok(Args {
        workloads: workloads.ok_or(format!("--workload required: one of {names:?} or all"))?,
        seed,
        seconds: seconds.ok_or("--seconds required")?,
        trace,
    })
}

/// Metric values by name; emitted in declaration order.
type Metrics = BTreeMap<&'static str, f64>;

fn end_to_end(t: &Timed) -> Metrics {
    let mut m = Metrics::default();
    m.insert("setup_s", median(&t.setup_s));
    // The fastest repeat: interference from other tenants on a shared
    // host only ever slows a run down (see README.md, "Noise").
    m.insert("run_s", fastest(&t.run_s));
    m.insert("peak_heap_mib", median(&t.peak_mib));
    let passed = t.attempted - t.failed;
    m.insert(
        "pass_pct",
        100.0 * passed as f64 / t.attempted.max(1) as f64,
    );
    m.insert("goodput_mbps", t.goodput_mbps);
    m.insert(
        "lat64_err_pct",
        checks::anchor_err_pct(t.lat64_ns, checks::PAPER_LAT64_NS),
    );
    m.insert(
        "bw64_err_pct",
        checks::anchor_err_pct(t.bw64_mbps, checks::PAPER_BW64_MBPS),
    );
    m
}

/// Calibrate the profile clock: (clock, source name, empty-region ns).
fn calibrate() -> (clock::Clock, &'static str, f64) {
    let (clk, source) = clock::select();
    (clk, source, clock::empty_region_ns(clk, 200_000))
}

fn per_layer_event(spec: &EventSpec, t: &mut Timed) -> Metrics {
    let mut m = Metrics::default();
    let k = workloads::count_run(spec, t);
    let packets = k.packets.max(1) as f64;
    let events = k.events.max(1) as f64;
    m.insert("engine.events_per_s", k.events as f64 / fastest(&t.run_s));
    m.insert("engine.events", k.events as f64);
    m.insert("engine.events_per_packet", events / packets);
    m.insert("engine.allocs_per_event", k.allocs_in_loop as f64 / events);
    m.insert("firmware.boot_s", k.boot_s);
    m.insert("engine.build_s", k.build_s);
    m.insert("link.stalls_per_packet", k.stalls as f64 / packets);
    m.insert("link.nops_per_packet", k.nops as f64 / packets);
    m.insert("link.max_port_busy_pct", k.max_port_busy_pct);
    m.insert(
        "link.wire_bytes_per_payload_byte",
        k.wire_bytes as f64 / k.payload_bytes.max(1) as f64,
    );
    m.insert("nb.forwards_per_packet", k.forwards as f64 / packets);

    let rec = workloads::recording_run(spec, t);
    let mix = rec.mix;
    let arrivals = mix.flat + mix.general + mix.nop;
    m.insert("link.arrivals_per_packet", arrivals as f64 / packets);
    replay_metrics(&mut m, &rec.kept, spec.builder().build_sim(), t);

    let (clk, source, c) = calibrate();
    let (d, raw) = workloads::traced_run(spec, clk, t);
    let split = clock::correct(&raw, mix, c);
    m.insert("event.queue_ns_per_event", split.queue);
    m.insert("engine.exec_ns_per_event", split.exec);
    m.insert("engine.other_exec_ns_per_event", split.other_exec);
    m.insert("handoff.ns_per_event", split.mailbox);
    m.insert("link.credit_ns_per_event", split.credit_raw);
    m.insert("nb.route_ns_per_event", split.route_raw);
    m.insert("node.deliver_ns_per_event", split.deliver_raw);
    m.insert(
        "engine.outer_ns_per_event",
        split.outer - d.reports_s * 1e9 / events,
    );
    m.insert(
        "engine.flow_reports_ns_per_event",
        d.reports_s * 1e9 / events,
    );
    m.insert("engine.traced_ns_per_event", split.traced);
    m.insert("engine.unattributed_pct", split.unattributed_pct);
    let out_of_band = split.unattributed_pct.abs() > UNATTRIBUTED_LIMIT_PCT;
    m.insert("engine.split_out_of_band", f64::from(u8::from(out_of_band)));
    m.insert(
        "engine.trace_overhead_pct",
        100.0 * (d.wall_s() / median(&t.run_s) - 1.0),
    );
    m.insert("engine.clock_ns_per_read", c);
    m.insert("engine.clock_reads_per_event", raw.reads as f64 / events);
    m.insert("engine.shard_visits", d.profile.epochs as f64);
    m.insert(
        "engine.events_per_visit",
        d.profile.profiled_events as f64 / d.profile.epochs.max(1) as f64,
    );
    println!(
        "calibration: {source} clock, {c:.2} ns per empty region, {} reads in the \
         traced loop, {:.0} mailbox regions implied by the read count",
        raw.reads, split.mailbox_regions
    );
    if spec.threads == 1 {
        println!(
            "  the sequential executive makes {} (shards + shard visits)",
            workloads::MESH_SUPERNODES as u64 + d.profile.epochs
        );
    }
    if out_of_band {
        println!(
            "FLAG: stage split out of band: |unattributed| = {:.1} % > {UNATTRIBUTED_LIMIT_PCT} %",
            split.unattributed_pct.abs()
        );
    }
    m
}

fn replay_metrics(
    m: &mut Metrics,
    kept: &[replay::Arrival],
    mut fresh: tccluster::SimCluster,
    t: &mut Timed,
) {
    let lt = replay::replay(kept, &mut fresh, REPLAY_PASSES);
    m.insert("link.rx_ns", lt.rx_ns);
    m.insert("nb.dispose_ns", lt.dispose_ns);
    m.insert("nb.flat_lookup_ns", lt.flat_lookup_ns);
    m.insert("nb.flat_hit_pct", lt.flat_hit_pct);
    m.insert("node.deliver_routed_ns", lt.deliver_routed_ns);
    m.insert("node.deliver_flat_ns", lt.deliver_flat_ns);
    let mut bad = Vec::new();
    if lt.errors > 0 {
        bad.push(format!("{} replayed calls returned errors", lt.errors));
    }
    t.record(bad);
}

/// The store path, which neither workload's run goes through: the
/// `sim.*` spans of the 2-node prototype's sweep on the chained engine,
/// and the `node.store_ns` span.
fn store_path(m: &mut Metrics, t: &mut Timed) {
    let sweeps = workloads::prototype_sweeps(SWEEPS, t);
    let spans = |f: fn(&workloads::Sweep) -> f64| median(&sweeps.iter().map(f).collect::<Vec<_>>());
    m.insert("sim.stream_eager_s", spans(|s| s.eager_s));
    m.insert("sim.stream_rdvz_s", spans(|s| s.rdvz_s));
    m.insert("sim.pingpong_s", spans(|s| s.pingpong_s));
    m.insert(
        "sim.span_cover_pct",
        spans(|s| 100.0 * s.span_sum_s() / s.wall_s),
    );
    let (store_ns, allocs) = workloads::store_span(STORE_SPAN_STORES);
    m.insert("node.store_ns", store_ns);
    m.insert("node.allocs_per_store", allocs);
    println!("sweep digest {:#018x}", sweeps[0].digest());
}

fn emit(w: Workload, t: &Timed, m: &Metrics, declared: &[(&'static str, &'static str)]) {
    let mut ok = t.failed == 0;
    println!(
        "tcc-perfbench {}: {} runs checked, {} failed",
        w.name(),
        t.attempted,
        t.failed
    );
    for (name, xs) in [("setup_s", &t.setup_s), ("run_s", &t.run_s)] {
        let mut v = xs.clone();
        v.sort_by(f64::total_cmp);
        let list: Vec<String> = v.iter().map(|x| format!("{x:.6}")).collect();
        println!("  {name} samples (n={}): {}", v.len(), list.join(" "));
    }
    let mut problems = t.problems.clone();
    problems.sort();
    problems.dedup();
    for p in &problems {
        println!("FAIL: {p}");
    }
    let mut json = Vec::new();
    for &(name, unit) in declared {
        let v = m.get(name).copied().unwrap_or(f64::NAN);
        if !v.is_finite() {
            println!("FAIL: metric {name} is not a finite number");
            ok = false;
        }
        let note = if RAW.contains(&name) {
            "  [raw: region count not visible from outside]"
        } else {
            ""
        };
        println!("  {name:<36} {v:>16.4} {unit}{note}");
        let v = if v.is_finite() { v } else { 0.0 };
        json.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {ok}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.attempted,
        t.failed,
        json.join(", ")
    );
}

/// Run one workload and print its table and result line.
fn run(w: Workload, args: &Args) {
    // Every workload's input is fixed, so the seed selects nothing; it
    // is printed so that a result names the run it came from.
    println!("workload {} seed {}", w.name(), args.seed);
    let spec = EventSpec::of(w);
    let mut t = workloads::timed_event(&spec, args.seconds);
    let (metrics, declared): (Metrics, &[(&str, &str)]) = if args.trace {
        let mut m = per_layer_event(&spec, &mut t);
        store_path(&mut m, &mut t);
        (m, &PER_LAYER)
    } else {
        (end_to_end(&t), &END_TO_END)
    };
    if let Some(r) = &t.report {
        println!("report digest {:#018x}", checks::report_digest(r));
    }
    emit(w, &t, &metrics, declared);
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tcc-perfbench: {e}");
            eprintln!(
                "usage: tcc-perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    for &w in &args.workloads {
        run(w, &args);
    }
    // The result line carries correctness; the exit code reports only
    // whether the benchmark ran.
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit:?}"
            );
        }
        for w in Workload::ALL {
            assert!(valid_name(w.name()));
        }
    }

    /// Names listed under `key` in BENCHMARK.json, in order.
    fn listed(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let section = &json[start..];
        let end = section.find(']').expect("list closes");
        section[..end]
            .split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let names = |l: &[(&str, &str)]| l.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(listed(&json, "end_to_end"), names(&END_TO_END));
        assert_eq!(listed(&json, "per_layer"), names(&PER_LAYER));
        let workloads: Vec<_> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(listed(&json, "workloads"), workloads);
    }

    #[test]
    fn a_perturbed_report_counts_as_a_failed_run() {
        use tccluster::firmware::topology::ClusterTopology;
        use tccluster::{EngineKind, TcclusterBuilder, TrafficPattern};
        let r = TcclusterBuilder::new()
            .topology(ClusterTopology::Mesh { x: 2, y: 2 })
            .processors_per_supernode(2)
            .engine(EngineKind::EventDriven)
            .build_sim()
            .run_workload(TrafficPattern::AllToAll, 4 << 10);
        let want = checks::Expect {
            bytes_per_flow: 4 << 10,
            flows: 12,
            digest: checks::report_digest(&r),
        };
        let mut bad = r.clone();
        bad.flows[0].last_visible = tccluster::fabric::time::SimTime(1);
        let mut t = Timed::default();
        t.record(checks::check_report(&r, &want));
        t.record(checks::check_report(&bad, &want));
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(end_to_end(&t)["pass_pct"], 50.0);
    }

    #[test]
    fn paper_pair_spans_add_up_to_the_sweep() {
        let mut c = tcc_bench::prototype();
        let s = workloads::sweep(&mut c, &tcc_bench::fig6_sizes(), &tcc_bench::fig7_sizes());
        let cover = s.span_sum_s() / s.wall_s;
        assert!(cover <= 1.0, "spans overlap: {cover}");
        assert!(cover > 0.99, "spans miss part of the sweep: {cover}");
    }
}
