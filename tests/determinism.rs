//! Determinism of the sharded conservative-PDES event engine.
//!
//! The engine's contract (docs/engine.md, "Parallel execution") is that
//! results are **bit-identical** for every worker thread count: shard
//! state is disjoint, every event is processed in deterministic
//! `(time, shard, seq)` key order, and the thread count only changes
//! wall clock. These tests enforce that contract as a differential
//! matrix — the same randomized workload runs on {1, 2, 4[, 8]} threads
//! and must produce identical reports — check that the flat fast lane
//! and mounted monitors are invisible to results, and re-pin the paper's
//! anchors (227 ns / ~2500 MB/s) on the parallel path.

use proptest::prelude::*;
use tcc_firmware::topology::ClusterTopology;
use tcc_ht::link::LinkConfig;
use tccluster::{EngineKind, TcclusterBuilder, TrafficPattern, WorkloadReport};

/// Run one workload on a mesh of two-socket supernodes on `threads`
/// executive threads, optionally with the invariant monitors mounted.
/// Returns the report plus the monitors' view (packets seen, clean
/// verdict) when mounted.
fn run(
    mesh: (usize, usize),
    link: LinkConfig,
    pattern: TrafficPattern,
    bytes: u64,
    threads: usize,
    monitored: bool,
) -> (WorkloadReport, Option<(u64, bool)>) {
    let mut cluster = TcclusterBuilder::new()
        .topology(ClusterTopology::Mesh {
            x: mesh.0,
            y: mesh.1,
        })
        .processors_per_supernode(2)
        .tcc_link(link)
        .engine(EngineKind::EventDriven)
        .event_threads(threads)
        .build_sim();
    let handle = monitored.then(|| {
        let (monitor, handle) = tcc_verify::InvariantMonitor::new();
        cluster.platform.with_monitors(monitor);
        handle
    });
    let report = cluster.run_workload(pattern, bytes);
    let verdict = handle.map(|h| (h.packets_seen(), h.is_clean()));
    (report, verdict)
}

fn arb_link() -> impl Strategy<Value = LinkConfig> {
    (
        prop_oneof![Just(600), Just(800), Just(1_000)],
        prop_oneof![Just(8u8), Just(16u8)],
        40u64..=60,
    )
        .prop_map(|(clock_mhz, width_bits, hop_ns)| LinkConfig {
            clock_mhz,
            width_bits,
            hop_latency: tcc_fabric::time::Duration::from_nanos(hop_ns),
        })
}

fn arb_pattern() -> impl Strategy<Value = TrafficPattern> {
    prop_oneof![
        Just(TrafficPattern::AllToAll),
        Just(TrafficPattern::Hotspot { target: 0 }),
        Just(TrafficPattern::Halo),
        Just(TrafficPattern::Transpose),
        Just(TrafficPattern::Tornado),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The core determinism property: the same workload yields a
    /// byte-identical [`WorkloadReport`] across thread counts {1, 2, 4},
    /// for randomized link shapes, patterns and flow sizes on a 2x2 mesh.
    #[test]
    fn workload_reports_are_bit_identical_across_executives(
        link in arb_link(),
        pattern in arb_pattern(),
        kb in 2u64..=8,
    ) {
        let bytes = kb << 10;
        let (baseline, _) = run((2, 2), link, pattern, bytes, 1, false);
        prop_assert!(baseline.delivered_packets > 0, "workload moved no data");
        for threads in [2usize, 4] {
            let (got, _) = run((2, 2), link, pattern, bytes, threads, false);
            prop_assert_eq!(
                &got,
                &baseline,
                "{} threads diverged on {:?}",
                threads,
                pattern
            );
        }
    }

    /// The flat fast lane is an optimisation, never a semantic. An
    /// unmonitored run takes the lane for every eligible arrival; a run
    /// with the invariant monitors mounted takes the general path for
    /// every packet. Both must deliver byte-identically, the monitored
    /// general path must agree with itself at 2 and 4 threads (same
    /// report, same packet stream, same clean verdict), and the monitors
    /// must see every hop — so the lane is invisible to everything but
    /// wall clock.
    #[test]
    fn flat_lane_is_bit_identical_and_monitor_invisible(
        link in arb_link(),
        pattern in arb_pattern(),
        kb in 2u64..=8,
    ) {
        let bytes = kb << 10;
        let (lane, _) = run((2, 2), link, pattern, bytes, 1, false);
        prop_assert!(lane.delivered_packets > 0, "workload moved no data");
        let (general, saw) = run((2, 2), link, pattern, bytes, 1, true);
        prop_assert_eq!(&general, &lane, "general path diverged from the flat lane on {:?}", pattern);
        let (seen, clean) = saw.unwrap();
        prop_assert!(seen > lane.delivered_packets, "monitor missed forwarded hops");
        prop_assert!(clean, "invariant violations");
        for threads in [2usize, 4] {
            let (got, saw_t) = run((2, 2), link, pattern, bytes, threads, true);
            prop_assert_eq!(&got, &lane, "monitored x {} threads diverged", threads);
            prop_assert_eq!(saw_t, Some((seen, clean)), "monitors saw a different stream at {} threads", threads);
        }
    }
}

/// A bigger, deeply contended single case: all-to-all on a 4x4 mesh at
/// every thread count, compared field-for-field.
#[test]
fn mesh4x4_all_to_all_is_executive_invariant() {
    let run4 = |threads| {
        run(
            (4, 4),
            LinkConfig::PROTOTYPE,
            TrafficPattern::AllToAll,
            4 << 10,
            threads,
            false,
        )
        .0
    };
    let baseline = run4(1);
    assert_eq!(baseline.flows.len(), 16 * 15);
    assert_eq!(baseline.lost_packets(), 0, "{baseline:?}");
    for threads in [2usize, 4, 8] {
        assert_eq!(run4(threads), baseline, "{threads} threads diverged");
    }
}

/// The paper's 227 ns half-RTT anchor must hold when the event engine
/// runs its parallel executive (2 shards on 2 threads) — the epoch
/// algorithm may not change any timing, only wall clock.
#[test]
fn parallel_path_reproduces_headline_latency() {
    let mut c = TcclusterBuilder::new()
        .engine(EngineKind::EventDriven)
        .event_threads(2)
        .build_sim();
    let lat = c.pingpong(0, 1, 64, 50);
    let ns = lat.nanos();
    assert!(
        (ns - 227.0).abs() < 25.0,
        "parallel event engine 64 B half-RTT = {ns:.1} ns (paper: 227 ns)"
    );
}

/// The ~2500 MB/s single-stream bandwidth anchor on the parallel path,
/// and exact agreement with the sequential event engine.
#[test]
fn parallel_path_reproduces_headline_bandwidth() {
    use tcc_msglib::SendMode;
    let bw = |threads: usize| {
        let mut c = TcclusterBuilder::new()
            .engine(EngineKind::EventDriven)
            .event_threads(threads)
            .build_sim();
        c.stream_bandwidth(0, 1, 64, SendMode::WeaklyOrdered, 20)
    };
    let sequential = bw(1);
    assert!(
        (sequential - 2500.0).abs() < 400.0,
        "64 B weak bandwidth = {sequential:.0} MB/s (paper: ~2500)"
    );
    for threads in [2usize, 4] {
        let got = bw(threads);
        assert_eq!(
            got.to_bits(),
            sequential.to_bits(),
            "{threads} threads: {got} vs {sequential} MB/s"
        );
    }
}
