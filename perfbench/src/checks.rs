//! Output checks. A run fails when any check fails; `failed ÷ attempted`
//! feeds `pass_pct` and the result line's `failed` count.
//!
//! Every simulated statistic is deterministic, so a run is checked
//! against the digest recorded with the benchmark: a change that only
//! speeds the simulator up must leave every digest unchanged.

use tccluster::WorkloadReport;

/// FNV-1a over 64-bit words: a stable digest of simulated results.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Digest of every field of a workload report.
pub fn report_digest(r: &WorkloadReport) -> u64 {
    let mut d = Digest::new();
    for w in [
        r.stalls_no_credit,
        r.events,
        r.elapsed.picos(),
        r.injected_packets,
        r.delivered_packets,
        r.flows.len() as u64,
    ] {
        d.word(w);
    }
    for f in &r.flows {
        for w in [
            f.src as u64,
            f.dst as u64,
            f.injected_packets,
            f.delivered_bytes,
            f.first_visible.picos(),
            f.last_visible.picos(),
        ] {
            d.word(w);
        }
    }
    d.value()
}

/// What a correct run of an event workload must produce.
#[derive(Debug, Clone, Copy)]
pub struct Expect {
    /// Bytes each flow asked for, rounded up to whole 64 B packets.
    pub bytes_per_flow: u64,
    pub flows: usize,
    /// The digest recorded with the benchmark for this configuration.
    pub digest: u64,
}

/// Every way `r` differs from a correct run; empty when it passes.
pub fn check_report(r: &WorkloadReport, want: &Expect) -> Vec<String> {
    let mut bad = Vec::new();
    if r.lost_packets() != 0 || r.delivered_packets != r.injected_packets {
        bad.push(format!(
            "lost packets: injected {} delivered {}",
            r.injected_packets, r.delivered_packets
        ));
    }
    if r.flows.len() != want.flows {
        bad.push(format!("{} flows, want {}", r.flows.len(), want.flows));
    }
    let want_bytes = want.bytes_per_flow.div_ceil(64).max(1) * 64;
    if let Some(f) = r.flows.iter().find(|f| f.delivered_bytes != want_bytes) {
        bad.push(format!(
            "flow {}->{} delivered {} B, asked for {want_bytes}",
            f.src, f.dst, f.delivered_bytes
        ));
    }
    let got = report_digest(r);
    if got != want.digest {
        bad.push(format!(
            "report digest {got:#018x} differs from the recorded {:#018x}",
            want.digest
        ));
    }
    bad
}

/// Relative error of `measured` against the paper's `anchor`, in percent.
pub fn anchor_err_pct(measured: f64, anchor: f64) -> f64 {
    100.0 * (measured - anchor).abs() / anchor
}

/// The paper's headline anchors and the tolerance the `headline` binary
/// holds them to.
pub const PAPER_LAT64_NS: f64 = 227.0;
pub const PAPER_BW64_MBPS: f64 = 2500.0;
pub const ANCHOR_TOL_PCT: f64 = 10.0;

#[cfg(test)]
mod tests {
    use super::*;
    use tccluster::firmware::topology::ClusterTopology;
    use tccluster::{EngineKind, TcclusterBuilder, TrafficPattern};

    fn small_report() -> WorkloadReport {
        TcclusterBuilder::new()
            .topology(ClusterTopology::Mesh { x: 2, y: 2 })
            .processors_per_supernode(2)
            .engine(EngineKind::EventDriven)
            .build_sim()
            .run_workload(TrafficPattern::AllToAll, 4 << 10)
    }

    fn expect_for(r: &WorkloadReport) -> Expect {
        Expect {
            bytes_per_flow: 4 << 10,
            flows: 12,
            digest: report_digest(r),
        }
    }

    #[test]
    fn perturbed_reports_fail() {
        let r = small_report();
        let want = expect_for(&r);
        assert_eq!(check_report(&r, &want), Vec::<String>::new());
        let perturbations: [fn(&mut WorkloadReport); 5] = [
            |r| r.delivered_packets -= 1,
            |r| r.flows[3].delivered_bytes += 64,
            |r| r.events += 1,
            |r| r.elapsed = tccluster::fabric::time::SimTime(r.elapsed.picos() + 1),
            |r| r.stalls_no_credit ^= 1,
        ];
        for (i, perturb) in perturbations.iter().enumerate() {
            let mut bad = r.clone();
            perturb(&mut bad);
            assert!(
                !check_report(&bad, &want).is_empty(),
                "perturbation {i} was accepted"
            );
        }
    }

    #[test]
    fn anchor_error_is_relative_and_unsigned() {
        assert_eq!(anchor_err_pct(250.0, 200.0), 25.0);
        assert_eq!(anchor_err_pct(150.0, 200.0), 25.0);
    }
}
