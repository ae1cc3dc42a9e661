//! Arrival-stream recording and layer replays.
//!
//! A recording [`FabricMonitor`], mounted through the public
//! `Platform::with_monitors`, keeps a bounded, evenly strided sample of
//! every packet arrival of one run and counts the whole stream by kind.
//! The sample is then replayed into the receive-side layers of a freshly
//! booted identical cluster, each layer timed on its own.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use tccluster::fabric::time::SimTime;
use tccluster::firmware::machine::{FabricMonitor, PacketEvent};
use tccluster::ht::link::LinkRx;
use tccluster::ht::packet::{Command, Packet};
use tccluster::opteron::nb::FlatTable;
use tccluster::opteron::regs::{LinkId, LINKS_PER_NODE};
use tccluster::opteron::Source;
use tccluster::SimCluster;

use crate::clock::ArrivalMix;
use crate::stats::median;

/// Most arrivals a recording keeps; beyond it the stride doubles.
pub const KEEP: usize = 1 << 16;

/// One packet arriving at a receiving port.
#[derive(Debug, Clone)]
pub struct Arrival {
    pub node: usize,
    pub link: LinkId,
    pub coherent: bool,
    pub arrival: SimTime,
    pub packet: Packet,
}

/// What a recorder saw: the exact arrival mix and an evenly strided
/// sample of at most [`KEEP`] arrivals, in arrival-stream order.
#[derive(Debug)]
pub struct Recording {
    pub kept: Vec<Arrival>,
    pub mix: ArrivalMix,
    stride: u64,
    seen: u64,
}

impl Recording {
    fn new() -> Self {
        Recording {
            kept: Vec::new(),
            mix: ArrivalMix::default(),
            stride: 1,
            seen: 0,
        }
    }

    fn push(&mut self, a: Arrival) {
        if self.seen.is_multiple_of(self.stride) {
            if self.kept.len() == KEEP {
                // Keep every other sample: the kept set stays exactly the
                // arrivals whose index is a multiple of the new stride.
                self.stride *= 2;
                let mut i = 0;
                self.kept.retain(|_| {
                    i += 1;
                    i % 2 == 1
                });
            }
            if self.seen.is_multiple_of(self.stride) {
                self.kept.push(a);
            }
        }
        self.seen += 1;
    }
}

fn is_nop(p: &Packet) -> bool {
    matches!(p.cmd, Command::Nop { .. })
}

/// The recording monitor. It classifies each arrival the way the event
/// engine's receive path does (credit NOP, flat-lane hit, general path)
/// using the same per-node flat tables the engine builds.
#[derive(Debug)]
pub struct Recorder {
    rec: Rc<RefCell<Recording>>,
    flat: Vec<FlatTable>,
}

impl FabricMonitor for Recorder {
    fn on_packet(&mut self, ev: &PacketEvent<'_>) {
        let (node, link) = ev.dst;
        let mut rec = self.rec.borrow_mut();
        if is_nop(ev.packet) {
            rec.mix.nop += 1;
        } else if ev
            .packet
            .flat_addr()
            .is_some_and(|a| self.flat[node].lookup(a).is_some())
        {
            rec.mix.flat += 1;
        } else {
            rec.mix.general += 1;
        }
        rec.push(Arrival {
            node,
            link,
            coherent: ev.coherent,
            arrival: ev.arrival,
            packet: ev.packet.clone(),
        });
    }
}

/// Mount a recorder on `cluster`; the returned handle reads the recording
/// once the monitor is cleared.
pub fn mount(cluster: &mut SimCluster) -> Rc<RefCell<Recording>> {
    let rec = Rc::new(RefCell::new(Recording::new()));
    let flat = cluster
        .platform
        .nodes
        .iter()
        .map(|n| n.nb.flat_table())
        .collect();
    cluster.platform.with_monitors(Box::new(Recorder {
        rec: Rc::clone(&rec),
        flat,
    }));
    rec
}

/// Per-call cost of each replayed layer, ns, plus the flat-lane hit share.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    pub rx_ns: f64,
    pub dispose_ns: f64,
    pub flat_lookup_ns: f64,
    /// Arrivals the flat lane takes, % of every recorded arrival.
    pub flat_hit_pct: f64,
    pub deliver_routed_ns: f64,
    pub deliver_flat_ns: f64,
    /// Replayed calls that returned an error (a correct stream has none).
    pub errors: u64,
}

/// Median over `reps` passes of `pass`'s per-call ns (`calls` calls each).
fn per_call(reps: usize, calls: usize, mut pass: impl FnMut() -> u64) -> (f64, u64) {
    if calls == 0 {
        return (0.0, 0);
    }
    let mut errors = 0;
    let ns: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            errors += pass();
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    (median(&ns), errors)
}

/// Replay `kept` into the layers of `cluster` (freshly booted, identical
/// to the recorded one): `LinkRx::accept`/`drain`/`harvest`,
/// `Northbridge::dispose`, `FlatTable::lookup`, `Node::deliver_routed`
/// and `Node::deliver_flat`.
pub fn replay(kept: &[Arrival], cluster: &mut SimCluster, reps: usize) -> LayerTimes {
    let nodes = &mut cluster.platform.nodes;
    let tables: Vec<FlatTable> = nodes.iter().map(|n| n.nb.flat_table()).collect();
    let data: Vec<&Arrival> = kept.iter().filter(|a| !is_nop(&a.packet)).collect();
    let flat: Vec<(&Arrival, u64)> = data
        .iter()
        .filter_map(|a| a.packet.flat_addr().map(|addr| (*a, addr)))
        .collect();
    let mut out = LayerTimes::default();
    let mut errors = 0;

    let mut rx: Vec<LinkRx> = (0..nodes.len() * LINKS_PER_NODE)
        .map(|_| LinkRx::new())
        .collect();
    let (ns, e) = per_call(reps, kept.len(), || {
        let mut bad = 0;
        for a in kept {
            let port = &mut rx[a.node * LINKS_PER_NODE + a.link.0 as usize];
            match port.accept(&a.packet) {
                Ok(Some(ret)) => {
                    black_box(ret);
                }
                Ok(None) => bad += u64::from(port.drain(&a.packet).is_err()),
                Err(_) => bad += 1,
            }
            black_box(port.harvest());
        }
        bad
    });
    (out.rx_ns, errors) = (ns, errors + e);

    let (ns, e) = per_call(reps, data.len(), || {
        let mut bad = 0;
        for a in &data {
            let src = Source::Link {
                id: a.link,
                coherent: a.coherent,
            };
            bad += u64::from(black_box(nodes[a.node].nb.dispose(&a.packet, src)).is_err());
        }
        bad
    });
    (out.dispose_ns, errors) = (ns, errors + e);

    let mut hits = Vec::new();
    let (ns, _) = per_call(reps, flat.len(), || {
        hits.clear();
        for &(a, addr) in &flat {
            if let Some(plan) = black_box(tables[a.node].lookup(addr)) {
                hits.push((a, addr, plan));
            }
        }
        0
    });
    out.flat_lookup_ns = ns;
    out.flat_hit_pct = 100.0 * hits.len() as f64 / kept.len().max(1) as f64;

    // deliver_routed takes the packet by value: clone each pass's batch
    // outside the timed region.
    if !data.is_empty() {
        let mut ns = Vec::new();
        for _ in 0..reps {
            let batch: Vec<Packet> = data.iter().map(|a| a.packet.clone()).collect();
            let t0 = Instant::now();
            for (a, p) in data.iter().zip(batch) {
                let r = nodes[a.node].deliver_routed(a.arrival, a.link, p, a.coherent);
                errors += u64::from(black_box(r).is_err());
            }
            ns.push(t0.elapsed().as_nanos() as f64 / data.len() as f64);
        }
        out.deliver_routed_ns = median(&ns);
    }

    let (ns, _) = per_call(reps, hits.len(), || {
        for &(a, addr, plan) in &hits {
            let r = nodes[a.node].deliver_flat(a.arrival, plan, addr, &a.packet.data, !a.coherent);
            black_box(r);
        }
        0
    });
    out.deliver_flat_ns = ns;
    out.errors = errors;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrival(i: u64) -> Arrival {
        Arrival {
            node: 0,
            link: LinkId(0),
            coherent: false,
            arrival: SimTime(i),
            packet: Packet::posted_write(0, bytes::Bytes::from_static(&[0u8; 64])),
        }
    }

    #[test]
    fn recording_keeps_an_even_stride_within_bounds() {
        let mut rec = Recording::new();
        let n = 5 * KEEP as u64 + 3;
        for i in 0..n {
            rec.push(arrival(i));
        }
        assert!(rec.kept.len() <= KEEP);
        assert!(rec.kept.len() > KEEP / 2);
        for (j, a) in rec.kept.iter().enumerate() {
            assert_eq!(a.arrival.picos(), j as u64 * rec.stride);
        }
    }
}
