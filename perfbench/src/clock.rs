//! The profile clock the benchmark injects into the event engine, and the
//! calibration that removes the clock's own cost from the stage split.
//!
//! The engine reads the clock around each timed region, and every read
//! costs time that lands inside a region. The benchmark counts its own
//! reads, measures the cost of an empty region (two back-to-back reads)
//! at startup, and subtracts one empty-region cost per timed region and
//! one per read nested inside a region.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A monotonic nanosecond clock, the shape `event_profile_clock` takes.
pub type Clock = fn() -> u64;

/// One read counter per thread slot, each on its own cache line so the
/// engine's worker threads never contend on a shared counter.
#[repr(align(64))]
struct Slot(AtomicU64);

const SLOTS: usize = 16;
static READS: [Slot; SLOTS] = [const { Slot(AtomicU64::new(0)) }; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);
const UNASSIGNED: usize = usize::MAX;

thread_local! {
    static MY_SLOT: Cell<usize> = const { Cell::new(UNASSIGNED) };
}

/// Count one read on this thread's slot. Threads take slots round-robin
/// as they first read; a slot has one writer at a time as long as fewer
/// than [`SLOTS`] reading threads are alive, so a plain load and store
/// (no locked read-modify-write) counts exactly.
#[inline(always)]
fn count_read() {
    let mut slot = MY_SLOT.get();
    if slot == UNASSIGNED {
        slot = NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS;
        MY_SLOT.set(slot);
    }
    let n = &READS[slot].0;
    n.store(n.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
}

/// Clock reads made through [`tsc_ns`] or [`instant_ns`] so far, on every
/// thread.
pub fn reads() -> u64 {
    READS.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
}

fn start() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// `Instant`-based counting clock: the portable fallback.
pub fn instant_ns() -> u64 {
    count_read();
    start().elapsed().as_nanos() as u64
}

static TSC_BASE: AtomicU64 = AtomicU64::new(0);
/// Nanoseconds per TSC tick in 32.32 fixed point.
static TSC_NS_Q32: AtomicU64 = AtomicU64::new(0);

#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn ticks() -> u64 {
    // SAFETY: `rdtsc` exists on every x86_64 CPU and only reads the
    // time-stamp counter.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
fn ticks() -> u64 {
    0
}

/// TSC-based counting clock, scaled to nanoseconds by [`select`].
pub fn tsc_ns() -> u64 {
    count_read();
    let t = ticks().wrapping_sub(TSC_BASE.load(Ordering::Relaxed));
    ((t as u128 * TSC_NS_Q32.load(Ordering::Relaxed) as u128) >> 32) as u64
}

/// TSC ticks per nanosecond over one window timed with `Instant`.
fn tsc_rate(window: Duration) -> f64 {
    let (t0, c0) = (Instant::now(), ticks());
    while t0.elapsed() < window {
        std::hint::spin_loop();
    }
    let (dt, dc) = (t0.elapsed(), ticks().wrapping_sub(c0));
    dc as f64 / dt.as_nanos() as f64
}

/// Pick the cheapest trustworthy clock: the TSC when two windows checked
/// against `Instant` agree on its rate within 0.5 %, else `Instant`.
pub fn select() -> (Clock, &'static str) {
    start();
    if cfg!(target_arch = "x86_64") {
        let a = tsc_rate(Duration::from_millis(20));
        let b = tsc_rate(Duration::from_millis(20));
        if a > 0.0 && ((a - b) / a).abs() < 0.005 {
            let rate = (a + b) / 2.0;
            TSC_NS_Q32.store(((1u64 << 32) as f64 / rate) as u64, Ordering::Relaxed);
            TSC_BASE.store(ticks(), Ordering::Relaxed);
            return (tsc_ns, "tsc");
        }
    }
    (instant_ns, "instant")
}

/// Cost of an empty timed region — two back-to-back reads — in ns: the
/// mean of `pairs` samples with the slowest 1 % (interrupts, migrations)
/// dropped.
pub fn empty_region_ns(clock: Clock, pairs: usize) -> f64 {
    let mut d: Vec<u64> = (0..pairs)
        .map(|_| {
            let a = clock();
            let b = clock();
            b.saturating_sub(a)
        })
        .collect();
    d.sort_unstable();
    let keep = &d[..(d.len() * 99 / 100).max(1)];
    keep.iter().sum::<u64>() as f64 / keep.len() as f64
}

/// Clock reads each kind of sampled arrival makes inside the exec region
/// of the profiled engine: a flat-lane arrival reads around route,
/// credit, route and deliver (5), a general arrival around credit, route
/// and deliver (4), a credit NOP around its two credit regions (3).
pub const NESTED_READS_FLAT: f64 = 5.0;
pub const NESTED_READS_GENERAL: f64 = 4.0;
pub const NESTED_READS_NOP: f64 = 3.0;

/// Arrival mix of a run, counted exactly by the recording monitor.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArrivalMix {
    pub flat: u64,
    pub general: u64,
    pub nop: u64,
}

/// Raw readings of one traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RawTrace {
    pub queue_ns: u64,
    pub mailbox_ns: u64,
    pub exec_ns: u64,
    pub route_ns: u64,
    pub credit_ns: u64,
    pub deliver_ns: u64,
    /// Events handled (every event, clocked or not).
    pub events: u64,
    /// Events whose queue and exec regions were clocked.
    pub sampled: u64,
    /// Clock reads made during the run.
    pub reads: u64,
    /// Wall time of the whole traced call, ns.
    pub wall_ns: f64,
    /// Wall time of the spans around the event loop (engine build, flow
    /// registration, credit audit, flow reports), ns. Timed by the
    /// benchmark with `Instant`, outside the counted reads.
    pub outer_ns: f64,
    /// Executive threads running the event loop (0 counts as 1).
    pub threads: u32,
}

/// The calibrated split, per event unless named otherwise.
#[derive(Debug, Clone, Copy, Default)]
pub struct Split {
    pub queue: f64,
    pub exec: f64,
    /// Exec minus the credit/route/deliver sub-stages (Pump, Inject and
    /// Drained handling, plus dispatch around the arrival sub-stages).
    pub other_exec: f64,
    /// Sub-stages as read: their region count is not visible from outside.
    pub credit_raw: f64,
    pub route_raw: f64,
    pub deliver_raw: f64,
    pub mailbox: f64,
    pub outer: f64,
    /// Traced wall time per event with every clock read's cost removed
    /// (spread evenly over the executive threads).
    pub traced: f64,
    /// Mailbox regions implied by the read count.
    pub mailbox_regions: f64,
    /// `100 × (1 − Σstages ÷ traced)`, in thread time: with several
    /// executive threads the stages add up over threads, so they are set
    /// against every thread's share of the event loop.
    pub unattributed_pct: f64,
}

/// Remove the clock's cost from a traced run's stage readings.
///
/// Region counts: `sampled` queue regions and `sampled` exec regions; the
/// reads nested in exec follow from the exact arrival mix, taking the
/// sampled events (a fixed 1-in-N stride of each shard's event stream)
/// to carry the run's mix; every remaining read pair opened and closed a
/// mailbox region. Each region sheds one empty-region cost `c`, each
/// nested read one more. When the stride beats against a periodic event
/// pattern the sample is biased, and `unattributed_pct` shows it.
pub fn correct(raw: &RawTrace, mix: ArrivalMix, c: f64) -> Split {
    let s = raw.sampled.max(1) as f64;
    let e = raw.events.max(1) as f64;
    let per_event = |kind: u64| kind as f64 / e;
    let nested_per_sample = NESTED_READS_FLAT * per_event(mix.flat)
        + NESTED_READS_GENERAL * per_event(mix.general)
        + NESTED_READS_NOP * per_event(mix.nop);
    // One region fewer than reads per sampled arrival.
    let arrivals_per_sample = per_event(mix.flat + mix.general + mix.nop);
    let nested = nested_per_sample * s;
    let mailbox_regions = ((raw.reads as f64 - 3.0 * s - nested) / 2.0).max(0.0);

    let queue = (raw.queue_ns as f64 - s * c) / s;
    let exec = (raw.exec_ns as f64 - (s + nested) * c) / s;
    let subs_raw = (raw.credit_ns + raw.route_ns + raw.deliver_ns) as f64 / s;
    let subs = subs_raw - (nested_per_sample - arrivals_per_sample) * c;
    let mailbox = (raw.mailbox_ns as f64 - mailbox_regions * c) / e;
    let outer = raw.outer_ns / e;
    let threads = f64::from(raw.threads.max(1));
    let reads_ns = raw.reads as f64 * c;
    let traced = (raw.wall_ns - reads_ns / threads) / e;
    let thread_ns = threads * (raw.wall_ns - raw.outer_ns) + raw.outer_ns - reads_ns;
    let attributed = (queue + exec + mailbox + outer) * e;
    Split {
        queue,
        exec,
        other_exec: exec - subs,
        credit_raw: raw.credit_ns as f64 / s,
        route_raw: raw.route_ns as f64 / s,
        deliver_raw: raw.deliver_ns as f64 / s,
        mailbox,
        outer,
        traced,
        mailbox_regions,
        unattributed_pct: 100.0 * (1.0 - attributed / thread_ns),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // A synthetic clock: every read costs exactly `COST` ns, sampled
    // halfway through, and `work` advances time by a known amount.
    const COST: u64 = 10;
    thread_local! {
        static NOW: Cell<u64> = const { Cell::new(0) };
        static N_READS: Cell<u64> = const { Cell::new(0) };
    }
    fn synthetic() -> u64 {
        N_READS.with(|r| r.set(r.get() + 1));
        NOW.with(|t| {
            t.set(t.get() + COST / 2);
            let v = t.get();
            t.set(v + COST / 2);
            v
        })
    }
    fn work(ns: u64) {
        NOW.with(|t| t.set(t.get() + ns));
    }

    #[test]
    fn empty_region_of_synthetic_clock_is_its_read_cost() {
        assert_eq!(empty_region_ns(synthetic, 1000), COST as f64);
    }

    /// Drive the profiled engine's region pattern on the synthetic clock
    /// with known work per stage, then check the correction recovers the
    /// work exactly.
    #[test]
    fn correction_subtracts_exactly_on_a_synthetic_clock() {
        let c = empty_region_ns(synthetic, 100);
        N_READS.with(|r| r.set(0));
        let (q_work, x_work, sub_work, m_work, gap) = (30u64, 100u64, 12u64, 40u64, 7u64);
        let mut raw = RawTrace::default();
        let t_start = NOW.with(Cell::get);
        // 3 sampled events (a flat arrival, a general arrival, a NOP)
        // among 96 events, then 5 mailbox regions.
        let kinds = [NESTED_READS_FLAT, NESTED_READS_GENERAL, NESTED_READS_NOP];
        for &nested in &kinds {
            let t0 = synthetic();
            work(q_work);
            let t1 = synthetic();
            raw.queue_ns += t1 - t0;
            // Nested sub-stage regions: `nested` reads, `nested - 1` regions.
            let mut prev = synthetic();
            for _ in 1..nested as usize {
                work(sub_work);
                let now = synthetic();
                raw.credit_ns += now - prev;
                prev = now;
            }
            work(x_work - sub_work * (nested as u64 - 1));
            raw.exec_ns += synthetic() - t1;
            // Loop overhead outside every region, then the 31 unclocked
            // events the sample stands for, each doing the same work.
            work(gap);
            work(31 * (q_work + x_work + gap));
        }
        for _ in 0..5 {
            let t0 = synthetic();
            work(m_work);
            raw.mailbox_ns += synthetic() - t0;
        }
        raw.events = 96;
        raw.sampled = 3;
        raw.reads = N_READS.with(Cell::get);
        raw.wall_ns = (NOW.with(Cell::get) - t_start) as f64;
        // One of each kind in 96 events is exactly the sampled mix.
        let mix = ArrivalMix {
            flat: 32,
            general: 32,
            nop: 32,
        };
        let split = correct(&raw, mix, c);
        assert_eq!(split.queue, q_work as f64);
        assert_eq!(split.exec, x_work as f64);
        assert_eq!(split.mailbox_regions, 5.0);
        assert_eq!(split.mailbox, 5.0 * m_work as f64 / 96.0);
        // Sub-stage work per sampled event: (4 + 3 + 2) regions × 12 ns / 3.
        assert_eq!(
            split.other_exec,
            x_work as f64 - 9.0 * sub_work as f64 / 3.0
        );
        // Only the per-event loop overhead is left unattributed.
        assert_eq!(
            split.traced,
            (q_work + x_work + gap) as f64 + 5.0 * m_work as f64 / 96.0
        );
        let want = 100.0 * gap as f64 / split.traced;
        assert!((split.unattributed_pct - want).abs() < 1e-9);
    }
}
