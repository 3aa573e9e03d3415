//! The four phases of a pass, the same for every workload:
//!
//! * **S** set-up: build the system, register the standing queries, warm
//!   the windows to steady state.
//! * **T** closed loop: rounds of batches admitted back-to-back, each
//!   round ended by `quiesce()`.
//! * **L** open loop: batch `k` is due at `k / rate`; after admitting it
//!   the driver takes a `Fresh` probe snapshot, and latency runs from
//!   the *due time*, so a stall charges the batches queued behind it.
//! * **C** client cycles on the live system: register → first `Fresh`
//!   snapshot → a page of `Cut` reads → one batch admitted → deregister.
//!
//! One driver thread generates all load. Every timed operation is keyed
//! by its index, so identical passes can be combined per index.

use std::time::{Duration, Instant};

use aspen_stream::Consistency;

use crate::stats;
use crate::system::{Batch, Cycle, Res, System, Work, Workload};
use crate::trace::Tracer;

/// What one pass measured, as the clock read it. Vectors are indexed by
/// operation.
#[derive(Debug, Default)]
pub struct PassResult {
    /// One sample per set-up of the pass (`Work::setups` of them).
    pub setup_s: Vec<f64>,
    pub round_s: Vec<f64>,
    pub round_tuples: Vec<u64>,
    pub visible_us: Vec<f64>,
    pub late_us: Vec<f64>,
    pub register_us: Vec<f64>,
    pub read_us: Vec<f64>,
    /// A fixed integer chain timed before set-up, ns per step: how fast
    /// the host was when the pass began (a health reading, applied to
    /// nothing).
    pub host_ns_per_step: f64,
    pub state_bytes: u64,
    pub digest: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Wall seconds of S, T, L, C, as the clock read them.
    pub phase_s: [f64; 4],
    /// Tuples admitted over the whole pass.
    pub tuples: u64,
    pub notes: Vec<String>,
}

impl PassResult {
    pub fn ingest_tps(&self) -> f64 {
        self.round_tuples.iter().sum::<u64>() as f64 / self.round_s.iter().sum::<f64>()
    }

    fn attempt<T>(&mut self, what: &str, r: Res<T>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.notes.len() < 8 {
                    self.notes.push(format!("{what}: {e}"));
                }
                None
            }
        }
    }

    fn absorb_check(&mut self, phase: &str, sys: &mut impl System) {
        let c = sys.check();
        self.attempted += c.attempted;
        self.failed += c.failed;
        for n in c.notes {
            if self.notes.len() < 8 {
                self.notes.push(format!("check after {phase}: {n}"));
            }
        }
    }
}

/// Standing queries one read sample polls.
const READ_TILES: usize = 16;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Yield until `due`. The driver never sleeps: a halted virtual CPU is
/// woken late and with cold caches, by an amount that is the host's and
/// not the program's, while yielding keeps the core and still lets the
/// engine's worker threads run.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// The cycle scripts of a pass, handed out in order.
type Cycles<'a> = std::slice::Iter<'a, Cycle>;

/// One client cycle. `batch` is admitted after the reads and before the
/// deregistration, so the new query sees one batch of input. With
/// `sample`, the cycle's register and read times are recorded; a failed
/// operation records an infinite time at its index, which the minimum
/// across passes then replaces with a pass where it succeeded.
fn run_cycle(
    sys: &mut impl System,
    cycle: &Cycle,
    batch: Option<&Batch>,
    op: u64,
    sample: bool,
    tr: &mut Tracer,
    out: &mut PassResult,
) {
    let span = tr.open("cycle", op);
    let t0 = Instant::now();
    let q = out.attempt(
        "register",
        tr.timed("register", op, || sys.register(&cycle.sql)),
    );
    let first = q.and_then(|q| {
        let r = tr.timed("snapshot_fresh", op, || sys.snapshot(q, Consistency::Fresh));
        out.attempt("first snapshot", r)
    });
    let register_us = us(t0.elapsed());
    // Streams are never replayed: a query registered on a live stream
    // starts from an empty result, whatever its window already holds.
    let first_ok = first.as_ref().is_some_and(Vec::is_empty);
    if first.is_some() {
        out.attempt(
            "first snapshot is empty",
            first_ok.then_some(()).ok_or_else(|| cycle.sql.clone()),
        );
    }
    // One read sample is a display page refreshing its tiles: `Cut`
    // snapshots of the next READ_TILES standing queries in rotation. It
    // runs before the cycle's batch is admitted: a `Cut` read takes the
    // shard lock, so beside an in-flight batch it would time the race
    // for that lock, not the read.
    let t1 = Instant::now();
    let page = tr.open("read_page", op);
    let mut read_ok = true;
    for tile in 0..READ_TILES {
        let reader = sys.reader(op as usize * READ_TILES + tile);
        let read = tr.timed("snapshot_cut", op, || {
            sys.snapshot(reader, Consistency::Cut)
        });
        read_ok &= out.attempt("cut read", read).is_some();
    }
    tr.close(page);
    let read_us = us(t1.elapsed());
    if let Some(b) = batch {
        if let Some(n) = out.attempt("ingest", sys.ingest(b, tr, op)) {
            out.tuples += n;
        }
    }
    if let Some(q) = q {
        out.attempt(
            "deregister",
            tr.timed("deregister", op, || sys.deregister(q)),
        );
    }
    for x in &cycle.extras {
        let r = sys.extra(x, tr, op);
        out.attempt("extra", r);
    }
    if sample {
        let or_failed = |ok: bool, us: f64| if ok { us } else { f64::INFINITY };
        out.register_us.push(or_failed(first_ok, register_us));
        out.read_us.push(or_failed(read_ok, read_us));
    }
    tr.close(span);
}

/// Phase L. Returns the wall seconds it took.
fn open_loop(
    sys: &mut impl System,
    work: &Work,
    cycles: &mut Cycles,
    tr: &mut Tracer,
    out: &mut PassResult,
) -> f64 {
    let period = Duration::from_secs_f64(1.0 / work.rate_l);
    out.visible_us.reserve(work.open.len());
    let start = Instant::now();
    for (k, batch) in work.open.iter().enumerate() {
        let op = k as u64;
        let due = start + period.mul_f64(k as f64);
        wait_until(due);
        let admitted_at = Instant::now();
        out.late_us.push(us(admitted_at - due));
        let span = tr.open("open_loop", op);
        let ingested = out.attempt("ingest", sys.ingest(batch, tr, op));
        out.tuples += ingested.unwrap_or(0);
        let probed = out.attempt("probe", sys.probe(k, tr));
        let visible = if ingested.is_some() && probed.is_some() {
            us(due.elapsed())
        } else {
            f64::INFINITY
        };
        out.visible_us.push(visible);
        if work.ride_along.is_some_and(|stride| k % stride == 0) {
            if let Some(c) = cycles.next() {
                run_cycle(sys, c, None, op, false, tr, out);
            }
        }
        if k % 16 == 15 {
            sys.housekeeping(tr, op);
        }
        tr.close(span);
    }
    start.elapsed().as_secs_f64()
}

/// Whether an open-loop phase measured a growing backlog rather than the
/// system: the generator's median lateness over the last tenth of the
/// batches exceeds ten times that of the first tenth (floored at one
/// inter-arrival period, below which lateness is timer slack). Applied
/// to the per-batch minimum across passes, so a stall the host put into
/// one pass does not count, and a rate the program cannot sustain does.
pub fn overloaded(late_us: &[f64], rate: f64) -> Option<String> {
    let tenth = (late_us.len() / 10).max(1);
    let head = stats::median(&late_us[..tenth]);
    let tail = stats::median(&late_us[late_us.len() - tenth..]);
    (tail > (10.0 * head).max(1e6 / rate)).then(|| {
        format!(
            "open loop overloaded: generator {tail:.0} us late at the end, {head:.0} us at the start"
        )
    })
}

/// Run one pass of `workload` on a fresh system.
pub fn run_pass<W: Workload>(workload: &W, tr: &mut Tracer) -> Res<(PassResult, W::Sys)> {
    let work = workload.work();
    let mut out = PassResult {
        host_ns_per_step: crate::host::ns_per_step(),
        ..PassResult::default()
    };
    let mut cycles = work.cycles.iter();

    // S: set up `work.setups` times, keep the last system.
    let span = tr.open("phase.setup", 0);
    let t = Instant::now();
    let mut sys = None;
    for _ in 0..work.setups.max(1) {
        drop(sys.take());
        let t_setup = Instant::now();
        let mut fresh = workload.setup(tr)?;
        let mut tuples = 0;
        for (i, b) in work.warm.iter().enumerate() {
            tuples += fresh.ingest(b, tr, i as u64)?;
        }
        tr.timed("quiesce", 0, || fresh.quiesce())?;
        out.setup_s.push(t_setup.elapsed().as_secs_f64());
        out.tuples = tuples;
        sys = Some(fresh);
    }
    let mut sys = sys.expect("at least one set-up");
    out.phase_s[0] = t.elapsed().as_secs_f64();
    tr.close(span);
    out.absorb_check("S", &mut sys);

    // T
    let span = tr.open("phase.closed", 0);
    let t = Instant::now();
    let mut op = 0u64;
    let mut state_reads = Vec::with_capacity(work.rounds.len());
    for (r, round) in work.rounds.iter().enumerate() {
        let round_span = tr.open("round", r as u64);
        let t_round = Instant::now();
        let mut tuples = 0;
        for b in round {
            tuples += out.attempt("ingest", sys.ingest(b, tr, op)).unwrap_or(0);
            if work.ride_along.is_some() {
                if let Some(c) = cycles.next() {
                    run_cycle(&mut sys, c, None, op, false, tr, &mut out);
                }
            }
            op += 1;
        }
        let ended = sys.end_round(r, tr);
        out.attempt("end of round", ended);
        let drained = tr.timed("quiesce", r as u64, || sys.quiesce());
        out.attempt("quiesce", drained);
        sys.housekeeping(tr, r as u64);
        out.round_s.push(t_round.elapsed().as_secs_f64());
        out.round_tuples.push(tuples);
        out.tuples += tuples;
        tr.close(round_span);
        // Outside the round's timing: the resident state after it.
        state_reads.push(sys.state_bytes() as f64);
    }
    out.phase_s[1] = t.elapsed().as_secs_f64();
    tr.close(span);
    // The median over the rounds: a window that breathes with its input
    // (occupancy in `building`) is read at its typical size.
    out.state_bytes = stats::median(&state_reads) as u64;
    out.absorb_check("T", &mut sys);

    // L
    let span = tr.open("phase.open", 0);
    out.phase_s[2] = open_loop(&mut sys, work, &mut cycles, tr, &mut out);
    let drained = tr.timed("quiesce", 0, || sys.quiesce());
    out.attempt("quiesce", drained);
    tr.close(span);
    out.absorb_check("L", &mut sys);

    // C
    let span = tr.open("phase.cycles", 0);
    let t = Instant::now();
    for (k, b) in work.cycle_batches.iter().enumerate() {
        let Some(c) = cycles.next() else { break };
        let op = k as u64;
        run_cycle(&mut sys, c, Some(b), op, true, tr, &mut out);
        if k % 16 == 15 {
            sys.housekeeping(tr, op);
        }
    }
    let drained = tr.timed("quiesce", 0, || sys.quiesce());
    out.attempt("quiesce", drained);
    out.phase_s[3] = t.elapsed().as_secs_f64();
    tr.close(span);
    out.absorb_check("C", &mut sys);

    out.digest = sys.digest()?;
    Ok((out, sys))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{Checked, Extra};
    use aspen_stream::QueryHandle;
    use aspen_types::{QueryId, Tuple};

    /// A system that takes 100 µs per batch and stalls once.
    struct Synthetic {
        admitted: usize,
        stall_at: usize,
    }

    impl System for Synthetic {
        fn ingest(&mut self, _b: &Batch, _tr: &mut Tracer, _op: u64) -> Res<u64> {
            let busy = if self.admitted == self.stall_at {
                Duration::from_millis(50)
            } else {
                Duration::from_micros(100)
            };
            let t = Instant::now();
            while t.elapsed() < busy {
                std::hint::spin_loop();
            }
            self.admitted += 1;
            Ok(1)
        }
        fn quiesce(&mut self) -> Res<()> {
            Ok(())
        }
        fn probe(&mut self, _k: usize, _tr: &mut Tracer) -> Res<usize> {
            Ok(0)
        }
        fn register(&mut self, _sql: &str) -> Res<QueryHandle> {
            Ok(QueryHandle(QueryId(0)))
        }
        fn deregister(&mut self, _q: QueryHandle) -> Res<()> {
            Ok(())
        }
        fn snapshot(&mut self, _q: QueryHandle, _c: Consistency) -> Res<Vec<Tuple>> {
            Ok(Vec::new())
        }
        fn reader(&self, _k: usize) -> QueryHandle {
            QueryHandle(QueryId(0))
        }
        fn extra(&mut self, _x: &Extra, _tr: &mut Tracer, _op: u64) -> Res<()> {
            Ok(())
        }
        fn check(&mut self) -> Checked {
            Checked::default()
        }
        fn digest(&mut self) -> Res<u64> {
            Ok(0)
        }
        fn nodes(&self) -> Vec<&aspen_stream::ShardedEngine> {
            Vec::new()
        }
        fn ledger(&mut self, _tr: &mut Tracer, _tuples: u64) -> Vec<(&'static str, f64)> {
            Vec::new()
        }
    }

    fn synthetic_work(batches: usize, rate: f64) -> Work {
        Work {
            open: vec![Batch::Tick; batches],
            rate_l: rate,
            ..Work::default()
        }
    }

    #[test]
    fn one_injected_stall_reaches_the_tail_and_the_generator_but_not_the_median() {
        // 1 200 batches at 1 000/s, 100 µs each; batch 600 stalls 50 ms,
        // so ~55 batches behind it are admitted late and inherit the wait.
        let work = synthetic_work(1200, 1000.0);
        let mut sys = Synthetic {
            admitted: 0,
            stall_at: 600,
        };
        let mut out = PassResult::default();
        let mut cycles = [].iter();
        open_loop(
            &mut sys,
            &work,
            &mut cycles,
            &mut Tracer::new(false),
            &mut out,
        );
        assert_eq!(out.visible_us.len(), 1200);
        let visible = stats::sorted(&out.visible_us);
        let late = stats::sorted(&out.late_us);
        assert!(
            stats::percentile(&visible, 0.5) < 5_000.0,
            "p50 {}",
            stats::percentile(&visible, 0.5)
        );
        assert!(
            stats::percentile(&visible, 0.99) > 25_000.0,
            "p99 {}",
            stats::percentile(&visible, 0.99)
        );
        assert!(
            stats::percentile(&late, 0.99) > 25_000.0,
            "late p99 {}",
            stats::percentile(&late, 0.99)
        );
        assert!(stats::percentile(&late, 0.5) < 5_000.0);
        // The stall is charged from the due time: the batch right behind
        // the stalled one waited almost the whole 50 ms.
        assert!(out.visible_us[601] > 40_000.0, "{}", out.visible_us[601]);
        // The generator caught up again, so the phase is not overloaded.
        assert_eq!(overloaded(&out.late_us, work.rate_l), None);
        assert_eq!(out.failed, 0);
    }

    #[test]
    fn a_rate_above_capacity_is_flagged_overloaded() {
        // 100 µs of work per batch offered at 20 000/s: the backlog only
        // grows, and the run must count as failed.
        let work = synthetic_work(400, 20_000.0);
        let mut sys = Synthetic {
            admitted: 0,
            stall_at: usize::MAX,
        };
        let mut out = PassResult::default();
        let mut cycles = [].iter();
        open_loop(
            &mut sys,
            &work,
            &mut cycles,
            &mut Tracer::new(false),
            &mut out,
        );
        assert!(overloaded(&out.late_us, work.rate_l).is_some());
    }
}
