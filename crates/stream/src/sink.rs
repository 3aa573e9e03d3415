//! Query result sinks.
//!
//! A [`Sink`] applies the presentation clauses of a continuous query's
//! results — ORDER BY, LIMIT, OUTPUT TO DISPLAY — at snapshot time, and
//! counts the output deltas. It keeps the maintained multiset of the
//! results only where the result is not already kept upstream: for a
//! query whose root is not an aggregate, or one with a push channel. An
//! aggregate root without one is read through
//! ([`crate::pipeline`] module docs): its sink counts the
//! deltas the aggregate settles and presents rows the aggregate shows.
//! Either way an engine read keeps the presented snapshot until the next
//! batch changes the result.
//!
//! A sink can additionally carry a `PushState`: the producer half of a
//! [`ResultSubscription`](crate::session::ResultSubscription), through
//! which output deltas are delivered at batch boundaries, coalesced
//! according to the query's micro-batch knobs.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use aspen_sql::expr::BoundExpr;
use aspen_types::{Result, SchemaRef, SimDuration, SimTime, Tuple};

use crate::delta::{Delta, DeltaBatch};
use crate::session::SharedQueue;

/// Push-delivery state owned by a subscribed query's sink.
///
/// Output deltas accumulate in `pending` as they are applied; the engine
/// calls [`Sink::flush_push`] at every batch boundary (ingest and
/// heartbeat). `max_delay` holds a flush until the pending deltas have
/// aged past the delay (coalescing across boundaries); `max_batch` both
/// overrides the hold when the buffer grows past the cap and chunks what
/// is delivered. The net multiset pushed so far is the state minus
/// `pending` ([`Sink::take_push`]), so late subscription and
/// pause/resume can emit exact catch-up diffs.
#[derive(Debug)]
pub(crate) struct PushState {
    queue: SharedQueue,
    pending: DeltaBatch,
    /// Boundary at which the oldest pending delta was first seen.
    pending_since: Option<SimTime>,
    max_batch: Option<usize>,
    max_delay: Option<SimDuration>,
}

/// Materialized result holder for one continuous query.
#[derive(Debug)]
pub struct Sink {
    schema: SchemaRef,
    sort_keys: Vec<(BoundExpr, bool)>,
    limit: Option<u64>,
    display: Option<String>,
    state: HashMap<Tuple, i64>,
    push: Option<PushState>,
    /// The snapshot the last engine read presented, until a delta lands.
    presented: Option<Vec<Tuple>>,
    /// Monotone count of deltas applied — the "result churn" statistic
    /// used by the end-to-end experiment.
    pub deltas_applied: u64,
    /// End-to-end ingest→apply latency histogram for this query, in
    /// microseconds. Recorded by the engine at apply time from the
    /// batch's trace context; travels with the sink through migration.
    pub latency: crate::trace::LatencyHistogram,
}

impl Sink {
    pub fn new(
        schema: SchemaRef,
        sort_keys: Vec<(BoundExpr, bool)>,
        limit: Option<u64>,
        display: Option<String>,
    ) -> Self {
        Sink {
            schema,
            sort_keys,
            limit,
            display,
            state: HashMap::new(),
            push: None,
            presented: None,
            deltas_applied: 0,
            latency: crate::trace::LatencyHistogram::new(),
        }
    }

    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    pub fn display(&self) -> Option<&str> {
        self.display.as_deref()
    }

    /// Apply a batch of deltas to the materialized state (and stage them
    /// for push delivery when a subscription is attached).
    pub fn apply(&mut self, deltas: &DeltaBatch) {
        for d in deltas {
            self.deltas_applied += 1;
            add(&mut self.state, &d.tuple, d.sign);
        }
        if let Some(p) = &mut self.push {
            p.pending.extend(deltas.iter().cloned());
        }
        self.presented = None;
    }

    /// Count `n` output deltas that changed the result without reaching
    /// this sink: a read-through aggregate settled them (module docs).
    pub(crate) fn count(&mut self, n: u64) {
        self.deltas_applied += n;
        self.presented = None;
    }

    /// Put `rows` into the multiset once each, uncounted: the result a
    /// read-through aggregate held, taken over when it starts emitting.
    pub(crate) fn fill(&mut self, rows: Vec<Tuple>) {
        for row in &rows {
            add(&mut self.state, row, 1);
        }
        self.presented = None;
    }

    /// Attach the producer half of a push subscription.
    ///
    /// `pushed` is the net multiset already pushed through `queue`
    /// (empty for a fresh channel). The pending buffer is seeded with
    /// `current state − pushed`, so the very first flush delivers a
    /// consolidated catch-up batch: a late subscriber gets the snapshot
    /// as inserts, a resumed query's channel gets exactly the diff
    /// between its pre-pause deliveries and the replayed state, and a
    /// fresh registration (empty state, empty history) gets nothing.
    pub(crate) fn attach_push(
        &mut self,
        queue: SharedQueue,
        pushed: HashMap<Tuple, i64>,
        max_batch: Option<usize>,
        max_delay: Option<SimDuration>,
    ) {
        // Seed deltas in the deterministic snapshot order (value, then
        // timestamp) — the catch-up batch a client drains must not vary
        // with HashMap iteration order between runs.
        let ordered = |m: &HashMap<Tuple, i64>, flip: i64| -> Vec<Delta> {
            let mut ds: Vec<Delta> = m
                .iter()
                .map(|(t, &c)| Delta {
                    tuple: t.clone(),
                    sign: c * flip,
                })
                .collect();
            ds.sort_by(|a, b| {
                a.tuple
                    .values()
                    .cmp(b.tuple.values())
                    .then_with(|| a.tuple.timestamp().cmp(&b.tuple.timestamp()))
            });
            ds
        };
        let mut pending = DeltaBatch::new();
        pending.extend(ordered(&self.state, 1));
        pending.extend(ordered(&pushed, -1));
        self.push = Some(PushState {
            queue,
            pending,
            pending_since: None,
            max_batch,
            max_delay,
        });
    }

    /// Detach the push channel, for a replacement sink at resume, with
    /// what it delivered: the state minus `pending`, which `attach_push`
    /// seeds as state minus what was pushed and `flush_push` only empties.
    pub(crate) fn take_push(&mut self) -> Option<(SharedQueue, HashMap<Tuple, i64>)> {
        let p = self.push.take()?;
        let mut delivered = self.state.clone();
        for d in &p.pending {
            add(&mut delivered, &d.tuple, -d.sign);
        }
        Some((p.queue, delivered))
    }

    /// Whether a push subscription is attached.
    pub(crate) fn pushes(&self) -> bool {
        self.push.is_some()
    }

    /// The subscription channel, if one is attached.
    pub(crate) fn push_queue(&self) -> Option<SharedQueue> {
        self.push.as_ref().map(|p| SharedQueue::clone(&p.queue))
    }

    /// Batches delivered through the attached push subscription so far
    /// (telemetry; 0 for poll-only sinks).
    pub fn push_batches_delivered(&self) -> u64 {
        self.push.as_ref().map_or(0, |p| p.queue.lock().delivered)
    }

    /// Retune the micro-batch knobs on the live push state (the
    /// optimizer-driven `auto` path). No-op without a subscription — the
    /// engine-side query meta is the durable home of the knobs and is
    /// re-applied at subscribe/resume time.
    pub(crate) fn set_push_knobs(
        &mut self,
        max_batch: Option<usize>,
        max_delay: Option<SimDuration>,
    ) {
        if let Some(p) = &mut self.push {
            p.max_batch = max_batch;
            p.max_delay = max_delay;
        }
    }

    /// Deliver pending output deltas through the subscription, honoring
    /// the micro-batch knobs. Called by the engine at every batch
    /// boundary; `force` bypasses the `max_delay` hold (registration
    /// catch-up, pause).
    pub fn flush_push(&mut self, now: SimTime, force: bool) {
        let Some(p) = &mut self.push else {
            return;
        };
        if p.pending.is_empty() {
            p.pending_since = None;
            return;
        }
        let pending = std::mem::take(&mut p.pending).consolidated();
        if pending.is_empty() {
            // Everything cancelled within the coalescing window.
            p.pending_since = None;
            return;
        }
        let since = *p.pending_since.get_or_insert(now);
        let size_due = p.max_batch.is_some_and(|n| pending.len() >= n);
        let delay_due = p.max_delay.is_none_or(|d| now >= since + d);
        if !(force || size_due || delay_due) {
            // Keep coalescing: hold the (consolidated) buffer.
            p.pending = pending;
            return;
        }
        p.pending_since = None;
        let mut q = p.queue.lock();
        match p.max_batch {
            Some(n) => {
                let mut chunk = DeltaBatch::with_capacity(n);
                for d in pending {
                    chunk.push(d);
                    if chunk.len() == n {
                        q.batches.push(std::mem::take(&mut chunk));
                        q.delivered += 1;
                    }
                }
                if !chunk.is_empty() {
                    q.batches.push(chunk);
                    q.delivered += 1;
                }
            }
            None => {
                q.batches.push(pending);
                q.delivered += 1;
            }
        }
    }

    /// Number of distinct live result tuples in the multiset (none for a
    /// result read through: module docs).
    pub fn len(&self) -> usize {
        self.state.len()
    }

    pub fn is_empty(&self) -> bool {
        self.state.is_empty()
    }

    /// Current results with ORDER BY / LIMIT applied. Multiplicities are
    /// expanded (bag semantics) before limiting.
    pub fn snapshot(&self) -> Result<Vec<Tuple>> {
        let mut rows: Vec<Tuple> = Vec::new();
        for (t, &c) in &self.state {
            // Negative multiplicities can exist transiently when deltas
            // arrive out of order; they are simply not shown.
            for _ in 0..c.max(0) {
                rows.push(t.clone());
            }
        }
        self.present(rows)
    }

    /// An engine read: the snapshot presented last, while no delta has
    /// changed the result since, else the current one — presented from
    /// `shown`'s rows, when the result is read through, or from the
    /// multiset — kept for the reads after it.
    pub(crate) fn read(
        &mut self,
        shown: impl FnOnce() -> Result<Option<Vec<Tuple>>>,
    ) -> Result<Vec<Tuple>> {
        if let Some(rows) = &self.presented {
            return Ok(rows.clone());
        }
        let rows = match shown()? {
            Some(rows) => self.present(rows)?,
            None => self.snapshot()?,
        };
        self.presented = Some(rows.clone());
        Ok(rows)
    }

    /// `rows` in ORDER BY order (by value, then stamp, without one), cut
    /// at the LIMIT.
    fn present(&self, mut rows: Vec<Tuple>) -> Result<Vec<Tuple>> {
        if self.sort_keys.is_empty() {
            // Deterministic default order: by value, then timestamp (two
            // result rows can differ only in timestamp).
            rows.sort_by(|a, b| {
                a.values()
                    .cmp(b.values())
                    .then_with(|| a.timestamp().cmp(&b.timestamp()))
            });
        } else {
            // Precompute sort keys to keep comparator infallible.
            let mut keyed: Vec<(Vec<aspen_types::Value>, Tuple)> = Vec::with_capacity(rows.len());
            for r in rows {
                let mut k = Vec::with_capacity(self.sort_keys.len());
                for (e, _) in &self.sort_keys {
                    k.push(e.eval(&r)?);
                }
                keyed.push((k, r));
            }
            let dirs: Vec<bool> = self.sort_keys.iter().map(|(_, asc)| *asc).collect();
            keyed.sort_by(|(ka, ta), (kb, tb)| {
                for (i, asc) in dirs.iter().enumerate() {
                    let ord = ka[i].total_cmp(&kb[i]);
                    let ord = if *asc { ord } else { ord.reverse() };
                    if !ord.is_eq() {
                        return ord;
                    }
                }
                ta.values()
                    .cmp(tb.values())
                    .then_with(|| ta.timestamp().cmp(&tb.timestamp()))
            });
            rows = keyed.into_iter().map(|(_, t)| t).collect();
        }
        if let Some(n) = self.limit {
            rows.truncate(n as usize);
        }
        Ok(rows)
    }
}

/// Add `sign` to `tuple`'s multiplicity in `bag`, dropping it at zero —
/// one probe either way.
fn add(bag: &mut HashMap<Tuple, i64>, tuple: &Tuple, sign: i64) {
    match bag.entry(tuple.clone()) {
        Entry::Occupied(mut e) => {
            *e.get_mut() += sign;
            if *e.get() == 0 {
                e.remove();
            }
        }
        Entry::Vacant(e) => {
            if sign != 0 {
                e.insert(sign);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::Delta;
    use aspen_types::{DataType, Field, Schema, SimTime, Value};

    fn t(v: i64) -> Tuple {
        Tuple::new(vec![Value::Int(v)], SimTime::ZERO)
    }

    fn batch(ds: Vec<crate::delta::Delta>) -> DeltaBatch {
        DeltaBatch::from(ds)
    }

    fn schema() -> SchemaRef {
        Schema::new(vec![Field::new("x", DataType::Int)]).into_ref()
    }

    #[test]
    fn apply_and_snapshot_default_order() {
        let mut s = Sink::new(schema(), vec![], None, None);
        s.apply(&batch(vec![
            Delta::insert(t(3)),
            Delta::insert(t(1)),
            Delta::insert(t(2)),
        ]));
        let snap = s.snapshot().unwrap();
        assert_eq!(
            snap.iter()
                .map(|t| t.values()[0].clone())
                .collect::<Vec<_>>(),
            vec![Value::Int(1), Value::Int(2), Value::Int(3)]
        );
        s.apply(&batch(vec![Delta::retract(t(2))]));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn multiplicity_expansion() {
        let mut s = Sink::new(schema(), vec![], None, None);
        s.apply(&batch(vec![Delta::insert(t(7)), Delta::insert(t(7))]));
        assert_eq!(s.snapshot().unwrap().len(), 2);
        assert_eq!(s.len(), 1); // one distinct
    }

    #[test]
    fn sort_desc_and_limit() {
        let keys = vec![(BoundExpr::col(0, DataType::Int), false)];
        let mut s = Sink::new(schema(), keys, Some(2), Some("lobby".into()));
        s.apply(&batch(vec![
            Delta::insert(t(5)),
            Delta::insert(t(9)),
            Delta::insert(t(1)),
        ]));
        let snap = s.snapshot().unwrap();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].values()[0], Value::Int(9));
        assert_eq!(snap[1].values()[0], Value::Int(5));
        assert_eq!(s.display(), Some("lobby"));
    }

    #[test]
    fn negative_multiplicity_hidden() {
        let mut s = Sink::new(schema(), vec![], None, None);
        s.apply(&batch(vec![Delta::retract(t(1))]));
        assert!(s.snapshot().unwrap().is_empty());
        s.apply(&batch(vec![Delta::insert(t(1))]));
        assert!(s.snapshot().unwrap().is_empty()); // net zero
    }

    #[test]
    fn churn_counter() {
        let mut s = Sink::new(schema(), vec![], None, None);
        s.apply(&batch(vec![Delta::insert(t(1)), Delta::retract(t(1))]));
        assert_eq!(s.deltas_applied, 2);
    }

    fn shared_queue() -> crate::session::SharedQueue {
        std::sync::Arc::new(parking_lot::Mutex::new(
            crate::session::SubscriptionQueue::default(),
        ))
    }

    #[test]
    fn push_flushes_consolidated_batches_at_boundaries() {
        let mut s = Sink::new(schema(), vec![], None, None);
        let q = shared_queue();
        s.attach_push(std::sync::Arc::clone(&q), HashMap::new(), None, None);
        s.apply(&batch(vec![
            Delta::insert(t(1)),
            Delta::insert(t(2)),
            Delta::retract(t(1)),
        ]));
        s.flush_push(SimTime::from_secs(1), false);
        let batches = std::mem::take(&mut q.lock().batches);
        assert_eq!(batches.len(), 1);
        // The cancelled 1 never reaches the subscriber.
        assert_eq!(batches[0].consolidate(), vec![(t(2), 1)]);
        // Empty boundaries deliver nothing.
        s.flush_push(SimTime::from_secs(2), false);
        assert!(q.lock().batches.is_empty());
    }

    #[test]
    fn push_late_attach_seeds_snapshot() {
        let mut s = Sink::new(schema(), vec![], None, None);
        s.apply(&batch(vec![Delta::insert(t(1)), Delta::insert(t(1))]));
        let q = shared_queue();
        s.attach_push(std::sync::Arc::clone(&q), HashMap::new(), None, None);
        s.flush_push(SimTime::ZERO, true);
        let batches = std::mem::take(&mut q.lock().batches);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].consolidate(), vec![(t(1), 2)]);
    }

    #[test]
    fn max_delay_holds_then_releases() {
        let mut s = Sink::new(schema(), vec![], None, None);
        let q = shared_queue();
        s.attach_push(
            std::sync::Arc::clone(&q),
            HashMap::new(),
            None,
            Some(SimDuration::from_secs(10)),
        );
        s.apply(&batch(vec![Delta::insert(t(1))]));
        s.flush_push(SimTime::from_secs(1), false);
        assert!(q.lock().batches.is_empty(), "held inside the delay window");
        // More churn coalesces into the held buffer.
        s.apply(&batch(vec![Delta::retract(t(1)), Delta::insert(t(2))]));
        s.flush_push(SimTime::from_secs(5), false);
        assert!(q.lock().batches.is_empty());
        s.flush_push(SimTime::from_secs(11), false);
        let batches = std::mem::take(&mut q.lock().batches);
        assert_eq!(batches.len(), 1);
        // The insert/retract of 1 cancelled inside the hold.
        assert_eq!(batches[0].consolidate(), vec![(t(2), 1)]);
    }

    #[test]
    fn max_batch_releases_hold_and_chunks() {
        let mut s = Sink::new(schema(), vec![], None, None);
        let q = shared_queue();
        s.attach_push(
            std::sync::Arc::clone(&q),
            HashMap::new(),
            Some(2),
            Some(SimDuration::from_secs(100)),
        );
        s.apply(&batch(vec![Delta::insert(t(1))]));
        s.flush_push(SimTime::from_secs(1), false);
        assert!(q.lock().batches.is_empty(), "one pending delta: held");
        s.apply(&batch(vec![
            Delta::insert(t(2)),
            Delta::insert(t(3)),
            Delta::insert(t(4)),
        ]));
        s.flush_push(SimTime::from_secs(2), false);
        let batches = std::mem::take(&mut q.lock().batches);
        assert_eq!(batches.len(), 2, "4 pending deltas chunk into 2+2");
        assert!(batches.iter().all(|b| b.len() <= 2));
    }

    #[test]
    fn push_transfer_preserves_delivered_diff() {
        // Simulates resume: the old sink delivered {1}, the new sink's
        // replayed state is {2}; the transferred channel must see the
        // diff (-1, +2) and nothing else.
        let mut old = Sink::new(schema(), vec![], None, None);
        let q = shared_queue();
        old.attach_push(std::sync::Arc::clone(&q), HashMap::new(), None, None);
        old.apply(&batch(vec![Delta::insert(t(1))]));
        old.flush_push(SimTime::ZERO, true);
        q.lock().batches.clear();
        let (queue, delivered) = old.take_push().unwrap();
        assert!(old.push_queue().is_none());

        let mut new = Sink::new(schema(), vec![], None, None);
        new.attach_push(queue, delivered, None, None);
        new.apply(&batch(vec![Delta::insert(t(2))]));
        new.flush_push(SimTime::ZERO, true);
        let batches = std::mem::take(&mut q.lock().batches);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].consolidate(), vec![(t(1), -1), (t(2), 1)]);
    }

    /// `take_push`'s delivered multiset — the state minus what is still
    /// pending — is the net of every batch the queue received, at each
    /// checkpoint of a seeded run of signed applies and flushes under
    /// `max_batch` / `max_delay` holds and chunking. After each
    /// checkpoint the channel moves onto a replacement sink whose state
    /// drifted from the old one, as resume re-attaches it, and the run
    /// continues there.
    #[test]
    fn take_push_derives_what_the_queue_received() {
        use aspen_types::rng::seeded;
        use rand::Rng;
        let received = |q: &SharedQueue| {
            let mut net = HashMap::new();
            for d in q.lock().batches.iter().flatten() {
                add(&mut net, &d.tuple, d.sign);
            }
            net
        };
        let secs = |s| Some(SimDuration::from_secs(s));
        let knobs = [
            (None, None),
            (Some(3), None),
            (None, secs(4)),
            (Some(2), secs(6)),
        ];
        for seed in crate::test_seeds(8) {
            let mut rng = seeded(0x5117 ^ seed);
            let (max_batch, max_delay) = knobs[rng.gen_range(0..knobs.len())];
            let q = shared_queue();
            let mut s = Sink::new(schema(), vec![], None, None);
            s.attach_push(
                std::sync::Arc::clone(&q),
                HashMap::new(),
                max_batch,
                max_delay,
            );
            let mut now = 0;
            for checkpoint in 0..12 {
                for _ in 0..rng.gen_range(1..8) {
                    let ds = (0..rng.gen_range(0..5)).map(|_| Delta {
                        tuple: t(rng.gen_range(0..6i64)),
                        sign: if rng.gen_bool(0.6) { 1 } else { -1 },
                    });
                    s.apply(&batch(ds.collect()));
                    now += rng.gen_range(0..4u64);
                    s.flush_push(SimTime::from_secs(now), rng.gen_bool(0.1));
                }
                let (queue, delivered) = s.take_push().unwrap();
                let ctx = format!("seed {seed}, checkpoint {checkpoint}");
                assert_eq!(delivered, received(&queue), "{ctx}");
                let mut next = Sink::new(schema(), vec![], None, None);
                let kept = s.state.iter().map(|(t, &sign)| Delta {
                    tuple: t.clone(),
                    sign,
                });
                let drift = Delta::insert(t(rng.gen_range(0..6i64)));
                next.apply(&batch(kept.chain([drift]).collect()));
                next.attach_push(queue, delivered, max_batch, max_delay);
                next.flush_push(SimTime::from_secs(now), true);
                assert_eq!(next.state, received(&q), "{ctx}: catch-up diff");
                s = next;
            }
        }
    }
}
