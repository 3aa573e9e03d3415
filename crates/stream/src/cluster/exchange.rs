//! Exchange operators: the ship and receive sides of cross-node
//! dataflow.
//!
//! The egress side serializes a source's batch ([`WireFrame::Batch`],
//! numbered in its source's cluster-wide sequence) or signed deltas
//! ([`WireFrame::Deltas`]) into one framed wire message; the ingress side
//! decodes a received frame back into an [`Arrival`] that re-enters the
//! remote node's *normal* ingest path as the same kind of payload — a
//! shipped batch is indistinguishable from a local one past the link, so
//! every downstream invariant (route counts, retained tables, push
//! flushing, watermarks, log row ids) holds unchanged.
//!
//! [`node_of`] / [`partition`] are the hash-exchange half: key-column
//! hashing routes tuples to *nodes*, so a repartitioned join's
//! co-partitioning guarantee (equal keys meet on one node) holds
//! across the cluster. Keys hash normalised, as a join looks them up:
//! an `INT` key and the equal `FLOAT` key land on one node.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use aspen_netsim::frames::{WireDelta, WireFrame, WireRow};
use aspen_types::{AspenError, Result, SimTime, SourceId, Tuple};

use crate::delta::{Delta, DeltaBatch};
use crate::operators::norm;
use crate::trace::TraceCtx;

/// Serialize a source batch into one `Batch` frame, its rows numbered
/// from `first` in the source's sequence (`None`: the receiver's).
pub fn egress_numbered(src: SourceId, first: Option<u64>, tuples: &[Tuple]) -> WireFrame {
    let row = |t: &Tuple| WireRow {
        values: t.values().to_vec(),
        timestamp_us: t.timestamp().as_micros(),
    };
    let rows = tuples.iter().map(row).collect();
    WireFrame::Batch {
        source: src.0,
        first,
        rows,
    }
}

/// [`egress_numbered`] for the receiver to number.
pub fn egress_batch(src: SourceId, tuples: &[Tuple]) -> WireFrame {
    egress_numbered(src, None, tuples)
}

/// Serialize a signed delta batch into one `Deltas` frame (retractions
/// and multiplicities travel as signed weights).
pub fn egress_deltas(src: SourceId, deltas: &DeltaBatch) -> WireFrame {
    WireFrame::Deltas {
        source: src.0,
        deltas: deltas
            .iter()
            .map(|d| WireDelta {
                values: d.tuple.values().to_vec(),
                timestamp_us: d.tuple.timestamp().as_micros(),
                weight: d.sign,
            })
            .collect(),
    }
}

/// Wrap an egress data frame in a trace context — it travels inside the
/// encoded frame, so wire accounting covers it.
pub fn with_trace(frame: WireFrame, ctx: &TraceCtx) -> WireFrame {
    let (origin, batch, admit_us, frame) = (ctx.origin, ctx.batch, ctx.admit_us, Box::new(frame));
    WireFrame::Traced {
        origin,
        batch,
        admit_us,
        frame,
    }
}

/// What a data frame delivers: a (numbered) source batch, or deltas.
#[derive(Debug, Clone, PartialEq)]
pub enum Arrival {
    Batch {
        first: Option<u64>,
        tuples: Vec<Tuple>,
    },
    Deltas(DeltaBatch),
}

impl Arrival {
    pub(crate) fn len(&self) -> usize {
        match self {
            Arrival::Batch { tuples, .. } => tuples.len(),
            Arrival::Deltas(deltas) => deltas.len(),
        }
    }
}

/// Decode a received data frame into its source, what it delivers, and
/// any trace context it carried, for the remote node's ingest.
pub fn ingress(frame: WireFrame) -> Result<(SourceId, Arrival, Option<TraceCtx>)> {
    let (frame, ctx) = match frame {
        WireFrame::Traced {
            origin,
            batch,
            admit_us,
            frame,
        } => (
            *frame,
            Some(TraceCtx {
                origin,
                batch,
                admit_us,
            }),
        ),
        frame => (frame, None),
    };
    let at = |t: u64| SimTime::from_micros(t);
    let (source, arrival) = match frame {
        WireFrame::Batch {
            source,
            first,
            rows,
        } => {
            let tuples = rows
                .into_iter()
                .map(|r| Tuple::new(r.values, at(r.timestamp_us)));
            let tuples = tuples.collect();
            (source, Arrival::Batch { first, tuples })
        }
        WireFrame::Deltas { source, deltas } => {
            let mut batch = DeltaBatch::with_capacity(deltas.len());
            for d in deltas {
                let tuple = Tuple::new(d.values, at(d.timestamp_us));
                batch.push(Delta {
                    tuple,
                    sign: d.weight,
                });
            }
            (source, Arrival::Deltas(batch))
        }
        _ => {
            let refused = "exchange ingress expects a data frame";
            return Err(AspenError::Execution(refused.into()));
        }
    };
    Ok((SourceId(source), arrival, ctx))
}

/// Which node a tuple's key columns hash to (`DefaultHasher` over the
/// key values, each normalised as a join key is, so values that are
/// equal under `=` — `INT` 2 and `FLOAT` 2.0 — hash to one node).
pub fn node_of(tuple: &Tuple, key_cols: &[usize], nodes: usize) -> usize {
    let mut h = DefaultHasher::new();
    for &c in key_cols {
        norm(tuple.get(c)).hash(&mut h);
    }
    (h.finish() % nodes as u64) as usize
}

/// Scatter a tuple batch into per-node shares by key-column hash.
/// Every tuple lands in exactly one share; shares preserve the input's
/// relative order.
pub fn partition(tuples: &[Tuple], key_cols: &[usize], nodes: usize) -> Vec<Vec<Tuple>> {
    let mut shares: Vec<Vec<Tuple>> = vec![Vec::new(); nodes];
    for t in tuples {
        shares[node_of(t, key_cols, nodes)].push(t.clone());
    }
    shares
}

#[cfg(test)]
mod tests {
    use super::*;
    use aspen_netsim::frames::{decode_frame, encode_frame};
    use aspen_types::Value;

    fn t(k: i64, v: i64, us: u64) -> Tuple {
        Tuple::new(vec![Value::Int(k), Value::Int(v)], SimTime::from_micros(us))
    }

    /// Through real bytes, not just the frame value.
    fn wire(frame: WireFrame) -> (SourceId, Arrival, Option<TraceCtx>) {
        ingress(decode_frame(encode_frame(&frame)).unwrap()).unwrap()
    }

    #[test]
    fn egress_ingress_round_trips_tuples_and_signs() {
        let src = SourceId(9);
        let mut batch = DeltaBatch::new();
        batch.push_insert(t(1, 10, 5));
        batch.push_retract(t(2, 20, 7));
        batch.push(Delta {
            tuple: t(3, 30, 11),
            sign: 4,
        });
        let (got_src, got, _) = wire(egress_deltas(src, &batch));
        assert_eq!(got_src, src);
        assert_eq!(got, Arrival::Deltas(batch));
    }

    #[test]
    fn egress_batch_is_all_insertions() {
        let tuples = vec![t(1, 2, 3), t(4, 5, 6)];
        for first in [None, Some(0), Some(4_000_000)] {
            let (_, got, _) = wire(egress_numbered(SourceId(0), first, &tuples));
            let tuples = tuples.clone();
            assert_eq!(got, Arrival::Batch { first, tuples });
        }
        let (_, got, _) = wire(egress_batch(SourceId(0), &tuples));
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn ingress_rejects_non_delta_frames() {
        assert!(ingress(WireFrame::Heartbeat { now_us: 1 }).is_err());
    }

    #[test]
    fn trace_context_rides_the_frame_through_bytes() {
        let ctx = TraceCtx {
            origin: 2,
            batch: 41,
            admit_us: 9_000,
        };
        let mut batch = DeltaBatch::new();
        batch.push_insert(t(1, 10, 5));
        batch.push_retract(t(2, 20, 7));
        let (src, got, carried) = wire(with_trace(egress_deltas(SourceId(6), &batch), &ctx));
        assert_eq!(src, SourceId(6));
        assert_eq!(got, Arrival::Deltas(batch.clone()));
        assert_eq!(carried, Some(ctx));
        let tuples = vec![t(1, 10, 5)];
        let numbered = egress_numbered(SourceId(6), Some(12), &tuples);
        let (_, got, carried) = wire(with_trace(numbered, &ctx));
        let first = Some(12);
        assert_eq!(
            (got, carried),
            (Arrival::Batch { first, tuples }, Some(ctx))
        );
        // A plain frame decodes with no context.
        let (_, _, none) = wire(egress_deltas(SourceId(6), &batch));
        assert!(none.is_none());
    }

    #[test]
    fn partition_covers_and_keys_colocate() {
        let tuples: Vec<Tuple> = (0..100).map(|i| t(i % 7, i, i as u64)).collect();
        let shares = partition(&tuples, &[0], 4);
        assert_eq!(shares.iter().map(Vec::len).sum::<usize>(), 100);
        // Equal keys always land on the same node.
        for shard in &shares {
            for a in shard {
                assert_eq!(
                    node_of(a, &[0], 4),
                    shares.iter().position(|s| s.contains(a)).unwrap()
                );
            }
        }
        // Partitioning is deterministic.
        assert_eq!(partition(&tuples, &[0], 4), shares);
    }
}
