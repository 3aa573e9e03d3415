//! Exchange operators: the ship and receive sides of cross-node
//! dataflow.
//!
//! The egress side serializes a source's tuples or signed deltas into
//! one framed wire message ([`WireFrame::Deltas`]); the ingress side
//! decodes a received frame back into a [`DeltaBatch`] that re-enters
//! the remote node's *normal* ingest path (`ShardedEngine::on_deltas`)
//! — a shipped batch is indistinguishable from a local one past the
//! link, so every downstream invariant (routing refcounts, retained
//! tables, push flushing, watermarks) holds unchanged.
//!
//! [`node_of`] / [`partition`] are the hash-exchange half: key-column
//! hashing routes tuples to *nodes*, so a repartitioned join's
//! co-partitioning guarantee (equal keys meet on one node) holds
//! across the cluster.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use aspen_netsim::frames::{WireDelta, WireFrame};
use aspen_types::{AspenError, Result, SimTime, SourceId, Tuple};

use crate::delta::{Delta, DeltaBatch};
use crate::trace::TraceCtx;

/// Serialize a raw tuple batch into one `Deltas` frame (weight +1 per
/// tuple — plain insertions).
pub fn egress_batch(src: SourceId, tuples: &[Tuple]) -> WireFrame {
    WireFrame::Deltas {
        source: src.0,
        deltas: tuples
            .iter()
            .map(|t| WireDelta {
                values: t.values().to_vec(),
                timestamp_us: t.timestamp().as_micros(),
                weight: 1,
            })
            .collect(),
    }
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

/// Attach a trace context to an egress `Deltas` frame, lifting it to
/// `TracedDeltas` — the context travels inside the encoded frame, so
/// wire accounting covers it. Non-delta frames pass through untouched.
pub fn with_trace(frame: WireFrame, ctx: &TraceCtx) -> WireFrame {
    match frame {
        WireFrame::Deltas { source, deltas } => WireFrame::TracedDeltas {
            source,
            origin: ctx.origin,
            batch: ctx.batch,
            admit_us: ctx.admit_us,
            deltas,
        },
        other => other,
    }
}

/// Decode a received `Deltas` frame back into its source and signed
/// batch, ready for re-admission through the remote node's ingest.
pub fn ingress(frame: WireFrame) -> Result<(SourceId, DeltaBatch)> {
    let WireFrame::Deltas { source, deltas } = frame else {
        return Err(AspenError::Execution(
            "exchange ingress expects a Deltas frame".into(),
        ));
    };
    Ok((SourceId(source), rebuild(deltas)))
}

/// [`ingress`] accepting both plain and traced delta frames; a traced
/// frame additionally yields the trace context it carried.
pub fn ingress_traced(frame: WireFrame) -> Result<(SourceId, DeltaBatch, Option<TraceCtx>)> {
    match frame {
        WireFrame::Deltas { source, deltas } => Ok((SourceId(source), rebuild(deltas), None)),
        WireFrame::TracedDeltas {
            source,
            origin,
            batch,
            admit_us,
            deltas,
        } => Ok((
            SourceId(source),
            rebuild(deltas),
            Some(TraceCtx {
                origin,
                batch,
                admit_us,
            }),
        )),
        _ => Err(AspenError::Execution(
            "exchange ingress expects a Deltas or TracedDeltas frame".into(),
        )),
    }
}

fn rebuild(deltas: Vec<WireDelta>) -> DeltaBatch {
    let mut batch = DeltaBatch::with_capacity(deltas.len());
    for d in deltas {
        batch.push(Delta {
            tuple: Tuple::new(d.values, SimTime::from_micros(d.timestamp_us)),
            sign: d.weight,
        });
    }
    batch
}

/// Which node a tuple's key columns hash to (`DefaultHasher` over the
/// key values).
pub fn node_of(tuple: &Tuple, key_cols: &[usize], nodes: usize) -> usize {
    let mut h = DefaultHasher::new();
    for &c in key_cols {
        tuple.get(c).hash(&mut h);
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
        // Through real bytes, not just the frame value.
        let wire = encode_frame(&egress_deltas(src, &batch));
        let (got_src, got) = ingress(decode_frame(wire).unwrap()).unwrap();
        assert_eq!(got_src, src);
        assert_eq!(got.as_slice(), batch.as_slice());
    }

    #[test]
    fn egress_batch_is_all_insertions() {
        let tuples = vec![t(1, 2, 3), t(4, 5, 6)];
        let wire = encode_frame(&egress_batch(SourceId(0), &tuples));
        let (_, got) = ingress(decode_frame(wire).unwrap()).unwrap();
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|d| d.sign == 1));
        assert_eq!(
            got.iter().map(|d| d.tuple.clone()).collect::<Vec<_>>(),
            tuples
        );
    }

    #[test]
    fn ingress_rejects_non_delta_frames() {
        assert!(ingress(WireFrame::Heartbeat { now_us: 1 }).is_err());
        assert!(ingress_traced(WireFrame::Heartbeat { now_us: 1 }).is_err());
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
        let wire = encode_frame(&with_trace(egress_deltas(SourceId(6), &batch), &ctx));
        let (src, got, carried) = ingress_traced(decode_frame(wire).unwrap()).unwrap();
        assert_eq!(src, SourceId(6));
        assert_eq!(got.as_slice(), batch.as_slice());
        assert_eq!(carried, Some(ctx));
        // A plain frame decodes with no context; the strict `ingress`
        // refuses a traced frame (callers opt in explicitly).
        let plain = encode_frame(&egress_deltas(SourceId(6), &batch));
        let (_, _, none) = ingress_traced(decode_frame(plain).unwrap()).unwrap();
        assert!(none.is_none());
        let traced = encode_frame(&with_trace(egress_deltas(SourceId(6), &batch), &ctx));
        assert!(ingress(decode_frame(traced).unwrap()).is_err());
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
