//! Framed wire messages for cluster links.
//!
//! The cluster layer (`aspen-stream`'s `cluster` module) ships delta
//! batches, heartbeats, and control messages between node engines as
//! *real bytes*: every cross-node boundary is encoded here, charged
//! against the LAN model by its encoded length, and decoded back on the
//! receive side before re-admission. The value encoding is the same
//! tagged varint codec the mote radio uses ([`crate::codec`]), so wire
//! accounting is honest on both tiers of the system.
//!
//! A frame is one byte of frame tag followed by tag-specific fields:
//!
//! * `Batch` — a source batch of plain arrivals: source id, its first
//!   row's number in the source's sequence as one varint (0 for none,
//!   else the number + 1), row count, then per row: varint timestamp
//!   (µs), value count, tagged values — no weight, every row is one
//!   insertion.
//! * `Deltas` — source id, delta count, then per delta: zigzag-varint
//!   weight (retractions and multiplicities ship as negative / >1
//!   weights), varint timestamp (µs), value count, tagged values.
//! * `Traced` — a data frame prefixed by its batch's trace context
//!   (origin node, admission sequence, admission tick in µs), so an
//!   exchange hop carries end-to-end latency provenance on the wire
//!   instead of in a side channel. The tick is a fixed 8 bytes, so a
//!   frame's length does not depend on the wall clock.
//! * `Heartbeat` — the clock advance (µs) the coordinator broadcasts.
//! * `Control` — an opcode plus varint arguments (migration handoffs,
//!   lifecycle notices); the cluster layer owns the opcode namespace.
//! * `Histogram` — one node's log-bucketed latency histogram (sparse
//!   `(bucket, count)` pairs plus max/sum), shipped to the coordinator
//!   when cluster-wide percentiles are merged.
//!
//! Decoding is strict: trailing bytes after the announced payload are an
//! error, so a round-tripped frame is bit-identical to its source.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use aspen_types::{AspenError, Result, Value};

use crate::codec::{get_value, get_varint, put_value, put_varint, unzigzag, zigzag};

const FRAME_DELTAS: u8 = 0xD0;
const FRAME_HEARTBEAT: u8 = 0xD1;
const FRAME_CONTROL: u8 = 0xD2;
const FRAME_TRACED: u8 = 0xD3;
const FRAME_HISTOGRAM: u8 = 0xD4;
const FRAME_BATCH: u8 = 0xD5;

/// One signed tuple change on the wire: the row's values, its event
/// timestamp, and the signed weight (+1 insert, -1 retract, |w| > 1
/// consolidated multiplicity).
#[derive(Debug, Clone, PartialEq)]
pub struct WireDelta {
    pub values: Vec<Value>,
    pub timestamp_us: u64,
    pub weight: i64,
}

/// One arrival on the wire: a row's values and its event timestamp.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRow {
    pub values: Vec<Value>,
    pub timestamp_us: u64,
}

/// One framed message between cluster nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum WireFrame {
    /// A batch of one source's arrivals, numbered from `first` in the
    /// source's sequence — `None` leaves the numbering to the receiver.
    Batch {
        source: u32,
        first: Option<u64>,
        rows: Vec<WireRow>,
    },
    /// A batch of signed deltas for one source.
    Deltas { source: u32, deltas: Vec<WireDelta> },
    /// A data frame carrying its trace context: the node that admitted
    /// the batch, its admission sequence there, and the admission tick
    /// (µs) — back-dated by the receiver to charge the wire hop into its
    /// end-to-end latency. The inner frame is never itself `Traced`.
    Traced {
        origin: u32,
        batch: u64,
        admit_us: u64,
        frame: Box<WireFrame>,
    },
    /// Coordinator clock broadcast.
    Heartbeat { now_us: u64 },
    /// Control-plane message: opcode + varint arguments.
    Control { op: u8, args: Vec<u64> },
    /// One node's log-bucketed latency histogram, sparsely encoded as
    /// `(bucket index, count)` pairs plus the exact max and sum (µs).
    Histogram {
        node: u32,
        max_us: u64,
        sum_us: u64,
        buckets: Vec<(u32, u64)>,
    },
}

fn put_values(buf: &mut BytesMut, values: &[Value]) {
    put_varint(buf, values.len() as u64);
    for v in values {
        put_value(buf, v);
    }
}

fn get_values(buf: &mut Bytes) -> Result<Vec<Value>> {
    let arity = get_varint(buf)? as usize;
    if arity > 1 << 20 {
        return Err(AspenError::Execution(format!("absurd row arity {arity}")));
    }
    (0..arity).map(|_| get_value(buf)).collect()
}

fn get_count(buf: &mut Bytes, what: &str) -> Result<usize> {
    let n = get_varint(buf)? as usize;
    if n > 1 << 24 {
        return Err(AspenError::Execution(format!("absurd {what} count {n}")));
    }
    Ok(n)
}

fn get_u32_field(buf: &mut Bytes, what: &str) -> Result<u32> {
    let v = get_varint(buf)?;
    if v > u64::from(u32::MAX) {
        return Err(AspenError::Execution(format!("{what} overflow")));
    }
    Ok(v as u32)
}

/// Encode one frame into a fresh buffer.
pub fn encode_frame(frame: &WireFrame) -> Bytes {
    let mut buf = BytesMut::with_capacity(16);
    put_frame(&mut buf, frame);
    buf.freeze()
}

fn put_frame(buf: &mut BytesMut, frame: &WireFrame) {
    match frame {
        WireFrame::Batch {
            source,
            first,
            rows,
        } => {
            buf.put_u8(FRAME_BATCH);
            put_varint(buf, u64::from(*source));
            put_varint(buf, first.map_or(0, |f| f + 1));
            put_varint(buf, rows.len() as u64);
            for r in rows {
                put_varint(buf, r.timestamp_us);
                put_values(buf, &r.values);
            }
        }
        WireFrame::Deltas { source, deltas } => {
            buf.put_u8(FRAME_DELTAS);
            put_varint(buf, u64::from(*source));
            put_varint(buf, deltas.len() as u64);
            for d in deltas {
                put_varint(buf, zigzag(d.weight));
                put_varint(buf, d.timestamp_us);
                put_values(buf, &d.values);
            }
        }
        WireFrame::Traced {
            origin,
            batch,
            admit_us,
            frame,
        } => {
            buf.put_u8(FRAME_TRACED);
            put_varint(buf, u64::from(*origin));
            put_varint(buf, *batch);
            buf.put_slice(&admit_us.to_le_bytes());
            put_frame(buf, frame);
        }
        WireFrame::Heartbeat { now_us } => {
            buf.put_u8(FRAME_HEARTBEAT);
            put_varint(buf, *now_us);
        }
        WireFrame::Control { op, args } => {
            buf.put_u8(FRAME_CONTROL);
            buf.put_u8(*op);
            put_varint(buf, args.len() as u64);
            for a in args {
                put_varint(buf, *a);
            }
        }
        WireFrame::Histogram {
            node,
            max_us,
            sum_us,
            buckets,
        } => {
            buf.put_u8(FRAME_HISTOGRAM);
            put_varint(buf, u64::from(*node));
            put_varint(buf, *max_us);
            put_varint(buf, *sum_us);
            put_varint(buf, buckets.len() as u64);
            for (b, c) in buckets {
                put_varint(buf, u64::from(*b));
                put_varint(buf, *c);
            }
        }
    }
}

/// Decode one frame previously produced by [`encode_frame`]. Strict:
/// the buffer must contain exactly one frame.
pub fn decode_frame(mut buf: Bytes) -> Result<WireFrame> {
    let frame = get_frame(&mut buf, true)?;
    if buf.has_remaining() {
        return Err(AspenError::Execution(format!(
            "{} trailing bytes after frame",
            buf.remaining()
        )));
    }
    Ok(frame)
}

/// One frame off `buf`; a `Traced` one only where `traced` allows it.
fn get_frame(buf: &mut Bytes, traced: bool) -> Result<WireFrame> {
    if !buf.has_remaining() {
        return Err(AspenError::Execution("empty frame".into()));
    }
    Ok(match buf.get_u8() {
        FRAME_BATCH => {
            let source = get_u32_field(buf, "source id")?;
            let first = get_varint(buf)?.checked_sub(1);
            let n = get_count(buf, "row")?;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                let timestamp_us = get_varint(buf)?;
                let values = get_values(buf)?;
                rows.push(WireRow {
                    values,
                    timestamp_us,
                });
            }
            WireFrame::Batch {
                source,
                first,
                rows,
            }
        }
        FRAME_DELTAS => {
            let source = get_u32_field(buf, "source id")?;
            let n = get_count(buf, "delta")?;
            let mut deltas = Vec::with_capacity(n);
            for _ in 0..n {
                let weight = unzigzag(get_varint(buf)?);
                let timestamp_us = get_varint(buf)?;
                let values = get_values(buf)?;
                deltas.push(WireDelta {
                    values,
                    timestamp_us,
                    weight,
                });
            }
            WireFrame::Deltas { source, deltas }
        }
        FRAME_TRACED if traced => {
            let origin = get_u32_field(buf, "origin node")?;
            let batch = get_varint(buf)?;
            if buf.remaining() < 8 {
                return Err(AspenError::Execution("truncated admission tick".into()));
            }
            let mut tick = [0u8; 8];
            tick.copy_from_slice(&buf.copy_to_bytes(8));
            WireFrame::Traced {
                origin,
                batch,
                admit_us: u64::from_le_bytes(tick),
                frame: Box::new(get_frame(buf, false)?),
            }
        }
        FRAME_HISTOGRAM => {
            let node = get_u32_field(buf, "node id")?;
            let max_us = get_varint(buf)?;
            let sum_us = get_varint(buf)?;
            let n = get_varint(buf)? as usize;
            if n > 1 << 8 {
                return Err(AspenError::Execution(format!("absurd bucket count {n}")));
            }
            let mut buckets = Vec::with_capacity(n);
            for _ in 0..n {
                let b = get_u32_field(buf, "bucket index")?;
                buckets.push((b, get_varint(buf)?));
            }
            WireFrame::Histogram {
                node,
                max_us,
                sum_us,
                buckets,
            }
        }
        FRAME_HEARTBEAT => WireFrame::Heartbeat {
            now_us: get_varint(buf)?,
        },
        FRAME_CONTROL => {
            if !buf.has_remaining() {
                return Err(AspenError::Execution("truncated control frame".into()));
            }
            let op = buf.get_u8();
            let n = get_varint(buf)? as usize;
            if n > 1 << 16 {
                return Err(AspenError::Execution(format!("absurd arg count {n}")));
            }
            let mut args = Vec::with_capacity(n);
            for _ in 0..n {
                args.push(get_varint(buf)?);
            }
            WireFrame::Control { op, args }
        }
        other => {
            return Err(AspenError::Execution(format!(
                "unknown frame tag {other:#x}"
            )));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn round_trip(frame: WireFrame) {
        let enc = encode_frame(&frame);
        let dec = decode_frame(enc).unwrap();
        assert_eq!(dec, frame);
    }

    fn random_value(rng: &mut StdRng) -> Value {
        match rng.gen_range(0..6u32) {
            0 => Value::Null,
            1 => Value::Bool(rng.gen_bool(0.5)),
            2 => Value::Int(rng.gen_range(-1_000_000i64..=1_000_000)),
            3 => Value::Float(rng.gen_range(-1e6..1e6)),
            4 => {
                let len = rng.gen_range(0..24usize);
                Value::Text((0..len).map(|_| rng.gen_range(0..26u32)).fold(
                    String::new(),
                    |mut s, c| {
                        s.push((b'a' + c as u8) as char);
                        s
                    },
                ))
            }
            _ => Value::Timestamp(rng.gen_range(0..=u64::MAX / 2)),
        }
    }

    fn random_deltas(rng: &mut StdRng) -> Vec<WireDelta> {
        let n = rng.gen_range(0..32usize);
        (0..n)
            .map(|_| {
                let arity = rng.gen_range(0..8usize);
                WireDelta {
                    values: (0..arity).map(|_| random_value(rng)).collect(),
                    timestamp_us: rng.gen_range(0..=u64::MAX / 2),
                    // Negative and multi-count weights ship
                    // too (retractions, consolidated rows).
                    weight: rng.gen_range(-1_000i64..=1_000),
                }
            })
            .collect()
    }

    fn random_rows(rng: &mut StdRng) -> (Option<u64>, Vec<WireRow>) {
        let first = rng.gen_bool(0.5).then(|| rng.gen_range(0..=u64::MAX / 2));
        let rows = random_deltas(rng).into_iter().map(|d| WireRow {
            values: d.values,
            timestamp_us: d.timestamp_us,
        });
        (first, rows.collect())
    }

    fn random_frame(rng: &mut StdRng) -> WireFrame {
        match rng.gen_range(0..7u32) {
            6 => {
                let (first, rows) = random_rows(rng);
                WireFrame::Batch {
                    source: rng.gen_range(0..=u32::MAX),
                    first,
                    rows,
                }
            }

            0 | 1 => WireFrame::Deltas {
                source: rng.gen_range(0..=u32::MAX),
                deltas: random_deltas(rng),
            },
            2 => WireFrame::Heartbeat {
                now_us: rng.gen_range(0..=u64::MAX / 2),
            },
            3 => WireFrame::Traced {
                origin: rng.gen_range(0..=u32::MAX),
                batch: rng.gen_range(0..=u64::MAX / 2),
                admit_us: rng.gen_range(0..=u64::MAX),
                frame: Box::new(match random_frame(rng) {
                    WireFrame::Traced { frame, .. } => *frame,
                    data => data,
                }),
            },
            4 => WireFrame::Histogram {
                node: rng.gen_range(0..=u32::MAX),
                max_us: rng.gen_range(0..=u64::MAX / 2),
                sum_us: rng.gen_range(0..=u64::MAX / 2),
                buckets: (0..rng.gen_range(0..40usize))
                    .map(|_| (rng.gen_range(0..64u32), rng.gen_range(0..=u64::MAX / 2)))
                    .collect(),
            },
            _ => WireFrame::Control {
                op: rng.gen_range(0..=255u32) as u8,
                args: (0..rng.gen_range(0..8usize))
                    .map(|_| rng.gen_range(0..=u64::MAX / 2))
                    .collect(),
            },
        }
    }

    /// Property: encode → decode is the identity over seeded random
    /// frames, including empty delta batches and negative weights.
    #[test]
    fn random_frames_round_trip() {
        let mut rng = StdRng::seed_from_u64(0xF8A3E5);
        for _ in 0..500 {
            round_trip(random_frame(&mut rng));
        }
    }

    #[test]
    fn empty_delta_batch_round_trips() {
        round_trip(WireFrame::Deltas {
            source: 7,
            deltas: Vec::new(),
        });
    }

    #[test]
    fn negative_and_extreme_weights_round_trip() {
        round_trip(WireFrame::Deltas {
            source: 0,
            deltas: vec![
                WireDelta {
                    values: vec![Value::Int(1)],
                    timestamp_us: 0,
                    weight: -1,
                },
                WireDelta {
                    values: vec![],
                    timestamp_us: u64::MAX / 2,
                    weight: i64::MIN,
                },
                WireDelta {
                    values: vec![Value::Text("x".into())],
                    timestamp_us: 3,
                    weight: i64::MAX,
                },
            ],
        });
    }

    #[test]
    fn traced_deltas_and_histogram_round_trip() {
        let traced = |admit_us, frame| WireFrame::Traced {
            origin: 2,
            batch: u64::MAX / 2,
            admit_us,
            frame: Box::new(frame),
        };
        round_trip(traced(
            123_456_789,
            WireFrame::Deltas {
                source: 3,
                deltas: vec![WireDelta {
                    values: vec![Value::Int(-5), Value::Text("m".into())],
                    timestamp_us: 17,
                    weight: -2,
                }],
            },
        ));
        let empty = WireFrame::Deltas {
            source: 0,
            deltas: vec![],
        };
        round_trip(traced(0, empty.clone()));
        // A trace context wraps one data frame, never another trace.
        let nested = encode_frame(&traced(1, traced(2, empty)));
        assert!(decode_frame(nested).is_err());
        round_trip(WireFrame::Histogram {
            node: 1,
            max_us: 0,
            sum_us: 0,
            buckets: vec![],
        });
        round_trip(WireFrame::Histogram {
            node: u32::MAX,
            max_us: u64::MAX / 2,
            sum_us: u64::MAX / 2,
            buckets: vec![(0, 1), (39, u64::MAX / 2), (63, 7)],
        });
    }

    /// A traced frame's length depends on its payload, not on the wall
    /// clock its admission tick was read from.
    #[test]
    fn traced_frame_length_ignores_the_admission_tick() {
        let rows = vec![WireRow {
            values: vec![Value::Int(3), Value::Float(0.5)],
            timestamp_us: 41,
        }];
        let len = |admit_us| {
            let batch = WireFrame::Batch {
                source: 2,
                first: Some(700),
                rows: rows.clone(),
            };
            let frame = Box::new(batch);
            let traced = WireFrame::Traced {
                origin: 1,
                batch: 9,
                admit_us,
                frame,
            };
            encode_frame(&traced).len()
        };
        assert_eq!(len(0), len(u64::MAX));
        assert_eq!(len(0), len(1_700_000_000_000));
        round_trip(WireFrame::Batch {
            source: 0,
            first: Some(0),
            rows: vec![],
        });
        round_trip(WireFrame::Batch {
            source: 0,
            first: None,
            rows,
        });
    }

    #[test]
    fn heartbeat_and_control_round_trip() {
        round_trip(WireFrame::Heartbeat { now_us: 0 });
        round_trip(WireFrame::Heartbeat {
            now_us: 86_400_000_000,
        });
        round_trip(WireFrame::Control {
            op: 0,
            args: vec![],
        });
        round_trip(WireFrame::Control {
            op: 255,
            args: vec![0, u64::MAX, 42],
        });
    }

    #[test]
    fn truncated_and_trailing_inputs_error() {
        let enc = encode_frame(&WireFrame::Deltas {
            source: 1,
            deltas: vec![WireDelta {
                values: vec![Value::Text("hello".into())],
                timestamp_us: 9,
                weight: 1,
            }],
        });
        assert!(decode_frame(enc.slice(0..enc.len() - 2)).is_err());
        let mut padded = BytesMut::new();
        padded.put_slice(&enc);
        padded.put_u8(0);
        assert!(decode_frame(padded.freeze()).is_err());
        assert!(decode_frame(Bytes::from_static(&[])).is_err());
        let mut garbage = BytesMut::new();
        garbage.put_u8(0x42);
        assert!(decode_frame(garbage.freeze()).is_err());
    }
}
