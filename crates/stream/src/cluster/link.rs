//! LAN link model and wire accounting for the cluster layer.
//!
//! The paper's federation is "PC-style servers and workstations" on a
//! building LAN. [`LanModel`] prices one hop (fixed per-message latency
//! plus bytes over bandwidth); [`WireStats`] meters what actually
//! crossed a link — *encoded* frame bytes from the netsim codec, not an
//! estimate — so the churn property in `tests/cluster.rs` can assert
//! real conservation (tuples out == tuples decoded in) across exchanges.

use aspen_types::SimDuration;

/// LAN link parameters between PC nodes.
#[derive(Debug, Clone)]
pub struct LanModel {
    /// One-way per-message latency, microseconds.
    pub latency_us: u64,
    /// Throughput, bytes per microsecond (1 Gbps ≈ 125 B/µs).
    pub bytes_per_us: f64,
}

impl Default for LanModel {
    fn default() -> Self {
        LanModel {
            latency_us: 200,
            bytes_per_us: 125.0,
        }
    }
}

impl LanModel {
    /// Latency to ship a batch of the given size over one hop.
    pub fn batch_latency(&self, bytes: u64) -> SimDuration {
        SimDuration::from_micros(self.latency_us + (bytes as f64 / self.bytes_per_us) as u64)
    }
}

/// Cumulative wire accounting of one directed cluster link (or of all
/// of them): the bytes are the encoded frame lengths that actually
/// crossed the link, not an estimate.
#[derive(Debug, Clone, Default)]
pub struct WireStats {
    /// Frames shipped.
    pub frames: u64,
    /// Data tuples/deltas carried inside `Deltas` frames.
    pub tuples: u64,
    /// Encoded bytes on the wire.
    pub bytes: u64,
    /// Sum of per-frame shipping latencies under the LAN model.
    pub total_latency: SimDuration,
    /// Worst single-frame latency.
    pub max_frame_latency: SimDuration,
}

impl WireStats {
    /// Charge one frame of `bytes` carrying `tuples` data rows against
    /// this link under `lan`; returns the frame's shipping latency.
    pub fn charge(&mut self, lan: &LanModel, bytes: u64, tuples: u64) -> SimDuration {
        let ship = lan.batch_latency(bytes);
        self.frames += 1;
        self.tuples += tuples;
        self.bytes += bytes;
        self.total_latency = self.total_latency + ship;
        if ship > self.max_frame_latency {
            self.max_frame_latency = ship;
        }
        ship
    }

    /// Fold another link's counters into this one (aggregate views).
    pub fn absorb(&mut self, other: &WireStats) {
        self.frames += other.frames;
        self.tuples += other.tuples;
        self.bytes += other.bytes;
        self.total_latency = self.total_latency + other.total_latency;
        if other.max_frame_latency > self.max_frame_latency {
            self.max_frame_latency = other.max_frame_latency;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lan_model_latency() {
        let lan = LanModel::default();
        let small = lan.batch_latency(125);
        let big = lan.batch_latency(125_000);
        assert_eq!(small, SimDuration::from_micros(201));
        assert!(big > small);
    }

    #[test]
    fn wire_stats_charge_and_absorb() {
        let lan = LanModel::default();
        let mut a = WireStats::default();
        let ship = a.charge(&lan, 1250, 10);
        assert_eq!(ship, SimDuration::from_micros(210));
        a.charge(&lan, 125, 1);
        assert_eq!(a.frames, 2);
        assert_eq!(a.tuples, 11);
        assert_eq!(a.bytes, 1375);
        assert_eq!(a.max_frame_latency, SimDuration::from_micros(210));
        let mut total = WireStats::default();
        total.absorb(&a);
        total.absorb(&a);
        assert_eq!(total.frames, 4);
        assert_eq!(total.bytes, 2750);
        assert_eq!(total.max_frame_latency, a.max_frame_latency);
    }
}
