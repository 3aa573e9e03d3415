//! Cost-model unification.
//!
//! The two ASPEN engines optimize for *different currencies*: the sensor
//! engine minimizes **radio messages** (battery is the scarce resource),
//! the stream engine minimizes **latency to answers**. The federated
//! optimizer cannot compare subplan costs until both are expressed in one
//! unit. [`CostModelParams`] holds the exchange rates — derived from the
//! catalog's [`crate::NetworkStats`] — and [`NormalizedCost`] is the
//! common currency.
//!
//! Experiment E9 ablates exactly this conversion: with
//! `normalization_enabled = false` the optimizer adds raw engine numbers
//! (messages + microseconds) as if they were commensurable, reproducing
//! the degenerate plans the paper's design avoids.

/// Exchange rates from engine-native costs into normalized cost units.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModelParams {
    /// Cost units per radio message. Messages are the sensor engine's
    /// native unit; this rate prices battery depletion and channel
    /// congestion.
    pub units_per_msg: f64,
    /// Cost units per second of answer latency (stream-engine native
    /// unit).
    pub units_per_latency_sec: f64,
    /// Cost units per CPU operation on PC-class nodes (small; PCs are
    /// cheap relative to motes).
    pub units_per_cpu_op: f64,
    /// Cost units per byte shipped over the LAN between stream-engine
    /// nodes.
    pub units_per_lan_byte: f64,
    /// E9 ablation switch: when `false`, the conversions
    /// ([`CostModelParams::from_messages`],
    /// [`CostModelParams::from_stream_cost`]) return the *raw sum* of
    /// incommensurable engine numbers.
    pub normalization_enabled: bool,
}

impl Default for CostModelParams {
    fn default() -> Self {
        CostModelParams {
            // One mote message ≈ 1 unit: the reference currency.
            units_per_msg: 1.0,
            // A second of latency is worth ~100 messages: interactive
            // displays tolerate ~100 ms before users notice, and the
            // building scale keeps flows small.
            units_per_latency_sec: 100.0,
            units_per_cpu_op: 1e-7,
            units_per_lan_byte: 1e-5,
            normalization_enabled: true,
        }
    }
}

/// A subplan cost in the federated optimizer's common currency.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NormalizedCost {
    pub units: f64,
}

impl NormalizedCost {
    pub const ZERO: NormalizedCost = NormalizedCost { units: 0.0 };

    pub fn new(units: f64) -> Self {
        NormalizedCost { units }
    }
}

impl std::ops::Add for NormalizedCost {
    type Output = NormalizedCost;

    fn add(self, other: NormalizedCost) -> NormalizedCost {
        NormalizedCost {
            units: self.units + other.units,
        }
    }
}

impl CostModelParams {
    /// Convert a sensor-engine cost (messages per epoch) into units.
    pub fn from_messages(&self, msgs: f64) -> NormalizedCost {
        if self.normalization_enabled {
            NormalizedCost::new(msgs * self.units_per_msg)
        } else {
            // Ablation: pretend raw message counts are already "units".
            NormalizedCost::new(msgs)
        }
    }

    /// Convert a stream-engine cost (latency seconds + cpu + lan bytes)
    /// into units.
    pub fn from_stream_cost(
        &self,
        latency_sec: f64,
        cpu_ops: f64,
        lan_bytes: f64,
    ) -> NormalizedCost {
        if self.normalization_enabled {
            NormalizedCost::new(
                latency_sec * self.units_per_latency_sec
                    + cpu_ops * self.units_per_cpu_op
                    + lan_bytes * self.units_per_lan_byte,
            )
        } else {
            // Ablation: raw microsecond-scale latency numbers swamp (or
            // are swamped by) message counts depending on magnitude.
            NormalizedCost::new(latency_sec * 1e6 + cpu_ops + lan_bytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_convert_at_rate() {
        let p = CostModelParams::default();
        assert!((p.from_messages(50.0).units - 50.0).abs() < 1e-9);
    }

    #[test]
    fn stream_cost_mixes_components() {
        let p = CostModelParams::default();
        let c = p.from_stream_cost(0.5, 1_000_000.0, 10_000.0);
        // 0.5 s * 100 + 1e6 * 1e-7 + 1e4 * 1e-5 = 50 + 0.1 + 0.1
        assert!((c.units - 50.2).abs() < 1e-9);
    }

    #[test]
    fn ablation_disables_conversion() {
        let p = CostModelParams {
            normalization_enabled: false,
            ..Default::default()
        };
        // Raw latency in "microsecond units" dwarfs message counts.
        let stream = p.from_stream_cost(0.5, 0.0, 0.0);
        let sensor = p.from_messages(1_000.0);
        assert!(stream.units > sensor.units * 100.0);
    }

    #[test]
    fn costs_add() {
        let a = NormalizedCost::new(1.5);
        let b = NormalizedCost::new(2.5);
        assert!(((a + b).units - 4.0).abs() < 1e-12);
        assert_eq!(NormalizedCost::ZERO.units, 0.0);
    }
}
