//! RFID-beacon localization.
//!
//! "'Mote' sensors are embedded in the hallways at major intersection
//! points, and every 100 feet. These sensors listen for a 'beacon'
//! transmission from an active RFID device (also a mote) carried by an
//! occupant and determine where that person is positioned" (§2). The
//! motes have no positioning hardware — the *database table* of detector
//! coordinates turns "detector X heard the beacon" into a position.
//!
//! The estimator is the paper-faithful simple one: the strongest reader
//! wins; with several readers, the RSSI-weighted centroid of their
//! *database coordinates*. E8 sweeps detector spacing and link loss and
//! reports mean position error.

use aspen_netsim::RadioModel;
use aspen_types::rng::{chance, seeded};
use aspen_types::{Point, Result, SimTime};
use rand::rngs::StdRng;
use rand::Rng;

use crate::building::Building;

/// One detector's observation of a beacon.
#[derive(Debug, Clone)]
pub struct Sighting {
    pub detector: String,
    pub rssi: f64,
    pub at: SimTime,
}

/// Localizes beacons against the detector-coordinate table.
pub struct Localizer {
    detectors: Vec<(String, Point)>,
    radio: RadioModel,
    rng: StdRng,
    /// RSSI noise amplitude, dB-ish units.
    pub rssi_noise: f64,
}

impl Localizer {
    pub fn new(building: &Building, radio: RadioModel, seed: u64) -> Self {
        Localizer {
            detectors: building.detector_positions(),
            radio,
            rng: seeded(seed),
            rssi_noise: 3.0,
        }
    }

    /// Simulate one beacon transmission from `truth`: which detectors
    /// hear it (subject to range and loss) and at what RSSI.
    pub fn observe(&mut self, truth: Point, at: SimTime) -> Vec<Sighting> {
        let mut out = Vec::new();
        for (name, pos) in &self.detectors {
            let d = truth.distance(*pos);
            if d > self.radio.range_ft {
                continue;
            }
            if chance(&mut self.rng, self.radio.loss_probability(d)) {
                continue;
            }
            // Log-distance RSSI model with noise.
            let rssi = -30.0 - 20.0 * (d.max(1.0)).log10()
                + (self.rng.gen::<f64>() - 0.5) * 2.0 * self.rssi_noise;
            out.push(Sighting {
                detector: name.clone(),
                rssi,
                at,
            });
        }
        out
    }

    /// Estimate a position from sightings: the RSSI-weighted centroid of
    /// the **strongest three** readers' *table* coordinates
    /// (strongest-reader when only one hears). Limiting to the top
    /// readers keeps dense deployments from biasing the centroid toward
    /// the middle of the detector field. `None` when nothing heard.
    pub fn estimate(&self, sightings: &[Sighting]) -> Option<Point> {
        if sightings.is_empty() {
            return None;
        }
        let mut ranked: Vec<&Sighting> = sightings.iter().collect();
        ranked.sort_by(|a, b| b.rssi.partial_cmp(&a.rssi).expect("finite rssi"));
        ranked.truncate(3);
        let mut sx = 0.0;
        let mut sy = 0.0;
        let mut sw = 0.0;
        for s in ranked {
            let pos = self
                .detectors
                .iter()
                .find(|(n, _)| *n == s.detector)
                .map(|(_, p)| *p)?;
            // RSSI is negative dB; 10^(rssi/10) ≈ 1/d² gives a sharp
            // proximity weight.
            let w = 10f64.powf(s.rssi / 10.0);
            sx += pos.x * w;
            sy += pos.y * w;
            sw += w;
        }
        Some(Point::new(sx / sw, sy / sw))
    }

    /// One-shot: observe then estimate; returns `(estimate, error_ft)`.
    pub fn localize(&mut self, truth: Point, at: SimTime) -> Option<(Point, f64)> {
        let sightings = self.observe(truth, at);
        let est = self.estimate(&sightings)?;
        Some((est, est.distance(truth)))
    }
}

/// A visitor walking the hallway: piecewise-linear motion between
/// routing points, emitting a beacon every `beacon_period` seconds.
pub struct VisitorWalk {
    /// Waypoints (positions) visited in order.
    pub waypoints: Vec<Point>,
    /// Walking speed, ft/s.
    pub speed: f64,
}

impl VisitorWalk {
    /// Walk a named route through the building.
    pub fn along(building: &Building, names: &[&str]) -> Result<VisitorWalk> {
        let mut waypoints = Vec::with_capacity(names.len());
        for n in names {
            let p = building.point(n).ok_or_else(|| {
                aspen_types::AspenError::Unresolved(format!("unknown waypoint '{n}'"))
            })?;
            waypoints.push(p.pos);
        }
        Ok(VisitorWalk {
            waypoints,
            speed: 4.0,
        })
    }

    /// Total walk length, feet.
    pub fn length(&self) -> f64 {
        self.waypoints.windows(2).map(|w| w[0].distance(w[1])).sum()
    }

    /// Ground-truth position after walking for `t` seconds (clamps at the
    /// final waypoint).
    pub fn position_at(&self, t_sec: f64) -> Point {
        let mut remaining = (t_sec * self.speed).max(0.0);
        for w in self.waypoints.windows(2) {
            let seg = w[0].distance(w[1]);
            if remaining <= seg {
                let frac = if seg == 0.0 { 0.0 } else { remaining / seg };
                return w[0].lerp(w[1], frac);
            }
            remaining -= seg;
        }
        *self.waypoints.last().expect("nonempty walk")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Building, Localizer) {
        let b = Building::moore_wing(3, 4, 100.0);
        let l = Localizer::new(&b, RadioModel::lossless(), 77);
        (b, l)
    }

    #[test]
    fn beacon_next_to_detector_is_located_there() {
        let (b, mut l) = setup();
        let hall1 = b.point("hall1").unwrap().pos;
        let (est, err) = l.localize(hall1, SimTime::ZERO).unwrap();
        assert!(err < 40.0, "err={err} est={est}");
    }

    #[test]
    fn error_bounded_by_detector_spacing() {
        let (_b, mut l) = setup();
        // Midway between hall1 (100,0) and hall2 (200,0).
        let truth = Point::new(150.0, 0.0);
        let (_, err) = l.localize(truth, SimTime::ZERO).unwrap();
        assert!(err < 60.0, "err={err}");
    }

    #[test]
    fn out_of_range_yields_none() {
        let (_b, mut l) = setup();
        let far = Point::new(10_000.0, 10_000.0);
        assert!(l.localize(far, SimTime::ZERO).is_none());
        assert!(l.estimate(&[]).is_none());
    }

    #[test]
    fn denser_detectors_reduce_error() {
        // Same 450 ft hallway, detectors every 150 ft vs every 50 ft.
        let sparse_b = Building::moore_wing(3, 2, 150.0);
        let dense_b = Building::moore_wing(9, 2, 50.0);
        assert!((sparse_b.hallway_len - dense_b.hallway_len).abs() < 1e-9);
        let mut radio = RadioModel::lossless();
        radio.range_ft = 160.0;
        let mut sparse = Localizer::new(&sparse_b, radio.clone(), 9);
        let mut dense = Localizer::new(&dense_b, radio, 9);
        let mut err_sparse = 0.0;
        let mut err_dense = 0.0;
        let mut n = 0;
        for i in 0..60 {
            let truth = Point::new(10.0 + i as f64 * 7.0, 0.0);
            if let (Some((_, e1)), Some((_, e2))) = (
                sparse.localize(truth, SimTime::ZERO),
                dense.localize(truth, SimTime::ZERO),
            ) {
                err_sparse += e1;
                err_dense += e2;
                n += 1;
            }
        }
        assert!(n > 20);
        assert!(
            err_dense / n as f64 <= err_sparse / n as f64,
            "dense={} sparse={}",
            err_dense / n as f64,
            err_sparse / n as f64
        );
    }

    #[test]
    fn walk_interpolates_and_clamps() {
        let (b, _) = setup();
        let w = VisitorWalk::along(&b, &["entrance", "hall1", "hall2"]).unwrap();
        assert!((w.length() - 200.0).abs() < 1e-9);
        assert_eq!(w.position_at(0.0), Point::new(0.0, 0.0));
        // 4 ft/s × 25 s = 100 ft → at hall1.
        assert!(w.position_at(25.0).distance(Point::new(100.0, 0.0)) < 1e-9);
        // Far beyond the end: clamp at hall2.
        assert!(w.position_at(1e6).distance(Point::new(200.0, 0.0)) < 1e-9);
    }

    #[test]
    fn unknown_waypoint_errors() {
        let (b, _) = setup();
        assert!(VisitorWalk::along(&b, &["entrance", "atlantis"]).is_err());
    }
}
