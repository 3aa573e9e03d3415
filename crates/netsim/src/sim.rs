//! The discrete-event simulator core.
//!
//! A [`Simulator`] owns the topology, the radio model, one [`NodeApp`] per
//! node, and a single event queue ordered by `(time, sequence)`. All
//! randomness (link loss) is drawn from one seeded generator in event
//! order, so a run is a pure function of `(topology, radio, apps, seed)`.

use std::collections::BinaryHeap;

use rand::rngs::StdRng;

use aspen_types::rng::{chance, seeded};
use aspen_types::{AspenError, NodeId, Result, SimDuration, SimTime};

use crate::event::{Action, Ctx, Event, EventKind, NodeApp, Payload};
use crate::radio::RadioModel;
use crate::stats::NetStats;
use crate::topology::Topology;

/// Default battery: roughly two AA cells' usable energy.
const DEFAULT_BATTERY_J: f64 = 20_000.0;

/// Hard cap on processed events, guarding against runaway protocols.
const MAX_EVENTS: u64 = 50_000_000;

/// The discrete-event network simulator. See the crate docs for the model.
pub struct Simulator<M: Payload, A: NodeApp<M>> {
    topology: Topology,
    radio: RadioModel,
    apps: Vec<A>,
    alive: Vec<bool>,
    battery_j: Vec<f64>,
    static_neighbors: Vec<Vec<NodeId>>,
    queue: BinaryHeap<Event<M>>,
    seq: u64,
    now: SimTime,
    rng: StdRng,
    stats: NetStats,
    events_processed: u64,
}

impl<M: Payload, A: NodeApp<M>> Simulator<M, A> {
    /// Create a simulator with one app per node; boots every node at time
    /// zero (in node-id order).
    pub fn new(topology: Topology, radio: RadioModel, apps: Vec<A>, seed: u64) -> Result<Self> {
        if apps.len() != topology.len() {
            return Err(AspenError::Simulation(format!(
                "{} apps for {} nodes",
                apps.len(),
                topology.len()
            )));
        }
        let n = topology.len();
        let static_neighbors = topology.adjacency(&radio);
        let mut sim = Simulator {
            topology,
            radio,
            apps,
            alive: vec![true; n],
            battery_j: vec![DEFAULT_BATTERY_J; n],
            static_neighbors,
            queue: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            rng: seeded(seed),
            stats: NetStats::new(n),
            events_processed: 0,
        };
        for i in 0..n {
            sim.push(SimTime::ZERO, EventKind::Boot(NodeId(i as u32)));
        }
        Ok(sim)
    }

    /// Override every node's starting battery (joules).
    pub fn set_battery(&mut self, joules: f64) {
        for b in &mut self.battery_j {
            *b = joules;
        }
    }

    /// Schedule a node to die at `t` (failure injection for E10).
    pub fn kill_at(&mut self, node: NodeId, t: SimTime) {
        self.push(t, EventKind::Kill(node));
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    pub fn radio(&self) -> &RadioModel {
        &self.radio
    }

    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node.index()]
    }

    pub fn battery(&self, node: NodeId) -> f64 {
        self.battery_j[node.index()]
    }

    /// Immutable access to a node's application (assertions in tests, and
    /// how the sensor engine harvests results from the base station).
    pub fn app(&self, node: NodeId) -> &A {
        &self.apps[node.index()]
    }

    /// Run until the queue is empty or the clock passes `until`.
    /// Returns the number of events processed.
    pub fn run_until(&mut self, until: SimTime) -> Result<u64> {
        let mut n = 0;
        while let Some(ev) = self.queue.peek() {
            if ev.time > until {
                break;
            }
            let ev = self.queue.pop().expect("peeked");
            self.dispatch(ev)?;
            n += 1;
        }
        // Advance the clock even if the queue drained early.
        if self.now < until {
            self.now = until;
        }
        Ok(n)
    }

    /// Run until no events remain.
    pub fn run_to_quiescence(&mut self) -> Result<u64> {
        let mut n = 0;
        while let Some(ev) = self.queue.pop() {
            self.dispatch(ev)?;
            n += 1;
        }
        Ok(n)
    }

    fn push(&mut self, time: SimTime, kind: EventKind<M>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Event { time, seq, kind });
    }

    fn live_neighbors(&self, node: NodeId) -> Vec<NodeId> {
        self.static_neighbors[node.index()]
            .iter()
            .copied()
            .filter(|n| self.alive[n.index()])
            .collect()
    }

    fn dispatch(&mut self, ev: Event<M>) -> Result<()> {
        debug_assert!(ev.time >= self.now, "event in the past");
        self.now = ev.time;
        self.events_processed += 1;
        if self.events_processed > MAX_EVENTS {
            return Err(AspenError::Simulation(format!(
                "event budget exhausted ({MAX_EVENTS}); runaway protocol?"
            )));
        }
        match ev.kind {
            EventKind::Boot(node) => {
                if self.alive[node.index()] {
                    let actions = self.call(node, |app, ctx| app.on_start(ctx));
                    self.process_actions(node, actions);
                }
            }
            EventKind::Deliver { to, from, msg } => {
                if self.alive[to.index()] {
                    let bytes = msg.wire_bytes();
                    let rx_j = self.radio.rx_energy(bytes);
                    {
                        let s = &mut self.stats.per_node[to.index()];
                        s.rx_msgs += 1;
                        s.rx_bytes += self.radio.frame_bytes(bytes) as u64;
                        s.rx_j += rx_j;
                    }
                    self.stats.msgs_delivered += 1;
                    self.drain_battery(to, rx_j);
                    if self.alive[to.index()] {
                        let actions = self.call(to, |app, ctx| app.on_message(ctx, from, msg));
                        self.process_actions(to, actions);
                    }
                }
            }
            EventKind::Timer { node, timer } => {
                if self.alive[node.index()] {
                    let actions = self.call(node, |app, ctx| app.on_timer(ctx, timer));
                    self.process_actions(node, actions);
                }
            }
            EventKind::Kill(node) => {
                self.alive[node.index()] = false;
            }
        }
        Ok(())
    }

    /// Invoke an app callback with a freshly built context; returns the
    /// queued actions.
    fn call(&mut self, node: NodeId, f: impl FnOnce(&mut A, &mut Ctx<M>)) -> Vec<Action<M>> {
        let neighbors = self.live_neighbors(node);
        let mut ctx = Ctx {
            node,
            now: self.now,
            neighbors: &neighbors,
            battery_j: self.battery_j[node.index()],
            actions: vec![],
        };
        f(&mut self.apps[node.index()], &mut ctx);
        ctx.actions
    }

    fn process_actions(&mut self, node: NodeId, actions: Vec<Action<M>>) {
        for action in actions {
            match action {
                Action::Send { to, msg } => self.transmit(node, Some(to), msg),
                Action::Broadcast { msg } => self.transmit(node, None, msg),
                Action::SetTimer { delay, timer } => {
                    self.push(self.now + delay, EventKind::Timer { node, timer });
                }
            }
        }
    }

    /// One radio transmission: unicast (`to = Some`) or broadcast.
    fn transmit(&mut self, from: NodeId, to: Option<NodeId>, msg: M) {
        if !self.alive[from.index()] {
            return;
        }
        let payload = msg.wire_bytes();
        let frame = self.radio.frame_bytes(payload) as u64;
        let tx_j = self.radio.tx_energy(payload);
        {
            let s = &mut self.stats.per_node[from.index()];
            s.tx_msgs += 1;
            s.tx_bytes += frame;
            s.tx_j += tx_j;
        }
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += frame;
        self.drain_battery(from, tx_j);

        let src = self.topology.position(from);
        let latency = SimDuration::from_micros(self.radio.hop_latency(payload));
        match to {
            Some(to) => {
                let dst = self.topology.position(to);
                let lost = !self.radio.in_range(src, dst)
                    || !self.alive[to.index()]
                    || chance(
                        &mut self.rng,
                        self.radio.loss_probability(src.distance(dst)),
                    );
                if lost {
                    self.stats.msgs_dropped += 1;
                } else {
                    self.push(self.now + latency, EventKind::Deliver { to, from, msg });
                }
            }
            None => {
                let targets = self.live_neighbors(from);
                let mut any = false;
                for t in targets {
                    let d = src.distance(self.topology.position(t));
                    if !chance(&mut self.rng, self.radio.loss_probability(d)) {
                        any = true;
                        self.push(
                            self.now + latency,
                            EventKind::Deliver {
                                to: t,
                                from,
                                msg: msg.clone(),
                            },
                        );
                    }
                }
                if !any {
                    self.stats.msgs_dropped += 1;
                }
            }
        }
    }

    fn drain_battery(&mut self, node: NodeId, joules: f64) {
        let b = &mut self.battery_j[node.index()];
        *b -= joules;
        if *b <= 0.0 {
            self.alive[node.index()] = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    /// Echo app: the base broadcasts "ping" at start; everyone else
    /// replies "pong" to the sender once.
    struct Echo {
        is_base: bool,
        pongs_heard: u32,
        pings_heard: u32,
    }

    impl Echo {
        fn new(is_base: bool) -> Self {
            Echo {
                is_base,
                pongs_heard: 0,
                pings_heard: 0,
            }
        }
    }

    impl NodeApp<Bytes> for Echo {
        fn on_start(&mut self, ctx: &mut Ctx<Bytes>) {
            if self.is_base {
                ctx.broadcast(Bytes::from_static(b"ping"));
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<Bytes>, from: NodeId, msg: Bytes) {
            if &msg[..] == b"ping" {
                self.pings_heard += 1;
                ctx.send(from, Bytes::from_static(b"pong"));
            } else {
                self.pongs_heard += 1;
            }
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<Bytes>, _timer: u64) {}
    }

    fn star_sim(n: usize) -> Simulator<Bytes, Echo> {
        let topo = Topology::star(n, 50.0);
        let mut apps = vec![Echo::new(true)];
        apps.extend((0..n).map(|_| Echo::new(false)));
        Simulator::new(topo, RadioModel::lossless(), apps, 1).unwrap()
    }

    #[test]
    fn ping_pong_over_lossless_star() {
        let mut sim = star_sim(5);
        sim.run_to_quiescence().unwrap();
        assert_eq!(sim.app(NodeId(0)).pongs_heard, 5);
        for i in 1..=5u32 {
            assert_eq!(sim.app(NodeId(i)).pings_heard, 1);
        }
        // 1 broadcast + 5 unicasts.
        assert_eq!(sim.stats().msgs_sent, 6);
        assert_eq!(sim.stats().msgs_delivered, 10); // 5 ping receptions + 5 pongs
        assert_eq!(sim.stats().msgs_dropped, 0);
    }

    #[test]
    fn determinism_across_runs() {
        let run = |seed| {
            let topo = Topology::hallway(400.0, 80.0);
            let n = topo.len();
            let mut apps = vec![Echo::new(true)];
            apps.extend((1..n).map(|_| Echo::new(false)));
            let radio = RadioModel {
                base_loss: 0.3, // heavy loss to exercise the RNG
                ..RadioModel::default()
            };
            let mut sim = Simulator::new(topo, radio, apps, seed).unwrap();
            sim.run_to_quiescence().unwrap();
            (
                sim.stats().msgs_delivered,
                sim.stats().msgs_dropped,
                sim.stats().bytes_sent,
            )
        };
        assert_eq!(run(42), run(42));
        // And a different seed should (with these loss rates) differ.
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn dead_nodes_do_not_receive() {
        let mut sim = star_sim(3);
        sim.kill_at(NodeId(1), SimTime::ZERO);
        sim.run_to_quiescence().unwrap();
        // Node 1 died before the ping was delivered.
        assert_eq!(sim.app(NodeId(1)).pings_heard, 0);
        assert_eq!(sim.app(NodeId(0)).pongs_heard, 2);
        assert!(!sim.is_alive(NodeId(1)));
    }

    #[test]
    fn battery_exhaustion_kills() {
        let mut sim = star_sim(2);
        sim.set_battery(1e-9); // dies on the first transmission
        sim.run_to_quiescence().unwrap();
        assert!(!sim.is_alive(NodeId(0)));
        // Broadcast still went out (energy charged as it dies), but no
        // pong can come back to a dead node: deliveries to it are dropped
        // silently at delivery time.
        assert_eq!(sim.app(NodeId(0)).pongs_heard, 0);
    }

    #[test]
    fn energy_accounting_is_positive_and_consistent() {
        let mut sim = star_sim(4);
        sim.run_to_quiescence().unwrap();
        let s = sim.stats();
        assert!(s.total_energy_j() > 0.0);
        let tx_total: u64 = s.per_node.iter().map(|n| n.tx_msgs).sum();
        assert_eq!(tx_total, s.msgs_sent);
        let rx_total: u64 = s.per_node.iter().map(|n| n.rx_msgs).sum();
        assert_eq!(rx_total, s.msgs_delivered);
    }

    #[test]
    fn run_until_stops_at_clock() {
        let mut sim = star_sim(3);
        // Nothing has run yet; boots are at t=0 so run_until(0) handles all
        // boots but deliveries are at hop latency > 0.
        sim.run_until(SimTime::ZERO).unwrap();
        assert_eq!(sim.app(NodeId(1)).pings_heard, 0);
        sim.run_until(SimTime::from_secs(1)).unwrap();
        assert_eq!(sim.app(NodeId(1)).pings_heard, 1);
        assert_eq!(sim.now(), SimTime::from_secs(1));
    }

    #[test]
    fn mismatched_apps_rejected() {
        let topo = Topology::star(2, 10.0);
        let apps = vec![Echo::new(true)];
        assert!(Simulator::new(topo, RadioModel::lossless(), apps, 0).is_err());
    }

    #[test]
    fn unicast_out_of_range_is_dropped() {
        struct Shouter;
        impl NodeApp<Bytes> for Shouter {
            fn on_start(&mut self, ctx: &mut Ctx<Bytes>) {
                let other = NodeId(1 - ctx.me().0);
                ctx.send(other, Bytes::from_static(b"x"));
            }
            fn on_message(&mut self, _: &mut Ctx<Bytes>, _: NodeId, _: Bytes) {}
            fn on_timer(&mut self, _: &mut Ctx<Bytes>, _: u64) {}
        }
        let topo = Topology::from_positions(
            vec![
                aspen_types::Point::new(0.0, 0.0),
                aspen_types::Point::new(1000.0, 0.0),
            ],
            NodeId(0),
        );
        let mut sim =
            Simulator::new(topo, RadioModel::lossless(), vec![Shouter, Shouter], 0).unwrap();
        sim.run_to_quiescence().unwrap();
        assert_eq!(sim.stats().msgs_dropped, 2); // both sides' sends drop
        assert_eq!(sim.stats().msgs_delivered, 0);
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerApp {
            fired: Vec<u64>,
        }
        impl NodeApp<Bytes> for TimerApp {
            fn on_start(&mut self, ctx: &mut Ctx<Bytes>) {
                ctx.set_timer(SimDuration::from_secs(2), 2);
                ctx.set_timer(SimDuration::from_secs(1), 1);
                ctx.set_timer(SimDuration::from_secs(3), 3);
            }
            fn on_message(&mut self, _: &mut Ctx<Bytes>, _: NodeId, _: Bytes) {}
            fn on_timer(&mut self, _: &mut Ctx<Bytes>, timer: u64) {
                self.fired.push(timer);
            }
        }
        let topo = Topology::star(0, 1.0);
        let mut sim = Simulator::new(
            topo,
            RadioModel::lossless(),
            vec![TimerApp { fired: vec![] }],
            0,
        )
        .unwrap();
        sim.run_to_quiescence().unwrap();
        assert_eq!(sim.app(NodeId(0)).fired, vec![1, 2, 3]);
    }
}
