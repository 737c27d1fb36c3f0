//! The two-endpoint pump: one event loop body for every point-to-point
//! driver in the workspace.
//!
//! A [`Pump`] owns a two-node [`Network`] and the choice of substrate
//! carrying the endpoints' messages — each message one packet, or one PDU
//! of 53-byte ATM cells (§5: "the network technology of the day ... can
//! and will change"; the endpoints never see which). A driver round is
//! [`Pump::exchange`] followed by [`Pump::step`], in this fixed order:
//!
//! 1. poll endpoint `a`, send its output;
//! 2. poll endpoint `b`, send its output;
//! 3. drain `b`'s arrivals into `b`, then `a`'s into `a`;
//! 4. process one in-flight network event; or, with the wire idle, stay
//!    at the same instant if the exchange moved anything (its follow-up
//!    output must leave now); or else jump the clock to the earliest timer.
//!
//! Callers run their application logic between the two calls and keep
//! their own idle policy: [`Pump::step`] returns `false` when nothing is in
//! flight, nothing moved and no timer is armed.

use crate::atm::{AtmConfig, AtmEndpoint};
use crate::fault::FaultConfig;
use crate::link::LinkConfig;
use crate::net::{Network, NodeId};
use crate::time::SimTime;
use ct_wire::WireBuf;

/// Which network substrate carries the endpoints' messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Substrate {
    /// Each message is one network frame (classic packet switching).
    Packet,
    /// Each message is segmented into 53-byte ATM cells with AAL-style
    /// reassembly; per-cell faults, lost cell ⇒ lost message.
    Atm,
}

/// One protocol endpoint driven by a [`Pump`].
pub trait Endpoint {
    /// Advance the protocol machine to `now` and return the messages due
    /// on the wire.
    fn poll(&mut self, now: SimTime) -> Vec<Vec<u8>>;
    /// Ingest one arrived message, handed over as an owned frame.
    fn on_frame(&mut self, now: SimTime, frame: WireBuf);
}

/// A two-node network with the substrate between two [`Endpoint`]s.
#[derive(Debug)]
pub struct Pump {
    /// The network carrying the frames.
    pub net: Network,
    /// Node endpoint `a` is bound to.
    pub node_a: NodeId,
    /// Node endpoint `b` is bound to.
    pub node_b: NodeId,
    /// The ATM adaptation endpoints at `a` and `b`; `None` on packets.
    atm: Option<[AtmEndpoint; 2]>,
}

impl Pump {
    /// A network of two nodes joined by one duplex `link` with `faults`,
    /// carrying messages over `substrate`.
    pub fn new(seed: u64, link: LinkConfig, faults: FaultConfig, substrate: Substrate) -> Self {
        let mut net = Network::new(seed);
        let node_a = net.add_node();
        let node_b = net.add_node();
        net.connect(node_a, node_b, link, faults);
        let atm = (substrate == Substrate::Atm).then(|| {
            [
                AtmEndpoint::new(node_a, AtmConfig::default()),
                AtmEndpoint::new(node_b, AtmConfig::default()),
            ]
        });
        Self {
            net,
            node_a,
            node_b,
            atm,
        }
    }

    /// The ATM adaptation endpoints at `a` and `b` (cell counters and
    /// PDU losses), or `None` on the packet substrate.
    pub fn atm(&self) -> Option<&[AtmEndpoint; 2]> {
        self.atm.as_ref()
    }

    /// Steps 1–3 of a round: poll `a` then `b` onto the wire, then drain
    /// arrivals into `b` then `a`. Returns whether any message moved —
    /// polled out, or delivered whole (a cell that completes no PDU does
    /// not count).
    pub fn exchange(&mut self, a: &mut impl Endpoint, b: &mut impl Endpoint) -> bool {
        let now = self.net.now();
        let mut moved = false;
        for msg in a.poll(now) {
            moved = true;
            self.send(0, msg);
        }
        for msg in b.poll(now) {
            moved = true;
            self.send(1, msg);
        }
        moved |= self.drain(1, b);
        moved |= self.drain(0, a);
        moved
    }

    /// Step 4 of a round: process one in-flight event; else, if the
    /// exchange `moved` anything, stay at this instant; else jump the
    /// clock to the earliest of `timers` (no jump if it is already due).
    /// Returns `false` — leaving the idle policy to the caller — when
    /// nothing is in flight, nothing moved and no timer is armed.
    pub fn step(&mut self, moved: bool, timers: impl IntoIterator<Item = Option<SimTime>>) -> bool {
        if !self.net.is_idle() {
            self.net.step();
            return true;
        }
        if moved {
            return true;
        }
        let now = self.net.now();
        match timers.into_iter().flatten().min() {
            Some(t) => {
                if t > now {
                    self.net.advance(t.saturating_since(now));
                }
                true
            }
            None => false,
        }
    }

    fn nodes(&self, side: usize) -> (NodeId, NodeId) {
        if side == 0 {
            (self.node_a, self.node_b)
        } else {
            (self.node_b, self.node_a)
        }
    }

    /// Send one message from `side` (0 = `a`, 1 = `b`) to the other end.
    /// Refusals are silent loss, as on a real wire.
    fn send(&mut self, side: usize, msg: Vec<u8>) {
        let (from, to) = self.nodes(side);
        match &mut self.atm {
            None => {
                let _ = self.net.send(from, to, msg);
            }
            Some(atm) => {
                let _ = atm[side].send_pdu(&mut self.net, to, &msg);
            }
        }
    }

    /// Hand every message delivered at `side` to `ep`.
    fn drain(&mut self, side: usize, ep: &mut impl Endpoint) -> bool {
        let (node, _) = self.nodes(side);
        let mut moved = false;
        match &mut self.atm {
            None => {
                while let Some(frame) = self.net.recv(node) {
                    moved = true;
                    ep.on_frame(self.net.now(), frame.payload.into());
                }
            }
            Some(atm) => {
                atm[side].pump(&mut self.net);
                while let Some((_, pdu)) = atm[side].recv_pdu() {
                    moved = true;
                    ep.on_frame(self.net.now(), pdu.into());
                }
            }
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted endpoint: emits its script at the first poll at or after
    /// each entry's time, and logs every poll and arrival.
    struct Scripted {
        name: &'static str,
        script: Vec<(SimTime, Vec<u8>)>,
        log: std::rc::Rc<std::cell::RefCell<Vec<String>>>,
    }

    impl Endpoint for Scripted {
        fn poll(&mut self, now: SimTime) -> Vec<Vec<u8>> {
            let due = self.script.iter().take_while(|(t, _)| *t <= now).count();
            let out: Vec<Vec<u8>> = self.script.drain(..due).map(|(_, m)| m).collect();
            self.log
                .borrow_mut()
                .push(format!("{} poll {}", self.name, out.len()));
            out
        }

        fn on_frame(&mut self, now: SimTime, frame: WireBuf) {
            self.log.borrow_mut().push(format!(
                "{} got {:?} at {now}",
                self.name,
                frame.as_slice()
            ));
        }
    }

    fn pair(
        log: &std::rc::Rc<std::cell::RefCell<Vec<String>>>,
        a: Vec<(SimTime, Vec<u8>)>,
        b: Vec<(SimTime, Vec<u8>)>,
    ) -> (Scripted, Scripted) {
        let ep = |name, script| Scripted {
            name,
            script,
            log: log.clone(),
        };
        (ep("a", a), ep("b", b))
    }

    /// Both substrates: every frame arrives whole, and each round runs
    /// poll a, poll b, drain b, drain a in that order.
    #[test]
    fn frames_arrive_in_documented_order_on_both_substrates() {
        for substrate in [Substrate::Packet, Substrate::Atm] {
            let log = Default::default();
            let big = vec![7u8; 300]; // several cells on ATM
            let (mut a, mut b) = pair(
                &log,
                vec![(SimTime::ZERO, vec![1, 2]), (SimTime::ZERO, big.clone())],
                vec![(SimTime::ZERO, vec![3])],
            );
            let mut pump = Pump::new(1, LinkConfig::ideal(), FaultConfig::none(), substrate);
            assert_eq!(pump.atm().is_some(), substrate == Substrate::Atm);
            for _ in 0..10_000 {
                let moved = pump.exchange(&mut a, &mut b);
                if !pump.step(moved, []) {
                    break;
                }
            }
            let log = log.borrow();
            assert_eq!(log[..2], ["a poll 2", "b poll 1"], "{substrate:?}");
            let got: Vec<&String> = log.iter().filter(|l| l.contains(" got ")).collect();
            assert_eq!(got.len(), 3, "{substrate:?}: {log:?}");
            assert!(got[0].starts_with("b got [1, 2]"), "{substrate:?}: {got:?}");
            assert!(got[1].starts_with(&format!("b got {big:?}")));
            assert!(got[2].starts_with("a got [3]"));
            // Every round polls a before b.
            let polls: Vec<&str> = log
                .iter()
                .filter(|l| l.contains(" poll "))
                .map(|l| &l[..1])
                .collect();
            assert!(polls.chunks(2).all(|p| p == ["a", "b"]), "{polls:?}");
        }
    }

    /// Within one round, `b` drains before `a`: both arrivals land at the
    /// same instant, and `b`'s is handed over first.
    #[test]
    fn exchange_drains_b_before_a() {
        let log = Default::default();
        let (mut a, mut b) = pair(
            &log,
            vec![(SimTime::ZERO, vec![1])],
            vec![(SimTime::ZERO, vec![2])],
        );
        let mut pump = Pump::new(
            2,
            LinkConfig::ideal(),
            FaultConfig::none(),
            Substrate::Packet,
        );
        assert!(pump.exchange(&mut a, &mut b));
        pump.net.run_until_idle();
        log.borrow_mut().clear();
        assert!(pump.exchange(&mut a, &mut b));
        let log = log.borrow();
        assert_eq!(log[..2], ["a poll 0", "b poll 0"]);
        assert!(log[2].starts_with("b got [1]"), "{log:?}");
        assert!(log[3].starts_with("a got [2]"), "{log:?}");
    }

    /// With the wire idle: stay at the same instant while anything moved,
    /// otherwise jump to the earliest timer, and report idle with none.
    #[test]
    fn step_stays_while_moving_then_jumps_to_earliest_timer() {
        let mut pump = Pump::new(
            3,
            LinkConfig::ideal(),
            FaultConfig::none(),
            Substrate::Packet,
        );
        let later = SimTime::from_millis(9);
        let sooner = SimTime::from_millis(4);
        assert!(pump.step(true, [Some(sooner)]));
        assert_eq!(pump.net.now(), SimTime::ZERO, "moved: same instant");
        assert!(pump.step(false, [Some(later), None, Some(sooner)]));
        assert_eq!(pump.net.now(), sooner, "jumps to the earliest timer");
        assert!(pump.step(false, [Some(SimTime::ZERO)]));
        assert_eq!(pump.net.now(), sooner, "a due timer does not move time");
        assert!(!pump.step(false, [None, None]), "idle: caller's policy");
        assert_eq!(pump.net.now(), sooner);
    }

    /// In-flight frames take precedence over timers: one event per step.
    #[test]
    fn step_processes_in_flight_events_first() {
        let log = Default::default();
        let (mut a, mut b) = pair(&log, vec![(SimTime::ZERO, vec![1])], vec![]);
        let mut pump = Pump::new(4, LinkConfig::lan(), FaultConfig::none(), Substrate::Packet);
        assert!(pump.exchange(&mut a, &mut b));
        assert!(!pump.net.is_idle());
        let far = SimTime::from_secs(5);
        assert!(pump.step(true, [Some(far)]));
        assert!(pump.net.now() < far, "stepped the frame, not the timer");
        assert_eq!(pump.net.pending(pump.node_b), 1);
    }
}
