//! The benchmark's event loop. It keeps the discipline of the X13 cluster
//! driver — burst offers, a closed loop with a fixed in-flight budget,
//! batched `poll_batch`, `step` drained to idle — but is written against
//! the public API call by call, so each call into a layer can be timed
//! from outside. `run_cluster` is one opaque call and is not used.

use crate::trace::{Layer, Tracer};
use crate::workload::{Shape, CHAIN_KEY, CHAIN_STAGES};
use alf_core::adu::AduName;
use alf_core::pipeline::{canonical_receive_chain, Pipeline};
use alf_core::transport::{AlfConfig, AlfStats};
use ct_netsim::trace::NetStats;
use ct_netsim::{LinkConfig, Network, NodeId, SimTime};
use ct_server::cluster::assoc_payload;
use ct_server::{AlfServer, AssocKey, BatchReport, ServerConfig};
use std::collections::{HashMap, VecDeque};
use std::hint::black_box;

/// Iterations per block when a traced run alternates untraced and traced
/// blocks after the deterministic window, to measure tracing overhead.
const OVERHEAD_BLOCK: u64 = 16;

/// A run that stops offering has this long to drain before its remaining
/// ADUs count as failed, so a wedged run still ends in time.
const DRAIN_LIMIT_NS: u64 = 30_000_000_000;

/// Sums of the [`BatchReport`]s of one stack's `poll_batch` calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Batches {
    /// `poll_batch` calls.
    pub calls: u64,
    /// Ingress frames dispatched.
    pub frames_ingested: u64,
    /// Wakeups fired from the shard wheels.
    pub timers_fired: u64,
    /// Associations polled.
    pub assocs_polled: u64,
    /// Egress frames produced.
    pub egress_frames: u64,
}

impl Batches {
    fn add(&mut self, r: BatchReport) {
        self.calls += 1;
        self.frames_ingested += r.frames_ingested as u64;
        self.timers_fired += r.timers_fired as u64;
        self.assocs_polled += r.assocs_polled as u64;
        self.egress_frames += r.egress_frames as u64;
    }
}

/// Counters of one phase of the loop. Everything here follows from the
/// simulation alone, so it repeats exactly for a seed over a fixed number
/// of iterations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Driver iterations.
    pub iters: u64,
    /// `send_adu` calls.
    pub attempts: u64,
    /// `send_adu` calls refused (window full).
    pub refused: u64,
    /// ADUs accepted by a client stack.
    pub offered: u64,
    /// ADUs delivered once, byte-identical to what was offered.
    pub verified: u64,
    /// Deliveries that were corrupt, misnamed, or repeated.
    pub bad: u64,
    /// ADUs a client reported lost.
    pub lost: u64,
    /// Client stack `poll_batch` totals.
    pub client: Batches,
    /// Server `poll_batch` totals.
    pub server: Batches,
    /// Frames handed to `Network::send`.
    pub net_sends: u64,
    /// `Network::send` calls that returned an error.
    pub net_send_errors: u64,
    /// Events processed by `Network::step`.
    pub net_steps: u64,
    /// Frames returned by `Network::recv`.
    pub net_recvs: u64,
    /// Frames ingested by the server.
    pub server_in: u64,
    /// Frames ingested by the client stacks.
    pub client_in: u64,
    /// Largest server inbox in the simulator, sampled once an iteration.
    pub peak_pending: usize,
    /// Largest server ingress backlog after an iteration's ingest.
    pub peak_backlog: usize,
}

impl Tally {
    fn settled(&self) -> u64 {
        self.verified + self.bad + self.lost
    }

    fn work(&self) -> Work {
        Work {
            verified: self.verified,
            net_sends: self.net_sends,
            net_steps: self.net_steps,
            net_recvs: self.net_recvs,
            server_in: self.server_in,
            client_in: self.client_in,
        }
    }
}

/// The per-ADU and per-frame denominators of the traced iterations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Verified ADUs.
    pub verified: u64,
    /// Frames handed to `Network::send`.
    pub net_sends: u64,
    /// Events processed by `Network::step`.
    pub net_steps: u64,
    /// Frames returned by `Network::recv`.
    pub net_recvs: u64,
    /// Frames ingested by the server.
    pub server_in: u64,
    /// Frames ingested by the client stacks.
    pub client_in: u64,
}

impl Work {
    fn add_since(&mut self, now: Work, start: Work) {
        self.verified += now.verified - start.verified;
        self.net_sends += now.net_sends - start.net_sends;
        self.net_steps += now.net_steps - start.net_steps;
        self.net_recvs += now.net_recvs - start.net_recvs;
        self.server_in += now.server_in - start.server_in;
        self.client_in += now.client_in - start.client_in;
    }
}

/// Transport counters summed over every association of the server and the
/// client stacks, read through `AlfServer::shard_stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportCounts {
    /// Fragments retransmitted selectively.
    pub tus_retransmitted: u64,
    /// Whole ADUs retransmitted.
    pub adus_retransmitted: u64,
    /// Control messages sent.
    pub control: u64,
    /// ADUs delivered.
    pub delivered: u64,
    /// ADUs delivered out of order.
    pub out_of_order: u64,
    /// Malformed or rejected messages.
    pub bad_messages: u64,
}

impl TransportCounts {
    fn of(stacks: &[&AlfServer]) -> Self {
        let mut total = AlfStats::default();
        for s in stacks {
            for i in 0..s.shard_count() {
                total.merge(&s.shard_stats(i));
            }
        }
        Self {
            tus_retransmitted: total.tus_retransmitted_selective,
            adus_retransmitted: total.adus_retransmitted,
            control: total.control_sent,
            delivered: total.adus_delivered,
            out_of_order: total.adus_delivered_out_of_order,
            bad_messages: total.bad_messages,
        }
    }

    fn since(self, start: Self) -> Self {
        Self {
            tus_retransmitted: self.tus_retransmitted - start.tus_retransmitted,
            adus_retransmitted: self.adus_retransmitted - start.adus_retransmitted,
            control: self.control - start.control,
            delivered: self.delivered - start.delivered,
            out_of_order: self.out_of_order - start.out_of_order,
            bad_messages: self.bad_messages - start.bad_messages,
        }
    }
}

/// The simulator's own counters over the window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCounts {
    /// Frames dropped by fault injection.
    pub fault_drops: u64,
    /// Duplicate frames injected.
    pub duplicates: u64,
    /// Frames dropped at a full link queue.
    pub congestion_drops: u64,
}

impl NetCounts {
    fn since(now: &NetStats, start: &NetStats) -> Self {
        Self {
            fault_drops: now.fault_drops - start.fault_drops,
            duplicates: now.duplicates - start.duplicates,
            congestion_drops: now.congestion_drops - start.congestion_drops,
        }
    }
}

/// What the program's own public counters say about the window; read
/// only in traced runs, because some of them walk every association.
#[derive(Debug, Clone, Copy, Default)]
pub struct Inspection {
    /// Transport counters over the window.
    pub transport: TransportCounts,
    /// Simulator counters over the window.
    pub net: NetCounts,
    /// `AlfServer::approx_mem_bytes` per association at the window's end.
    pub mem_bytes_per_assoc: f64,
    /// Largest shard occupancy over the mean shard occupancy.
    pub shard_imbalance: f64,
}

/// Result of a measured phase.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Every offered ADU was settled and every stack drained.
    pub complete: bool,
    /// Wall time of the phase, including its drain.
    pub wall_ns: u64,
    /// On-CPU time of the driving thread over the phase.
    pub cpu_ns: u64,
    /// Counters over the whole phase.
    pub tally: Tally,
    /// Counters over the deterministic window.
    pub window: Tally,
    /// Program counters over the window (traced runs only).
    pub inspection: Inspection,
    /// Host latency of every verified ADU of the phase, in ns.
    pub host_latency_ns: Samples,
    /// Simulated latency from `send_adu` to `take_delivered` of the
    /// window's verified ADUs, in ns.
    pub sim_latency_ns: Samples,
    /// Steady-state blocks of a traced run: wall ns and verified ADUs of
    /// the traced blocks and of the untraced blocks between them.
    pub traced_blocks: (u64, u64),
    /// See [`Measured::traced_blocks`].
    pub untraced_blocks: (u64, u64),
    /// Work done in the traced iterations.
    pub traced: Work,
}

/// The simulated world: client stacks, the network and the server.
pub struct World {
    shape: Shape,
    net: Network,
    server: AlfServer,
    clients: Vec<AlfServer>,
    server_node: NodeId,
    client_nodes: Vec<NodeId>,
    /// Network node index → peer id of the server's associations.
    peer_of_node: Vec<u64>,
    /// Every `(peer, assoc)` in the seed's offer order.
    order: Vec<(u64, u16)>,
    /// Associations still offering: `(peer, assoc, next index)`. The front
    /// offers a burst, then moves to the back.
    offer: VecDeque<(u64, u16, u64)>,
    /// One past the last ADU index an association offers this phase.
    idx_end: u64,
    egress: Vec<(u64, Vec<u8>)>,
    chain: Option<Pipeline>,
    /// Wall stamp of the iteration that offered each unsettled ADU, and
    /// the simulated instant it was offered at.
    sent_at: HashMap<(u64, u16, u64), (u64, SimTime)>,
    tally: Tally,
    host_latency_ns: Samples,
    sim_latency_ns: Samples,
    /// Record simulated latencies: only the window's are reported.
    record_sim: bool,
    stage2_ok: bool,
}

/// splitmix64: the seed's stream for the offer order.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// On-CPU ns of the calling thread, from `/proc/thread-self/schedstat`.
fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

impl World {
    /// Build the world for `shape` and `seed` and run the untimed warm-up:
    /// one burst of ADUs per association, run to full drain, which leaves
    /// every endpoint in its steady state. Returns the world and whether
    /// the warm-up delivered every ADU intact.
    pub fn setup(shape: Shape, seed: u64) -> (World, bool) {
        assert!(
            shape.assocs_per_client <= u16::MAX as usize,
            "wire association ids are 16-bit"
        );
        let mut net = Network::new(seed);
        let server_node = net.add_node();
        let client_nodes: Vec<NodeId> = (0..shape.clients).map(|_| net.add_node()).collect();
        let mut peer_of_node = vec![u64::MAX; net.node_count()];
        for (i, &c) in client_nodes.iter().enumerate() {
            net.connect(server_node, c, LinkConfig::ideal(), shape.faults);
            peer_of_node[c.index()] = i as u64;
        }
        let mut server = AlfServer::new(ServerConfig::default());
        let mut clients: Vec<AlfServer> = (0..shape.clients)
            .map(|_| AlfServer::new(ServerConfig::default()))
            .collect();
        let mut order = Vec::with_capacity(shape.assocs());
        for (peer, client) in clients.iter_mut().enumerate() {
            for assoc in 1..=shape.assocs_per_client as u16 {
                let peer = peer as u64;
                server
                    .add_association(AssocKey { peer, assoc }, AlfConfig::default())
                    .expect("server keys are unique");
                client
                    .add_association(AssocKey { peer: 0, assoc }, AlfConfig::default())
                    .expect("client keys are unique");
                order.push((peer, assoc));
            }
        }
        let mut state = seed;
        for i in (1..order.len()).rev() {
            let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let mut world = World {
            shape,
            net,
            server,
            clients,
            server_node,
            client_nodes,
            peer_of_node,
            order,
            offer: VecDeque::new(),
            idx_end: 0,
            egress: Vec::new(),
            chain: shape
                .stage2
                .then(|| canonical_receive_chain(CHAIN_STAGES, CHAIN_KEY)),
            sent_at: HashMap::with_capacity(2 * shape.inflight as usize),
            tally: Tally::default(),
            host_latency_ns: Samples::default(),
            sim_latency_ns: Samples::default(),
            record_sim: false,
            stage2_ok: true,
        };
        let ok = world.warm_up();
        (world, ok)
    }

    fn start_phase(&mut self, first: u64, end: u64) {
        self.offer = self.order.iter().map(|&(p, a)| (p, a, first)).collect();
        self.idx_end = end;
        self.tally = Tally::default();
        self.host_latency_ns = Samples::default();
        self.sim_latency_ns = Samples::default();
    }

    fn warm_up(&mut self) -> bool {
        self.start_phase(0, self.shape.burst);
        let mut tr = Tracer::new();
        loop {
            let stamp = tr.begin();
            let moved = self.exchange(&mut tr, true, stamp);
            let done = self.offer.is_empty() && self.settled(moved);
            let alive = done || self.advance(&mut tr, moved);
            tr.end();
            if done {
                let t = &self.tally;
                return t.verified == t.offered && t.bad == 0 && self.stage2_ok;
            }
            if !alive || self.tally.iters > 10_000_000 {
                return false;
            }
        }
    }

    /// Run the measured phase: offer for `seconds` of wall time, and for at
    /// least the shape's deterministic window, then stop offering and
    /// drain. With `traced`, the window is traced, and afterwards blocks of
    /// iterations alternate untraced and traced.
    pub fn measure(&mut self, tr: &mut Tracer, seconds: f64, traced: bool) -> Measured {
        self.start_phase(self.shape.burst, u64::MAX);
        let w = self.shape.window_iters;
        let t0 = tr.now_ns();
        let cpu0 = thread_cpu_ns();
        let deadline = t0 + (seconds * 1e9) as u64;
        let (net0, transport0) = if traced {
            (*self.net.stats(), self.transport_counts())
        } else {
            Default::default()
        };
        let mut m = Measured::default();
        let mut window: Option<Tally> = None;
        let mut block = (t0, 0u64, false); // (start stamp, verified at start, traced)
        let mut steady = true;
        let mut iter = 0u64;
        loop {
            let in_window = iter < w;
            self.record_sim = in_window;
            if traced {
                let on = in_window || ((iter - w) / OVERHEAD_BLOCK) % 2 == 1;
                tr.set_in_window(in_window);
                tr.set_on(on);
            }
            if iter == w {
                window = Some(self.tally);
                if traced {
                    m.inspection = self.inspect(net0, transport0);
                }
            }
            let was_on = tr.is_on();
            let before = self.tally.work();
            let stamp = tr.begin();
            let offering = in_window || stamp < deadline;
            if traced && !in_window && (iter - w).is_multiple_of(OVERHEAD_BLOCK) {
                if iter > w && steady && offering {
                    let bin = if block.2 {
                        &mut m.traced_blocks
                    } else {
                        &mut m.untraced_blocks
                    };
                    bin.0 += stamp - block.0;
                    bin.1 += self.tally.verified - block.1;
                }
                steady = offering;
                block = (stamp, self.tally.verified, was_on);
            }
            let moved = self.exchange(tr, offering, stamp);
            let done = !offering && self.settled(moved);
            let alive = done || self.advance(tr, moved);
            tr.end();
            if was_on {
                m.traced.add_since(self.tally.work(), before);
            }
            iter += 1;
            if done {
                m.complete = true;
                break;
            }
            if !alive || stamp > deadline + DRAIN_LIMIT_NS {
                break;
            }
        }
        m.wall_ns = tr.now_ns() - t0;
        m.cpu_ns = thread_cpu_ns().saturating_sub(cpu0);
        tr.set_on(false);
        tr.set_in_window(false);
        self.record_sim = false;
        if traced && iter <= w {
            m.inspection = self.inspect(net0, transport0);
        }
        m.window = window.unwrap_or(self.tally);
        m.tally = self.tally;
        m.sim_latency_ns = std::mem::take(&mut self.sim_latency_ns);
        m.host_latency_ns = std::mem::take(&mut self.host_latency_ns);
        if !self.stage2_ok {
            m.tally.bad += 1;
        }
        m
    }

    fn inspect(&self, net0: NetStats, transport0: TransportCounts) -> Inspection {
        let occupied: Vec<usize> = (0..self.server.shard_count())
            .map(|i| self.server.shard_occupancy(i).occupied)
            .collect();
        let mean = occupied.iter().sum::<usize>() as f64 / occupied.len() as f64;
        let max = occupied.iter().copied().max().unwrap_or(0) as f64;
        Inspection {
            transport: self.transport_counts().since(transport0),
            net: NetCounts::since(self.net.stats(), &net0),
            mem_bytes_per_assoc: self.server.approx_mem_bytes() as f64
                / self.server.assoc_count() as f64,
            shard_imbalance: max / mean,
        }
    }

    fn transport_counts(&self) -> TransportCounts {
        let mut stacks: Vec<&AlfServer> = self.clients.iter().collect();
        stacks.push(&self.server);
        TransportCounts::of(&stacks)
    }

    /// Every offered ADU settled, nothing moved this iteration, and every
    /// client stack drained (checked last: it walks every association).
    fn settled(&self, moved: bool) -> bool {
        let t = &self.tally;
        t.settled() >= t.offered && !moved && self.clients.iter().all(|c| c.drained())
    }

    /// One pass of the loop up to, not including, advancing the simulator.
    /// Returns whether anything moved.
    fn exchange(&mut self, tr: &mut Tracer, offering: bool, stamp: u64) -> bool {
        self.tally.iters += 1;
        if offering {
            self.offer_adus(tr, stamp);
        }
        let now = self.net.now();
        let mut moved = false;

        // Client stacks → network.
        for peer in 0..self.clients.len() {
            let client = &mut self.clients[peer];
            loop {
                let egress = &mut self.egress;
                let report = tr.call(Layer::ClientPoll, || {
                    (client.pending_work() || client.next_wakeup().is_some_and(|w| w <= now))
                        .then(|| client.poll_batch(now, egress))
                });
                let Some(r) = report else { break };
                self.tally.client.add(r);
                if r.idle() {
                    break;
                }
                moved = true;
            }
            let (from, to) = (self.client_nodes[peer], self.server_node);
            for (_, frame) in self.egress.drain(..) {
                self.tally.net_sends += 1;
                let net = &mut self.net;
                if tr
                    .call(Layer::NetSend, || net.send(from, to, frame))
                    .is_err()
                {
                    self.tally.net_send_errors += 1;
                }
            }
            self.tally.lost += client.take_losses().len() as u64;
        }

        // Network → server ingress queue.
        let pending = self.net.pending(self.server_node);
        self.tally.peak_pending = self.tally.peak_pending.max(pending);
        loop {
            let (net, node) = (&mut self.net, self.server_node);
            let Some(frame) = tr.call(Layer::NetRecv, || net.recv(node)) else {
                break;
            };
            moved = true;
            self.tally.net_recvs += 1;
            self.tally.server_in += 1;
            let peer = self.peer_of_node[frame.src.index()];
            let server = &mut self.server;
            tr.call(Layer::ServerIngest, || server.ingest(peer, frame.payload));
        }
        let backlog = self.server.ingress_backlog();
        self.tally.peak_backlog = self.tally.peak_backlog.max(backlog);

        // Server batches → network.
        loop {
            let (server, egress) = (&mut self.server, &mut self.egress);
            let report = tr.call(Layer::ServerPoll, || {
                (server.pending_work() || server.next_wakeup().is_some_and(|w| w <= now))
                    .then(|| server.poll_batch(now, egress))
            });
            let Some(r) = report else { break };
            self.tally.server.add(r);
            if r.idle() {
                break;
            }
            moved = true;
        }
        for (peer, frame) in self.egress.drain(..) {
            self.tally.net_sends += 1;
            let (net, from, to) = (
                &mut self.net,
                self.server_node,
                self.client_nodes[peer as usize],
            );
            if tr
                .call(Layer::NetSend, || net.send(from, to, frame))
                .is_err()
            {
                self.tally.net_send_errors += 1;
            }
        }

        // Server application: stage 2, then byte-for-byte verification of
        // each delivery against the bytes regenerated for its own identity.
        let server = &mut self.server;
        let delivered = tr.call(Layer::ServerTake, || server.take_delivered());
        if !delivered.is_empty() {
            let taken = tr.now_ns();
            let sim_now = self.net.now();
            let n = self.shape.adu_bytes;
            for (key, adu, _reassembly) in delivered {
                let chain = &self.chain;
                self.stage2_ok &= tr.call(Layer::AppPipeline, || match chain {
                    Some(c) => {
                        let out = black_box(c.run_integrated(adu.payload.as_slice()));
                        out.data.len() == adu.payload.len() && out.checksums.len() == 1
                    }
                    None => true,
                });
                let AduName::Seq { index } = adu.name else {
                    self.tally.bad += 1;
                    continue;
                };
                let intact = tr.call(Layer::AppVerify, || {
                    adu.payload.as_slice()
                        == assoc_payload(key.peer, key.assoc, index, n).as_slice()
                });
                match self.sent_at.remove(&(key.peer, key.assoc, index)) {
                    Some((at, sim_at)) if intact => {
                        self.tally.verified += 1;
                        self.host_latency_ns.push(taken - at);
                        if self.record_sim {
                            self.sim_latency_ns
                                .push(sim_now.saturating_since(sim_at).as_nanos());
                        }
                    }
                    _ => self.tally.bad += 1,
                }
            }
            self.host_latency_ns.flush();
            self.sim_latency_ns.flush();
        }

        // Network → client stacks (ACKs); the next iteration's polls run them.
        for peer in 0..self.clients.len() {
            loop {
                let (net, node) = (&mut self.net, self.client_nodes[peer]);
                let Some(frame) = tr.call(Layer::NetRecv, || net.recv(node)) else {
                    break;
                };
                moved = true;
                self.tally.net_recvs += 1;
                self.tally.client_in += 1;
                let client = &mut self.clients[peer];
                tr.call(Layer::ClientIngest, || client.ingest(0, frame.payload));
            }
        }
        moved
    }

    /// Offer ADUs from the front of the offer queue while the in-flight
    /// budget allows. The front association offers up to a burst while its
    /// endpoint is hot in cache, then moves to the back; a refusal also
    /// moves it back and leaves the rest of the iteration to draining.
    fn offer_adus(&mut self, tr: &mut Tracer, stamp: u64) {
        let (burst, inflight, n) = (self.shape.burst, self.shape.inflight, self.shape.adu_bytes);
        let sim_now = self.net.now();
        while self.tally.offered - self.tally.settled() < inflight {
            let Some(&(peer, assoc, mut next)) = self.offer.front() else {
                break;
            };
            let burst_end = next.saturating_add(burst).min(self.idx_end);
            let client = &mut self.clients[peer as usize];
            let key = AssocKey { peer: 0, assoc };
            let mut refused = false;
            while next < burst_end && self.tally.offered - self.tally.settled() < inflight {
                let payload = tr.call(Layer::AppOffer, || assoc_payload(peer, assoc, next, n));
                self.tally.attempts += 1;
                let name = AduName::Seq { index: next };
                match tr.call(Layer::ClientSend, || client.send_adu(key, name, payload)) {
                    Ok(_) => {
                        self.tally.offered += 1;
                        self.sent_at.insert((peer, assoc, next), (stamp, sim_now));
                        next += 1;
                    }
                    Err(_) => {
                        self.tally.refused += 1;
                        refused = true;
                        break;
                    }
                }
            }
            let mut item = self.offer.pop_front().expect("front exists");
            item.2 = next;
            if next >= self.idx_end {
                // This association has offered all it has.
            } else if next == burst_end || refused {
                self.offer.push_back(item);
            } else {
                // Budget spent mid-burst: keep the burst going next time.
                self.offer.push_front(item);
            }
            if refused {
                break;
            }
        }
    }

    /// Advance the simulator: drain every scheduled event, or else jump to
    /// the earliest wakeup if nothing moved. Returns false when nothing is
    /// scheduled anywhere (the world is wedged).
    fn advance(&mut self, tr: &mut Tracer, moved: bool) -> bool {
        if !self.net.is_idle() {
            loop {
                let net = &mut self.net;
                if tr.call(Layer::NetStep, || net.step()).is_none() {
                    break;
                }
                self.tally.net_steps += 1;
            }
        } else if !moved {
            let now = self.net.now();
            let next = self
                .clients
                .iter()
                .filter_map(|c| c.next_wakeup())
                .chain(self.server.next_wakeup())
                .min();
            match next {
                Some(w) if w > now => self.net.advance(w.saturating_since(now)),
                Some(_) => {}
                None => return false,
            }
        }
        true
    }
}

/// Latency samples kept as `(value, count)` runs. The ADUs offered in one
/// iteration and taken in another share one latency, so memory grows with
/// iterations rather than with ADUs and stays flat as throughput changes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Samples {
    runs: Vec<(u64, u64)>,
    pending: Vec<u64>,
}

impl Samples {
    fn push(&mut self, v: u64) {
        self.pending.push(v);
    }

    /// Fold the samples pushed since the last flush into runs.
    fn flush(&mut self) {
        self.pending.sort_unstable();
        for &v in &self.pending {
            match self.runs.last_mut() {
                Some((last, n)) if *last == v => *n += 1,
                _ => self.runs.push((v, 1)),
            }
        }
        self.pending.clear();
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.runs.iter().map(|&(_, n)| n).sum::<u64>() + self.pending.len() as u64
    }

    /// Nearest-rank percentile `p` (0–100) of the flushed samples.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        let mut runs = self.runs.clone();
        runs.sort_unstable();
        let total: u64 = runs.iter().map(|&(_, n)| n).sum();
        let rank = (((p / 100.0) * total as f64).ceil() as u64).clamp(1, total.max(1));
        let mut seen = 0;
        runs.into_iter().find_map(|(v, n)| {
            seen += n;
            (seen >= rank).then_some(v)
        })
    }
}

/// Same-run manipulation floor for one ADU of `n` bytes: median ns of a
/// plain copy and of the fused copy+checksum kernel.
pub fn roofline(n: usize) -> (f64, f64) {
    let src: Vec<u8> = (0..n).map(|i| (i * 31 % 251) as u8).collect();
    let mut dst = vec![0u8; n];
    // Enough copies per sample to dwarf the clock read.
    let reps = (1 << 20) / n.max(1) + 1;
    let mut sample = |f: &mut dyn FnMut(&[u8], &mut [u8])| {
        let mut per_copy: Vec<f64> = (0..31)
            .map(|_| {
                let t = std::time::Instant::now();
                for _ in 0..reps {
                    f(black_box(&src), black_box(&mut dst));
                }
                t.elapsed().as_nanos() as f64 / reps as f64
            })
            .collect();
        per_copy.sort_by(f64::total_cmp);
        per_copy[per_copy.len() / 2]
    };
    let memcpy = sample(&mut |s, d| d.copy_from_slice(s));
    let fused = sample(&mut |s, d| {
        black_box(ct_wire::fused::copy_and_checksum(s, d));
    });
    (memcpy, fused)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_counts_every_sample_of_a_run() {
        let mut s = Samples::default();
        for v in [30, 10, 10, 20] {
            s.push(v);
        }
        s.flush();
        for v in [10, 40] {
            s.push(v);
        }
        s.flush();
        assert_eq!(s.count(), 6);
        // Sorted: 10 10 10 20 30 40.
        assert_eq!(s.percentile(50.0), Some(10));
        assert_eq!(s.percentile(51.0), Some(20));
        assert_eq!(s.percentile(99.0), Some(40));
        assert_eq!(s.percentile(0.0), Some(10));
        assert_eq!(Samples::default().percentile(50.0), None);
    }
}
