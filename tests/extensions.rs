//! Cross-crate integration for the extension features: association
//! multiplexing, ADU-level FEC, TU timestamping/jitter, presentation
//! negotiation, streaming decode, and the token-bucket rate limiter —
//! each exercised through the real transports over the real simulator.

use alf_core::adu::AduName;
use alf_core::driver::{run_alf_transfer, seq_workload};
use alf_core::transport::{AduTransport, AlfConfig, RecoveryMode};
use alf_core::wire::peek_assoc;
use ct_netsim::fault::FaultConfig;
use ct_netsim::link::LinkConfig;
use ct_netsim::pump::{Endpoint, Pump, Substrate};
use ct_netsim::time::{SimDuration, SimTime};
use ct_presentation::negotiate::{negotiate, ConversionPlan, LocalSyntax, SyntaxCaps};
use ct_presentation::stream::BerU32Stream;
use ct_presentation::{ber, TransferSyntax};
use ct_server::{AlfServer, AssocKey, ServerConfig};
use ct_telemetry::MetricsRegistry;
use ct_wire::WireBuf;

/// The client end of the association test: one endpoint per association
/// on one node, arrivals demultiplexed by their wire association id.
struct Clients(Vec<AduTransport>);

impl Endpoint for Clients {
    fn poll(&mut self, now: SimTime) -> Vec<Vec<u8>> {
        self.0.iter_mut().flat_map(|c| c.poll(now)).collect()
    }

    fn on_frame(&mut self, now: SimTime, frame: WireBuf) {
        let assoc = peek_assoc(frame.as_slice());
        if let Some(c) = self.0.iter_mut().find(|c| Some(c.config().assoc) == assoc) {
            c.on_frame(now, frame);
        }
    }
}

/// The server end: every association behind one [`AlfServer`] (peer 0),
/// its batch loop run to quiescence at each poll.
struct Server(AlfServer);

impl Endpoint for Server {
    fn poll(&mut self, now: SimTime) -> Vec<Vec<u8>> {
        let mut egress = Vec::new();
        while !self.0.poll_batch(now, &mut egress).idle() {}
        egress.into_iter().map(|(_, f)| f).collect()
    }

    fn on_frame(&mut self, _now: SimTime, frame: WireBuf) {
        self.0.ingest(0, frame.to_vec());
    }
}

#[test]
fn mux_carries_isolated_associations_over_lossy_network() {
    // Three associations share one lossy wire: three client endpoints on
    // one node, one AlfServer terminating all three on the other. Every
    // association's data arrives intact and uncrossed (§3: mis-delivery
    // is a security problem, not just a functional one).
    let snappy = AlfConfig {
        retransmit_timeout: SimDuration::from_millis(5),
        assembly_timeout: SimDuration::from_millis(2),
        ..AlfConfig::default()
    };
    let mut pump = Pump::new(
        61,
        LinkConfig::lan(),
        FaultConfig::loss(0.03),
        Substrate::Packet,
    );
    let mut clients = Clients(Vec::new());
    let mut server = Server(AlfServer::new(ServerConfig::default()));
    for assoc in [10u16, 20, 30] {
        clients
            .0
            .push(AduTransport::new(AlfConfig { assoc, ..snappy }));
        server
            .0
            .add_association(AssocKey { peer: 0, assoc }, snappy)
            .unwrap();
    }
    // Distinct payload per association.
    let payload_for = |assoc: u16, i: u64| -> Vec<u8> {
        (0..2000)
            .map(|j| (assoc as usize + i as usize * 31 + j) as u8)
            .collect()
    };
    for c in &mut clients.0 {
        let assoc = c.config().assoc;
        for i in 0..10u64 {
            c.send_adu(AduName::Seq { index: i }, payload_for(assoc, i))
                .unwrap();
        }
    }
    let mut received = 0usize;
    for _ in 0..1_000_000 {
        let moved = pump.exchange(&mut clients, &mut server);
        for (key, adu, _) in server.0.take_delivered() {
            let AduName::Seq { index } = adu.name else {
                panic!()
            };
            assert_eq!(adu.payload, payload_for(key.assoc, index), "{key:?}");
            received += 1;
        }
        if received == 30 {
            break;
        }
        let timers = clients.0.iter().map(AduTransport::next_timeout);
        if !pump.step(moved, timers.chain([server.0.next_wakeup()])) {
            break;
        }
    }
    assert_eq!(received, 30, "all associations must complete");
    let mut reg = MetricsRegistry::new();
    server.0.publish_stats(&mut reg, "srv");
    let shards = ServerConfig::default().shards;
    let misdelivered: u64 = (0..shards)
        .map(|i| reg.counter(&format!("srv.shard{i}.misdelivered")))
        .sum();
    assert_eq!(misdelivered, 0, "nothing crosses associations");
}

#[test]
fn fec_over_atm_cells_repairs_without_retransmission() {
    // The real-time profile over the cell substrate: parity repairs what
    // single-cell loss destroys, without any NACK round trip.
    let adus = seq_workload(60, 8400); // 6 TUs each
    let run = |fec_group| {
        let r = run_alf_transfer(
            71,
            LinkConfig::gigabit(),
            FaultConfig::loss(0.0008), // per-cell
            AlfConfig {
                recovery: RecoveryMode::NoRetransmit,
                assembly_timeout: SimDuration::from_millis(10),
                fec_group,
                ..AlfConfig::default()
            },
            Substrate::Atm,
            &adus,
            None,
        );
        assert!(r.verified);
        (r.adus_delivered, r.receiver.fec_reconstructions)
    };
    let (plain, _) = run(0);
    let (with_fec, reconstructions) = run(3);
    assert!(
        with_fec > plain,
        "FEC must lift cell-loss delivery: {with_fec} !> {plain}"
    );
    assert!(reconstructions > 0, "repairs must have happened in place");
}

#[test]
fn negotiated_direct_plan_round_trips_through_transport() {
    // §5 one-step conversion: the sender converts straight into the
    // receiver's local syntax; ADUs cross the network; the receiver does a
    // zero-conversion read.
    let sender_caps = SyntaxCaps::full(LocalSyntax::LittleEndianU32);
    let receiver_caps = SyntaxCaps::full(LocalSyntax::BigEndianU32);
    let plan = negotiate(&sender_caps, &receiver_caps, true).unwrap();
    assert!(matches!(plan, ConversionPlan::Direct { .. }));
    assert_eq!(plan.total_conversion_passes(), 1);

    let values: Vec<u32> = (0..5000u32).map(|i| i.wrapping_mul(97)).collect();
    let wire_bytes = plan.encode_u32s(&values);
    let adus: Vec<alf_core::Adu> = wire_bytes
        .chunks(4000)
        .enumerate()
        .map(|(i, c)| {
            alf_core::Adu::new(
                AduName::FileRange {
                    offset: (i * 4000) as u64,
                },
                c.to_vec(),
            )
        })
        .collect();
    let r = run_alf_transfer(
        81,
        LinkConfig::lan(),
        FaultConfig::loss(0.02),
        AlfConfig {
            retransmit_timeout: SimDuration::from_millis(5),
            assembly_timeout: SimDuration::from_millis(2),
            ..AlfConfig::default()
        },
        Substrate::Packet,
        &adus,
        None,
    );
    assert!(r.complete && r.verified);
    // Receiver-side read: the wire layout IS the receiver's local layout.
    assert_eq!(plan.decode_u32s(&wire_bytes).unwrap(), values);
}

#[test]
fn negotiation_cost_ordering() {
    // Direct ≤ via-LWTS ≤ via-BER in wire-size terms for the benchmark type.
    let values: Vec<u32> = (0..1000u32).map(|i| i.wrapping_mul(2654435761)).collect();
    let direct = negotiate(
        &SyntaxCaps::full(LocalSyntax::LittleEndianU32),
        &SyntaxCaps::full(LocalSyntax::BigEndianU32),
        true,
    )
    .unwrap();
    let via_ber = ConversionPlan::ViaTransfer {
        syntax: TransferSyntax::Ber,
    };
    assert!(direct.encode_u32s(&values).len() < via_ber.encode_u32s(&values).len());
}

#[test]
fn streaming_decode_consumes_transport_deliveries() {
    // BER stream cut into ADUs, shipped with loss, decoded incrementally
    // from the in-order prefix as ADUs complete — the §5 pipeline in test
    // form (the `pipelined_receiver` example is the narrated version).
    let values: Vec<u32> = (0..30_000u32).map(|i| i ^ 0xA5A5).collect();
    let wire = ber::encode_u32_array(&values);
    let adus: Vec<alf_core::Adu> = wire
        .chunks(8192)
        .enumerate()
        .map(|(i, c)| {
            alf_core::Adu::new(
                AduName::FileRange {
                    offset: (i * 8192) as u64,
                },
                c.to_vec(),
            )
        })
        .collect();
    let r = run_alf_transfer(
        91,
        LinkConfig::lan(),
        FaultConfig::loss(0.02),
        AlfConfig {
            retransmit_timeout: SimDuration::from_millis(5),
            assembly_timeout: SimDuration::from_millis(2),
            fec_group: 4,
            ..AlfConfig::default()
        },
        Substrate::Packet,
        &adus,
        None,
    );
    assert!(r.complete && r.verified);
    // Decode the (now known-intact) stream incrementally, as the receiver
    // application would have.
    let mut dec = BerU32Stream::new();
    let mut got = Vec::new();
    for adu in &adus {
        got.extend(dec.push(&adu.payload).unwrap());
    }
    assert!(dec.is_done());
    assert_eq!(got, values);
}

#[test]
fn rate_limited_link_shapes_throughput() {
    // A token-bucket-limited link caps goodput; the buffered transport
    // still delivers everything, just slower.
    let adus = seq_workload(30, 3000);
    let fast = run_alf_transfer(
        95,
        LinkConfig::lan(),
        FaultConfig::none(),
        AlfConfig::default(),
        Substrate::Packet,
        &adus,
        None,
    );
    let shaped = run_alf_transfer(
        95,
        LinkConfig::lan(),
        FaultConfig::rate_limited(4, SimDuration::from_millis(10)),
        AlfConfig {
            retransmit_timeout: SimDuration::from_millis(30),
            assembly_timeout: SimDuration::from_millis(15),
            ..AlfConfig::default()
        },
        Substrate::Packet,
        &adus,
        None,
    );
    assert!(fast.complete && fast.verified);
    assert!(shaped.complete && shaped.verified, "{shaped:?}");
    assert!(
        shaped.elapsed.as_nanos() > fast.elapsed.as_nanos() * 3,
        "shaping must slow the transfer: {} vs {}",
        shaped.elapsed,
        fast.elapsed
    );
}

#[test]
fn timestamps_survive_the_full_path_and_measure_jitter() {
    let adus = seq_workload(60, 1200); // single-TU ADUs at a steady pace
    let r = run_alf_transfer(
        97,
        LinkConfig::lan(),
        FaultConfig::reordering(0.3, SimDuration::from_millis(1)),
        AlfConfig {
            timestamps: true,
            retransmit_timeout: SimDuration::from_millis(5),
            assembly_timeout: SimDuration::from_millis(2),
            ..AlfConfig::default()
        },
        Substrate::Packet,
        &adus,
        None,
    );
    assert!(r.complete && r.verified);
    assert_eq!(
        r.receiver.timestamped_tus,
        r.receiver.adus_delivered + r.sender.adus_retransmitted
    );
    assert!(
        r.receiver.jitter_us > 10.0,
        "reordering delay must register as jitter, got {}",
        r.receiver.jitter_us
    );
}
