//! Cross-crate integration: the layered byte-stream stack and the ALF stack
//! must both deliver application data *exactly*, across every fault profile
//! — the architectures differ in pipeline behaviour, never in correctness.

use alf_core::driver::{run_alf_transfer, seq_workload};
use alf_core::transport::{AlfConfig, RecoveryMode};
use ct_netsim::fault::FaultConfig;
use ct_netsim::link::LinkConfig;
use ct_netsim::pump::Substrate;
use ct_netsim::time::SimDuration;
use ct_transport::driver::{payload_crc, run_transfer};
use ct_transport::stream::StreamConfig;

fn fault_profiles() -> Vec<(&'static str, FaultConfig)> {
    vec![
        ("clean", FaultConfig::none()),
        ("loss3", FaultConfig::loss(0.03)),
        ("corrupt3", FaultConfig::corruption(0.03)),
        (
            "reorder20",
            FaultConfig::reordering(0.2, SimDuration::from_millis(1)),
        ),
        (
            "everything",
            FaultConfig {
                drop: 0.02,
                corrupt: 0.02,
                duplicate: 0.02,
                reorder: 0.1,
                reorder_delay: SimDuration::from_micros(700),
                ..FaultConfig::default()
            },
        ),
    ]
}

#[test]
fn byte_stream_delivers_exactly_under_all_faults() {
    let data: Vec<u8> = (0..150_000).map(|i| (i % 239) as u8).collect();
    for (name, faults) in fault_profiles() {
        let r = run_transfer(
            11,
            LinkConfig::lan(),
            faults,
            StreamConfig::default(),
            &data,
        );
        assert!(r.complete, "{name}: transfer incomplete");
        assert_eq!(r.bytes, data.len() as u64, "{name}");
        assert_eq!(
            r.received_crc32,
            payload_crc(&data),
            "{name}: corrupted delivery"
        );
    }
}

#[test]
fn alf_delivers_exactly_under_all_faults() {
    let adus = seq_workload(40, 4000);
    for (name, faults) in fault_profiles() {
        let r = run_alf_transfer(
            13,
            LinkConfig::lan(),
            faults,
            AlfConfig {
                retransmit_timeout: SimDuration::from_millis(5),
                assembly_timeout: SimDuration::from_millis(2),
                ..AlfConfig::default()
            },
            Substrate::Packet,
            &adus,
            None,
        );
        assert!(r.complete, "{name}: {r:?}");
        assert!(r.verified, "{name}: payload mismatch");
        assert_eq!(r.adus_delivered, 40, "{name}");
        assert_eq!(r.adus_lost, 0, "{name}: buffer mode must repair everything");
    }
}

#[test]
fn alf_beats_stream_on_hol_blocking_under_loss() {
    // The architectural claim, as an assertion: at 5% loss the byte stream
    // accumulates head-of-line delay while ALF's worst ADU latency stays
    // bounded by its own TU spread.
    let data: Vec<u8> = (0..400_000).map(|i| (i % 251) as u8).collect();
    let tcp = run_transfer(
        21,
        LinkConfig::lan(),
        FaultConfig::loss(0.05),
        StreamConfig::default(),
        &data,
    );
    assert!(tcp.complete);
    assert!(
        tcp.receiver.hol_delay_total > SimDuration::from_millis(10),
        "byte stream must show head-of-line blocking, got {}",
        tcp.receiver.hol_delay_total
    );

    let adus = seq_workload(100, 4000);
    let alf = run_alf_transfer(
        21,
        LinkConfig::lan(),
        FaultConfig::loss(0.05),
        AlfConfig {
            retransmit_timeout: SimDuration::from_millis(5),
            assembly_timeout: SimDuration::from_millis(2),
            ..AlfConfig::default()
        },
        Substrate::Packet,
        &adus,
        None,
    );
    assert!(alf.complete && alf.verified);
    assert!(
        alf.receiver.adus_delivered_out_of_order > 0,
        "loss must force out-of-order deliveries"
    );
    assert!(
        alf.latency_max < SimDuration::from_millis(50),
        "ALF per-ADU latency must stay bounded, got {}",
        alf.latency_max
    );
}

#[test]
fn recovery_modes_cost_signatures() {
    // Buffer mode: memory, zero loss. Recompute: no memory, zero loss.
    // NoRetransmit: no memory, bounded loss, fastest.
    let adus = seq_workload(60, 3000);
    let faults = FaultConfig::loss(0.03);
    let mk = |mode| AlfConfig {
        recovery: mode,
        retransmit_timeout: SimDuration::from_millis(5),
        assembly_timeout: SimDuration::from_millis(2),
        ..AlfConfig::default()
    };
    let oracle = |name: alf_core::adu::AduName| match name {
        alf_core::adu::AduName::Seq { index } => alf_core::driver::workload_payload(index, 3000),
        _ => unreachable!(),
    };

    let buf = run_alf_transfer(
        31,
        LinkConfig::lan(),
        faults,
        mk(RecoveryMode::TransportBuffer),
        Substrate::Packet,
        &adus,
        None,
    );
    assert!(buf.complete && buf.verified);
    assert_eq!(buf.adus_delivered, 60);
    assert!(buf.sender_buffer_peak > 0, "buffering must cost memory");

    let rec = run_alf_transfer(
        31,
        LinkConfig::lan(),
        faults,
        mk(RecoveryMode::AppRecompute),
        Substrate::Packet,
        &adus,
        Some(&oracle),
    );
    assert!(rec.complete && rec.verified);
    assert_eq!(rec.adus_delivered, 60);
    assert_eq!(
        rec.sender_buffer_peak, 0,
        "recompute mode must hold no buffer"
    );

    let nor = run_alf_transfer(
        31,
        LinkConfig::lan(),
        faults,
        mk(RecoveryMode::NoRetransmit),
        Substrate::Packet,
        &adus,
        None,
    );
    assert!(nor.verified);
    assert!(
        nor.adus_delivered < 60,
        "no-retransmit must lose some ADUs at 3% loss"
    );
    assert!(nor.adus_delivered > 30, "but deliver most");
    assert!(nor.elapsed < buf.elapsed, "and finish fastest");
}

#[test]
fn both_stacks_deterministic_across_reruns() {
    let data: Vec<u8> = (0..80_000).map(|i| (i % 199) as u8).collect();
    let t1 = run_transfer(
        5,
        LinkConfig::lan(),
        FaultConfig::loss(0.02),
        StreamConfig::default(),
        &data,
    );
    let t2 = run_transfer(
        5,
        LinkConfig::lan(),
        FaultConfig::loss(0.02),
        StreamConfig::default(),
        &data,
    );
    assert_eq!(t1.elapsed, t2.elapsed);
    assert_eq!(t1.sender.segments_out, t2.sender.segments_out);

    let adus = seq_workload(25, 3000);
    let a1 = run_alf_transfer(
        5,
        LinkConfig::lan(),
        FaultConfig::loss(0.02),
        AlfConfig::default(),
        Substrate::Packet,
        &adus,
        None,
    );
    let a2 = run_alf_transfer(
        5,
        LinkConfig::lan(),
        FaultConfig::loss(0.02),
        AlfConfig::default(),
        Substrate::Packet,
        &adus,
        None,
    );
    assert_eq!(a1.elapsed, a2.elapsed);
    assert_eq!(a1.sender.tus_sent, a2.sender.tus_sent);
}
