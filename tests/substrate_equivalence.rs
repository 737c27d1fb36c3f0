//! Cross-crate integration: the same ADU workload over classic packets and
//! over ATM cells — §5's "network technology of the day ... can and will
//! change" made testable. Application-visible results must be identical on
//! clean networks; under loss, the cell substrate must show exactly the
//! loss-amplification arithmetic the paper gives.

use alf_core::driver::{run_alf_transfer, seq_workload};
use alf_core::transport::{AlfConfig, RecoveryMode};
use ct_netsim::atm;
use ct_netsim::fault::FaultConfig;
use ct_netsim::link::LinkConfig;
use ct_netsim::pump::Substrate;
use ct_netsim::time::SimDuration;

#[test]
fn clean_networks_identical_delivery() {
    let adus = seq_workload(30, 5000);
    for substrate in [Substrate::Packet, Substrate::Atm] {
        let r = run_alf_transfer(
            3,
            LinkConfig::gigabit(),
            FaultConfig::none(),
            AlfConfig::default(),
            substrate,
            &adus,
            None,
        );
        assert!(r.complete && r.verified, "{substrate:?}: {r:?}");
        assert_eq!(r.adus_delivered, 30, "{substrate:?}");
        assert_eq!(r.adus_lost, 0, "{substrate:?}");
    }
}

#[test]
fn buffer_mode_repairs_cell_loss() {
    let adus = seq_workload(25, 4000);
    let r = run_alf_transfer(
        4,
        LinkConfig::gigabit(),
        FaultConfig::loss(0.003), // per-cell
        AlfConfig {
            retransmit_timeout: SimDuration::from_millis(5),
            assembly_timeout: SimDuration::from_millis(2),
            ..AlfConfig::default()
        },
        Substrate::Atm,
        &adus,
        None,
    );
    assert!(r.complete && r.verified, "{r:?}");
    assert_eq!(r.adus_delivered, 25);
    assert!(
        r.sender.adus_retransmitted + r.sender.tus_retransmitted_selective + r.sender.probe_tus > 0,
        "cell loss must have cost repair traffic"
    );
}

#[test]
fn cell_loss_amplifies_with_adu_size() {
    // §5: since one lost cell kills a whole ADU, survival falls as
    // (1-p)^cells — bigger ADUs must fare measurably worse.
    let cfg = AlfConfig {
        recovery: RecoveryMode::NoRetransmit,
        assembly_timeout: SimDuration::from_millis(20),
        ..AlfConfig::default()
    };
    let survival = |adu_bytes: usize| {
        let n = 150;
        let adus = seq_workload(n, adu_bytes);
        let r = run_alf_transfer(
            9,
            LinkConfig::gigabit(),
            FaultConfig::loss(0.002),
            cfg,
            Substrate::Atm,
            &adus,
            None,
        );
        assert!(r.verified);
        r.adus_delivered as f64 / n as f64
    };
    let small = survival(500);
    let large = survival(16_000);
    assert!(
        small > large + 0.1,
        "small-ADU survival {small} must clearly beat large-ADU survival {large}"
    );
}

#[test]
fn atm_constants_and_overheads() {
    // The adaptation tax the harness reports: 53-byte cells carrying 44
    // net bytes, so wire bytes ≈ payload * 53/44 + per-TU headers.
    assert_eq!(atm::CELL_SIZE_BYTES, 53);
    assert_eq!(atm::CELL_NET_PAYLOAD_BYTES, 44);
    let payload = 4400usize;
    let cells = atm::cells_for(payload);
    // 4400 bytes at 44/cell with the BOM cell carrying 4 fewer.
    assert_eq!(cells, 1 + (payload - 40).div_ceil(44));
    let wire = cells * atm::CELL_SIZE_BYTES;
    let tax = wire as f64 / payload as f64;
    assert!(tax > 1.2 && tax < 1.25, "cell tax {tax}");
}

#[test]
fn packet_and_atm_same_content_under_reordering() {
    let adus = seq_workload(20, 3000);
    let faults = FaultConfig::reordering(0.3, SimDuration::from_micros(600));
    for substrate in [Substrate::Packet, Substrate::Atm] {
        let r = run_alf_transfer(
            8,
            LinkConfig::gigabit(),
            faults,
            AlfConfig::default(),
            substrate,
            &adus,
            None,
        );
        assert!(r.complete && r.verified, "{substrate:?}: {r:?}");
        assert_eq!(r.adus_delivered, 20, "{substrate:?}");
    }
}
