//! Quickstart: the ALF/ILP stack in ~60 lines.
//!
//! Creates a deterministic two-node network with 5 % packet loss, sends ten
//! named ADUs through the ALF transport, and shows two things the paper
//! promises:
//!
//! 1. complete ADUs are delivered **out of order** (no head-of-line
//!    blocking while lost ADUs recover), and
//! 2. stage-2 per-ADU processing runs as a **single integrated pass**
//!    (checksum + decrypt + byte-swap in one loop), bit-identical to the
//!    layered execution.
//!
//! Run: `cargo run --example quickstart`

use alf_core::adu::AduName;
use alf_core::driver::run_alf_transfer;
use alf_core::pipeline::{Manipulation, Pipeline};
use alf_core::transport::AlfConfig;
use alf_core::Adu;
use ct_netsim::fault::FaultConfig;
use ct_netsim::link::LinkConfig;
use ct_netsim::pump::Substrate;

fn main() {
    // --- 1. ten ADUs, each named so the receiver knows its disposition ---
    let adus: Vec<Adu> = (0..10u64)
        .map(|i| Adu::new(AduName::FileRange { offset: i * 4096 }, vec![i as u8; 4096]))
        .collect();

    // --- 2. ship them over a lossy simulated LAN ---
    let report = run_alf_transfer(
        42,                      // deterministic seed
        LinkConfig::lan(),       // 100 Mb/s, 50 us
        FaultConfig::loss(0.05), // 5 % packet loss
        AlfConfig::default(),    // sender-transport buffering recovery
        Substrate::Packet,
        &adus,
        None,
    );
    println!(
        "delivered : {}/{} ADUs",
        report.adus_delivered, report.adus_offered
    );
    println!("verified  : {}", report.verified);
    println!("elapsed   : {} (simulated)", report.elapsed);
    println!(
        "retransmit: {} whole-ADU retransmissions",
        report.sender.adus_retransmitted
    );
    println!(
        "out-of-order deliveries: {} (each one a stall avoided)",
        report.receiver.adus_delivered_out_of_order
    );

    // --- 3. stage-2 processing: one integrated loop over the ADU ---
    let chain = Pipeline::new()
        .stage(Manipulation::Checksum) // verify wire bytes
        .stage(Manipulation::Xor {
            key: 0xFEED,
            offset: 0,
        }) // decrypt
        .stage(Manipulation::Swap32); // presentation byte-order fix
    chain
        .check_alf_compatible(&[])
        .expect("every stage permits out-of-order ADUs");
    let adu_bytes = &adus[3].payload;
    let integrated = chain.run_integrated(adu_bytes);
    let layered = chain.run_layered(adu_bytes);
    assert_eq!(integrated, layered, "one pass, same result");
    println!(
        "ILP: {} stages in one pass over {} bytes; checksum {:#06x} (== layered: {})",
        chain.len(),
        adu_bytes.len(),
        integrated.checksums[0],
        integrated == layered,
    );
}
