//! Benchmark of the ALF server path: client `AlfServer` stacks →
//! `ct_netsim::Network` → one server `AlfServer` → the server application.
//!
//! The driver calls only the program's public API and times each call from
//! outside, so the program runs exactly as its users run it. An untraced
//! run gives the end-to-end metrics; a traced run of the same loop records
//! in-memory spans around every layer call and gives the per-layer cost
//! table. See `README.md` beside this crate for the workloads, the metrics
//! and which per-layer metric should move which end-to-end one.

pub mod alloc;
pub mod driver;
pub mod report;
pub mod trace;
pub mod workload;

/// Every allocation of the benchmark process goes through the counter, so
/// per-layer allocation counts are exact. The repository's library crates
/// stay free of unsafe code; the wrapper lives here only.
#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;
