//! The benchmark's workloads. All run buffered recovery
//! (`RecoveryMode::TransportBuffer`) with the default `AlfConfig` and
//! `ServerConfig` over `LinkConfig::ideal()` links.

use ct_netsim::fault::FaultConfig;
use ct_netsim::time::SimDuration;

/// Shape of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Workload name, as given to `--workload`.
    pub name: &'static str,
    /// Client nodes.
    pub clients: usize,
    /// Associations per client node (wire ids `1..=assocs_per_client`).
    pub assocs_per_client: usize,
    /// Bytes per ADU.
    pub adu_bytes: usize,
    /// Fault process on every link direction.
    pub faults: FaultConfig,
    /// The server application runs the paper's stage-2 integrated loop on
    /// every delivered ADU before verifying it.
    pub stage2: bool,
    /// ADUs an association offers each time it reaches the front of the
    /// offer queue.
    pub burst: u64,
    /// Closed-loop budget: offers pause while this many ADUs are offered
    /// but neither delivered nor reported lost.
    pub inflight: u64,
    /// Driver iterations at the start of the measured phase whose counts
    /// are deterministic for a seed. The phase always runs at least these.
    pub window_iters: u64,
    /// Set-ups per untraced run; `setup_s` is their median. Fixed, so that
    /// the set-ups leave the same heap behind on every run.
    pub setup_reps: usize,
}

impl Shape {
    /// Total associations.
    pub fn assocs(&self) -> usize {
        self.clients * self.assocs_per_client
    }

    /// A scaled-down copy of the same workload, for tests.
    pub fn tiny(self) -> Shape {
        Shape {
            assocs_per_client: self.assocs_per_client.min(40),
            inflight: self.inflight.min(32),
            window_iters: 20,
            ..self
        }
    }
}

/// Stage-2 key of the application's receive chain.
pub(crate) const CHAIN_KEY: u64 = 0x5eed_a1f0;

/// Stages of the application's receive chain (`canonical_receive_chain`).
pub(crate) const CHAIN_STAGES: usize = 4;

/// Every workload, in `BENCHMARK.json` order.
pub fn all() -> [Shape; 3] {
    let lossy = FaultConfig {
        drop: 0.02,
        duplicate: 0.01,
        reorder: 0.02,
        reorder_delay: SimDuration::from_micros(300),
        ..FaultConfig::none()
    };
    [
        // Control dominates: 100k associations of server state lie far beyond
        // cache, single-frame ADUs never fragment or gather.
        Shape {
            name: "fanin-600b-100k",
            clients: 4,
            assocs_per_client: 25_000,
            adu_bytes: 600,
            faults: FaultConfig::none(),
            stage2: false,
            burst: 4,
            inflight: 512,
            window_iters: 600,
            setup_reps: 3,
        },
        // Manipulation dominates with all state in cache: 47-TU ADUs through
        // fused encode+checksum, in-place verify, the assembler's gather and
        // the application's integrated loop.
        Shape {
            name: "bulk-64k-ilp",
            clients: 1,
            assocs_per_client: 8,
            adu_bytes: 64 * 1024,
            faults: FaultConfig::none(),
            stage2: true,
            burst: 64,
            inflight: 512,
            window_iters: 40,
            setup_reps: 7,
        },
        // The clean layers on their recovery path: wheel-fired RTOs,
        // out-of-order fragments held by the assembler, duplicates suppressed.
        // Unlimited bandwidth keeps congestion collapse out of the picture.
        Shape {
            name: "lossy-4k-1k",
            clients: 2,
            assocs_per_client: 500,
            adu_bytes: 4 * 1024,
            faults: lossy,
            stage2: false,
            burst: 4,
            inflight: 512,
            window_iters: 2_000,
            setup_reps: 11,
        },
    ]
}

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<Shape> {
    all().into_iter().find(|s| s.name == name)
}
