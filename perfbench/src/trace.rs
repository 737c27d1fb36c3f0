//! In-memory spans around the driver's calls into each layer. Every span of
//! one driver iteration shares the iteration's id and hangs off the
//! iteration's root span, so a layer's self time is its span's duration
//! minus the part its children cover, and the root's self time is the
//! driver's own work. Spans are folded into a per-layer cost table when
//! their iteration ends; nothing is written while the loop runs.

use crate::alloc::{self, AllocCount};
use std::time::Instant;

/// A layer the driver calls into, or the driver itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The driver iteration: the root span of every iteration.
    Driver,
    /// The sending application building an ADU's payload.
    AppOffer,
    /// `AlfServer::send_adu` on a client stack.
    ClientSend,
    /// `AlfServer::poll_batch` on a client stack, with its work gate.
    ClientPoll,
    /// `AlfServer::ingest` on a client stack.
    ClientIngest,
    /// `Network::send`.
    NetSend,
    /// `Network::step`.
    NetStep,
    /// `Network::recv`.
    NetRecv,
    /// `AlfServer::ingest` on the server.
    ServerIngest,
    /// `AlfServer::poll_batch` on the server, with its work gate.
    ServerPoll,
    /// `AlfServer::take_delivered` on the server.
    ServerTake,
    /// The server application's stage-2 loop (`Pipeline::run_integrated`).
    AppPipeline,
    /// The server application's byte-for-byte payload check.
    AppVerify,
}

impl Layer {
    /// Number of layers.
    pub const COUNT: usize = 13;
    /// Every layer, in table order.
    pub const ALL: [Layer; Layer::COUNT] = [
        Layer::Driver,
        Layer::AppOffer,
        Layer::ClientSend,
        Layer::ClientPoll,
        Layer::ClientIngest,
        Layer::NetSend,
        Layer::NetStep,
        Layer::NetRecv,
        Layer::ServerIngest,
        Layer::ServerPoll,
        Layer::ServerTake,
        Layer::AppPipeline,
        Layer::AppVerify,
    ];

    /// Metric-name prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Driver => "driver",
            Layer::AppOffer => "app.offer",
            Layer::ClientSend => "client.send_adu",
            Layer::ClientPoll => "client.poll_batch",
            Layer::ClientIngest => "client.ingest",
            Layer::NetSend => "netsim.send",
            Layer::NetStep => "netsim.step",
            Layer::NetRecv => "netsim.recv",
            Layer::ServerIngest => "server.ingest",
            Layer::ServerPoll => "server.poll_batch",
            Layer::ServerTake => "server.take_delivered",
            Layer::AppPipeline => "app.pipeline",
            Layer::AppVerify => "app.verify",
        }
    }

    /// A layer of the protocol stack under test: not the simulator, not
    /// the application and not the driver. Their self time is what the
    /// paper's T2 yardstick compares with the manipulation floor.
    pub fn is_stack(self) -> bool {
        matches!(
            self,
            Layer::ClientSend
                | Layer::ClientPoll
                | Layer::ClientIngest
                | Layer::ServerIngest
                | Layer::ServerPoll
                | Layer::ServerTake
        )
    }
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The driver iteration the span belongs to.
    pub id: u64,
    /// What was called.
    pub layer: Layer,
    /// Index of the enclosing span in the same iteration's list.
    pub parent: Option<usize>,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Allocations made between start and end, children included.
    pub alloc: AllocCount,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Accumulated self cost of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerCost {
    /// Spans folded in.
    pub calls: u64,
    /// Time inside the layer's spans, less the time of their children.
    pub self_ns: u64,
    /// Allocations inside the layer's spans, less those of their children.
    pub self_alloc: AllocCount,
}

/// Self cost per layer, indexed by `Layer as usize`.
pub type CostTable = [LayerCost; Layer::COUNT];

/// Add one iteration's spans to `table`. A span's self cost is its own
/// cost minus that of its direct children; children of one parent never
/// overlap, because the driver is single-threaded.
pub fn fold(spans: &[Span], table: &mut CostTable) {
    for s in spans {
        let c = &mut table[s.layer as usize];
        c.calls += 1;
        c.self_ns += s.duration();
        c.self_alloc += s.alloc;
    }
    for s in spans {
        if let Some(p) = s.parent {
            let c = &mut table[spans[p].layer as usize];
            c.self_ns -= s.duration();
            c.self_alloc -= s.alloc;
        }
    }
}

/// Records spans while on; with tracing off, [`Tracer::call`] is a plain
/// call and only the iteration stamp is read.
pub struct Tracer {
    origin: Instant,
    on: bool,
    iter: u64,
    spans: Vec<Span>,
    root_alloc: AllocCount,
    in_window: bool,
    /// Self cost over every traced iteration.
    pub all: CostTable,
    /// Self cost over the traced iterations of the deterministic window,
    /// whose allocation counts repeat exactly for one seed.
    pub window: CostTable,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer with tracing off.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            on: false,
            iter: 0,
            spans: Vec::with_capacity(1 << 16),
            root_alloc: AllocCount::default(),
            in_window: false,
            all: CostTable::default(),
            window: CostTable::default(),
        }
    }

    /// Wall-clock ns since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Turn span recording on or off from the next iteration.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Fold the following iterations into [`Tracer::window`] as well.
    pub fn set_in_window(&mut self, in_window: bool) {
        self.in_window = in_window;
    }

    /// Start a driver iteration and return its wall stamp.
    pub fn begin(&mut self) -> u64 {
        let t = self.now_ns();
        if self.on {
            self.spans.clear();
            self.root_alloc = alloc::snapshot();
            self.spans.push(Span {
                id: self.iter,
                layer: Layer::Driver,
                parent: None,
                start_ns: t,
                end_ns: t,
                alloc: AllocCount::default(),
            });
        }
        t
    }

    /// Call `f` as `layer`, inside a span when tracing is on.
    #[inline]
    pub fn call<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let a0 = alloc::snapshot();
        let t0 = self.now_ns();
        let r = f();
        let t1 = self.now_ns();
        let a1 = alloc::snapshot();
        self.spans.push(Span {
            id: self.iter,
            layer,
            parent: Some(0),
            start_ns: t0,
            end_ns: t1,
            alloc: a1 - a0,
        });
        r
    }

    /// End the iteration begun by [`Tracer::begin`] and fold its spans.
    pub fn end(&mut self) {
        if self.on {
            let t = self.now_ns();
            let root = &mut self.spans[0];
            root.end_ns = t;
            root.alloc = alloc::snapshot() - self.root_alloc;
            fold(&self.spans, &mut self.all);
            if self.in_window {
                fold(&self.spans, &mut self.window);
            }
        }
        self.iter += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, parent: Option<usize>, start_ns: u64, end_ns: u64, allocs: u64) -> Span {
        Span {
            id: 7,
            layer,
            parent,
            start_ns,
            end_ns,
            alloc: AllocCount {
                allocs,
                bytes: allocs * 10,
            },
        }
    }

    #[test]
    fn child_time_is_taken_out_of_its_parent() {
        // Root 0..100 with one child covering 20..50 of it.
        let spans = [
            span(Layer::Driver, None, 0, 100, 5),
            span(Layer::ServerPoll, Some(0), 20, 50, 3),
        ];
        let mut table = CostTable::default();
        fold(&spans, &mut table);
        let root = table[Layer::Driver as usize];
        let child = table[Layer::ServerPoll as usize];
        assert_eq!(root.self_ns, 70);
        assert_eq!(child.self_ns, 30);
        assert_eq!(root.self_alloc.allocs, 2);
        assert_eq!(child.self_alloc.bytes, 30);
        assert_eq!(
            root.self_ns + child.self_ns,
            100,
            "the root's wall is fully attributed"
        );
        assert_eq!((root.calls, child.calls), (1, 1));
    }

    #[test]
    fn sibling_children_and_repeated_layers_accumulate() {
        let spans = [
            span(Layer::Driver, None, 1_000, 2_000, 0),
            span(Layer::NetSend, Some(0), 1_100, 1_200, 0),
            span(Layer::NetSend, Some(0), 1_300, 1_350, 0),
            span(Layer::AppVerify, Some(0), 1_500, 1_900, 0),
        ];
        let mut table = CostTable::default();
        fold(&spans, &mut table);
        fold(&spans, &mut table);
        assert_eq!(table[Layer::NetSend as usize].self_ns, 300);
        assert_eq!(table[Layer::NetSend as usize].calls, 4);
        assert_eq!(table[Layer::AppVerify as usize].self_ns, 800);
        assert_eq!(table[Layer::Driver as usize].self_ns, 900);
        let sum: u64 = table.iter().map(|c| c.self_ns).sum();
        assert_eq!(sum, 2_000);
    }

    #[test]
    fn traced_iteration_attributes_its_whole_wall_time() {
        let mut tr = Tracer::new();
        tr.set_on(true);
        let start = tr.begin();
        let v = tr.call(Layer::ClientSend, || vec![1u8; 64]);
        tr.call(Layer::AppVerify, || assert_eq!(v.len(), 64));
        tr.end();
        let wall = tr.spans[0].end_ns - start;
        let sum: u64 = tr.all.iter().map(|c| c.self_ns).sum();
        assert_eq!(sum, wall);
        assert_eq!(tr.all[Layer::ClientSend as usize].self_alloc.allocs, 1);
        assert_eq!(tr.all[Layer::Driver as usize].calls, 1);
        assert_eq!(tr.window[Layer::Driver as usize].calls, 0);
    }
}
