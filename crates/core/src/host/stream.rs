//! The layer stream: the one H2D pipeline behind training, evaluation and
//! serving.
//!
//! Host memory is the authoritative parameter store ([`LayerStore`]); the
//! device holds a transient window of `m + 1` reusable *shells* (the §III-E3
//! buffer pool: `m` window slots plus the incoming-layer buffer, term `s^j`
//! of constraint (1c)). [`LayerStream::run`] circulates the shells between a
//! prefetcher thread — which waits for a free shell, loads the next layer of
//! the pass into it and accounts the copy on the [`HostDevice`] — and the
//! consumer, which computes on each layer as it lands and hands the shell
//! back. The window bound is the shell count: the prefetcher can never run
//! more than `m + 1` layers ahead of the last release.
//!
//! Every store → shell conversion in the crate goes through [`load`], and
//! the shell channels are built in [`LayerStream::run`] only (`ci.sh` guards
//! both), so training, serving and evaluation compute on the same
//! device-resident value grid by construction.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crossbeam_channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use stronghold_model::block::{Block, BlockGrads};
use stronghold_tensor::Precision;

use crate::host::device::HostDevice;
use crate::optimpool::LayerStore;
use crate::telemetry::{Counter, Histogram, Telemetry};

/// The layer access sequence of one [`LayerStream::run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Pass {
    /// Layers `0..n` once, ascending (serving, FP-only work).
    Forward,
    /// FP order `0..n`, then the BP re-fetch of the `n − m` layers that slid
    /// out of the window, descending. The last `m` FP layers are not fetched
    /// again: the consumer keeps them across the FP→BP turn (Fig. 3).
    ForwardBackward,
}

/// Turns one store layer into a loaded shell — the only place in the crate
/// that does — in one pass over the master slice: a plain copy at F32, and
/// in a half mode each value is rounded through the transfer format on its
/// way into the shell. The device computes on the half grid while the store
/// keeps full masters, and because the rounding is idempotent a re-fetch of
/// an unchanged layer reloads identical bits. The half-width payload itself
/// is never materialised (the link is a memcpy; its cost is the bytes
/// touched), only accounted: returns the bytes that cross the link.
fn load(shell: &mut Block, masters: &[f32], precision: Precision) -> u64 {
    shell.load_flat_params_as(masters, precision);
    masters.len() as u64 * precision.param_bytes()
}

/// What the two ends of a running pass share: the device the shells live
/// on, and the clocks and counters of the copies.
struct Link {
    device: Arc<HostDevice>,
    tel: Telemetry,
    /// Bytes of one device slot (a layer at transfer precision).
    block_bytes: u64,
    /// Always-on stall clocks feeding the autotuner, measured with
    /// `Instant` (the telemetry clock reads zero when telemetry is
    /// disabled): consumer wait for a prefetched layer (window too small) …
    fetch_wait_ns: AtomicU64,
    /// … and prefetcher wait for a free shell (prefetch running ahead).
    shell_wait_ns: AtomicU64,
    c_issued: Counter,
    /// First fetches: `layers` per run whatever the window.
    c_completed: Counter,
    /// BP-order re-entries of layers that slid out during FP.
    c_refetched: Counter,
    h_shell_wait: Histogram,
    h_fetch_wait: Histogram,
}

/// The streaming H2D engine. It owns the device side only; the store a
/// pass reads is an argument, so the owner decides how it is built (tiered
/// for training, moment-free for serving). See the module docs.
pub(crate) struct LayerStream {
    link: Link,
    /// The `m + 1` device shells. Behind a lock only so the `&self`
    /// evaluation paths can borrow one; [`LayerStream::run`] goes through
    /// `get_mut`.
    shells: Mutex<Vec<Block>>,
    precision: Precision,
    /// Device bytes pinned beside the shells for the stream's lifetime (the
    /// serving KV arena; zero for training).
    reserved: u64,
    /// Fixed arena byte budget, when configured — capacity then never
    /// follows window resizes.
    capacity_budget: Option<u64>,
    /// Largest window the arena admits (layer count when unbudgeted).
    window_max: usize,
}

impl LayerStream {
    /// Builds the stream for a model of `layers` blocks shaped like
    /// `template`, which becomes the first of the `m + 1` device shells (the
    /// rest are clones of it). `window` is clamped to `1..=window_max`; with
    /// a `device_capacity` budget, `window_max` is the deepest `m` whose
    /// `m + 1` slots fit beside the `reserved` bytes, otherwise the layer
    /// count — and the device is then sized to exactly `reserved + (m + 1)`
    /// slots. `reserved` is allocated on the device here and stays
    /// allocated.
    ///
    /// # Panics
    /// Panics if the budget cannot hold the reserved bytes plus the two
    /// slots a window of one needs.
    pub(crate) fn new(
        template: Block,
        layers: usize,
        precision: Precision,
        window: usize,
        device_capacity: Option<u64>,
        reserved: u64,
        tel: &Telemetry,
    ) -> Self {
        let block_bytes = template.param_count() as u64 * precision.param_bytes();
        let window_max = match device_capacity {
            Some(cap) => {
                let slots = cap.saturating_sub(reserved) / block_bytes;
                assert!(
                    slots >= 2,
                    "device_capacity {cap} B cannot hold a window of one layer: {reserved} B \
                     reserved + 2 slots of {block_bytes} B needed"
                );
                (slots as usize - 1).min(layers)
            }
            None => layers,
        };
        // Sized by `resize` below unless the budget fixes it.
        let device = Arc::new(HostDevice::with_telemetry(
            device_capacity.unwrap_or(reserved),
            tel,
        ));
        device.alloc(reserved);
        let mut stream = LayerStream {
            link: Link {
                device,
                tel: tel.clone(),
                block_bytes,
                fetch_wait_ns: AtomicU64::new(0),
                shell_wait_ns: AtomicU64::new(0),
                c_issued: tel.counter("prefetch.issued"),
                c_completed: tel.counter("prefetch.completed"),
                c_refetched: tel.counter("prefetch.refetched"),
                h_shell_wait: tel.histogram("prefetch.shell_wait_ns"),
                h_fetch_wait: tel.histogram("prefetch.fetch_wait_ns"),
            },
            shells: Mutex::new(vec![template]),
            precision,
            reserved,
            capacity_budget: device_capacity,
            window_max,
        };
        stream.resize(window);
        stream
    }

    /// The working-window size `m` in force.
    pub(crate) fn window(&self) -> usize {
        self.shells.lock().len() - 1
    }

    /// Largest window the device arena admits.
    pub(crate) fn window_max(&self) -> usize {
        self.window_max
    }

    /// Bytes of one device slot.
    pub(crate) fn block_bytes(&self) -> u64 {
        self.link.block_bytes
    }

    /// The device-residency / transfer precision.
    pub(crate) fn precision(&self) -> Precision {
        self.precision
    }

    /// The capacity-accounted device the shells live on.
    pub(crate) fn device(&self) -> &Arc<HostDevice> {
        &self.link.device
    }

    /// Flat parameter count of one block.
    pub(crate) fn block_elems(&self) -> usize {
        self.shells.lock()[0].param_count()
    }

    /// A zeroed gradient accumulator shaped like one block.
    pub(crate) fn zero_grads(&self) -> BlockGrads {
        self.shells.lock()[0].zero_grads()
    }

    /// Cumulative `(fetch_wait_ns, shell_wait_ns)` — the autotuner's two
    /// window signals.
    pub(crate) fn wait_nanos(&self) -> (u64, u64) {
        (
            self.link.fetch_wait_ns.load(Ordering::Relaxed),
            self.link.shell_wait_ns.load(Ordering::Relaxed),
        )
    }

    /// Resizes the shell pool to a window of `m` (clamped to what the arena
    /// admits) between runs. Every fetch overwrites its whole shell, so what
    /// a new or surviving shell held is irrelevant. An unbudgeted arena
    /// tracks `reserved + (m + 1)` slots; a fixed budget never moves.
    pub(crate) fn resize(&mut self, m: usize) {
        let m = m.clamp(1, self.window_max);
        let blocks = self.shells.get_mut();
        let template = blocks[0].clone();
        blocks.resize(m + 1, template);
        if self.capacity_budget.is_none() {
            let slots = (m as u64 + 1) * self.link.block_bytes;
            self.link.device.set_capacity(self.reserved + slots);
        }
    }

    /// Streams every layer, ascending, through one shell on the calling
    /// thread — the FP-only loop behind `eval_loss` and `hidden_states`.
    /// The shell sees the same value grid a [`LayerStream::run`] delivers;
    /// no copy is accounted (evaluation is not part of a step's traffic).
    pub(crate) fn for_each_layer(
        &self,
        store: &LayerStore,
        mut per_layer: impl FnMut(&Block, usize),
    ) {
        let shell = &mut self.shells.lock()[0];
        for i in 0..store.len() {
            store.with_params(i, |p| load(shell, p, self.precision));
            per_layer(shell, i);
        }
    }

    /// Every layer as an owned block holding the store's FP32 masters (never
    /// the rounded device values) — the checkpoint export.
    pub(crate) fn master_blocks(&self, store: &LayerStore) -> Vec<Block> {
        let shells = self.shells.lock();
        (0..store.len())
            .map(|i| {
                let mut block = shells[0].clone();
                store.with_params(i, |p| load(&mut block, p, Precision::F32));
                block
            })
            .collect()
    }

    /// Runs one pass over `store`: a scoped prefetcher thread fills shells in
    /// `pass` order while `consume` takes each layer from the [`Feed`] and
    /// releases the shell when done with it. Returns `consume`'s result once
    /// the prefetcher has stopped and every shell is back in the pool.
    ///
    /// A consumer that returns before the end of the pass is fine: the
    /// layers already staged are drained and un-accounted. One that panics
    /// drops the feed, which stops the prefetcher at its next channel
    /// operation; the panic then propagates.
    pub(crate) fn run<R>(
        &mut self,
        store: &LayerStore,
        pass: Pass,
        consume: impl FnOnce(&mut Feed<'_>) -> R,
    ) -> R {
        let link = &self.link;
        let blocks = self.shells.get_mut();
        let m = blocks.len() - 1;
        let (ready_tx, ready_rx) = bounded::<(usize, Block)>(m);
        let (free_tx, free_rx) = bounded::<Block>(m + 1);
        for shell in blocks.drain(..) {
            // Room for all m + 1, and we hold a receiver: cannot fail.
            let _ = free_tx.send(shell);
        }
        let prefetcher = Prefetcher {
            link,
            store,
            precision: self.precision,
            free: free_rx.clone(),
            ready: ready_tx,
        };
        let mut feed = Feed {
            link,
            ready: ready_rx,
            free: free_tx,
        };
        let out = std::thread::scope(|scope| {
            scope.spawn(move || prefetcher.run(pass, m));
            let out = consume(&mut feed);
            // Nothing more will be released: once the free queue is empty
            // the prefetcher stops. Whatever it staged meanwhile comes back
            // here (nothing, when the consumer ran the whole pass).
            let Feed { ready, free, .. } = feed;
            drop(free);
            while let Ok((_, shell)) = ready.recv() {
                link.device.free(link.block_bytes);
                blocks.push(shell);
            }
            out
        });
        while let Ok(shell) = free_rx.try_recv() {
            blocks.push(shell);
        }
        assert_eq!(blocks.len(), m + 1, "window shells must all return");
        out
    }
}

/// The prefetcher (H2D copy engine) of one [`LayerStream::run`].
struct Prefetcher<'a> {
    link: &'a Link,
    store: &'a LayerStore,
    precision: Precision,
    free: Receiver<Block>,
    ready: Sender<(usize, Block)>,
}

impl Prefetcher<'_> {
    /// Walks the pass, staging each layer into the next free shell. The
    /// access sequence is fully known, so file-tier fills are issued `m + 1`
    /// positions ahead of the H2D copy — disk reads hide under compute
    /// exactly like the H2D prefetch itself ([`LayerStore::prefill`] is a
    /// no-op for resident layers and for layers whose update is still in
    /// flight; the read then falls back to a demand fill). Returns early
    /// when the consumer has gone away.
    fn run(self, pass: Pass, m: usize) {
        let n = self.store.len();
        let total = match pass {
            Pass::Forward => n,
            Pass::ForwardBackward => 2 * n - m,
        };
        let layer_at = |p: usize| if p < n { p } else { total - 1 - p };
        let lookahead = m + 1;
        for p in 0..lookahead.min(total) {
            self.store.prefill(layer_at(p));
        }
        for p in 0..total {
            if p + lookahead < total {
                self.store.prefill(layer_at(p + lookahead));
            }
            let Some(shell) = self.fetch(layer_at(p), p >= n) else {
                return;
            };
            if self.ready.send((layer_at(p), shell)).is_err() {
                return;
            }
        }
    }

    /// Waits for a free shell (the window bound), then copies `layer` into
    /// it: blocks while the layer's update from the previous iteration is
    /// pending, allocates the slot, loads, accounts the traffic. `None`
    /// when no shell will ever come back.
    fn fetch(&self, layer: usize, refetch: bool) -> Option<Block> {
        let Link { device, tel, .. } = self.link;
        self.link.c_issued.incr();
        let t0 = tel.now_nanos();
        let wall = Instant::now();
        let mut shell = self.free.recv().ok()?;
        let waited = wall.elapsed().as_nanos() as u64;
        self.link.shell_wait_ns.fetch_add(waited, Ordering::Relaxed);
        self.link
            .h_shell_wait
            .record(tel.now_nanos().saturating_sub(t0));
        let name = if refetch {
            format!("h2d' L{layer}")
        } else {
            format!("h2d L{layer}")
        };
        let span = tel.span("h2d-copy", name);
        device.begin_h2d();
        let bytes = self.store.with_params(layer, |masters| {
            device.alloc(self.link.block_bytes);
            load(&mut shell, masters, self.precision)
        });
        device.end_h2d(bytes);
        span.end();
        if refetch {
            self.link.c_refetched.incr()
        } else {
            self.link.c_completed.incr()
        }
        Some(shell)
    }
}

/// The consumer's end of a running stream.
pub(crate) struct Feed<'a> {
    link: &'a Link,
    ready: Receiver<(usize, Block)>,
    free: Sender<Block>,
}

impl Feed<'_> {
    /// Takes the next staged layer of the pass, blocking until its copy has
    /// landed; the wait accrues to the fetch-wait clock and the
    /// `prefetch.fetch_wait_ns` histogram.
    ///
    /// # Panics
    /// Panics if the prefetcher is gone: the pass is exhausted, or its
    /// thread died (that panic is the one to read).
    pub(crate) fn next(&mut self) -> (usize, Block) {
        let Link { tel, .. } = self.link;
        let t0 = tel.now_nanos();
        let wall = Instant::now();
        let item = self.ready.recv().expect("layer stream ended early");
        let waited = wall.elapsed().as_nanos() as u64;
        self.link.fetch_wait_ns.fetch_add(waited, Ordering::Relaxed);
        self.link
            .h_fetch_wait
            .record(tel.now_nanos().saturating_sub(t0));
        item
    }

    /// Hands a shell back to the window: frees its device slot and lets the
    /// prefetcher reuse it.
    pub(crate) fn release(&mut self, shell: Block) {
        self.link.device.free(self.link.block_bytes);
        // `run` holds a receiver of this queue and it has room for every
        // shell: cannot fail.
        let _ = self.free.send(shell);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc;
    use std::time::Duration;
    use stronghold_model::config::tiny;
    use stronghold_model::transformer::Transformer;
    use stronghold_tensor::PackedHalf;

    const RESERVED: u64 = 4096;

    /// A store over a fresh `layers`-block model and a stream beside it.
    fn fixture(
        layers: usize,
        precision: Precision,
        window: usize,
        reserved: u64,
        tel: &Telemetry,
    ) -> (Arc<LayerStore>, LayerStream) {
        let blocks = Transformer::new(tiny(layers), 3).blocks;
        let store = LayerStore::new(blocks.iter().map(|b| b.flatten_params()).collect());
        let template = blocks.into_iter().next().expect("at least one layer");
        let stream = LayerStream::new(template, layers, precision, window, None, reserved, tel);
        (store, stream)
    }

    /// The training consumer's shell discipline: FP releases every layer
    /// that slides out of the window and keeps the last `m`; BP takes the
    /// kept ones back, then the re-fetched rest. Returns the layers in the
    /// order they were computed on, each with the parameters its shell held.
    fn train_like(feed: &mut Feed<'_>, n: usize, m: usize) -> Vec<(usize, Vec<f32>)> {
        let mut seen = Vec::new();
        let mut kept = Vec::new();
        for i in 0..n {
            let (layer, block) = feed.next();
            seen.push((layer, block.flatten_params()));
            if i + m >= n {
                kept.push((layer, block));
            } else {
                feed.release(block);
            }
        }
        for _ in 0..n {
            let (layer, block) = kept.pop().unwrap_or_else(|| feed.next());
            seen.push((layer, block.flatten_params()));
            feed.release(block);
        }
        seen
    }

    /// Runs `work` on its own thread and fails the test if it has not
    /// finished within ten seconds — a hung prefetcher, not a slow one.
    fn within_timeout<T: Send + 'static>(work: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(work());
        });
        rx.recv_timeout(Duration::from_secs(10))
            .expect("layer stream hung")
    }

    #[test]
    fn device_peak_is_reserved_plus_the_window_slots() {
        let layers = 4;
        for m in [1, 2, layers] {
            let (store, mut stream) =
                fixture(layers, Precision::F32, m, RESERVED, &Telemetry::disabled());
            let bb = stream.block_bytes();
            let device = Arc::clone(stream.device());
            assert_eq!(device.capacity(), RESERVED + (m as u64 + 1) * bb);
            // Hold every shell the pass can fill at once before releasing
            // any: the prefetcher cannot get further ahead than that.
            let hold = (m + 1).min(layers);
            stream.run(&store, Pass::Forward, |feed| {
                let held: Vec<_> = (0..hold).map(|_| feed.next()).collect();
                assert_eq!(device.used(), RESERVED + hold as u64 * bb);
                for (_, block) in held {
                    feed.release(block);
                }
                for _ in hold..layers {
                    let (_, block) = feed.next();
                    feed.release(block);
                }
            });
            assert_eq!(device.peak(), RESERVED + hold as u64 * bb, "m = {m}");
            assert_eq!(device.used(), RESERVED, "only the reserved bytes stay");
        }
    }

    #[test]
    fn a_consumer_that_stops_early_or_panics_cannot_hang_the_prefetcher() {
        for pass in [Pass::Forward, Pass::ForwardBackward] {
            let (layers, m) = (5, 2);
            let (store, mut stream) = within_timeout(move || {
                let (store, mut stream) =
                    fixture(layers, Precision::F32, m, RESERVED, &Telemetry::disabled());
                let first = stream.run(&store, pass, |feed| {
                    let (layer, block) = feed.next();
                    feed.release(block);
                    layer
                });
                assert_eq!(first, 0);
                (store, stream)
            });
            // Stopping early leaves a usable stream: shells and device bytes
            // are all back.
            assert_eq!(stream.device().used(), RESERVED);
            let seen = stream.run(&store, Pass::ForwardBackward, |feed| {
                train_like(feed, layers, m)
            });
            assert_eq!(seen.len(), 2 * layers);

            let panicked = within_timeout(move || {
                catch_unwind(AssertUnwindSafe(|| {
                    stream.run(&store, pass, |feed| {
                        let _staged = feed.next();
                        panic!("consumer died mid-pass");
                    })
                }))
                .is_err()
            });
            assert!(panicked, "the consumer's panic must propagate");
        }
    }

    #[test]
    fn prefetch_counters_follow_the_schedule() {
        let (n, m) = (5, 2);
        let tel = Telemetry::enabled();
        let (store, mut stream) = fixture(n, Precision::F32, m, 0, &tel);
        let seen = stream.run(&store, Pass::ForwardBackward, |feed| train_like(feed, n, m));
        let order: Vec<usize> = seen.iter().map(|(layer, _)| *layer).collect();
        assert_eq!(order, [0, 1, 2, 3, 4, 4, 3, 2, 1, 0]);
        assert_eq!(tel.counter("prefetch.issued").get(), (2 * n - m) as u64);
        assert_eq!(tel.counter("prefetch.completed").get(), n as u64);
        assert_eq!(tel.counter("prefetch.refetched").get(), (n - m) as u64);
        // One wait sample per copy on the prefetcher side, one per layer
        // taken from the feed on the consumer side.
        let copies = (2 * n - m) as u64;
        assert_eq!(tel.histogram("prefetch.shell_wait_ns").count(), copies);
        assert_eq!(tel.histogram("prefetch.fetch_wait_ns").count(), copies);

        stream.run(&store, Pass::Forward, |feed| {
            for _ in 0..n {
                let (_, block) = feed.next();
                feed.release(block);
            }
        });
        assert_eq!(tel.counter("prefetch.issued").get(), (3 * n - m) as u64);
        assert_eq!(tel.counter("prefetch.refetched").get(), (n - m) as u64);
    }

    #[test]
    fn resizing_between_runs_never_shows_stale_shell_contents() {
        let n = 4;
        let (store, mut stream) = fixture(n, Precision::F32, 1, RESERVED, &Telemetry::disabled());
        let bb = stream.block_bytes();
        for m in [1, 3, 9, 2, 1] {
            stream.resize(m);
            let m = m.min(n);
            assert_eq!(stream.window(), m);
            assert_eq!(stream.device().capacity(), RESERVED + (m as u64 + 1) * bb);
            let seen = stream.run(&store, Pass::ForwardBackward, |feed| train_like(feed, n, m));
            for (layer, params) in seen {
                assert_eq!(params, store.read_params(layer), "layer {layer} at m = {m}");
            }
        }
    }

    #[test]
    fn training_and_serving_streams_load_the_same_bf16_bits() {
        let (n, m) = (3, 1);
        let tel = Telemetry::disabled();
        let (store, mut training) = fixture(n, Precision::Bf16, m, 0, &tel);
        let masters: Vec<Vec<f32>> = (0..n).map(|i| store.read_params(i)).collect();
        // The serving shape: a moment-free store, KV bytes reserved on the
        // device, forward-only passes.
        let frozen = LayerStore::without_moments(masters.clone());
        let (_, mut serving) = fixture(n, Precision::Bf16, m, RESERVED, &tel);

        let trained = training.run(&store, Pass::ForwardBackward, |feed| train_like(feed, n, m));
        let served = serving.run(&frozen, Pass::Forward, |feed| {
            (0..n)
                .map(|_| {
                    let (layer, block) = feed.next();
                    let params = block.flatten_params();
                    feed.release(block);
                    (layer, params)
                })
                .collect::<Vec<_>>()
        });
        let bits = |p: &[f32]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut pack = PackedHalf::new(Precision::Bf16);
        for (layer, params) in trained.iter().chain(&served) {
            let mut grid = masters[*layer].clone();
            pack.round_through(&mut grid);
            assert_eq!(bits(params), bits(&grid), "layer {layer}");
        }
        // Evaluation sees that grid too; the checkpoint export does not.
        training.for_each_layer(&store, |block, layer| {
            let mut grid = masters[layer].clone();
            pack.round_through(&mut grid);
            assert_eq!(bits(&block.flatten_params()), bits(&grid));
        });
        for (layer, block) in training.master_blocks(&store).iter().enumerate() {
            assert_eq!(bits(&block.flatten_params()), bits(&masters[layer]));
        }
        assert_eq!(
            training.device().h2d_bytes(),
            (2 * n - m) as u64 * training.block_bytes(),
            "half-width payloads, evaluation and export unaccounted"
        );
    }
}
