//! The layer stream: the one H2D pipeline behind training, evaluation and
//! serving.
//!
//! Host memory is the authoritative parameter store ([`LayerStore`]); the
//! device holds a transient window of `m + 1` reusable *shells* (the §III-E3
//! buffer pool: `m` window slots plus the incoming-layer buffer, term `s^j`
//! of constraint (1c)). [`LayerStream::run`] circulates the shells between
//! the stream's prefetcher thread — which waits for a free shell, loads the
//! next layer of the pass into it and accounts the copy on the
//! [`HostDevice`] — and the consumer, which computes on each layer as it
//! lands and hands the shell back. The window bound is the shell count: the
//! prefetcher can never run more than `m + 1` layers ahead of the last
//! release.
//!
//! The prefetcher is a long-lived [`Actor`], like the D2H engine and the
//! optimizer actors: it is started with the stream, takes its
//! orders over a channel and is joined when the stream drops, so no pass
//! starts a thread. An order is one pass, or — when a serving engine knows
//! the next round will run — a run of forward passes it chains on as it
//! goes ([`LayerStream::stage`]): the prefetcher then moves on to the next
//! pass's first layers as soon as the current pass's tail frees a shell.
//! Only a read-only store may be read ahead like that.
//!
//! Every store → shell conversion in the crate goes through [`load`], and
//! the shell channels are built in [`LayerStream::issue`] only (`ci.sh`
//! guards both), so training, serving and evaluation compute on the same
//! device-resident value grid by construction.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crossbeam_channel::{bounded, Receiver, Sender};
use stronghold_model::block::{Block, BlockGrads};
use stronghold_tensor::simd::round_copy;
use stronghold_tensor::Precision;

use crate::actor::{Actor, Panic};
use crate::host::device::HostDevice;
use crate::lock;
use crate::optimpool::{LayerStore, Masters, SPILL_CHUNK};
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
/// that does — in one pass over the masters: a plain copy at F32, and in a
/// half mode each value is rounded through the transfer format on its way
/// into the shell. The device computes on the half grid while the store
/// keeps full masters, and because the rounding is idempotent a re-fetch of
/// an unchanged layer reloads identical bits. The half-width payload itself
/// is never materialised (the link is a memcpy; its cost is the bytes
/// touched), only accounted: returns the bytes that cross the link. A
/// serving store holds serving-form images, which load into serving-form
/// shells the same way; their panel padding is layout and crosses no link.
///
/// A resident layer is copied out of its chunks one tensor at a time, and a
/// spilled layer is read from its file range straight into the shell's
/// tensors, one tensor at a time too: at F32 in place, in a half mode through
/// `staging`, one [`SPILL_CHUNK`] at most, which the same rounding copies
/// on into the shell.
fn load(
    shell: &mut Block,
    masters: Masters<'_>,
    precision: Precision,
    staging: &mut Vec<f32>,
) -> u64 {
    match masters {
        Masters::Ram(ram) => {
            assert_eq!(ram.len(), shell.flat_len());
            shell.load_flat_params_with(|off, dst| ram.read_as(off, dst, precision));
        }
        Masters::File(file) => {
            assert_eq!(file.len(), shell.flat_len());
            shell.load_flat_params_with(|off, dst| {
                if !precision.is_half() {
                    return file.read(off, dst);
                }
                let chunk = dst.len().min(SPILL_CHUNK);
                if staging.len() < chunk {
                    staging.resize(chunk, 0.0);
                }
                for (i, piece) in dst.chunks_mut(SPILL_CHUNK).enumerate() {
                    let staged = &mut staging[..piece.len()];
                    file.read(off + i * SPILL_CHUNK, staged);
                    round_copy(precision, staged, piece);
                }
            });
        }
    }
    shell.param_count() as u64 * precision.param_bytes()
}

/// What the two ends of a running pass share: the device the shells live
/// on, and the clocks and counters of the copies.
struct Link {
    device: Arc<HostDevice>,
    tel: Telemetry,
    /// Bytes of one device slot (a layer at transfer precision).
    block_bytes: u64,
    c_issued: Counter,
    /// First fetches: `layers` per run whatever the window.
    c_completed: Counter,
    /// BP-order re-entries of layers that slid out during FP.
    c_refetched: Counter,
    /// Prefetcher wait for a free shell (prefetch running ahead) …
    h_shell_wait: Histogram,
    /// … and consumer wait for a prefetched layer (window too small).
    h_fetch_wait: Histogram,
    /// Prefetcher wait for a layer's masters: its pending update, or
    /// another reader of a spilled layer.
    h_lend_wait: Histogram,
}

/// A closed order's budget: the prefetcher has staged every pass it was
/// given and let go of the order.
const CLOSED: usize = usize::MAX;

/// One order for the prefetcher thread: the store it reads, the access
/// sequence, how many passes of it to run, and the prefetcher's ends of the
/// order's shell queues.
struct Order {
    store: Arc<LayerStore>,
    pass: Pass,
    /// Passes the order runs. The consumer raises it to chain another pass
    /// onto a running order; the prefetcher sets [`CLOSED`] when it has
    /// staged the last one. Both go through one atomic, so a raise either
    /// lands before the close or sees it.
    budget: Arc<AtomicUsize>,
    free: Receiver<Block>,
    ready: Sender<(usize, Block)>,
}

/// The consumer's side of an issued order.
struct Issued {
    store: Arc<LayerStore>,
    pass: Pass,
    budget: Arc<AtomicUsize>,
    /// Passes ordered beyond the one the next [`LayerStream::run`] consumes.
    ahead: usize,
    ready: Receiver<(usize, Block)>,
    /// `None` once the order winds down.
    free: Option<Sender<Block>>,
    /// A receiver of the free queue too: the shells left in it come home
    /// when the order ends.
    free_home: Receiver<Block>,
}

/// The streaming H2D engine. It owns the device side only; the store a
/// pass reads is an argument, so the owner decides how it is built (tiered
/// for training, moment-free for serving). See the module docs.
pub(crate) struct LayerStream {
    link: Arc<Link>,
    /// The `m + 1` device shells while no order is issued. Behind a lock
    /// only so the `&self` evaluation paths can borrow one;
    /// [`LayerStream::run`] goes through `get_mut`.
    shells: Mutex<Vec<Block>>,
    window: usize,
    precision: Precision,
    /// The order the next [`LayerStream::run`] consumes a pass of, when it
    /// was issued ahead of that run.
    staged: Option<Issued>,
    /// A pass [`LayerStream::stage`] could not chain onto the staged order
    /// (the prefetcher had closed it): issued as soon as the next run ends.
    stage_after_run: bool,
    /// The prefetcher thread; one order is in flight at a time, so its
    /// flush hands back the panic that ended the current order.
    prefetcher: Actor<Order>,
}

impl LayerStream {
    /// Builds the stream for a model of `layers` blocks shaped like
    /// `template`, which becomes the first of the `m + 1` device shells (the
    /// rest are clones of it), and starts its prefetcher thread. `window` is
    /// clamped to `1..=window_max`; with a `device_capacity` budget,
    /// `window_max` is the deepest `m` whose `m + 1` slots fit beside the
    /// `reserved` bytes and the device holds exactly the budget, otherwise
    /// `window_max` is the layer count and the device is sized to exactly
    /// `reserved + (m + 1)` slots. Every size is fixed here, for the
    /// stream's lifetime. `reserved` is allocated on the device here and
    /// stays allocated.
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
        let m = window.clamp(1, window_max);
        let capacity = device_capacity.unwrap_or(reserved + (m as u64 + 1) * block_bytes);
        let device = Arc::new(HostDevice::with_telemetry(capacity, tel));
        device.alloc(reserved);
        let link = Arc::new(Link {
            device,
            tel: tel.clone(),
            block_bytes,
            c_issued: tel.counter("prefetch.issued"),
            c_completed: tel.counter("prefetch.completed"),
            c_refetched: tel.counter("prefetch.refetched"),
            h_shell_wait: tel.histogram("prefetch.shell_wait_ns"),
            h_fetch_wait: tel.histogram("prefetch.fetch_wait_ns"),
            h_lend_wait: tel.histogram("prefetch.lend_wait_ns"),
        });
        let prefetcher = Actor::start(["prefetch".into()], Some(1), || {
            let link = Arc::clone(&link);
            // Half-precision loads of spilled layers round through it.
            let mut staging = Vec::new();
            move |order: Order| {
                let Order {
                    store,
                    pass,
                    budget,
                    free,
                    ready,
                } = order;
                let mut prefetcher = Prefetcher {
                    link: &link,
                    store: &store,
                    precision,
                    staging: &mut staging,
                    free,
                    ready,
                };
                // A failed fetch (a spill-tier read) ends only its order:
                // the shell queues drop while it unwinds, so the consumer
                // wakes and takes the panic from the actor's flush.
                let mut done = 0;
                while prefetcher.run(pass, m) {
                    done += 1;
                    let close =
                        budget.compare_exchange(done, CLOSED, Ordering::SeqCst, Ordering::SeqCst);
                    if close.is_ok() {
                        break;
                    }
                }
            }
        });
        LayerStream {
            link,
            shells: Mutex::new(vec![template; m + 1]),
            window: m,
            precision,
            staged: None,
            stage_after_run: false,
            prefetcher,
        }
    }

    /// The working-window size `m` in force.
    pub(crate) fn window(&self) -> usize {
        self.window
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
        lock(&self.shells)[0].param_count()
    }

    /// A zeroed gradient accumulator shaped like one block.
    pub(crate) fn zero_grads(&self) -> BlockGrads {
        lock(&self.shells)[0].zero_grads()
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
        let shell = &mut lock(&self.shells)[0];
        let mut staging = Vec::new();
        for i in 0..store.len() {
            store.with_params(i, |p| load(shell, p, self.precision, &mut staging));
            per_layer(shell, i);
        }
    }

    /// Every layer as an owned block holding the store's FP32 masters (never
    /// the rounded device values) — the checkpoint export.
    pub(crate) fn master_blocks(&self, store: &LayerStore) -> Vec<Block> {
        let shells = lock(&self.shells);
        (0..store.len())
            .map(|i| {
                let mut block = shells[0].clone();
                store.with_params(i, |p| load(&mut block, p, Precision::F32, &mut Vec::new()));
                block
            })
            .collect()
    }

    /// Hands every shell to a fresh pair of shell queues and orders the
    /// prefetcher to run `passes` passes of `pass` over `store` through
    /// them.
    ///
    /// # Panics
    /// Panics if a panicked pass took every shell with it.
    fn issue(&mut self, store: &Arc<LayerStore>, pass: Pass, passes: usize) -> Issued {
        let m = self.window;
        let shells = self
            .shells
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        assert_eq!(
            shells.len(),
            m + 1,
            "a panicked pass lost the window's shells"
        );
        let (ready_tx, ready_rx) = bounded::<(usize, Block)>(m);
        let (free_tx, free_rx) = bounded::<Block>(m + 1);
        for shell in shells.drain(..) {
            // Room for all m + 1, and we hold a receiver: cannot fail.
            let _ = free_tx.send(shell);
        }
        let budget = Arc::new(AtomicUsize::new(passes));
        let order = Order {
            store: Arc::clone(store),
            pass,
            budget: Arc::clone(&budget),
            free: free_rx.clone(),
            ready: ready_tx,
        };
        self.prefetcher.send(order);
        Issued {
            store: Arc::clone(store),
            pass,
            budget,
            ahead: passes - 1,
            ready: ready_rx,
            free: Some(free_tx),
            free_home: free_rx,
        }
    }

    /// Orders a forward pass over `store` to follow the pass the next
    /// [`LayerStream::run`] consumes — its own, or the one a previous
    /// `stage` ordered. The prefetcher runs straight on into it: each shell
    /// the consumer releases in the tail of the current pass is filled with
    /// the next pass's first layers while the caller still computes and
    /// then works between passes. Only a read-only store may be read ahead —
    /// a training store's layer may take an update after the order is
    /// issued — so a training pass is always issued at `run` entry.
    ///
    /// # Panics
    /// Panics if `store` holds Adam moments, or if the pass the next run
    /// consumes is not a forward pass over `store`.
    pub(crate) fn stage(&mut self, store: &Arc<LayerStore>) {
        assert!(
            store.is_read_only(),
            "a pass may be issued ahead of `run` only on a read-only store"
        );
        let Some(order) = &mut self.staged else {
            // The next run's pass and the one after it, in one order.
            self.staged = Some(self.issue(store, Pass::Forward, 2));
            return;
        };
        assert!(
            order.pass == Pass::Forward && Arc::ptr_eq(&order.store, store),
            "a forward pass is chained onto another pass"
        );
        let raised = order
            .budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| {
                (b != CLOSED).then(|| b + 1)
            });
        match raised {
            Ok(_) => order.ahead += 1,
            // The prefetcher has staged all of the next run's pass already.
            Err(_) => self.stage_after_run = true,
        }
    }

    /// Runs one pass over `store`: the prefetcher fills shells in `pass`
    /// order (it may have started already, when the pass was staged) while
    /// `consume` takes each layer from the [`Feed`] and releases the shell
    /// when done with it. Returns `consume`'s result once the prefetcher
    /// has let go of the pass and every shell is back in the pool — or,
    /// when [`LayerStream::stage`] chained another pass onto this one, once
    /// the whole pass has been consumed; the prefetcher is then already
    /// filling the freed shells with the next pass's layers.
    ///
    /// A consumer that returns before the end of the pass is fine: the
    /// layers already staged (of this pass or a chained one) are drained
    /// and un-accounted. One that panics ends the pass the same way while
    /// it unwinds. A prefetch that panics (a failed spill-tier read) ends
    /// the pass, and its panic is re-raised on the calling thread — at the
    /// consumer's next [`Feed::next`], or here; the prefetcher thread lives
    /// on for the next pass.
    ///
    /// # Panics
    /// Panics if a different pass is staged.
    pub(crate) fn run<R>(
        &mut self,
        store: &Arc<LayerStore>,
        pass: Pass,
        consume: impl FnOnce(&mut Feed<'_>) -> R,
    ) -> R {
        let stage_after_run = std::mem::take(&mut self.stage_after_run);
        let mut order = match self.staged.take() {
            Some(staged) => {
                assert!(
                    staged.pass == pass && Arc::ptr_eq(&staged.store, store),
                    "the staged pass is not the one being run"
                );
                staged
            }
            None => self.issue(store, pass, 1),
        };
        let total = match pass {
            Pass::Forward => store.len(),
            Pass::ForwardBackward => 2 * store.len() - self.window,
        };
        let home = self
            .shells
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        let mut feed = Feed::new(&self.link, &mut order, &self.prefetcher, home, self.window);
        let out = consume(&mut feed);
        let chained = feed.taken == total && feed.order.ahead > 0;
        if chained {
            // The order's queues carry on into the chained pass.
            feed.ended = true;
        } else if let Some(panic) = feed.wind_down() {
            resume_unwind(panic);
        }
        drop(feed);
        if chained {
            order.ahead -= 1;
            self.staged = Some(order);
        }
        if stage_after_run {
            self.staged = Some(self.issue(store, Pass::Forward, 1));
        }
        out
    }
}

impl Drop for LayerStream {
    /// Winds down a staged pass nobody will run; the prefetcher is joined
    /// when its actor drops.
    fn drop(&mut self) {
        if let Some(mut staged) = self.staged.take() {
            let home = self
                .shells
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner);
            drop(Feed::new(
                &self.link,
                &mut staged,
                &self.prefetcher,
                home,
                self.window,
            ));
        }
    }
}

/// The prefetcher's view of one pass.
struct Prefetcher<'a> {
    link: &'a Link,
    store: &'a LayerStore,
    precision: Precision,
    staging: &'a mut Vec<f32>,
    free: Receiver<Block>,
    ready: Sender<(usize, Block)>,
}

impl Prefetcher<'_> {
    /// Walks the pass, staging each layer into the next free shell — a
    /// spilled layer's disk read included, so it hides under compute
    /// exactly like the rest of the copy. Returns whether the whole pass
    /// was staged: `false` when the consumer has gone away.
    fn run(&mut self, pass: Pass, m: usize) -> bool {
        let n = self.store.len();
        let total = match pass {
            Pass::Forward => n,
            Pass::ForwardBackward => 2 * n - m,
        };
        let layer_at = |p: usize| if p < n { p } else { total - 1 - p };
        for p in 0..total {
            let Some(shell) = self.fetch(layer_at(p), p >= n) else {
                return false;
            };
            if self.ready.send((layer_at(p), shell)).is_err() {
                return false;
            }
        }
        true
    }

    /// Waits for a free shell (the window bound), then copies `layer` into
    /// it: blocks while the layer's update from the previous iteration is
    /// pending (`prefetch.lend_wait_ns`, outside the `h2d-copy` span),
    /// loads, takes the layer's device slot, accounts the traffic. The slot
    /// is taken once the load has landed, and the copy's in-flight mark
    /// ends even if it does not, so a spilled layer's read that fails, and
    /// unwinds out of the load, leaves neither behind. `None` when no shell
    /// will ever come back.
    fn fetch(&mut self, layer: usize, refetch: bool) -> Option<Block> {
        let Link { device, tel, .. } = self.link;
        self.link.c_issued.incr();
        let t0 = tel.now_nanos();
        let mut shell = self.free.recv().ok()?;
        self.link
            .h_shell_wait
            .record(tel.now_nanos().saturating_sub(t0));
        let tag = if refetch { "h2d'" } else { "h2d" };
        // The copy's span opens once the masters are lent, so a wait for
        // the layer's pending update is not counted as copy time.
        let t_lend = tel.now_nanos();
        let (copy, bytes, span) = self.store.with_params(layer, |masters| {
            self.link
                .h_lend_wait
                .record(tel.now_nanos().saturating_sub(t_lend));
            let span = tel.span("h2d-copy", format_args!("{tag} L{layer}"));
            let copy = InFlight::begin(device);
            let bytes = load(&mut shell, masters, self.precision, self.staging);
            device.alloc(self.link.block_bytes);
            (copy, bytes, span)
        });
        copy.land(bytes);
        span.end();
        if refetch {
            self.link.c_refetched.incr()
        } else {
            self.link.c_completed.incr()
        }
        Some(shell)
    }
}

/// An H2D copy marked in flight on its device (`device.h2d_inflight`) for
/// as long as it lives: [`InFlight::land`] ends it with its bytes, and a
/// copy dropped unlanded — its load unwound — ends with none.
struct InFlight<'a>(&'a HostDevice);

impl<'a> InFlight<'a> {
    fn begin(device: &'a HostDevice) -> Self {
        device.begin_h2d();
        InFlight(device)
    }

    fn land(self, bytes: u64) {
        self.0.end_h2d(bytes);
        std::mem::forget(self);
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.end_h2d(0);
    }
}

/// The consumer's end of a running stream.
pub(crate) struct Feed<'a> {
    link: &'a Link,
    order: &'a mut Issued,
    prefetcher: &'a Actor<Order>,
    /// Where the shells rest between orders.
    home: &'a mut Vec<Block>,
    window: usize,
    /// Layers taken so far.
    taken: usize,
    ended: bool,
}

impl<'a> Feed<'a> {
    fn new(
        link: &'a Link,
        order: &'a mut Issued,
        prefetcher: &'a Actor<Order>,
        home: &'a mut Vec<Block>,
        window: usize,
    ) -> Self {
        Feed {
            link,
            order,
            prefetcher,
            home,
            window,
            taken: 0,
            ended: false,
        }
    }

    /// Takes the next staged layer of the pass, blocking until its copy has
    /// landed; the wait accrues to the `prefetch.fetch_wait_ns` histogram.
    ///
    /// # Panics
    /// Re-raises the prefetcher's panic if its pass died; panics if the
    /// pass is exhausted.
    pub(crate) fn next(&mut self) -> (usize, Block) {
        let Link { tel, .. } = self.link;
        let t0 = tel.now_nanos();
        let Ok(item) = self.order.ready.recv() else {
            if let Some(panic) = self.wind_down() {
                resume_unwind(panic);
            }
            panic!("layer stream ended early");
        };
        self.link
            .h_fetch_wait
            .record(tel.now_nanos().saturating_sub(t0));
        self.taken += 1;
        item
    }

    /// Hands a shell back to the window: frees its device slot and lets the
    /// prefetcher reuse it.
    pub(crate) fn release(&mut self, shell: Block) {
        self.link.device.free(self.link.block_bytes);
        // The order holds a receiver of this queue and it has room for
        // every shell: cannot fail.
        let free = self.order.free.as_ref().expect("pass still running");
        let _ = free.send(shell);
    }

    /// Ends the order, once: nothing more will be released, so the
    /// prefetcher stops as soon as the free queue is empty, and whatever it
    /// staged meanwhile is drained and un-accounted (nothing, when the
    /// consumer ran the whole pass and no pass was chained onto it). Every
    /// shell then comes home; one a panicking consumer dropped is replaced
    /// by a clone of one that came back. Returns the panic that ended the
    /// prefetcher's order, if one did.
    fn wind_down(&mut self) -> Option<Panic> {
        if std::mem::replace(&mut self.ended, true) {
            return None;
        }
        drop(self.order.free.take());
        while let Ok((_, shell)) = self.order.ready.recv() {
            self.link.device.free(self.link.block_bytes);
            self.home.push(shell);
        }
        let end = self.prefetcher.flush();
        while let Ok(shell) = self.order.free_home.try_recv() {
            self.home.push(shell);
        }
        let shells = self.window + 1;
        if self.home.len() < shells {
            if let Some(shell) = self.home.first().cloned() {
                self.home.resize(shells, shell);
            }
        }
        end
    }
}

impl Drop for Feed<'_> {
    fn drop(&mut self) {
        // A consumer unwinding: its own panic is the one propagating.
        let _ = self.wind_down();
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

    /// A read-only (moment-free) store over a fresh `layers`-block model
    /// and a stream beside it.
    fn frozen_fixture(layers: usize, window: usize) -> (Arc<LayerStore>, LayerStream) {
        let (store, stream) = fixture(
            layers,
            Precision::F32,
            window,
            RESERVED,
            &Telemetry::disabled(),
        );
        let images = (0..layers).map(|i| store.read_params(i)).collect();
        (
            LayerStore::without_moments(images, stream.block_elems()),
            stream,
        )
    }

    /// A forward consumer: every layer's parameters, in pass order.
    fn forward_like(feed: &mut Feed<'_>, n: usize) -> Vec<(usize, Vec<f32>)> {
        (0..n)
            .map(|_| {
                let (layer, block) = feed.next();
                let params = block.flatten_params();
                feed.release(block);
                (layer, params)
            })
            .collect()
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

    /// A copy's span opens once the masters are lent: while layer 1's
    /// update is pending, the prefetcher's wait for it accrues to
    /// `prefetch.lend_wait_ns`, and the `h2d L1` span covers only the copy
    /// after it.
    #[test]
    fn a_pending_update_is_a_lend_wait_not_copy_time() {
        const HOLD: Duration = Duration::from_millis(200);
        let tel = Telemetry::enabled();
        let (store, mut stream) = fixture(3, Precision::F32, 1, 0, &tel);
        let grads = vec![0.0; store.param_len(1)];
        store.mark_pending(1);
        stream.run(&store, Pass::Forward, |feed| {
            // Layer 0 is staged, so the prefetcher has the second shell and
            // waits on layer 1 while the update is held.
            let (_, block) = feed.next();
            std::thread::sleep(HOLD);
            store.apply_update(1, &grads, &crate::adam::AdamParams::default());
            feed.release(block);
            forward_like(feed, 2);
        });
        let hold = HOLD.as_nanos() as u64;
        let copy = tel
            .spans()
            .into_iter()
            .find(|s| s.track == "h2d-copy" && s.name == "h2d L1")
            .expect("layer 1 was copied");
        assert!(
            copy.end_ns - copy.start_ns < hold / 2,
            "the h2d L1 span ran {} ns of a {hold} ns hold",
            copy.end_ns - copy.start_ns
        );
        let lend = tel.histogram("prefetch.lend_wait_ns");
        assert_eq!(lend.count(), 3, "one lend per copy");
        assert!(
            lend.sum() >= hold / 2,
            "lend waits sum to {} ns under a {hold} ns hold",
            lend.sum()
        );
    }

    #[test]
    #[should_panic(expected = "a pass may be issued ahead of `run` only on a read-only store")]
    fn a_pass_is_issued_early_only_on_a_read_only_store() {
        let (store, mut stream) = fixture(3, Precision::F32, 1, 0, &Telemetry::disabled());
        stream.stage(&store);
    }

    /// Chained passes deliver what a pass issued at `run` entry does, and
    /// copy nothing more. With `m + 1 ≥ n` the prefetcher can stage a
    /// whole chained pass before its run starts and close the order, so a
    /// later `stage` cannot chain and issues its pass after that run
    /// instead; either way the bits and the byte count are the same.
    #[test]
    fn a_staged_pass_delivers_what_an_unstaged_one_does() {
        let n = 4;
        for m in [1, 3, 4] {
            let (store, mut stream) = frozen_fixture(n, m);
            let bb = stream.block_bytes();
            let plain = stream.run(&store, Pass::Forward, |feed| forward_like(feed, n));
            let chained = 4;
            for _ in 0..chained {
                stream.stage(&store);
                let got = stream.run(&store, Pass::Forward, |feed| forward_like(feed, n));
                assert_eq!(got, plain, "m = {m}");
            }
            let last = stream.run(&store, Pass::Forward, |feed| forward_like(feed, n));
            assert_eq!(last, plain, "m = {m}");
            let passes = 1 + chained + 1;
            assert_eq!(stream.device().h2d_bytes(), (passes * n) as u64 * bb);
            assert_eq!(stream.device().used(), RESERVED, "m = {m}");
        }
    }

    #[test]
    fn a_staged_order_stopped_early_or_dropped_returns_every_shell() {
        for m in [1, 3] {
            let (store, mut stream) = frozen_fixture(4, m);
            let device = Arc::clone(stream.device());
            within_timeout(move || {
                // A pass that stops early ends its order, chained pass and
                // all.
                stream.stage(&store);
                let first = stream.run(&store, Pass::Forward, |feed| {
                    let (layer, block) = feed.next();
                    feed.release(block);
                    layer
                });
                assert_eq!(first, 0);
                assert_eq!(stream.device().used(), RESERVED);
                stream.stage(&store);
                drop(stream);
            });
            assert_eq!(device.used(), RESERVED, "m = {m}: every staged slot freed");
        }
    }

    #[test]
    fn a_fresh_stream_clamps_its_window_and_sizes_its_arena() {
        let n = 4;
        for m in [1, 3, 9, 2] {
            let (store, mut stream) =
                fixture(n, Precision::F32, m, RESERVED, &Telemetry::disabled());
            let bb = stream.block_bytes();
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
        // The serving shape: a moment-free store of serving-form images,
        // serving-form shells, KV bytes reserved on the device, forward-only
        // passes. `panels` turns row-major parameters into that image.
        let row_major = Transformer::new(tiny(n), 3).blocks.swap_remove(0);
        let panels = |params: &[f32]| {
            let mut block = row_major.clone();
            block.load_flat_params(params);
            block.into_panels().flatten_params()
        };
        let template = row_major.clone().into_panels();
        let params = template.param_count();
        let frozen =
            LayerStore::without_moments(masters.iter().map(|p| panels(p)).collect(), params);
        let mut serving = LayerStream::new(template, n, Precision::Bf16, m, None, RESERVED, &tel);
        assert_eq!(serving.block_bytes(), training.block_bytes());

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
        let mut grid = |layer: usize| {
            let mut grid = masters[layer].clone();
            pack.round_through(&mut grid);
            grid
        };
        for (layer, params) in &trained {
            assert_eq!(bits(params), bits(&grid(*layer)), "layer {layer}");
        }
        // The serving shell holds the panel image of that same grid.
        for (layer, image) in &served {
            assert_eq!(
                bits(image),
                bits(&panels(&grid(*layer))),
                "served layer {layer}"
            );
        }
        assert_eq!(
            serving.device().h2d_bytes(),
            n as u64 * serving.block_bytes(),
            "serving payloads are counted in parameters, not image floats"
        );
        // Evaluation sees that grid too; the checkpoint export does not.
        training.for_each_layer(&store, |block, layer| {
            assert_eq!(bits(&block.flatten_params()), bits(&grid(layer)));
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
