//! Allocation-count regression tests: the messaging hot paths must be
//! zero-allocation per message in steady state. A counting `GlobalAlloc`
//! wraps the system allocator; each test measures the allocation-count
//! delta across a measured window after a warm-up phase and asserts it is
//! exactly zero.
//!
//! Only allocations made by a thread inside [`measure`] count, so another
//! thread (libtest's runner, a previous test's rank threads) cannot land in
//! a window. Tests still serialize on a mutex because the counter they read
//! is shared.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use pure_core::channel::pbq::PureBufferQueue;
use pure_core::prelude::*;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set while this thread is inside [`measure`].
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn count_alloc() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

static SERIAL: Mutex<()> = Mutex::new(());

/// Serialize on the shared counter. A failed test poisons the mutex; the
/// next test must still run, and the mutex guards no data, so take the
/// guard regardless.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Allocations the calling thread makes while running `f`.
fn measure(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    MEASURING.with(|m| m.set(true));
    f();
    MEASURING.with(|m| m.set(false));
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn pbq_single_send_recv_steady_state_is_allocation_free() {
    let _guard = serial();
    for cached in [true, false] {
        let q = PureBufferQueue::new_with_mode(8, 256, cached);
        let payload = [0x5au8; 64];
        let mut out = [0u8; 256];
        // Warm up (first traversal of the ring touches nothing heap-side
        // either, but keep the measured window unambiguous).
        for _ in 0..32 {
            assert!(q.try_send(&payload));
            assert_eq!(q.try_recv(&mut out), Some(64));
        }
        let delta = measure(|| {
            for _ in 0..10_000 {
                assert!(q.try_send(&payload));
                assert_eq!(q.try_recv(&mut out), Some(64));
            }
        });
        assert_eq!(
            delta, 0,
            "cached={cached}: {delta} allocations in 10k send/recv pairs"
        );
    }
}

#[test]
fn pbq_batched_send_recv_steady_state_is_allocation_free() {
    let _guard = serial();
    let q = PureBufferQueue::new(8, 256);
    let payload = [0xc3u8; 64];
    let msgs: [&[u8]; 4] = [&payload, &payload, &payload, &payload];
    for _ in 0..32 {
        assert_eq!(q.try_send_batch(msgs), 4);
        assert_eq!(
            q.try_recv_batch(4, |_, bytes| assert_eq!(bytes.len(), 64)),
            4
        );
    }
    let delta = measure(|| {
        for _ in 0..10_000 {
            assert_eq!(q.try_send_batch(msgs), 4);
            assert_eq!(
                q.try_recv_batch(4, |_, bytes| assert_eq!(bytes.len(), 64)),
                4
            );
        }
    });
    assert_eq!(delta, 0, "{delta} allocations in 10k batched rounds");
}

#[test]
fn pbq_recv_with_in_place_path_is_allocation_free() {
    let _guard = serial();
    let q = PureBufferQueue::new(8, 256);
    let payload = [7u8; 64];
    for _ in 0..32 {
        assert!(q.try_send(&payload));
        assert_eq!(q.try_recv_with(|bytes| bytes.len()), Some(64));
    }
    let mut sum = 0u64;
    let delta = measure(|| {
        for _ in 0..10_000 {
            assert!(q.try_send(&payload));
            sum += q
                .try_recv_with(|bytes| bytes.iter().map(|&b| b as u64).sum::<u64>())
                .unwrap();
        }
    });
    assert_eq!(sum, 10_000 * 64 * 7);
    assert_eq!(delta, 0, "{delta} allocations in 10k in-place receives");
}

/// Cross-node: the pooled wire path end to end. After warm-up (pool slabs
/// allocated, match-store entries warm, transport buffers grown to steady
/// capacity), a send → flush → receive round over the internode transport
/// must allocate nothing per message — every wire frame lives in a recycled
/// pool slab and the receiver gets a zero-copy view of it. Asserted on both
/// the simulated fabric and real TCP loopback sockets, with coalescing off
/// (singleton frames) and on (gathered jumbos, scattered subslices).
///
/// Drives a raw 2-node `netsim::Cluster` from one thread so the measured
/// window is deterministic; faults and detection stay off (their control
/// planes are allowed to allocate).
#[test]
fn crossnode_pooled_wire_path_is_allocation_free() {
    use netsim::{Backend, Cluster, CoalescePlan, NetConfig, WireTag};
    let _guard = serial();
    const BATCH: usize = 8; // == the coalescer's count watermark
    for backend in [Backend::Sim, Backend::Tcp] {
        for coalesce in [false, true] {
            let mut net = NetConfig::default().with_backend(backend);
            if coalesce {
                // No age watermark: a preemption of more than `flush_ns`
                // between two sends would split a batch into two jumbos,
                // and the pool would grow one slab to hold both.
                net = net.with_coalescing(CoalescePlan {
                    flush_ns: u64::MAX,
                    ..CoalescePlan::default()
                });
            }
            let c = Cluster::new(2, net);
            let a = c.endpoint(0);
            let b = c.endpoint(1);
            let tag = WireTag::p2p(0, 0, 3);
            let payload = [0xE7u8; 56];
            let round = || {
                for _ in 0..BATCH {
                    a.send(1, tag, &payload);
                }
                a.flush_coalesced();
                let mut got = 0;
                while got < BATCH {
                    // TCP frames cross a real socket; spin until the kernel
                    // delivers (the poll itself is allocation-free).
                    if let Some(p) = b.try_recv(0, tag) {
                        assert_eq!(p[..], payload[..]);
                        got += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
            };
            for _ in 0..64 {
                round();
            }
            let delta = measure(|| {
                for _ in 0..500 {
                    round();
                }
            });
            assert_eq!(
                delta,
                0,
                "{backend:?} coalesce={coalesce}: {delta} allocations in \
                 {} steady-state cross-node messages",
                500 * BATCH
            );
        }
    }
}

/// End-to-end: the blocking send/recv fast path through the runtime's
/// channel layer (rank 0 to itself — producer and consumer on one thread,
/// so the window is deterministic) allocates nothing per message once the
/// channel exists.
#[test]
fn runtime_send_recv_fast_path_is_allocation_free() {
    let _guard = serial();
    let mut cfg = Config::new(1);
    cfg.spin_budget = 4;
    let (_, deltas) = launch_map(cfg, |ctx| {
        let w = ctx.world();
        let tx = [9u8; 64];
        let mut rx = [0u8; 64];
        // Warm-up creates the channel and fills every lazily-initialized
        // cache on the path.
        for _ in 0..32 {
            w.send(&tx, 0, 0);
            w.recv(&mut rx, 0, 0);
        }
        let delta = measure(|| {
            for _ in 0..5_000 {
                w.send(&tx, 0, 0);
                w.recv(&mut rx, 0, 0);
            }
        });
        assert_eq!(rx, tx);
        delta
    });
    assert_eq!(
        deltas[0], 0,
        "{} allocations in 5k steady-state send/recv pairs",
        deltas[0]
    );
}
