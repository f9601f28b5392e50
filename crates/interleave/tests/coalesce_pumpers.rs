//! The coalesced-receive FIFO race, modeled: two threads pump one node's
//! jumbo link at once. Each pump pops the next arrived jumbo (a linearizable
//! pop, like the match store's) and then scatters its subframes into the
//! data tag's queue. Without the node's ingest token, one pumper can pop
//! jumbo 0, be preempted, and see the other scatter jumbo 1 first: the
//! receiver then observes subframes out of FIFO order. With the token, taken
//! by `try_lock` and skipped when held, as `NodeEndpoint::pump_coalesced`
//! does, every schedule delivers in order.
//!
//! Run with `cargo test -p interleave --features model`.
#![cfg(feature = "model")]

use std::sync::Arc;

use interleave::cell::Cell;
use interleave::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use interleave::{check, thread, Options};

const JUMBOS: usize = 2;
const SUBFRAMES: usize = 2;
const TOTAL: usize = JUMBOS * SUBFRAMES;

/// One node's receive side: the jumbo link (already arrived, popped in
/// order), the data tag's queue the scatter fills, and the ingest token.
struct Node {
    /// Next jumbo to pop off the link.
    link_head: AtomicUsize,
    /// Spinlock over `queue`/`queued` (the match-store shard mutex).
    queue_lock: AtomicBool,
    queue: [Cell<u64>; TOTAL],
    queued: Cell<usize>,
    /// Ingest token; unused by the mutant.
    token: AtomicBool,
    use_token: bool,
}

// SAFETY: the atomics are thread-safe; `queue` and `queued` are read and
// written only between a successful `queue_lock` acquire and its release
// store, or after both pumpers have been joined.
unsafe impl Send for Node {}
unsafe impl Sync for Node {}

impl Node {
    fn new(use_token: bool) -> Self {
        Node {
            link_head: AtomicUsize::new(0),
            queue_lock: AtomicBool::new(false),
            queue: [Cell::new(0), Cell::new(0), Cell::new(0), Cell::new(0)],
            queued: Cell::new(0),
            token: AtomicBool::new(false),
            use_token,
        }
    }

    fn pop_jumbo(&self) -> Option<usize> {
        let j = self.link_head.fetch_add(1, Ordering::AcqRel);
        (j < JUMBOS).then_some(j)
    }

    fn push_subframe(&self, v: u64) {
        while self
            .queue_lock
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            thread::yield_now();
        }
        let n = self.queued.get();
        self.queue[n].set(v);
        self.queued.set(n + 1);
        self.queue_lock.store(false, Ordering::Release);
    }

    /// One `pump_coalesced` pass: drain the link, scattering each jumbo's
    /// subframes in order.
    fn pump(&self) {
        if self.use_token
            && self
                .token
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            return; // the holder is draining
        }
        while let Some(j) = self.pop_jumbo() {
            for s in 0..SUBFRAMES {
                self.push_subframe((j * SUBFRAMES + s) as u64);
            }
        }
        if self.use_token {
            self.token.store(false, Ordering::Release);
        }
    }
}

fn drive(use_token: bool) -> interleave::Report {
    check(
        Options {
            max_schedules: 6_000,
            ..Options::default()
        },
        move || {
            let node = Arc::new(Node::new(use_token));
            let other = Arc::clone(&node);
            let t = thread::spawn(move || other.pump());
            node.pump();
            t.join().unwrap();
            // The next tick picks up anything a skipped pass left behind.
            node.pump();
            let got: Vec<u64> = (0..node.queued.get())
                .map(|i| node.queue[i].get())
                .collect();
            let want: Vec<u64> = (0..TOTAL as u64).collect();
            assert_eq!(got, want, "subframes lost, duplicated or reordered");
        },
    )
}

#[test]
fn ingest_token_keeps_scatter_in_order() {
    let report = drive(true);
    assert!(
        report.failure.is_none(),
        "token-serialized pumpers flagged: {}",
        report.failure.unwrap()
    );
    assert!(
        report.schedules >= 10,
        "suspiciously few schedules explored"
    );
}

#[test]
fn pumpers_without_the_token_reorder() {
    let report = drive(false);
    let cex = report
        .failure
        .expect("two pumpers without the token must be caught reordering");
    assert!(
        cex.message.contains("reordered"),
        "expected a reorder, got: {}",
        cex.message
    );
    assert!(format!("{cex}").contains("PURE_MODEL_REPLAY="));
}
