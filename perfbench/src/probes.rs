//! Isolated probes of single layers, driven through their public APIs with
//! no runtime above them: the bottom rungs of the per-layer ladder.

use std::hint::black_box;
use std::time::{Duration, Instant};

use netsim::{Cluster, NetConfig, WireTag};
use pure_core::channel::envelope::EnvelopeQueue;
use pure_core::channel::pbq::PureBufferQueue;
use pure_core::Config;

use crate::stats::median;

/// Repeat `batch` (which runs `per_batch` ops) until `budget` is spent and
/// return the median ns per op over the batches.
fn per_op_ns(budget: Duration, per_batch: u64, mut batch: impl FnMut()) -> f64 {
    batch(); // warm-up
    let mut samples = Vec::new();
    let t_end = Instant::now() + budget;
    while samples.len() < 5 || Instant::now() < t_end {
        let t0 = Instant::now();
        batch();
        samples.push(t0.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    median(&samples)
}

/// Median µs of launching and joining an empty two-rank program.
pub fn launch_empty_us(cfg: &Config, budget: Duration) -> f64 {
    per_op_ns(budget, 1, || {
        pure_core::launch(cfg.clone(), |_| {});
    }) / 1e3
}

/// Median ns of one 8 B `try_send` + `try_recv` pair on one thread, on a
/// PBQ sized as the runtime sizes the channel of an 8 B message (slot size
/// = message size).
pub fn pbq_op_ns(cfg: &Config, budget: Duration) -> f64 {
    const N: u64 = 10_000;
    let q = PureBufferQueue::new_with_mode(cfg.pbq_slots, 8, cfg.pbq_cached_indices);
    let payload = 0x0123_4567_89AB_CDEFu64.to_le_bytes();
    let mut out = [0u8; 8];
    per_op_ns(budget, N, || {
        for _ in 0..N {
            assert!(q.try_send(black_box(&payload)), "PBQ probe: queue full");
            assert_eq!(
                q.try_recv(black_box(&mut out)),
                Some(8),
                "PBQ probe: no message"
            );
        }
        assert_eq!(out, payload, "PBQ probe: payload corrupted");
    })
}

/// Median ns of one 64 KiB rendezvous (post, fill, consume) on an
/// envelope queue, on one thread.
pub fn envelope_rendezvous_ns(cfg: &Config, budget: Duration) -> f64 {
    const N: u64 = 200;
    let q = EnvelopeQueue::new(cfg.env_slots);
    let src: Vec<u8> = (0..64 * 1024).map(|i| (i * 7 + 1) as u8).collect();
    let mut dst = vec![0u8; src.len()];
    per_op_ns(budget, N, || {
        for _ in 0..N {
            // SAFETY: `dst` outlives the rendezvous, which completes (the
            // consume below returns the ticket's length) before the next
            // post or any other access to `dst`; this thread is both the
            // receiver and the sender, so the buffer is never aliased.
            let ticket = unsafe { q.try_post(dst.as_mut_ptr(), dst.len()) }
                .expect("envelope probe: no free envelope");
            assert!(q.try_fill(black_box(&src)), "envelope probe: fill failed");
            assert_eq!(
                q.try_consume(ticket),
                Some(src.len()),
                "envelope probe: not filled"
            );
        }
        assert_eq!(dst, src, "envelope probe: payload corrupted");
    })
}

/// Median µs of a raw 8 B ping-pong between two `NodeEndpoint`s of a
/// two-node `Cluster` under `net`, one thread per endpoint, with no
/// `pure-core` above it.
pub fn endpoint_rtt_8b_us(net: NetConfig, budget: Duration) -> f64 {
    let cluster = Cluster::new(2, net);
    let tag = WireTag::p2p(0, 0, 1);
    let recv = |ep: &netsim::NodeEndpoint, from: usize| -> u64 {
        loop {
            if let Some(p) = ep.try_recv(from, tag) {
                let word: [u8; 8] = p[..].try_into().expect("endpoint probe: 8 B frame");
                return u64::from_le_bytes(word);
            }
            ep.progress();
        }
    };
    let samples = std::thread::scope(|s| {
        let echo = s.spawn(|| {
            let ep = cluster.endpoint(1);
            loop {
                let v = recv(&ep, 0);
                ep.send(0, tag, &v.to_le_bytes());
                if v == u64::MAX {
                    // Nobody polls this node once the thread is gone.
                    ep.flush_coalesced();
                    return;
                }
            }
        });
        let ep = cluster.endpoint(0);
        let mut samples = Vec::new();
        let t_end = Instant::now() + budget;
        let mut i = 0u64;
        while samples.len() < 100 || Instant::now() < t_end {
            let t0 = Instant::now();
            ep.send(1, tag, &i.to_le_bytes());
            assert_eq!(recv(&ep, 1), i, "endpoint probe: echo mismatch");
            if i >= 100 {
                samples.push(t0.elapsed().as_nanos() as f64 / 1e3);
            }
            i += 1;
        }
        ep.send(1, tag, &u64::MAX.to_le_bytes());
        assert_eq!(recv(&ep, 1), u64::MAX, "endpoint probe: stop echo");
        echo.join().expect("endpoint probe: echo thread panicked");
        samples
    });
    cluster.purge_pooled();
    median(&samples)
}
