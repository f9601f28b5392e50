//! **Figure 6b** — cross-node small-message throughput: what the per-node
//! progress engine's frame coalescing buys on the internode wire.
//!
//! Part (a) evaluates the calibrated cost model: amortizing the network
//! per-frame cost `net_alpha_ns` over a batch of coalesced small frames
//! (the `net_coalesce_batch` term), machine-independently.
//!
//! Part (b) runs the *real* runtime — 4 ranks on 2 simulated nodes — and
//! streams small cross-node messages over every leg in [`wire_legs`]:
//! coalescing off, cooperatively coalesced, helper-thread coalesced, and
//! the copying-wire ablation (classic serialize + per-subframe scatter
//! copies instead of the pooled zero-copy path). The headline ratio
//! `wire_frame_reduction_small` is frames(off) / frames(on); the PR's
//! acceptance floor is 2×, and the count watermark (8 subframes per jumbo)
//! puts the steady-state figure well above that. The ablation leg yields
//! `wire_memcpy_reduction_small`: measured memcpy bytes per message on the
//! copying path over the pooled path.
//!
//! The ≥2× frame assertion is derived from the leg list itself — every
//! coalescing leg is enrolled automatically, so adding a new configuration
//! can never silently skip the gate. A skewed stream — one rank streams
//! while its node-mate blocks in a receive — must still clear 4×, so a
//! receive miss cannot flush another rank's partial jumbos. A 2-node 8 B
//! ping-pong over TCP adds the matching time check: the coalesced median
//! round trip must stay within 2× of the uncoalesced one.

use cluster_sim::{CostModel, MsgStack, Placement};
use pure_bench::trajectory::{self, Figure};
use pure_bench::{header, row, speedup};
use pure_core::prelude::*;
use std::time::Instant;

fn model_table(fig: &mut Figure) {
    header(
        "Figure 6b (model) — coalescing speedup for cross-node messages",
        "payload | speedup at batch=4 | batch=8 | batch=16 (alpha amortized, Pure small msgs only)",
    );
    println!(
        "{}",
        row(
            "payload",
            &["batch 4".into(), "batch 8".into(), "batch 16".into()]
        )
    );
    let base = CostModel::default();
    for bytes in [8usize, 64, 512, 4096, 65536] {
        let cols: Vec<String> = [4.0, 8.0, 16.0]
            .into_iter()
            .map(|batch| {
                let c = CostModel {
                    net_coalesce_batch: batch,
                    ..CostModel::default()
                };
                let s = base.msg_ns(MsgStack::Pure, Placement::CrossNode, bytes)
                    / c.msg_ns(MsgStack::Pure, Placement::CrossNode, bytes);
                if bytes == 8 {
                    fig.ratio(&format!("model_coalesce_speedup_batch{batch:.0}_8B"), s);
                }
                speedup(s)
            })
            .collect();
        println!("{}", row(&format!("{bytes} B"), &cols));
    }
}

/// Stream `msgs` small cross-node messages from each node-0 rank to its
/// node-1 partner, then one collective to mix planes. Returns the stats
/// snapshot and wall-clock ns per message.
fn crossnode_stream(cfg: Config, msgs: u64) -> (RuntimeStats, f64) {
    let t0 = Instant::now();
    let report = pure_core::launch(cfg, move |ctx| {
        let w = ctx.world();
        let me = ctx.rank();
        let partner = (me + 2) % 4;
        let mut got = [0u64];
        if me < 2 {
            for i in 0..msgs {
                w.send(&[i * 7 + me as u64], partner, 1);
            }
        } else {
            for i in 0..msgs {
                w.recv(&mut got, partner, 1);
                assert_eq!(got[0], i * 7 + partner as u64, "stream corrupted");
            }
        }
        let s = w.allreduce_one(1u64, ReduceOp::Sum);
        assert_eq!(s, 4);
    });
    let ns_per_msg = t0.elapsed().as_nanos() as f64 / (2 * msgs) as f64;
    (report.stats, ns_per_msg)
}

/// Stream `msgs` small messages from rank 0 (node 0) to rank 2 (node 1)
/// while rank 1, rank 0's node-mate, blocks in a receive from node 1 for
/// the whole stream: rank 3 answers it only once rank 2 has everything.
/// Returns the stats snapshot and wall-clock ns per streamed message.
///
/// This is the skewed shape a receive-miss flush must not break: the
/// polling rank is not the one whose output sits in the jumbo buffer, so
/// its misses must leave the stream to the count and size watermarks.
fn skewed_stream(cfg: Config, msgs: u64) -> (RuntimeStats, f64) {
    const GAP: std::time::Duration = std::time::Duration::from_micros(2);
    let t0 = Instant::now();
    let report = pure_core::launch(cfg, move |ctx| {
        let w = ctx.world();
        let mut got = [0u64];
        match ctx.rank() {
            0 => {
                for i in 0..msgs {
                    // A producer that computes between sends, so the
                    // node-mate's receive polls interleave with the stream.
                    let t = Instant::now();
                    while t.elapsed() < GAP {
                        std::hint::spin_loop();
                    }
                    w.send(&[i], 2, 1);
                }
            }
            1 => {
                w.recv(&mut got, 3, 2);
                assert_eq!(got[0], msgs, "release corrupted");
            }
            2 => {
                for i in 0..msgs {
                    w.recv(&mut got, 0, 1);
                    assert_eq!(got[0], i, "skewed stream corrupted");
                }
                w.send(&[msgs], 3, 3);
            }
            _ => {
                w.recv(&mut got, 2, 3);
                w.send(&got, 1, 2);
            }
        }
    });
    let ns_per_msg = t0.elapsed().as_nanos() as f64 / msgs as f64;
    (report.stats, ns_per_msg)
}

/// Median round-trip ns of `rounds` closed-loop 8 B ping-pongs between 2
/// ranks on 2 nodes, timed on rank 0 after `rounds / 10` untimed trips.
fn pingpong_median_ns(cfg: Config, rounds: usize) -> f64 {
    let warm = rounds / 10;
    let (_, mut per_rank) = pure_core::launch_map(cfg, move |ctx| {
        let w = ctx.world();
        let mut got = [0u64];
        let mut samples = Vec::with_capacity(rounds);
        for i in 0..(warm + rounds) as u64 {
            let t0 = Instant::now();
            if ctx.rank() == 0 {
                w.send(&[i], 1, 4);
                w.recv(&mut got, 1, 4);
                assert_eq!(got[0], i, "ping-pong echo corrupted");
            } else {
                w.recv(&mut got, 0, 4);
                w.send(&got, 0, 4);
            }
            if i >= warm as u64 {
                samples.push(t0.elapsed().as_nanos() as f64);
            }
        }
        samples
    });
    let mut samples = per_rank.swap_remove(0);
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn cfg_on(backend: Backend, coalesce: bool, mode: ProgressMode) -> Config {
    let mut c = Config::new(4)
        .with_ranks_per_node(2)
        .with_transport(backend);
    c.spin_budget = 2;
    if coalesce {
        c = c.with_coalescing(CoalescePlan::default());
    }
    c.with_progress_mode(mode)
}

fn cfg(coalesce: bool, mode: ProgressMode) -> Config {
    cfg_on(Backend::Sim, coalesce, mode)
}

/// One leg of the real-runtime sweep. The table rows, the per-leg ≥2×
/// frame-reduction assertions and the memcpy ablation ratio are all derived
/// from this list, so a leg added here is automatically measured *and*
/// gated — there is no separate hardcoded mode list to forget to update.
struct WireLeg {
    name: &'static str,
    coalesce: bool,
    mode: ProgressMode,
    /// Ablation: reinstate the classic per-frame serialize and per-subframe
    /// scatter copies, giving the pooled zero-copy path a measured baseline.
    copy_wire: bool,
}

fn wire_legs() -> Vec<WireLeg> {
    vec![
        WireLeg {
            name: "off",
            coalesce: false,
            mode: ProgressMode::Cooperative,
            copy_wire: false,
        },
        WireLeg {
            name: "cooperative",
            coalesce: true,
            mode: ProgressMode::Cooperative,
            copy_wire: false,
        },
        WireLeg {
            name: "helper",
            coalesce: true,
            mode: ProgressMode::Helper,
            copy_wire: false,
        },
        WireLeg {
            name: "copy-wire",
            coalesce: true,
            mode: ProgressMode::Cooperative,
            copy_wire: true,
        },
    ]
}

fn leg_cfg(backend: Backend, leg: &WireLeg) -> Config {
    let mut c = cfg_on(backend, leg.coalesce, leg.mode);
    if leg.copy_wire {
        c.net = c.net.with_copying_wire();
    }
    c
}

fn main() {
    let mut fig = Figure::new("fig6b_crossnode");
    model_table(&mut fig);

    let msgs: u64 = trajectory::pick(512, 64);
    header(
        "Figure 6b (real) — wire frames for small cross-node streams",
        "4 ranks / 2 nodes; frames on the internode wire, per progress mode",
    );
    println!(
        "{}",
        row(
            "config",
            &[
                "wire frames".into(),
                "coalesced".into(),
                "flushes".into(),
                "memcpy B/msg".into(),
                "ns/msg".into()
            ]
        )
    );

    let legs = wire_legs();
    let sent = (2 * msgs) as f64;
    let runs: Vec<(RuntimeStats, f64)> = legs
        .iter()
        .map(|leg| crossnode_stream(leg_cfg(Backend::Sim, leg), msgs))
        .collect();
    for (leg, (stats, ns)) in legs.iter().zip(&runs) {
        println!(
            "{}",
            row(
                leg.name,
                &[
                    format!("{}", stats.net_frames),
                    format!("{}", stats.net_coalesced),
                    format!("{}", stats.net_coalesce_flushes),
                    format!("{:.1}", stats.net_memcpy_bytes as f64 / sent),
                    format!("{ns:.0} ns"),
                ]
            )
        );
    }

    // The frame-reduction gate enrolls every coalescing leg in the list:
    // frames(baseline) / frames(leg) must clear 2× for each of them.
    let baseline: Vec<usize> = legs
        .iter()
        .enumerate()
        .filter(|(_, l)| !l.coalesce && !l.copy_wire)
        .map(|(i, _)| i)
        .collect();
    assert_eq!(
        baseline.len(),
        1,
        "exactly one plain non-coalesced baseline"
    );
    let (off, off_ns) = (&runs[baseline[0]].0, runs[baseline[0]].1);
    assert_eq!(off.net_coalesced, 0, "baseline must not coalesce");
    println!();
    for (leg, (stats, _)) in legs.iter().zip(&runs).filter(|(l, _)| l.coalesce) {
        let reduction = off.net_frames as f64 / stats.net_frames.max(1) as f64;
        println!(
            "wire frame reduction (off/{}): {}",
            leg.name,
            speedup(reduction)
        );
        assert!(
            reduction >= 2.0,
            "coalescing ({}) must at least halve wire frames: {} vs {}",
            leg.name,
            stats.net_frames,
            off.net_frames
        );
        assert!(
            stats.net_coalesced > 0,
            "{}: coalescing armed but no frames coalesced",
            leg.name
        );
    }

    let by_name = |name: &str| {
        let i = legs
            .iter()
            .position(|l| l.name == name)
            .unwrap_or_else(|| panic!("no wire leg named {name:?}"));
        (&runs[i].0, runs[i].1)
    };
    let (coop, coop_ns) = by_name("cooperative");
    let (helper, helper_ns) = by_name("helper");
    let (copying, _) = by_name("copy-wire");

    // Zero-copy headline: the pooled path pays exactly one gather copy per
    // message (user buffer → pooled jumbo); the ablation adds the classic
    // serialize copy on send and the per-subframe scatter copy on receive.
    // Both legs count actual bytes through the same telemetry, so the ratio
    // is a measured, machine-independent multiple (~3× for small messages).
    let memcpy_reduction = copying.net_memcpy_bytes as f64 / coop.net_memcpy_bytes.max(1) as f64;
    println!(
        "\nwire memcpy reduction (copy-wire/cooperative): {} \
         ({:.1} -> {:.1} B/msg)",
        speedup(memcpy_reduction),
        copying.net_memcpy_bytes as f64 / sent,
        coop.net_memcpy_bytes as f64 / sent
    );
    assert!(
        memcpy_reduction >= 2.0,
        "the pooled wire path must at least halve per-message memcpy bytes: \
         {} B copying vs {} B pooled",
        copying.net_memcpy_bytes,
        coop.net_memcpy_bytes
    );
    assert!(
        coop.net_frames_borrowed > 0,
        "zero-copy path must hand borrowed slices to the match store"
    );
    assert_eq!(
        copying.net_frames_borrowed, 0,
        "the copying ablation must not borrow"
    );

    // Failure detection armed on the same trajectory: the liveness
    // piggyback (every data frame and ACK counts as evidence) must keep
    // explicit heartbeat frames below 1% of wire traffic on a busy stream —
    // the detector is supposed to be observability, not load.
    let mut det_cfg = cfg(false, ProgressMode::Cooperative);
    det_cfg.net = det_cfg.net.with_detection(DetectPlan::default());
    let (det, _) = crossnode_stream(det_cfg, msgs);
    let hb_share = det.net_heartbeats as f64 / det.net_frames.max(1) as f64;
    println!(
        "\nheartbeat share with detection armed: {:.3}% ({} of {} frames)",
        hb_share * 100.0,
        det.net_heartbeats,
        det.net_frames
    );
    assert!(
        hb_share < 0.01,
        "failure-detector heartbeats must stay under 1% of wire frames on a \
         busy stream: {} heartbeats / {} frames",
        det.net_heartbeats,
        det.net_frames
    );
    assert_eq!(
        det.net_suspicions, 0,
        "a healthy run must not condemn peers"
    );

    // Same stream over real TCP loopback sockets: coalescing is a transport
    // optimization, so its frame reduction must survive the backend swap —
    // the jumbos now cross actual socket writes, and the telemetry counts
    // the same wire frames. Acceptance floor is the same 2×.
    let (tcp_off, tcp_off_ns) =
        crossnode_stream(cfg_on(Backend::Tcp, false, ProgressMode::Cooperative), msgs);
    let (tcp_coop, tcp_coop_ns) =
        crossnode_stream(cfg_on(Backend::Tcp, true, ProgressMode::Cooperative), msgs);
    let tcp_reduction = tcp_off.net_frames as f64 / tcp_coop.net_frames.max(1) as f64;
    println!(
        "\nwire frame reduction over TCP (off/cooperative): {} \
         ({} -> {} frames, {:.0} -> {:.0} ns/msg)",
        speedup(tcp_reduction),
        tcp_off.net_frames,
        tcp_coop.net_frames,
        tcp_off_ns,
        tcp_coop_ns
    );
    assert!(
        tcp_reduction >= 2.0,
        "coalescing must at least halve wire frames over the TCP backend: {} vs {}",
        tcp_coop.net_frames,
        tcp_off.net_frames
    );

    // A receive miss flushes only the polling rank's own output. A rank
    // that blocks in a receive while its node-mate streams must not break
    // the mate's jumbos into near-single-subframe flushes: gate the skewed
    // stream's frame reduction at 4x on both backends (flushing the whole
    // node on every miss read 1.0-3.9x in about a third of runs on a
    // 2-vCPU host; the owner rule reads 7.8x).
    let skew_msgs = msgs * 4;
    println!("\nskewed: rank 0 streams 8 B to node 1 while rank 1 blocks in recv from node 1");
    let mut skew_fpf = 0.0;
    for backend in [Backend::Sim, Backend::Tcp] {
        let skew = |coalesce: bool| {
            let mut c = cfg_on(backend, false, ProgressMode::Cooperative);
            if coalesce {
                // No age watermark: a streamer descheduled mid-batch on a
                // loaded host cannot split a batch, so only the count
                // watermark and receive misses flush.
                c = c.with_coalescing(CoalescePlan {
                    flush_ns: u64::MAX,
                    ..Default::default()
                });
            }
            let (s, ns) = skewed_stream(c, skew_msgs);
            let fpf = s.net_coalesced as f64 / s.net_coalesce_flushes.max(1) as f64;
            println!(
                "{}",
                row(
                    &format!(
                        "{backend:?} {}",
                        if coalesce { "cooperative" } else { "off" }
                    ),
                    &[
                        format!("{} frames", s.net_frames),
                        format!("{fpf:.2} subframes/flush"),
                        format!("{ns:.0} ns/msg"),
                    ]
                )
            );
            (s.net_frames, fpf)
        };
        let ((off_frames, _), (on_frames, fpf)) = (skew(false), skew(true));
        let reduction = off_frames as f64 / on_frames.max(1) as f64;
        assert!(
            reduction >= 4.0,
            "{backend:?}: a node-mate's receive misses broke up the stream's \
             jumbos: {off_frames} -> {on_frames} frames ({reduction:.2}x < 4x)"
        );
        if backend == Backend::Sim {
            skew_fpf = fpf;
        }
    }

    // A frame gate must also check time: coalescing that packs frames by
    // holding a blocked sender's output until its age watermark trips
    // passes the 2x frame gate while multiplying the round trip. Gate the
    // coalesced 8 B ping-pong median at 2x the uncoalesced one over TCP.
    // On a loaded host whole launches of either leg run slow (every round
    // trip 70-130 us, in about half the launches under a parallel `cargo
    // test`), so each leg runs LAUNCHES times, alternating, and keeps its
    // lowest median.
    const LAUNCHES: usize = 12;
    let rounds = trajectory::pick(2000, 500);
    let rtt = |coalesce: bool| {
        let mut c = Config::new(2)
            .with_ranks_per_node(1)
            .with_transport(Backend::Tcp);
        if coalesce {
            c = c.with_coalescing(CoalescePlan::default());
        }
        pingpong_median_ns(c, rounds)
    };
    let (mut rtt_off, mut rtt_on) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..LAUNCHES {
        rtt_off = rtt_off.min(rtt(false));
        rtt_on = rtt_on.min(rtt(true));
    }
    let rtt_ratio = rtt_on / rtt_off;
    println!(
        "\n8 B ping-pong over TCP, lowest of {LAUNCHES} medians of {rounds}: \
         coalescing off {:.1} us, on {:.1} us ({rtt_ratio:.2}x)",
        rtt_off / 1e3,
        rtt_on / 1e3
    );
    assert!(
        rtt_ratio <= 2.0,
        "coalescing must not hold a blocked sender's output: 8 B round trip \
         {:.1} us coalesced vs {:.1} us uncoalesced over TCP",
        rtt_on / 1e3,
        rtt_off / 1e3
    );

    // The frame counts are watermark-driven (count watermark = 8 subframes
    // per jumbo for back-to-back streams) and the memcpy counts are exact
    // byte tallies, so the reductions are stable, machine-independent
    // ratios bench_compare can police.
    fig.ratio(
        "wire_frame_reduction_small",
        off.net_frames as f64 / coop.net_frames.max(1) as f64,
    );
    fig.ratio("wire_frame_reduction_small_tcp", tcp_reduction);
    fig.ratio("wire_memcpy_reduction_small", memcpy_reduction);
    fig.raw("pure_crossnode_tcp_rtt_8B_off_ns", rtt_off);
    fig.raw("pure_crossnode_tcp_rtt_8B_coalesced_ns", rtt_on);
    fig.raw("pure_crossnode_off_ns_per_msg", off_ns);
    fig.raw("pure_crossnode_coalesced_ns_per_msg", coop_ns);
    fig.raw("pure_crossnode_helper_ns_per_msg", helper_ns);
    fig.raw(
        "pure_crossnode_memcpy_bytes_per_msg",
        coop.net_memcpy_bytes as f64 / sent,
    );
    fig.raw(
        "pure_crossnode_copywire_memcpy_bytes_per_msg",
        copying.net_memcpy_bytes as f64 / sent,
    );
    fig.telemetry(
        "frames_per_flush",
        coop.net_coalesced as f64 / coop.net_coalesce_flushes.max(1) as f64,
    );
    fig.telemetry("skewed_frames_per_flush", skew_fpf);
    fig.telemetry("cooperative_progress_polls", coop.net_progress_polls as f64);
    fig.telemetry("helper_progress_polls", helper.net_progress_polls as f64);
    fig.telemetry("detect_heartbeat_share", hb_share);

    if trajectory::emit_requested() {
        fig.write();
    }
}
