//! The closed-loop operation mix, written once against [`Communicator`] so
//! the same code drives the Pure runtime and the MPI-style baseline.
//!
//! Every phase runs on exactly two ranks. Inputs come from the workload
//! seed; every received payload and every reduction result is checked
//! against its seed-derived expectation, and the op ids that fail a check
//! are returned (a check never panics, so one bad op does not hide others).

use std::time::Instant;

use miniapps::comd::{run_comd, ComdParams, ComdResult};
use pure_core::{Communicator, ReduceOp};

use crate::trace::Recorder;

/// Words in a 64 KiB payload.
pub const WORDS_64K: usize = 64 * 1024 / 8;
/// Distinct 64 KiB input buffers per run (ops cycle through them).
const VARIANTS: usize = 4;

/// One phase of the mix; each phase runs in a launch of its own, so the
/// runtime's counters in its `LaunchReport` belong to that phase alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// 8 B ping-pong.
    Rtt8,
    /// 64 KiB ping-pong.
    Rtt64k,
    /// One-way stream of 8 B messages, acknowledged once per window.
    Stream,
    /// 8 B allreduce.
    Ar8,
    /// 64 KiB allreduce.
    Ar64k,
    /// CoMD time-to-solution.
    Comd,
}

impl Phase {
    /// Every phase, in the order a round runs them.
    pub const ALL: [Phase; 6] = [
        Phase::Rtt8,
        Phase::Rtt64k,
        Phase::Stream,
        Phase::Ar8,
        Phase::Ar64k,
        Phase::Comd,
    ];

    /// Short name used in span names and failure causes.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Rtt8 => "rtt_8B",
            Phase::Rtt64k => "rtt_64KiB",
            Phase::Stream => "stream_8B",
            Phase::Ar8 => "allreduce_8B",
            Phase::Ar64k => "allreduce_64KiB",
            Phase::Comd => "comd",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Phase::Rtt8 => "phase.rtt_8B",
            Phase::Rtt64k => "phase.rtt_64KiB",
            Phase::Stream => "phase.stream_8B",
            Phase::Ar8 => "phase.allreduce_8B",
            Phase::Ar64k => "phase.allreduce_64KiB",
            Phase::Comd => "phase.comd",
        }
    }

    fn salt(self) -> u64 {
        (self as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407)
    }

    /// User tag of the phase's messages (each phase has its own FIFO).
    fn tag(self) -> u32 {
        self as u32 + 1
    }
}

/// Tag of the stream's per-window acknowledgement.
const TAG_ACK: u32 = 64;

/// Untimed (but checked) ops at the start of every p2p and collective
/// launch.
pub const WARM: usize = 100;
/// Messages per stream window.
pub const WINDOW: usize = 1000;

/// Op counts of one launch of each phase.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Timed 8 B round trips.
    pub rtt8: usize,
    /// Timed 64 KiB round trips.
    pub rtt64k: usize,
    /// Timed stream windows.
    pub windows: usize,
    /// Timed 8 B allreduces.
    pub ar8: usize,
    /// Timed 64 KiB allreduces.
    pub ar64k: usize,
    /// CoMD parameters (the seed is replaced by the workload seed).
    pub comd: ComdParams,
    /// Route CoMD's force sweep through stealable tasks.
    pub comd_tasks: bool,
}

impl Plan {
    /// Ops one launch of `phase` attempts (warm-up included: it is checked
    /// too). A stream message, a round trip, an allreduce and a CoMD run
    /// each count as one op.
    pub fn ops(&self, phase: Phase) -> u64 {
        let n = match phase {
            Phase::Rtt8 => WARM + self.rtt8,
            Phase::Rtt64k => WARM + self.rtt64k,
            Phase::Stream => (1 + self.windows) * WINDOW,
            Phase::Ar8 => WARM + self.ar8,
            Phase::Ar64k => WARM + self.ar64k,
            Phase::Comd => 1,
        };
        n as u64
    }
}

/// SplitMix64 finalizer.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Everything a run sends, derived from the workload seed before timing.
pub struct Inputs {
    seed: u64,
    /// 64 KiB p2p payload variants (word 0 is overwritten by the op stamp).
    big: Vec<Vec<u64>>,
    /// Per rank, 64 KiB allreduce input variants.
    ar_in: [Vec<Vec<u64>>; 2],
    /// Element-wise wrapping sum of the two ranks' variants.
    ar_sum: Vec<Vec<u64>>,
    /// CoMD parameters with the seeded initial state.
    pub comd: ComdParams,
}

impl Inputs {
    /// Derive the inputs of a run from `seed`.
    pub fn new(seed: u64, comd: ComdParams) -> Self {
        let block = |salt: u64, v: usize| -> Vec<u64> {
            (0..WORDS_64K)
                .map(|j| mix64(seed ^ salt ^ ((v * WORDS_64K + j) as u64) << 3))
                .collect()
        };
        let big: Vec<Vec<u64>> = (0..VARIANTS).map(|v| block(0x51, v)).collect();
        let ar_in = [
            (0..VARIANTS).map(|v| block(0x52, v)).collect::<Vec<_>>(),
            (0..VARIANTS).map(|v| block(0x53, v)).collect::<Vec<_>>(),
        ];
        let ar_sum = (0..VARIANTS)
            .map(|v| {
                ar_in[0][v]
                    .iter()
                    .zip(&ar_in[1][v])
                    .map(|(a, b)| a.wrapping_add(*b))
                    .collect()
            })
            .collect();
        Self {
            seed,
            big,
            ar_in,
            ar_sum,
            comd: ComdParams {
                seed: mix64(seed ^ 0xC0D),
                ..comd
            },
        }
    }

    /// The seed-derived word identifying op `op` of `phase` on `lane`.
    fn stamp(&self, phase: Phase, op: u64, lane: u64) -> u64 {
        mix64(self.seed ^ phase.salt() ^ op.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ lane)
    }
}

/// What one rank brings back from one launch of one phase.
#[derive(Default)]
pub struct PhaseOut {
    /// Timed samples: ns per op (round trip, CoMD run) or messages per
    /// second per window (stream).
    pub samples: Vec<f64>,
    /// Collectives: (entry, exit) of every timed op, in ns since the
    /// run's epoch; see [`collective_latencies`].
    pub stamps: Vec<(u64, u64)>,
    /// Ids of ops whose output failed its check on this rank.
    pub bad: Vec<u64>,
    /// The CoMD result of a CoMD launch.
    pub comd: Option<ComdResult>,
}

/// Run one launch's worth of `phase` on this rank.
pub fn run_phase<C: Communicator>(
    comm: &C,
    phase: Phase,
    plan: &Plan,
    inp: &Inputs,
    rec: &mut Recorder,
    parent: u64,
) -> PhaseOut {
    assert_eq!(comm.size(), 2, "every workload runs exactly two ranks");
    let span = rec.begin(phase.span(), parent, 0);
    let parent = span.id();
    let out = match phase {
        Phase::Rtt8 => pingpong(comm, phase, plan.rtt8, 1, inp, rec, parent),
        Phase::Rtt64k => pingpong(comm, phase, plan.rtt64k, WORDS_64K, inp, rec, parent),
        Phase::Stream => stream(comm, plan.windows, inp, rec, parent),
        Phase::Ar8 => allreduce(comm, phase, plan.ar8, 1, inp, rec, parent),
        Phase::Ar64k => allreduce(comm, phase, plan.ar64k, WORDS_64K, inp, rec, parent),
        Phase::Comd => comd(comm, plan, inp, rec, parent),
    };
    rec.end(span);
    out
}

fn span_names(phase: Phase) -> (&'static str, &'static str) {
    match phase {
        Phase::Rtt8 => ("msg.send.8B", "msg.recv.8B"),
        Phase::Rtt64k => ("msg.send.64KiB", "msg.recv.64KiB"),
        Phase::Stream => ("msg.send.stream", "msg.recv.stream"),
        Phase::Ar8 => ("collectives.allreduce.8B", ""),
        Phase::Ar64k => ("collectives.allreduce.64KiB", ""),
        Phase::Comd => ("comd.run_comd", ""),
    }
}

/// Rank 0 sends, rank 1 echoes the bytes it got; both check what they
/// received against the op's seeded payload after the op's clock stopped.
#[allow(clippy::too_many_arguments)]
fn pingpong<C: Communicator>(
    comm: &C,
    phase: Phase,
    n: usize,
    words: usize,
    inp: &Inputs,
    rec: &mut Recorder,
    parent: u64,
) -> PhaseOut {
    let (send_name, recv_name) = span_names(phase);
    let tag = phase.tag();
    let me = comm.rank();
    let mut bufs: Vec<Vec<u64>> = inp.big.iter().map(|b| b[..words].to_vec()).collect();
    let mut got = vec![0u64; words];
    let mut out = PhaseOut {
        samples: Vec::with_capacity(n),
        ..PhaseOut::default()
    };
    for i in 0..WARM + n {
        let op = i as u64;
        let v = i % VARIANTS;
        let stamp = inp.stamp(phase, op, 0);
        if me == 0 {
            bufs[v][0] = stamp;
            let t0 = Instant::now();
            let s = rec.begin(send_name, parent, op);
            comm.send(&bufs[v], 1, tag);
            rec.end(s);
            let r = rec.begin(recv_name, parent, op);
            comm.recv(&mut got, 1, tag);
            rec.end(r);
            let dt = t0.elapsed();
            if i >= WARM {
                out.samples.push(dt.as_nanos() as f64);
            }
        } else {
            let r = rec.begin(recv_name, parent, op);
            comm.recv(&mut got, 0, tag);
            rec.end(r);
            let s = rec.begin(send_name, parent, op);
            comm.send(&got, 0, tag);
            rec.end(s);
        }
        if got[0] != stamp || got[1..] != inp.big[v][1..words] {
            out.bad.push(op);
        }
    }
    out
}

/// Rank 0 streams [`WINDOW`] 8 B messages per window and waits for one
/// acknowledgement; rank 1 checks every message's content, which also
/// checks per-(src, tag) FIFO order since each stamp names its position.
fn stream<C: Communicator>(
    comm: &C,
    windows: usize,
    inp: &Inputs,
    rec: &mut Recorder,
    parent: u64,
) -> PhaseOut {
    let phase = Phase::Stream;
    let (send_name, recv_name) = span_names(phase);
    let tag = phase.tag();
    let me = comm.rank();
    let mut out = PhaseOut {
        samples: Vec::with_capacity(windows),
        ..PhaseOut::default()
    };
    // Window 0 is the warm-up.
    for w in 0..=windows {
        let base = (w * WINDOW) as u64;
        let ack_stamp = inp.stamp(phase, w as u64, 1);
        let mut ack = [0u64];
        if me == 0 {
            let t0 = Instant::now();
            for j in 0..WINDOW as u64 {
                let msg = [inp.stamp(phase, base + j, 0)];
                let s = rec.begin(send_name, parent, base + j);
                comm.send(&msg, 1, tag);
                rec.end(s);
            }
            comm.recv(&mut ack, 1, TAG_ACK);
            let dt = t0.elapsed();
            if w > 0 {
                out.samples.push(WINDOW as f64 / dt.as_secs_f64());
            }
            if ack[0] != ack_stamp {
                out.bad.push(base + WINDOW as u64 - 1);
            }
        } else {
            let mut got = [0u64];
            for j in 0..WINDOW as u64 {
                let r = rec.begin(recv_name, parent, base + j);
                comm.recv(&mut got, 0, tag);
                rec.end(r);
                if got[0] != inp.stamp(phase, base + j, 0) {
                    out.bad.push(base + j);
                }
            }
            ack[0] = ack_stamp;
            comm.send(&ack, 0, TAG_ACK);
        }
    }
    out
}

/// Latency of each collective op from the moment the last rank entered it
/// to the moment the last rank left it, from every rank's (entry, exit)
/// stamps. Timing one rank alone would charge it the partner's lag: in a
/// back-to-back loop one rank then alternates between ops whose partner
/// value is already there and ops that wait a whole wire latency, and a
/// median over such a two-humped distribution jumps between the humps.
pub fn collective_latencies(ranks: &[&[(u64, u64)]]) -> Vec<f64> {
    let n = ranks.iter().map(|r| r.len()).min().unwrap_or(0);
    (0..n)
        .map(|i| {
            let entry = ranks.iter().map(|r| r[i].0).max().unwrap_or(0);
            let exit = ranks.iter().map(|r| r[i].1).max().unwrap_or(0);
            exit.saturating_sub(entry) as f64
        })
        .collect()
}

/// Back-to-back allreduces; each rank stamps its entry and exit and checks
/// the result against the closed-form sum of both ranks' seeded inputs.
#[allow(clippy::too_many_arguments)]
fn allreduce<C: Communicator>(
    comm: &C,
    phase: Phase,
    n: usize,
    words: usize,
    inp: &Inputs,
    rec: &mut Recorder,
    parent: u64,
) -> PhaseOut {
    let (name, _) = span_names(phase);
    let me = comm.rank();
    let mut ins: Vec<Vec<u64>> = inp.ar_in[me].iter().map(|b| b[..words].to_vec()).collect();
    let mut res = vec![0u64; words];
    let epoch = rec.epoch();
    let since = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    let mut out = PhaseOut {
        stamps: Vec::with_capacity(n),
        ..PhaseOut::default()
    };
    for i in 0..WARM + n {
        let op = i as u64;
        let v = i % VARIANTS;
        ins[v][0] = inp.stamp(phase, op, me as u64);
        let t0 = Instant::now();
        let s = rec.begin(name, parent, op);
        comm.allreduce(&ins[v], &mut res, ReduceOp::Sum);
        rec.end(s);
        let t1 = Instant::now();
        if i >= WARM {
            out.stamps.push((since(t0), since(t1)));
        }
        let want0 = inp
            .stamp(phase, op, 0)
            .wrapping_add(inp.stamp(phase, op, 1));
        if res[0] != want0 || res[1..] != inp.ar_sum[v][1..words] {
            out.bad.push(op);
        }
    }
    out
}

/// One CoMD run, timed between barriers on rank 0. The result is checked
/// against the reference run by the caller.
fn comd<C: Communicator>(
    comm: &C,
    plan: &Plan,
    inp: &Inputs,
    rec: &mut Recorder,
    parent: u64,
) -> PhaseOut {
    let (name, _) = span_names(Phase::Comd);
    comm.barrier();
    let t0 = Instant::now();
    let s = rec.begin(name, parent, 0);
    let res = run_comd(comm, &inp.comd, plan.comd_tasks);
    rec.end(s);
    comm.barrier();
    PhaseOut {
        samples: vec![t0.elapsed().as_nanos() as f64],
        comd: Some(res),
        ..PhaseOut::default()
    }
}
