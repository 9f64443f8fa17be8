//! The reference-trace binary format.
//!
//! A [`RefTrace`] is self-contained: machine essentials (nodes, frames,
//! page size), the allocation-zone sequence (so replay reproduces the
//! virtual-address layout without the application), and one totally
//! ordered op list per phase. Serialization is a hand-rolled LEB128
//! varint encoding — compact, dependency-free, endian-independent.

use std::io::{self, Read, Write};

use numa_machine::MachineConfig;

/// Magic bytes opening every trace file.
pub(crate) const MAGIC: &[u8; 4] = b"PLRT";
/// Format version written and accepted by this build.
pub(crate) const VERSION: u32 = 1;

/// One recorded memory operation. Virtual addresses are the application's
/// own; word counts parameterize block transfers; `AdvanceDep`/`AdvanceAbs`
/// encode synchronization release edges (see the crate docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// The processor attached to the kernel (virtual clock at 0).
    Attach,
    /// The processor detached; its clock and counters were collected.
    Detach,
    /// A charged 32-bit read.
    Read {
        /// Virtual address.
        va: u64,
    },
    /// A charged 32-bit write.
    Write {
        /// Virtual address.
        va: u64,
    },
    /// An uncharged spin read (one recorded op per loop iteration — the
    /// interleaving of spin reads is protocol-relevant).
    ReadSpin {
        /// Virtual address.
        va: u64,
    },
    /// An atomic read-modify-write (fetch-add, compare-exchange and swap
    /// charge identically, so one kind covers all three).
    Atomic {
        /// Virtual address.
        va: u64,
    },
    /// A batched block read of `words` consecutive words.
    ReadBlock {
        /// Starting virtual address.
        va: u64,
        /// Word count.
        words: u64,
    },
    /// A batched block write of `words` consecutive words.
    WriteBlock {
        /// Starting virtual address.
        va: u64,
        /// Word count.
        words: u64,
    },
    /// `ns` nanoseconds of modelled computation.
    Compute {
        /// Nanoseconds charged.
        ns: u64,
    },
    /// `advance_to` whose target time was produced by the op at global
    /// sequence number `seq`: replay advances to *that op's replayed*
    /// post-time, propagating the replay policy's timing through the
    /// synchronization graph.
    AdvanceDep {
        /// Global sequence number of the producing op within the phase.
        seq: u64,
    },
    /// `advance_to` an absolute time (no producing op is named).
    AdvanceAbs {
        /// Target time, ns.
        t: u64,
    },
    /// A `poll` kernel entry (IPI service + defrost opportunity).
    Poll,
    /// Entering a spin wait (clock freezes).
    BeginWait,
    /// Leaving a spin wait.
    EndWait,
    /// Synchronization instrumentation: lock acquired/released at `va`.
    TraceLock {
        /// The lock word's virtual address.
        va: u64,
        /// `true` = acquire, `false` = release.
        acquire: bool,
    },
}

/// One op with the processor that executed it. The position within the
/// phase's `ops` vector is the op's global sequence number.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rec {
    /// Executing processor.
    pub proc: u8,
    /// The operation.
    pub op: Op,
}

/// One phase: an `n`-worker parallel region of the traced program
/// (attach → ops → detach per worker).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Phase {
    /// Human-readable phase label ("init", "measured", ...).
    pub label: String,
    /// Worker (processor) count.
    pub workers: usize,
    /// Each worker's final virtual time as the trace's producer reports
    /// it, ns. Replay neither reads nor checks them; a synthesised trace
    /// has no run whose clocks these could be and writes zeros.
    pub final_vtimes: Vec<u64>,
    /// The totally ordered op stream.
    pub ops: Vec<Rec>,
}

/// A complete trace: machine shape, allocation layout, phases.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RefTrace {
    /// Nodes (processor + memory module pairs) of the machine replay
    /// boots.
    pub nodes: usize,
    /// Physical frames per memory module.
    pub frames_per_node: usize,
    /// Page size, log2 bytes.
    pub page_shift: u32,
    /// Page counts of the `alloc_zone` calls, in order — replaying the
    /// sequence reproduces the virtual-address layout exactly.
    pub zones: Vec<u64>,
    /// The phases, in execution order. The last phase is the
    /// measured region by harness convention.
    pub phases: Vec<Phase>,
}

impl RefTrace {
    /// Total op count across phases.
    pub fn total_ops(&self) -> usize {
        self.phases.iter().map(|p| p.ops.len()).sum()
    }

    /// Serializes to `w`.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(MAGIC)?;
        put_u64(w, u64::from(VERSION))?;
        put_u64(w, self.nodes as u64)?;
        put_u64(w, self.frames_per_node as u64)?;
        put_u64(w, u64::from(self.page_shift))?;
        put_u64(w, self.zones.len() as u64)?;
        for &z in &self.zones {
            put_u64(w, z)?;
        }
        put_u64(w, self.phases.len() as u64)?;
        for phase in &self.phases {
            put_u64(w, phase.label.len() as u64)?;
            w.write_all(phase.label.as_bytes())?;
            put_u64(w, phase.workers as u64)?;
            for &v in &phase.final_vtimes {
                put_u64(w, v)?;
            }
            put_u64(w, phase.ops.len() as u64)?;
            for rec in &phase.ops {
                put_rec(w, rec)?;
            }
        }
        Ok(())
    }

    /// Deserializes from `r`, validating magic, version, and that every
    /// phase is replayable: a trace that decodes never hangs or crashes
    /// [`replay`](crate::replay::replay).
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Self> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(bad("not a reference trace (bad magic)"));
        }
        let version = get_u64(r)?;
        if version != u64::from(VERSION) {
            return Err(bad(&format!("unsupported trace version {version}")));
        }
        let nodes = usize::try_from(get_u64(r)?).map_err(|_| bad("node count overflows usize"))?;
        let frames_per_node =
            usize::try_from(get_u64(r)?).map_err(|_| bad("frame count overflows usize"))?;
        let page_shift = u32::try_from(get_u64(r)?).map_err(|_| bad("page shift overflows u32"))?;
        // Replay boots exactly this machine: refuse one it cannot build.
        MachineConfig {
            nodes,
            frames_per_node,
            page_shift,
            ..MachineConfig::default()
        }
        .validate()
        .map_err(|e| bad(&format!("unbootable machine: {e}")))?;
        let nzones = get_u64(r)? as usize;
        let mut zones = Vec::with_capacity(nzones.min(1 << 20));
        for _ in 0..nzones {
            zones.push(get_u64(r)?);
        }
        let nphases = get_u64(r)? as usize;
        let mut phases = Vec::with_capacity(nphases.min(1 << 10));
        for _ in 0..nphases {
            let label_len = get_u64(r)? as usize;
            if label_len > 1 << 16 {
                return Err(bad("phase label too long"));
            }
            let mut label = vec![0u8; label_len];
            r.read_exact(&mut label)?;
            let label = String::from_utf8(label).map_err(|_| bad("phase label is not UTF-8"))?;
            let workers = get_u64(r)? as usize;
            if workers > 64 {
                return Err(bad("worker count exceeds the 64-processor limit"));
            }
            if workers > nodes {
                return Err(bad(&format!(
                    "phase has {workers} workers on a {nodes}-node machine"
                )));
            }
            let mut final_vtimes = Vec::with_capacity(workers);
            for _ in 0..workers {
                final_vtimes.push(get_u64(r)?);
            }
            let nops = get_u64(r)? as usize;
            let mut ops = Vec::with_capacity(nops.min(1 << 24));
            for _ in 0..nops {
                ops.push(get_rec(r)?);
            }
            let phase = Phase {
                label,
                workers,
                final_vtimes,
                ops,
            };
            check_replayable(&phase)?;
            phases.push(phase);
        }
        Ok(Self {
            nodes,
            frames_per_node,
            page_shift,
            zones,
            phases,
        })
    }
}

/// Rejects a phase the replayer cannot execute: every op must run on a
/// processor below the worker count and inside that processor's single
/// `Attach`…`Detach` bracket, every worker must have its bracket, and an
/// `AdvanceDep` must name an earlier op (whose post-time then exists).
fn check_replayable(ph: &Phase) -> io::Result<()> {
    #[derive(Clone, Copy, PartialEq)]
    enum Worker {
        Unattached,
        Attached,
        Detached,
    }
    let err = |i: usize, what: &str| bad(&format!("phase {:?}, op {i}: {what}", ph.label));
    let mut state = vec![Worker::Unattached; ph.workers];
    for (i, rec) in ph.ops.iter().enumerate() {
        let Some(st) = state.get_mut(usize::from(rec.proc)) else {
            return Err(err(i, "processor index is not below the worker count"));
        };
        match (rec.op, *st) {
            (Op::Attach, Worker::Unattached) => *st = Worker::Attached,
            (Op::Attach, _) => return Err(err(i, "processor attaches twice")),
            (Op::Detach, Worker::Attached) => *st = Worker::Detached,
            (Op::AdvanceDep { seq }, Worker::Attached) if seq >= i as u64 => {
                return Err(err(i, "AdvanceDep does not name an earlier op"));
            }
            (_, Worker::Attached) => {}
            (_, _) => return Err(err(i, "op outside the processor's Attach..Detach")),
        }
    }
    if state.iter().any(|&st| st != Worker::Detached) {
        return Err(err(ph.ops.len(), "a worker has no complete Attach..Detach"));
    }
    Ok(())
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// LEB128 unsigned varint.
fn put_u64<W: Write>(w: &mut W, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

fn get_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        if shift >= 63 && byte[0] > 1 {
            return Err(bad("varint overflows u64"));
        }
        v |= u64::from(byte[0] & 0x7f) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

// Op tags (one byte each; TraceLock folds `acquire` into the tag).
const T_ATTACH: u8 = 0;
const T_DETACH: u8 = 1;
const T_READ: u8 = 2;
const T_WRITE: u8 = 3;
const T_READ_SPIN: u8 = 4;
const T_ATOMIC: u8 = 5;
const T_READ_BLOCK: u8 = 6;
const T_WRITE_BLOCK: u8 = 7;
const T_COMPUTE: u8 = 8;
const T_ADVANCE_DEP: u8 = 9;
const T_ADVANCE_ABS: u8 = 10;
// 11 stays unused: taking it would give old encodings a new meaning.
const T_POLL: u8 = 12;
const T_BEGIN_WAIT: u8 = 13;
const T_END_WAIT: u8 = 14;
const T_LOCK_ACQUIRE: u8 = 15;
const T_LOCK_RELEASE: u8 = 16;

fn put_rec<W: Write>(w: &mut W, rec: &Rec) -> io::Result<()> {
    let (tag, a, b): (u8, Option<u64>, Option<u64>) = match rec.op {
        Op::Attach => (T_ATTACH, None, None),
        Op::Detach => (T_DETACH, None, None),
        Op::Read { va } => (T_READ, Some(va), None),
        Op::Write { va } => (T_WRITE, Some(va), None),
        Op::ReadSpin { va } => (T_READ_SPIN, Some(va), None),
        Op::Atomic { va } => (T_ATOMIC, Some(va), None),
        Op::ReadBlock { va, words } => (T_READ_BLOCK, Some(va), Some(words)),
        Op::WriteBlock { va, words } => (T_WRITE_BLOCK, Some(va), Some(words)),
        Op::Compute { ns } => (T_COMPUTE, Some(ns), None),
        Op::AdvanceDep { seq } => (T_ADVANCE_DEP, Some(seq), None),
        Op::AdvanceAbs { t } => (T_ADVANCE_ABS, Some(t), None),
        Op::Poll => (T_POLL, None, None),
        Op::BeginWait => (T_BEGIN_WAIT, None, None),
        Op::EndWait => (T_END_WAIT, None, None),
        Op::TraceLock { va, acquire: true } => (T_LOCK_ACQUIRE, Some(va), None),
        Op::TraceLock { va, acquire: false } => (T_LOCK_RELEASE, Some(va), None),
    };
    w.write_all(&[tag, rec.proc])?;
    if let Some(a) = a {
        put_u64(w, a)?;
    }
    if let Some(b) = b {
        put_u64(w, b)?;
    }
    Ok(())
}

fn get_rec<R: Read>(r: &mut R) -> io::Result<Rec> {
    let mut head = [0u8; 2];
    r.read_exact(&mut head)?;
    let [tag, proc] = head;
    let op = match tag {
        T_ATTACH => Op::Attach,
        T_DETACH => Op::Detach,
        T_READ => Op::Read { va: get_u64(r)? },
        T_WRITE => Op::Write { va: get_u64(r)? },
        T_READ_SPIN => Op::ReadSpin { va: get_u64(r)? },
        T_ATOMIC => Op::Atomic { va: get_u64(r)? },
        T_READ_BLOCK => Op::ReadBlock {
            va: get_u64(r)?,
            words: get_u64(r)?,
        },
        T_WRITE_BLOCK => Op::WriteBlock {
            va: get_u64(r)?,
            words: get_u64(r)?,
        },
        T_COMPUTE => Op::Compute { ns: get_u64(r)? },
        T_ADVANCE_DEP => Op::AdvanceDep { seq: get_u64(r)? },
        T_ADVANCE_ABS => Op::AdvanceAbs { t: get_u64(r)? },
        T_POLL => Op::Poll,
        T_BEGIN_WAIT => Op::BeginWait,
        T_END_WAIT => Op::EndWait,
        T_LOCK_ACQUIRE => Op::TraceLock {
            va: get_u64(r)?,
            acquire: true,
        },
        T_LOCK_RELEASE => Op::TraceLock {
            va: get_u64(r)?,
            acquire: false,
        },
        other => return Err(bad(&format!("unknown op tag {other}"))),
    };
    Ok(Rec { proc, op })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RefTrace {
        RefTrace {
            nodes: 4,
            frames_per_node: 4096,
            page_shift: 12,
            zones: vec![3, 1, 17],
            phases: vec![
                Phase {
                    label: "init".into(),
                    workers: 2,
                    final_vtimes: vec![12_345, u64::MAX - 1],
                    ops: vec![
                        Rec {
                            proc: 0,
                            op: Op::Attach,
                        },
                        Rec {
                            proc: 1,
                            op: Op::Attach,
                        },
                        Rec {
                            proc: 0,
                            op: Op::Write { va: 0x1000 },
                        },
                        Rec {
                            proc: 1,
                            op: Op::ReadBlock {
                                va: 0x2000,
                                words: 1024,
                            },
                        },
                        Rec {
                            proc: 0,
                            op: Op::TraceLock {
                                va: 0x44,
                                acquire: true,
                            },
                        },
                        Rec {
                            proc: 0,
                            op: Op::AdvanceDep { seq: 2 },
                        },
                        Rec {
                            proc: 1,
                            op: Op::AdvanceAbs { t: 99_999 },
                        },
                        Rec {
                            proc: 0,
                            op: Op::Detach,
                        },
                        Rec {
                            proc: 1,
                            op: Op::Detach,
                        },
                    ],
                },
                Phase {
                    label: "measured".into(),
                    workers: 1,
                    final_vtimes: vec![7],
                    ops: vec![
                        Rec {
                            proc: 0,
                            op: Op::Attach,
                        },
                        Rec {
                            proc: 0,
                            op: Op::Compute { ns: 1 << 40 },
                        },
                        Rec {
                            proc: 0,
                            op: Op::Detach,
                        },
                    ],
                },
            ],
        }
    }

    #[test]
    fn round_trips_bytes() {
        let t = sample();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let back = RefTrace::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let t = sample();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        buf[0] = b'X';
        assert!(RefTrace::read_from(&mut buf.as_slice()).is_err());
        let mut buf2 = Vec::new();
        t.write_to(&mut buf2).unwrap();
        buf2[4] = 99; // version varint
        assert!(RefTrace::read_from(&mut buf2.as_slice()).is_err());
    }

    /// Each edit makes the sample a trace the replayer cannot execute;
    /// decoding must refuse all of them.
    #[test]
    fn rejects_unreplayable_phases() {
        /// Applies `edit` to the sample's first phase and returns the
        /// decoder's complaint about the result.
        fn complaint(edit: impl FnOnce(&mut Vec<Rec>)) -> String {
            let mut t = sample();
            edit(&mut t.phases[0].ops);
            let mut buf = Vec::new();
            t.write_to(&mut buf).unwrap();
            let e = RefTrace::read_from(&mut buf.as_slice()).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            e.to_string()
        }
        let has = |msg: String, want: &str| assert!(msg.contains(want), "{want:?} not in {msg}");
        has(complaint(|ops| ops[2].proc = 2), "processor index");
        has(
            complaint(|ops| ops[5].op = Op::AdvanceDep { seq: 5 }),
            "AdvanceDep",
        );
        has(
            complaint(|ops| ops[5].op = Op::AdvanceDep { seq: 1 << 40 }),
            "AdvanceDep",
        );
        has(complaint(|ops| ops.swap(0, 2)), "outside");
        has(complaint(|ops| ops.swap(6, 8)), "outside");
        has(complaint(|ops| ops[2].op = Op::Attach), "attaches twice");
        has(complaint(|ops| ops.truncate(8)), "no complete");
        // A second bracket for an already detached processor.
        let again = |proc| [Op::Attach, Op::Detach].map(|op| Rec { proc, op });
        has(complaint(|ops| ops.extend(again(1))), "attaches twice");
    }

    /// Each header names a machine replay cannot boot, or one too small
    /// for the sample's 2-worker phase; decoding must refuse all of them
    /// rather than hand replay a trace that panics.
    #[test]
    fn rejects_unbootable_headers() {
        /// The sample's encoding under another header; the fields are
        /// written as the varints they are on disk, so a value no `u32`
        /// holds can be expressed.
        fn with_header(nodes: u64, frames_per_node: u64, page_shift: u64) -> Vec<u8> {
            let mut body = Vec::new();
            sample().write_to(&mut body).unwrap();
            let mut buf = MAGIC.to_vec();
            for v in [u64::from(VERSION), nodes, frames_per_node, page_shift] {
                put_u64(&mut buf, v).unwrap();
            }
            // The sample's own header: magic, version 1, 4 nodes, 4096
            // frames (two varint bytes), page shift 12.
            buf.extend_from_slice(&body[9..]);
            buf
        }
        let decode = |buf: Vec<u8>| RefTrace::read_from(&mut buf.as_slice());
        assert_eq!(decode(with_header(4, 4096, 12)).unwrap(), sample());
        for (buf, want) in [
            (with_header(1, 4096, 12), "2 workers on a 1-node machine"),
            (with_header(4, 4096, 2), "page_shift"),
            (with_header(4, 0, 12), "frames_per_node"),
            (
                with_header(4, 4096, (1 << 32) + 12),
                "page shift overflows u32",
            ),
        ] {
            let e = decode(buf).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            assert!(e.to_string().contains(want), "{want:?} not in {e}");
        }
    }

    #[test]
    fn varint_extremes() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            put_u64(&mut buf, v).unwrap();
            assert_eq!(get_u64(&mut buf.as_slice()).unwrap(), v);
        }
    }

    #[test]
    fn truncated_input_errors() {
        let t = sample();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(RefTrace::read_from(&mut buf.as_slice()).is_err());
    }
}
