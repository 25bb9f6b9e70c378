//! The lowered instruction stream the simulator executes.
//!
//! Workloads are written in the compiler IR (`ndc-ir`); lowering turns
//! each thread's iteration-space walk into a [`Trace`] of instructions
//! with concrete physical addresses. The compiler's output differs from
//! the baseline only in instruction order and in the presence of
//! [`InstKind::PreCompute`] instructions — the paper's new ISA
//! instruction that offloads an operation to a near-data compute unit.

use crate::{Addr, NodeId, Op, Pc};

/// Identifier linking a `PreCompute` to the later `Compute` that
/// consumes its result (the paper's offload-table entry tag).
pub type PrecomputeId = u32;

/// Maximum number of element-wise operations a single fused precompute
/// packet may carry. Bounded so the packet fits fixed-size arrays (and a
/// plausible NDC package format); the compiler never fuses longer
/// chains.
pub const MAX_FUSED_OPS: usize = 4;

/// An operand of a two-input computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// A value read from memory at the given address. The access walks
    /// the full L1 → NoC → L2 → NoC → MC → DRAM path as needed.
    Mem(Addr),
    /// An immediate / register value, available at issue with no memory
    /// access. Offloaded instructions with register operands transfer
    /// the value inside the NDC package (§2).
    Imm(f64),
}

impl Operand {
    pub fn addr(&self) -> Option<Addr> {
        match self {
            Operand::Mem(a) => Some(*a),
            Operand::Imm(_) => None,
        }
    }
}

/// One dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Inst {
    /// Static-instruction identity; stable across dynamic instances so
    /// per-PC predictors and Figure 5's time series can key on it.
    pub pc: Pc,
    pub kind: InstKind,
}

/// Instruction kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InstKind {
    /// A plain load (data brought to the core; fills L1).
    Load { addr: Addr },
    /// A plain store (write-allocate into L1; invalidates remote
    /// sharers).
    Store { addr: Addr },
    /// A two-operand arithmetic/logic computation performed at the core
    /// under conventional execution, or consumed from a near-data
    /// pre-computation when `precomputed` names a prior `PreCompute`
    /// that the hardware managed to execute near data.
    Compute {
        op: Op,
        a: Operand,
        b: Operand,
        /// Optional store of the result.
        store_to: Option<Addr>,
        /// Set by the compiler when a matching `PreCompute` was
        /// inserted earlier in the stream.
        precomputed: Option<PrecomputeId>,
    },
    /// The paper's new ISA instruction (§5.2.1): request that
    /// `Mem[a] op Mem[b]` be performed in a near-data component. The
    /// LD/ST unit records it in the offload table, probes the local L1
    /// (if an operand is local the offload is skipped and the
    /// computation runs at the core), and otherwise injects an NDC
    /// compute package. The result is fed back to the core (the
    /// "CPU-feed" signal); the consuming `Compute` stores it there.
    PreCompute {
        id: PrecomputeId,
        op: Op,
        a: Addr,
        b: Addr,
        /// Compiler-chosen issue stagger in cycles between the two
        /// operand requests: positive delays `b`'s request, negative
        /// delays `a`'s. This is how the code-motion of Figures 8/9
        /// manifests at the ISA level — the moved access starts earlier
        /// or later so both operands reach the target component "around
        /// the same time".
        stagger: i32,
        /// When set, the operands' NoC messages use the compiler-selected
        /// minimal routes maximizing common links (`Sx ∩ Sy`, §5.2.1)
        /// instead of plain XY routes.
        reshape_routes: bool,
    },
    /// A fused chain of 2..=[`MAX_FUSED_OPS`] element-wise operations
    /// offloaded as a single NDC package: one gather of the union
    /// operand footprint, one execution visit at the chosen component,
    /// one result feed. The packet defines `n_ops` consecutive
    /// precompute ids `id .. id + n_ops` — one per chain member in
    /// chain order — each consumed by the corresponding later
    /// `Compute`.
    ///
    /// Operand layout: `addrs[0]`/`addrs[1]` are the two gathered
    /// operands of `ops[0]` (the chain head); for each tail member
    /// `k >= 1`, `addrs[k + 1]` is its single gathered operand and its
    /// other input is the forwarded result of member `k - 1`.
    FusedPreCompute {
        /// Base id; the packet defines `id .. id + n_ops`.
        id: PrecomputeId,
        /// Chain length (2..=[`MAX_FUSED_OPS`]); only `ops[..n_ops]`
        /// and `addrs[..n_ops + 1]` are meaningful.
        n_ops: u8,
        ops: [Op; MAX_FUSED_OPS],
        addrs: [Addr; MAX_FUSED_OPS + 1],
        /// Issue stagger between the head's two operand requests, as in
        /// [`InstKind::PreCompute`]. Tail gathers issue unstaggered.
        stagger: i32,
        /// Route reshaping for the gather messages, as in
        /// [`InstKind::PreCompute`].
        reshape_routes: bool,
    },
    /// Non-memory work: occupies the core's issue slots for the given
    /// number of cycles. Lowering inserts these to model the
    /// computation between memory references, and the compiler's
    /// statement movement shifts accesses across them.
    Busy { cycles: u32 },
}

impl Inst {
    pub fn load(pc: Pc, addr: Addr) -> Self {
        Inst {
            pc,
            kind: InstKind::Load { addr },
        }
    }

    pub fn store(pc: Pc, addr: Addr) -> Self {
        Inst {
            pc,
            kind: InstKind::Store { addr },
        }
    }

    pub fn compute(pc: Pc, op: Op, a: Operand, b: Operand, store_to: Option<Addr>) -> Self {
        Inst {
            pc,
            kind: InstKind::Compute {
                op,
                a,
                b,
                store_to,
                precomputed: None,
            },
        }
    }

    pub fn busy(pc: Pc, cycles: u32) -> Self {
        Inst {
            pc,
            kind: InstKind::Busy { cycles },
        }
    }
}

// Tags of `Record::tag`, one per `InstKind` variant.
const TAG_LOAD: u8 = 0;
const TAG_STORE: u8 = 1;
const TAG_COMPUTE: u8 = 2;
const TAG_PRECOMPUTE: u8 = 3;
const TAG_FUSED: u8 = 4;
const TAG_BUSY: u8 = 5;

// Bits of `Record::flags`.
/// `Compute`'s `a` is an immediate (its word holds `f64::to_bits`).
const IMM_A: u8 = 1;
/// `Compute`'s `b` is an immediate.
const IMM_B: u8 = 2;
/// `Compute`'s `store_to` is present (its address is word 2).
const HAS_STORE: u8 = 4;
/// `Compute`'s `precomputed` is present (its id is `arg`).
const HAS_ID: u8 = 8;
/// `reshape_routes` of a precompute.
const RESHAPE: u8 = 16;
/// Word `k` holds an index into the trace's wide table, not its value,
/// when bit `WIDE << k` is set: the value needs more than 32 bits.
const WIDE: u8 = 32;

/// One instruction, packed into 24 bytes. Fields a kind does not use
/// are zero, so equal instructions pack to equal records.
///
/// | kind | `words` | `arg` | other |
/// |---|---|---|---|
/// | `Load`, `Store` | `[addr, 0, 0]` | 0 | |
/// | `Compute` | `[a, b, store_to]` | consumed id | `op`, flags |
/// | `PreCompute` | `[a, b, stagger]` | id | `op`, flags |
/// | `FusedPreCompute` | `[side-table index, stagger, 0]` | base id | `n_ops`, flags |
/// | `Busy` | 0 | cycles | |
///
/// An address or immediate that does not fit a `u32` word sits in the
/// trace's wide table, and its word holds the table index (flag
/// `WIDE << k`).
#[derive(Clone, Copy, PartialEq, Eq)]
struct Record {
    /// Addresses, immediates as `f64::to_bits`, a stagger as `i32`
    /// bits, or a side-table index.
    words: [u32; 3],
    pc: Pc,
    /// The defined id, the consumed id or the busy cycles.
    arg: u32,
    tag: u8,
    /// Index into [`Op::ALL`].
    op: u8,
    flags: u8,
    n_ops: u8,
}

const _: () = assert!(std::mem::size_of::<Record>() == 24);

/// A fused packet's ops and gathered addresses, held out of line:
/// fused packets are a fraction of a percent of a trace.
#[derive(Clone, Copy, PartialEq, Eq)]
struct FusedOperands {
    ops: [Op; MAX_FUSED_OPS],
    addrs: [Addr; MAX_FUSED_OPS + 1],
}

/// An operand's 64-bit value and its immediate flag.
#[inline]
fn operand_bits(o: Operand, imm_flag: u8) -> (u64, u8) {
    match o {
        Operand::Mem(addr) => (addr, 0),
        Operand::Imm(v) => (v.to_bits(), imm_flag),
    }
}

#[inline]
fn bits_operand(bits: u64, imm: bool) -> Operand {
    if imm {
        Operand::Imm(f64::from_bits(bits))
    } else {
        Operand::Mem(bits)
    }
}

/// A side-table index as a record word. A table gains at most three
/// entries per record, far below 2^32 for any trace that fits in
/// memory.
fn index_word(len: usize) -> u32 {
    u32::try_from(len).expect("trace side table outgrew u32 indices")
}

impl Record {
    /// The 64-bit value of word `k`.
    #[inline]
    fn value(&self, k: usize, wide: &[u64]) -> u64 {
        let w = self.words[k];
        if self.flags & (WIDE << k) != 0 {
            wide[w as usize]
        } else {
            w as u64
        }
    }

    #[inline]
    fn decode(&self, fused: &[FusedOperands], wide: &[u64]) -> Inst {
        let flag = |f: u8| self.flags & f != 0;
        let kind = match self.tag {
            TAG_LOAD => InstKind::Load {
                addr: self.value(0, wide),
            },
            TAG_STORE => InstKind::Store {
                addr: self.value(0, wide),
            },
            TAG_COMPUTE => InstKind::Compute {
                op: Op::ALL[self.op as usize],
                a: bits_operand(self.value(0, wide), flag(IMM_A)),
                b: bits_operand(self.value(1, wide), flag(IMM_B)),
                store_to: flag(HAS_STORE).then(|| self.value(2, wide)),
                precomputed: flag(HAS_ID).then_some(self.arg),
            },
            TAG_PRECOMPUTE => InstKind::PreCompute {
                id: self.arg,
                op: Op::ALL[self.op as usize],
                a: self.value(0, wide),
                b: self.value(1, wide),
                stagger: self.words[2] as i32,
                reshape_routes: flag(RESHAPE),
            },
            TAG_FUSED => {
                let packet = &fused[self.words[0] as usize];
                InstKind::FusedPreCompute {
                    id: self.arg,
                    n_ops: self.n_ops,
                    ops: packet.ops,
                    addrs: packet.addrs,
                    stagger: self.words[1] as i32,
                    reshape_routes: flag(RESHAPE),
                }
            }
            _ => InstKind::Busy { cycles: self.arg },
        };
        Inst { pc: self.pc, kind }
    }
}

/// Per-trace summaries, kept up to date by every push so that callers
/// sizing tables or counting kinds need not decode the trace.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
struct Summary {
    /// Largest pc + 1 (0 when empty).
    pc_end: u64,
    /// Largest defined precompute id + its id count (1, or `n_ops`).
    id_end: u64,
    computes: u64,
    precomputes: u64,
    precompute_ids: u64,
}

/// A trace's instructions, stored as 24-byte packed records; fused
/// packets' operands and the values too wide for a record word are
/// held out of line. [`Inst`] is the decoded view: [`Insts::push`]
/// packs one, [`Insts::get`] and [`Insts::iter`] unpack them by value.
///
/// Equality compares the packed records and side tables, so immediates
/// compare bit for bit (a NaN equals the same NaN, and `-0.0` differs
/// from `0.0`).
#[derive(Clone, Default, PartialEq)]
pub struct Insts {
    records: Vec<Record>,
    fused: Vec<FusedOperands>,
    /// Addresses of 2^32 and above, and immediates' bits, in push order.
    wide: Vec<u64>,
    summary: Summary,
}

impl Insts {
    pub fn new() -> Self {
        Insts::default()
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Reserve room for exactly `insts` more instructions, `fused` of
    /// them fused packets.
    pub fn reserve_exact(&mut self, insts: usize, fused: usize) {
        self.records.reserve_exact(insts);
        self.fused.reserve_exact(fused);
    }

    /// Hand unused capacity back to the allocator.
    pub fn shrink_to_fit(&mut self) {
        self.records.shrink_to_fit();
        self.fused.shrink_to_fit();
        self.wide.shrink_to_fit();
    }

    /// Store `value` in word `k` of `r`: in place when it fits 32 bits,
    /// else in the wide table.
    #[inline(always)]
    fn put(&mut self, r: &mut Record, k: usize, value: u64) {
        match u32::try_from(value) {
            Ok(w) => r.words[k] = w,
            Err(_) => self.put_wide(r, k, value),
        }
    }

    #[cold]
    #[inline(never)]
    fn put_wide(&mut self, r: &mut Record, k: usize, value: u64) {
        r.words[k] = index_word(self.wide.len());
        r.flags |= WIDE << k;
        self.wide.push(value);
    }

    /// Append one instruction. Always inlined: at a call site that
    /// names the kind, only that kind's packing is left.
    #[inline(always)]
    pub fn push(&mut self, inst: Inst) {
        let mut r = Record {
            words: [0; 3],
            pc: inst.pc,
            arg: 0,
            tag: TAG_BUSY,
            op: 0,
            flags: 0,
            n_ops: 0,
        };
        let s = &mut self.summary;
        s.pc_end = s.pc_end.max(inst.pc as u64 + 1);
        let reshape = |on: bool| if on { RESHAPE } else { 0 };
        match inst.kind {
            InstKind::Load { addr } => {
                r.tag = TAG_LOAD;
                self.put(&mut r, 0, addr);
            }
            InstKind::Store { addr } => {
                r.tag = TAG_STORE;
                self.put(&mut r, 0, addr);
            }
            InstKind::Compute {
                op,
                a,
                b,
                store_to,
                precomputed,
            } => {
                s.computes += 1;
                let (va, fa) = operand_bits(a, IMM_A);
                let (vb, fb) = operand_bits(b, IMM_B);
                r.tag = TAG_COMPUTE;
                r.op = op as u8;
                r.flags = fa | fb;
                self.put(&mut r, 0, va);
                self.put(&mut r, 1, vb);
                if let Some(addr) = store_to {
                    r.flags |= HAS_STORE;
                    self.put(&mut r, 2, addr);
                }
                if let Some(id) = precomputed {
                    r.arg = id;
                    r.flags |= HAS_ID;
                }
            }
            InstKind::PreCompute {
                id,
                op,
                a,
                b,
                stagger,
                reshape_routes,
            } => {
                self.summary.define_ids(id, 1);
                r.tag = TAG_PRECOMPUTE;
                r.op = op as u8;
                r.arg = id;
                r.words[2] = stagger as u32;
                r.flags = reshape(reshape_routes);
                self.put(&mut r, 0, a);
                self.put(&mut r, 1, b);
            }
            InstKind::FusedPreCompute {
                id,
                n_ops,
                ops,
                addrs,
                stagger,
                reshape_routes,
            } => {
                self.summary.define_ids(id, n_ops as u64);
                r.tag = TAG_FUSED;
                r.arg = id;
                r.n_ops = n_ops;
                r.words[0] = index_word(self.fused.len());
                r.words[1] = stagger as u32;
                r.flags = reshape(reshape_routes);
                self.fused.push(FusedOperands { ops, addrs });
            }
            InstKind::Busy { cycles } => r.arg = cycles,
        }
        self.records.push(r);
    }

    /// Instruction `i`, decoded. Panics unless `i < len()`.
    #[inline]
    pub fn get(&self, i: usize) -> Inst {
        self.records[i].decode(&self.fused, &self.wide)
    }

    /// The cycles of instruction `i` when it is a `Busy`, read without
    /// decoding it; `None` for any other kind and past the end.
    #[inline]
    pub fn busy_cycles(&self, i: usize) -> Option<u32> {
        self.records
            .get(i)
            .filter(|r| r.tag == TAG_BUSY)
            .map(|r| r.arg)
    }

    /// The instructions in order, decoded by value.
    pub fn iter(&self) -> InstIter<'_> {
        InstIter {
            records: self.records.iter(),
            fused: &self.fused,
            wide: &self.wide,
        }
    }

    /// Largest pc + 1: the size of a table indexed by pc.
    pub fn pc_end(&self) -> u64 {
        self.summary.pc_end
    }

    /// One past the largest precompute id defined, counting each of a
    /// fused packet's `n_ops` ids: the size of a table indexed by id.
    pub fn precompute_id_end(&self) -> u64 {
        self.summary.id_end
    }
}

impl Summary {
    /// Count a precompute that defines ids `id .. id + n`.
    #[inline]
    fn define_ids(&mut self, id: PrecomputeId, n: u64) {
        self.precomputes += 1;
        self.precompute_ids += n;
        self.id_end = self.id_end.max(id as u64 + n);
    }
}

impl std::fmt::Debug for Insts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over a trace's instructions, decoded by value.
pub struct InstIter<'a> {
    records: std::slice::Iter<'a, Record>,
    fused: &'a [FusedOperands],
    wide: &'a [u64],
}

impl Iterator for InstIter<'_> {
    type Item = Inst;

    #[inline]
    fn next(&mut self) -> Option<Inst> {
        self.records.next().map(|r| r.decode(self.fused, self.wide))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.records.size_hint()
    }
}

impl ExactSizeIterator for InstIter<'_> {}

impl<'a> IntoIterator for &'a Insts {
    type Item = Inst;
    type IntoIter = InstIter<'a>;

    fn into_iter(self) -> InstIter<'a> {
        self.iter()
    }
}

/// The instruction stream of one hardware thread, pinned to one core.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// The core this thread runs on.
    pub core: NodeId,
    pub insts: Insts,
}

impl Trace {
    pub fn new(core: NodeId) -> Self {
        Trace {
            core,
            insts: Insts::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.insts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Count of two-operand arithmetic/logic computations (the
    /// denominator for the paper's "32% of arithmetic and logical
    /// instructions executed as NDC" footnote).
    pub fn compute_count(&self) -> u64 {
        self.insts.summary.computes
    }

    /// Count of pre-compute (offload request) instructions. A fused
    /// packet counts as one instruction; see [`Trace::precompute_ids`]
    /// for the number of ids defined.
    pub fn precompute_count(&self) -> u64 {
        self.insts.summary.precomputes
    }

    /// Total precompute *ids* defined by this trace: 1 per `PreCompute`
    /// and `n_ops` per `FusedPreCompute`. This is the right base when
    /// allocating fresh ids or sizing per-id tables.
    pub fn precompute_ids(&self) -> u64 {
        self.insts.summary.precompute_ids
    }
}

/// A whole multithreaded program, lowered: one trace per core.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceProgram {
    pub name: String,
    pub traces: Vec<Trace>,
}

impl TraceProgram {
    pub fn new(name: impl Into<String>) -> Self {
        TraceProgram {
            name: name.into(),
            traces: Vec::new(),
        }
    }

    pub fn total_insts(&self) -> u64 {
        self.traces.iter().map(|t| t.insts.len() as u64).sum()
    }

    pub fn total_computes(&self) -> u64 {
        self.traces.iter().map(|t| t.compute_count()).sum()
    }

    pub fn total_precomputes(&self) -> u64 {
        self.traces.iter().map(|t| t.precompute_count()).sum()
    }

    /// Sanity check used by tests and the harness: every
    /// `Compute { precomputed: Some(id) }` must be preceded in the same
    /// trace by a `PreCompute` with that id, and ids must be unique per
    /// trace.
    pub fn validate_precompute_links(&self) -> Result<(), String> {
        for (ti, trace) in self.traces.iter().enumerate() {
            let mut seen =
                std::collections::HashSet::with_capacity(trace.precompute_ids() as usize);
            for (ii, inst) in trace.insts.iter().enumerate() {
                match inst.kind {
                    InstKind::PreCompute { id, .. } if !seen.insert(id) => {
                        return Err(format!(
                            "trace {ti}: duplicate precompute id {id} at inst {ii}"
                        ));
                    }
                    InstKind::FusedPreCompute { id, n_ops, .. } => {
                        if !(2..=MAX_FUSED_OPS as u8).contains(&n_ops) {
                            return Err(format!(
                                "trace {ti}: fused precompute at inst {ii} has n_ops {n_ops} \
                                 outside 2..={MAX_FUSED_OPS}"
                            ));
                        }
                        for k in 0..n_ops as u32 {
                            if !seen.insert(id + k) {
                                return Err(format!(
                                    "trace {ti}: duplicate precompute id {} at inst {ii}",
                                    id + k
                                ));
                            }
                        }
                    }
                    InstKind::Compute {
                        precomputed: Some(id),
                        ..
                    } if !seen.contains(&id) => {
                        return Err(format!(
                            "trace {ti}: compute at inst {ii} consumes precompute {id} \
                             which does not precede it"
                        ));
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    fn mk_linked_trace(ok: bool) -> TraceProgram {
        let mut t = Trace::new(NodeId(0));
        if ok {
            t.insts.push(Inst {
                pc: 0,
                kind: InstKind::PreCompute {
                    id: 7,
                    op: Op::Add,
                    a: 0,
                    b: 64,
                    stagger: 0,
                    reshape_routes: false,
                },
            });
        }
        t.insts.push(Inst {
            pc: 1,
            kind: InstKind::Compute {
                op: Op::Add,
                a: Operand::Mem(0),
                b: Operand::Mem(64),
                store_to: None,
                precomputed: Some(7),
            },
        });
        let mut p = TraceProgram::new("t");
        p.traces.push(t);
        p
    }

    #[test]
    fn precompute_links_validate() {
        assert!(mk_linked_trace(true).validate_precompute_links().is_ok());
        assert!(mk_linked_trace(false).validate_precompute_links().is_err());
    }

    #[test]
    fn duplicate_precompute_ids_rejected() {
        let mut t = Trace::new(NodeId(0));
        for _ in 0..2 {
            t.insts.push(Inst {
                pc: 0,
                kind: InstKind::PreCompute {
                    id: 1,
                    op: Op::Add,
                    a: 0,
                    b: 64,
                    stagger: 0,
                    reshape_routes: false,
                },
            });
        }
        let mut p = TraceProgram::new("dup");
        p.traces.push(t);
        assert!(p.validate_precompute_links().is_err());
    }

    #[test]
    fn counts() {
        let p = mk_linked_trace(true);
        assert_eq!(p.total_insts(), 2);
        assert_eq!(p.total_computes(), 1);
        assert_eq!(p.total_precomputes(), 1);
    }

    fn fused_inst(id: PrecomputeId, n_ops: u8) -> Inst {
        Inst {
            pc: 0,
            kind: InstKind::FusedPreCompute {
                id,
                n_ops,
                ops: [Op::Add; MAX_FUSED_OPS],
                addrs: [0, 64, 128, 192, 256],
                stagger: 0,
                reshape_routes: false,
            },
        }
    }

    #[test]
    fn fused_packet_defines_consecutive_ids() {
        let mut t = Trace::new(NodeId(0));
        t.insts.push(fused_inst(3, 2));
        for id in [3u32, 4] {
            t.insts.push(Inst {
                pc: 1,
                kind: InstKind::Compute {
                    op: Op::Add,
                    a: Operand::Mem(0),
                    b: Operand::Mem(64),
                    store_to: None,
                    precomputed: Some(id),
                },
            });
        }
        assert_eq!(t.precompute_count(), 1);
        assert_eq!(t.precompute_ids(), 2);
        let mut p = TraceProgram::new("fused");
        p.traces.push(t);
        assert!(p.validate_precompute_links().is_ok());

        // Consuming the one-past-the-end id must fail.
        let mut bad = p.clone();
        bad.traces[0].insts.push(Inst {
            pc: 2,
            kind: InstKind::Compute {
                op: Op::Add,
                a: Operand::Mem(0),
                b: Operand::Mem(64),
                store_to: None,
                precomputed: Some(5),
            },
        });
        assert!(bad.validate_precompute_links().is_err());
    }

    #[test]
    fn fused_packet_rejects_bad_arity_and_id_overlap() {
        let mut t = Trace::new(NodeId(0));
        t.insts.push(fused_inst(0, 1)); // n_ops below 2
        let mut p = TraceProgram::new("arity");
        p.traces.push(t);
        assert!(p.validate_precompute_links().is_err());

        let mut t = Trace::new(NodeId(0));
        t.insts.push(fused_inst(0, 3)); // defines 0, 1, 2
        t.insts.push(fused_inst(2, 2)); // 2 collides
        let mut p = TraceProgram::new("overlap");
        p.traces.push(t);
        assert!(p.validate_precompute_links().is_err());
    }

    /// `a` and `b` are the same instruction, immediates compared bit
    /// for bit (so a NaN matches itself and `-0.0` does not match 0.0).
    fn same_bits(a: &Inst, b: &Inst) -> bool {
        let imm_bits = |i: &Inst| match i.kind {
            InstKind::Compute { a, b, .. } => [a, b].map(|o| match o {
                Operand::Imm(v) => Some(v.to_bits()),
                Operand::Mem(_) => None,
            }),
            _ => [None; 2],
        };
        let blank = |i: &Inst| {
            let mut i = *i;
            if let InstKind::Compute { a, b, .. } = &mut i.kind {
                for o in [a, b] {
                    if let Operand::Imm(v) = o {
                        *v = 0.0;
                    }
                }
            }
            i
        };
        imm_bits(a) == imm_bits(b) && blank(a) == blank(b)
    }

    /// A random instruction of any kind, its fields drawn with weight on
    /// the extremes a packed record must carry.
    fn random_inst(g: &mut SplitMix64) -> Inst {
        // Addresses either side of the 32-bit record word, which holds
        // the narrow ones in place and indexes the wide table for the
        // rest.
        let addr = |g: &mut SplitMix64| match g.below(7) {
            0 => 0,
            1 => u64::MAX,
            2 => u32::MAX as u64,
            3 => 1 << 32,
            4 | 5 => g.next_u32() as u64,
            _ => g.next_u64(),
        };
        let word32 = |g: &mut SplitMix64| match g.below(4) {
            0 => 0,
            1 => u32::MAX,
            _ => g.next_u32(),
        };
        let stagger = |g: &mut SplitMix64| match g.below(4) {
            0 => i32::MIN,
            1 => i32::MAX,
            _ => g.next_u32() as i32,
        };
        let imm = |g: &mut SplitMix64| {
            let random = f64::from_bits(g.next_u64());
            *g.choose(&[
                f64::from_bits(0x7ff8_0000_0000_1234), // quiet NaN, payload
                f64::from_bits(0xfff0_0000_0000_0001), // signalling NaN
                -0.0,
                0.0,
                f64::from_bits(1), // smallest subnormal
                -f64::MIN_POSITIVE / 3.0,
                f64::NEG_INFINITY,
                random,
            ])
        };
        let operand = |g: &mut SplitMix64| {
            if g.chance(0.5) {
                Operand::Imm(imm(g))
            } else {
                Operand::Mem(addr(g))
            }
        };
        let op = |g: &mut SplitMix64| *g.choose(&Op::ALL);
        let pc = word32(g);
        let kind = match g.below(6) {
            0 => InstKind::Load { addr: addr(g) },
            1 => InstKind::Store { addr: addr(g) },
            2 => InstKind::Compute {
                op: op(g),
                a: operand(g),
                b: operand(g),
                store_to: g.chance(0.5).then(|| addr(g)),
                precomputed: g.chance(0.5).then(|| word32(g)),
            },
            3 => InstKind::PreCompute {
                id: word32(g),
                op: op(g),
                a: addr(g),
                b: addr(g),
                stagger: stagger(g),
                reshape_routes: g.chance(0.5),
            },
            4 => InstKind::FusedPreCompute {
                id: word32(g),
                n_ops: g.range_u64(2, MAX_FUSED_OPS as u64 + 1) as u8,
                ops: [op(g), op(g), op(g), op(g)],
                addrs: [addr(g), addr(g), addr(g), addr(g), addr(g)],
                stagger: stagger(g),
                reshape_routes: g.chance(0.5),
            },
            _ => InstKind::Busy { cycles: word32(g) },
        };
        Inst { pc, kind }
    }

    /// The summaries a full scan of `insts` computes: (pc end, id end,
    /// computes, precomputes, precompute ids).
    fn scanned_summary(insts: &[Inst]) -> (u64, u64, u64, u64, u64) {
        let (mut pc_end, mut id_end, mut computes, mut pre, mut ids) = (0, 0, 0, 0, 0);
        for i in insts {
            pc_end = pc_end.max(i.pc as u64 + 1);
            let defined = match i.kind {
                InstKind::Compute { .. } => {
                    computes += 1;
                    None
                }
                InstKind::PreCompute { id, .. } => Some((id, 1)),
                InstKind::FusedPreCompute { id, n_ops, .. } => Some((id, n_ops as u64)),
                _ => None,
            };
            if let Some((id, n)) = defined {
                pre += 1;
                ids += n;
                id_end = id_end.max(id as u64 + n);
            }
        }
        (pc_end, id_end, computes, pre, ids)
    }

    #[test]
    fn op_indices_follow_the_declaration_order() {
        for (i, op) in Op::ALL.iter().enumerate() {
            assert_eq!(*op as usize, i, "{op:?}");
        }
    }

    /// Seeded property: every instruction pushed comes back exactly from
    /// `get` and from iteration, whatever its kind and however extreme
    /// its fields, and the summaries equal a full scan.
    #[test]
    fn packed_store_returns_every_instruction_exactly() {
        let g = SplitMix64::new(0x2020);
        for case in 0..512 {
            let mut g = g.fork(case);
            let pushed: Vec<Inst> = (0..g.range_u64(0, 48))
                .map(|_| random_inst(&mut g))
                .collect();
            let mut t = Trace::new(NodeId(0));
            for &i in &pushed {
                t.insts.push(i);
            }
            assert_eq!(t.len(), pushed.len());
            assert_eq!(t.is_empty(), pushed.is_empty());
            for (k, want) in pushed.iter().enumerate() {
                let got = t.insts.get(k);
                assert!(
                    same_bits(&got, want),
                    "case {case} inst {k}: {got:?} != {want:?}"
                );
                let busy = match want.kind {
                    InstKind::Busy { cycles } => Some(cycles),
                    _ => None,
                };
                assert_eq!(t.insts.busy_cycles(k), busy, "case {case} inst {k}");
            }
            assert_eq!(t.insts.busy_cycles(pushed.len()), None);
            assert_eq!(t.insts.iter().len(), pushed.len());
            assert!(t.insts.iter().zip(&pushed).all(|(a, b)| same_bits(&a, b)));
            assert!((&t.insts)
                .into_iter()
                .zip(&pushed)
                .all(|(a, b)| same_bits(&a, b)));
            assert_eq!(format!("{:?}", t.insts), format!("{pushed:?}"));
            let summary = (
                t.insts.pc_end(),
                t.insts.precompute_id_end(),
                t.compute_count(),
                t.precompute_count(),
                t.precompute_ids(),
            );
            assert_eq!(summary, scanned_summary(&pushed), "case {case}");
            // Equality is bitwise, so a store equals its clone even
            // when it holds NaNs.
            assert_eq!(t.clone(), t);
        }
    }

    /// Values that fit a record word stay in it; each wider value takes
    /// one wide-table entry.
    #[test]
    fn only_values_past_32_bits_use_the_wide_table() {
        let mut s = Insts::new();
        let narrow = Inst::compute(
            0,
            Op::Add,
            Operand::Mem(u32::MAX as u64),
            Operand::Imm(0.0),
            Some(8),
        );
        s.push(narrow);
        s.push(Inst::load(1, 64));
        assert!(s.wide.is_empty());
        let wide = Inst::compute(
            2,
            Op::Mul,
            Operand::Imm(1.0),
            Operand::Mem(1 << 32),
            Some(u64::MAX),
        );
        s.push(wide);
        assert_eq!(s.wide, [1f64.to_bits(), 1 << 32, u64::MAX]);
        assert_eq!(s.get(0), narrow);
        assert_eq!(s.get(2), wide);
    }

    #[test]
    fn store_equality_compares_immediates_by_bits() {
        let store = |v: f64| {
            let mut s = Insts::new();
            s.push(Inst::compute(
                0,
                Op::Add,
                Operand::Imm(v),
                Operand::Mem(8),
                None,
            ));
            s
        };
        assert_eq!(store(f64::NAN), store(f64::NAN));
        assert_ne!(store(0.0), store(-0.0));
        assert_ne!(store(1.0), store(2.0));
    }
}
