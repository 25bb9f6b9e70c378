//! The check-event record: one step of a simulated request path, or one
//! end of a flit's stay on a link, as the invariant checker reads it.
//!
//! The record lives here, in the leaf crate, because two emitters write
//! it directly — the simulator's request recorder and the network's
//! flit log — and the checker reads it; `ndc_obs::chk` states the
//! stream's contract. A `CheckLevel::full()` run records millions of
//! these, so a record is 16 bytes (held there by a compile-time
//! assertion) and carries exactly its kind, one id and one timestamp.

use crate::Cycle;

/// What a [`CheckRecord`] marks. The first seven kinds are the steps of
/// a request path, in the order a request can take them; the last two
/// are the ends of a flit hop on a link.
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CheckKind {
    /// The request left its core.
    Issue,
    /// The request reached its home L2 bank.
    L2Req,
    /// An L2 miss entered its memory controller's queue.
    MemQueue,
    /// The DRAM bank began serving it.
    MemService,
    /// The DRAM access completed.
    MemDone,
    /// The line was available at the home bank.
    DataAtBank,
    /// The data reached its destination.
    Retire,
    /// A flit entered a link's buffer.
    FlitEnter,
    /// The flit left the link's downstream router.
    FlitExit,
}

impl CheckKind {
    /// Every kind, in declaration order.
    pub const ALL: [CheckKind; 9] = [
        CheckKind::Issue,
        CheckKind::L2Req,
        CheckKind::MemQueue,
        CheckKind::MemService,
        CheckKind::MemDone,
        CheckKind::DataAtBank,
        CheckKind::Retire,
        CheckKind::FlitEnter,
        CheckKind::FlitExit,
    ];

    /// The kind's name in reports and violation messages.
    pub const fn name(self) -> &'static str {
        match self {
            CheckKind::Issue => "issue",
            CheckKind::L2Req => "l2_req",
            CheckKind::MemQueue => "mem_queue",
            CheckKind::MemService => "mem_service",
            CheckKind::MemDone => "mem_done",
            CheckKind::DataAtBank => "data_at_bank",
            CheckKind::Retire => "retire",
            CheckKind::FlitEnter => "flit_enter",
            CheckKind::FlitExit => "flit_exit",
        }
    }

    /// Whether the record's id is a link id (a flit hop) rather than a
    /// request id.
    pub const fn is_link(self) -> bool {
        matches!(self, CheckKind::FlitEnter | CheckKind::FlitExit)
    }
}

/// One check event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckRecord {
    /// When it happened, in simulated cycles.
    pub ts: Cycle,
    /// The request id of a request-path kind; the link id of a flit kind.
    pub id: u32,
    pub kind: CheckKind,
}

const _: () = assert!(std::mem::size_of::<CheckRecord>() == 16);

impl CheckRecord {
    pub fn new(kind: CheckKind, id: u32, ts: Cycle) -> CheckRecord {
        CheckRecord { ts, id, kind }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_have_distinct_names_and_two_are_link_kinds() {
        let names: std::collections::BTreeSet<&str> =
            CheckKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), CheckKind::ALL.len());
        let links: Vec<CheckKind> = CheckKind::ALL.into_iter().filter(|k| k.is_link()).collect();
        assert_eq!(links, [CheckKind::FlitEnter, CheckKind::FlitExit]);
        for (i, k) in CheckKind::ALL.iter().enumerate() {
            assert_eq!(*k as u8 as usize, i);
        }
    }
}
