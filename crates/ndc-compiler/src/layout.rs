//! Data-layout optimization (the paper's deferred future work).
//!
//! §5.2.1's fourth challenge observes that some operand pairs can
//! *never* meet: "x and y are mapped to different cache banks ... While
//! in such cases changing the mapping between data space and
//! cache/memory banks can help (to create more NDC opportunities), we
//! postpone such data layout optimizations to a future study."
//!
//! This pass is that study's obvious first step: for each use-use chain
//! whose operands walk two arrays `A` and `B` with equal per-loop byte
//! strides (`ndc_ir::affine`'s fold of `F·I + f`, scaled by the element
//! size), their home banks differ by a constant number of L2 lines —
//! the base-address delta. Equal `F` is not enough: the same subscripts
//! step further through a wider row. Padding `B`'s base by
//! `(bank_count − delta mod bank_count)` lines makes every instance of
//! the pair co-homed. The pass greedily picks, per array, the shift
//! that maximizes the number of chains it completes, never shrinking an
//! array and never moving an array earlier (so layouts stay
//! non-overlapping).

use ndc_ir::affine::{decl_of, Fold};
use ndc_ir::program::{ArrayId, ArrayRef, LoopNest, Program};
use ndc_types::ArchConfig;
use ndc_types::FxHashMap;

/// What the layout pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayoutReport {
    /// Chains whose operands were already co-homed at every point.
    pub already_aligned: u64,
    /// Chains newly co-homed at every point by a base shift.
    pub aligned: u64,
    /// Chains co-homed at only part of their points after the pass: a
    /// shift moves a whole number of L2 lines, and the operands' byte
    /// delta need not be a multiple of the line.
    pub partial: u64,
    /// Chains that could not be aligned (conflicting demands or
    /// non-matching access functions).
    pub unalignable: u64,
    /// Per-array base shifts applied, in bytes.
    pub shifts: Vec<(u32, u64)>,
}

/// Candidate alignment demand: shift `array` so that it is `delta_lines`
/// L2 lines "later" than today, modulo the bank count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Demand {
    array: ArrayId,
    shift_lines: u64,
}

/// Run the layout pass: returns the (possibly re-based) program and a
/// report. The input program must already have a layout assigned.
pub fn optimize_layout(prog: &Program, cfg: &ArchConfig) -> (Program, LayoutReport) {
    let banks = cfg.nodes() as u64;
    let line = cfg.l2.line_bytes;
    let mut report = LayoutReport::default();
    if banks == 0 || line == 0 {
        // A degenerate architecture description has no banks to align
        // against; the pass is a no-op rather than a division by zero.
        return (prog.clone(), report);
    }

    // Collect per-array shift demands from same-access-function chains.
    let mut demands: FxHashMap<Demand, u64> = FxHashMap::default();
    for nest in &prog.nests {
        for stmt in &nest.body {
            let Some((ra, rb)) = stmt.memory_operand_pair() else {
                continue;
            };
            if !co_strided(prog, nest, ra, rb) {
                // Same-array chains are already governed by their
                // offsets; differing strides vary per iteration.
                report.unalignable += 1;
                continue;
            }
            // Element offset difference is constant across iterations:
            // delta = addr_b − addr_a at any point. Use the nest origin.
            let (Some(a0), Some(b0)) = (prog.addr_of(ra, &nest.lo), prog.addr_of(rb, &nest.lo))
            else {
                report.unalignable += 1;
                continue;
            };
            let la = a0 / line;
            let lb = b0 / line;
            let delta = (lb % banks + banks - la % banks) % banks;
            if delta == 0 {
                let (homed, points) = cohomed_points(prog, nest, ra, rb, line, banks);
                report.already_aligned += u64::from(homed == points);
                continue;
            }
            // Shifting rb.array by (banks - delta) lines aligns homes.
            *demands
                .entry(Demand {
                    array: rb.array,
                    shift_lines: banks - delta,
                })
                .or_insert(0) += 1;
        }
    }

    // Greedy: one shift per array, the most demanded.
    let mut best: FxHashMap<ArrayId, (u64, u64)> = FxHashMap::default(); // array -> (shift, votes)
    for (d, votes) in &demands {
        let e = best.entry(d.array).or_insert((d.shift_lines, 0));
        if *votes > e.1 {
            *e = (d.shift_lines, *votes);
        }
    }

    // Apply shifts in ascending array id so the overlap checks below are
    // deterministic regardless of hash-map iteration order. A shift can
    // be up to `banks − 1` lines, which may exceed the layout's
    // inter-array padding, so each one is refused rather than applied if
    // it would make the shifted array collide with any other array's
    // (possibly already shifted) extent — disjoint layouts are a hard
    // invariant of the pass.
    let mut out = prog.clone();
    let mut shifted: Vec<(u32, u64)> = Vec::new();
    let mut order: Vec<(ArrayId, u64)> = best.iter().map(|(a, (s, _))| (*a, *s)).collect();
    order.sort_unstable_by_key(|(a, _)| a.0);
    for (array, shift_lines) in order {
        let bytes = shift_lines.saturating_mul(line);
        let idx = array.0 as usize;
        let Some(decl) = out.arrays.get(idx) else {
            continue;
        };
        let new_base = decl.base.saturating_add(bytes);
        let new_end = new_base.saturating_add(decl.size_bytes());
        let disjoint = out.arrays.iter().enumerate().all(|(j, other)| {
            j == idx
                || new_end <= other.base
                || other.base.saturating_add(other.size_bytes()) <= new_base
        });
        if !disjoint {
            continue;
        }
        out.arrays[idx].base = new_base;
        shifted.push((array.0, bytes));
    }
    report.shifts = shifted;

    // Count what the shifts actually achieved, at every point.
    let (mut aligned, mut unalignable) = (0u64, 0u64);
    for nest in &out.nests {
        for stmt in &nest.body {
            let Some((ra, rb)) = stmt.memory_operand_pair() else {
                continue;
            };
            if !co_strided(&out, nest, ra, rb) {
                continue;
            }
            if out.addr_of(ra, &nest.lo).is_none() || out.addr_of(rb, &nest.lo).is_none() {
                continue;
            }
            match cohomed_points(&out, nest, ra, rb, line, banks) {
                (0, _) => unalignable += 1,
                (homed, points) if homed == points => aligned += 1,
                _ => report.partial += 1,
            }
        }
    }
    report.aligned = aligned.saturating_sub(report.already_aligned);
    report.unalignable += unalignable;
    (out, report)
}

/// Over every point of `nest`, how many co-home the two operands, and
/// how many points there are.
fn cohomed_points(
    prog: &Program,
    nest: &LoopNest,
    ra: &ArrayRef,
    rb: &ArrayRef,
    line: u64,
    banks: u64,
) -> (u64, u64) {
    let (mut homed, mut points) = (0u64, 0u64);
    nest.for_each_point(|p| {
        points += 1;
        if let (Some(a), Some(b)) = (prog.addr_of(ra, p), prog.addr_of(rb, p)) {
            homed += u64::from((a / line) % banks == (b / line) % banks);
        }
    });
    (homed, points)
}

/// Whether two operands in different arrays move by the same number of
/// bytes per step of every loop ([`Fold::bytes`]), so their address
/// delta is the same at every point of `nest`.
fn co_strided(prog: &Program, nest: &LoopNest, ra: &ArrayRef, rb: &ArrayRef) -> bool {
    let strides = |r: &ArrayRef| Some(Fold::bytes(decl_of(prog, r, nest.depth())?, r)?.coeffs);
    ra.array != rb.array && strides(ra).is_some_and(|a| strides(rb) == Some(a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndc_ir::matrix::IMat;
    use ndc_ir::program::{ArrayDecl, ArrayRef, LoopNest, Ref, Stmt};
    use ndc_types::Op;

    fn cfg() -> ArchConfig {
        ArchConfig::paper_default()
    }

    /// Z[i] = X[8i] + Y[8i] with page-aligned bases: X and Y homes are
    /// offset by a constant non-zero number of banks.
    fn misaligned_prog() -> Program {
        let mut p = Program::new("mis");
        let x = p.add_array(ArrayDecl::new("X", vec![40000], 8));
        let y = p.add_array(ArrayDecl::new("Y", vec![40000], 8));
        let z = p.add_array(ArrayDecl::new("Z", vec![4096], 8));
        let s8 = |arr| Ref::Array(ArrayRef::affine(arr, IMat::from_rows(&[&[8]]), vec![0]));
        let s = Stmt::binary(
            0,
            ArrayRef::identity(z, 1, vec![0]),
            Op::Add,
            s8(x),
            s8(y),
            1,
        );
        p.nests.push(LoopNest::new(0, vec![0], vec![4000], vec![s]));
        p.assign_layout(0x10_0000, 4096);
        p
    }

    #[test]
    fn pass_aligns_cross_array_chains() {
        let cfg = cfg();
        let p = misaligned_prog();
        // Confirm the premise: X and Y are NOT co-homed initially.
        let nest = &p.nests[0];
        let (ra, rb) = nest.body[0].memory_operand_pair().unwrap();
        let a0 = p.addr_of(ra, &nest.lo).unwrap();
        let b0 = p.addr_of(rb, &nest.lo).unwrap();
        assert_ne!(cfg.l2_home(a0), cfg.l2_home(b0), "premise broken");

        let (q, report) = optimize_layout(&p, &cfg);
        assert_eq!(report.aligned, 1, "{report:?}");
        let (ra, rb) = q.nests[0].body[0].memory_operand_pair().unwrap();
        let a0 = q.addr_of(ra, &q.nests[0].lo).unwrap();
        let b0 = q.addr_of(rb, &q.nests[0].lo).unwrap();
        assert_eq!(cfg.l2_home(a0), cfg.l2_home(b0));
        // And not just at the origin: every 7th sample too.
        for i in (0..4000).step_by(7) {
            let a = q.addr_of(ra, &[i]).unwrap();
            let b = q.addr_of(rb, &[i]).unwrap();
            assert_eq!(cfg.l2_home(a), cfg.l2_home(b), "iteration {i}");
        }
    }

    #[test]
    fn shifted_arrays_stay_disjoint() {
        let cfg = cfg();
        let (q, _) = optimize_layout(&misaligned_prog(), &cfg);
        let mut ranges: Vec<(u64, u64)> = q
            .arrays
            .iter()
            .map(|a| (a.base, a.base + a.size_bytes()))
            .collect();
        ranges.sort_unstable();
        for w in ranges.windows(2) {
            assert!(
                w[0].1 <= w[1].0,
                "arrays overlap after layout pass: {ranges:?}"
            );
        }
    }

    #[test]
    fn already_aligned_chains_are_left_alone() {
        let cfg = cfg();
        let p = misaligned_prog();
        let (q, first) = optimize_layout(&p, &cfg);
        let (r, second) = optimize_layout(&q, &cfg);
        assert_eq!(second.aligned, 0);
        assert_eq!(
            second.already_aligned,
            first.aligned + first.already_aligned
        );
        assert_eq!(
            q.arrays.iter().map(|a| a.base).collect::<Vec<_>>(),
            r.arrays.iter().map(|a| a.base).collect::<Vec<_>>()
        );
    }

    #[test]
    fn colliding_shifts_are_refused() {
        let cfg = cfg();
        let mut p = Program::new("tight");
        let x = p.add_array(ArrayDecl::new("X", vec![40000], 8));
        let y = p.add_array(ArrayDecl::new("Y", vec![40000], 8));
        let z = p.add_array(ArrayDecl::new("Z", vec![4096], 8));
        let s8 = |arr| Ref::Array(ArrayRef::affine(arr, IMat::from_rows(&[&[8]]), vec![0]));
        let s = Stmt::binary(
            0,
            ArrayRef::identity(z, 1, vec![0]),
            Op::Add,
            s8(x),
            s8(y),
            1,
        );
        p.nests.push(LoopNest::new(0, vec![0], vec![4000], vec![s]));
        p.assign_layout(0, 4096);
        // Re-pack by hand: Y one L2 line after X's end (so a
        // banks−1-line shift is demanded) and Z immediately after Y
        // (so the shift cannot fit without overlapping Z).
        let line = cfg.l2.line_bytes;
        let xe = p.arrays[x.0 as usize].size_bytes();
        p.arrays[y.0 as usize].base = xe + line;
        p.arrays[z.0 as usize].base = xe + line + p.arrays[y.0 as usize].size_bytes();
        let (q, report) = optimize_layout(&p, &cfg);
        assert!(
            report.shifts.is_empty(),
            "colliding shift applied: {report:?}"
        );
        let mut ranges: Vec<(u64, u64)> = q
            .arrays
            .iter()
            .map(|a| (a.base, a.base + a.size_bytes()))
            .collect();
        ranges.sort_unstable();
        for w in ranges.windows(2) {
            assert!(w[0].1 <= w[1].0, "arrays overlap: {ranges:?}");
        }
        // The chain stays unaligned rather than corrupting the layout.
        assert_eq!(report.aligned, 0);
        assert_eq!(report.unalignable, 1);
    }

    #[test]
    fn same_array_chains_are_unalignable() {
        let mut p = Program::new("same");
        let x = p.add_array(ArrayDecl::new("X", vec![40000], 8));
        let z = p.add_array(ArrayDecl::new("Z", vec![4096], 8));
        let s8 = |off: i64| Ref::Array(ArrayRef::affine(x, IMat::from_rows(&[&[8]]), vec![off]));
        let s = Stmt::binary(
            0,
            ArrayRef::identity(z, 1, vec![0]),
            Op::Add,
            s8(0),
            s8(104),
            1,
        );
        p.nests.push(LoopNest::new(0, vec![0], vec![4000], vec![s]));
        p.assign_layout(0, 4096);
        let (_, report) = optimize_layout(&p, &ArchConfig::paper_default());
        assert_eq!(report.aligned, 0);
        assert_eq!(report.unalignable, 1);
        assert!(report.shifts.is_empty());
    }

    /// Z[i] = X[i] + Y[i] with 8-byte elements and Y's base 8 bytes past
    /// a line: a whole-line shift co-homes the pair at the origin but
    /// not at the points where Y's address crosses into its next line
    /// before X's does, so the chain is partial, not aligned.
    #[test]
    fn a_delta_off_the_line_is_counted_partial() {
        let cfg = cfg();
        let mut p = Program::new("offline");
        let z = p.add_array(ArrayDecl::new("Z", vec![4096], 8));
        let x = p.add_array(ArrayDecl::new("X", vec![4096], 8));
        let y = p.add_array(ArrayDecl::new("Y", vec![4096], 8));
        let at = |arr| Ref::Array(ArrayRef::identity(arr, 1, vec![0]));
        let s = Stmt::binary(
            0,
            ArrayRef::identity(z, 1, vec![0]),
            Op::Add,
            at(x),
            at(y),
            1,
        );
        p.nests.push(LoopNest::new(0, vec![0], vec![4096], vec![s]));
        p.assign_layout(0x10_0000, 4096);
        // Y is last, so its shift collides with nothing.
        p.arrays[y.0 as usize].base += 8;
        let (q, report) = optimize_layout(&p, &cfg);
        assert_eq!((report.aligned, report.partial), (0, 1), "{report:?}");
        let (ra, rb) = q.nests[0].body[0].memory_operand_pair().unwrap();
        let homed = (0..4096)
            .filter(|&i| {
                let (a, b) = (q.addr_of(ra, &[i]).unwrap(), q.addr_of(rb, &[i]).unwrap());
                cfg.l2_home(a) == cfg.l2_home(b)
            })
            .count();
        assert!(homed > 0 && homed < 4096, "{homed} of 4096 points co-homed");
    }

    /// Z[i][j] = X[i][j] + Y[i][j] with X 64×64 and Y 64×128: the same
    /// `F`, but a step of `i` moves X by 512 bytes and Y by 1,024, so
    /// the home-bank delta changes with `i` and no base shift co-homes
    /// the pair. The pass must leave it alone.
    #[test]
    fn equal_access_matrices_with_unequal_strides_are_unalignable() {
        let cfg = cfg();
        let mut p = Program::new("strides");
        let x = p.add_array(ArrayDecl::new("X", vec![64, 64], 8));
        let z = p.add_array(ArrayDecl::new("Z", vec![64, 64], 8));
        let y = p.add_array(ArrayDecl::new("Y", vec![64, 128], 8));
        let at = |arr| Ref::Array(ArrayRef::identity(arr, 2, vec![0, 0]));
        let s = Stmt::binary(
            0,
            ArrayRef::identity(z, 2, vec![0, 0]),
            Op::Add,
            at(x),
            at(y),
            1,
        );
        p.nests
            .push(LoopNest::new(0, vec![0, 0], vec![64, 64], vec![s]));
        p.assign_layout(0x10_0000, 4096);
        // Premise: the pair starts on different banks.
        let (ra, rb) = p.nests[0].body[0].memory_operand_pair().unwrap();
        let home = |r| cfg.l2_home(p.addr_of(r, &[0, 0]).unwrap());
        assert_ne!(home(ra), home(rb), "premise broken");
        let (q, report) = optimize_layout(&p, &cfg);
        assert_eq!((report.aligned, report.unalignable), (0, 1), "{report:?}");
        assert!(report.shifts.is_empty(), "{report:?}");
        assert_eq!(q.arrays, p.arrays);
    }
}
