//! The prediction half of the Cache Miss Equations: classify each
//! reference's expected miss rates in L1 and L2 from its reuse, the
//! nest's footprint, and set-mapping conflicts.

use crate::reuse::{analyze_reuse, ReuseInfo, ReuseKind};
use ndc_ir::program::{LoopNest, Program};
use ndc_types::FxHashMap;
use ndc_types::{ArchConfig, Pc};

/// Identity of one static reference: nest position, statement position
/// within the nest body, and operand slot (0 = `a`, 1 = `b`, 2 = store
/// target).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RefKey {
    pub nest_pos: usize,
    pub stmt_pos: usize,
    pub slot: u8,
}

impl RefKey {
    /// The simulator PC carrying this reference's accesses (see
    /// `ndc_ir::lower::pc_of`; all three slots share the MAIN role's
    /// PC except copy-statement stores).
    pub fn pc(&self, is_copy_store: bool) -> Pc {
        let role = if is_copy_store {
            ndc_ir::ROLE_STORE
        } else {
            ndc_ir::ROLE_MAIN
        };
        ndc_ir::pc_of(self.nest_pos, self.stmt_pos, role)
    }
}

/// Predicted miss rates for one reference.
#[derive(Debug, Clone, PartialEq)]
pub struct MissPrediction {
    /// Expected L1 miss rate over this reference's dynamic accesses.
    pub l1_miss_rate: f64,
    /// Expected L2 miss rate over the accesses that reach L2 (i.e., of
    /// the predicted L1 misses).
    pub l2_miss_rate: f64,
    /// The reuse classification that produced the prediction.
    pub reuse: ReuseKind,
}

/// Whole-program CME output.
#[derive(Debug, Clone, Default)]
pub struct CmeAnalysis {
    pub predictions: FxHashMap<RefKey, MissPrediction>,
}

impl CmeAnalysis {
    pub fn get(&self, key: &RefKey) -> Option<&MissPrediction> {
        self.predictions.get(key)
    }

    /// Predicted probability that this reference L1-misses (the NDC
    /// algorithms' precondition: both operands must miss L1 to meet at
    /// the L2 bank, §5.2.1 challenge 1).
    pub fn l1_miss_probability(&self, key: &RefKey) -> f64 {
        self.predictions
            .get(key)
            .map(|p| p.l1_miss_rate)
            .unwrap_or(1.0)
    }
}

/// Run the estimator over a program for a machine configuration.
///
/// `cores` is the thread count the parallel dimension is split over
/// (per-thread iteration extents drive reuse-window footprints).
pub fn analyze(prog: &Program, cfg: &ArchConfig, cores: usize) -> CmeAnalysis {
    let mut out = CmeAnalysis::default();
    for (nest_pos, nest) in prog.nests.iter().enumerate() {
        analyze_nest(prog, cfg, cores, nest_pos, nest, &mut out);
    }
    out
}

fn analyze_nest(
    prog: &Program,
    cfg: &ArchConfig,
    cores: usize,
    nest_pos: usize,
    nest: &LoopNest,
    out: &mut CmeAnalysis,
) {
    let l1_line = cfg.l1.line_bytes;
    let l2_line = cfg.l2.line_bytes;
    // Per-thread iteration extents (block partitioning of the parallel
    // level).
    let extents = nest.thread_extents(cores);

    // Gather reuse for every reference first (group analysis needs the
    // full set).
    let mut infos: Vec<(RefKey, ReuseInfo)> = Vec::new();
    for (stmt_pos, stmt) in nest.body.iter().enumerate() {
        for (slot, (aref, _w)) in stmt.array_refs().iter().enumerate() {
            let info = analyze_reuse(prog, nest, stmt_pos, slot as u8, aref, l1_line);
            infos.push((
                RefKey {
                    nest_pos,
                    stmt_pos,
                    slot: slot as u8,
                },
                info,
            ));
        }
    }

    // Streaming footprint per innermost iteration: new bytes brought in
    // by all references (capped at a line each).
    let bytes_per_iter: i64 = infos
        .iter()
        .map(|(_, i)| i.stride_bytes.unsigned_abs().min(l1_line) as i64)
        .sum::<i64>()
        .max(1);

    // Conflict analysis: persistent set conflicts occur between two
    // same-stride streams whose base line addresses collide modulo the
    // set count (the CME congruence `(addr1 - addr2)/line ≡ 0 (mod
    // sets)`). Count streams per L1 set at the nest origin.
    let l1_sets = cfg.l1.sets() as i64;
    let mut set_population: FxHashMap<i64, u32> = FxHashMap::default();
    for stmt in &nest.body {
        for (aref, _w) in stmt.array_refs() {
            if let Some(addr) = prog.addr_of(aref, &nest.lo) {
                let set = (addr / l1_line) as i64 % l1_sets;
                *set_population.entry(set).or_insert(0) += 1;
            }
        }
    }

    for (key, info) in infos {
        let stmt = &nest.body[key.stmt_pos];
        let aref = match key.slot {
            0 => stmt.a.as_array().cloned(),
            1 => stmt.b.as_ref().and_then(|b| b.as_array()).cloned(),
            _ => Some(stmt.dst.clone()),
        };
        let Some(aref) = aref else { continue };

        // --- L1 cold/spatial rate ---
        let spatial_rate = |line: u64| -> f64 {
            let s = info.stride_bytes.unsigned_abs();
            if s == 0 {
                0.0
            } else {
                (s as f64 / line as f64).min(1.0)
            }
        };

        let mut l1_miss = match &info.kind {
            ReuseKind::SelfTemporalInnermost => {
                // One miss per outer-iteration change of address; nearly
                // always hits.
                0.02
            }
            ReuseKind::SelfTemporal { distance } | ReuseKind::GroupTemporal { distance, .. } => {
                // Reuse window: iterations between reuse × bytes per
                // iteration.
                let iters = distance_iterations(distance, &extents);
                let window_bytes = iters.saturating_mul(bytes_per_iter as u64);
                if window_bytes <= cfg.l1.size_bytes {
                    // The leader pays the cold misses; the follower
                    // hits.
                    if matches!(info.kind, ReuseKind::GroupTemporal { .. }) {
                        0.02
                    } else {
                        spatial_rate(l1_line) * 0.1
                    }
                } else {
                    // Capacity miss: reuse distance exceeds the cache.
                    spatial_rate(l1_line).max(0.02)
                }
            }
            ReuseKind::SelfSpatial { .. } => spatial_rate(l1_line),
            ReuseKind::None => 1.0,
        };

        // Conflict adjustment: if more equal-stride streams map to this
        // reference's set than the associativity, thrashing defeats the
        // reuse.
        if let Some(addr) = prog.addr_of(&aref, &nest.lo) {
            let set = (addr / l1_line) as i64 % l1_sets;
            let pop = set_population.get(&set).copied().unwrap_or(0);
            if pop > cfg.l1.ways {
                let over = (pop - cfg.l1.ways) as f64 / pop as f64;
                l1_miss = (l1_miss + over * spatial_rate(l1_line).max(0.25)).min(1.0);
            }
        }

        // --- L2 ---
        // Accesses reaching L2 are the L1 misses, spaced
        // max(stride, L1 line) bytes apart; consecutive ones fall into
        // the same (4x larger) L2 line, so the cold L2 miss rate of the
        // stream is that spacing over the L2 line size. The aggregate
        // L2 capacity is the per-bank size times the bank count (static
        // NUCA); working sets that fit stay resident across the
        // application's solver timesteps, so only the first sweep pays
        // cold misses.
        let l2_total = cfg.l2.size_bytes * cfg.nodes() as u64;
        let array_bytes = prog.array(aref.array).size_bytes();
        let l2_miss = match &info.kind {
            ReuseKind::SelfTemporalInnermost => 0.05,
            _ => {
                let spacing = info.stride_bytes.unsigned_abs().max(l1_line) as f64;
                let cold = (spacing / l2_line as f64).min(1.0);
                if array_bytes <= l2_total / 4 {
                    // Resident after the first sweep: later timesteps
                    // hit.
                    cold * 0.35
                } else {
                    cold
                }
            }
        };

        out.predictions.insert(
            key,
            MissPrediction {
                l1_miss_rate: l1_miss.clamp(0.0, 1.0),
                l2_miss_rate: l2_miss.clamp(0.0, 1.0),
                reuse: info.kind,
            },
        );
    }
}

/// Number of innermost iterations spanned by a reuse distance vector,
/// given per-thread loop extents (row-major weighting).
fn distance_iterations(d: &[i64], extents: &[i64]) -> u64 {
    let mut weight: i64 = 1;
    let mut total: i64 = 0;
    for (k, &dk) in d.iter().enumerate().rev() {
        total += dk * weight;
        weight = weight.saturating_mul(extents[k].max(1));
    }
    total.unsigned_abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndc_ir::program::{ArrayDecl, ArrayRef, Program, Ref, Stmt};
    use ndc_types::Op;

    fn cfg() -> ArchConfig {
        ArchConfig::paper_default()
    }

    /// Z[i] = X[i] + Y[i]: pure streaming, unit stride. Array sizes
    /// are padded (4608 elements = 36 KB) so the three bases land in
    /// different L1 sets — no conflict component.
    fn streaming() -> Program {
        let mut p = Program::new("stream");
        let x = p.add_array(ArrayDecl::new("X", vec![4608], 8));
        let y = p.add_array(ArrayDecl::new("Y", vec![4608], 8));
        let z = p.add_array(ArrayDecl::new("Z", vec![4608], 8));
        let s = Stmt::binary(
            0,
            ArrayRef::identity(z, 1, vec![0]),
            Op::Add,
            Ref::Array(ArrayRef::identity(x, 1, vec![0])),
            Ref::Array(ArrayRef::identity(y, 1, vec![0])),
            1,
        );
        p.nests.push(LoopNest::new(0, vec![0], vec![4608], vec![s]));
        p.assign_layout(0, 4096);
        p
    }

    /// Set-aligned streams in a 2-way L1 thrash: the conflict term must
    /// raise the prediction above the pure spatial rate.
    #[test]
    fn aligned_streams_predicted_to_conflict() {
        let mut p = Program::new("conflict");
        // 32 KB arrays aligned to 4 KB: all bases map to L1 set 0.
        let x = p.add_array(ArrayDecl::new("X", vec![4096], 8));
        let y = p.add_array(ArrayDecl::new("Y", vec![4096], 8));
        let z = p.add_array(ArrayDecl::new("Z", vec![4096], 8));
        let s = Stmt::binary(
            0,
            ArrayRef::identity(z, 1, vec![0]),
            Op::Add,
            Ref::Array(ArrayRef::identity(x, 1, vec![0])),
            Ref::Array(ArrayRef::identity(y, 1, vec![0])),
            1,
        );
        p.nests.push(LoopNest::new(0, vec![0], vec![4096], vec![s]));
        p.assign_layout(0, 4096);
        let a = analyze(&p, &cfg(), 25);
        let pred = a
            .get(&RefKey {
                nest_pos: 0,
                stmt_pos: 0,
                slot: 0,
            })
            .unwrap();
        assert!(
            pred.l1_miss_rate > 0.125 + 1e-9,
            "conflict term missing: {pred:?}"
        );
    }

    #[test]
    fn streaming_predicts_line_rate_misses() {
        let p = streaming();
        let a = analyze(&p, &cfg(), 25);
        let key = RefKey {
            nest_pos: 0,
            stmt_pos: 0,
            slot: 0,
        };
        let pred = a.get(&key).unwrap();
        // 8-byte stride on 64-byte lines: 1/8 misses.
        assert!((pred.l1_miss_rate - 0.125).abs() < 1e-9);
        // L1->L2 line collapse: 64/256 with fits-in-L2 discount.
        assert!(pred.l2_miss_rate > 0.0 && pred.l2_miss_rate < 0.5);
    }

    /// A small stencil with group reuse that fits in L1.
    #[test]
    fn stencil_follower_predicted_to_hit() {
        let mut p = Program::new("stencil");
        let x = p.add_array(ArrayDecl::new("X", vec![256], 8));
        let y = p.add_array(ArrayDecl::new("Y", vec![256], 8));
        let s = Stmt::binary(
            0,
            ArrayRef::identity(y, 1, vec![0]),
            Op::Add,
            Ref::Array(ArrayRef::identity(x, 1, vec![0])),
            Ref::Array(ArrayRef::identity(x, 1, vec![-1])),
            1,
        );
        p.nests.push(LoopNest::new(0, vec![1], vec![256], vec![s]));
        p.assign_layout(0, 4096);
        let a = analyze(&p, &cfg(), 1);
        let follower = a
            .get(&RefKey {
                nest_pos: 0,
                stmt_pos: 0,
                slot: 1,
            })
            .unwrap();
        // X[i-1] re-reads X[i]'s element one iteration later: hits.
        assert!(follower.l1_miss_rate < 0.1, "got {follower:?}");
        assert!(matches!(follower.reuse, ReuseKind::GroupTemporal { .. }));
    }

    /// Reuse across a huge outer span: capacity miss predicted.
    #[test]
    fn far_reuse_predicted_to_capacity_miss() {
        let mut p = Program::new("far");
        let x = p.add_array(ArrayDecl::new("X", vec![64, 2048], 8));
        let y = p.add_array(ArrayDecl::new("Y", vec![64, 2048], 8));
        // Y[i][j] = X[i][j] + X[i-1][j]: reuse distance (1,0) = one full
        // row = 2048*8 = 16 KB per ref per row -> window exceeds 32 KB
        // L1 with three streams.
        let s = Stmt::binary(
            0,
            ArrayRef::identity(y, 2, vec![0, 0]),
            Op::Add,
            Ref::Array(ArrayRef::identity(x, 2, vec![0, 0])),
            Ref::Array(ArrayRef::identity(x, 2, vec![-1, 0])),
            1,
        );
        let mut nest = LoopNest::new(0, vec![1, 0], vec![64, 2048], vec![s]);
        nest.parallel_level = None;
        p.nests.push(nest);
        p.assign_layout(0, 4096);
        let a = analyze(&p, &cfg(), 1);
        let follower = a
            .get(&RefKey {
                nest_pos: 0,
                stmt_pos: 0,
                slot: 1,
            })
            .unwrap();
        assert!(
            follower.l1_miss_rate > 0.1,
            "expected capacity misses, got {follower:?}"
        );
    }

    #[test]
    fn parallel_split_shrinks_reuse_window() {
        // Same as above but split over 25 cores: per-thread rows are
        // narrow... the reuse distance spans a full row regardless, so
        // the prediction is unchanged; this pins the extents plumbing.
        let mut p = Program::new("far_par");
        let x = p.add_array(ArrayDecl::new("X", vec![64, 2048], 8));
        let y = p.add_array(ArrayDecl::new("Y", vec![64, 2048], 8));
        let s = Stmt::binary(
            0,
            ArrayRef::identity(y, 2, vec![0, 0]),
            Op::Add,
            Ref::Array(ArrayRef::identity(x, 2, vec![0, 0])),
            Ref::Array(ArrayRef::identity(x, 2, vec![-1, 0])),
            1,
        );
        p.nests
            .push(LoopNest::new(0, vec![1, 0], vec![64, 2048], vec![s]));
        p.assign_layout(0, 4096);
        let a = analyze(&p, &cfg(), 25);
        assert_eq!(a.predictions.len(), 3);
    }

    #[test]
    fn every_reference_gets_a_prediction() {
        let p = streaming();
        let a = analyze(&p, &cfg(), 25);
        // Three references: X, Y reads + Z write.
        assert_eq!(a.predictions.len(), 3);
        for pred in a.predictions.values() {
            assert!((0.0..=1.0).contains(&pred.l1_miss_rate));
            assert!((0.0..=1.0).contains(&pred.l2_miss_rate));
        }
    }
}
