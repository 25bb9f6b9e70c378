//! The 20 paper benchmarks, as synthetic kernels in the compiler IR.
//!
//! The paper evaluates 11 SPECOMP programs (md, bwaves, nab, bt, fma3d,
//! swim, imagick, mgrid, applu, smith.wa, kdtree) and 9 SPLASH-2
//! programs (barnes, cholesky, fft, lu, ocean, radiosity, raytrace,
//! volrend, water) with inputs scaled up to pressure the on-chip
//! resources (§3). We cannot ship those applications; instead each
//! benchmark here is a from-scratch kernel reproducing the *dominant
//! loop-nest and access-pattern class* of its namesake — stencils for
//! the CFD codes, dynamic-programming wavefronts for smith.wa, strided
//! butterflies for fft, gather-flavoured large-stride walks for the
//! tree/graphics codes, and so on. Arrival-window and NDC-opportunity
//! behaviour is a function of exactly these pattern classes (reuse
//! distances, bank spread, route overlap), which is why the
//! substitution preserves the evaluation's shape; each builder's doc
//! comment states the pattern it mirrors.
//!
//! Every kernel is deterministic, parameterized by [`Scale`], and
//! usable three ways: interpreted (semantics oracle), analyzed
//! (CME/compiler), and lowered to traces (simulator).

#![forbid(unsafe_code)]

pub mod gen;
pub mod specomp;
pub mod splash2;

use ndc_ir::program::Program;

/// Benchmark suite of origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    SpecOmp,
    Splash2,
}

/// Input scale: `Test` keeps unit tests fast; `Paper` sizes the arrays
/// to pressure L1 and generate DRAM traffic on the simulated machine
/// (the analog of the paper's enlarged inputs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Test,
    Paper,
    /// Footprint scaled to `base * num / den` elements — the mesh
    /// scale-up axis. `Scale::proportional(nodes)` keeps *per-core*
    /// work constant as the mesh grows: the 5×5 paper mesh maps to
    /// `Test` size exactly (25/200 = 1/8), a 16×16 mesh to 256/200 of
    /// the paper footprint.
    Fraction {
        num: u32,
        den: u32,
    },
}

impl Scale {
    /// A 1-D extent: `base` elements at `Paper` scale, an eighth at
    /// `Test` scale, `base * num / den` for the proportional axis.
    pub fn n(&self, base: u64) -> u64 {
        match self {
            Scale::Paper => base,
            Scale::Test => (base / 8).max(64),
            Scale::Fraction { num, den } => {
                (base * u64::from(*num) / u64::from(*den).max(1)).max(64)
            }
        }
    }

    /// The proportional scale for a mesh of `nodes` cores: per-core
    /// work matches `Scale::Test` on the paper's 5×5 mesh.
    pub fn proportional(nodes: usize) -> Self {
        Scale::Fraction {
            num: nodes as u32,
            den: 200,
        }
    }

    /// Interpolate a benchmark's own calibrated extents: `paper` at
    /// full scale, `test` at 1/8 footprint, linear in footprint
    /// fraction in between (and extrapolated beyond `Paper` for meshes
    /// larger than 5×5 — a 16×16 proportional run is 1.28× the paper
    /// footprint). Kernels with hand-tuned non-1/8 test extents (3-D
    /// stencils, padded banks) stay anchored to both calibration
    /// points instead of being rescaled blindly.
    pub fn pick(&self, paper: i64, test: i64) -> i64 {
        match self {
            Scale::Paper => paper,
            Scale::Test => test,
            Scale::Fraction { num, den } => {
                let num = i64::from(*num);
                let den = i64::from(*den).max(1);
                // footprint fraction f = num/den; f = 1/8 -> test,
                // f = 1 -> paper: test + (paper-test)*(8f-1)/7.
                let v = test + (paper - test) * (8 * num - den) / (7 * den);
                v.max(test.min(paper)).max(2)
            }
        }
    }
}

/// Dominant access-pattern class of a kernel — drives where its NDC
/// happens (the Figure 6/13 breakdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternClass {
    /// Line-stride streams over distinct arrays; banks scatter, NDC
    /// happens on the network.
    NetworkStream,
    /// Operand pairs engineered (or naturally aligned) to share an L2
    /// home bank: cache-controller NDC.
    CacheAligned,
    /// Page-stride streams sharing a memory controller: MC-queue NDC.
    McAligned,
    /// Table pairs sharing a DRAM bank: in-memory NDC.
    MemoryAligned,
    /// Fine strides and pervasive temporal reuse: locality-bound, NDC
    /// largely bypassed.
    ReuseBound,
    /// Order-constrained recurrences (wavefronts, DP): limited motion.
    DependenceBound,
}

/// One registered benchmark.
#[derive(Clone)]
pub struct Benchmark {
    pub name: &'static str,
    pub suite: Suite,
    /// The paper benchmark's dominant pattern this kernel mirrors.
    pub pattern: PatternClass,
    builder: fn(Scale) -> Program,
}

/// Timesteps per build: real applications iterate their solver loops,
/// so the steady state (warm L2, NoC-bound) dominates over the cold
/// first sweep. Each benchmark's nests are replayed this many times.
pub const TIMESTEPS: u32 = 3;

impl Benchmark {
    pub fn build(&self, scale: Scale) -> Program {
        self.build_timesteps(scale, TIMESTEPS)
    }

    /// Build with an explicit timestep count (1 = single cold sweep).
    pub fn build_timesteps(&self, scale: Scale, timesteps: u32) -> Program {
        let mut p = (self.builder)(scale);
        let base: Vec<ndc_ir::program::LoopNest> = p.nests.clone();
        let per_step = base.len() as u32;
        for t in 1..timesteps.max(1) {
            for nest in &base {
                let mut n = nest.clone();
                n.id = ndc_ir::program::NestId(n.id.0 + t * per_step);
                p.nests.push(n);
            }
        }
        // Shared layout policy: arrays packed from a common base with
        // page alignment, then staggered by 102400 bytes (= 25 pages =
        // 400 L2 lines = one full NUCA bank wrap AND a whole number of
        // pages) per array. The stagger breaks the pathological L1-set
        // alignment of page-aligned bases (a real allocator's padding;
        // 102400 B shifts the L1 set index by 64 per array) while
        // preserving every address-mapping relationship the kernels
        // engineer: L2 home banks (mod 25 lines), memory controllers
        // (mod 4 pages), and DRAM banks (mod 16 pages) of same-index
        // accesses to two arrays all keep their relative offsets.
        p.assign_layout(0x10_0000, 4096);
        for (i, a) in p.arrays.iter_mut().enumerate() {
            a.base += i as u64 * 102_400;
        }
        p
    }
}

impl std::fmt::Debug for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Benchmark")
            .field("name", &self.name)
            .field("suite", &self.suite)
            .finish()
    }
}

/// All 20 benchmarks in the paper's presentation order.
pub fn all_benchmarks() -> Vec<Benchmark> {
    use specomp::*;
    use splash2::*;
    vec![
        Benchmark {
            name: "md",
            pattern: PatternClass::NetworkStream,
            suite: Suite::SpecOmp,
            builder: md,
        },
        Benchmark {
            name: "bwaves",
            pattern: PatternClass::NetworkStream,
            suite: Suite::SpecOmp,
            builder: bwaves,
        },
        Benchmark {
            name: "nab",
            pattern: PatternClass::ReuseBound,
            suite: Suite::SpecOmp,
            builder: nab,
        },
        Benchmark {
            name: "bt",
            pattern: PatternClass::ReuseBound,
            suite: Suite::SpecOmp,
            builder: bt,
        },
        Benchmark {
            name: "fma3d",
            pattern: PatternClass::McAligned,
            suite: Suite::SpecOmp,
            builder: fma3d,
        },
        Benchmark {
            name: "swim",
            pattern: PatternClass::CacheAligned,
            suite: Suite::SpecOmp,
            builder: swim,
        },
        Benchmark {
            name: "imagick",
            pattern: PatternClass::NetworkStream,
            suite: Suite::SpecOmp,
            builder: imagick,
        },
        Benchmark {
            name: "mgrid",
            pattern: PatternClass::CacheAligned,
            suite: Suite::SpecOmp,
            builder: mgrid,
        },
        Benchmark {
            name: "applu",
            pattern: PatternClass::DependenceBound,
            suite: Suite::SpecOmp,
            builder: applu,
        },
        Benchmark {
            name: "smith.wa",
            pattern: PatternClass::DependenceBound,
            suite: Suite::SpecOmp,
            builder: smith_wa,
        },
        Benchmark {
            name: "kdtree",
            pattern: PatternClass::CacheAligned,
            suite: Suite::SpecOmp,
            builder: kdtree,
        },
        Benchmark {
            name: "barnes",
            pattern: PatternClass::NetworkStream,
            suite: Suite::Splash2,
            builder: barnes,
        },
        Benchmark {
            name: "cholesky",
            pattern: PatternClass::ReuseBound,
            suite: Suite::Splash2,
            builder: cholesky,
        },
        Benchmark {
            name: "fft",
            pattern: PatternClass::NetworkStream,
            suite: Suite::Splash2,
            builder: fft,
        },
        Benchmark {
            name: "lu",
            pattern: PatternClass::ReuseBound,
            suite: Suite::Splash2,
            builder: lu,
        },
        Benchmark {
            name: "ocean",
            pattern: PatternClass::NetworkStream,
            suite: Suite::Splash2,
            builder: ocean,
        },
        Benchmark {
            name: "radiosity",
            pattern: PatternClass::CacheAligned,
            suite: Suite::Splash2,
            builder: radiosity,
        },
        Benchmark {
            name: "raytrace",
            pattern: PatternClass::CacheAligned,
            suite: Suite::Splash2,
            builder: raytrace,
        },
        Benchmark {
            name: "volrend",
            pattern: PatternClass::MemoryAligned,
            suite: Suite::Splash2,
            builder: volrend,
        },
        Benchmark {
            name: "water",
            pattern: PatternClass::NetworkStream,
            suite: Suite::Splash2,
            builder: water,
        },
    ]
}

/// Look up a benchmark by its paper name.
pub fn by_name(name: &str) -> Option<Benchmark> {
    all_benchmarks().into_iter().find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndc_ir::{lower, DataStore, Interpreter, LowerOptions};

    #[test]
    fn twenty_benchmarks_with_unique_names() {
        let all = all_benchmarks();
        assert_eq!(all.len(), 20);
        let mut names: Vec<&str> = all.iter().map(|b| b.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 20);
        assert_eq!(all.iter().filter(|b| b.suite == Suite::SpecOmp).count(), 11);
        assert_eq!(all.iter().filter(|b| b.suite == Suite::Splash2).count(), 9);
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("swim").is_some());
        assert!(by_name("smith.wa").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn every_benchmark_builds_lowers_and_validates() {
        for b in all_benchmarks() {
            let p = b.build(Scale::Test);
            assert!(!p.nests.is_empty(), "{} has no nests", b.name);
            assert!(p.footprint() > 0);
            // Arrays are laid out disjointly.
            for w in p.arrays.windows(2) {
                assert!(
                    w[1].base >= w[0].base + w[0].size_bytes(),
                    "{}: overlapping arrays",
                    b.name
                );
            }
            let traces = lower(
                &p,
                &LowerOptions {
                    cores: 4,
                    emit_busy: true,
                },
                None,
            );
            assert!(traces.total_insts() > 0, "{} lowered empty", b.name);
            assert!(traces.total_computes() > 0, "{} has no computes", b.name);
            assert!(traces.validate_precompute_links().is_ok());
        }
    }

    #[test]
    fn interpretation_is_deterministic() {
        for b in all_benchmarks() {
            let p = b.build(Scale::Test);
            let mut s1 = DataStore::init(&p);
            let mut s2 = DataStore::init(&p);
            Interpreter::new(&p).run(&mut s1);
            Interpreter::new(&p).run(&mut s2);
            assert_eq!(
                s1.checksum(),
                s2.checksum(),
                "{} is nondeterministic",
                b.name
            );
        }
    }

    #[test]
    fn paper_scale_is_larger_than_test_scale() {
        for b in all_benchmarks() {
            let small = b.build(Scale::Test);
            let big = b.build(Scale::Paper);
            assert!(
                big.footprint() > small.footprint(),
                "{}: paper scale not larger",
                b.name
            );
        }
    }

    /// Sample the operand pair of a statement and return
    /// (same L2 home, same MC, same DRAM bank) match fractions.
    fn pair_fractions(prog: &Program, nest_idx: usize, stmt_idx: usize) -> (f64, f64, f64) {
        let cfg = ndc_types::ArchConfig::paper_default();
        let nest = &prog.nests[nest_idx];
        let stmt = &nest.body[stmt_idx];
        let (ra, rb) = stmt.memory_operand_pair().expect("binary stmt");
        let (mut home, mut mc, mut bank, mut n) = (0u32, 0u32, 0u32, 0u32);
        let mut pt = vec![0; nest.depth()];
        for k in (0..nest.points()).step_by(61).take(100) {
            nest.point_at(k, &mut pt);
            let (Some(a), Some(b)) = (prog.addr_of(ra, &pt), prog.addr_of(rb, &pt)) else {
                continue;
            };
            n += 1;
            if cfg.l2_home(a) == cfg.l2_home(b) {
                home += 1;
            }
            if cfg.mc_of(a) == cfg.mc_of(b) {
                mc += 1;
                if cfg.dram_bank_of(a) == cfg.dram_bank_of(b) {
                    bank += 1;
                }
            }
        }
        let n = n.max(1) as f64;
        (home as f64 / n, mc as f64 / n, bank as f64 / n)
    }

    /// The engineered address relationships each kernel's doc comment
    /// promises — the properties the Figure 6/13 location breakdown
    /// rests on.
    #[test]
    fn engineered_colocation_properties_hold() {
        // kdtree: probe and pivot always share an L2 home bank.
        let p = by_name("kdtree").unwrap().build(Scale::Paper);
        let (home, _, _) = pair_fractions(&p, 0, 0);
        assert!(home > 0.99, "kdtree same-home: {home}");

        // raytrace: origin and direction always share an L2 home.
        let p = by_name("raytrace").unwrap().build(Scale::Paper);
        let (home, _, _) = pair_fractions(&p, 0, 0);
        assert!(home > 0.99, "raytrace same-home: {home}");

        // swim: the stencil pair always shares an L2 home.
        let p = by_name("swim").unwrap().build(Scale::Paper);
        let (home, _, _) = pair_fractions(&p, 0, 0);
        assert!(home > 0.99, "swim same-home: {home}");

        // fma3d: the gather pair always shares an MC but never a DRAM
        // bank or an L2 home.
        let p = by_name("fma3d").unwrap().build(Scale::Paper);
        let (home, mc, bank) = pair_fractions(&p, 0, 0);
        assert!(mc > 0.99, "fma3d same-mc: {mc}");
        assert!(bank < 0.01, "fma3d same-bank: {bank}");
        assert!(home < 0.01, "fma3d same-home: {home}");

        // volrend: the table lookups always share a DRAM bank, never an
        // L2 home (in-memory computation).
        let p = by_name("volrend").unwrap().build(Scale::Paper);
        let lookup_nest = p
            .nests
            .iter()
            .position(|n| n.body.iter().any(|s| s.id == ndc_ir::StmtId(2)))
            .expect("lookup nest");
        let (home, _, bank) = pair_fractions(&p, lookup_nest, 0);
        assert!(bank > 0.99, "volrend same-dram-bank: {bank}");
        assert!(home < 0.01, "volrend same-home: {home}");

        // md: the pair phase scatters homes (it is the network/MC
        // workload).
        let p = by_name("md").unwrap().build(Scale::Paper);
        let (home, _, _) = pair_fractions(&p, 0, 0);
        assert!(home < 0.2, "md pairs should scatter homes: {home}");
    }

    /// md and water carry the multi-consumer lagging-reuse chains that
    /// split the two algorithms: Algorithm 2 must bypass them.
    #[test]
    fn reuse_chains_split_the_algorithms() {
        use ndc_types::ArchConfig;
        let cfg = ArchConfig::paper_default();
        for name in ["md", "water"] {
            let p = by_name(name).unwrap().build(Scale::Test);
            let (_, r2) = ndc_compiler::compile_algorithm2(
                &p,
                &cfg,
                cfg.nodes(),
                ndc_compiler::Algorithm2Options::default(),
            );
            assert!(
                r2.bypassed_reuse > 0,
                "{name}: Algorithm 2 should bypass the lagging-reuse chain"
            );
        }
    }

    #[test]
    fn work_is_distributed_across_cores() {
        for b in all_benchmarks() {
            let p = b.build(Scale::Test);
            let traces = lower(
                &p,
                &LowerOptions {
                    cores: 4,
                    emit_busy: false,
                },
                None,
            );
            let busy_cores = traces.traces.iter().filter(|t| !t.insts.is_empty()).count();
            assert!(
                busy_cores >= 2,
                "{}: only {busy_cores} cores have work",
                b.name
            );
        }
    }
}
