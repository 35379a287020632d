//! # seer-stamp — STAMP-like workload models
//!
//! Synthetic equivalents of the STAMP benchmarks the paper evaluates on
//! (§5: genome, intruder, kmeans-high/low, ssca2, vacation-high/low, yada;
//! bayes and labyrinth are excluded exactly as the paper excludes them).
//! Each model reproduces the properties a *scheduler* can observe — the
//! atomic-block structure, per-block footprints, write rates, the conflict
//! topology between blocks, and capacity pressure — rather than the
//! applications' computational semantics; `DESIGN.md` §2 documents why
//! that substitution preserves the evaluation.
//!
//! [`Benchmark`] enumerates the suite; [`Benchmark::instantiate`] builds a
//! ready-to-run [`model::StampModel`] (a `seer_runtime::Workload`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod genome;
pub mod hashmap;
pub mod intruder;
pub mod kmeans;
pub mod labyrinth;
pub mod model;
pub mod refined;
pub mod ssca2;
pub mod synth;
pub mod vacation;
pub mod yada;

pub use model::{RegionUse, StampBlock, StampModel};
pub use refined::RefinedModel;

/// The STAMP benchmark suite as evaluated in the paper, plus the §5.3
/// low-contention hash-map probe.
///
/// ```
/// use seer_runtime::{run, DriverConfig, NullScheduler, Workload};
/// use seer_stamp::Benchmark;
///
/// let mut workload = Benchmark::Ssca2.instantiate(2, 50);
/// let mut sched = NullScheduler::new(5);
/// let metrics = run(&mut workload, &mut sched, &DriverConfig::paper_machine(2, 1));
/// assert_eq!(metrics.commits, 100);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// Gene sequencing (Fig. 3a).
    Genome,
    /// Network intrusion detection (Fig. 3b).
    Intruder,
    /// Clustering, high contention (Fig. 3c).
    KmeansHigh,
    /// Clustering, low contention (Fig. 3d).
    KmeansLow,
    /// Graph kernel (Fig. 3e).
    Ssca2,
    /// Travel reservations, high contention (Fig. 3f).
    VacationHigh,
    /// Travel reservations, low contention (Fig. 3g).
    VacationLow,
    /// Delaunay mesh refinement (Fig. 3h).
    Yada,
    /// Low-contention hash map (§5.3 overhead probe; not part of Fig. 3).
    HashmapLow,
    /// Lee-routing on a grid — *excluded* from the paper's evaluation
    /// "as most of its transactions exceed TSX capacity"; modelled here to
    /// validate that exclusion (see [`labyrinth`]).
    Labyrinth,
    /// Synthetic many-blocks scaling probe with a configurable atomic-block
    /// count (`synth@blocks=N`; not part of the paper's evaluation — see
    /// [`synth`]).
    Synth {
        /// Number of atomic blocks.
        blocks: u16,
    },
}

impl Benchmark {
    /// The eight Figure 3 benchmarks, in the paper's presentation order.
    pub const STAMP: [Benchmark; 8] = [
        Benchmark::Genome,
        Benchmark::Intruder,
        Benchmark::KmeansHigh,
        Benchmark::KmeansLow,
        Benchmark::Ssca2,
        Benchmark::VacationHigh,
        Benchmark::VacationLow,
        Benchmark::Yada,
    ];

    /// Display name matching the paper's figure captions.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Genome => "genome",
            Benchmark::Intruder => "intruder",
            Benchmark::KmeansHigh => "kmeans-high",
            Benchmark::KmeansLow => "kmeans-low",
            Benchmark::Ssca2 => "ssca2",
            Benchmark::VacationHigh => "vacation-high",
            Benchmark::VacationLow => "vacation-low",
            Benchmark::Yada => "yada",
            Benchmark::HashmapLow => "hashmap-low",
            Benchmark::Labyrinth => "labyrinth",
            Benchmark::Synth { .. } => "synth",
        }
    }

    /// Full parameterized spec string: [`Benchmark::name`] for the fixed
    /// members, `synth@blocks=N` for the parameterized probe. Round-trips
    /// through [`Benchmark::from_spec`]; the harness uses it wherever a
    /// benchmark identifies a result (store keys, reports).
    pub fn spec(self) -> String {
        match self {
            Benchmark::Synth { blocks } => format!("synth@blocks={blocks}"),
            named => named.name().to_string(),
        }
    }

    /// Parses a spec string produced by [`Benchmark::spec`] (or typed at a
    /// CLI): a fixed member's name, `synth` (default block count), or
    /// `synth@blocks=N` with `1 ≤ N ≤` [`synth::MAX_BLOCKS`].
    pub fn from_spec(s: &str) -> Option<Benchmark> {
        if s == "synth" {
            return Some(Benchmark::Synth { blocks: synth::DEFAULT_BLOCKS });
        }
        if let Some(rest) = s.strip_prefix("synth@blocks=") {
            let blocks: u16 =
                rest.parse().ok().filter(|b| (1..=synth::MAX_BLOCKS).contains(b))?;
            return Some(Benchmark::Synth { blocks });
        }
        Benchmark::STAMP
            .iter()
            .copied()
            .chain([Benchmark::HashmapLow, Benchmark::Labyrinth])
            .find(|b| b.name() == s)
    }

    /// Default transactions per thread (scale 1).
    pub fn default_txs(self) -> usize {
        match self {
            Benchmark::Genome => genome::DEFAULT_TXS,
            Benchmark::Intruder => intruder::DEFAULT_TXS,
            Benchmark::KmeansHigh | Benchmark::KmeansLow => kmeans::DEFAULT_TXS,
            Benchmark::Ssca2 => ssca2::DEFAULT_TXS,
            Benchmark::VacationHigh | Benchmark::VacationLow => vacation::DEFAULT_TXS,
            Benchmark::Yada => yada::DEFAULT_TXS,
            Benchmark::HashmapLow => hashmap::DEFAULT_TXS,
            Benchmark::Labyrinth => labyrinth::DEFAULT_TXS,
            Benchmark::Synth { .. } => synth::DEFAULT_TXS,
        }
    }

    /// Instantiates the model for `threads` threads with `txs_per_thread`
    /// transactions each.
    pub fn instantiate(self, threads: usize, txs_per_thread: usize) -> StampModel {
        match self {
            Benchmark::Genome => genome::model(threads, txs_per_thread),
            Benchmark::Intruder => intruder::model(threads, txs_per_thread),
            Benchmark::KmeansHigh => kmeans::model_high(threads, txs_per_thread),
            Benchmark::KmeansLow => kmeans::model_low(threads, txs_per_thread),
            Benchmark::Ssca2 => ssca2::model(threads, txs_per_thread),
            Benchmark::VacationHigh => vacation::model_high(threads, txs_per_thread),
            Benchmark::VacationLow => vacation::model_low(threads, txs_per_thread),
            Benchmark::Yada => yada::model(threads, txs_per_thread),
            Benchmark::HashmapLow => hashmap::model(threads, txs_per_thread),
            Benchmark::Labyrinth => labyrinth::model(threads, txs_per_thread),
            Benchmark::Synth { blocks } => synth::model(blocks, threads, txs_per_thread),
        }
    }

    /// Instantiates with the default per-thread transaction count.
    pub fn instantiate_default(self, threads: usize) -> StampModel {
        self.instantiate(threads, self.default_txs())
    }

    /// Per-thread transaction count at `scale` (1.0 = the default),
    /// floored at 20 so heavily scaled-down runs still exercise every
    /// atomic block.
    pub fn scaled_txs(self, scale: f64) -> usize {
        ((self.default_txs() as f64 * scale) as usize).max(20)
    }

    /// Instantiates the model at a scale factor on the default
    /// transaction count — the one sizing rule shared by the harness
    /// runner, the experiment extras, and the CLI.
    pub fn instantiate_scaled(self, threads: usize, scale: f64) -> StampModel {
        self.instantiate(threads, self.scaled_txs(scale))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seer_runtime::Workload;

    #[test]
    fn suite_has_eight_figure3_benchmarks() {
        assert_eq!(Benchmark::STAMP.len(), 8);
        let names: Vec<_> = Benchmark::STAMP.iter().map(|b| b.name()).collect();
        assert!(names.contains(&"genome"));
        assert!(names.contains(&"yada"));
        assert!(!names.contains(&"hashmap-low"));
    }

    #[test]
    fn every_benchmark_instantiates() {
        for b in Benchmark::STAMP
            .iter()
            .copied()
            .chain([Benchmark::HashmapLow, Benchmark::Labyrinth])
        {
            let m = b.instantiate_default(8);
            assert_eq!(m.name(), b.name());
            assert!(m.num_blocks() >= 2, "{} too simple", b.name());
        }
        // The parameterized probe carries its spec as the model name.
        let m = Benchmark::Synth { blocks: 48 }.instantiate_default(8);
        assert_eq!(m.name(), "synth@blocks=48");
        assert_eq!(m.num_blocks(), 48);
    }

    #[test]
    fn spec_round_trips_through_from_spec() {
        for b in Benchmark::STAMP
            .iter()
            .copied()
            .chain([Benchmark::HashmapLow, Benchmark::Labyrinth])
            .chain([Benchmark::Synth { blocks: 1 }, Benchmark::Synth { blocks: 256 }])
        {
            assert_eq!(Benchmark::from_spec(&b.spec()), Some(b), "{}", b.spec());
        }
        assert_eq!(
            Benchmark::from_spec("synth"),
            Some(Benchmark::Synth { blocks: synth::DEFAULT_BLOCKS })
        );
        assert_eq!(Benchmark::from_spec("synth@blocks=0"), None);
        let largest = Benchmark::Synth { blocks: synth::MAX_BLOCKS };
        assert_eq!(Benchmark::from_spec("synth@blocks=4096"), Some(largest));
        assert_eq!(Benchmark::from_spec("synth@blocks=4097"), None);
        assert_eq!(Benchmark::from_spec("synth@blocks=65535"), None);
        assert_eq!(Benchmark::from_spec("synth@blocks=bogus"), None);
        assert_eq!(Benchmark::from_spec("synth@lines=4"), None);
        assert_eq!(Benchmark::from_spec("nope"), None);
    }
}
