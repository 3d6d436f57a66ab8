//! The command-line front end that `fume-cli` and `fume-serve` share.
//!
//! Both binaries take the same dataset and model flags, load the CSV the
//! same way and build the same [`FumeConfig`] from them, which is what
//! makes a report served by `fume-serve` byte-identical to the one
//! `fume-cli explain --json` prints for the same flags. This module is
//! the one copy of all of that:
//!
//! * [`RunArgs::parse`] reads the shared flags and hands every other
//!   flag to the calling binary;
//! * [`RunArgs::load`] runs the CSV → bins → group → split pipeline;
//! * [`RunArgs::config`] maps the flags to a [`FumeConfig`];
//! * [`Trace`] stamps and writes the `--trace` file.
//!
//! Nothing here exits or panics: every failure is a [`CliError`] for the
//! binary's `main` to report.
//!
//! ```
//! use fume::cli::{Flags, RunArgs};
//! let argv = ["--data", "loans.csv", "--sensitive", "sex", "--privileged", "m", "--metric", "eo"];
//! let mut flags = Flags::new(argv.map(String::from));
//! let args = RunArgs::parse(&mut flags, |_, _| Ok(false)).unwrap();
//! assert_eq!(args.config().metric, fume::fairness::FairnessMetric::EqualizedOdds);
//! ```

use std::io::Write;

use fume_core::{checkpoint, FumeConfig};
use fume_fairness::FairnessMetric;
use fume_forest::DareConfig;
use fume_lattice::{LiteralGen, SupportRange};
use fume_obs::hash::fnv1a;
use fume_obs::Recorder;
use fume_serve::protocol::parse_metric;
use fume_tabular::csv::{read_csv, CsvOptions};
use fume_tabular::discretize::{discretize, Discretizer};
use fume_tabular::split::train_test_split;
use fume_tabular::{Dataset, GroupSpec};

/// Usage lines of the flags [`RunArgs`] reads.
const RUN_OPTIONS: &str = "  --metric TAG          fairness metric: sp, eo, pp or a report tag (default sp)
  --support MIN:MAX     support range (default 0.05:0.15)
  --max-literals N      interpretability cap (default 2)
  --top-k K             subsets to report (default 5)
  --trees N             forest size (default 50)
  --depth D             max tree depth (default 10)
  --seed S              RNG seed (default 0)
  --test-fraction F     held-out fraction (default 0.3)
  --bins B              numeric discretization bins (default 5)
  --ranges              generate <=/>= literals on binned columns
  --trace FILE          write a JSONL span/counter trace (or set FUME_TRACE)
";

/// The usage text of a binary: its `synopsis` (program name and any
/// subcommand) with the shared flags, then its own option lines `extra`.
pub fn usage(synopsis: &str, extra: &str) -> String {
    format!(
        "usage: {synopsis} --data FILE.csv --label COL --positive VALUE \
         --sensitive COL --privileged VALUE\noptions:\n{RUN_OPTIONS}{extra}"
    )
}

/// Why a front-end step failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The command line is malformed: print the usage text, exit 2.
    Usage,
    /// Anything else: print the message, exit 1.
    Failed(String),
}

impl<E: std::error::Error> From<E> for CliError {
    fn from(e: E) -> Self {
        Self::Failed(e.to_string())
    }
}

/// The command line after the program name, read one word at a time.
#[derive(Debug)]
pub struct Flags(std::vec::IntoIter<String>);

impl Flags {
    /// Flags from `argv`, which excludes the program name.
    pub fn new(argv: impl IntoIterator<Item = String>) -> Self {
        Self(argv.into_iter().collect::<Vec<_>>().into_iter())
    }

    /// This process's command line.
    pub fn from_env() -> Self {
        Self::new(std::env::args().skip(1))
    }

    /// The value that follows a flag; a missing one is a usage error.
    pub fn value(&mut self) -> Result<String, CliError> {
        self.0.next().ok_or(CliError::Usage)
    }

    /// The value that follows a flag, parsed; a missing or unparsable
    /// one is a usage error.
    pub fn parsed<T: std::str::FromStr>(&mut self) -> Result<T, CliError> {
        self.value()?.parse().map_err(|_| CliError::Usage)
    }
}

impl Iterator for Flags {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.0.next()
    }
}

/// The dataset and model flags both binaries take.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// `--data`: the CSV file.
    pub data: String,
    /// `--label`: the label column.
    pub label: String,
    /// `--positive`: the label value that counts as favourable.
    pub positive: String,
    /// `--sensitive`: the protected attribute.
    pub sensitive: String,
    /// `--privileged`: the privileged value of `sensitive`.
    pub privileged: String,
    /// `--metric`: the fairness notion.
    pub metric: FairnessMetric,
    /// `--support`: the subset support range.
    pub support: SupportRange,
    /// `--max-literals`: literals per subset.
    pub max_literals: usize,
    /// `--top-k`: subsets to report.
    pub top_k: usize,
    /// `--trees`: forest size.
    pub trees: usize,
    /// `--depth`: maximum tree depth.
    pub depth: usize,
    /// `--seed`: the split and forest seed.
    pub seed: u64,
    /// `--test-fraction`: held-out fraction.
    pub test_fraction: f64,
    /// `--bins`: quantile bins per numeric column.
    pub bins: usize,
    /// `--ranges`: also generate `<=`/`>=` literals.
    pub ranges: bool,
    /// `--trace` (or `FUME_TRACE`): where to write the JSONL trace.
    pub trace: Option<String>,
}

impl RunArgs {
    /// Reads the shared flags from `flags` and hands every other flag to
    /// `extra`, which consumes the flag's value (if any) and returns
    /// `Ok(false)` for a flag it does not know either. `--data`,
    /// `--sensitive` and `--privileged` are required.
    pub fn parse(
        flags: &mut Flags,
        mut extra: impl FnMut(&str, &mut Flags) -> Result<bool, CliError>,
    ) -> Result<Self, CliError> {
        let mut args = RunArgs {
            data: String::new(),
            label: "label".into(),
            positive: "1".into(),
            sensitive: String::new(),
            privileged: String::new(),
            metric: FairnessMetric::StatisticalParity,
            support: SupportRange::medium(),
            max_literals: 2,
            top_k: 5,
            trees: 50,
            depth: 10,
            seed: 0,
            test_fraction: 0.3,
            bins: 5,
            ranges: false,
            trace: std::env::var("FUME_TRACE").ok().filter(|s| !s.is_empty()),
        };
        while let Some(flag) = flags.next() {
            match flag.as_str() {
                "--data" => args.data = flags.value()?,
                "--label" => args.label = flags.value()?,
                "--positive" => args.positive = flags.value()?,
                "--sensitive" => args.sensitive = flags.value()?,
                "--privileged" => args.privileged = flags.value()?,
                "--metric" => {
                    let tag = flags.value()?;
                    let unknown = || format!("unknown metric `{tag}` (sp|eo|pp or a report tag)");
                    args.metric = parse_metric(&tag).ok_or_else(|| CliError::Failed(unknown()))?;
                }
                "--support" => args.support = parse_support(&flags.value()?)?,
                "--max-literals" => args.max_literals = flags.parsed()?,
                "--top-k" => args.top_k = flags.parsed()?,
                "--trees" => args.trees = flags.parsed()?,
                "--depth" => args.depth = flags.parsed()?,
                "--seed" => args.seed = flags.parsed()?,
                "--test-fraction" => args.test_fraction = flags.parsed()?,
                "--bins" => args.bins = flags.parsed()?,
                "--ranges" => args.ranges = true,
                "--trace" => args.trace = Some(flags.value()?),
                "--help" | "-h" => return Err(CliError::Usage),
                other => {
                    if !extra(other, flags)? {
                        return Err(CliError::Failed(format!("unknown flag `{other}`")));
                    }
                }
            }
        }
        if args.data.is_empty() || args.sensitive.is_empty() || args.privileged.is_empty() {
            return Err(CliError::Usage);
        }
        Ok(args)
    }

    /// Reads the CSV, bins its numeric columns, resolves the protected
    /// group and splits train from test.
    pub fn load(&self) -> Result<(Dataset, Dataset, GroupSpec), CliError> {
        let opts = CsvOptions {
            label_column: self.label.clone(),
            positive_label: self.positive.clone(),
            ..CsvOptions::default()
        };
        let raw = read_csv(&self.data, &opts)?;
        let data = discretize(&raw, Discretizer::Quantile(self.bins))?;
        let attr = data.schema().attribute_index(&self.sensitive)?;
        let privileged_code = data
            .schema()
            .attribute(attr)
            .ok()
            .and_then(|a| a.code_of(&self.privileged))
            .ok_or_else(|| {
                CliError::Failed(format!(
                    "value `{}` not found in column `{}`",
                    self.privileged, self.sensitive
                ))
            })?;
        let group = GroupSpec::new(attr, privileged_code);
        let (train, test) = train_test_split(&data, self.test_fraction, self.seed)?;
        Ok((train, test, group))
    }

    /// One line describing what [`load`](Self::load) returned.
    pub fn loaded_banner(&self, train: &Dataset, test: &Dataset) -> String {
        format!(
            "loaded {} train / {} test rows, {} attributes; sensitive `{}` (privileged `{}`)",
            train.num_rows(),
            test.num_rows(),
            train.num_attributes(),
            self.sensitive,
            self.privileged
        )
    }

    /// The run configuration these flags describe.
    pub fn config(&self) -> FumeConfig {
        let literal_gen = if self.ranges { LiteralGen::WithRanges } else { LiteralGen::EqOnly };
        FumeConfig::default()
            .with_metric(self.metric)
            .with_support(self.support)
            .with_max_literals(self.max_literals)
            .with_top_k(self.top_k)
            .with_literal_gen(literal_gen)
            .with_forest(
                DareConfig::default()
                    .with_trees(self.trees)
                    .with_max_depth(self.depth)
                    .with_seed(self.seed),
            )
    }

    /// FNV-1a over `prefix` and a canonical rendering of the run-defining
    /// flags: the trace header's `config_hash`, so `fume-trace diff`
    /// users can tell config drift from perf drift. `fume-cli` passes its
    /// subcommand and `fume-serve` passes `serve`.
    pub fn config_hash(&self, prefix: &str) -> u64 {
        let canonical = format!(
            "{prefix}|{:?}|{}:{}|{}|{}|{}|{}|{}|{}|{}",
            self.metric,
            self.support.min,
            self.support.max,
            self.max_literals,
            self.top_k,
            self.trees,
            self.depth,
            self.seed,
            self.bins,
            self.ranges,
        );
        fnv1a(canonical.as_bytes())
    }

    /// Installs the process-wide recorder when `--trace` (or
    /// `FUME_TRACE`) names a file.
    pub fn start_trace(&self) -> Option<Trace> {
        let path = self.trace.clone()?;
        Some(Trace { path, recorder: fume_obs::install() })
    }
}

fn parse_support(v: &str) -> Result<SupportRange, CliError> {
    let Some((lo, hi)) = v.split_once(':') else {
        return Err(CliError::Failed(format!("--support expects MIN:MAX, got `{v}`")));
    };
    match (lo.parse(), hi.parse()) {
        (Ok(lo), Ok(hi)) => Ok(SupportRange::new(lo, hi)?),
        _ => Err(CliError::Failed(format!("--support expects numbers, got `{v}`"))),
    }
}

/// A `--trace` session: the installed recorder and the file it goes to.
pub struct Trace {
    path: String,
    recorder: &'static Recorder,
}

impl Trace {
    /// Stamps the trace header with what identifies the run: the seed,
    /// [`RunArgs::config_hash`] under `hash_prefix`, the dataset
    /// fingerprint and the dataset path.
    pub fn stamp(
        &self,
        args: &RunArgs,
        hash_prefix: &str,
        train: &Dataset,
        test: &Dataset,
        group: GroupSpec,
    ) {
        let rec = self.recorder;
        rec.set_meta("seed", args.seed.to_string());
        rec.set_meta("config_hash", format!("{:016x}", args.config_hash(hash_prefix)));
        let fingerprint = checkpoint::fingerprint(train, test, group);
        rec.set_meta("dataset_fingerprint", format!("{fingerprint:016x}"));
        rec.set_meta("dataset", args.data.clone());
    }

    /// Writes the trace file, then reports it and the profile table on
    /// stderr under the name `program`.
    pub fn finish(&self, program: &str) -> Result<(), CliError> {
        let rec = self.recorder;
        std::fs::write(&self.path, rec.events_to_jsonl()).map_err(|e| {
            CliError::Failed(format!("cannot write trace `{}`: {e}", self.path))
        })?;
        let mut stderr = std::io::stderr();
        let events = rec.event_count();
        let _ = writeln!(stderr, "{program}: wrote {events} trace events to {}", self.path);
        let _ = write!(stderr, "\n{}", rec.profile_table());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `scripts/verify.sh`'s smoke flags.
    fn smoke() -> Vec<String> {
        "--data loans.csv --label approved --positive 1 --sensitive sex --privileged m \
         --trees 10 --depth 5 --seed 3 --support 0.05:0.4 --max-literals 2"
            .split_whitespace()
            .map(String::from)
            .collect()
    }

    fn parse(argv: Vec<String>) -> Result<RunArgs, CliError> {
        RunArgs::parse(&mut Flags::new(argv), |_, _| Ok(false))
    }

    #[test]
    fn config_hashes_keep_their_values() {
        let args = parse(smoke()).unwrap();
        assert_eq!(args.config_hash("explain"), 0x9b7a_e6b1_0990_e83d);
        assert_eq!(args.config_hash("serve"), 0xa2d2_c6c9_7526_50d5);
    }

    #[test]
    fn flags_map_onto_the_config() {
        let mut argv = smoke();
        let extra = ["--ranges", "--top-k", "7", "--metric", "equal_opportunity"];
        argv.extend(extra.map(String::from));
        let cfg = parse(argv).unwrap().config();
        assert_eq!(cfg.metric, FairnessMetric::EqualOpportunity);
        assert_eq!((cfg.max_literals, cfg.top_k), (2, 7));
        assert_eq!(cfg.forest, DareConfig::default().with_trees(10).with_max_depth(5).with_seed(3));
        assert_eq!(cfg.literal_gen, LiteralGen::WithRanges);
        assert!(cfg.toggles.prune_redundant);
        assert_eq!(cfg.checkpoint_dir, None);
    }

    #[test]
    fn extra_flags_reach_the_binary() {
        let mut argv = smoke();
        argv.extend(["--workers", "3", "--json"].map(String::from));
        let (mut workers, mut json) = (0usize, false);
        RunArgs::parse(&mut Flags::new(argv), |flag, flags| {
            match flag {
                "--workers" => workers = flags.parsed()?,
                "--json" => json = true,
                _ => return Ok(false),
            }
            Ok(true)
        })
        .unwrap();
        assert_eq!((workers, json), (3, true));
    }

    #[test]
    fn bad_command_lines_are_typed_errors() {
        let with = |extra: &[&str]| {
            let mut argv = smoke();
            argv.extend(extra.iter().map(|s| s.to_string()));
            parse(argv)
        };
        assert_eq!(parse(Vec::new()), Err(CliError::Usage));
        assert_eq!(with(&["--help"]), Err(CliError::Usage));
        assert_eq!(with(&["--trees"]), Err(CliError::Usage));
        assert_eq!(with(&["--trees", "many"]), Err(CliError::Usage));
        let failing: [&[&str]; 5] = [
            &["--metric", "nope"],
            &["--support", "0.4"],
            &["--support", "a:b"],
            &["--support", "0.5:0.1"],
            &["--warp"],
        ];
        for bad in failing {
            assert!(matches!(with(bad), Err(CliError::Failed(_))), "{bad:?}");
        }
    }
}
